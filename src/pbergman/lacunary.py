"""L^p-integrability machinery for lacunary power series on the unit disk.

The radial criterion integral uses the squared coefficient moduli,
integral over (0,1) of (sum_k |a_k|^2 r^(2 lambda_k))^(p/2) * 2 pi r dr,
together with the true area measure.  That convention makes the p = 2 ratio
against the direct area integral exactly 1 (Parseval), which is the sharp
test of the machinery; any other normalization is absorbed by the comparison
constant anyway.

Every value of a series on circles comes from one evaluator (``_tiles``).
It works through tiles of a few radii by one chunk of angles, multiplying
the radial amplitudes a_k r_i^lambda_k of the terms still alive on those
radii by an L x chunk phase table small enough to stay in cache.  The table
is read off the K-th roots of unity at (lambda_k j) mod K, so its phases are
exact to the ulp, and later chunks fold their offset root into the
amplitudes instead of building a new table.  The direct area integral takes
no grid: it keeps the 256 Gauss-Legendre radii of ``default_series_grid``
but sizes each circle's angular count K to the bandwidth that circle
carries: on inner circles r^lambda has pushed the high terms below rounding,
so far fewer than 8 lambda_max angles resolve |f|^p there (Trefethen and
Weideman, "The exponentially convergent trapezoidal rule", SIAM Review
2014).  It reduces each tile to per-circle sums of |f|^p, so it never holds
more than one tile of values and never builds flat ``nodes`` and
``weights`` arrays; the circle norm ratio is the one-circle case.

All operations are pure.
"""

from __future__ import annotations

import cmath
import csv
import math
from dataclasses import dataclass

import numpy as np

from .geometry import Domain, QuadratureGrid, _gauss_legendre, build_grid

__all__ = [
    "LAMBDA_MAX_CAP",
    "NotLacunaryError",
    "RefinementError",
    "LacunarySeries",
    "lacunarity_constant",
    "criterion_integral",
    "series_grid_values",
    "direct_lp",
    "default_series_grid",
    "equivalence_ratio",
    "circle_norm_ratio",
    "read_series_csv",
    "integrability_record",
]

# Beyond this exponent the circle quadrature cost is prohibitive; the radial
# criterion alone is offered.
LAMBDA_MAX_CAP = 2**20

# The largest lambda_max the direct area integral takes: its rule gives the
# outer circles up to 8 lambda_max angles each.
_DIRECT_LAMBDA_MAX = 4096

# A term is dead on a circle, and dropped there, once |a_k| r^lambda_k falls
# below this fraction of the largest term on that circle, a tenth of the unit
# roundoff.
_LIVE_CUT = 1e-17

# Angles per chunk and values per tile of the circle evaluator.  At 13 terms
# the L x chunk phase table (208 KB) and a tile of values (512 KB) share a
# 2 MB L2 cache.  Chunks of 2^9 to 2^11 angles with tiles of 2^15 or 2^16
# values timed alike, within noise, for the default rule at lambda_max 256,
# 1024 and 4096 (2-vCPU VM, one BLAS thread); 2^12 angles were slower.
_CHUNK = 2**10
_TILE_NODES = 2**15

# The radial criterion integral: Gauss-Legendre points per panel, the relative
# tolerance on the strip left toward r = 1, and the most panels toward it.
_RADIAL_POINTS = 32
_RADIAL_TOL = 1e-8
_RADIAL_LEVELS = 60


class NotLacunaryError(ValueError):
    """Exponent gaps do not satisfy lambda_{k+1} >= A lambda_k for any A > 1."""


class RefinementError(RuntimeError):
    """Geometric refinement toward r = 1 did not converge."""


def lacunarity_constant(exponents) -> float:
    """min_k lambda_{k+1} / lambda_k; +inf for a single term."""
    exps = [int(n) for n in exponents]
    if not exps:
        raise ValueError("need at least one exponent")
    if exps[0] < 1:
        raise ValueError(f"exponents must be positive, got {exps[0]}")
    if any(b <= a for a, b in zip(exps, exps[1:])):
        raise ValueError(f"exponents must be strictly increasing, got {exps}")
    if len(exps) == 1:
        return math.inf
    return min(b / a for a, b in zip(exps, exps[1:]))


@dataclass(frozen=True, eq=False)
class LacunarySeries:
    """f(z) = sum_k a_k z^(lambda_k) with lacunary exponents."""

    exponents: tuple[int, ...]
    coefficients: np.ndarray

    def __post_init__(self):
        exps = tuple(int(n) for n in self.exponents)
        object.__setattr__(self, "exponents", exps)
        A = lacunarity_constant(exps)
        if not A > 1.0:
            raise NotLacunaryError(f"lacunarity constant {A} is not > 1")
        coef = np.asarray(self.coefficients, dtype=complex)
        if coef.shape != (len(exps),):
            raise ValueError(
                f"{coef.size} coefficients for {len(exps)} exponents"
            )
        coef = coef.copy()
        coef.setflags(write=False)
        object.__setattr__(self, "coefficients", coef)

    @property
    def lacunarity(self) -> float:
        return lacunarity_constant(self.exponents)

    @property
    def lambda_max(self) -> int:
        return self.exponents[-1]


def _unit_scale(series: LacunarySeries) -> tuple[LacunarySeries, np.float64]:
    """The series divided by its largest coefficient modulus M, and M.

    The integrals square coefficient moduli and values, which underflows
    below about 1e-154 and overflows above 1e+154; at unit scale neither
    happens, and an integral of |f|^p scales back by M^p.  The zero series
    is returned as it is, with M = 0.
    """
    M = np.max(np.abs(series.coefficients))
    if M == 0.0:
        return series, M
    return LacunarySeries(series.exponents, series.coefficients / M), M


def _radial_profile(series: LacunarySeries):
    amp2 = np.abs(series.coefficients) ** 2
    lams = np.array(series.exponents, dtype=float)
    return amp2, lams


def _profile_power(amp2, lams, r: np.ndarray, p: float) -> np.ndarray:
    # sum_k |a_k|^2 r^(2 lambda_k), stable for large lambda via exp(log)
    logr = np.log(r)
    s = amp2 @ np.exp(2.0 * lams[:, None] * logr[None, :])
    return s ** (0.5 * p) * (2.0 * math.pi * r)


def criterion_integral(series: LacunarySeries, p: float) -> float:
    """Radial integrability criterion with refinement toward r = 1.

    Lacunary tails concentrate mass at the boundary, so the interval is cut
    into the geometric segments [1 - 2^-j, 1 - 2^-(j-1)] with fixed
    Gauss-Legendre panels, accumulating until the remaining strip is
    provably below the relative tolerance.  The kink of the integrand at
    r = 0 gets the mirrored ladder.
    """
    if not 0 < p < math.inf:
        raise ValueError(f"p must be positive and finite, got {p}")
    unit, scale = _unit_scale(series)
    if scale == 0.0:
        return 0.0
    amp2, lams = _radial_profile(unit)
    peak = float(amp2.sum())  # profile value at r = 1

    x, gw = _gauss_legendre(_RADIAL_POINTS)

    def panel(a: float, b: float) -> float:
        r = 0.5 * (b - a) * x + 0.5 * (a + b)
        return float((0.5 * (b - a)) * gw @ _profile_power(amp2, lams, r, p))

    # ladder toward 0: [2^-41, 2^-40], ..., [1/4, 1/2]; below 2^-41 the
    # integrand is bounded by peak^(p/2) * 2 pi r^(p lambda_1 + 1), negligible
    total = 0.0
    for j in range(41, 1, -1):
        total += panel(2.0**-j, 2.0 ** -(j - 1))

    # ladder toward 1 with an explicit remaining-strip bound; once the strip
    # is below tolerance it is integrated in one closing panel (the profile
    # varies by at most exp(2 lambda_max 2^-j) there, flat by then)
    bound_factor = 2.0 * math.pi * peak ** (0.5 * p)
    converged = False
    for j in range(1, _RADIAL_LEVELS + 1):
        total += panel(1.0 - 2.0**-j, 1.0 - 2.0 ** -(j + 1))
        remaining = bound_factor * 2.0 ** -(j + 1)
        if remaining <= _RADIAL_TOL * total:
            total += panel(1.0 - 2.0 ** -(j + 1), 1.0)
            converged = True
            break
    if not converged:
        raise RefinementError(
            f"radial refinement did not converge within {_RADIAL_LEVELS} levels"
        )
    return float(total * scale**p)


def default_series_grid(series: LacunarySeries) -> QuadratureGrid:
    """Unit-disk grid resolving |f|^p for this series (256 x 8*lambda_max),
    for lambda_max up to the direct integral's limit of 4096."""
    lam = series.lambda_max
    if lam > _DIRECT_LAMBDA_MAX:
        raise ValueError(
            f"lambda_max {lam} is above {_DIRECT_LAMBDA_MAX}, the largest the "
            "direct area integral takes (8*lambda_max angles per circle)"
        )
    return build_grid(Domain("disk", 1.0), 256, max(256, 8 * lam))


def _require_unit_disk(grid: QuadratureGrid) -> None:
    dom = grid.domain
    if dom.kind != "disk" or abs(dom.outer_radius - 1.0) > 1e-12:
        raise ValueError(f"series integrals need the unit disk, got {dom}")


def _amplitudes(series: LacunarySeries, radii):
    """a_k r_i^lambda_k, one row per radius, and the live count of each row.

    A row's live count is the number of leading terms up to the last one with
    |a_k| r_i^lambda_k >= _LIVE_CUT * max_k |a_k| r_i^lambda_k.  The terms
    after it are below rounding on that circle, however small the series is
    there.  The sizes are compared as logarithms, which do not underflow
    where the terms themselves do.
    """
    lams = np.array(series.exponents, dtype=float)
    log_r = np.log(radii)[:, None]
    with np.errstate(divide="ignore"):  # a zero coefficient has log size -inf
        size = np.log(np.abs(series.coefficients)) + log_r * lams
    alive = size >= size.max(axis=1, keepdims=True) + math.log(_LIVE_CUT)
    amps = series.coefficients * np.exp(log_r * lams)
    return amps, len(lams) - np.argmax(alive[:, ::-1], axis=1)


def _roots_of_unity(count: int) -> np.ndarray:
    """e^(2 pi i j / count) for j < count, each exact to the ulp.

    When 4 divides count only the first quarter takes an exp; the rest are
    its products with i, -1 and -i, which are exact.
    """
    n = count if count % 4 else count // 4
    roots = np.exp(1j * (2.0 * math.pi * np.arange(n) / count))
    if n == count:
        return roots
    return np.concatenate([roots, 1j * roots, -roots, -1j * roots])


def _tiles(series: LacunarySeries, radii, count: int, thetas=None):
    """Yield (rows, cols, f on radii[rows] x angles[cols]).

    The angles are 2 pi j / count for j < count, or ``thetas`` when given.  A
    tile spans at most ``_CHUNK`` angles and about ``_TILE_NODES`` values and
    keeps only the terms alive on its radii (``_amplitudes``).  For uniform
    angles the phase table e^(i lambda_k theta_j) of the first chunk is read
    off the count-th roots of unity at (lambda_k j) mod count, so every phase
    is exact to the ulp however large lambda_k theta_j is; the chunk starting
    at j0 folds the root at (lambda_k j0) mod count into the radial
    amplitudes, so one L x chunk table serves every tile.  Given ``thetas``,
    each chunk's table is e^(i lambda_k theta_j) at exactly those angles.
    """
    amps, live = _amplitudes(series, radii)
    lams = np.array(series.exponents)[: live.max()]
    amps = amps[:, : len(lams)]
    chunk = min(count, _CHUNK)
    step = max(1, _TILE_NODES // chunk)
    if thetas is None:
        roots = _roots_of_unity(count)
        first = roots[(lams[:, None] * np.arange(chunk)) % count]
    for j0 in range(0, count, chunk):
        cols = slice(j0, min(j0 + chunk, count))
        if thetas is None:
            table = first[:, : cols.stop - j0]
            scaled = amps * roots[(lams * j0) % count]
        else:
            table = np.exp(1j * np.outer(lams, thetas[cols]))
            scaled = amps
        for start in range(0, len(radii), step):
            rows = slice(start, start + step)
            n = live[rows].max()
            yield rows, cols, scaled[rows, :n] @ table[:n]


def _grid_values(series: LacunarySeries, radii, count: int, thetas=None) -> np.ndarray:
    values = np.empty((len(radii), count), dtype=complex)
    for rows, cols, tile in _tiles(series, radii, count, thetas):
        values[rows, cols] = tile
    return values


def _abs_squared(values: np.ndarray) -> np.ndarray:
    return values.real**2 + values.imag**2


def _sized_counts(series: LacunarySeries, radii, cap: int) -> np.ndarray:
    """Trapezoid count of each circle: max(256, 8 lambda_eff) rounded up to a
    power of two and capped at ``cap``, where lambda_eff is the largest
    exponent alive on the circle (see ``_amplitudes``)."""
    _, live = _amplitudes(series, radii)
    lam_eff = np.array(series.exponents)[live - 1]
    return np.minimum(cap, 2 ** np.ceil(np.log2(np.maximum(256, 8 * lam_eff))).astype(int))


def series_grid_values(series: LacunarySeries, grid: QuadratureGrid) -> np.ndarray:
    """f at the grid nodes (flat, radial-major), via the tensor structure.

    The phases come from the grid's stored angles, not from the exact roots
    of unity the integrals use, so these are the values at ``grid.nodes``.
    """
    _require_unit_disk(grid)
    return _grid_values(series, grid.radii, grid.angular_count, grid.thetas).ravel()


def direct_lp(series: LacunarySeries, p: float) -> float:
    """Area integral of |f|^p over the unit disk.

    The rule takes the 256 Gauss-Legendre radii of ``default_series_grid``
    and gives each circle its own trapezoid count, sized to the terms still
    alive on it (``_sized_counts``): inner circles, where r^lambda has pushed
    the high terms below rounding, get far fewer than 8 lambda_max angles.  A
    circle's trapezoid sum is exact for trigonometric polynomials of degree
    below its count, so even p stay at rounding level; at p < 2 the kinks of
    |f|^p at zeros of f make the sum converge only algebraically, and the
    sized rule differs from the uniform 8 lambda_max one by up to 6e-7
    relative (p = 0.5, dyadic series up to lambda_max 4096).  The sum runs
    circle by circle, so the flat grid arrays are never built.  A series
    with lambda_max above 4096 raises ``ValueError``.
    """
    if not 0 < p < math.inf:
        raise ValueError(f"p must be positive and finite, got {p}")
    unit, scale = _unit_scale(series)
    grid = default_series_grid(series)
    counts = _sized_counts(unit, grid.radii, grid.angular_count)
    if scale == 0.0:
        return 0.0
    means = np.empty(grid.radial_count)
    for count in np.unique(counts):
        on = counts == count
        sums = np.zeros(np.count_nonzero(on))
        for rows, _, values in _tiles(unit, grid.radii[on], int(count)):
            # |f|^p as (|f|^2)^(p/2): NumPy's power skips pow at p/2 in {0.5, 1, 2}
            sums[rows] += (_abs_squared(values) ** (0.5 * p)).sum(axis=1)
        means[on] = sums / count
    return float(grid.radial_weights @ means * (2.0 * math.pi) * scale**p)


def _unit_integrals(series: LacunarySeries, p: float):
    """criterion_integral and direct_lp of the unit-scale series, and its scale M.

    Their ratio is scale-free, and at unit scale neither integral can
    underflow or overflow; the integrals of the series are M^p times these.
    """
    unit, scale = _unit_scale(series)
    return criterion_integral(unit, p), direct_lp(unit, p), scale


def equivalence_ratio(series: LacunarySeries, p: float) -> float:
    """direct_lp / criterion_integral; bounded above and below by the
    comparison constant of the lacunary norm equivalence, and exactly 1 at p = 2.

    Both integrals run at unit scale (``_unit_integrals``)."""
    criterion, direct, _ = _unit_integrals(series, p)
    if criterion == 0.0:
        if direct == 0.0:
            raise ValueError("equivalence ratio of the zero series is undefined")
        raise RuntimeError(
            "criterion integral vanished for a nonzero series; this cannot "
            "happen and indicates a quadrature bug"
        )
    return direct / criterion


def circle_norm_ratio(series: LacunarySeries, r: float, p: float) -> float:
    """||f(r e^(2 pi i t))||_{L^p(T)} / ||.||_{L^2(T)} by trapezoid quadrature.

    T is the unit-measure circle parameter t in [0,1), sampled at 8*lambda_max
    equally spaced points.
    """
    if not 0.0 < r < 1.0:
        raise ValueError(f"radius must lie in (0, 1), got {r}")
    if not 1 <= p < math.inf:
        raise ValueError(f"circle_norm_ratio requires finite p >= 1, got {p}")
    if not np.any(series.coefficients):
        raise ValueError("circle_norm_ratio needs a nonzero series")
    lam = series.lambda_max
    if lam > LAMBDA_MAX_CAP:
        raise ValueError(
            f"lambda_max {lam} above the cap {LAMBDA_MAX_CAP}; "
            "use the radial criterion instead"
        )
    squared = _abs_squared(_grid_values(_unit_scale(series)[0], np.array([r]), 8 * lam))
    lp = float(np.mean(squared ** (0.5 * p)) ** (1.0 / p))
    l2 = float(np.sqrt(np.mean(squared)))
    return lp / l2


def read_series_csv(path) -> LacunarySeries:
    """Read ``lambda,re,im`` rows (header optional).

    A row that is not an integer and two finite floats raises ``ValueError``
    naming the file and the 1-based row."""
    rows: list[tuple[int, complex]] = []
    with open(path, newline="") as fh:
        for number, row in enumerate(csv.reader(fh), start=1):
            if not row or row[0].strip().lower() == "lambda":
                continue
            try:
                lam, re, im = row
                a = complex(float(re), float(im))
                if not cmath.isfinite(a):
                    raise ValueError
                rows.append((int(lam), a))
            except ValueError:
                raise ValueError(
                    f"{path}, row {number}: expected lambda,re,im with finite re and im, "
                    f"got {','.join(row)!r}"
                ) from None
    if not rows:
        raise ValueError(f"no series rows in {path}")
    rows.sort(key=lambda item: item[0])
    return LacunarySeries(
        tuple(lam for lam, _ in rows), np.array([a for _, a in rows])
    )


def integrability_record(series: LacunarySeries, p: float) -> dict:
    """JSON-ready summary: criterion, direct integral, their ratio, and the
    integrability verdict (unit-scale criterion finite at working precision).

    The ratio and the verdict are taken at unit scale, as in
    ``equivalence_ratio``, so they hold where the scaled integrals under- or
    overflow; an integral beyond the float range reads inf.  The ratio is NaN
    for the zero series."""
    unit_criterion, unit_direct, scale = _unit_integrals(series, p)
    with np.errstate(over="ignore"):
        factor = scale**p
    return {
        "p": p,
        "A": series.lacunarity,
        "criterion": float(unit_criterion * factor),
        "direct": float(unit_direct * factor),
        "ratio": unit_direct / unit_criterion if unit_criterion else math.nan,
        "integrable": bool(math.isfinite(unit_criterion)),
    }
