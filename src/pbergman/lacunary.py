"""L^p-integrability machinery for lacunary power series on the unit disk.

The radial criterion integral uses the squared coefficient moduli,
integral over (0,1) of (sum_k |a_k|^2 r^(2 lambda_k))^(p/2) * 2 pi r dr,
together with the true area measure.  That convention makes the p = 2 ratio
against the direct area integral exactly 1 (Parseval); since the direct
integral at p = 2 is a closed form, that ratio is a sharp test of the
criterion's radial quadrature.  Any other normalization is absorbed by the
comparison constant anyway.

Two primitives serve every circle quantity.  The radial profile
(``_profile``) of the squared coefficient moduli of f^k
(``_radial_profile``), sum_m |c_m|^2 r^(2m), is the mean of |f|^2k on the
circle |z| = r by Parseval.  At k = 1 it is sum_k |a_k|^2 r^(2 lambda_k):
the criterion integrand is its p/2-th power times 2 pi r, and it is the L^2
mean of the circle norm ratio.  The circle reducer (``_circle_means``)
gives the trapezoid mean of |f|^p on each of a set of circles, each with its
own angular count.

Every value of a series on circles comes from one evaluator (``_tiles``).
It works through tiles of a few radii by one chunk of angles, multiplying
the radial amplitudes a_k r_i^lambda_k of the terms still alive on those
radii by an L x chunk phase table small enough to stay in cache.  The table
is read off the K-th roots of unity at (lambda_k j) mod K, so its phases are
exact to the ulp, and later chunks fold their offset root into the
amplitudes instead of building a new table.  A call on fewer radii than a
tile holds, such as one circle, stacks the amplitudes of several chunks as
rows of one product, so it pays the per-tile calls once per tile rather
than once per chunk.  The reducer sums each tile
into per-circle sums of |f|^p as it arrives, so it never holds more than
one tile of values and never builds flat ``nodes`` and ``weights`` arrays.
Only ``series_grid_values`` keeps the tiles, since the grid of values is
what it returns.

At even p = 2k neither the direct area integral nor the circle norm ratio
takes a quadrature.  |f|^p = |f^k|^2, so by Parseval the mean of |f|^p on
the unit circle is sum_m |c_m|^2 and the area integral is
pi sum_m |c_m|^2 / (m + 1), where c holds the coefficients of f^k
(``_radial_profile``).  They come from k - 1 sparse products of the
unit-scale series with itself, each a sum over exponent pairs, and are
exact up to rounding.  The products are capped at ``_POWER_ENTRIES``
entries; above the cap even p takes the quadrature every other p takes.

At any other p the direct area integral calls the reducer on 256
Gauss-Legendre radii and sizes each circle's angular count K, at most
max(256, 8 lambda_max), to the bandwidth that circle carries: on inner
circles r^lambda has pushed the high terms below rounding, so far fewer
than 8 lambda_max angles resolve |f|^p there (Trefethen and Weideman, "The
exponentially convergent trapezoidal rule", SIAM Review 2014).  The circle
norm ratio calls it on one circle of 8 lambda_max angles.  Each integral
computes the radial amplitudes once and builds one roots-of-unity table at
its largest power-of-two count, which every smaller power of two reads by
stride.

All operations are pure.
"""

from __future__ import annotations

import cmath
import csv
import math
from dataclasses import dataclass

import numpy as np

from .geometry import (
    Domain,
    QuadratureGrid,
    _gauss_legendre,
    _radial_rule,
    _roots_of_unity,
)

__all__ = [
    "LAMBDA_MAX_CAP",
    "NotLacunaryError",
    "RefinementError",
    "LacunarySeries",
    "lacunarity_constant",
    "criterion_integral",
    "series_grid_values",
    "direct_lp",
    "equivalence_ratio",
    "circle_norm_ratio",
    "read_series_csv",
    "integrability_record",
]

# Beyond this exponent the circle quadrature cost is prohibitive; the radial
# criterion alone is offered.
LAMBDA_MAX_CAP = 2**20

# The largest lambda_max the direct area integral takes: its rule gives the
# outer circles up to 8 lambda_max angles each, on this many radii.
_DIRECT_LAMBDA_MAX = 4096
_DIRECT_RADII = 256

# The most entries the sparse products of the even-p closed form compute
# between them.  A product of a j-term power with the L-term series computes
# j x L entries, about 75 ns and 70 bytes each, and costs at least the 13 us
# of 256 entries however small it is, so the cap bounds the closed form at
# about 80 ms and 70 MB whatever p is (2-vCPU VM, one BLAS thread; 980 000
# entries over 6 products took 75 ms and a 43 MiB tracemalloc peak).
_POWER_ENTRIES = 2**20
_PRODUCT_ENTRIES = 256

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

# Values per tile of a call on fewer radii than a tile holds, which stacks
# chunks instead.  A circle call at lambda_max 4096 took 0.78 ms at 2^13,
# 0.89 ms at 2^12 and 1.15-1.21 ms at 2^14 (2-vCPU VM, one BLAS thread): from
# 2^14 on the tile and its |f|^2 temporaries outgrow the heap the allocator
# keeps between calls, and each call takes about 260 page faults, not 2.
_STACK_NODES = 2**13

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


def _radial_profile(series: LacunarySeries, p: float = 2.0):
    """The squared coefficient moduli and the exponents of f^(p/2), whose
    ``_profile`` is the mean of |f|^p on each circle |z| = r by Parseval;
    None where p is not even or f^(p/2) is over the term cap.

    f^(j+1) is f^j times f: every pair of exponents adds, and the products
    of their coefficients are summed per exponent sum, real and imaginary
    parts apart.  Each product counts its (terms of f^j) x L entries, and
    at least ``_PRODUCT_ENTRIES``; above ``_POWER_ENTRIES`` between them
    the power is given up.
    """
    if p % 2:
        return None
    lams = np.array(series.exponents, dtype=float)
    exps, power, entries = lams, series.coefficients, 0
    for _ in range(int(p) // 2 - 1):
        entries += max(_PRODUCT_ENTRIES, exps.size * lams.size)
        if entries > _POWER_ENTRIES:
            return None
        products = np.outer(power, series.coefficients).ravel()
        exps, index = np.unique(np.add.outer(exps, lams).ravel(), return_inverse=True)
        power = np.bincount(index, products.real) + 1j * np.bincount(index, products.imag)
    return np.abs(power) ** 2, exps


def _profile(amp2, lams, r: np.ndarray) -> np.ndarray:
    """sum_k |a_k|^2 r^(2 lambda_k) at each radius: the mean of |f|^2 on the
    circle |z| = r (Parseval), stable for large lambda via exp(log)."""
    return amp2 @ np.exp(2.0 * lams[:, None] * np.log(r)[None, :])


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

    def panels(a, b) -> np.ndarray:
        """The Gauss-Legendre integral over each panel [a_i, b_i], from one
        profile call for all of them."""
        r = 0.5 * (b - a)[:, None] * x + 0.5 * (a + b)[:, None]
        integrand = _profile(amp2, lams, r.ravel()).reshape(r.shape) ** (0.5 * p) * (2.0 * math.pi * r)
        return ((0.5 * (b - a))[:, None] * gw * integrand).sum(axis=1)

    # ladder toward 0: [2^-41, 2^-40], ..., [1/4, 1/2]; below 2^-41 the
    # integrand is bounded by peak^(p/2) * 2 pi r^(p lambda_1 + 1), negligible
    total = 0.0
    low = np.ldexp(1.0, -np.arange(41, 1, -1))
    for value in panels(low, 2.0 * low):
        total += value

    # ladder toward 1 with an explicit remaining-strip bound; once the strip
    # is below tolerance it is integrated in one closing panel (the profile
    # varies by at most exp(2 lambda_max 2^-j) there, flat by then)
    bound_factor = 2.0 * math.pi * peak ** (0.5 * p)
    gaps = np.ldexp(1.0, -np.arange(1, _RADIAL_LEVELS + 1))
    for gap, value in zip(gaps, panels(1.0 - gaps, 1.0 - 0.5 * gaps)):
        total += value
        if bound_factor * 0.5 * gap <= _RADIAL_TOL * total:  # the remaining strip
            total += panels(np.array([1.0 - 0.5 * gap]), np.ones(1))[0]
            return float(total * scale**p)
    raise RefinementError(f"radial refinement did not converge within {_RADIAL_LEVELS} levels")


def _direct_angles(series: LacunarySeries) -> int:
    """The largest angular count of ``direct_lp``'s circles, max(256,
    8 lambda_max); a lambda_max above 4096 raises ``ValueError``."""
    lam = series.lambda_max
    if lam > _DIRECT_LAMBDA_MAX:
        raise ValueError(
            f"lambda_max {lam} is above {_DIRECT_LAMBDA_MAX}, the largest the "
            "direct area integral takes (8*lambda_max angles per circle)"
        )
    return max(256, 8 * lam)


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
    size = _log_sizes(series, radii)
    alive = size >= size.max(axis=1, keepdims=True) + math.log(_LIVE_CUT)
    amps = series.coefficients * np.exp(np.log(radii)[:, None] * lams)
    return amps, len(lams) - np.argmax(alive[:, ::-1], axis=1)


def _log_sizes(series: LacunarySeries, radii) -> np.ndarray:
    """log(|a_k| r_i^lambda_k), one row per radius: finite where the term
    itself underflows, and -inf for a zero coefficient."""
    lams = np.array(series.exponents, dtype=float)
    with np.errstate(divide="ignore"):
        return np.log(np.abs(series.coefficients)) + np.log(radii)[:, None] * lams


def _tiles(lams, amps, live, roots):
    """Yield (rows, j0, values): values[b, i, j] is f on circle rows[i] at the
    angle 2 pi (j0 + b w + j) / count, where w is the width of a chunk.

    ``amps`` and ``live`` are ``_amplitudes`` on the radii and ``roots`` the
    count-th roots of unity.  A chunk spans at most ``_CHUNK`` angles and a
    tile about ``_TILE_NODES`` values, keeping only the terms alive on its
    radii.  The phase table e^(i lambda_k theta_j) of the first chunk is read
    off the roots at (lambda_k j) mod count, so every phase is exact to the
    ulp however large lambda_k theta_j is; the chunk starting at j0 folds the
    root at (lambda_k j0) mod count into the radial amplitudes, so one
    L x chunk table serves every tile.  A call on fewer radii than a tile
    holds stacks the amplitudes of its next chunks as rows of one product,
    up to ``_STACK_NODES`` values, so it never holds a whole long circle.
    """
    count = len(roots)
    lams = lams[: live.max()]
    amps = amps[:, : len(lams)]
    chunk = min(count, _CHUNK)
    step = max(1, _TILE_NODES // chunk)
    stack = max(1, _STACK_NODES // (chunk * len(amps)))
    first = roots[(lams[:, None] * np.arange(chunk)) % count]
    j0 = 0
    while j0 < count:
        width = min(chunk, count - j0)
        offsets = j0 + width * np.arange(min(stack, (count - j0) // width))
        scaled = amps * roots[(lams * offsets[:, None]) % count][:, None]
        for start in range(0, len(amps), step):
            rows = slice(start, start + step)
            n = live[rows].max()
            tile = scaled[:, rows, :n].reshape(-1, n) @ first[:n, :width]
            yield rows, j0, tile.reshape(len(offsets), -1, width)
        j0 += len(offsets) * width


def _circle_means(series: LacunarySeries, radii, p: float, counts) -> np.ndarray:
    """The trapezoid mean of |f|^p on each circle radii[i], at counts(live)[i]
    angles, where live holds the live term counts of ``_amplitudes``.

    The amplitudes are computed once for all circles and sliced per count.
    Every power-of-two count reads its roots by stride off one table at the
    largest such count, which matches its own table bit for bit from 4 roots
    on; any other count builds its own.  Each tile of ``_tiles`` is reduced to
    per-circle sums as it arrives, chunk by chunk in angle order, so no more
    than one tile of values is held at a time.
    """
    amps, live = _amplitudes(series, radii)
    counts = counts(live)
    lams = np.array(series.exponents)
    means = np.empty(len(radii))
    powers = counts[counts & (counts - 1) == 0]
    shared = _roots_of_unity(powers.max()) if powers.size else None
    for count in np.unique(counts):
        on = counts == count
        roots = _roots_of_unity(int(count)) if count & (count - 1) else shared[:: len(shared) // count]
        sums = np.zeros(np.count_nonzero(on))
        for rows, _, values in _tiles(lams, amps[on], live[on], roots):
            # |f|^p as (|f|^2)^(p/2): NumPy's power skips pow at p/2 in {0.5, 1, 2}
            chunk_sums = ((values.real**2 + values.imag**2) ** (0.5 * p)).sum(axis=2)
            # one chunk after another, as tiles of one chunk each would add them
            sums[rows] = np.add.accumulate(np.vstack((sums[rows], chunk_sums)))[-1]
        means[on] = sums / count
    return means


def _sized_counts(series: LacunarySeries, live, cap: int) -> np.ndarray:
    """``direct_lp``'s trapezoid count of each circle, given its live term
    count: max(256, 8 lambda_eff) rounded up to a power of two and capped at
    ``cap``, where lambda_eff is the largest exponent alive on the circle
    (``_amplitudes``)."""
    lam_eff = np.array(series.exponents)[live - 1]
    return np.minimum(cap, 2 ** np.ceil(np.log2(np.maximum(256, 8 * lam_eff))).astype(int))


def series_grid_values(series: LacunarySeries, grid: QuadratureGrid) -> np.ndarray:
    """f at the grid nodes (flat, radial-major), via the tensor structure.

    The phases are the exact roots of unity every integral uses, so a value
    is that of f at ``grid.nodes`` up to the rounding of the node's angle.
    """
    _require_unit_disk(grid)
    values = np.empty((grid.radial_count, grid.angular_count), dtype=complex)
    amps, live = _amplitudes(series, grid.radii)
    roots = _roots_of_unity(grid.angular_count)
    for rows, j0, tile in _tiles(np.array(series.exponents), amps, live, roots):
        values[rows, j0 : j0 + tile.shape[0] * tile.shape[2]] = np.hstack(tile)
    return values.ravel()


def direct_lp(series: LacunarySeries, p: float) -> float:
    """Area integral of |f|^p over the unit disk.

    At even p = 2k it is pi sum_m |c_m|^2 / (m + 1), with c the
    coefficients of f^k (``_radial_profile``), exact up to rounding and with
    no quadrature.  At any other p, or where f^k has too many terms, the rule
    takes 256 Gauss-Legendre radii (``geometry._radial_rule``) and gives
    each circle its own trapezoid count, sized to the terms still alive on
    it (``_sized_counts``): inner circles, where r^lambda has pushed the
    high terms below rounding, get far fewer than 8 lambda_max angles.  At
    p < 2 the kinks of |f|^p at zeros of f make the sum converge only
    algebraically, and that rule differs from the uniform 8 lambda_max one
    by up to 6e-7 relative (p = 0.5, dyadic series up to lambda_max 4096).
    The sum runs circle by circle on the radial rule alone, so no grid is
    built.  A series with lambda_max above 4096 raises ``ValueError``, at
    every p.
    """
    if not 0 < p < math.inf:
        raise ValueError(f"p must be positive and finite, got {p}")
    unit, scale = _unit_scale(series)
    cap = _direct_angles(series)
    if scale == 0.0:
        return 0.0
    power = _radial_profile(unit, p)
    if power is not None:
        return float(math.pi * (power[0] @ (1.0 / (power[1] + 1.0))) * scale**p)
    radii, radial_weights = _radial_rule(Domain("disk", 1.0), _DIRECT_RADII)
    means = _circle_means(unit, radii, p, lambda live: _sized_counts(unit, live, cap))
    return float(radial_weights @ means * (2.0 * math.pi) * scale**p)


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
    """||f(r e^(2 pi i t))||_{L^p(T)} / ||.||_{L^2(T)}.

    T is the unit-measure circle parameter t in [0,1).  At even p = 2k the
    L^p mean is sum_m |c_m|^2, with c the coefficients of f^k on the circle
    (``_radial_profile``), by Parseval and with no quadrature; at any
    other p, or where f^k has too many terms, it is the trapezoid mean of
    ``_circle_means`` at 8*lambda_max equally spaced points.  The L^2 mean
    is the radial profile sum_k |a_k|^2 r^(2 lambda_k) by Parseval, the
    same sum as the L^p mean at p = 2, and one that trapezoid rule also
    gives to rounding, since |f|^2 has no frequency above lambda_max.  Both
    are taken of f divided by its largest term on the circle, so neither
    underflows to 0/0 where every term of f does (0.5^1200 squared is below
    the double range).
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
    # f on the circle |z| = r is M g on the unit circle, where g has the
    # coefficients a_k r^lambda_k / M and M is the largest of their moduli.
    # They are taken from the log sizes, so the largest is 1 even where every
    # term of f underflows on the circle, and the ratio is that of g.
    size = _log_sizes(series, np.array([r]))[0]
    moduli = np.exp(size - size.max())
    phases = np.divide(
        series.coefficients, np.abs(series.coefficients),
        out=np.zeros(len(moduli), dtype=complex), where=moduli > 0.0,
    )
    g = LacunarySeries(series.exponents, phases * moduli)
    unit = np.ones(1)
    power = _radial_profile(g, p)
    if power is not None:
        means = _profile(*power, unit)
    else:
        means = _circle_means(g, unit, p, lambda live: np.array([8 * lam]))
    lp = means[0] ** (1.0 / p)
    l2 = math.sqrt(_profile(*_radial_profile(g), unit)[0])
    return float(lp / l2)


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
