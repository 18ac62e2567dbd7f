"""L^p-integrability machinery for lacunary power series on the unit disk.

The radial criterion integral uses the squared coefficient moduli,
integral over (0,1) of (sum_k |a_k|^2 r^(2 lambda_k))^(p/2) * 2 pi r dr,
together with the true area measure.  That convention makes the p = 2 ratio
against the direct area integral exactly 1 (Parseval), which is the sharp
test of the machinery; any other normalization is absorbed by the comparison
constant anyway.

Every value of a series on circles comes from one evaluator: a table
e^(i lambda_j theta_k) built once, multiplied by the radial amplitudes
a_j r_i^lambda_j of a block of radii at a time.  The direct area integral
reduces each block to per-circle sums of |f|^p, so it never holds more than
one block of values and never uses the flat ``nodes`` and ``weights`` arrays
of its grid; the circle norm ratio is the one-circle case.

All operations are pure.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass

import numpy as np

from .geometry import Domain, QuadratureGrid, build_grid

__all__ = [
    "LAMBDA_MAX_CAP",
    "NotLacunaryError",
    "UndersampledQuadratureError",
    "RefinementError",
    "LacunarySeries",
    "RadialQuadrature",
    "lacunarity_constant",
    "criterion_integral",
    "series_grid_values",
    "direct_lp",
    "default_series_grid",
    "equivalence_ratio",
    "circle_norm_ratio",
    "tail_triangle_check",
    "read_series_csv",
    "write_series_csv",
    "integrability_record",
]

# Beyond this exponent the circle quadrature cost is prohibitive; the radial
# criterion alone is offered.
LAMBDA_MAX_CAP = 2**20

# Values evaluated per block of circles (2 MB of complex values).  Of the
# powers of two from 2^14 to 2^20, this one timed fastest for the default
# 256 x 32768 grid at lambda_max = 4096 on a 2-vCPU VM with one BLAS thread.
_BLOCK_NODES = 2**17


class NotLacunaryError(ValueError):
    """Exponent gaps do not satisfy lambda_{k+1} >= A lambda_k for any A > 1."""


class UndersampledQuadratureError(ValueError):
    """Circle quadrature below the resolution floor of 8 * lambda_max nodes."""


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

    def scaled(self, c: complex) -> "LacunarySeries":
        return LacunarySeries(self.exponents, c * self.coefficients)

    def tail(self, start_index: int) -> "LacunarySeries":
        """Terms from the 1-based index ``start_index`` on."""
        if not 1 <= start_index <= len(self.exponents):
            raise ValueError(
                f"start index {start_index} outside 1..{len(self.exponents)}"
            )
        return LacunarySeries(
            self.exponents[start_index - 1 :],
            self.coefficients[start_index - 1 :],
        )


@dataclass(frozen=True)
class RadialQuadrature:
    """Controls for the adaptive radial integral."""

    gl_points: int = 32
    rel_tol: float = 1e-8
    max_levels: int = 60

    def __post_init__(self):
        if self.gl_points < 2 or self.rel_tol <= 0 or self.max_levels < 1:
            raise ValueError("invalid radial quadrature configuration")


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


def criterion_integral(
    series: LacunarySeries, p: float, quad: RadialQuadrature | None = None
) -> float:
    """Radial integrability criterion with refinement toward r = 1.

    Lacunary tails concentrate mass at the boundary, so the interval is cut
    into the geometric segments [1 - 2^-j, 1 - 2^-(j-1)] with fixed
    Gauss-Legendre panels, accumulating until the remaining strip is
    provably below the relative tolerance.  The kink of the integrand at
    r = 0 gets the mirrored ladder.
    """
    if p <= 0:
        raise ValueError(f"p must be positive, got {p}")
    quad = quad or RadialQuadrature()
    unit, scale = _unit_scale(series)
    if scale == 0.0:
        return 0.0
    amp2, lams = _radial_profile(unit)
    peak = float(amp2.sum())  # profile value at r = 1

    x, gw = np.polynomial.legendre.leggauss(quad.gl_points)

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
    for j in range(1, quad.max_levels + 1):
        total += panel(1.0 - 2.0**-j, 1.0 - 2.0 ** -(j + 1))
        remaining = bound_factor * 2.0 ** -(j + 1)
        if remaining <= quad.rel_tol * total:
            total += panel(1.0 - 2.0 ** -(j + 1), 1.0)
            converged = True
            break
    if not converged:
        raise RefinementError(
            f"radial refinement did not converge within {quad.max_levels} levels"
        )
    return float(total * scale**p)


def default_series_grid(series: LacunarySeries) -> QuadratureGrid:
    """Unit-disk grid resolving |f|^p for this series (256 x 8*lambda_max)."""
    lam = series.lambda_max
    if lam > 4096:
        raise ValueError(
            "lambda_max above 4096 needs an explicitly chosen grid; "
            "the default angular count 8*lambda_max would be prohibitive"
        )
    return build_grid(Domain("disk", 1.0), 256, max(256, 8 * lam))


def _require_unit_disk(grid: QuadratureGrid) -> None:
    dom = grid.domain
    if dom.kind != "disk" or abs(dom.outer_radius - 1.0) > 1e-12:
        raise ValueError(f"series integrals need the unit disk, got {dom}")


def _circle_values(series: LacunarySeries, radii, thetas):
    """Yield f(r e^(i theta)) for a block of radii at a time.

    Each block is a (radii in block) x len(thetas) array of about
    ``_BLOCK_NODES`` values, rows in the order of ``radii``.
    """
    lams = np.array(series.exponents, dtype=float)
    table = np.exp(1j * np.outer(lams, thetas))
    log_r = np.log(radii)
    step = max(1, _BLOCK_NODES // len(thetas))
    for start in range(0, len(log_r), step):
        amps = np.exp(log_r[start : start + step, None] * lams[None, :])  # r^lambda
        yield (amps * series.coefficients[None, :]) @ table


def _abs_squared(values: np.ndarray) -> np.ndarray:
    return values.real**2 + values.imag**2


def series_grid_values(series: LacunarySeries, grid: QuadratureGrid) -> np.ndarray:
    """f at the grid nodes (flat, radial-major), via the tensor structure."""
    _require_unit_disk(grid)
    return np.concatenate(list(_circle_values(series, grid.radii, grid.thetas))).ravel()


def direct_lp(series: LacunarySeries, p: float, grid: QuadratureGrid | None = None) -> float:
    """Area integral of |f|^p over the unit disk on the given grid.

    The trapezoid sum runs circle by circle, so the radial weights apply to
    per-circle sums and the flat grid arrays are never built.
    """
    if p <= 0:
        raise ValueError(f"p must be positive, got {p}")
    grid = grid or default_series_grid(series)
    _require_unit_disk(grid)
    unit, scale = _unit_scale(series)
    # |f|^p as (|f|^2)^(p/2): NumPy's power skips pow at p/2 in {0.5, 1, 2}
    per_circle = np.concatenate(
        [
            (_abs_squared(block) ** (0.5 * p)).sum(axis=1)
            for block in _circle_values(unit, grid.radii, grid.thetas)
        ]
    )
    total = grid.radial_weights @ per_circle * (2.0 * math.pi / grid.angular_count)
    return float(total * scale**p)


def equivalence_ratio(
    series: LacunarySeries,
    p: float,
    grid: QuadratureGrid | None = None,
    quad: RadialQuadrature | None = None,
) -> float:
    """direct_lp / criterion_integral; bounded above and below by the
    comparison constant of the lacunary norm equivalence, and exactly 1 at p = 2.

    The ratio is scale-free, so both integrals run at unit scale, where
    neither can underflow or overflow."""
    unit, _ = _unit_scale(series)
    criterion = criterion_integral(unit, p, quad)
    direct = direct_lp(unit, p, grid)
    if criterion == 0.0:
        if direct == 0.0:
            raise ValueError("equivalence ratio of the zero series is undefined")
        raise RuntimeError(
            "criterion integral vanished for a nonzero series; this cannot "
            "happen and indicates a quadrature bug"
        )
    return direct / criterion


def circle_norm_ratio(
    series: LacunarySeries, r: float, p: float, nodes: int | None = None
) -> float:
    """||f(r e^(2 pi i t))||_{L^p(T)} / ||.||_{L^2(T)} by trapezoid quadrature.

    T is the unit-measure circle parameter t in [0,1).  At least 8*lambda_max
    equally spaced samples are required; fewer are rejected as undersampled.
    """
    if not 0.0 < r < 1.0:
        raise ValueError(f"radius must lie in (0, 1), got {r}")
    if p < 1:
        raise ValueError(f"circle_norm_ratio requires p >= 1, got {p}")
    if not np.any(series.coefficients):
        raise ValueError("circle_norm_ratio needs a nonzero series")
    lam = series.lambda_max
    if lam > LAMBDA_MAX_CAP:
        raise ValueError(
            f"lambda_max {lam} above the cap {LAMBDA_MAX_CAP}; "
            "use the radial criterion instead"
        )
    floor = 8 * lam
    if nodes is None:
        nodes = floor
    if nodes < floor:
        raise UndersampledQuadratureError(
            f"{nodes} circle nodes undersample lambda_max {lam}; need >= {floor}"
        )
    thetas = 2.0 * math.pi * np.arange(nodes) / nodes
    (values,) = _circle_values(_unit_scale(series)[0], np.array([r]), thetas)
    squared = _abs_squared(values)
    lp = float(np.mean(squared ** (0.5 * p)) ** (1.0 / p))
    l2 = float(np.sqrt(np.mean(squared)))
    return lp / l2


def tail_triangle_check(
    series_a: LacunarySeries,
    series_b: LacunarySeries,
    p: float,
    start_index: int,
    quad: RadialQuadrature | None = None,
) -> bool:
    """Verify the tail inequality I(a - b) <= c_p I(a) + c_p I(b).

    I is the radial criterion integral restricted to terms from the 1-based
    ``start_index`` on, and c_p is 2^(p/2) for p <= 2 and 2^(p-1) for p >= 2
    (the scalar convexity constants).
    """
    if series_a.exponents != series_b.exponents:
        raise ValueError("misaligned exponent sets")
    tail_a = series_a.tail(start_index)
    tail_b = series_b.tail(start_index)
    diff = LacunarySeries(tail_a.exponents, tail_a.coefficients - tail_b.coefficients)
    c_p = 2.0 ** (0.5 * p) if p <= 2 else 2.0 ** (p - 1.0)
    left = criterion_integral(diff, p, quad)
    right = c_p * (criterion_integral(tail_a, p, quad) + criterion_integral(tail_b, p, quad))
    return left <= right * (1.0 + 1e-12) + 1e-300


def read_series_csv(path) -> LacunarySeries:
    """Read ``lambda,re,im`` rows (header optional)."""
    rows: list[tuple[int, complex]] = []
    with open(path, newline="") as fh:
        for row in csv.reader(fh):
            if not row or row[0].strip().lower() == "lambda":
                continue
            lam, re, im = row
            rows.append((int(lam), complex(float(re), float(im))))
    if not rows:
        raise ValueError(f"no series rows in {path}")
    rows.sort(key=lambda item: item[0])
    return LacunarySeries(
        tuple(lam for lam, _ in rows), np.array([a for _, a in rows])
    )


def write_series_csv(path, series: LacunarySeries) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["lambda", "re", "im"])
        for lam, a in zip(series.exponents, series.coefficients):
            writer.writerow([lam, f"{a.real:.17g}", f"{a.imag:.17g}"])


def integrability_record(
    series: LacunarySeries,
    p: float,
    grid: QuadratureGrid | None = None,
    quad: RadialQuadrature | None = None,
) -> dict:
    """JSON-ready summary: criterion, direct integral, their ratio, and the
    integrability verdict (criterion finite at working precision)."""
    criterion = criterion_integral(series, p, quad)
    direct = direct_lp(series, p, grid)
    ratio = direct / criterion if criterion else math.nan
    return {
        "p": p,
        "A": series.lacunarity,
        "criterion": criterion,
        "direct": direct,
        "ratio": ratio,
        "integrable": bool(math.isfinite(criterion)),
    }
