"""Extremal quantities of the p-norm problem on a circular domain.

m_p(z) is the least p-norm among series with f(z) = 1; K_p(z) = m_p(z)^(-p)
is, by definition and not approximation, the kernel value attained over the
truncated competitor class.  Truncation shrinks that class, so every computed
K_p is a lower bound for the true kernel and can only grow with the basis
degree.  The off-diagonal kernel is K_p(z, w) = m_p(z, w) K_p(w), where
m_p(., w) is the minimizer; H_p combines the four kernel values; B_p(z; X)
normalizes the largest attainable derivative among series vanishing at z.

All operations are pure functions over immutable inputs.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass

from .geometry import Domain, QuadratureGrid, build_grid, format_domain
from .series import BasisSpec, admissible_exponents, evaluate
from .solver import (
    ExtremalProblem,
    Solution,
    SolverConfig,
    derivative_constraint,
    minimize_pnorm,
    point_constraint,
)

__all__ = [
    "DEFAULT_DEGREE",
    "DEFAULT_GRID_SHAPE",
    "MARGIN_FRACTION",
    "BoundaryMarginError",
    "KernelResult",
    "MetricResult",
    "default_basis",
    "default_grid",
    "mp_minimizer",
    "offdiag_kernel",
    "h_function",
    "metric_at",
    "kernel_metric_sweep",
    "write_sweep_csv",
]

DEFAULT_DEGREE = 24
DEFAULT_GRID_SHAPE = (128, 256)
# K_p blows up at the boundary and truncation error dominates there; points
# inside the margin are rejected unless the caller overrides it explicitly.
MARGIN_FRACTION = 0.05


class BoundaryMarginError(ValueError):
    """Evaluation point too close to the domain boundary."""


@dataclass(frozen=True)
class KernelResult:
    """m_p and K_p = m_p^(-p) at one point, with the attaining minimizer."""

    z: complex
    p: float
    m_p: float
    k_p: float
    minimizer: Solution
    basis_degree: int


@dataclass(frozen=True)
class MetricResult:
    """B_p(z; X) with the extremal of the constrained problem.

    ``direction`` is stored unit-modulus; B_p(z; cX) = |c| B_p(z; X) is
    applied analytically rather than re-solved.
    """

    z: complex
    direction: complex
    p: float
    b_p: float
    extremal: Solution


def default_basis(
    domain: Domain, p: float, degree: int = DEFAULT_DEGREE, n_min: int | None = None
) -> BasisSpec:
    """Admissible exponents up to ``degree`` (from ``n_min``, or the natural floor)."""
    if n_min is None:
        n_min = -degree if domain.kind == "annulus" else 0
    exps = admissible_exponents(domain, p, n_min, degree)
    if not exps:
        raise ValueError(f"no admissible exponents in [{n_min}, {degree}]")
    return BasisSpec(tuple(exps), domain, p)


def default_grid(domain: Domain) -> QuadratureGrid:
    return build_grid(domain, *DEFAULT_GRID_SHAPE)


def require_interior(domain: Domain, z: complex, margin: float | None) -> None:
    m = MARGIN_FRACTION * domain.outer_radius if margin is None else margin
    if not domain.contains(z) or domain.boundary_distance(z) < m:
        raise BoundaryMarginError(
            f"point {z} is within margin {m:.6g} of the boundary of "
            f"{format_domain(domain)}; pass margin= explicitly to override"
        )


def _cache_key(tag, domain, p, points, basis, grid):
    return (tag, domain, p, points, basis.exponents, grid.radial_count, grid.angular_count)


def mp_minimizer(
    domain: Domain,
    p: float,
    z: complex,
    basis: BasisSpec | None = None,
    grid: QuadratureGrid | None = None,
    config: SolverConfig | None = None,
    *,
    degree: int = DEFAULT_DEGREE,
    n_min: int | None = None,
    margin: float | None = None,
    cache: dict | None = None,
) -> KernelResult:
    """Solve min ||f||_p subject to f(z) = 1 and report m_p, K_p.

    Non-convergence is propagated through the embedded Solution, never hidden.
    """
    if p < 1:
        raise ValueError("mp_minimizer requires p >= 1; use multistart_minimize below 1")
    z = complex(z)
    require_interior(domain, z, margin)
    basis = basis or default_basis(domain, p, degree, n_min)
    grid = grid or default_grid(domain)

    key = _cache_key("mp", domain, p, z, basis, grid)
    if cache is not None and key in cache:
        return cache[key]

    problem = ExtremalProblem(basis, grid, p, (point_constraint(basis, z, 1.0),))
    sol = minimize_pnorm(problem, config)
    m_p = sol.objective
    result = KernelResult(
        z=z,
        p=p,
        m_p=m_p,
        k_p=m_p**-p,
        minimizer=sol,
        basis_degree=max(basis.exponents),
    )
    if cache is not None:
        cache[key] = result
    return result


def offdiag_kernel(
    domain: Domain,
    p: float,
    z: complex,
    w: complex,
    basis: BasisSpec | None = None,
    grid: QuadratureGrid | None = None,
    config: SolverConfig | None = None,
    *,
    degree: int = DEFAULT_DEGREE,
    n_min: int | None = None,
    margin: float | None = None,
    cache: dict | None = None,
) -> complex:
    """K_p(z, w): the minimizer for w evaluated at z, times K_p(w)."""
    require_interior(domain, complex(z), margin)
    at_w = mp_minimizer(
        domain, p, w, basis, grid, config,
        degree=degree, n_min=n_min, margin=margin, cache=cache,
    )
    return complex(evaluate(at_w.minimizer.coeffs, complex(z)) * at_w.k_p)


def h_function(
    domain: Domain,
    p: float,
    z: complex,
    w: complex,
    basis: BasisSpec | None = None,
    grid: QuadratureGrid | None = None,
    config: SolverConfig | None = None,
    *,
    degree: int = DEFAULT_DEGREE,
    n_min: int | None = None,
    margin: float | None = None,
    cache: dict | None = None,
) -> float:
    """H_p(z, w) = K_p(z) + K_p(w) - Re{K_p(z, w) + K_p(w, z)}.

    Vanishes on the diagonal; symmetric in (z, w) exactly.
    """
    kwargs = dict(degree=degree, n_min=n_min, margin=margin, cache=cache)
    at_z = mp_minimizer(domain, p, z, basis, grid, config, **kwargs)
    at_w = mp_minimizer(domain, p, w, basis, grid, config, **kwargs)
    k_zw = evaluate(at_w.minimizer.coeffs, complex(z)) * at_w.k_p
    k_wz = evaluate(at_z.minimizer.coeffs, complex(w)) * at_z.k_p
    return float(at_z.k_p + at_w.k_p - (k_zw + k_wz).real)


def metric_at(
    domain: Domain,
    p: float,
    z: complex,
    direction: complex = 1.0,
    basis: BasisSpec | None = None,
    grid: QuadratureGrid | None = None,
    config: SolverConfig | None = None,
    *,
    degree: int = DEFAULT_DEGREE,
    n_min: int | None = None,
    margin: float | None = None,
    cache: dict | None = None,
) -> MetricResult:
    """B_p(z; X) = K_p(z)^(-1/p) / min{||f||_p : f(z) = 0, Xf(z) = 1}."""
    if p < 1:
        raise ValueError("metric_at requires p >= 1")
    direction = complex(direction)
    if direction == 0:
        raise ValueError("direction X must be nonzero")
    z = complex(z)
    require_interior(domain, z, margin)
    basis = basis or default_basis(domain, p, degree, n_min)
    grid = grid or default_grid(domain)
    speed = abs(direction)
    unit = direction / speed

    kernel = mp_minimizer(
        domain, p, z, basis, grid, config,
        degree=degree, n_min=n_min, margin=margin, cache=cache,
    )
    key = _cache_key("metric", domain, p, (z, unit), basis, grid)
    if cache is not None and key in cache:
        sol = cache[key]
    else:
        der_row, _ = derivative_constraint(basis, z, 1.0)
        problem = ExtremalProblem(
            basis,
            grid,
            p,
            (point_constraint(basis, z, 0.0), (unit * der_row, 1.0)),
        )
        sol = minimize_pnorm(problem, config)
        if cache is not None:
            cache[key] = sol
    b_unit = kernel.k_p ** (-1.0 / p) / sol.objective
    return MetricResult(z=z, direction=unit, p=p, b_p=speed * b_unit, extremal=sol)


def kernel_metric_sweep(
    domain: Domain,
    p_values,
    z_values,
    config: SolverConfig | None = None,
    *,
    degree: int = DEFAULT_DEGREE,
    n_min: int | None = None,
    margin: float | None = None,
    grid: QuadratureGrid | None = None,
    cache: dict | None = None,
) -> list[dict]:
    """K_p and B_p over the (p, z) product, one row per combination.

    ``converged`` in a row is true only when both the K_p and the B_p solve
    converged.
    """
    grid = grid or default_grid(domain)
    cache = {} if cache is None else cache
    rows = []
    for p in p_values:
        for z in z_values:
            kr = mp_minimizer(
                domain, p, z, None, grid, config,
                degree=degree, n_min=n_min, margin=margin, cache=cache,
            )
            mr = metric_at(
                domain, p, z, 1.0, None, grid, config,
                degree=degree, n_min=n_min, margin=margin, cache=cache,
            )
            rows.append(
                {
                    "p": p,
                    "re_z": complex(z).real,
                    "im_z": complex(z).imag,
                    "K_p": kr.k_p,
                    "B_p": mr.b_p,
                    "converged": kr.minimizer.converged and mr.extremal.converged,
                }
            )
    return rows


def write_sweep_csv(path, rows: list[dict]) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["p", "re_z", "im_z", "K_p", "B_p"])
        for row in rows:
            writer.writerow(
                [f"{row[k]:.17g}" for k in ("p", "re_z", "im_z", "K_p", "B_p")]
            )
