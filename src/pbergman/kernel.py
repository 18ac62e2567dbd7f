"""Extremal quantities of the p-norm problem on a circular domain.

m_p(z) is the least p-norm among series with f(z) = 1; K_p(z) = m_p(z)^(-p)
is, by definition and not approximation, the kernel value attained over the
truncated competitor class.  Truncation shrinks that class, so every computed
K_p is a lower bound for the true kernel and can only grow with the basis
degree.  The off-diagonal kernel is K_p(z, w) = m_p(z, w) K_p(w), where
m_p(., w) is the minimizer; H_p combines the four kernel values; B_p(z; X)
normalizes the largest attainable derivative among series vanishing at z.

Every operation is a module-level function of a ``Setup`` (domain, basis
degree, grid, boundary margin) and of its own quantities;
the solve cache a ``Setup`` owns is the only state they share.
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass, field, replace

import numpy as np

from .geometry import Domain, QuadratureGrid, build_grid, format_domain
from .series import BasisSpec, CoeffVector, admissible_exponents, evaluate
from .solver import (
    ExtremalProblem,
    Solution,
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
    "Setup",
    "mp_minimizer",
    "offdiag_kernel",
    "h_function",
    "metric_at",
    "kernel_metric_sweep",
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


@dataclass(frozen=True, eq=False)
class Setup:
    """Everything a solve needs besides p and its points, and the solves done.

    The basis at p holds the admissible exponents from ``n_min`` (default:
    ``-degree`` on an annulus, 0 otherwise) up to ``degree``.  ``grid``
    defaults to ``build_grid(domain, *DEFAULT_GRID_SHAPE)``, built for this
    setup and freed with it; what its solves share with other grids of the
    rule (the coarse grid, the tables of 4 exponent sets and the scalings of
    4 basis specs) lives in the process's caches of the 8 rules last used
    (``2 * solver._RULES``).  ``margin`` defaults to ``MARGIN_FRACTION`` of
    the outer radius.  ``cache`` maps
    ``(p, |z|, kind)``, kind ``"K_p"`` or ``"B_p"``, to the ``Solution`` of
    ``solve`` at the real point |z|, and is shared by every call given this
    setup; ``dataclasses.replace`` gives a setup with an empty cache.
    """

    domain: Domain
    degree: int = DEFAULT_DEGREE
    n_min: int | None = None
    grid: QuadratureGrid | None = None
    margin: float | None = None
    cache: dict = field(default_factory=dict, init=False, repr=False)

    def __post_init__(self):
        if self.grid is None:
            object.__setattr__(self, "grid", build_grid(self.domain, *DEFAULT_GRID_SHAPE))
        if self.margin is None:
            object.__setattr__(self, "margin", MARGIN_FRACTION * self.domain.outer_radius)
        if not self.margin >= 0:
            raise ValueError(f"margin must be >= 0, got {self.margin}")

    def basis(self, p: float) -> BasisSpec:
        n_min = self.n_min
        if n_min is None:
            n_min = -self.degree if self.domain.kind == "annulus" else 0
        exps = admissible_exponents(self.domain, p, n_min, self.degree)
        if not exps:
            raise ValueError(f"no admissible exponents in [{n_min}, {self.degree}]")
        return BasisSpec(tuple(exps), self.domain, p)

    def require_interior(self, z: complex) -> None:
        """Reject z non-finite, outside the domain or within ``margin`` of its
        boundary."""
        if not cmath.isfinite(z):
            raise ValueError(f"point {z} is not finite")
        if not self.domain.contains(z) or self.domain.boundary_distance(z) < self.margin:
            raise BoundaryMarginError(
                f"point {z} is within margin {self.margin:.6g} of the boundary of "
                f"{format_domain(self.domain)}; pass margin= explicitly to override"
            )

    def problem(self, p: float, r: float, kind: str) -> ExtremalProblem:
        """At the real point r, the K_p problem f(r) = 1 (``kind`` "K_p") or
        the B_p problem f(r) = 0, f'(r) = 1 (``kind`` "B_p"), on this setup's
        basis at p and its grid.  Every problem is posed at a real point; a
        complex point is reached by rotation (``solve``)."""
        basis = self.basis(p)
        if kind == "K_p":
            constraints = (point_constraint(basis, r, 1.0),)
        elif kind == "B_p":
            constraints = (point_constraint(basis, r, 0.0), derivative_constraint(basis, r, 1.0))
        else:
            raise ValueError(f'kind must be "K_p" or "B_p", got {kind!r}')
        return ExtremalProblem(basis, self.grid, p, constraints)

    def solve(self, p: float, z: complex, direction: complex | None = None) -> Solution:
        """The K_p solution at z, or given a unit ``direction`` X the B_p
        one (f(z) = 0, X f'(z) = 1), rotated from the cached solve of
        ``problem(p, |z|, kind)``.

        The domain, its basis and the norm are invariant under rotation: if g
        solves the problem at r = |z|, the B_p one posed at X = 1, then with
        u = z / r (u = 1 at z = 0) the series f(zeta) = c g(conj(u) zeta),
        coefficients c a_n conj(u)^n, solves it at z, with c = 1 for K_p and
        c = u / X for B_p, and its objective and lower bound scale by |c|.
        At u = 1 and X = 1 the cached ``Solution`` itself is returned.
        """
        r = abs(z)
        u = z / r if r else 1.0
        kind, c = ("K_p", 1.0) if direction is None else ("B_p", u / direction)
        key = (p, r, kind)
        if key not in self.cache:
            self.cache[key] = minimize_pnorm(self.problem(*key))
        return rotated(self.cache[key], u, c)

    def converged(self, p: float | None = None) -> bool:
        """True when every solve cached at exponent ``p`` converged, or every
        cached solve when ``p`` is None; true when there is none."""
        return all(sol.converged for (q, _, _), sol in self.cache.items() if p in (None, q))


def rotated(sol: Solution, u: complex, c: complex = 1.0) -> Solution:
    """``sol`` for a series g carried to f(zeta) = c g(conj(u) zeta), |u| = 1:
    coefficients c a_n conj(u)^n, objective and lower bound scaled by |c|.
    At u = 1 and c = 1, ``sol`` itself."""
    if u == 1 and c == 1:
        return sol
    basis = sol.coeffs.basis
    coeffs = c * sol.coeffs.coefficients * np.conj(u) ** np.array(basis.exponents)
    return replace(
        sol,
        coeffs=CoeffVector(basis, coeffs),
        objective=abs(c) * sol.objective,
        lower_bound=None if sol.lower_bound is None else abs(c) * sol.lower_bound,
    )


def mp_minimizer(setup: Setup, p: float, z: complex) -> KernelResult:
    """Solve min ||f||_p subject to f(z) = 1 and report m_p, K_p.

    Non-convergence is propagated through the embedded Solution, never hidden.
    """
    if p < 1:
        raise ValueError("mp_minimizer requires p >= 1; use multistart_minimize below 1")
    z = complex(z)
    setup.require_interior(z)
    sol = setup.solve(p, z)
    return KernelResult(
        z=z,
        p=p,
        m_p=sol.objective,
        k_p=sol.objective**-p,
        minimizer=sol,
    )


def offdiag_kernel(setup: Setup, p: float, z: complex, w: complex) -> complex:
    """K_p(z, w): the minimizer for w evaluated at z, times K_p(w)."""
    setup.require_interior(complex(z))
    at_w = mp_minimizer(setup, p, w)
    return complex(evaluate(at_w.minimizer.coeffs, complex(z)) * at_w.k_p)


def h_function(setup: Setup, p: float, z: complex, w: complex) -> float:
    """H_p(z, w) = K_p(z) + K_p(w) - Re{K_p(z, w) + K_p(w, z)}.

    Vanishes on the diagonal; symmetric in (z, w) exactly.
    """
    k_z = mp_minimizer(setup, p, z).k_p
    k_w = mp_minimizer(setup, p, w).k_p
    k_zw = offdiag_kernel(setup, p, z, w)
    k_wz = offdiag_kernel(setup, p, w, z)
    return float(k_z + k_w - (k_zw + k_wz).real)


def metric_at(setup: Setup, p: float, z: complex, direction: complex = 1.0) -> MetricResult:
    """B_p(z; X) = K_p(z)^(-1/p) / min{||f||_p : f(z) = 0, Xf(z) = 1}."""
    if p < 1:
        raise ValueError("metric_at requires p >= 1")
    direction = complex(direction)
    if direction == 0 or not cmath.isfinite(direction):
        raise ValueError(f"direction X must be finite and nonzero, got {direction}")
    z = complex(z)
    setup.require_interior(z)
    speed = abs(direction)
    unit = direction / speed

    kernel = mp_minimizer(setup, p, z)
    sol = setup.solve(p, z, unit)
    b_unit = kernel.k_p ** (-1.0 / p) / sol.objective
    return MetricResult(z=z, direction=unit, p=p, b_p=speed * b_unit, extremal=sol)


def kernel_metric_sweep(setup: Setup, p_values, z_values) -> list[dict]:
    """K_p and B_p over the (p, z) product, one row per combination.

    ``converged`` in a row is true only when both the K_p and the B_p solve
    converged.
    """
    rows = []
    for p in p_values:
        for z in z_values:
            kr = mp_minimizer(setup, p, z)
            mr = metric_at(setup, p, z)
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
