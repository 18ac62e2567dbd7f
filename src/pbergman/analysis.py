"""Second-order and asymptotic diagnostics built on the kernel solver.

Covers the Levi form of log K_p, differenced along the radial profile of K_p,
and its comparison with B_p^2 at the center of the disk, log-log slope
estimation for the modulus of continuity of m_p and for the decay of H_p, and
the multistart spread of near-optimal maximizers as p increases to 1.

Stencil points, probe radii, and sweep entries are independent solver calls
run one after another; aggregation is a pure reduction.  A two-thread pool
over the entries of limit_sweep timed slower than this loop (0.17 s against
0.12 s, medians of ten, for four values of p at degree 8 with 16 restarts on
a 2-vCPU VM, one BLAS thread) and is not offered.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .kernel import BoundaryMarginError, Setup, h_function, metric_at, mp_minimizer, rotated
from .series import evaluate
from .solver import ExtremalProblem, Solution, grid_values, multistart_minimize

__all__ = [
    "DEFAULT_FD_STEP",
    "DEFAULT_DIRECTIONS",
    "DegenerateFitError",
    "LeviRecord",
    "HolderFit",
    "LimitRecord",
    "fit_power_law",
    "levi_form_log_kp",
    "levi_metric_gap",
    "holder_exponent",
    "hp_scaling_exponent",
    "dp_estimate",
    "limit_sweep",
]

NOISE_FLOOR = 1e-9
# finite-difference step of the Levi form, and probe directions per radius
DEFAULT_FD_STEP = 1e-2
DEFAULT_DIRECTIONS = 8


class DegenerateFitError(ValueError):
    """Too few usable points to fit a slope."""


@dataclass(frozen=True)
class LeviRecord:
    """Levi form of log K_p versus B_p^2 along one direction."""

    z: complex
    direction: complex
    p: float
    levi: float
    b_p_squared: float
    gap: float
    fd_step: float
    converged: bool


@dataclass(frozen=True)
class HolderFit:
    """Log-log slope of a modulus-of-continuity measurement."""

    z_prime: complex
    w: complex
    p: float
    radii: tuple[float, ...]
    deltas: tuple[float, ...]
    slope: float
    intercept: float
    r_squared: float
    converged: bool


@dataclass(frozen=True)
class LimitRecord:
    """Per-p kernel values and maximizer-spread lower bounds on a sweep to 1."""

    z: complex
    p_list: tuple[float, ...]
    d_p_estimates: tuple[float, ...]
    k_p_values: tuple[float, ...]
    restarts: int
    statuses: tuple[str, ...]


def fit_power_law(radii, deltas):
    """Least-squares slope of log(delta) against log(r).

    Radii must be positive and finite and deltas finite and non-negative, or
    ``ValueError`` is raised.  Points with delta at or below ``NOISE_FLOOR``
    are excluded; fewer than two distinct radii among the survivors is a
    degenerate fit and raises ``DegenerateFitError`` instead of silently
    fitting.  Returns (slope, intercept, r_squared).
    """
    r = np.asarray(radii, dtype=float)
    d = np.asarray(deltas, dtype=float)
    if r.shape != d.shape:
        raise ValueError("radii and deltas must align")
    if not np.all((r > 0.0) & (r < math.inf)):
        raise ValueError(f"radii must be positive and finite, got {r.tolist()}")
    if not np.all((d >= 0.0) & (d < math.inf)):
        raise ValueError(f"deltas must be finite and non-negative, got {d.tolist()}")
    mask = d > NOISE_FLOOR
    distinct = len(set(r[mask].tolist()))
    if distinct < 2:
        raise DegenerateFitError(
            f"degenerate fit: {distinct} distinct radii with deltas above the "
            f"noise floor {NOISE_FLOOR:g}"
        )
    lx = np.log(r[mask])
    ly = np.log(d[mask])
    A = np.column_stack([lx, np.ones_like(lx)])
    (slope, intercept), residual, *_ = np.linalg.lstsq(A, ly, rcond=None)
    ss_tot = float(np.sum((ly - ly.mean()) ** 2))
    ss_res = float(residual[0]) if residual.size else float(
        np.sum((ly - A @ np.array([slope, intercept])) ** 2)
    )
    r_squared = 1.0 if ss_tot == 0.0 else 1.0 - ss_res / ss_tot
    return float(slope), float(intercept), float(r_squared)


def levi_form_log_kp(
    setup: Setup,
    p: float,
    z: complex,
    direction: complex = 1.0,
    step: float = DEFAULT_FD_STEP,
) -> float:
    """Levi form of log K_p at z along ``direction`` X by finite differences.

    K_p depends on r = |z| alone, so with psi(tau) = log K_p at the modulus
    |r + tau |X||, the Levi form is (psi''(0) + |X| psi'(0) / r) / 4, and
    psi''(0) / 2 at the centre.  Five-point central differences in tau at
    ``step`` and ``step/2``, with one Richardson extrapolation, read K_p at 7
    moduli, 4 at the centre.  On the disk, a stencil that crosses the centre
    reads the even profile there, which is exact.  A basis with poles has no
    such profile at 0, so on the punctured disk a stencil that reaches the
    puncture (r <= 2 step |X|) raises ``BoundaryMarginError``.
    """
    z = complex(z)
    direction = complex(direction)
    if direction == 0 or not cmath.isfinite(direction):
        raise ValueError(f"direction X must be finite and nonzero, got {direction}")
    if not 0 < step < math.inf:
        raise ValueError(f"step must be positive and finite, got {step}")
    setup.require_interior(z)
    r, speed = abs(z), abs(direction)
    reach = 2.0 * step * speed
    needed = setup.margin + reach
    if setup.domain.boundary_distance(z) < needed:
        raise BoundaryMarginError(
            f"stencil around {z} needs boundary distance >= {needed:.6g}"
        )
    if setup.basis(p).has_poles() and r <= reach:
        raise BoundaryMarginError(
            f"stencil around {z} reaches the pole at 0: needs |z| > {reach:.6g}"
        )

    def psi(tau: float) -> float:
        # at the centre, the points tau X keep the moduli |tau X| to the bit
        point = tau * direction if r == 0 else r + tau * speed
        return math.log(mp_minimizer(setup, p, point).k_p)

    psi0 = psi(0.0)

    def levi(h: float) -> float:
        m2, m1, p1, p2 = (psi(k * h) for k in (-2, -1, 1, 2))
        d2 = (-m2 + 16 * m1 - 30 * psi0 + 16 * p1 - p2) / (12.0 * h * h)
        if r == 0:
            return d2 / 2.0
        d1 = (m2 - 8 * m1 + 8 * p1 - p2) / (12.0 * h)
        return (d2 + speed * d1 / r) / 4.0

    coarse = levi(step)
    fine = levi(step / 2.0)
    return (16.0 * fine - coarse) / 15.0


def levi_metric_gap(
    setup: Setup, p: float, direction: complex = 1.0, step: float = DEFAULT_FD_STEP
) -> LeviRecord:
    """Levi form of log K_p minus B_p^2 at the center of a disk.

    On the disk the kernel is p-independent, so the Levi term is that of the
    p = 2 kernel while B_p varies; the gap is positive for p > 2, negative for
    p < 2, and zero at p = 2.  At the centre the stencil reads K_p at the four
    moduli 0, step/2, step and 2 step times |X|, so on a fresh setup this
    takes 4 K_p solves and 1 B_p solve.  ``converged`` is true when every
    solve cached in ``setup`` at this p converged; solves of earlier calls
    with the same setup and p count too.
    """
    if setup.domain.kind != "disk":
        raise ValueError("the center comparison needs a complete circular domain (disk)")
    direction = complex(direction)
    levi = levi_form_log_kp(setup, p, 0.0, direction, step)
    met = metric_at(setup, p, 0.0, direction)
    b2 = met.b_p**2
    return LeviRecord(
        z=0.0 + 0.0j,
        direction=met.direction,
        p=p,
        levi=levi,
        b_p_squared=b2,
        gap=levi - b2,
        fd_step=step,
        converged=setup.converged(p),
    )


def _probe_circle(w: complex, r: float, directions: int):
    return [w + r * complex(math.cos(a), math.sin(a))
            for a in (2.0 * math.pi * k / directions for k in range(directions))]


def _probe_fit(setup: Setup, p: float, z_prime: complex, w: complex, radii,
               directions: int, value, relative: bool) -> HolderFit:
    """Fit the slope of r -> max_phi |value(w + r e^{i phi}) - value(w)|, or of
    max_phi |value(w + r e^{i phi})| when not ``relative``.

    The radii and the direction count are checked before the first solve;
    ``converged`` is as in ``levi_metric_gap``.
    """
    rs = tuple(float(r) for r in radii)
    if len(rs) < 2:
        raise DegenerateFitError(f"degenerate fit: need >= 2 radii, got {len(rs)}")
    if not all(0 < r < math.inf for r in rs):
        raise ValueError(f"radii must be positive and finite, got {rs}")
    if max(rs) / min(rs) < 10.0**1.5:
        raise ValueError("radii must span at least 1.5 decades")
    if directions < 1:
        raise ValueError(f"need at least one direction, got {directions}")
    rs = tuple(sorted(rs, reverse=True))

    base = value(w) if relative else 0.0
    deltas = tuple(
        max(abs(value(probe) - base) for probe in _probe_circle(w, r, directions))
        for r in rs
    )
    slope, intercept, r2 = fit_power_law(rs, deltas)
    return HolderFit(
        z_prime=z_prime, w=w, p=p, radii=rs, deltas=deltas,
        slope=slope, intercept=intercept, r_squared=r2,
        converged=setup.converged(p),
    )


def holder_exponent(
    setup: Setup, p: float, z_prime: complex, w: complex, radii,
    directions: int = DEFAULT_DIRECTIONS,
) -> HolderFit:
    """Fit the growth exponent of r -> max_phi |m_p(z', w + r e^{i phi}) - m_p(z', w)|.

    The max over equally spaced directions avoids direction-specific flatness.
    Local regularity of the minimizer in its constraint point predicts a slope
    close to 1; the check target is slope >= 0.9.  ``converged`` is as in
    ``levi_metric_gap``.
    """
    if p <= 1:
        raise ValueError("holder_exponent requires p > 1")
    z_prime, w = complex(z_prime), complex(w)

    def m_at(point: complex) -> complex:
        return evaluate(mp_minimizer(setup, p, point).minimizer.coeffs, z_prime)

    return _probe_fit(setup, p, z_prime, w, radii, directions, m_at, relative=True)


def hp_scaling_exponent(
    setup: Setup, p: float, z: complex, radii, directions: int = DEFAULT_DIRECTIONS
) -> HolderFit:
    """Fit the decay exponent of r -> max_phi |H_p(z, z + r e^{i phi})|.

    H_p vanishes to second order on the diagonal at p = 2; the expected slope
    there is 2, and at least 1.9 is the check target.  ``converged`` is as in
    ``holder_exponent``.
    """
    if p <= 1:
        raise ValueError("hp_scaling_exponent requires p > 1")
    z = complex(z)
    return _probe_fit(
        setup, p, z, z, radii, directions,
        lambda probe: h_function(setup, p, z, probe), relative=False,
    )


def _pairwise_spread(problem: ExtremalProblem, solutions: list[Solution]) -> float:
    """Max of sum_i w_i |f - g|^p over near-optimal pairs (a lower bound)."""
    if len(solutions) < 2:
        return 0.0
    best = solutions[0].objective
    near = [s for s in solutions if s.objective <= best * (1.0 + 1e-4)]
    if len(near) < 2:
        return 0.0
    values = [grid_values(problem, s.coeffs.coefficients) for s in near]
    w, p = problem.grid.weights, problem.p
    spread = 0.0
    for i in range(len(values)):
        for j in range(i + 1, len(values)):
            spread = max(spread, float(w @ np.abs(values[i] - values[j]) ** p))
    return spread


def dp_estimate(
    setup: Setup, p: float, z: complex, *, restarts: int, seed: int
) -> tuple[float, list[Solution]]:
    """Multistart lower bound for the spread d_p(z) of maximizers, 0 < p <= 1.

    Maximizers of K_p with f(z) = 1 are exactly the minimizers of ||f||_p
    under that constraint.  The sup over all maximizer pairs is not
    computable; the returned value is a heuristic lower bound taken over the
    near-optimal survivors of ``restarts`` seeded descents (bound: lower).

    K_p and the spread are invariant under rotation, and so in distribution
    are the circular Gaussian perturbations of the restarts, so the problem
    is posed at r = |z| and its survivors are rotated to z as ``Setup.solve``
    rotates its cached solves; d_p and K_p at z are those at |z|, bit for
    bit.  The restarts start from the cached p = 1 solve
    ``setup.solve(1.0, r)``, shared by every p of a sweep, its coefficients
    padded with zeros to the exponents of ``setup.basis(p)``: for p <= 1 the
    exponents at p = 1 end those at p, and the padded start still meets
    f(r) = 1.  Only the restarts run in complex arithmetic.
    """
    if not 0.0 < p <= 1.0:
        raise ValueError(f"dp_estimate requires 0 < p <= 1, got {p}")
    setup.require_interior(z)
    r = abs(z)
    problem = setup.problem(p, r, "K_p")
    base = setup.solve(1.0, r).coeffs.coefficients
    start = np.pad(base, (problem.basis.dimension - base.size, 0))
    solutions = multistart_minimize(problem, start, restarts=restarts, seed=seed)
    if not solutions:
        raise RuntimeError(f"no converged multistart run at p={p}")
    u = z / r if r else 1.0
    return _pairwise_spread(problem, solutions), [rotated(s, u) for s in solutions]


def limit_sweep(setup: Setup, z: complex, p_list, *, restarts: int, seed: int) -> LimitRecord:
    """Tabulate (p, K_p, d_p lower bound) over an ascending p list in (0, 1].

    Each row runs ``restarts`` seeded descents; bad arguments, a point within
    the boundary margin included, raise before the first solve.  Expected
    numerical failures (``ValueError``, ``RuntimeError``, ``LinAlgError``) are
    reported per row in ``statuses`` (value ``ok`` otherwise) and keep NaN in
    the failed entries; any other exception propagates.
    """
    ps = tuple(float(p) for p in p_list)
    if not ps:
        raise ValueError("p_list is empty")
    if any(not 0.0 < p <= 1.0 for p in ps):
        raise ValueError("p_list must lie in (0, 1]")
    if any(b <= a for a, b in zip(ps, ps[1:])):
        raise ValueError("p_list must be ascending")
    if restarts < 1 or seed < 0:
        raise ValueError(f"need restarts >= 1 and seed >= 0, got {restarts} and {seed}")
    z = complex(z)
    setup.require_interior(z)

    def run(p: float):
        try:
            d_p, sols = dp_estimate(setup, p, z, restarts=restarts, seed=seed)
            return d_p, sols[0].objective ** -p, "ok"
        except (ValueError, RuntimeError, np.linalg.LinAlgError) as exc:
            return math.nan, math.nan, f"error: {exc}"

    results = [run(p) for p in ps]

    return LimitRecord(
        z=z,
        p_list=ps,
        d_p_estimates=tuple(r[0] for r in results),
        k_p_values=tuple(r[1] for r in results),
        restarts=restarts,
        statuses=tuple(r[2] for r in results),
    )
