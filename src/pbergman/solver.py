"""Minimize the quadrature p-norm of a truncated series over an affine slice.

The engine behind every extremal quantity in the package.  Complex linear
constraints are eliminated exactly (particular solution plus an orthonormal
null-space basis), so every iterate is feasible to rounding.  The non-smooth
objective sum_i w_i |f(z_i)|^p is replaced by sum_i w_i (|f(z_i)|^2 + eps)^(p/2)
with eps driven down the fixed ``SMOOTHING_SCHEDULE``; each stage runs
iteratively reweighted least squares with a backtracking line search, so the
recorded objective sequence is non-increasing.  At p = 2 the weighted least-squares start is the
exact minimizer, so a p = 2 solve without a given start returns it with no
iterations.

Basis columns are pre-scaled to unit p-norm on the grid for conditioning;
reported coefficients are always in the raw monomial basis.

The grid is a tensor product of radii and a uniform angle rule, and column n
is r^n e^{i n theta}, so the basis is separable.  Over the K equispaced
angles, sum_k x_k e^{i m theta_k} is an exact DFT of length K.  The solver
therefore never forms the nodes x D matrix: grid values are one inverse FFT
per radius, column norms a sum over radii alone, and the reweighted Gram
G_jl = sum_i r_i^(n_j + n_l) W_i(n_l - n_j) / (c_j c_l), with W_i the
angular DFT of the weights on circle i, costs one real FFT of the weights
plus O(n_r D^2) work.

Each iteration takes one power of |u|^2 + eps on the grid: the line search
keeps (|u|^2 + eps)^(p/2) of the accepted point, and the next IRLS weights
are that over |u|^2 + eps.  The grid-sized arrays of a descent are allocated
once per solve and overwritten in place.

The continuation runs on two grids (grid sequencing, or nested iteration).
Every solve but that p = 2 return runs every smoothing stage but the last
two on a quarter-resolution grid of the same domain, starting from the given
start projected onto that grid's feasible slice, or else from that grid's
own weighted least-squares solution; the raw coefficients then move to the
requested grid, which runs the last two stages.  The heavily smoothed stages
are over-resolved by the requested grid; the coarse stages only supply a
start, so the drift test, the stationarity residual, the objective and
``converged`` are all taken on the requested grid.  A solve whose quarter
grid would have fewer than 16 radii or 32 angles runs every stage on the
requested grid.

A single descent is sequential.  Restarts and independent problems may run in
parallel, since every solve owns its buffers; problems, configs, and
solutions are immutable.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
import scipy.linalg

from .geometry import QuadratureGrid, build_grid
from .series import BasisSpec, CoeffVector

__all__ = [
    "SMOOTHING_SCHEDULE",
    "InfeasibleConstraintsError",
    "SolverConfig",
    "ExtremalProblem",
    "Solution",
    "point_constraint",
    "derivative_constraint",
    "minimize_pnorm",
    "multistart_minimize",
    "kkt_residual",
    "smoothed_objective",
    "solution_record",
]

SMOOTHING_SCHEDULE = (1e-2, 1e-4, 1e-6, 1e-8, 1e-10)

_ARMIJO = 1e-4
_MAX_BACKTRACKS = 40

# the early stages run on a grid this many times coarser in each direction,
# unless that leaves fewer radii or angles than the minimum
_COARSENING = 4
_MIN_COARSE_SHAPE = (16, 32)


class InfeasibleConstraintsError(ValueError):
    """Constraint rows are inconsistent or linearly dependent."""


@dataclass(frozen=True)
class SolverConfig:
    """Descent controls.

    ``tolerance`` is the relative objective-change stagnation threshold,
    ``max_iterations`` the per-smoothing-stage iteration cap.
    """

    tolerance: float = 1e-10
    max_iterations: int = 200

    def __post_init__(self):
        if self.tolerance <= 0:
            raise ValueError("tolerance must be positive")
        if self.max_iterations < 1:
            raise ValueError("max_iterations must be >= 1")


def point_constraint(basis: BasisSpec, z: complex, value: complex = 1.0) -> tuple[np.ndarray, complex]:
    """Row enforcing f(z) = value."""
    z = complex(z)
    if basis.has_poles() and z == 0:
        raise ValueError("cannot constrain a basis with poles at z = 0")
    row = np.array([z**n for n in basis.exponents], dtype=complex)
    return row, complex(value)


def derivative_constraint(basis: BasisSpec, z: complex, value: complex = 1.0) -> tuple[np.ndarray, complex]:
    """Row enforcing f'(z) = value."""
    z = complex(z)
    if basis.has_poles() and z == 0:
        raise ValueError("cannot constrain a basis with poles at z = 0")
    row = np.array(
        [0.0 if n == 0 else n * z ** (n - 1) for n in basis.exponents], dtype=complex
    )
    return row, complex(value)


@dataclass(frozen=True, eq=False)
class ExtremalProblem:
    """min ||f||_p over coefficients subject to complex linear constraints.

    ``constraints`` is a sequence of (row, target) pairs; rows act on raw
    monomial coefficients.  Rows must be linearly independent and fewer than
    the basis dimension, so the feasible slice has positive dimension.
    """

    basis: BasisSpec
    grid: QuadratureGrid
    p: float
    constraints: tuple[tuple[np.ndarray, complex], ...]

    def __post_init__(self):
        if self.p <= 0:
            raise ValueError(f"p must be positive, got {self.p}")
        cons = tuple(
            (np.asarray(row, dtype=complex), complex(target))
            for row, target in self.constraints
        )
        dim = self.basis.dimension
        if not cons:
            raise ValueError("at least one constraint is required")
        if any(row.shape != (dim,) for row, _ in cons):
            raise ValueError("constraint rows must match the basis dimension")
        if len(cons) >= dim:
            raise ValueError(
                f"{len(cons)} constraints leave no freedom in dimension {dim}"
            )
        C = np.array([row for row, _ in cons])
        if np.linalg.matrix_rank(C) < len(cons):
            raise InfeasibleConstraintsError("constraint rows are linearly dependent")
        object.__setattr__(self, "constraints", cons)

    @property
    def constraint_matrix(self) -> np.ndarray:
        return np.array([row for row, _ in self.constraints])

    @property
    def constraint_targets(self) -> np.ndarray:
        return np.array([target for _, target in self.constraints])


@dataclass(frozen=True, eq=False)
class Solution:
    """Outcome of one descent; multistart restarts return a list of these.

    ``objective`` is the attained ||f||_p.  ``stationarity_residual`` is the
    norm of the reduced gradient of the final smoothed objective; for p <= 1
    it is diagnostic only (convergence is declared on objective stagnation).
    ``iterations`` counts the accepted steps on both grids and
    ``coarse_iterations`` the share taken on the quarter-resolution grid.
    ``objective_history`` records the smoothed objective at every accepted
    step on the requested grid only, so it is non-increasing.
    ``cholesky_fallbacks`` counts the weighted least-squares solves, on
    either grid, whose matrix failed Cholesky factorization and were solved
    by ``lstsq`` instead.
    """

    coeffs: CoeffVector
    objective: float
    feasibility_residual: float
    stationarity_residual: float
    iterations: int
    coarse_iterations: int
    converged: bool
    cholesky_fallbacks: int
    objective_history: np.ndarray = field(default_factory=lambda: np.empty(0))


class _SeparableBasis:
    """The basis, scaled to unit p-norm columns, as an operator on a polar grid.

    Column n of V at node (i, k) is r_i^n e^{i n theta_k} / c_n.  On the
    uniform angle grid every angular sum is an exact DFT, so grid values
    take one FFT per radius, the adjoint one more, and a weighted Gram one
    real FFT of the weights plus O(n_r D^2) work; V itself is never formed.
    Exponents equal modulo the angular count share a DFT bin, where the grid
    cannot tell them apart.  ``values`` and ``adjoint`` act on scaled
    coefficients (raw coefficients times ``col_norms``).

    ``values`` writes into a spectrum buffer owned by the instance, so an
    instance must not be shared across threads; each solve builds its own.
    """

    def __init__(self, grid: QuadratureGrid, basis: BasisSpec, p: float):
        n = np.array(basis.exponents)
        radii = grid.radii
        K = grid.angular_count
        self.shape = (grid.radial_count, K)
        # |z^n|^p is constant on each circle, so the angular sum is exact
        powers = radii[:, None] ** n[None, :]
        self.col_norms = (
            2.0 * math.pi * (grid.radial_weights @ powers**p)
        ) ** (1.0 / p)
        self.radial = powers / self.col_norms
        self.bins = n % K
        # occupied DFT bins; fold[j, b] sums the exponents that share bin b
        self._occupied, slot = np.unique(self.bins, return_inverse=True)
        self._fold = (slot[:, None] == np.arange(self._occupied.size)).astype(float)
        self._spectrum = np.zeros(self.shape, dtype=complex)
        # A Gram entry depends on n_j + n_l through a radial power and on
        # the lag n_l - n_j through an angular frequency.  Powers are taken of
        # radii relative to the largest, which keeps them in floating-point
        # range.
        span = int(n[-1] - n[0])
        r_top = radii.max()
        sums = 2 * n[0] + np.arange(2 * span + 1)
        self._sum_powers = (radii[None, :] / r_top) ** sums[:, None]
        # The weights are real, so their angular DFT W at lag m is conj(R[b])
        # for the bin b = m mod K up to K/2 and R[K - b] above, with R the
        # real FFT, and W at lag -m is conj(W at m).  Only lags 0..span are
        # built; a Gram entry at a negative lag conjugates its mirror.
        bins = np.arange(span + 1) % K
        conj = bins <= K // 2
        self._lag_source = np.where(conj, bins, K - bins)
        lag = n[None, :] - n[:, None]
        self._sum_index = n[:, None] + n[None, :] - 2 * n[0]
        self._lag_index = np.abs(lag)
        self._lag_conj = conj[self._lag_index] != (lag < 0)
        top_scale = r_top**n / self.col_norms
        self._top_scale = top_scale[:, None] * top_scale[None, :]

    def values(self, a: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        """Flat grid values of sum_j a_j z^{n_j} / c_j, written to ``out`` if given."""
        # a real matrix times a complex one, as one real product on (re, im) pairs
        folded = np.asarray(a, dtype=complex)[:, None] * self._fold
        self._spectrum[:, self._occupied] = (self.radial @ folded.view(float)).view(complex)
        if out is None:
            out = np.empty(self._spectrum.size, dtype=complex)
        np.fft.ifft(self._spectrum, axis=1, norm="forward", out=out.reshape(self.shape))
        return out

    def adjoint(self, y: np.ndarray) -> np.ndarray:
        """V^H y for flat grid values y."""
        Y = np.fft.fft(y.reshape(self.shape), axis=1)
        return np.einsum("ij,ij->j", self.radial, Y[:, self.bins])

    def gram(self, omega: np.ndarray) -> np.ndarray:
        """V^H diag(omega) V for real node weights omega."""
        R = np.fft.rfft(omega.reshape(self.shape), axis=1)
        # H[s, m] = sum_i (r_i / r_top)^(2 n_0 + s) W[i, m] for lags m >= 0,
        # W[i, m] = sum_k omega_ik e^{i m theta_k} taken from R
        W = R.take(self._lag_source, axis=1)
        H = (self._sum_powers @ W.view(float)).view(complex)
        G = H[self._sum_index, self._lag_index]
        np.conjugate(G, out=G, where=self._lag_conj)
        G *= self._top_scale
        return G


class _Workspace:
    """Per-solve state on one grid: separable basis, constraint elimination,
    grid buffers.

    The grid-sized arrays of the descent are allocated once here and
    overwritten in place: the current values ``u`` with ``base`` = |u|^2 + eps
    and ``terms`` = base^(p/2), the same three at the line-search trial point,
    the step ``du`` and the IRLS weights ``omega``.  A workspace belongs to
    one solve, which keeps ``minimize_pnorm`` reentrant.  ``grid`` is the
    problem's own grid or a coarser rule on the same domain.
    """

    def __init__(self, problem: ExtremalProblem, grid: QuadratureGrid):
        self.w = grid.weights
        self.p = problem.p
        self.basis = _SeparableBasis(grid, problem.basis, problem.p)
        self.col_norms = self.basis.col_norms
        self.cholesky_fallbacks = 0

        C_raw = problem.constraint_matrix
        b = problem.constraint_targets
        self.C_raw = C_raw
        self.b = b
        Cs = C_raw / self.col_norms[None, :]

        a0, *_ = np.linalg.lstsq(Cs, b, rcond=None)
        residual = np.linalg.norm(Cs @ a0 - b)
        if residual > 1e-8 * (1.0 + np.linalg.norm(b)):
            raise InfeasibleConstraintsError(
                f"constraints are inconsistent (residual {residual:.3e})"
            )
        N = scipy.linalg.null_space(Cs)
        if N.shape[1] != problem.basis.dimension - len(problem.constraints):
            raise InfeasibleConstraintsError("constraint rows are linearly dependent")
        self.a0 = a0
        self.N = N

        size = self.w.size
        self.u, self.u_try, self.du = (np.empty(size, dtype=complex) for _ in range(3))
        self.base, self.base_try, self.terms, self.terms_try, self.omega = (
            np.empty(size) for _ in range(5)
        )
        self._half_pw = (0.5 * self.p) * self.w

    def raw_from_t(self, t: np.ndarray) -> np.ndarray:
        return (self.a0 + self.N @ t) / self.col_norms

    def t_from_raw(self, a_raw: np.ndarray) -> np.ndarray:
        return self.N.conj().T @ (a_raw * self.col_norms - self.a0)

    def least_squares(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The weighted least-squares point t (the p = 2 minimizer), A, rhs."""
        A, rhs = self.reduced_system(self.w)
        return self.weighted_solve(A, rhs), A, rhs

    def reduced_system(self, omega: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """A = N^H G N and rhs = -N^H G a0 for the Gram G of weights omega.

        A t - rhs is M^H diag(omega) u(t), with M = V N the map from t to
        the grid values u(t) = V (a0 + N t).
        """
        G = self.basis.gram(omega)
        Nh = self.N.conj().T
        return Nh @ G @ self.N, -(Nh @ (G @ self.a0))

    def weighted_solve(self, A: np.ndarray, rhs: np.ndarray) -> np.ndarray:
        """Solve A x = rhs by Cholesky; count each fall back to least squares."""
        try:
            c, low = scipy.linalg.cho_factor(A)
            return scipy.linalg.cho_solve((c, low), rhs)
        except scipy.linalg.LinAlgError:
            self.cholesky_fallbacks += 1
            return np.linalg.lstsq(A, rhs, rcond=None)[0]

    def set_point(self, t: np.ndarray, eps: float) -> float:
        """Load the values of t into ``u``; returns the smoothed objective."""
        self.basis.values(self.a0 + self.N @ t, out=self.u)
        return self.set_eps(eps)

    def set_eps(self, eps: float) -> float:
        """Fill ``base`` and ``terms`` of ``u`` under eps; returns w . terms."""
        return self._smooth(self.u, eps, self.base, self.terms)

    def trial(self, alpha: float, eps: float) -> float:
        """Smoothed objective at u + alpha du, kept in the trial buffers."""
        np.multiply(self.du, alpha, out=self.u_try)
        self.u_try += self.u
        return self._smooth(self.u_try, eps, self.base_try, self.terms_try)

    def accept(self) -> None:
        """Make the trial point current."""
        self.u, self.u_try = self.u_try, self.u
        self.base, self.base_try = self.base_try, self.base
        self.terms, self.terms_try = self.terms_try, self.terms

    def irls_weights(self) -> np.ndarray:
        """omega = (p/2) w base^(p/2 - 1) at ``u``, as (p/2) w terms / base."""
        np.divide(self.terms, self.base, out=self.omega)
        self.omega *= self._half_pw
        return self.omega

    def _smooth(self, u, eps, base, terms) -> float:
        _abs2(u, out=base, tmp=terms)
        base += eps
        np.power(base, 0.5 * self.p, out=terms)
        return float(self.w @ terms)


def _abs2(
    u: np.ndarray, out: np.ndarray | None = None, tmp: np.ndarray | None = None
) -> np.ndarray:
    """|u|^2 as u.real^2 + u.imag^2, without the square root of np.abs."""
    out = np.multiply(u.real, u.real, out=out)
    out += np.multiply(u.imag, u.imag, out=tmp)
    return out


def _phi_raw(u: np.ndarray, w: np.ndarray, p: float) -> float:
    return float(w @ _abs2(u) ** (0.5 * p))


def _irls_stage(ws: _Workspace, t, phi, eps, config):
    """One smoothing stage from t, whose values ``ws.u`` has ``ws.base`` and
    ``ws.terms`` filled under eps and smoothed objective phi.

    Returns (t, iterations, stagnated, history); ``ws`` holds the final point.
    """
    history = []
    stagnated = False
    # For p > 2 the reweighted quadratic underestimates curvature by up to
    # p - 1 along the radial direction; relaxing the step to 2/p restores a
    # uniform (p - 2)/p contraction instead of a slow Armijo zigzag.
    alpha0 = 1.0 if ws.p <= 2.0 else 2.0 / ws.p
    for _ in range(config.max_iterations):
        A, rhs = ws.reduced_system(ws.irls_weights())
        t_new = ws.weighted_solve(A, rhs)
        delta = t_new - t
        grad_t = A @ t - rhs
        descent = 2.0 * float(np.real(np.vdot(grad_t, delta)))
        if descent >= 0.0:
            stagnated = True  # at a stationary point up to rounding
            break
        ws.basis.values(ws.N @ delta, out=ws.du)
        alpha = alpha0
        accepted = False
        for _ in range(_MAX_BACKTRACKS):
            phi_try = ws.trial(alpha, eps)
            if phi_try <= phi + _ARMIJO * alpha * descent:
                accepted = True
                break
            alpha *= 0.5
        if not accepted:
            stagnated = True
            break
        t = t + alpha * delta
        ws.accept()
        history.append(phi_try)
        if phi - phi_try <= config.tolerance * max(phi_try, 1e-300):
            phi = phi_try
            stagnated = True
            break
        phi = phi_try
    return t, len(history), stagnated, history


def _coarse_grid(grid: QuadratureGrid) -> QuadratureGrid | None:
    """The quarter-resolution rule on the domain of ``grid``, or None if too small."""
    shape = (grid.radial_count // _COARSENING, grid.angular_count // _COARSENING)
    if shape[0] < _MIN_COARSE_SHAPE[0] or shape[1] < _MIN_COARSE_SHAPE[1]:
        return None
    return build_grid(grid.domain, *shape)


def _descend(ws: _Workspace, t, schedule, config):
    """Run the smoothing stages ``schedule`` from t on the grid of ``ws``.

    Returns (t, iterations, stagnated, history, raw): ``stagnated`` holds
    when every stage stagnated, and ``raw`` lists the raw objective after
    each stage that is among the last two of the whole schedule, the only
    values the drift test and the reported objective read.
    """
    tail = SMOOTHING_SCHEDULE[-2:]
    history = [ws.set_point(t, schedule[0])]
    raw = []
    iterations = 0
    all_stagnated = True
    for i, eps in enumerate(schedule):
        if i > 0:
            # same iterate under the smaller eps; keeps the record monotone
            history.append(ws.set_eps(eps))
        t, iters, stagnated, seg = _irls_stage(ws, t, history[-1], eps, config)
        history.extend(seg)
        iterations += iters
        all_stagnated = all_stagnated and stagnated
        if eps in tail:
            raw.append(_phi_raw(ws.u, ws.w, ws.p))
    return t, iterations, all_stagnated, history, raw


def minimize_pnorm(
    problem: ExtremalProblem,
    config: SolverConfig | None = None,
    *,
    start: np.ndarray | None = None,
) -> Solution:
    """Run the continuation descent; returns the final iterate with diagnostics.

    ``start`` is an optional raw coefficient vector; it is projected onto the
    feasible slice, so it need not satisfy the constraints exactly.  Without
    it the descent starts from the weighted least-squares solution, which is
    the exact minimizer for p = 2 and is then returned with no iterations.
    Every other solve runs its early stages on a coarser grid when the
    problem's grid allows (see the module docstring).  Non-convergence is
    reported through ``converged``, never silently.
    """
    config = config or SolverConfig()
    ws = _Workspace(problem, problem.grid)
    schedule = SMOOTHING_SCHEDULE
    coarse_iterations = coarse_fallbacks = 0
    if start is None and ws.p == 2.0:
        # The least-squares start is the exact minimizer, and the p = 2 IRLS
        # weights equal w under every eps, so A and rhs are already final.
        t, A, rhs = ws.least_squares()
        history = [ws.set_point(t, schedule[0])]
        raw = [_phi_raw(ws.u, ws.w, ws.p)]
        iterations, converged = 0, True
    else:
        coarse_grid = _coarse_grid(problem.grid)
        cws = ws if coarse_grid is None else _Workspace(problem, coarse_grid)
        if start is None:
            t = cws.least_squares()[0]
        else:
            t = cws.t_from_raw(np.asarray(start, dtype=complex))
        if cws is not ws:
            t, coarse_iterations, _, _, _ = _descend(cws, t, schedule[:-2], config)
            coarse_fallbacks = cws.cholesky_fallbacks
            t = ws.t_from_raw(cws.raw_from_t(t))
            schedule = schedule[-2:]
        t, iterations, stagnated, history, raw = _descend(ws, t, schedule, config)
        iterations += coarse_iterations
        drift = abs(raw[-1] - raw[-2]) if len(raw) >= 2 else 0.0
        settled = drift <= max(100.0 * config.tolerance, 1e-12) * max(raw[-1], 1e-300)
        converged = stagnated and settled
        # ws holds the final point under the last eps
        A, rhs = ws.reduced_system(ws.irls_weights())

    a_raw = ws.raw_from_t(t)
    feasibility = float(
        np.max(np.abs(ws.C_raw @ a_raw - ws.b)) if len(ws.b) else 0.0
    )
    stationarity = float(np.linalg.norm(2.0 * (A @ t - rhs)))
    hist = np.array(history)
    hist.setflags(write=False)
    return Solution(
        coeffs=CoeffVector(problem.basis, a_raw),
        objective=raw[-1] ** (1.0 / ws.p),
        feasibility_residual=feasibility,
        stationarity_residual=stationarity,
        iterations=iterations,
        coarse_iterations=coarse_iterations,
        converged=converged,
        cholesky_fallbacks=ws.cholesky_fallbacks + coarse_fallbacks,
        objective_history=hist,
    )


def _coefficient_distance(a: np.ndarray, b: np.ndarray) -> float:
    scale = max(1.0, float(np.linalg.norm(a)), float(np.linalg.norm(b)))
    return float(np.linalg.norm(a - b)) / scale


def multistart_minimize(
    problem: ExtremalProblem, config: SolverConfig | None = None, *, restarts: int, seed: int
) -> list[Solution]:
    """Seeded restarts for 0 < p <= 1, where the problem may be nonconvex
    (p < 1) or its minimizer not unique (p = 1).

    Descents start from the p = 1 solution of the same constraints and, for
    k = 1 .. restarts - 1, from perturbations of it drawn by the generator
    keyed [seed, k]; each runs the two-grid continuation of ``minimize_pnorm``
    from its start.  Converged solutions are deduplicated at coefficient
    distance 1e-4 and returned sorted by objective; distinct survivors are
    all reported, uniqueness is never asserted.
    """
    if restarts < 1 or seed < 0:
        raise ValueError(f"need restarts >= 1 and seed >= 0, got {restarts} and {seed}")
    config = config or SolverConfig()
    if problem.p == 1.0:
        base_problem = problem
    else:
        base_problem = ExtremalProblem(
            problem.basis, problem.grid, 1.0, problem.constraints
        )
    base = minimize_pnorm(base_problem, config)
    base_coeffs = base.coeffs.coefficients

    runs = [minimize_pnorm(problem, config, start=base_coeffs)]
    scale = 0.5 * max(1.0, float(np.linalg.norm(base_coeffs)))
    dim = base_coeffs.size
    for k in range(1, restarts):
        rng = np.random.default_rng([seed, k])
        noise = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
        start = base_coeffs + scale * noise / math.sqrt(dim)
        runs.append(minimize_pnorm(problem, config, start=start))

    survivors: list[Solution] = []
    for sol in sorted(
        (s for s in runs if s.converged), key=lambda s: s.objective
    ):
        if all(
            _coefficient_distance(sol.coeffs.coefficients, kept.coeffs.coefficients)
            > 1e-4
            for kept in survivors
        ):
            survivors.append(sol)
    return survivors


def kkt_residual(problem: ExtremalProblem, solution: Solution) -> float:
    """Norm of the objective gradient projected onto the constraint null space.

    The objective is ||f||_p^p, differentiable away from zeros of f for p > 1.
    The gradient is encoded as grad_re + 1j*grad_im per complex coefficient.
    """
    if problem.p <= 1:
        raise ValueError("kkt_residual requires p > 1")
    basis = _SeparableBasis(problem.grid, problem.basis, problem.p)
    u = basis.values(solution.coeffs.coefficients * basis.col_norms)
    absu = np.abs(u)
    with np.errstate(divide="ignore", invalid="ignore"):
        c = np.where(absu > 0, absu ** (problem.p - 2.0), 0.0) * u
    grad = basis.col_norms * basis.adjoint(problem.grid.weights * problem.p * c)
    N = scipy.linalg.null_space(problem.constraint_matrix)
    return float(np.linalg.norm(N.conj().T @ grad))


def smoothed_objective(
    problem: ExtremalProblem, coefficients: np.ndarray, eps: float
) -> tuple[float, np.ndarray]:
    """Value and coefficient gradient of sum_i w_i (|f(z_i)|^2 + eps)^(p/2).

    The gradient is encoded as grad_re + 1j*grad_im per complex coefficient,
    so the derivative along a complex direction d with real step h is
    Re(conj(grad) . d) * h.
    """
    if eps <= 0:
        raise ValueError("eps must be positive")
    basis = _SeparableBasis(problem.grid, problem.basis, problem.p)
    u = basis.values(np.asarray(coefficients, dtype=complex) * basis.col_norms)
    w, p = problem.grid.weights, problem.p
    base = _abs2(u) + eps
    value = float(w @ base ** (0.5 * p))
    rho = base ** (0.5 * p - 1.0)
    grad = basis.col_norms * basis.adjoint(w * p * rho * u)
    return value, grad


def solution_record(solution: Solution) -> dict:
    """JSON-ready diagnostics for one run."""
    return {
        "objective": solution.objective,
        "feasibility_residual": solution.feasibility_residual,
        "stationarity_residual": solution.stationarity_residual,
        "iterations": solution.iterations,
        "coarse_iterations": solution.coarse_iterations,
        "converged": solution.converged,
        "cholesky_fallbacks": solution.cholesky_fallbacks,
    }
