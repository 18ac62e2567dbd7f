"""Minimize the quadrature p-norm of a truncated series over an affine slice.

The engine behind every extremal quantity in the package.  Complex linear
constraints are eliminated exactly (particular solution plus an orthonormal
null-space basis), so every iterate is feasible to rounding; the problem
takes that elimination once, from one SVD, and every grid of a solve shares
its coordinates t.  The non-smooth objective sum_i w_i |f(z_i)|^p is
replaced by sum_i w_i (|f(z_i)|^2 + eps)^(p/2) with eps driven down the
fixed ``SMOOTHING_SCHEDULE``.  Each stage iterates the iteratively
reweighted least-squares (IRLS) map with Anderson acceleration of depth
``_ANDERSON_DEPTH``: an iteration first tries the extrapolated candidate at
full step and keeps it only if it passes the Armijo test of the plain step,
and otherwise backtracks along the plain IRLS step.  So the smoothed
objective never rises within a grid: each accepted step lowers it, and so
does each smaller eps at a fixed iterate.  At p = 2 the weighted
least-squares start is the exact minimizer, so a p = 2 solve without a
given start returns it with no iterations and no pass over the grid: its
system and its objective, the quadratic form a^H G a, come from the Gram G
of the grid weights, which each basis builds once.

Basis columns are pre-scaled by their p-norms on the domain
(``BasisSpec.col_norms``); reported coefficients are raw monomial ones.

The grid is a tensor product of radii and a uniform angle rule, and column n
is r^n e^{i n theta}, so the basis is separable.  Over the K equispaced
angles, sum_k x_k e^{i m theta_k} is an exact DFT of length K.  The solver
therefore never forms the nodes x D matrix: grid values are one inverse FFT
per radius, and the reweighted Gram G_jl = sum_i r_i^(n_j + n_l)
W_i(n_l - n_j) / (c_j c_l), with W_i the angular DFT of the weights on
circle i, costs one real FFT of the weights plus O(n_r D^2) work.

Each line-search trial takes one power of |u|^2 + eps on the grid, and the
accepted trial keeps (|u|^2 + eps)^(p/2), so the next IRLS weights are w
times that over |u|^2 + eps.  Each grid level allocates its grid-sized
arrays once and overwrites them in place; an iteration allocates none.

The continuation runs on two grid levels (grid sequencing, or nested
iteration).  Every solve but that p = 2 return first runs every smoothing
stage but the last two to completion on a quarter-resolution grid of the
same domain, starting from the given start projected onto the feasible
slice, or else from that grid's weighted least-squares solution; its t then
carries over unchanged to the requested grid, which runs the last two
stages.  The heavily smoothed stages are over-resolved by the requested
grid; the coarse stages only supply a start, so the drift test, the
stationarity residual, the objective and ``converged`` are all taken on the
requested grid.  The drift test compares the raw objective
sum_i w_i |f(z_i)|^p after the last two stages the requested grid runs; the
coarse level takes no raw objective.  A solve whose quarter grid would have
fewer than 16 radii or 32 angles runs every stage on the requested grid.
Each level counts its own steps, Cholesky fallbacks and Anderson steps, and
the solution reports their totals.

What every solve on a grid shares is read-only, built once per grid and
kept in a cache keyed weakly by the grid, so it lives exactly as long as the
grid: the coarse rule and one separable basis per basis spec.  The writable
arrays belong to the solve, so no two solves share any.  A single descent is
sequential; restarts and independent problems may run in parallel or nested,
and problems and solutions are immutable.
"""

from __future__ import annotations

import functools
import math
import weakref
from collections.abc import Iterator
from dataclasses import dataclass, field, fields, replace

import numpy as np
import scipy.linalg

from .geometry import QuadratureGrid, build_grid, format_domain
from .series import BasisSpec, CoeffVector

__all__ = [
    "SMOOTHING_SCHEDULE",
    "InfeasibleConstraintsError",
    "ExtremalProblem",
    "Solution",
    "point_constraint",
    "derivative_constraint",
    "minimize_pnorm",
    "multistart_minimize",
    "grid_values",
    "solution_record",
]

SMOOTHING_SCHEDULE = (1e-2, 1e-4, 1e-6, 1e-8, 1e-10)

# A stage stops when one step lowers the smoothed objective by at most
# _TOLERANCE relative, before a step whose predicted decrease is at most
# _ROUNDING relative (what the grid sum of the objective cannot resolve), or
# after _MAX_ITERATIONS steps; a solve converges only if the raw objective
# after the last two stages differs by at most _DRIFT_TOL relative.
_TOLERANCE = 1e-10
_ROUNDING = 1e-15
_MAX_ITERATIONS = 200
_DRIFT_TOL = 1e-8

_ARMIJO = 1e-4
_MAX_BACKTRACKS = 40

# an IRLS stage extrapolates from this many differences of its last points
# (1 or 2: ``_anderson`` solves its normal equations in closed form)
_ANDERSON_DEPTH = 2

# the early stages run on a grid this many times coarser in each direction,
# unless that leaves fewer radii or angles than the minimum
_COARSENING = 4
_MIN_COARSE_SHAPE = (16, 32)


class InfeasibleConstraintsError(ValueError):
    """Constraint rows are linearly dependent."""


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

    The grid lies on the basis's domain and has more angles than the span
    n_max - n_min of the basis exponents, so no two exponents share a DFT
    bin and the grid integrates |f|^2 exactly in the angle.
    ``constraints`` is a sequence of finite (row, target) pairs; the rows
    act on raw monomial coefficients, are linearly independent and fewer
    than the basis dimension.  ``constraint_matrix`` and ``constraint_targets``
    stack them once, read-only.  ``feasible_slice`` is (a0, N) from one SVD
    of the rows over ``basis.col_norms``, which also tests the rank: the
    slice is a0 + N t in scaled coefficients, N with orthonormal columns.
    """

    basis: BasisSpec
    grid: QuadratureGrid
    p: float
    constraints: tuple[tuple[np.ndarray, complex], ...]
    feasible_slice: tuple[np.ndarray, np.ndarray] = field(init=False, repr=False)

    def __post_init__(self):
        if not 0 < self.p < math.inf:
            raise ValueError(f"p must be positive and finite, got {self.p}")
        if self.grid.domain != self.basis.domain:
            raise ValueError(
                f"the grid is on {format_domain(self.grid.domain)} but the basis "
                f"on {format_domain(self.basis.domain)}"
            )
        exponents = self.basis.exponents
        span = exponents[-1] - exponents[0]
        if self.grid.angular_count <= span:
            raise ValueError(
                f"a grid of {self.grid.angular_count} angles aliases basis exponents "
                f"spanning {span}; use more than {span} angles"
            )
        cons = tuple(
            (np.asarray(row, dtype=complex), complex(target))
            for row, target in self.constraints
        )
        object.__setattr__(self, "constraints", cons)
        dim = self.basis.dimension
        if not cons:
            raise ValueError("at least one constraint is required")
        if any(row.shape != (dim,) for row, _ in cons):
            raise ValueError("constraint rows must match the basis dimension")
        if len(cons) >= dim:
            raise ValueError(
                f"{len(cons)} constraints leave no freedom in dimension {dim}"
            )
        C, b = self.constraint_matrix, self.constraint_targets
        if not (np.isfinite(C).all() and np.isfinite(b).all()):
            raise ValueError("constraint rows and targets must be finite")
        U, sigma, Vh = np.linalg.svd(C / self.basis.col_norms)
        if sigma[-1] <= sigma[0] * dim * np.finfo(float).eps:
            raise InfeasibleConstraintsError("constraint rows are linearly dependent")
        a0 = Vh[: len(cons)].conj().T @ ((U.conj().T @ b) / sigma)
        N = Vh[len(cons) :].conj().T
        for part in (a0, N):
            part.setflags(write=False)
        object.__setattr__(self, "feasible_slice", (a0, N))

    @functools.cached_property
    def constraint_matrix(self) -> np.ndarray:
        C = np.array([row for row, _ in self.constraints])
        C.setflags(write=False)
        return C

    @functools.cached_property
    def constraint_targets(self) -> np.ndarray:
        b = np.array([target for _, target in self.constraints])
        b.setflags(write=False)
        return b

    def raw_from_t(self, t: np.ndarray) -> np.ndarray:
        a0, N = self.feasible_slice
        return (a0 + N @ t) / self.basis.col_norms

    def t_from_raw(self, a_raw: np.ndarray) -> np.ndarray:
        """t of the orthogonal projection of scaled ``a_raw`` onto the slice."""
        a0, N = self.feasible_slice
        return N.conj().T @ (np.asarray(a_raw, dtype=complex) * self.basis.col_norms - a0)


@dataclass(frozen=True, eq=False)
class Solution:
    """Outcome of one descent; multistart restarts return a list of these.

    ``objective`` is the attained ||f||_p.  ``stationarity_residual`` is the
    norm of the reduced gradient of the final smoothed objective; for p <= 1
    it is diagnostic only (convergence is declared on objective stagnation).
    ``iterations`` counts the accepted steps on both grids and
    ``coarse_iterations`` the share taken on the quarter-resolution grid.
    ``cholesky_fallbacks`` counts the weighted least-squares solves, on
    either grid, whose matrix failed Cholesky factorization and were solved
    by ``lstsq`` instead.  ``anderson_steps`` counts the accepted steps, on
    either grid, that took the Anderson candidate.
    """

    coeffs: CoeffVector
    objective: float
    feasibility_residual: float
    stationarity_residual: float
    iterations: int
    coarse_iterations: int
    converged: bool
    cholesky_fallbacks: int
    anderson_steps: int


class _SeparableBasis:
    """The basis, columns scaled by ``BasisSpec.col_norms``, as an operator
    on a polar grid.

    Column n of V at node (i, k) is r_i^n e^{i n theta_k} / c_n.  On the
    uniform angle grid every angular sum is an exact DFT, so grid values
    take one FFT per radius and a weighted Gram one real FFT of the weights
    plus O(n_r D^2) work; V itself is never formed.  Exponents equal modulo
    the angular count share a DFT bin, where the grid cannot tell them
    apart.  ``values`` acts on scaled coefficients (raw coefficients times
    ``col_norms``).

    An instance is read-only apart from ``weight_gram``, the Gram under the
    grid weights, built on first use and then kept, and it holds no scratch,
    so one instance per (grid, basis spec) serves every solve, nested and
    concurrent ones included; the grid cache keeps it.  The scratch arrays
    come from the caller: ``values`` writes into a spectrum array and
    ``gram`` into a real-FFT array.
    """

    def __init__(self, grid: QuadratureGrid, basis: BasisSpec):
        n = np.array(basis.exponents)
        col_norms = basis.col_norms
        radii = grid.radii
        K = grid.angular_count
        self.shape = (grid.radial_count, K)
        self._weights = grid.weights
        self.radial = radii[:, None] ** n[None, :] / col_norms
        # occupied DFT bins; fold[j, b] sums the exponents that share bin b
        self.occupied, slot = np.unique(n % K, return_inverse=True)
        self._fold = (slot[:, None] == np.arange(self.occupied.size)).astype(float)
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
        top_scale = r_top**n / col_norms
        self._top_scale = top_scale[:, None] * top_scale[None, :]
        for value in vars(self).values():
            if isinstance(value, np.ndarray):
                value.setflags(write=False)

    def values(
        self,
        a: np.ndarray,
        out: np.ndarray | None = None,
        spectrum: np.ndarray | None = None,
    ) -> np.ndarray:
        """Flat grid values of sum_j a_j z^{n_j} / c_j, written to ``out`` if given.

        ``spectrum`` is scratch of the grid's shape that must be zero outside
        the ``occupied`` bins; a zero array is made when it is not given.
        """
        if spectrum is None:
            spectrum = np.zeros(self.shape, dtype=complex)
        # a real matrix times a complex one, as one real product on (re, im) pairs
        folded = np.asarray(a, dtype=complex)[:, None] * self._fold
        spectrum[:, self.occupied] = (self.radial @ folded.view(float)).view(complex)
        if out is None:
            out = np.empty(spectrum.size, dtype=complex)
        np.fft.ifft(spectrum, axis=1, norm="forward", out=out.reshape(self.shape))
        return out

    def gram(self, omega: np.ndarray, rfft_out: np.ndarray | None = None) -> np.ndarray:
        """V^H diag(omega) V for real node weights omega.

        The real FFT of the weights is written to ``rfft_out`` if given, of
        shape (n_r, K // 2 + 1).
        """
        R = np.fft.rfft(omega.reshape(self.shape), axis=1, out=rfft_out)
        # H[s, m] = sum_i (r_i / r_top)^(2 n_0 + s) W[i, m] for lags m >= 0,
        # W[i, m] = sum_k omega_ik e^{i m theta_k} taken from R
        W = R.take(self._lag_source, axis=1)
        H = (self._sum_powers @ W.view(float)).view(complex)
        G = H[self._sum_index, self._lag_index]
        np.conjugate(G, out=G, where=self._lag_conj)
        G *= self._top_scale
        return G

    @functools.cached_property
    def weight_gram(self) -> np.ndarray:
        """V^H diag(w) V for the grid weights w, read-only."""
        G = self.gram(self._weights)
        G.setflags(write=False)
        return G


class _GridCache:
    """The read-only parts of every solve on one grid, built on first use.

    It holds the grid's coarse rule (None when the grid is too small to
    coarsen) and one ``_SeparableBasis`` per basis spec.  It keeps no
    reference to its own grid, so its entry in ``_GRID_CACHES`` lives as
    long as the grid does.
    """

    def __init__(self, grid: QuadratureGrid):
        self.coarse_grid = _coarse_grid(grid)
        self._bases: dict[BasisSpec, _SeparableBasis] = {}

    def basis(self, grid: QuadratureGrid, spec: BasisSpec) -> _SeparableBasis:
        """The separable basis of ``spec`` on ``grid``, this cache's grid."""
        basis = self._bases.get(spec)
        if basis is None:
            basis = self._bases.setdefault(spec, _SeparableBasis(grid, spec))
        return basis


# one entry per live grid, the coarse rules of the requested grids included
_GRID_CACHES: weakref.WeakKeyDictionary[QuadratureGrid, _GridCache] = (
    weakref.WeakKeyDictionary()
)


def _grid_cache(grid: QuadratureGrid) -> _GridCache:
    cache = _GRID_CACHES.get(grid)
    if cache is None:
        cache = _GRID_CACHES.setdefault(grid, _GridCache(grid))
    return cache


def grid_values(problem: ExtremalProblem, coefficients: np.ndarray) -> np.ndarray:
    """Flat values on ``problem.grid`` of the series with raw coefficients."""
    spec = problem.basis
    basis = _grid_cache(problem.grid).basis(problem.grid, spec)
    return basis.values(np.asarray(coefficients, dtype=complex) * spec.col_norms)


# the LAPACK Cholesky factor and solve behind scipy.linalg.cho_factor and
# cho_solve, called directly: the wrappers cost several times the work at the
# small D of a reduced system; weighted_solve keeps their finite checks
_POTRF, _POTRS = scipy.linalg.get_lapack_funcs(("potrf", "potrs"), dtype=complex)


class _Workspace:
    """Per-solve state on one grid level: the separable basis, the
    problem's feasible slice, grid arrays and the level's counts.

    The grid is the problem's own grid or a coarser rule on the same domain.
    The basis comes from the grid's cache and the slice (a0, N) from the
    problem, so every level of a solve works in the same coordinates t.  The
    workspace allocates the grid-sized arrays of the descent and overwrites
    them in place: the current values ``u`` with ``base`` = |u|^2 + eps and
    ``terms`` = base^(p/2), the same three at the line-search trial point,
    the step ``du``, the IRLS weights ``omega``, and the FFT scratch, whose
    spectrum stays zero outside the bins the basis occupies.  No other solve
    sees them, which keeps ``minimize_pnorm`` reentrant.  They are views of
    one block because glibc keeps a freed block of up to 32 MiB for the
    next workspace, while it hands the pages of ten separate arrays back to
    the system, and a solve on the default grid then faults some 860 pages
    in.  ``iterations`` counts the accepted steps on the level,
    ``anderson_steps`` those that took the Anderson candidate and
    ``cholesky_fallbacks`` the solves that fell back to least squares.
    """

    def __init__(self, problem: ExtremalProblem, grid: QuadratureGrid):
        self.w = grid.weights
        self.p = problem.p
        self.basis = _grid_cache(grid).basis(grid, problem.basis)
        self.a0, self.N = problem.feasible_slice
        self.iterations = 0
        self.cholesky_fallbacks = 0
        self.anderson_steps = 0

        n_r, K = self.basis.shape
        size, rfft_size = n_r * K, n_r * (K // 2 + 1)
        complex_size = 4 * size + rfft_size
        block = np.empty(2 * complex_size + 5 * size)
        complex_part = block[: 2 * complex_size].view(complex)
        self.u, self.u_try, self.du, spectrum = complex_part[: 4 * size].reshape(4, size)
        self._spectrum = spectrum.reshape(n_r, K)
        self._spectrum[...] = 0.0
        self._rfft = complex_part[4 * size :].reshape(n_r, K // 2 + 1)
        real_part = block[2 * complex_size :].reshape(5, size)
        self.base, self.base_try, self.terms, self.terms_try, self.omega = real_part

    def least_squares(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The weighted least-squares point t (the p = 2 minimizer), A, rhs."""
        A, rhs = self._reduce(self.basis.weight_gram)
        return self.weighted_solve(A, rhs), A, rhs

    def reduced_system(self, omega: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """A = N^H G N and rhs = -N^H G a0 for the Gram G of weights omega.

        A t - rhs is M^H diag(omega) u(t), with M = V N the map from t to
        the grid values u(t) = V (a0 + N t).
        """
        return self._reduce(self.basis.gram(omega, rfft_out=self._rfft))

    def _reduce(self, G: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        Nh = self.N.conj().T
        return Nh @ G @ self.N, -(Nh @ (G @ self.a0))

    def weighted_solve(self, A: np.ndarray, rhs: np.ndarray) -> np.ndarray:
        """Solve A x = rhs by Cholesky; count each fall back to least squares.

        The calls and checks are those of ``scipy.linalg.cho_factor`` and
        ``cho_solve``: the upper triangle is factored, and NaN or inf in A
        or rhs raises ``ValueError``.
        """
        if not np.isfinite(A).all():
            raise ValueError("array must not contain infs or NaNs")
        c, info = _POTRF(A, lower=0, clean=0)
        if info > 0:
            self.cholesky_fallbacks += 1
            return np.linalg.lstsq(A, rhs, rcond=None)[0]
        if info < 0:
            raise ValueError(f"illegal value in argument {-info} of potrf")
        if not np.isfinite(rhs).all():
            raise ValueError("array must not contain infs or NaNs")
        x, info = _POTRS(c, rhs, lower=0)
        if info != 0:
            raise ValueError(f"illegal value in argument {-info} of potrs")
        return x

    def set_point(self, t: np.ndarray, eps: float) -> float:
        """Load the values of t into ``u``; returns the smoothed objective."""
        self.basis.values(self.a0 + self.N @ t, out=self.u, spectrum=self._spectrum)
        return self.set_eps(eps)

    def set_step(self, delta: np.ndarray) -> None:
        """Load the values of the step N delta into ``du``."""
        self.basis.values(self.N @ delta, out=self.du, spectrum=self._spectrum)

    def set_eps(self, eps: float) -> float:
        """Fill ``base`` and ``terms`` of ``u`` under eps; returns w . terms."""
        return self._smooth(self.u, eps, self.base, self.terms)

    def trial(self, alpha: float, eps: float) -> float:
        """Smoothed objective at u + alpha du, kept in the trial arrays."""
        np.multiply(self.du, alpha, out=self.u_try)
        self.u_try += self.u
        return self._smooth(self.u_try, eps, self.base_try, self.terms_try)

    def accept(self) -> None:
        """Make the trial point current."""
        self.u, self.u_try = self.u_try, self.u
        self.base, self.base_try = self.base_try, self.base
        self.terms, self.terms_try = self.terms_try, self.terms

    def irls_weights(self) -> np.ndarray:
        """omega = w base^(p/2 - 1) at ``u``, as w terms / base; the gradient
        in t of the smoothed objective is p (A t - rhs) for these weights."""
        np.divide(self.terms, self.base, out=self.omega)
        self.omega *= self.w
        return self.omega

    def raw_objective(self) -> float:
        """sum_i w_i |u_i|^p at ``u``, computed in the trial arrays."""
        power = _abs2(self.u, out=self.base_try, tmp=self.terms_try)
        power **= 0.5 * self.p
        return float(self.w @ power)

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


def _irls_stage(ws: _Workspace, t, phi, eps):
    """One smoothing stage from t, whose values ``ws.u`` has ``ws.base`` and
    ``ws.terms`` filled under eps and smoothed objective phi.

    The stage iterates the relaxed IRLS map g(t) = t + alpha0 (t_IRLS - t)
    with Anderson acceleration: each iteration first tries, at full step,
    the type-II candidate from the last ``_ANDERSON_DEPTH`` differences of g
    and of f(t) = g(t) - t (Walker and Ni 2011), and keeps it only if it
    meets the Armijo bound the plain step must meet at alpha0.  Otherwise the
    plain step backtracks from alpha0 and the history keeps only the last
    point.  The stage stagnates before a plain step whose predicted decrease
    is at most ``_ROUNDING`` relative, after a step that lowers the objective
    by at most ``_TOLERANCE`` relative, or when backtracking fails.

    Returns (t, stagnated); ``ws`` holds the final point and has counted the
    stage's steps.
    """
    stagnated = False
    # For p > 2 the reweighted quadratic underestimates curvature by up to
    # p - 1 along the radial direction; relaxing the step to 2/p restores a
    # uniform (p - 2)/p contraction instead of a slow Armijo zigzag.
    alpha0 = 1.0 if ws.p <= 2.0 else 2.0 / ws.p
    history = []  # (g, f) at the last points of the stage, oldest first
    for _ in range(_MAX_ITERATIONS):
        A, rhs = ws.reduced_system(ws.irls_weights())
        delta = ws.weighted_solve(A, rhs) - t
        descent = ws.p * float(np.real(np.vdot(A @ t - rhs, delta)))
        if -descent <= _ROUNDING * phi:
            stagnated = True  # the predicted decrease is at rounding level
            break
        f = alpha0 * delta
        history = history[-_ANDERSON_DEPTH:] + [(t + f, f)]
        phi_try = math.inf
        if len(history) > 1:
            candidate = _anderson(history)
            ws.set_step(candidate - t)
            phi_try = ws.trial(1.0, eps)
        # the Armijo bound of the plain step at alpha0
        if phi_try <= phi + _ARMIJO * alpha0 * descent:
            t = candidate
            ws.anderson_steps += 1
        else:
            history = history[-1:]
            ws.set_step(delta)
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
        ws.iterations += 1
        if phi - phi_try <= _TOLERANCE * max(phi_try, 1e-300):
            stagnated = True
            break
        phi = phi_try
    return t, stagnated


def _anderson(history):
    """The candidate g - sum_j gamma_j (g - g_j) from ``history``, pairs
    (g_j, f_j) oldest first ending in (g, f), with gamma minimizing the real
    norm of f - sum_j gamma_j (f - f_j); the newest difference alone is used
    when the two are nearly parallel.  The 1x1 or 2x2 normal equations are
    solved in floats.
    """
    (g, f), *older = history[::-1]
    dg = [g - g_j for g_j, _ in older]
    df = [f - f_j for _, f_j in older]
    m00 = float(np.vdot(df[0], df[0]).real)
    b0 = float(np.vdot(df[0], f).real)
    if len(df) > 1:
        m01 = float(np.vdot(df[0], df[1]).real)
        m11 = float(np.vdot(df[1], df[1]).real)
        b1 = float(np.vdot(df[1], f).real)
        det = m00 * m11 - m01 * m01
        if det > 1e-12 * m00 * m11:  # the differences are 1e-6 rad or more apart
            gamma0, gamma1 = (b0 * m11 - b1 * m01) / det, (b1 * m00 - b0 * m01) / det
            return g - gamma0 * dg[0] - gamma1 * dg[1]
    return g - (b0 / m00) * dg[0] if m00 > 0.0 else g


def _coarse_grid(grid: QuadratureGrid) -> QuadratureGrid | None:
    """The quarter-resolution rule on the domain of ``grid``, or None if too small."""
    shape = (grid.radial_count // _COARSENING, grid.angular_count // _COARSENING)
    if shape[0] < _MIN_COARSE_SHAPE[0] or shape[1] < _MIN_COARSE_SHAPE[1]:
        return None
    return build_grid(grid.domain, *shape)


def _descend(ws: _Workspace, t, schedule) -> Iterator[tuple[np.ndarray, bool]]:
    """Run the smoothing stages ``schedule`` on the grid of ``ws`` from t, or
    from the grid's weighted least-squares point when t is None.

    Yields (t, stagnated) after each stage, while ``ws`` still holds that
    stage's final point under its eps.
    """
    if t is None:
        t = ws.least_squares()[0]
    phi = ws.set_point(t, schedule[0])
    for i, eps in enumerate(schedule):
        if i > 0:
            # same iterate under the smaller eps, a lower smoothed objective
            phi = ws.set_eps(eps)
        t, stagnated = _irls_stage(ws, t, phi, eps)
        yield t, stagnated


def minimize_pnorm(problem: ExtremalProblem, *, start: np.ndarray | None = None) -> Solution:
    """Run the continuation descent; returns the final iterate with diagnostics.

    ``start`` is an optional raw coefficient vector; it is projected onto the
    feasible slice, so it need not satisfy the constraints exactly.  Without
    it the descent starts from the weighted least-squares solution, which is
    the exact minimizer for p = 2 and is then returned with no iterations.
    Every other solve runs its early stages on a coarser grid when the
    problem's grid allows (see the module docstring).  The stop rule is fixed
    by the module constants ``_TOLERANCE``, ``_MAX_ITERATIONS`` and
    ``_DRIFT_TOL``; ``converged`` holds when every stage on the requested
    grid stagnated and the raw objective drifted by at most ``_DRIFT_TOL``
    relative over the last two stages.  Non-convergence is reported through
    ``converged``, never silently.
    """
    p2_return = start is None and problem.p == 2.0
    t = None if start is None else problem.t_from_raw(start)
    schedule = SMOOTHING_SCHEDULE
    coarse_grid = _grid_cache(problem.grid).coarse_grid
    levels = []  # the workspace of each grid level run, coarse first
    if coarse_grid is not None and not p2_return:
        ws = _Workspace(problem, coarse_grid)
        for t, _ in _descend(ws, t, schedule[:-2]):
            pass
        levels.append(ws)
        schedule = schedule[-2:]
    ws = _Workspace(problem, problem.grid)
    if p2_return:
        # The least-squares start is the exact minimizer, and the p = 2
        # IRLS weights equal w under every eps, so A and rhs are final;
        # the objective is the quadratic form of the cached Gram of w,
        # so no grid pass runs.
        t, A, rhs = ws.least_squares()
        a = ws.a0 + ws.N @ t
        raw = [float(np.vdot(a, ws.basis.weight_gram @ a).real)]
        converged = True
    else:
        # the drift test reads the raw objective after the last two stages
        raw, stagnated = [], True
        for i, (t, stage_stagnated) in enumerate(_descend(ws, t, schedule)):
            stagnated = stagnated and stage_stagnated
            if i >= len(schedule) - 2:
                raw.append(ws.raw_objective())
        drift = abs(raw[-1] - raw[-2])
        settled = drift <= _DRIFT_TOL * max(raw[-1], 1e-300)
        converged = stagnated and settled
        # ws holds the final point under the last eps
        A, rhs = ws.reduced_system(ws.irls_weights())
    levels.append(ws)
    a_raw = problem.raw_from_t(t)
    residual = problem.constraint_matrix @ a_raw - problem.constraint_targets
    feasibility = float(np.max(np.abs(residual)))
    stationarity = float(np.linalg.norm(problem.p * (A @ t - rhs)))
    return Solution(
        coeffs=CoeffVector(problem.basis, a_raw),
        objective=raw[-1] ** (1.0 / problem.p),
        feasibility_residual=feasibility,
        stationarity_residual=stationarity,
        iterations=sum(level.iterations for level in levels),
        coarse_iterations=sum(level.iterations for level in levels[:-1]),
        converged=converged,
        cholesky_fallbacks=sum(level.cholesky_fallbacks for level in levels),
        anderson_steps=sum(level.anderson_steps for level in levels),
    )


def _coefficient_distance(a: np.ndarray, b: np.ndarray) -> float:
    scale = max(1.0, float(np.linalg.norm(a)), float(np.linalg.norm(b)))
    return float(np.linalg.norm(a - b)) / scale


def multistart_minimize(problem: ExtremalProblem, *, restarts: int, seed: int) -> list[Solution]:
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
    base_problem = problem if problem.p == 1.0 else replace(problem, p=1.0)
    base = minimize_pnorm(base_problem)
    base_coeffs = base.coeffs.coefficients

    runs = [minimize_pnorm(problem, start=base_coeffs)]
    scale = 0.5 * max(1.0, float(np.linalg.norm(base_coeffs)))
    dim = base_coeffs.size
    for k in range(1, restarts):
        rng = np.random.default_rng([seed, k])
        noise = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
        start = base_coeffs + scale * noise / math.sqrt(dim)
        runs.append(minimize_pnorm(problem, start=start))

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


def solution_record(solution: Solution) -> dict:
    """JSON-ready diagnostics for one run: every ``Solution`` field but
    ``coeffs``, in field order."""
    return {
        f.name: getattr(solution, f.name) for f in fields(Solution) if f.name != "coeffs"
    }
