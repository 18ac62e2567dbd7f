"""Minimize the quadrature p-norm of a truncated series over an affine slice.

The engine behind every extremal quantity in the package.  Complex linear
constraints are eliminated exactly (particular solution plus an orthonormal
null-space basis), so every iterate is feasible to rounding.  The non-smooth
objective sum_i w_i |f(z_i)|^p is replaced by sum_i w_i (|f(z_i)|^2 + eps)^(p/2)
with eps driven down the fixed ``SMOOTHING_SCHEDULE``; each stage runs
iteratively reweighted least squares with a backtracking line search, so the
smoothed objective never rises within a grid: each accepted step lowers it,
and so does each smaller eps at a fixed iterate.  At p = 2 the weighted
least-squares start is the exact minimizer, so a p = 2 solve without a given
start returns it with no iterations.

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
are that over |u|^2 + eps.  The grid-sized arrays of a descent are
overwritten in place; an iteration allocates none.

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

What every solve on a grid shares is built once per grid and kept in a
cache keyed weakly by the grid, so it lives exactly as long as the grid: the
coarse rule, one separable basis per (exponents, p), which is read-only, and
a pool of grid-buffer sets.  A solve borrows one buffer set per grid level
and returns it when it ends, so no two running solves share buffers.  A
single descent is sequential; restarts and independent problems may run in
parallel or nested, and problems and solutions are immutable.
"""

from __future__ import annotations

import functools
import math
import weakref
from collections.abc import Iterator
from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .geometry import QuadratureGrid, build_grid
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
# _TOLERANCE relative, or after _MAX_ITERATIONS steps; a solve converges only
# if the raw objective after the last two stages differs by at most
# _DRIFT_TOL relative.
_TOLERANCE = 1e-10
_MAX_ITERATIONS = 200
_DRIFT_TOL = 1e-8

_ARMIJO = 1e-4
_MAX_BACKTRACKS = 40

# the early stages run on a grid this many times coarser in each direction,
# unless that leaves fewer radii or angles than the minimum
_COARSENING = 4
_MIN_COARSE_SHAPE = (16, 32)


class InfeasibleConstraintsError(ValueError):
    """Constraint rows are inconsistent or linearly dependent."""


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
    ``constraint_matrix`` and ``constraint_targets`` stack the rows and the
    targets once, read-only.
    """

    basis: BasisSpec
    grid: QuadratureGrid
    p: float
    constraints: tuple[tuple[np.ndarray, complex], ...]

    def __post_init__(self):
        if not 0 < self.p < math.inf:
            raise ValueError(f"p must be positive and finite, got {self.p}")
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
        if np.linalg.matrix_rank(self.constraint_matrix) < len(cons):
            raise InfeasibleConstraintsError("constraint rows are linearly dependent")

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


class _SeparableBasis:
    """The basis, scaled to unit p-norm columns, as an operator on a polar grid.

    Column n of V at node (i, k) is r_i^n e^{i n theta_k} / c_n.  On the
    uniform angle grid every angular sum is an exact DFT, so grid values
    take one FFT per radius and a weighted Gram one real FFT of the weights
    plus O(n_r D^2) work; V itself is never formed.  Exponents equal modulo
    the angular count share a DFT bin, where the grid cannot tell them
    apart.  ``values`` acts on scaled coefficients (raw coefficients times
    ``col_norms``).

    An instance is read-only after construction and holds no scratch, so
    one instance per (grid, exponents, p) serves every solve, nested and
    concurrent ones included; the grid cache keeps it.  The scratch arrays
    come from the caller: ``values`` writes into a spectrum array and
    ``gram`` into a real-FFT array.
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
        top_scale = r_top**n / self.col_norms
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


class _Buffers:
    """One set of grid-sized scratch arrays for a descent on one grid.

    ``spectrum`` is zero outside ``filled_bins``, the DFT bins that the last
    basis to use it may have filled; ``spectrum_for`` clears those bins when
    another basis takes it over.
    """

    def __init__(self, shape: tuple[int, int]):
        size = shape[0] * shape[1]
        self.u, self.u_try, self.du = (np.empty(size, dtype=complex) for _ in range(3))
        self.base, self.base_try, self.terms, self.terms_try, self.omega = (
            np.empty(size) for _ in range(5)
        )
        self.rfft = np.empty((shape[0], shape[1] // 2 + 1), dtype=complex)
        self.spectrum = np.zeros(shape, dtype=complex)
        self.filled_bins = np.empty(0, dtype=int)

    def spectrum_for(self, basis: _SeparableBasis) -> np.ndarray:
        """The spectrum array, zero outside the occupied bins of ``basis``."""
        if self.filled_bins is not basis.occupied:
            self.spectrum[:, self.filled_bins] = 0.0
            self.filled_bins = basis.occupied
        return self.spectrum


class _GridCache:
    """The fixed parts of every solve on one grid, built on first use.

    It holds the grid's coarse rule (None when the grid is too small to
    coarsen), one ``_SeparableBasis`` per (exponents, p), the IRLS weight
    factor (p/2) w per p, and a pool of ``_Buffers``.  It keeps no reference
    to its own grid, so its entry in ``_GRID_CACHES`` lives as long as the
    grid does.
    """

    def __init__(self, grid: QuadratureGrid):
        self.coarse_grid = _coarse_grid(grid)
        self._shape = (grid.radial_count, grid.angular_count)
        self._bases: dict[tuple[tuple[int, ...], float], _SeparableBasis] = {}
        self._half_pw: dict[float, np.ndarray] = {}
        self._free: list[_Buffers] = []

    def basis(self, grid: QuadratureGrid, spec: BasisSpec, p: float) -> _SeparableBasis:
        """The separable basis of ``spec`` at p on ``grid``, this cache's grid."""
        key = (spec.exponents, p)
        basis = self._bases.get(key)
        if basis is None:
            basis = self._bases.setdefault(key, _SeparableBasis(grid, spec, p))
        return basis

    def half_pw(self, grid: QuadratureGrid, p: float) -> np.ndarray:
        """(p/2) w for the weights w of ``grid``, this cache's grid."""
        half_pw = self._half_pw.get(p)
        if half_pw is None:
            half_pw = (0.5 * p) * grid.weights
            half_pw.setflags(write=False)
            half_pw = self._half_pw.setdefault(p, half_pw)
        return half_pw

    @contextmanager
    def lend(self) -> Iterator[_Buffers]:
        """A buffer set that no other solve holds until the block exits."""
        try:
            buffers = self._free.pop()
        except IndexError:
            buffers = _Buffers(self._shape)
        try:
            yield buffers
        finally:
            self._free.append(buffers)


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
    basis = _problem_basis(problem)
    return basis.values(np.asarray(coefficients, dtype=complex) * basis.col_norms)


def _problem_basis(problem: ExtremalProblem) -> _SeparableBasis:
    return _grid_cache(problem.grid).basis(problem.grid, problem.basis, problem.p)


# the LAPACK Cholesky factor and solve behind scipy.linalg.cho_factor and
# cho_solve, called directly: the wrappers cost several times the work at the
# small D of a reduced system; weighted_solve keeps their finite checks
_POTRF, _POTRS = scipy.linalg.get_lapack_funcs(("potrf", "potrs"), dtype=complex)


class _Workspace:
    """Per-solve state on one grid: separable basis, constraint elimination,
    grid buffers.

    The basis and the weight factor (p/2) w come from the grid's cache.  The
    grid-sized arrays of the descent are a buffer set lent by that cache for
    the solve and overwritten in place: the current values ``u`` with
    ``base`` = |u|^2 + eps and ``terms`` = base^(p/2), the same three at the
    line-search trial point, the step ``du``, the IRLS weights ``omega``,
    and the FFT scratch.  No other solve holds the set while this one does,
    which keeps ``minimize_pnorm`` reentrant.  ``grid`` is the problem's own
    grid or a coarser rule on the same domain.
    """

    def __init__(self, problem: ExtremalProblem, grid: QuadratureGrid, buffers: _Buffers):
        cache = _grid_cache(grid)
        self.w = grid.weights
        self.p = problem.p
        self.basis = cache.basis(grid, problem.basis, problem.p)
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

        self.u, self.u_try, self.du = buffers.u, buffers.u_try, buffers.du
        self.base, self.base_try = buffers.base, buffers.base_try
        self.terms, self.terms_try = buffers.terms, buffers.terms_try
        self.omega = buffers.omega
        self._rfft = buffers.rfft
        self._spectrum = buffers.spectrum_for(self.basis)
        self._half_pw = cache.half_pw(grid, self.p)

    def raw_from_t(self, t: np.ndarray) -> np.ndarray:
        return (self.a0 + self.N @ t) / self.col_norms

    def t_from_raw(self, a_raw: np.ndarray) -> np.ndarray:
        return self.N.conj().T @ (a_raw * self.col_norms - self.a0)

    def start(self, start: np.ndarray | None) -> np.ndarray:
        """t of the raw coefficients ``start`` projected onto the feasible
        slice, or without one the weighted least-squares point."""
        if start is None:
            return self.least_squares()[0]
        return self.t_from_raw(np.asarray(start, dtype=complex))

    def least_squares(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The weighted least-squares point t (the p = 2 minimizer), A, rhs."""
        A, rhs = self.reduced_system(self.w)
        return self.weighted_solve(A, rhs), A, rhs

    def reduced_system(self, omega: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """A = N^H G N and rhs = -N^H G a0 for the Gram G of weights omega.

        A t - rhs is M^H diag(omega) u(t), with M = V N the map from t to
        the grid values u(t) = V (a0 + N t).
        """
        G = self.basis.gram(omega, rfft_out=self._rfft)
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

    def load(self, t: np.ndarray) -> None:
        """Load the values of t into ``u``."""
        self.basis.values(self.a0 + self.N @ t, out=self.u, spectrum=self._spectrum)

    def set_point(self, t: np.ndarray, eps: float) -> float:
        """Load the values of t into ``u``; returns the smoothed objective."""
        self.load(t)
        return self.set_eps(eps)

    def set_step(self, delta: np.ndarray) -> None:
        """Load the values of the step N delta into ``du``."""
        self.basis.values(self.N @ delta, out=self.du, spectrum=self._spectrum)

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

    def raw_objective(self) -> float:
        """sum_i w_i |u_i|^p at ``u``, computed in the trial buffers."""
        power = _abs2(self.u, out=self.base_try, tmp=self.terms_try)
        power **= 0.5 * self.p
        return float(self.w @ power)

    def _smooth(self, u, eps, base, terms) -> float:
        _abs2(u, out=base, tmp=terms)
        base += eps
        np.power(base, 0.5 * self.p, out=terms)
        return float(self.w @ terms)


@contextmanager
def _workspace(problem: ExtremalProblem, grid: QuadratureGrid) -> Iterator[_Workspace]:
    """A workspace for ``problem`` on ``grid`` whose buffers go back to the
    grid's pool when the block exits."""
    with _grid_cache(grid).lend() as buffers:
        yield _Workspace(problem, grid, buffers)


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

    Returns (t, iterations, stagnated); ``ws`` holds the final point.
    """
    iterations = 0
    stagnated = False
    # For p > 2 the reweighted quadratic underestimates curvature by up to
    # p - 1 along the radial direction; relaxing the step to 2/p restores a
    # uniform (p - 2)/p contraction instead of a slow Armijo zigzag.
    alpha0 = 1.0 if ws.p <= 2.0 else 2.0 / ws.p
    for _ in range(_MAX_ITERATIONS):
        A, rhs = ws.reduced_system(ws.irls_weights())
        t_new = ws.weighted_solve(A, rhs)
        delta = t_new - t
        grad_t = A @ t - rhs
        descent = 2.0 * float(np.real(np.vdot(grad_t, delta)))
        if descent >= 0.0:
            stagnated = True  # at a stationary point up to rounding
            break
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
        iterations += 1
        if phi - phi_try <= _TOLERANCE * max(phi_try, 1e-300):
            stagnated = True
            break
        phi = phi_try
    return t, iterations, stagnated


def _coarse_grid(grid: QuadratureGrid) -> QuadratureGrid | None:
    """The quarter-resolution rule on the domain of ``grid``, or None if too small."""
    shape = (grid.radial_count // _COARSENING, grid.angular_count // _COARSENING)
    if shape[0] < _MIN_COARSE_SHAPE[0] or shape[1] < _MIN_COARSE_SHAPE[1]:
        return None
    return build_grid(grid.domain, *shape)


def _descend(ws: _Workspace, t, schedule):
    """Run the smoothing stages ``schedule`` from t on the grid of ``ws``.

    Returns (t, iterations, stagnated, raw): ``stagnated`` holds when every
    stage stagnated, and ``raw`` lists the raw objective after each stage
    that is among the last two of the whole schedule, the only values the
    drift test and the reported objective read.
    """
    tail = SMOOTHING_SCHEDULE[-2:]
    phi = ws.set_point(t, schedule[0])
    raw = []
    iterations = 0
    all_stagnated = True
    for i, eps in enumerate(schedule):
        if i > 0:
            # same iterate under the smaller eps, a lower smoothed objective
            phi = ws.set_eps(eps)
        t, iters, stagnated = _irls_stage(ws, t, phi, eps)
        iterations += iters
        all_stagnated = all_stagnated and stagnated
        if eps in tail:
            raw.append(ws.raw_objective())
    return t, iterations, all_stagnated, raw


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
    schedule = SMOOTHING_SCHEDULE
    coarse_iterations = coarse_fallbacks = 0
    with _workspace(problem, problem.grid) as ws:
        if start is None and ws.p == 2.0:
            # The least-squares start is the exact minimizer, and the p = 2
            # IRLS weights equal w under every eps, so A and rhs are final.
            t, A, rhs = ws.least_squares()
            ws.load(t)
            raw = [ws.raw_objective()]
            iterations, converged = 0, True
        else:
            coarse_grid = _grid_cache(problem.grid).coarse_grid
            if coarse_grid is None:
                t = ws.start(start)
            else:
                with _workspace(problem, coarse_grid) as cws:
                    t, coarse_iterations, _, _ = _descend(
                        cws, cws.start(start), schedule[:-2]
                    )
                    coarse_fallbacks = cws.cholesky_fallbacks
                    t = ws.t_from_raw(cws.raw_from_t(t))
                schedule = schedule[-2:]
            t, iterations, stagnated, raw = _descend(ws, t, schedule)
            iterations += coarse_iterations
            drift = abs(raw[-1] - raw[-2])
            settled = drift <= _DRIFT_TOL * max(raw[-1], 1e-300)
            converged = stagnated and settled
            # ws holds the final point under the last eps
            A, rhs = ws.reduced_system(ws.irls_weights())
        a_raw = ws.raw_from_t(t)
        feasibility = float(np.max(np.abs(ws.C_raw @ a_raw - ws.b)))
        stationarity = float(np.linalg.norm(2.0 * (A @ t - rhs)))
        fallbacks = ws.cholesky_fallbacks + coarse_fallbacks
    return Solution(
        coeffs=CoeffVector(problem.basis, a_raw),
        objective=raw[-1] ** (1.0 / problem.p),
        feasibility_residual=feasibility,
        stationarity_residual=stationarity,
        iterations=iterations,
        coarse_iterations=coarse_iterations,
        converged=converged,
        cholesky_fallbacks=fallbacks,
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
    if problem.p == 1.0:
        base_problem = problem
    else:
        base_problem = ExtremalProblem(
            problem.basis, problem.grid, 1.0, problem.constraints
        )
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
