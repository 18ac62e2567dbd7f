"""Minimize the quadrature p-norm of a truncated series over an affine slice.

The engine behind every extremal quantity in the package.  Complex linear
constraints are eliminated exactly (particular solution plus an orthonormal
null-space basis), so every iterate is feasible to rounding; the problem
takes that elimination once, from one SVD, and every grid of a solve shares
its coordinates t.  The non-smooth objective sum_i w_i |f(z_i)|^p is
replaced by sum_i w_i (|f(z_i)|^2 + eps)^(p/2) with eps driven down the
fixed ``SMOOTHING_SCHEDULE`` (from 1e-6 at p > 1, and below 1e-10 while the
duality gap asks for it).  Each stage iterates the iteratively
reweighted least-squares (IRLS) map with Anderson acceleration of depth
``_ANDERSON_DEPTH``: an iteration first tries the extrapolated candidate at
full step and keeps it only if it passes the Armijo test of the plain step,
and otherwise backtracks along the plain IRLS step.  So the smoothed
objective never rises within a grid: each accepted step lowers it, and so
does each smaller eps at a fixed iterate.  At p = 2 the weighted
least-squares start is the exact minimizer, so a p = 2 solve without a
given start returns it with no iterations, no grid level and no pass over
the grid: its system, its objective (the quadratic form a^H G a) and its
lower bound come from the Gram G of the grid weights, which each basis builds once (real,
since the weights are constant in the angle).

Basis columns are pre-scaled by their p-norms on the domain
(``BasisSpec.col_norms``); reported coefficients are raw monomial ones.

The grid is a tensor product of radii and a uniform angle rule, and column n
is r^n e^{i n theta}, so the basis is separable.  The solver therefore
never forms the nodes x D matrix: every angular sum is one BLAS product
against a small table of e^{i m theta_k}, built per basis from the exact
residue m k mod K.  Grid values are the radial powers times the
coefficients times the D x K table of the exponents, and the reweighted
Gram G_jl = sum_i r_i^(n_j + n_l) W_i(n_l - n_j) / (c_j c_l), with
W_i(m) = sum_k omega_ik e^{i m theta_k} on circle i, is the weights times
the K x (span + 1) table of the lags plus O(n_r D^2) work.  At the basis
sizes of the package (D <= 97) a solve on these products is faster than
one that takes an FFT per radius.

A problem whose constraint rows and targets are real, as every one-point
problem at a real point is, commutes with f -> conj(f(conj z)), and the
angles 2 pi k / K are closed under theta -> -theta.  For p >= 1 its smoothed
objective is strictly convex in t, so the minimizer is real, and a solve
without a given start runs both grid levels in real arithmetic: t, the
slice and the reduced system are real; |f| of real coefficients is even
in the angle, so only the K // 2 + 1 angles in [0, pi] are evaluated (the
table of the exponents on those angles, every angle with a mirror
weighted twice); and the Gram is a cosine sum of the weights, a product
against a real table of cosines.  Complex constraints, p < 1 and given
starts, whose minimizers need not be symmetric, keep the complex
arithmetic on all K angles.

Each line-search trial takes one power of |u|^2 + eps on the grid, and the
accepted trial keeps (|u|^2 + eps)^(p/2), so the next IRLS weights are w
times that over |u|^2 + eps.  Each grid level allocates its grid-sized
arrays once and overwrites them in place; an iteration allocates none.

The continuation runs on two grid levels (grid sequencing, or nested
iteration).  Every solve but that p = 2 return first runs its early
smoothing stages to completion on a quarter-resolution grid of the same
domain, starting from the given start projected onto the feasible slice, or
else from that grid's weighted least-squares solution; its t then carries
over unchanged to the requested grid.  The heavily smoothed stages are
over-resolved by the requested grid; the coarse stages only supply a start,
so the stop rule, the objective and ``converged`` are all taken on the
requested grid, and the coarse level takes no raw objective.  A solve whose
quarter grid would have fewer than 16 radii or 32 angles runs every stage
on the requested grid.

At p > 1 the smoothed problem is strictly convex, so the schedule starts at
1e-6: the coarse level runs 1e-6 and 1e-8 and the requested grid 1e-10,
after which the final iterate is certified by Hölder duality (Boyd and
Vandenberghe, *Convex Optimization*, ch. 5).  With M = V N the map from t
to grid values, any y with M^H diag(w) y = 0 bounds the grid minimum of
||u0 + M t||_p from below by L = Re <y, u>_w / ||y||_{q,w}, 1/p + 1/q = 1.
The certificate takes y = s u(x), with s = (|u|^2 + eps)^(p/2 - 1) at the
iterate and x the weighted least-squares point of those weights (the IRLS
target), which makes y orthogonal by construction; it costs one pass of
grid values and a few elementwise passes in the workspace's own arrays, and
reuses the last stage's solve when that stage stopped before a step.  The
solve converges when the relative gap (U - L) / U, U the attained
objective, is at most ``_GAP_TOL``; while it is above, the requested grid
lowers eps by 100, down to 1e-16.  A p = 2 return is its own IRLS target,
so its bound is the quadratic form of the cached Gram.  At p <= 1 there is
no certificate: the coarse level runs every stage of ``SMOOTHING_SCHEDULE``
but the last two, and the drift test compares the raw objective
sum_i w_i |f(z_i)|^p after those two on the requested grid.

Each level counts its own steps, solve fallbacks and Anderson steps, and
the solution reports their totals.  Multistart restarts split at the level
boundary: each runs its coarse level, and only the first restart of each
cluster of coarse end points (coefficient distance 1e-4) runs the requested
grid, so restarts that meet on the coarse grid are refined once.

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
# after _MAX_ITERATIONS steps.  A solve at p > 1 converges when its relative
# duality gap is at most _GAP_TOL; while it is above, the requested grid runs
# the _GAP_STAGES in turn.  A solve at p <= 1 converges only if the raw
# objective after the last two stages differs by at most _DRIFT_TOL relative.
_TOLERANCE = 1e-10
_ROUNDING = 1e-15
_MAX_ITERATIONS = 200
_GAP_TOL = 1e-10
_GAP_STAGES = (1e-12, 1e-14, 1e-16)
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
    n_max - n_min of the basis exponents, so no two exponents are equal
    modulo the angular count and the grid integrates |f|^2 exactly in the
    angle.
    ``constraints`` is a sequence of finite (row, target) pairs; the rows
    act on raw monomial coefficients, are linearly independent and fewer
    than the basis dimension.  ``constraint_matrix`` and ``constraint_targets``
    stack them once, read-only.  ``feasible_slice`` is (a0, N) from one SVD
    of the rows over ``basis.col_norms``, which also tests the rank: the
    slice is a0 + N t in scaled coefficients, N with orthonormal columns.
    When every row and target is real (``is_real``), as at a real point, the
    SVD is real and so are a0 and N; their complex span is the same slice.
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
        if not (C.imag.any() or b.imag.any()):
            C, b = C.real, b.real
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

    @property
    def is_real(self) -> bool:
        """Whether the constraint rows and targets, hence the slice, are real."""
        return not np.iscomplexobj(self.feasible_slice[1])

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

    ``objective`` is the attained ||f||_p on the grid, an upper bound U on
    the grid minimum m_p.  For p > 1, ``lower_bound`` is the Hölder lower
    bound L <= m_p of the final iterate's dual vector and ``duality_gap`` is
    (U - L) / U, which ``converged`` holds to ``_GAP_TOL``; so the grid's
    K_p = m_p^(-p) lies in [U^(-p), L^(-p)].  Rounding can leave the gap a
    few ulps below zero.  Both are None for p <= 1, where the problem is
    not strictly convex and ``converged`` rests on stagnation and the drift
    of the raw objective.  ``iterations`` counts the accepted steps on both
    grids and ``coarse_iterations`` the share taken on the
    quarter-resolution grid.
    ``solve_fallbacks`` counts the weighted least-squares solves, on either
    grid, whose matrix was singular to working precision and were solved by
    ``lstsq`` instead.  ``anderson_steps`` counts the accepted steps, on
    either grid, that took the Anderson candidate.
    """

    coeffs: CoeffVector
    objective: float
    feasibility_residual: float
    lower_bound: float | None
    duality_gap: float | None
    iterations: int
    coarse_iterations: int
    converged: bool
    solve_fallbacks: int
    anderson_steps: int


@functools.cache
def _twiddles(K: int) -> np.ndarray:
    """e^{2 pi i j / K} for j = 0 .. K - 1; shared between bases, hence
    read-only."""
    twiddles = np.exp(2j * math.pi * np.arange(K) / K)
    twiddles.setflags(write=False)
    return twiddles


class _SeparableBasis:
    """The basis, columns scaled by ``BasisSpec.col_norms``, as an operator
    on a polar grid.

    Column n of V at node (i, k) is r_i^n e^{i n theta_k} / c_n, so V is the
    radial factor ``radial`` (n_r x D) times an angular table of e^{i n
    theta_k}, and every angular sum is one BLAS product against a small
    table: grid values are ``radial`` times the coefficients times the
    D x K table, and a weighted Gram is the weights times a K x (span + 1)
    table of the lags n_l - n_j, followed by O(n_r D^2) work; V itself is
    never formed.  Each entry e^{i m theta_k} is read from the twiddles
    e^{2 pi i j / K} at the exact residue j = m k mod K, so exponents equal
    modulo the angular count get equal columns, where the grid cannot tell
    them apart.  ``values`` acts on scaled coefficients (raw coefficients
    times ``col_norms``).

    Real coefficients give values with u(r, -theta) = conj(u(r, theta)), so
    any function of |u| is even in the angle, and a real solve works on the
    K // 2 + 1 angles in [0, pi] alone: ``half_values`` takes the conjugate
    table on those angles, the grid sums weigh every angle with a mirror
    twice (``mirror_weights``; all but 0 and, for even K, pi), and
    ``cosine_gram`` takes the Gram of even weights, given on those angles
    at their own weight (``half_weights``), from a real table of the
    mirror-weighted cosines.  Each table is built on first use, so a real
    solve builds only the tables of the half angles.

    An instance is read-only apart from its tables and ``weight_gram``, the
    Gram under the grid weights, each built on first use and then kept, and
    it holds no scratch, so one instance per (grid, basis spec) serves every
    solve, nested and concurrent ones included; the grid cache keeps it.
    """

    def __init__(self, grid: QuadratureGrid, basis: BasisSpec):
        n = np.array(basis.exponents)
        col_norms = basis.col_norms
        radii = grid.radii
        n_r, K = grid.radial_count, grid.angular_count
        self.shape = (n_r, K)
        self._exponents = n
        self.half_weights = grid.weights.reshape(n_r, K)[:, : K // 2 + 1].ravel()
        # every angle in [0, pi] but 0 and, for even K, pi has a mirror
        self._mirrors = np.ones(K // 2 + 1)
        self._mirrors[1 : (K + 1) // 2] = 2.0
        self.mirror_weights = (self.half_weights.reshape(n_r, -1) * self._mirrors).ravel()
        self.radial = radii[:, None] ** n[None, :] / col_norms
        # A Gram entry depends on n_j + n_l through a radial power and on
        # the lag n_l - n_j through an angular frequency.  Powers are taken of
        # radii relative to the largest, which keeps them in floating-point
        # range.
        self._span = span = int(n[-1] - n[0])
        r_top = radii.max()
        sums = 2 * n[0] + np.arange(2 * span + 1)
        self._sum_powers = (radii[None, :] / r_top) ** sums[:, None]
        # Only lags 0..span are tabled; a Gram entry at a negative lag takes
        # the conjugate of its mirror, since the weights are real.
        lag = n[None, :] - n[:, None]
        self._sum_index = n[:, None] + n[None, :] - 2 * n[0]
        self._lag_index = np.abs(lag)
        self._lag_conj = lag < 0
        top_scale = r_top**n / col_norms
        self._top_scale = top_scale[:, None] * top_scale[None, :]
        for value in vars(self).values():
            if isinstance(value, np.ndarray):
                value.setflags(write=False)

    def _phases(self, m: np.ndarray, k: np.ndarray) -> np.ndarray:
        """e^{i m theta_k} for integer arrays m and k that broadcast, read-only."""
        K = self.shape[1]
        table = _twiddles(K)[(m * k) % K]
        table.setflags(write=False)
        return table

    @functools.cached_property
    def _values_table(self) -> np.ndarray:
        """E[j, k] = e^{i n_j theta_k} on all K angles."""
        return self._phases(self._exponents[:, None], np.arange(self.shape[1]))

    @functools.cached_property
    def _half_table(self) -> np.ndarray:
        """conj(E[j, k]) on the angles in [0, pi]."""
        return self._phases(-self._exponents[:, None], np.arange(self.shape[1] // 2 + 1))

    @functools.cached_property
    def _lag_table(self) -> np.ndarray:
        """e^{i m theta_k} at angle k and lag m = 0 .. span."""
        return self._phases(np.arange(self.shape[1])[:, None], np.arange(self._span + 1))

    @functools.cached_property
    def _cosine_table(self) -> np.ndarray:
        """The mirror count of angle k in [0, pi] times cos(m theta_k), lag m = 0 .. span."""
        half = np.arange(self.shape[1] // 2 + 1)[:, None]
        table = self._phases(half, np.arange(self._span + 1)).real * self._mirrors[:, None]
        table.setflags(write=False)
        return table

    def values(self, a: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        """Flat grid values of sum_j a_j z^{n_j} / c_j, written to ``out`` if given."""
        n_r, K = self.shape
        if out is None:
            out = np.empty(n_r * K, dtype=complex)
        # a real matrix times a complex one, as one real product on (re, im) pairs
        phased = np.asarray(a, dtype=complex)[:, None] * self._values_table
        np.matmul(self.radial, phased.view(float), out=out.view(float).reshape(n_r, 2 * K))
        return out

    def half_values(self, a: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        """For real ``a``, the conjugate grid values of ``values(a)`` on the
        angles in [0, pi], flat, radius by radius; |u| is all a real solve
        reads, so the conjugate is never taken."""
        if out is None:
            out = np.empty(self.half_weights.size, dtype=complex)
        phased = a[:, None] * self._half_table
        np.matmul(self.radial, phased.view(float), out=out.view(float).reshape(self.shape[0], -1))
        return out

    def gram(self, omega: np.ndarray) -> np.ndarray:
        """V^H diag(omega) V for real node weights omega."""
        # W[i, m] = sum_k omega_ik e^{i m theta_k} for lags m >= 0, and
        # H[s, m] = sum_i (r_i / r_top)^(2 n_0 + s) W[i, m]
        W = omega.reshape(self.shape) @ self._lag_table.view(float)
        H = (self._sum_powers @ W).view(complex)
        G = H[self._sum_index, self._lag_index]
        np.conjugate(G, out=G, where=self._lag_conj)
        G *= self._top_scale
        return G

    def cosine_gram(self, omega: np.ndarray) -> np.ndarray:
        """V^H diag(omega) V, real, for real node weights omega even in the
        angle, given flat on the angles in [0, pi] like ``half_weights``."""
        # W[i, m] = sum_k omega_ik cos(m theta_k) over all K angles
        W = omega.reshape(self.shape[0], -1) @ self._cosine_table
        G = (self._sum_powers @ W)[self._sum_index, self._lag_index]
        G *= self._top_scale
        return G

    @functools.cached_property
    def weight_gram(self) -> np.ndarray:
        """V^H diag(w) V for the grid weights w, read-only.  They are
        constant in the angle, so it is real."""
        G = self.cosine_gram(self.half_weights)
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


def _reduce(G: np.ndarray, a0: np.ndarray, N: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """A = N^H G N and rhs = -N^H G a0: the quadratic form of the Gram G
    on the slice a0 + N t is t^H A t - 2 Re(t^H rhs) plus a constant."""
    Nh = N.conj().T
    return Nh @ G @ N, -(Nh @ (G @ a0))


def _weighted_solve(A: np.ndarray, rhs: np.ndarray) -> tuple[np.ndarray, int]:
    """Solve A x = rhs by ``np.linalg.solve``; returns x and 1 if A was
    singular to working precision and least squares solved instead, else 0.

    NaN or inf in A or rhs raises ``ValueError``.
    """
    if not (np.isfinite(A).all() and np.isfinite(rhs).all()):
        raise ValueError("array must not contain infs or NaNs")
    try:
        return np.linalg.solve(A, rhs), 0
    except np.linalg.LinAlgError:
        return np.linalg.lstsq(A, rhs, rcond=None)[0], 1


def _carve(layout: dict[str, tuple[tuple[int, ...], type]]) -> dict[str, np.ndarray]:
    """One array per name of ``layout``, which maps it to (shape, dtype), all
    views of one float block; complex arrays come first, so that each is
    aligned to its itemsize."""
    names = sorted(layout, key=lambda name: layout[name][1] is not complex)
    counts = [math.prod(layout[name][0]) * (2 if layout[name][1] is complex else 1) for name in names]
    block = np.empty(sum(counts))
    arrays, start = {}, 0
    for name, count in zip(names, counts):
        shape, dtype = layout[name]
        arrays[name] = block[start : start + count].view(dtype).reshape(shape)
        start += count
    return arrays


class _Workspace:
    """Per-solve state on one grid level: the separable basis, the
    problem's feasible slice, grid arrays and the level's counts.

    The grid is the problem's own grid or a coarser rule on the same domain.
    The basis comes from the grid's cache and the slice (a0, N) from the
    problem, so every level of a solve works in the same coordinates t.
    ``dtype`` is that of t and of the reduced system: float for a ``real``
    workspace, which needs a real slice and keeps t real, and complex
    otherwise.  A real workspace holds its grid values on the angles in
    [0, pi] (``_SeparableBasis.half_values``), sums them under ``w`` =
    ``mirror_weights`` and takes its Gram by ``cosine_gram``, so it works on
    half the nodes and allocates about half the memory.

    The workspace allocates the grid-sized arrays of the descent and
    overwrites them in place: the current values ``u`` with ``base`` =
    |u|^2 + eps and ``terms`` = base^(p/2), the same three at the
    line-search trial point, the step ``du`` and the real IRLS weights
    ``omega``.  No other solve sees them, which keeps ``minimize_pnorm``
    reentrant.  They are views of one block because glibc keeps a freed
    block of up to 32 MiB for the next workspace, while it hands the pages
    of eight separate arrays back to the system, and every solve on the
    default grid would fault their pages in anew.  ``iterations`` counts
    the accepted steps on the level, ``anderson_steps`` those that took the
    Anderson candidate and ``solve_fallbacks`` the solves that fell back to
    least squares.
    """

    def __init__(self, problem: ExtremalProblem, grid: QuadratureGrid, real: bool = False):
        self.grid = grid
        self.p = problem.p
        self.basis = basis = _grid_cache(grid).basis(grid, problem.basis)
        self.dtype = float if real else complex
        # a real slice is made complex once here, not in every product
        self.a0, self.N = (np.asarray(part, self.dtype) for part in problem.feasible_slice)
        self.iterations = 0
        self.solve_fallbacks = 0
        self.anderson_steps = 0
        self._target = None  # the IRLS target of ``u`` under the current eps

        if real:
            self.w, self._omega_weights = basis.mirror_weights, basis.half_weights
            self._values, self._gram = basis.half_values, basis.cosine_gram
        else:
            self.w = self._omega_weights = grid.weights
            self._values, self._gram = basis.values, basis.gram
        size = self.w.size
        layout = dict.fromkeys(("u", "u_try", "du"), ((size,), complex))
        floats = ("base", "base_try", "terms", "terms_try", "omega")
        layout |= dict.fromkeys(floats, ((size,), float))
        vars(self).update(_carve(layout))

    def least_squares(self) -> np.ndarray:
        """The weighted least-squares point t, the p = 2 minimizer."""
        return self.weighted_solve(*_reduce(self.basis.weight_gram, self.a0, self.N))

    def reduced_system(self, omega: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """A = N^H G N and rhs = -N^H G a0 for the Gram G of weights omega.

        A t - rhs is M^H diag(omega) u(t), with M = V N the map from t to
        the grid values u(t) = V (a0 + N t).
        """
        return _reduce(self._gram(omega), self.a0, self.N)

    def weighted_solve(self, A: np.ndarray, rhs: np.ndarray) -> np.ndarray:
        """Solve A x = rhs by ``_weighted_solve``; count each fall back."""
        x, fallbacks = _weighted_solve(A, rhs)
        self.solve_fallbacks += fallbacks
        return x

    def irls_system(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """A, rhs of the IRLS weights at ``u`` and the IRLS target A^-1 rhs,
        the weighted least-squares point of those weights.  The workspace
        keeps the target for ``certificate`` until ``u`` or eps changes."""
        A, rhs = self.reduced_system(self.irls_weights())
        self._target = self.weighted_solve(A, rhs)
        return A, rhs, self._target

    def certificate(self, t: np.ndarray) -> tuple[float, float]:
        """The raw objective U^p = sum_i w_i |u_i|^p at t, whose values
        ``u`` hold their smoothing terms under the last eps, and a lower
        bound L on the grid minimum of ||u||_p over the slice.

        With s = (|u|^2 + eps)^(p/2 - 1) and x the IRLS target of t, the
        dual vector y = s u(x) has M^H diag(w) y = A x - rhs = 0, so
        <y, u(t')>_w = <y, u>_w at every t', and Hölder's inequality with
        1/p + 1/q = 1 gives L = Re <y, u>_w / ||y||_{q,w}.  It reuses the
        target of the last stage when that stage stopped before a step, takes
        one grid values pass into ``du`` and works in the trial arrays.
        """
        if self._target is None:
            self.irls_system()
        raw = self.raw_objective()
        self.set_step(self._target - t)
        y = np.add(self.u, self.du, out=self.u_try)
        y *= np.divide(self.terms, self.base, out=self.base_try)
        inner = np.multiply(y.real, self.u.real, out=self.terms_try)
        inner += np.multiply(y.imag, self.u.imag, out=self.base_try)
        inner = float(self.w @ inner)
        q = self.p / (self.p - 1.0)
        power = _abs2(y, out=self.base_try, tmp=self.terms_try)
        power **= 0.5 * q
        return raw, inner / float(self.w @ power) ** (1.0 / q)

    def set_point(self, t: np.ndarray, eps: float) -> float:
        """Load the values of t into ``u``; returns the smoothed objective."""
        self._values(self.a0 + self.N @ t, out=self.u)
        return self.set_eps(eps)

    def set_step(self, delta: np.ndarray) -> None:
        """Load the values of the step N delta into ``du``."""
        self._values(self.N @ delta, out=self.du)

    def set_eps(self, eps: float) -> float:
        """Fill ``base`` and ``terms`` of ``u`` under eps; returns w . terms."""
        self._target = None
        return self._smooth(self.u, eps, self.base, self.terms)

    def trial(self, alpha: float, eps: float) -> float:
        """Smoothed objective at u + alpha du, kept in the trial arrays."""
        np.multiply(self.du, alpha, out=self.u_try)
        self.u_try += self.u
        return self._smooth(self.u_try, eps, self.base_try, self.terms_try)

    def accept(self) -> None:
        """Make the trial point current."""
        self._target = None
        self.u, self.u_try = self.u_try, self.u
        self.base, self.base_try = self.base_try, self.base
        self.terms, self.terms_try = self.terms_try, self.terms

    def irls_weights(self) -> np.ndarray:
        """omega = w base^(p/2 - 1) at ``u``, as w terms / base, with each
        node at its own weight; the gradient in t of the smoothed objective
        is p (A t - rhs) for these weights."""
        np.divide(self.terms, self.base, out=self.omega)
        self.omega *= self._omega_weights
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
        A, rhs, target = ws.irls_system()
        delta = target - t
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
        t = ws.least_squares()
    phi = ws.set_point(t, schedule[0])
    for i, eps in enumerate(schedule):
        if i > 0:
            # same iterate under the smaller eps, a lower smoothed objective
            phi = ws.set_eps(eps)
        t, stagnated = _irls_stage(ws, t, phi, eps)
        yield t, stagnated


def _schedule(problem: ExtremalProblem) -> tuple[tuple[float, ...], tuple[float, ...]]:
    """The eps stages of the coarse level and of the requested grid.

    At p > 1 the smoothed problem is strictly convex and needs no heavy
    smoothing: the coarse level runs 1e-6 and 1e-8 and the requested grid
    1e-10, and the duality gap decides whether it runs ``_GAP_STAGES``.  At
    p <= 1 the coarse level runs every stage of ``SMOOTHING_SCHEDULE`` but
    the last two, which the requested grid runs for the drift test.  Without
    a coarse grid the requested grid runs both parts.
    """
    if problem.p > 1.0:
        coarse, requested = SMOOTHING_SCHEDULE[2:-1], SMOOTHING_SCHEDULE[-1:]
    else:
        coarse, requested = SMOOTHING_SCHEDULE[:-2], SMOOTHING_SCHEDULE[-2:]
    if _grid_cache(problem.grid).coarse_grid is None:
        return (), coarse + requested
    return coarse, requested


def minimize_pnorm(problem: ExtremalProblem, *, start: np.ndarray | None = None) -> Solution:
    """Run the continuation descent; returns the final iterate with diagnostics.

    ``start`` is an optional raw coefficient vector; it is projected onto the
    feasible slice, so it need not satisfy the constraints exactly.  Without
    it the descent starts from the weighted least-squares solution, which is
    the exact minimizer for p = 2 and is then returned with no iterations.
    Every other solve runs its early stages on a coarser grid when the
    problem's grid allows (see the module docstring), both levels in real
    arithmetic on half the angles when the problem is real, p >= 1 and no
    start is given.  The stop rule is fixed by the module constants.  At
    p > 1, ``converged`` holds when the relative duality gap of the final
    iterate is at most ``_GAP_TOL``; the requested grid runs the 1e-10
    stage and, while the gap is above that, each of ``_GAP_STAGES``.  At
    p <= 1 it holds when every stage on the requested grid stagnated and
    the raw objective drifted by at most ``_DRIFT_TOL`` relative over the
    last two stages.  Non-convergence is reported through ``converged``,
    never silently.
    """
    if start is None and problem.p == 2.0:
        # The least-squares start is the exact minimizer, and the p = 2
        # IRLS weights equal w under every eps, so A and rhs are final and
        # t is its own IRLS target: the dual vector is u itself.  The
        # objective and the bound are quadratic forms of the cached Gram of
        # w, so no grid level is built and no grid pass runs.
        a0, N = problem.feasible_slice
        G = _grid_cache(problem.grid).basis(problem.grid, problem.basis).weight_gram
        A, rhs = _reduce(G, a0, N)
        t, fallbacks = _weighted_solve(A, rhs)
        a = a0 + N @ t
        raw = float(np.vdot(a, G @ a).real)
        lower = raw / math.sqrt(raw)
        return _solution(problem, t, raw, lower, True, (0, 0, 0), (0, fallbacks, 0))
    # A real problem is symmetric under conjugation, so at p >= 1 its
    # smoothed objective, strictly convex in t, has a real minimizer, and
    # IRLS from the real least-squares point stays real.  Below 1 and from
    # a given start the descent may leave the real slice.
    real = start is None and problem.p >= 1.0 and problem.is_real
    t = None if start is None else problem.t_from_raw(start)
    return _requested_level(problem, *_coarse_level(problem, t, real), real)


def _coarse_level(problem: ExtremalProblem, t, real: bool):
    """The coarse stages of ``_schedule`` on the quarter grid from t (None:
    its least-squares point); returns the final t and the level's steps,
    solve fallbacks and Anderson steps, or t and zeros if the grid is
    too small to coarsen.  The workspace is not kept."""
    coarse_grid = _grid_cache(problem.grid).coarse_grid
    if coarse_grid is None:
        return t, (0, 0, 0)
    ws = _Workspace(problem, coarse_grid, real)
    for t, _ in _descend(ws, t, _schedule(problem)[0]):
        pass
    return t, (ws.iterations, ws.solve_fallbacks, ws.anderson_steps)


def _requested_level(problem: ExtremalProblem, t, coarse, real: bool) -> Solution:
    """The requested grid's stages of ``_schedule`` from the end point t of
    ``_coarse_level`` and its counts ``coarse``, then the duality gap
    (p > 1) or the drift test (p <= 1)."""
    schedule = _schedule(problem)[1]
    ws = _Workspace(problem, problem.grid, real)
    if problem.p > 1.0:
        # certify after the last stage, and after each gap stage it needs
        for i, (t, _) in enumerate(_descend(ws, t, schedule + _GAP_STAGES)):
            if i >= len(schedule) - 1:
                raw, lower = ws.certificate(t)
                converged = _relative_gap(raw, lower, problem.p) <= _GAP_TOL
                if converged:
                    break
    else:
        # the drift test reads the raw objective after the last two stages
        raws, stagnated, lower = [], True, None
        for i, (t, stage_stagnated) in enumerate(_descend(ws, t, schedule)):
            stagnated = stagnated and stage_stagnated
            if i >= len(schedule) - 2:
                raws.append(ws.raw_objective())
        raw = raws[-1]
        settled = abs(raws[-1] - raws[-2]) <= _DRIFT_TOL * max(raw, 1e-300)
        converged = stagnated and settled
    fine = (ws.iterations, ws.solve_fallbacks, ws.anderson_steps)
    return _solution(problem, t, raw, lower, converged, coarse, fine)


def _solution(problem, t, raw: float, lower, converged: bool, coarse, fine) -> Solution:
    """The ``Solution`` at t of raw objective ``raw`` and lower bound
    ``lower`` (None at p <= 1); ``coarse`` and ``fine`` are the counts of
    the two levels."""
    a_raw = problem.raw_from_t(t)
    residual = problem.constraint_matrix @ a_raw - problem.constraint_targets
    return Solution(
        coeffs=CoeffVector(problem.basis, a_raw),
        objective=raw ** (1.0 / problem.p),
        feasibility_residual=float(np.max(np.abs(residual))),
        lower_bound=lower,
        duality_gap=None if lower is None else _relative_gap(raw, lower, problem.p),
        iterations=coarse[0] + fine[0],
        coarse_iterations=coarse[0],
        converged=converged,
        solve_fallbacks=coarse[1] + fine[1],
        anderson_steps=coarse[2] + fine[2],
    )


def _relative_gap(raw: float, lower: float, p: float) -> float:
    """(U - L) / U for the objective U = raw^(1/p) and the lower bound L."""
    upper = raw ** (1.0 / p)
    return (upper - lower) / upper


def _coefficient_distance(a: np.ndarray, b: np.ndarray) -> float:
    scale = max(1.0, float(np.linalg.norm(a)), float(np.linalg.norm(b)))
    return float(np.linalg.norm(a - b)) / scale


def _distinct(coefficients) -> list[int]:
    """Indices of ``coefficients`` farther than 1e-4 in coefficient distance
    from every earlier kept one, in order."""
    kept: list[int] = []
    for i, a in enumerate(coefficients):
        if all(_coefficient_distance(a, coefficients[j]) > 1e-4 for j in kept):
            kept.append(i)
    return kept


def multistart_minimize(problem: ExtremalProblem, *, restarts: int, seed: int) -> list[Solution]:
    """Seeded restarts for 0 < p <= 1, where the problem may be nonconvex
    (p < 1) or its minimizer not unique (p = 1).

    Descents start from the p = 1 solution of the same constraints and, for
    k = 1 .. restarts - 1, from perturbations of it drawn by the generator
    keyed [seed, k].  Every restart runs the coarse level of
    ``minimize_pnorm``; only the first of each cluster of coarse end points
    (coefficient distance 1e-4; every restart on a grid too small to
    coarsen) runs the requested grid, and reports its own coarse steps.
    Converged solutions are deduplicated at the same distance and returned
    sorted by objective; distinct survivors are all reported, uniqueness is
    never asserted.
    """
    if restarts < 1 or seed < 0:
        raise ValueError(f"need restarts >= 1 and seed >= 0, got {restarts} and {seed}")
    base_problem = problem if problem.p == 1.0 else replace(problem, p=1.0)
    base_coeffs = minimize_pnorm(base_problem).coeffs.coefficients

    starts = [base_coeffs]
    scale = 0.5 * max(1.0, float(np.linalg.norm(base_coeffs)))
    dim = base_coeffs.size
    for k in range(1, restarts):
        rng = np.random.default_rng([seed, k])
        noise = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
        starts.append(base_coeffs + scale * noise / math.sqrt(dim))
    ends = [_coarse_level(problem, problem.t_from_raw(start), False) for start in starts]
    if _grid_cache(problem.grid).coarse_grid is not None:
        ends = [ends[i] for i in _distinct([problem.raw_from_t(t) for t, _ in ends])]
    runs = [_requested_level(problem, t, coarse, False) for t, coarse in ends]

    converged = sorted((s for s in runs if s.converged), key=lambda s: s.objective)
    return [converged[i] for i in _distinct([s.coeffs.coefficients for s in converged])]


def solution_record(solution: Solution) -> dict:
    """JSON-ready diagnostics for one run: every ``Solution`` field but
    ``coeffs``, in field order."""
    return {
        f.name: getattr(solution, f.name) for f in fields(Solution) if f.name != "coeffs"
    }
