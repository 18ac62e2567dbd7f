"""Minimize the quadrature p-norm of a truncated series over an affine slice.

The engine behind every extremal quantity in the package.  Real linear
constraints, those of a problem posed at a real point, are eliminated
exactly (particular solution plus an orthonormal null-space basis), so
every iterate is feasible to rounding; the problem
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
least-squares start is the exact minimizer, so a p = 2 solve returns it
with no iterations, no grid level and no pass over the grid: its system,
its objective (the quadratic form a^H G a) and its lower bound come from
the Gram G of the grid weights, built once per grid and basis spec (real,
since the weights are constant in the angle).

Basis columns are pre-scaled by their p-norms on the domain
(``BasisSpec.col_norms``); reported coefficients are raw monomial ones.

The grid is a tensor product of radii and a uniform angle rule, and column n
is r^n e^{i n theta}, so the basis is separable.  The solver therefore
never forms the nodes x D matrix: every angular sum is one BLAS product
against a small table of e^{i m theta_k}, built per exponent set from the
exact residue m k mod K.  Grid values are the radial powers times the
coefficients times the D x K table of the exponents, and the reweighted
Gram G_jl = sum_i r_i^(n_j + n_l) W_i(n_l - n_j) / (c_j c_l), with
W_i(m) = sum_k omega_ik e^{i m theta_k} on circle i, is the weights times
the K x (span + 1) table of the lags plus O(n_r D^2) work.  At the basis
sizes of the package (D <= 97) a solve on these products is faster than
one that takes an FFT per radius.

Every problem is posed at a real point, so its constraint rows and targets
are real (a problem at a complex point is posed at its modulus and its
solution rotated, as ``kernel.Setup.solve`` does).  Such a problem commutes
with f -> conj(f(conj z)), and the angles 2 pi k / K are closed under
theta -> -theta, so the IRLS map commutes with conjugation and a descent
from the real least-squares point stays real.  The arithmetic of a
descent therefore follows its start.  From the least-squares point, or
from a real t, every grid level runs in real arithmetic at every p: t, the
slice and the reduced system are real; |f| of real coefficients is even
in the angle, so only the K // 2 + 1 angles in [0, pi] are evaluated (the
table of the exponents on those angles, under one weight array in which
every angle with a mirror is weighted twice); and the Gram is a cosine sum
of those weights, a product against a real table of cosines.  Only a
complex t, the start of a multistart restart, which starts off the real
slice and whose minimizer need not be symmetric, takes complex arithmetic
on all K angles.

Each line-search trial takes one power of |u|^2 + eps on the grid, and the
accepted trial keeps (|u|^2 + eps)^(p/2), so the next IRLS weights are w
times that over |u|^2 + eps.  Each grid level allocates its grid-sized
arrays once and overwrites them in place; an iteration allocates none.

Every solve but that p = 2 return runs one descent loop (``_descents``) over
one list of grid levels (``_levels``; grid sequencing, or nested
iteration): a quarter-resolution grid of the same domain, which runs the
early smoothing stages to completion, then the requested grid, or the
requested grid alone when the quarter grid would have fewer than 16 radii
or 32 angles.  The first level starts from its grid's weighted
least-squares solution, or for a multistart restart from its start
projected onto the feasible slice, and each level's end t carries over
unchanged to the next.  The heavily smoothed stages are over-resolved by
the requested grid; the early levels only supply a start, so the stop
rule, the objective and ``converged`` are all taken on the last level,
and no early level takes a raw objective.

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

``_descents`` takes a list of starts, one for a cold solve and one per
restart for ``multistart_minimize``.  Every start runs every level but the
last; when an early level ran, only the first start of each cluster of
their end points (coefficient distance 1e-4) runs the last level, so
restarts that meet on the coarse grid are refined once.  Each level counts
its own steps, solve fallbacks and Anderson steps, and the solution reports
their sums, with ``coarse_iterations`` those of every level but the last.

What every solve on a grid shares is read-only, built on first use and kept
in the cache of the grid's rule (``_grid_cache``), which holds no grid a
caller passed, since every grid is ``build_grid`` of its rule: the coarse
rule, the one weight array of a real solve, the tables of each exponent set
that no p changes (angular tables, radial powers, Gram index arrays and the
Gram sums of the grid weights), and the column scaling of each basis spec,
the only part of the basis that depends on p.  One values pass
(``_values``) and one Gram step (the Gram sums times the scaling's Gram
scale) serve both arithmetics; a grid level's workspace picks the table,
the sums and the weights of its arithmetic.  What the process keeps is
bounded by ``_RULES``, least recently used out first: the caches of
``2 * _RULES`` rules, and the exponent sets and basis specs each rule's
cache keeps.  The writable arrays belong to the solve, so no two solves
share any.  A single descent is sequential; restarts and independent
problems may run in parallel or nested, and problems and solutions are
immutable.
"""

from __future__ import annotations

import functools
import math
from collections import Counter
from collections.abc import Iterator
from dataclasses import dataclass, field, fields

import numpy as np

from .geometry import Domain, QuadratureGrid, _radial_rule, _roots_of_unity, build_grid, format_domain
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

# The bound on what the process keeps between calls: ``_rule_caches`` keeps
# the caches of the 2 * _RULES rules last used (a solve's rule and its coarse
# rule count as two), and each rule's cache the tables of the _RULES exponent
# sets and the column scalings of the _RULES basis specs last used on it;
# anything else is rebuilt when it comes back.  The benchmark's workloads use
# at most three rules (the disk, the annulus and the punctured disk on the
# default grid; six with their coarse rules), two exponent sets per rule (the
# degree-16 and degree-8 analysis bases) and four p per exponent set of a
# kernel round, so these bounds keep all they reuse.  The arrays of the rule
# caches then come to about 2.0 MB (kernel) and 0.5 MB (analysis), whatever
# the number of calls, p values and points.
_RULES = 4


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
    """min ||f||_p over coefficients subject to real linear constraints.

    The basis is admissible at this ``p`` (``basis.p == p``).  The grid lies
    on the basis's domain and has more angles than the span n_max - n_min
    of the basis exponents, so no two exponents are equal modulo the
    angular count and the grid integrates |f|^2 exactly in the angle.
    ``constraints`` is a sequence of finite, real (row, target) pairs, kept
    as complex values with zero imaginary parts: a problem is posed at a
    real point, and one at a complex point z is posed at |z| and its
    solution rotated.  The rows act on raw monomial coefficients, are
    linearly independent and fewer than the basis dimension.
    ``constraint_matrix`` and ``constraint_targets`` stack them once,
    read-only.  ``feasible_slice`` is (a0, N), real, from one SVD of the
    real parts of the rows over ``basis.col_norms``, which also tests the
    rank: the slice is a0 + N t in scaled coefficients, N with orthonormal
    columns; its complex span is the slice of the restarts.
    """

    basis: BasisSpec
    grid: QuadratureGrid
    p: float
    constraints: tuple[tuple[np.ndarray, complex], ...]
    feasible_slice: tuple[np.ndarray, np.ndarray] = field(init=False, repr=False)

    def __post_init__(self):
        if not 0 < self.p < math.inf:
            raise ValueError(f"p must be positive and finite, got {self.p}")
        if self.basis.p != self.p:
            raise ValueError(f"a basis at p={self.basis.p} for a problem at p={self.p}")
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
        if C.imag.any() or b.imag.any():
            raise ValueError("constraint rows and targets must be real: pose at |z| and rotate")
        U, sigma, Vh = np.linalg.svd(C.real / self.basis.col_norms)
        if sigma[-1] <= sigma[0] * dim * np.finfo(float).eps:
            raise InfeasibleConstraintsError("constraint rows are linearly dependent")
        a0 = Vh[: len(cons)].T @ ((U.T @ b.real) / sigma)
        N = Vh[len(cons) :].T
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
        return N.T @ (np.asarray(a_raw, dtype=complex) * self.basis.col_norms - a0)


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
    of the raw objective.  ``iterations`` counts the accepted steps on every
    grid level and ``coarse_iterations`` the share taken on every level but
    the last, the quarter-resolution grid.
    ``solve_fallbacks`` counts the weighted least-squares solves, on any
    level, whose matrix was singular to working precision and were solved by
    ``lstsq`` instead.  ``anderson_steps`` counts the accepted steps, on
    any level, that took the Anderson candidate.
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


class _BasisTables:
    """What the grid passes of a solve need on one grid that no p changes,
    for one exponent set: the angular tables, the radial powers r_i^n and
    r_top^n, the powers and index arrays of the Gram, and the Gram sums
    under the grid weights, given on the angles in [0, pi] as
    ``mirror_weights``.

    Each angular table e^{i m theta_k} is read from the roots of unity
    e^{2 pi i j / K} at the exact residue j = m k mod K, so exponents equal
    modulo the angular count get equal columns, where the grid cannot tell
    them apart.  The tables come in pairs, one per arithmetic: the exponents
    on all K angles or, conjugated, on the angles in [0, pi], and the lags
    as phases on all K angles or as cosines on [0, pi].
    They and ``weight_sums`` are built on first use and then kept, so a
    real solve builds only the tables of the half angles.  Everything is
    read-only and no method keeps scratch, so one instance serves every
    basis spec with these exponents on the grid, at every p, nested and
    concurrent solves included; the grid cache keeps it.
    """

    def __init__(self, radii, angular_count, mirror_weights, exponents):
        n = np.array(exponents)
        self.shape = (radii.size, angular_count)
        self.exponents = n
        self.mirror_weights = mirror_weights
        self.radial_powers = radii[:, None] ** n[None, :]
        # A Gram entry depends on n_j + n_l through a radial power and on
        # the lag n_l - n_j through an angular frequency.  Powers are taken of
        # radii relative to the largest, which keeps them in floating-point
        # range.
        self.span = span = int(n[-1] - n[0])
        r_top = radii.max()
        self.top_powers = r_top**n
        sums = 2 * n[0] + np.arange(2 * span + 1)
        self.sum_powers = (radii[None, :] / r_top) ** sums[:, None]
        # Only lags 0..span are tabled; a Gram entry at a negative lag takes
        # the conjugate of its mirror, since the weights are real.
        lag = n[None, :] - n[:, None]
        self.sum_index = n[:, None] + n[None, :] - 2 * n[0]
        self.lag_index = np.abs(lag)
        self.lag_conj = lag < 0
        for value in vars(self).values():
            if isinstance(value, np.ndarray):
                value.setflags(write=False)

    def _phases(self, m: np.ndarray, k: np.ndarray) -> np.ndarray:
        """e^{i m theta_k} for integer arrays m and k that broadcast, read-only."""
        K = self.shape[1]
        table = _roots_of_unity(K)[(m * k) % K]
        table.setflags(write=False)
        return table

    @functools.cached_property
    def values_table(self) -> np.ndarray:
        """E[j, k] = e^{i n_j theta_k} on all K angles."""
        return self._phases(self.exponents[:, None], np.arange(self.shape[1]))

    @functools.cached_property
    def half_table(self) -> np.ndarray:
        """conj(E[j, k]) on the angles in [0, pi]."""
        return self._phases(-self.exponents[:, None], np.arange(self.shape[1] // 2 + 1))

    @functools.cached_property
    def _lag_table(self) -> np.ndarray:
        """e^{i m theta_k} at angle k and lag m = 0 .. span."""
        return self._phases(np.arange(self.shape[1])[:, None], np.arange(self.span + 1))

    @functools.cached_property
    def _cosine_table(self) -> np.ndarray:
        """cos(m theta_k) at angle k in [0, pi] and lag m = 0 .. span."""
        half = np.arange(self.shape[1] // 2 + 1)[:, None]
        # a contiguous copy of the real parts: a strided operand slows every product
        table = self._phases(half, np.arange(self.span + 1)).real.copy()
        table.setflags(write=False)
        return table

    def lag_sums(self, omega: np.ndarray) -> np.ndarray:
        """sum_i,k omega_ik r_i^(n_j + n_l) e^{i (n_l - n_j) theta_k} / r_top^(n_j + n_l)."""
        # W[i, m] = sum_k omega_ik e^{i m theta_k} for lags m >= 0, and
        # H[s, m] = sum_i (r_i / r_top)^(2 n_0 + s) W[i, m]
        W = omega.reshape(self.shape) @ self._lag_table.view(float)
        H = (self.sum_powers @ W).view(complex)
        G = H[self.sum_index, self.lag_index]
        np.conjugate(G, out=G, where=self.lag_conj)
        return G

    def cosine_sums(self, omega: np.ndarray) -> np.ndarray:
        """``lag_sums``, real, for omega even in the angle, given on the
        angles in [0, pi] like ``mirror_weights``: each angle but 0 and,
        for an even count, pi weighted twice, once for its mirror."""
        # W[i, m] = sum_k omega_ik cos(m theta_k) over all K angles
        W = omega.reshape(self.shape[0], -1) @ self._cosine_table
        return (self.sum_powers @ W)[self.sum_index, self.lag_index]

    @functools.cached_property
    def weight_sums(self) -> np.ndarray:
        """``cosine_sums`` of the grid weights, read-only."""
        G = self.cosine_sums(self.mirror_weights)
        G.setflags(write=False)
        return G

    def scaling(self, col_norms: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The column scaling (radial, gram_scale, weight_gram) of a basis
        spec with these exponents and column norms c_n, read-only: the only
        part of the basis that depends on p.

        Column n of the basis V at node (i, k) is r_i^n e^{i n theta_k} / c_n,
        so V is ``radial`` = r_i^n / c_n (n_r x D) times an angular table,
        and V itself is never formed (``_values``).  A Gram of V is the Gram
        sums of its weights times ``gram_scale`` = (r_top^n_j / c_j)
        (r_top^n_l / c_l), and ``weight_gram`` is that of the grid weights,
        real since they are constant in the angle.
        """
        radial = self.radial_powers / col_norms
        top_scale = self.top_powers / col_norms
        gram_scale = top_scale[:, None] * top_scale[None, :]
        weight_gram = self.weight_sums * gram_scale
        for part in (radial, gram_scale, weight_gram):
            part.setflags(write=False)
        return radial, gram_scale, weight_gram


def _values(radial: np.ndarray, table: np.ndarray, a: np.ndarray, out=None) -> np.ndarray:
    """Flat grid values sum_j a_j radial[i, j] table[j, k], radius by radius,
    written to ``out`` if given.

    With a scaling's ``radial`` and the ``values_table`` they are the values
    of the series of scaled coefficients a (raw coefficients times
    ``col_norms``).  With the ``half_table`` and real a they are the
    conjugates of those values on the angles in [0, pi]; |u| is all a real
    solve reads, so the conjugate is never taken.
    """
    n_r = radial.shape[0]
    if out is None:
        out = np.empty(n_r * table.shape[1], dtype=complex)
    # a real matrix times a complex one, as one real product on (re, im) pairs
    phased = a[:, None] * table
    np.matmul(radial, phased.view(float), out=out.view(float).reshape(n_r, -1))
    return out


class _GridCache:
    """The read-only parts of every solve on the grid of one rule, built on
    first use.

    It holds the grid's coarse rule, a quarter as fine each way (None when
    that leaves fewer radii or angles than ``_MIN_COARSE_SHAPE``), the
    weights of a real solve on the angles in [0, pi] (``mirror_weights``,
    each angle but 0 and, for an even count, pi weighted twice, once for
    its mirror), and two caches of ``_RULES`` entries each, least recently
    used out first: ``tables(exponents)``, the ``_BasisTables`` of an
    exponent set, and ``scaling(spec)``, the column scaling of a basis spec
    (``_BasisTables.scaling``), built from the tables of its exponents,
    which specs differing only in p share.  ``_rule_caches`` keeps one per
    rule for the ``2 * _RULES`` rules last used, and ``_grid_cache(grid)``
    returns that of the grid's rule.
    """

    def __init__(self, domain: Domain, radial_count: int, angular_count: int):
        n_r, K = radial_count, angular_count
        shape = (n_r // _COARSENING, K // _COARSENING)
        coarsens = shape[0] >= _MIN_COARSE_SHAPE[0] and shape[1] >= _MIN_COARSE_SHAPE[1]
        self.coarse_grid = build_grid(domain, *shape) if coarsens else None
        radii, radial_weights = _radial_rule(domain, n_r)
        # the entries of ``grid.weights`` on the angles in [0, pi], which a
        # real solve never builds, times their mirror counts
        weights = np.repeat(radial_weights * (2.0 * math.pi / K), K // 2 + 1).reshape(n_r, -1)
        weights[:, 1 : (K + 1) // 2] *= 2.0
        self.mirror_weights = weights.ravel()
        self.mirror_weights.setflags(write=False)
        self.tables = tables = functools.lru_cache(maxsize=_RULES)(
            functools.partial(_BasisTables, radii, K, self.mirror_weights)
        )
        # over ``tables``, not ``self.tables``: a closure over the cache would
        # keep an evicted cache alive until a garbage collection
        self.scaling = functools.lru_cache(maxsize=_RULES)(
            lambda spec: tables(spec.exponents).scaling(spec.col_norms)
        )


# one cache per rule (domain, radial and angular count).  Every grid is
# ``build_grid`` of its rule, so the caches hold no caller's grid.
_rule_caches = functools.lru_cache(maxsize=2 * _RULES)(_GridCache)


def _grid_cache(grid: QuadratureGrid) -> _GridCache:
    return _rule_caches(grid.domain, grid.radial_count, grid.angular_count)


def grid_values(problem: ExtremalProblem, coefficients: np.ndarray) -> np.ndarray:
    """Flat values on ``problem.grid`` of the series with raw coefficients."""
    spec = problem.basis
    cache = _grid_cache(problem.grid)
    a = np.asarray(coefficients, dtype=complex) * spec.col_norms
    radial, _, _ = cache.scaling(spec)
    return _values(radial, cache.tables(spec.exponents).values_table, a)


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
    """Per-solve state on one grid level: the column scaling of the basis,
    the problem's feasible slice, grid arrays and the level's counts.

    The grid is the problem's own grid or a coarser rule on the same domain.
    The scaling and the tables come from the grid's cache and the slice
    (a0, N) from the problem, so every level of a solve works in the same
    coordinates t.  ``dtype`` is that of t and of the reduced system: float
    for a real start, which keeps t real, and complex for a complex one.
    The workspace is the one place that picks the arithmetic, as a table,
    Gram sums and weights ``w``: a real one takes the ``half_table`` on the
    angles in [0, pi], ``cosine_sums`` and ``mirror_weights``, so it works
    on half the nodes and allocates about half the memory; a complex one
    takes the ``values_table``, ``lag_sums`` and the grid weights.  Both
    sum the objective and the IRLS weights under ``w``.

    The workspace allocates the grid-sized arrays of the descent and
    overwrites them in place: the current values ``u`` with ``base`` =
    |u|^2 + eps and ``terms`` = base^(p/2), the same three at the
    line-search trial point, the step ``du`` and the real IRLS weights
    ``omega``.  No other solve sees them, which keeps ``minimize_pnorm``
    reentrant.  They are views of one block because glibc keeps a freed
    block of up to 32 MiB for the next workspace, while it hands the pages
    of eight separate arrays back to the system, and every solve on the
    default grid would fault their pages in anew.  ``counts`` holds the
    level's counts, which outlive its arrays: "iterations", the accepted
    steps on the level, "anderson_steps", those that took the Anderson
    candidate, and "solve_fallbacks", the solves that fell back to least
    squares.
    """

    def __init__(self, problem: ExtremalProblem, grid: QuadratureGrid, dtype: type = complex):
        self.grid = grid
        self.p = problem.p
        cache = _grid_cache(grid)
        self.radial, self._gram_scale, self.weight_gram = cache.scaling(problem.basis)
        tables = cache.tables(problem.basis.exponents)
        self.dtype = dtype
        # a real slice is made complex once here, not in every product
        self.a0, self.N = (np.asarray(part, dtype) for part in problem.feasible_slice)
        self.counts = Counter()
        self._target = None  # the IRLS target of ``u`` under the current eps

        if dtype is float:
            self._table, self._sums, self.w = tables.half_table, tables.cosine_sums, cache.mirror_weights
        else:
            self._table, self._sums, self.w = tables.values_table, tables.lag_sums, grid.weights
        size = self.w.size
        layout = dict.fromkeys(("u", "u_try", "du"), ((size,), complex))
        floats = ("base", "base_try", "terms", "terms_try", "omega")
        layout |= dict.fromkeys(floats, ((size,), float))
        vars(self).update(_carve(layout))

    def least_squares(self) -> np.ndarray:
        """The weighted least-squares point t, the p = 2 minimizer."""
        return self.weighted_solve(*_reduce(self.weight_gram, self.a0, self.N))

    def reduced_system(self, omega: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """A = N^H G N and rhs = -N^H G a0 for the Gram G of weights omega.

        A t - rhs is M^H diag(omega) u(t), with M = V N the map from t to
        the grid values u(t) = V (a0 + N t).
        """
        G = self._sums(omega)
        G *= self._gram_scale
        return _reduce(G, self.a0, self.N)

    def weighted_solve(self, A: np.ndarray, rhs: np.ndarray) -> np.ndarray:
        """Solve A x = rhs by ``_weighted_solve``; count each fall back."""
        x, fallbacks = _weighted_solve(A, rhs)
        self.counts["solve_fallbacks"] += fallbacks
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
        _values(self.radial, self._table, self.a0 + self.N @ t, out=self.u)
        return self.set_eps(eps)

    def set_step(self, delta: np.ndarray) -> None:
        """Load the values of the step N delta into ``du``."""
        _values(self.radial, self._table, self.N @ delta, out=self.du)

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
            ws.counts["anderson_steps"] += 1
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
        ws.counts["iterations"] += 1
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


def minimize_pnorm(problem: ExtremalProblem) -> Solution:
    """Run the continuation descent; returns the final iterate with diagnostics.

    The descent starts from the weighted least-squares solution, which is
    the exact minimizer for p = 2 and is then returned with no iterations.
    Every other solve is the descent of ``_descents`` from that point, on
    every grid level of ``_levels`` in real arithmetic on half the angles
    (see the module docstring).  The stop rule is fixed by the module
    constants.  At p > 1, ``converged`` holds when the relative duality gap
    of the final iterate is at most ``_GAP_TOL``; the requested grid runs
    the 1e-10 stage and, while the gap is above that, each of
    ``_GAP_STAGES``.  At p <= 1 it holds when every
    stage on the requested grid stagnated and the raw objective drifted by
    at most ``_DRIFT_TOL`` relative over the last two stages.
    Non-convergence is reported through ``converged``, never silently.
    """
    if problem.p == 2.0:
        # The least-squares start is the exact minimizer, and the p = 2
        # IRLS weights equal w under every eps, so A and rhs are final and
        # t is its own IRLS target: the dual vector is u itself.  The
        # objective and the bound are quadratic forms of the cached Gram of
        # w, so no grid level is built and no grid pass runs.
        a0, N = problem.feasible_slice
        _, _, G = _grid_cache(problem.grid).scaling(problem.basis)
        t, fallbacks = _weighted_solve(*_reduce(G, a0, N))
        a = a0 + N @ t
        raw = float(np.vdot(a, G @ a).real)
        lower = raw / math.sqrt(raw)
        return _solution(problem, t, raw, lower, True, [Counter(solve_fallbacks=fallbacks)])
    return _descents(problem, [None])[0]


def _levels(problem: ExtremalProblem) -> list[tuple[QuadratureGrid, tuple[float, ...]]]:
    """The grid levels of every descent of ``problem`` in order, each with
    the eps stages it runs: the quarter grid, then the requested grid, or
    the requested grid alone when the grid is too small to coarsen.

    At p > 1 the smoothed problem is strictly convex and needs no heavy
    smoothing: the stages are 1e-6, 1e-8 and, on the last level alone,
    1e-10, after which the duality gap decides whether it runs
    ``_GAP_STAGES``.  At p <= 1 they are every stage of
    ``SMOOTHING_SCHEDULE``, and the last level runs the last two, which the
    drift test compares.
    """
    first, split = (2, -1) if problem.p > 1.0 else (0, -2)
    early, last = SMOOTHING_SCHEDULE[first:split], SMOOTHING_SCHEDULE[split:]
    coarse_grid = _grid_cache(problem.grid).coarse_grid
    if coarse_grid is None:
        return [(problem.grid, early + last)]
    return [(coarse_grid, early), (problem.grid, last)]


def _descents(problem: ExtremalProblem, starts) -> list[Solution]:
    """The descents of ``problem`` over its ``_levels`` from ``starts``, each
    a t on the feasible slice or None for the first level's weighted
    least-squares point.

    A start of None or a real t runs in real arithmetic, a complex t in
    complex arithmetic.  Every start runs every level but the last, each on
    a workspace of its own, of which only the counts are kept.  When an
    early level ran, only the first start of each cluster of end points
    (coefficient distance 1e-4) goes on.  Each start that goes on runs the
    last level, then the duality gap (p > 1) or the drift test (p <= 1)
    decides ``converged``.  Returns their solutions in the order of
    ``starts``.
    """
    *early, (grid, stages) = _levels(problem)
    ends = []
    for t in starts:
        dtype = float if t is None or np.isrealobj(t) else complex
        levels = []
        for level_grid, level_stages in early:
            ws = _Workspace(problem, level_grid, dtype)
            for t, _ in _descend(ws, t, level_stages):
                pass
            levels.append(ws.counts)
            del ws  # its arrays go before the next level allocates its own
        ends.append((t, dtype, levels))
    if early:
        ends = [ends[i] for i in _distinct([problem.raw_from_t(t) for t, _, _ in ends])]
    solutions = []
    for t, dtype, levels in ends:
        ws = _Workspace(problem, grid, dtype)
        if problem.p > 1.0:
            # certify after the last stage, and after each gap stage it needs
            for i, (t, _) in enumerate(_descend(ws, t, stages + _GAP_STAGES)):
                if i >= len(stages) - 1:
                    raw, lower = ws.certificate(t)
                    converged = _relative_gap(raw, lower, problem.p) <= _GAP_TOL
                    if converged:
                        break
        else:
            # the drift test reads the raw objective after the last two stages
            raws, stagnated = [], True
            for i, (t, stage_stagnated) in enumerate(_descend(ws, t, stages)):
                stagnated = stagnated and stage_stagnated
                if i >= len(stages) - 2:
                    raws.append(ws.raw_objective())
            raw, lower = raws[-1], None
            converged = stagnated and abs(raws[-1] - raws[-2]) <= _DRIFT_TOL * max(raw, 1e-300)
        levels.append(ws.counts)
        del ws
        solutions.append(_solution(problem, t, raw, lower, converged, levels))
    return solutions


def _solution(problem, t, raw: float, lower, converged: bool, levels: list[Counter]) -> Solution:
    """The ``Solution`` at t of raw objective ``raw`` and lower bound
    ``lower`` (None at p <= 1), with the sums of the ``counts`` of its grid
    levels, given in level order; ``coarse_iterations`` are the steps of
    every level but the last."""
    a_raw = problem.raw_from_t(t)
    residual = problem.constraint_matrix @ a_raw - problem.constraint_targets
    return Solution(
        coeffs=CoeffVector(problem.basis, a_raw),
        objective=raw ** (1.0 / problem.p),
        feasibility_residual=float(np.max(np.abs(residual))),
        lower_bound=lower,
        duality_gap=None if lower is None else _relative_gap(raw, lower, problem.p),
        iterations=sum(counts["iterations"] for counts in levels),
        coarse_iterations=sum(counts["iterations"] for counts in levels[:-1]),
        converged=converged,
        solve_fallbacks=sum(counts["solve_fallbacks"] for counts in levels),
        anderson_steps=sum(counts["anderson_steps"] for counts in levels),
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


def multistart_minimize(
    problem: ExtremalProblem, start: np.ndarray, *, restarts: int, seed: int
) -> list[Solution]:
    """Seeded restarts for 0 < p <= 1, where the problem may be nonconvex
    (p < 1) or its minimizer not unique (p = 1).

    Descents start from the raw coefficients ``start`` on the problem's
    basis (for ``analysis.dp_estimate``, the p = 1 solution of the same
    constraints) and, for k = 1 .. restarts - 1, from perturbations of it
    by circular Gaussian noise drawn by the generator keyed [seed, k].
    Each is projected onto the slice, a complex t, and ``_descents`` runs
    them all: the only descents in complex arithmetic on all K angles, since
    the perturbations leave the real slice.  Only the first of each cluster
    of coarse end points (coefficient distance 1e-4; every restart on a grid
    too small to coarsen) runs the requested grid, and reports its own
    coarse steps.  Converged solutions are deduplicated at the same distance and
    returned sorted by objective; distinct survivors are all reported,
    uniqueness is never asserted.
    """
    if restarts < 1 or seed < 0:
        raise ValueError(f"need restarts >= 1 and seed >= 0, got {restarts} and {seed}")
    starts = [start]
    scale = 0.5 * max(1.0, float(np.linalg.norm(start)))
    dim = problem.basis.dimension
    for k in range(1, restarts):
        rng = np.random.default_rng([seed, k])
        noise = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
        starts.append(start + scale * noise / math.sqrt(dim))
    runs = _descents(problem, [problem.t_from_raw(point) for point in starts])

    converged = sorted((s for s in runs if s.converged), key=lambda s: s.objective)
    return [converged[i] for i in _distinct([s.coeffs.coefficients for s in converged])]


def solution_record(solution: Solution) -> dict:
    """JSON-ready diagnostics for one run: every ``Solution`` field but
    ``coeffs``, in field order."""
    return {
        f.name: getattr(solution, f.name) for f in fields(Solution) if f.name != "coeffs"
    }
