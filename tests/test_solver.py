import gc
import math
import sys
import threading
import tracemalloc
import weakref
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

import pbergman as pb
from pbergman import analysis, solver
from pbergman.analysis import levi_metric_gap
from pbergman.series import BasisSpec
from pbergman.solver import (
    ExtremalProblem,
    InfeasibleConstraintsError,
    derivative_constraint,
    minimize_pnorm,
    multistart_minimize,
    point_constraint,
)

from oracles import grid_free_k4, kkt_residual, least_norm_coeffs, lp_norm, vandermonde


def _basis(domain, p, degree, n_min=None):
    return pb.Setup(domain, degree=degree, n_min=n_min).basis(p)


def _problem(domain, grid, p, degree, constraints_builder):
    basis = _basis(domain, p, degree)
    return ExtremalProblem(basis, grid, p, constraints_builder(basis))


def _restart(prob, start):
    """The descent from the raw coefficients ``start`` that
    ``multistart_minimize`` runs for each restart it refines: every grid
    level from the projection of ``start`` onto the slice, a complex t, so
    in complex arithmetic."""
    return solver._descents(prob, [prob.t_from_raw(start)])[0]


def _complex_levels(prob):
    """The cold descent of ``minimize_pnorm`` in the complex arithmetic of the
    restarts: every grid level on all K angles, from the least-squares point
    of the first level, solved in complex arithmetic as a complex workspace
    solves it, but without building one."""
    grid = solver._levels(prob)[0][0]
    _, _, G = solver._grid_cache(grid).scaling(prob.basis)
    a0, N = (part.astype(complex) for part in prob.feasible_slice)
    t, _ = solver._weighted_solve(*solver._reduce(G, a0, N))
    return solver._descents(prob, [t])[0]


def _kkt(prob, coefficients):
    """``kkt_residual`` of raw ``coefficients`` under the rows of ``prob``."""
    return kkt_residual(prob.grid, prob.basis.exponents, prob.p, prob.constraint_matrix, coefficients)


def _p1_start(prob):
    """The start ``analysis.dp_estimate`` gives the restarts of ``prob``, a
    problem whose basis has the same exponents at p = 1: the raw
    coefficients of the p = 1 solve of its constraints on its grid."""
    basis = BasisSpec(prob.basis.exponents, prob.basis.domain, 1.0)
    return minimize_pnorm(ExtremalProblem(basis, prob.grid, 1.0, prob.constraints)).coeffs.coefficients


@pytest.mark.parametrize(
    "spec,shape,n_min,n_max",
    [
        ("disk:1", (128, 256), 0, 24),
        ("annulus:0.5,1", (128, 256), -24, 24),
        ("punctured:1", (128, 256), -1, 24),
        ("disk:1", (12, 16), 0, 24),  # degree 24: exponents collide modulo 16
        ("disk:1", (12, 15), 0, 24),  # odd angular count, lags past K/2
        ("annulus:0.5,1", (64, 128), -48, 48),  # D = 97, the MAX_ABS_EXPONENT cap
    ],
    ids=["disk", "annulus", "punctured", "collisions", "odd", "largest"],
)
def test_separable_basis_matches_dense_vandermonde(spec, shape, n_min, n_max):
    # the values pass with each table and the Gram step with each sums
    # function, on the cached column scaling, against the dense basis
    p = 1.5
    domain = pb.parse_domain(spec)
    grid = pb.build_grid(domain, *shape)
    basis = BasisSpec(tuple(range(n_min, n_max + 1)), domain, p)
    cache = solver._grid_cache(grid)
    tables = cache.tables(basis.exponents)
    radial, gram_scale, _ = cache.scaling(basis)
    Vs = vandermonde(grid, basis.exponents) / basis.col_norms

    def values(a, table=tables.values_table, out=None):
        return solver._values(radial, table, a, out=out)

    def gram(sums, omega):
        G = sums(omega)
        G *= gram_scale
        return G

    def rel(got, want):
        return np.linalg.norm(got - want) / np.linalg.norm(want)

    rng = np.random.default_rng(5)
    a = rng.standard_normal(basis.dimension) + 1j * rng.standard_normal(basis.dimension)
    omega = grid.weights * rng.uniform(0.1, 2.0, grid.nodes.size)
    assert rel(values(a), Vs @ a) <= 1e-13
    buf = np.empty(grid.nodes.size, dtype=complex)
    assert values(a, out=buf) is buf
    assert np.array_equal(buf, values(a))
    assert rel(gram(tables.lag_sums, omega), Vs.conj().T @ (Vs * omega[:, None])) <= 1e-13

    # real coefficients and weights even in the angle: the angles in [0, pi]
    n_r, K = shape
    half = K // 2 + 1
    a_real = a.real.copy()
    full = (Vs @ a_real).reshape(n_r, K)
    assert rel(values(a_real, tables.half_table), full[:, :half].conj().ravel()) <= 1e-13
    even = omega.reshape(n_r, K)
    even = even + even[:, -np.arange(K)]  # omega(theta) + omega(-theta)
    # every angle but 0 and, for even K, pi stands for itself and its mirror
    mirrors = np.ones(half)
    mirrors[1 : (K + 1) // 2] = 2.0
    half_even = (even[:, :half] * mirrors).ravel()
    assert rel(gram(tables.cosine_sums, half_even), Vs.conj().T @ (Vs * even.ravel()[:, None])) <= 1e-13
    assert np.array_equal(cache.mirror_weights, (grid.weights.reshape(n_r, K)[:, :half] * mirrors).ravel())
    assert math.isclose(cache.mirror_weights.sum(), grid.weights.sum(), rel_tol=1e-14)


@pytest.mark.parametrize("spec,shape", [("disk:1", (16, 32)), ("annulus:0.5,1", (12, 15))])
def test_cached_tables_and_weights_are_contiguous_and_read_only(spec, shape):
    # every array the grid cache keeps is shared by every solve on the grid,
    # so none is writable, and each is an operand of a product, where a
    # strided view would be slower than a contiguous array
    domain = pb.parse_domain(spec)
    grid = pb.build_grid(domain, *shape)
    basis = _basis(domain, 1.5, 6)
    cache = solver._grid_cache(grid)
    tables = cache.tables(basis.exponents)
    tabled = ("values_table", "half_table", "_lag_table", "_cosine_table", "weight_sums")
    for name in tabled:
        getattr(tables, name)
    arrays = {name: a for name, a in vars(tables).items() if isinstance(a, np.ndarray)}
    assert set(tabled) <= set(arrays)
    arrays |= dict(zip(("radial", "gram_scale", "weight_gram"), cache.scaling(basis)))
    arrays["mirror_weights"] = cache.mirror_weights
    for name, a in arrays.items():
        assert a.flags.c_contiguous and not a.flags.writeable, name


def test_solves_take_no_fft(unit_disk, monkeypatch):
    # every angular sum is a product against a table: cold solves in real
    # arithmetic at p > 1 and p < 1, and a multistart run in complex
    # arithmetic, on a fresh grid with numpy's FFTs made to fail
    def fail(*args, **kwargs):
        pytest.fail("a solve called numpy.fft")

    for name in ("fft", "ifft", "rfft", "irfft", "fftn", "ifftn", "rfftn", "irfftn"):
        monkeypatch.setattr(np.fft, name, fail)
    grid = pb.build_grid(unit_disk, 64, 128)
    for p, degree in ((1.5, 12), (0.8, 8)):
        prob = _problem(unit_disk, grid, p, degree, lambda b: (point_constraint(b, 0.4, 1.0),))
        assert minimize_pnorm(prob).converged
    assert multistart_minimize(prob, _p1_start(prob), restarts=3, seed=0)


def test_p2_center_constant_minimizer(unit_disk, disk_grid):
    prob = _problem(
        unit_disk, disk_grid, 2.0, 8, lambda b: (point_constraint(b, 0.0, 1.0),)
    )
    sol = minimize_pnorm(prob)
    assert sol.converged
    assert math.isclose(sol.objective, math.sqrt(math.pi), rel_tol=1e-10)
    expected = np.zeros(9, dtype=complex)
    expected[0] = 1.0
    assert np.max(np.abs(sol.coeffs.coefficients - expected)) <= 1e-10


@pytest.mark.parametrize("spec", ["disk:1", "annulus:0.5,1"])
def test_p2_returns_least_squares_start(spec):
    domain = pb.parse_domain(spec)
    grid = pb.build_grid(domain, 64, 128)
    basis = _basis(domain, 2.0, 12)
    prob = ExtremalProblem(basis, grid, 2.0, (point_constraint(basis, 0.7, 1.0),))
    sol = minimize_pnorm(prob)
    assert sol.iterations == 0 and sol.converged
    assert abs(sol.duality_gap) <= 1e-15
    assert _kkt(prob, sol.coeffs.coefficients) <= 1e-10
    # the staged descent from the same coefficients stays where it started
    staged = _restart(prob, sol.coeffs.coefficients)
    assert staged.converged
    assert abs(staged.objective - sol.objective) <= 1e-14 * sol.objective
    a = sol.coeffs.coefficients
    assert np.max(np.abs(staged.coeffs.coefficients - a)) <= 1e-14 * np.max(np.abs(a))


@pytest.mark.parametrize(
    "spec,n_min,z",
    [("disk:1", None, 0.4), ("annulus:0.5,1", None, 0.7), ("punctured:1", -1, 0.5)],
    ids=["disk", "annulus", "punctured"],
)
def test_p2_return_objective_is_the_grid_sum(spec, n_min, z):
    # the p = 2 return reports the quadratic form of the cached Gram of w;
    # it must be the quadrature norm of the returned series (annulus: D = 49)
    domain = pb.parse_domain(spec)
    grid = pb.build_grid(domain, 128, 256)
    basis = _basis(domain, 2.0, 24, n_min)
    prob = ExtremalProblem(basis, grid, 2.0, (point_constraint(basis, z, 1.0),))
    sol = minimize_pnorm(prob)
    assert sol.iterations == 0
    values = vandermonde(grid, basis.exponents) @ sol.coeffs.coefficients
    want = lp_norm(grid, values, 2.0)
    assert abs(sol.objective - want) <= 1e-13 * want


def test_p2_return_takes_no_grid_pass(unit_disk, monkeypatch, fresh_rules):
    # across the Levi stencil at p = 2 of two setups on one grid, and at one
    # more point, no solve builds a grid level or evaluates the series on
    # the grid, and the Gram sums of the grid weights are built once for the
    # one (grid, exponent set) pair
    grid = pb.build_grid(unit_disk, 128, 256)
    grams = []
    cosine_sums = solver._BasisTables.cosine_sums

    def fail(*args, **kwargs):
        pytest.fail("a p = 2 return built a grid level or took a grid pass")

    def spied_cosine_sums(tables, omega, **kwargs):
        grams.append(omega)
        return cosine_sums(tables, omega, **kwargs)

    monkeypatch.setattr(solver, "_values", fail)
    monkeypatch.setattr(solver._BasisTables, "lag_sums", fail)
    monkeypatch.setattr(solver._BasisTables, "cosine_sums", spied_cosine_sums)
    monkeypatch.setattr(solver._Workspace, "__init__", fail)
    for _ in range(2):
        record = levi_metric_gap(pb.Setup(unit_disk, degree=8, grid=grid), 2.0)
        assert record.converged
    sol = minimize_pnorm(
        _problem(unit_disk, grid, 2.0, 8, lambda b: (point_constraint(b, 0.5, 1.0),))
    )
    assert sol.converged and sol.iterations == 0
    # its certificate comes from the same Gram
    assert abs(sol.duality_gap) <= 1e-15
    assert abs(sol.lower_bound - sol.objective) <= 1e-15 * sol.objective
    # the weights on the angles in [0, pi], each but 0 and pi twice for its mirror
    mirror_weights = grid.weights.reshape(128, 256)[:, :129].copy()
    mirror_weights[:, 1:128] *= 2.0
    assert len(grams) == 1 and np.array_equal(grams[0], mirror_weights.ravel())


@pytest.mark.parametrize(
    "shape, sizes", [((128, 256), [32768, 32768]), ((32, 64), [2048, 2048])],
    ids=["two-grid", "single-grid"],
)
def test_drift_objectives_only_on_the_requested_grid(unit_disk, monkeypatch, shape, sizes):
    # at p = 1 the drift test reads the raw objective after the last two
    # stages on the requested grid; the coarse level takes none; cold, in
    # real arithmetic, and restarted, in complex arithmetic
    calls = []
    raw_objective = solver._Workspace.raw_objective

    def spied(ws):
        calls.append(ws.grid.weights.size)
        return raw_objective(ws)

    monkeypatch.setattr(solver._Workspace, "raw_objective", spied)
    grid = pb.build_grid(unit_disk, *shape)
    prob = _problem(unit_disk, grid, 1.0, 16, lambda b: (point_constraint(b, 0.3, 1.0),))
    start = np.ones(prob.basis.dimension)
    for solve in (minimize_pnorm, lambda prob: _restart(prob, start)):
        calls.clear()
        sol = solve(prob)
        assert sol.converged and (sol.coarse_iterations > 0) == (shape == (128, 256))
        assert calls == sizes


def _single_grid(prob, real=True):
    """The whole schedule on the problem's own grid from its least-squares start,
    in real arithmetic, that of ``minimize_pnorm``, or in complex, with the
    objective and ``converged`` as ``minimize_pnorm`` reports them: at p > 1
    the stages from 1e-6, certified after 1e-10 and after each gap stage
    until the duality gap meets ``_GAP_TOL``; at p <= 1 every stage, with the
    drift test over the last two."""
    ws = solver._Workspace(prob, prob.grid, float if real else complex)
    if prob.p > 1.0:
        schedule = solver.SMOOTHING_SCHEDULE[2:]
        descent = solver._descend(ws, ws.least_squares(), schedule + solver._GAP_STAGES)
        for i, (t, _) in enumerate(descent):
            if i >= len(schedule) - 1:
                raw, lower = ws.certificate(t)
                objective = raw ** (1.0 / prob.p)
                converged = objective - lower <= solver._GAP_TOL * objective
                if converged:
                    break
    else:
        descent = solver._descend(ws, ws.least_squares(), solver.SMOOTHING_SCHEDULE)
        stages = [(t, stagnated, ws.raw_objective()) for t, stagnated in descent]
        t = stages[-1][0]
        stagnated = all(stage[1] for stage in stages)
        raw = [stage[2] for stage in stages[-2:]]
        drift = abs(raw[-1] - raw[-2])
        objective = raw[-1] ** (1.0 / prob.p)
        converged = stagnated and drift <= solver._DRIFT_TOL * raw[-1]
    a_raw = prob.raw_from_t(t)
    return SimpleNamespace(
        objective=objective,
        converged=converged,
        feasibility_residual=float(
            np.max(np.abs(prob.constraint_matrix @ a_raw - prob.constraint_targets))
        ),
    )


@pytest.mark.parametrize("p", [1.0, 1.5, 3.0, 4.0])
@pytest.mark.parametrize(
    "spec,n_min,r,real",
    [
        ("disk:1", None, abs(0.4 + 0.1j), False),
        ("disk:1", None, 0.4, True),
        ("annulus:0.5,1", None, abs(0.6 + 0.2j), False),
        ("annulus:0.5,1", None, 0.7, True),
        ("punctured:1", -1, 0.5, False),
        ("punctured:1", -1, 0.5, True),
    ],
    ids=["disk", "disk-real", "annulus-complex", "annulus", "punctured", "punctured-real"],
)
def test_two_grid_matches_single_grid_descent(spec, n_min, r, real, p):
    # in the real arithmetic of ``minimize_pnorm`` and in the complex
    # arithmetic of the restarts, run cold
    domain = pb.parse_domain(spec)
    grid = pb.build_grid(domain, 128, 256)
    basis = _basis(domain, p, 24, n_min)
    prob = ExtremalProblem(basis, grid, p, (point_constraint(basis, r, 1.0),))
    two = minimize_pnorm(prob) if real else _complex_levels(prob)
    one = _single_grid(prob, real)
    # at p > 1 the requested grid's one stage may take no step
    assert 0 < two.coarse_iterations <= two.iterations
    assert (two.coarse_iterations < two.iterations) or p > 1.0
    assert abs(two.objective - one.objective) <= 1e-11 * one.objective
    assert two.converged == one.converged
    assert two.feasibility_residual <= 1e-10


@pytest.mark.parametrize("p", [1.0, 1.5, 4.0])
@pytest.mark.parametrize(
    "spec,z", [("disk:1", abs(0.4 + 0.1j)), ("annulus:0.5,1", 0.7)], ids=["disk", "annulus"]
)
def test_started_solve_matches_single_grid_descent(spec, z, p):
    domain = pb.parse_domain(spec)
    grid = pb.build_grid(domain, 128, 256)
    basis = _basis(domain, p, 24)
    cons = (point_constraint(basis, z, 1.0),)
    prob = ExtremalProblem(basis, grid, p, cons)
    ls = minimize_pnorm(ExtremalProblem(_basis(domain, 2.0, 24), grid, 2.0, cons)).coeffs.coefficients
    rng = np.random.default_rng(17)
    noise = rng.standard_normal(ls.size) + 1j * rng.standard_normal(ls.size)
    start = ls + 0.1 * np.linalg.norm(ls) * noise / math.sqrt(ls.size)
    started = _restart(prob, start)
    one = _single_grid(prob)
    assert started.coarse_iterations > 0
    assert abs(started.objective - one.objective) <= 1e-11 * one.objective
    assert started.converged == one.converged
    assert started.feasibility_residual <= 1e-10


def _workspace_dtypes(monkeypatch):
    """The dtype of every grid level built from now on, in order."""
    dtypes = []
    init = solver._Workspace.__init__

    def spied_init(ws, *args, **kwargs):
        init(ws, *args, **kwargs)
        dtypes.append(ws.dtype)

    monkeypatch.setattr(solver._Workspace, "__init__", spied_init)
    return dtypes


@pytest.mark.parametrize("p", [1.0, 1.5, 3.0])
def test_real_arithmetic_only_for_cold_real_solves_at_p_from_one(unit_disk, disk_grid, monkeypatch, p):
    # the cold K_p and B_p solves run both levels in real arithmetic; the
    # restarts from their solutions start off the real slice and run in
    # complex arithmetic; the p = 2 return builds no level
    dtypes = _workspace_dtypes(monkeypatch)
    basis = _basis(unit_disk, p, 10)
    K_p = ExtremalProblem(basis, disk_grid, p, (point_constraint(basis, 0.4, 1.0),))
    B_p = ExtremalProblem(
        basis, disk_grid, p, (point_constraint(basis, -0.3, 0.0), derivative_constraint(basis, -0.3, 1.0))
    )
    for prob in (K_p, B_p):
        sol = minimize_pnorm(prob)
        assert dtypes == [float, float]
        # the real slice and real arithmetic give exactly real coefficients
        assert not sol.coeffs.coefficients.imag.any()
        dtypes.clear()
        if p == 1.0:
            multistart_minimize(prob, sol.coeffs.coefficients, restarts=3, seed=0)
            assert len(dtypes) > 2 and set(dtypes) == {complex}
            dtypes.clear()
    basis = _basis(unit_disk, 2.0, 10)
    minimize_pnorm(ExtremalProblem(basis, disk_grid, 2.0, K_p.constraints))
    assert dtypes == []


@pytest.mark.parametrize("p", [0.5, 0.7, 0.9])
@pytest.mark.parametrize(
    "spec, n_min, r", [("disk:1", None, 0.3), ("annulus:0.5,1", None, 0.7), ("punctured:1", -2, 0.3)],
    ids=["disk", "annulus", "punctured"],
)
def test_cold_solve_below_one_is_real(monkeypatch, spec, n_min, r, p):
    # the IRLS map of a real problem commutes with conjugation, so the cold
    # descent from the real least-squares point stays on the real slice at
    # p < 1 too: both levels run in real arithmetic, and match the complex
    # arithmetic on the same problem
    domain = pb.parse_domain(spec)
    basis = _basis(domain, p, 8, n_min)
    prob = ExtremalProblem(basis, pb.build_grid(domain, 128, 256), p, (point_constraint(basis, r, 1.0),))
    dtypes = _workspace_dtypes(monkeypatch)
    got = minimize_pnorm(prob)
    assert dtypes == [float, float]
    want = _complex_levels(prob)
    assert dtypes[2:] == [complex, complex]
    assert (got.iterations, got.coarse_iterations, got.converged) == (
        want.iterations, want.coarse_iterations, want.converged
    )
    assert abs(got.objective - want.objective) <= 1e-13 * want.objective
    assert not got.coeffs.coefficients.imag.any()


def test_complex_rows_rejected(unit_disk, disk_grid):
    # a problem at a complex point is posed at its modulus and rotated; rows
    # or targets with an imaginary part, even one shared phase, are refused
    basis = _basis(unit_disk, 1.5, 10)
    row, target = point_constraint(basis, 0.4, 1.0)
    for cons in (
        (point_constraint(basis, 0.4j, 1.0),),
        ((1j * row, 1j * target),),
        ((row, 1.0 + 1e-300j),),
    ):
        with pytest.raises(ValueError, match=r"must be real: pose at \|z\| and rotate"):
            ExtremalProblem(basis, disk_grid, 1.5, cons)


def test_basis_admissible_at_another_p_rejected(punctured):
    # z^-2 is in L^p of the punctured disk for p < 1 but not at p = 1, so
    # the p = 0.8 basis posed at p = 1 minimizes over a space that is not
    # the p = 1 space: its grid minimum at z = 0.5 (1.41505 at degree 8)
    # undercuts the admissible one (1.41512)
    grid = pb.build_grid(punctured, 128, 256)
    below_one = _basis(punctured, 0.8, 8, n_min=-2)
    assert below_one.exponents[0] == -2 and _basis(punctured, 1.0, 8, n_min=-2).exponents[0] == -1
    with pytest.raises(ValueError, match="a basis at p=0.8 for a problem at p=1.0"):
        ExtremalProblem(below_one, grid, 1.0, (point_constraint(below_one, 0.5, 1.0),))


@pytest.mark.parametrize(
    "spec, n_min, z, p, shape",
    [
        ("disk:1", None, 0.4, 1.5, (32, 65)),
        ("disk:1", None, 0.4, 1.5, (128, 255)),
        ("annulus:0.5,1", None, 0.7, 3.0, (128, 255)),
        ("punctured:1", -1, 0.5, 1.0, (128, 255)),
        ("disk:1", None, 0.4, 1.5, (128, 256)),
    ],
    ids=["disk-32x65", "disk-128x255", "annulus-128x255", "punctured-128x255", "disk-128x256"],
)
def test_real_path_matches_complex_path(spec, n_min, z, p, shape):
    # one problem, descended cold in real and in complex arithmetic: with an
    # odd angular count every angle in (0, pi] has a mirror, with an even one
    # pi has none
    domain = pb.parse_domain(spec)
    grid = pb.build_grid(domain, *shape)
    basis = _basis(domain, p, 24, n_min)
    real = ExtremalProblem(basis, grid, p, (point_constraint(basis, z, 1.0),))
    got, want = minimize_pnorm(real), _complex_levels(real)
    assert (got.coarse_iterations > 0) == (shape[0] == 128)
    assert (got.iterations, got.coarse_iterations, got.converged) == (
        want.iterations, want.coarse_iterations, want.converged
    )
    assert abs(got.objective - want.objective) <= 1e-14 * want.objective
    w = basis.col_norms
    diff = np.abs(got.coeffs.coefficients - want.coeffs.coefficients) * w
    assert diff.max() <= 1e-12 * np.max(np.abs(want.coeffs.coefficients) * w)


def test_coarse_level_taken_whenever_the_grid_allows(unit_disk):
    basis = _basis(unit_disk, 1.5, 12)
    cons = (point_constraint(basis, 0.3, 1.0),)
    small = ExtremalProblem(basis, pb.build_grid(unit_disk, 32, 64), 1.5, cons)
    sol = minimize_pnorm(small)
    assert sol.iterations > 0 and sol.coarse_iterations == 0
    started = _restart(small, sol.coeffs.coefficients)
    assert started.iterations > 0 and started.coarse_iterations == 0
    large = ExtremalProblem(basis, pb.build_grid(unit_disk, 64, 128), 1.5, cons)
    assert minimize_pnorm(large).coarse_iterations > 0
    started = _restart(large, sol.coeffs.coefficients)
    assert 0 < started.coarse_iterations < started.iterations


def test_levels_count_their_own_steps(unit_disk, disk_grid, monkeypatch):
    # every accepted step counts on the grid level that took it: the steps on
    # the quarter grid are coarse_iterations, the rest are on the requested
    # grid; a multistart restart refined on the requested grid reports the
    # coarse steps of the restart whose coarse end point it starts from
    steps = []  # the workspace of each accepted step
    runs = []  # [workspace, start, end] of each level run, in order
    starts = []  # every start ``_descents`` takes, in order
    solves = []  # (solution, coarse steps, requested-grid steps) of each descent
    accept, descend, descents = solver._Workspace.accept, solver._descend, solver._descents

    def spied_accept(ws):
        steps.append(ws)
        accept(ws)

    def spied_descend(ws, t, schedule):
        run = [ws, t, t]
        runs.append(run)
        for t, stagnated in descend(ws, t, schedule):
            run[2] = t
            yield t, stagnated

    def spied_descents(problem, level_starts):
        starts.extend(level_starts)
        first = len(runs)
        sols = descents(problem, level_starts)
        level_runs = runs[first:]
        last = [run for run in level_runs if run[0].grid is problem.grid]
        assert len(last) == len(sols)
        for sol, (ws, start, _) in zip(sols, last):
            # the latest coarse level that ended where this level started
            coarse = [run[0] for run in level_runs if run[2] is start and run[0] is not ws][-1:]
            assert all(level.grid.weights.size < problem.grid.weights.size for level in coarse)
            solves.append((sol, sum(map(steps.count, coarse)), steps.count(ws)))
        return sols

    monkeypatch.setattr(solver._Workspace, "accept", spied_accept)
    monkeypatch.setattr(solver, "_descend", spied_descend)
    monkeypatch.setattr(solver, "_descents", spied_descents)
    prob = _problem(
        unit_disk, disk_grid, 1.5, 10, lambda b: (point_constraint(b, 0.4, 1.0),)
    )
    cold = solver.minimize_pnorm(prob)
    # the cold p = 1 solve, then two started restarts that meet on the
    # coarse grid, so one of them is refined
    below_one = _problem(unit_disk, disk_grid, 0.9, 10, lambda b: (point_constraint(b, 0.4, 1.0),))
    survivors = multistart_minimize(below_one, _p1_start(below_one), restarts=2, seed=0)
    assert survivors
    small = replace(prob, grid=pb.build_grid(unit_disk, 32, 64))
    solver.minimize_pnorm(small)  # too small for a coarse level
    assert len(starts) == 5 and len(solves) == 4
    # every returned solution, the restarts' included, is one of the descents
    for sol in (cold, *survivors):
        assert any(sol is got for got, _, _ in solves)
    for sol, coarse, requested in solves:
        assert sol.coarse_iterations == coarse
        assert sol.iterations - sol.coarse_iterations == requested
    # the one requested-grid stage of the cold p > 1 solve may take no step;
    # the p <= 1 descents and the single-grid solve step there
    assert all(requested > 0 for _, _, requested in solves[1:])
    assert all(coarse > 0 for _, coarse, _ in solves[:3])
    assert solves[3][1] == 0
    # every accepted step was taken on the workspace of one level run
    assert len(steps) == sum(steps.count(ws) for ws, _, _ in runs)

    steps.clear()
    p2 = solver.minimize_pnorm(
        _problem(unit_disk, disk_grid, 2.0, 10, lambda b: (point_constraint(b, 0.4, 1.0),))
    )
    assert (steps, len(starts), len(solves)) == ([], 5, 4)  # no level, no step
    assert (p2.iterations, p2.coarse_iterations, p2.solve_fallbacks, p2.anderson_steps) == (
        0, 0, 0, 0
    )


def test_multistart_without_a_coarse_level_refines_every_restart(unit_disk, monkeypatch):
    # on 32x64 the quarter grid would be 8x16, too small: every restart runs
    # the requested grid alone, none is merged before it, and each reports
    # no coarse steps
    grid = pb.build_grid(unit_disk, 32, 64)
    prob = _problem(unit_disk, grid, 0.8, 8, lambda b: (point_constraint(b, 0.3, 1.0),))
    start = _p1_start(prob)
    built, returned = [], []
    init, descents = solver._Workspace.__init__, solver._descents

    def spied_init(ws, problem, level_grid, *args):
        init(ws, problem, level_grid, *args)
        built.append(level_grid)

    def spied_descents(problem, starts):
        returned.append(descents(problem, starts))
        return returned[-1]

    monkeypatch.setattr(solver._Workspace, "__init__", spied_init)
    monkeypatch.setattr(solver, "_descents", spied_descents)
    survivors = multistart_minimize(prob, start, restarts=3, seed=0)
    assert built == [grid] * 3
    (runs,) = returned
    assert len(runs) == 3
    assert all(sol.iterations > 0 and sol.coarse_iterations == 0 for sol in runs)
    assert survivors and all(any(sol is run for run in runs) for sol in survivors)


def test_boundary_point_at_degree_32_does_not_stall(unit_disk):
    # at p = 1 the eps = 1e-6 stage on the 32 x 64 coarse rule used to crawl
    # into the 200-step stage cap here (244 steps, 234 coarse, at
    # 0.7 e^(0.3i)); cold in real arithmetic and in complex
    basis = _basis(unit_disk, 1.0, 32)
    prob = ExtremalProblem(
        basis, pb.build_grid(unit_disk, 128, 256), 1.0, (point_constraint(basis, 0.7, 1.0),)
    )
    for real, two in ((True, minimize_pnorm(prob)), (False, _complex_levels(prob))):
        one = _single_grid(prob, real)
        assert two.converged and two.iterations <= 60
        assert abs(two.objective - one.objective) <= 1e-11 * one.objective


@pytest.mark.parametrize("p", [1.0, 1.5, 4.0])
def test_dilation_identity_off_the_unit_disk(p):
    # f -> f(. / R) maps the competitors on D_1 onto those on D_R, and scales
    # every p-norm^p by R^2, so K_p(R z; D_R) R^2 = K_p(z; D_1)
    R, z = 2.5, 0.35 - 0.2j
    unit = pb.mp_minimizer(pb.Setup(pb.Domain("disk", 1.0), degree=16), p, z)
    dilated = pb.mp_minimizer(pb.Setup(pb.Domain("disk", R), degree=16), p, R * z)
    assert dilated.minimizer.coarse_iterations > 0
    assert abs(dilated.k_p * R**2 - unit.k_p) <= 1e-12 * unit.k_p


@settings(max_examples=10, deadline=None, derandomize=True)
@given(
    annulus=st.booleans(),
    outer=st.floats(0.5, 3.0),
    inner_fraction=st.floats(0.2, 0.6),
    p=st.floats(1.0, 4.0),
    depth=st.floats(0.2, 0.8),
)
def test_two_grid_solve_property(annulus, outer, inner_fraction, p, depth):
    domain = (
        pb.Domain("annulus", outer, inner_fraction * outer)
        if annulus
        else pb.Domain("disk", outer)
    )
    inner = domain.inner_radius
    z = inner + depth * (outer - inner)
    basis = _basis(domain, p, 12)
    prob = ExtremalProblem(
        basis, pb.build_grid(domain, 64, 128), p, (point_constraint(basis, z, 1.0),)
    )
    two = minimize_pnorm(prob)
    one = _single_grid(prob)
    # annulus solves near p = 1 stop short of convergence (the raw objective
    # still moves between the last two eps stages), where the two paths
    # agree to about 2e-11
    assert abs(two.objective - one.objective) <= 1e-10 * one.objective
    assert two.feasibility_residual <= 1e-10 * max(1.0, abs(z) ** 12)
    assert one.feasibility_residual <= 1e-10 * max(1.0, abs(z) ** 12)


def _on_fresh_grid(problem):
    """``problem`` on a new copy of its grid, so no solve has cached anything
    for that grid yet."""
    grid = problem.grid
    return replace(
        problem, grid=pb.build_grid(grid.domain, grid.radial_count, grid.angular_count)
    )


def _assert_same_bits(got, want):
    assert np.array_equal(got.coeffs.coefficients, want.coeffs.coefficients)
    assert got.objective == want.objective
    assert got.lower_bound == want.lower_bound
    assert got.duality_gap == want.duality_gap
    assert got.iterations == want.iterations
    assert got.coarse_iterations == want.coarse_iterations
    assert got.solve_fallbacks == want.solve_fallbacks


def _nest(monkeypatch, outer, inner, solve=minimize_pnorm):
    """Solve ``outer`` with the solves of ``inner`` run inside its stages.

    ``inner`` maps "coarse" or "requested" to problems solved, in order, at
    the start of the outer solve's first stage on that grid.  ``solve`` runs
    the outer and every inner solve.  Returns the outer solution and the
    inner (problem, solution) pairs.
    """
    stage = solver._irls_stage
    pending = dict(inner)
    done = []
    nested = []

    def interleaved(ws, *args):
        if not nested:  # the inner solves pass through here too
            level = "requested" if ws.grid is outer.grid else "coarse"
            nested.append(None)
            for prob in pending.pop(level, ()):
                done.append((prob, solve(prob)))
            nested.pop()
        return stage(ws, *args)

    monkeypatch.setattr(solver, "_irls_stage", interleaved)
    result = solve(outer)
    monkeypatch.setattr(solver, "_irls_stage", stage)
    assert not pending
    return result, done


def test_interleaved_solves_match_separate_solves(unit_disk, disk_grid, monkeypatch):
    # the first round runs the complex levels of the restarts, the second
    # the real arithmetic of cold solves; the first and third points move
    # between the two rounds, the second stays
    rounds = ((_complex_levels, abs(0.4 + 0.1j), abs(-0.2 + 0.5j)), (minimize_pnorm, 0.4, -0.2))
    for solve, first_z, third_z in rounds:
        first = _problem(
            unit_disk, disk_grid, 1.5, 10, lambda b: (point_constraint(b, first_z, 1.0),)
        )
        second = _problem(
            unit_disk,
            disk_grid,
            3.0,
            8,
            lambda b: (point_constraint(b, -0.3, 0.0), derivative_constraint(b, -0.3, 1.0)),
        )
        # grid, exponents and p of the first: the same cached bases
        third = _problem(
            unit_disk, disk_grid, 1.5, 10, lambda b: (point_constraint(b, third_z, 1.0),)
        )
        alone = {prob: solve(_on_fresh_grid(prob)) for prob in (first, second, third)}

        outer, inner = _nest(
            monkeypatch, first, {"coarse": [second, third], "requested": [third]}, solve
        )
        _assert_same_bits(outer, alone[first])
        assert [prob for prob, _ in inner] == [second, third, third]
        for prob, got in inner:
            _assert_same_bits(got, alone[prob])


def test_pole_column_leaves_no_stale_spectrum_bins(punctured, monkeypatch):
    # z^-1 is admissible at p = 1 and not at p = 2.5, so the two bases on
    # one grid differ in their first column and in every table; solves that
    # alternate or nest between them must match solves on fresh grids, in
    # the complex levels of the restarts at one point, then in the real
    # arithmetic of cold solves at another
    grid = pb.build_grid(punctured, 128, 256)

    def problem(p, z):
        basis = _basis(punctured, p, 12, n_min=-1)
        return ExtremalProblem(basis, grid, p, (point_constraint(basis, z, 1.0),))

    for solve, z in ((_complex_levels, abs(0.4 - 0.2j)), (minimize_pnorm, 0.4)):
        with_pole, without_pole = problem(1.0, z), problem(2.5, z)
        assert with_pole.basis.exponents[0] == -1
        assert without_pole.basis.exponents[0] == 0
        alone = {prob: solve(_on_fresh_grid(prob)) for prob in (with_pole, without_pole)}

        for prob in (with_pole, without_pole, with_pole, without_pole):
            _assert_same_bits(solve(prob), alone[prob])
        outer, inner = _nest(
            monkeypatch,
            with_pole,
            {"coarse": [without_pole], "requested": [without_pole]},
            solve,
        )
        _assert_same_bits(outer, alone[with_pole])
        for prob, got in inner:
            _assert_same_bits(got, alone[prob])


def test_repeated_multistart_matches_a_cold_grid(unit_disk):
    prob = _problem(
        unit_disk,
        pb.build_grid(unit_disk, 128, 256),
        0.8,
        8,
        lambda b: (point_constraint(b, abs(0.3 + 0.2j), 1.0),),
    )
    start = _p1_start(prob)
    cold = multistart_minimize(_on_fresh_grid(prob), start, restarts=4, seed=3)
    for _ in range(2):
        warm = multistart_minimize(prob, start, restarts=4, seed=3)
        assert len(warm) == len(cold) > 0
        for got, want in zip(warm, cold):
            _assert_same_bits(got, want)


def test_concurrent_solves_on_one_grid_match_a_cold_grid(unit_disk):
    # cold solves in real arithmetic and restarts in complex, alternating
    grid = pb.build_grid(unit_disk, 64, 128)
    problems = [
        _problem(unit_disk, grid, 1.5, 8, lambda b, z=z: (point_constraint(b, z, 1.0),))
        for z in (0.1, abs(0.2 + 0.1j), -0.3, 0.4)
    ]
    start = np.ones(problems[0].basis.dimension)
    solves = [minimize_pnorm, lambda prob: _restart(prob, start)] * 2
    cold = [solve(_on_fresh_grid(prob)) for solve, prob in zip(solves, problems)]
    results = {}

    def work(k):
        for _ in range(3):
            results.setdefault(k, []).append(solves[k](problems[k]))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=work, args=(k,)) for k in range(len(problems))]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
            assert not thread.is_alive()
    finally:
        sys.setswitchinterval(interval)
    for k, want in enumerate(cold):
        assert len(results[k]) == 3
        for got in results[k]:
            _assert_same_bits(got, want)


def test_concurrent_solves_across_more_rules_than_the_bound(unit_disk, fresh_rules):
    # four threads on shared grids, more rules and basis specs than the
    # bound, so that rule caches, tables and bases are evicted and rebuilt
    # while other threads solve on them; every solve matches one on a fresh
    # grid
    shapes = [(64 + 4 * k, 128) for k in range(solver._RULES + 2)]
    cases = [(shape, p) for shape in shapes for p in (1.5, 3.0)]

    def solve(grid, p):
        return pb.Setup(unit_disk, degree=6, grid=grid).solve(p, 0.3)

    cold = {case: solve(pb.build_grid(unit_disk, *case[0]), case[1]) for case in cases}
    grids = {shape: pb.build_grid(unit_disk, *shape) for shape in shapes}
    results = {}

    def work(k):
        for _ in range(3):
            for shape, p in cases[k:] + cases[:k]:
                sol = solve(grids[shape], p)
                results.setdefault((shape, p), []).append(sol)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=work, args=(3 * k,)) for k in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
            assert not thread.is_alive()
    finally:
        sys.setswitchinterval(interval)
    for case, want in cold.items():
        assert len(results[case]) == 12
        for got in results[case]:
            _assert_same_bits(got, want)
    assert solver._rule_caches.cache_info().currsize == 2 * solver._RULES


# the grid-sized arrays a workspace allocates for its descent
_WORKSPACE_ARRAYS = ("u", "u_try", "du", "base", "base_try", "terms", "terms_try", "omega")


def test_warm_solve_allocates_only_its_workspaces(unit_disk, monkeypatch):
    # each grid level allocates its arrays once and an iteration none, so a
    # solve on a grid whose coarse rule and bases exist peaks below its
    # workspaces' arrays plus one real grid array, cold in real arithmetic
    # and restarted in complex arithmetic
    grid = pb.build_grid(unit_disk, 128, 256)
    basis = _basis(unit_disk, 1.5, 24)

    def problem(z):
        return ExtremalProblem(basis, grid, 1.5, (point_constraint(basis, z, 1.0),))

    def cold(z):
        return minimize_pnorm(problem(z))

    def restarted(z):
        return _restart(problem(z), np.ones(basis.dimension))

    workspaces = []
    init = solver._Workspace.__init__

    def spied_init(ws, *args, **kwargs):
        init(ws, *args, **kwargs)
        workspaces.append(ws)

    monkeypatch.setattr(solver._Workspace, "__init__", spied_init)
    for solve, dtype in ((cold, float), (restarted, complex)):
        solve(0.3)  # builds the coarse grid, the bases and their tables
        workspaces.clear()
        tracemalloc.start()
        try:
            assert solve(0.31).coarse_iterations > 0
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert [ws.grid.weights.size for ws in workspaces] == [
            grid.weights.size // 16, grid.weights.size
        ]
        assert [ws.dtype for ws in workspaces] == [dtype, dtype]
        arrays = sum(getattr(ws, name).nbytes for ws in workspaces for name in _WORKSPACE_ARRAYS)
        real_grid_array = 8 * grid.weights.size  # 256 KiB
        assert peak < arrays + real_grid_array


def test_solve_fallbacks_are_counted(unit_disk, disk_grid, monkeypatch):
    # cold in real arithmetic and restarted in complex arithmetic
    prob = _problem(unit_disk, disk_grid, 1.5, 8, lambda b: (point_constraint(b, 0.3, 1.0),))
    start = np.ones(prob.basis.dimension)
    for solve, dtype in ((minimize_pnorm, float), (lambda prob: _restart(prob, start), complex)):
        clean = solve(prob)
        assert clean.solve_fallbacks == 0
        calls = []

        def failing(a, b):
            calls.append(a.dtype)
            raise np.linalg.LinAlgError("Singular matrix")

        with monkeypatch.context() as patch:
            patch.setattr(np.linalg, "solve", failing)
            sol = solve(prob)
        assert len(calls) > 1
        assert set(calls) == {np.dtype(dtype)}
        assert sol.solve_fallbacks == len(calls)
        assert pb.solution_record(sol)["solve_fallbacks"] == len(calls)
        assert abs(sol.objective - clean.objective) <= 1e-8 * clean.objective


def test_anderson_steps_are_counted(unit_disk, disk_grid):
    r = abs(0.3 + 0.1j)
    prob = _problem(unit_disk, disk_grid, 1.0, 24, lambda b: (point_constraint(b, r, 1.0),))
    sol = minimize_pnorm(prob)
    assert 0 < sol.anderson_steps <= sol.iterations
    assert pb.solution_record(sol)["anderson_steps"] == sol.anderson_steps
    # the disk closed form m_1 = pi (1 - |z|^2)^2, |z|^2 = 0.1
    assert abs(sol.objective - math.pi * 0.81) <= 1e-12 * math.pi * 0.81


def test_p4_metric_problem_monomial_minimizer(unit_disk, disk_grid):
    prob = _problem(
        unit_disk,
        disk_grid,
        4.0,
        8,
        lambda b: (point_constraint(b, 0.0, 0.0), derivative_constraint(b, 0.0, 1.0)),
    )
    sol = minimize_pnorm(prob)
    assert sol.converged
    assert math.isclose(sol.objective, (math.pi / 3) ** 0.25, rel_tol=1e-9)
    expected = np.zeros(9, dtype=complex)
    expected[1] = 1.0
    assert np.max(np.abs(sol.coeffs.coefficients - expected)) <= 1e-8


def test_p15_center_constant_minimizer(unit_disk, disk_grid):
    prob = _problem(
        unit_disk, disk_grid, 1.5, 8, lambda b: (point_constraint(b, 0.0, 1.0),)
    )
    sol = minimize_pnorm(prob)
    assert sol.converged
    assert math.isclose(sol.objective, math.pi ** (1 / 1.5), rel_tol=1e-9)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_p2_matches_least_norm_oracle(unit_disk, disk_grid, seed):
    rng = np.random.default_rng(seed)
    basis = _basis(unit_disk, 2.0, 10)
    dim = basis.dimension
    rows = rng.standard_normal((2, dim))
    targets = rng.standard_normal(2)
    prob = ExtremalProblem(
        basis, disk_grid, 2.0, tuple(zip(rows, targets))
    )
    sol = minimize_pnorm(prob)
    oracle_coeffs, oracle_obj = least_norm_coeffs(
        disk_grid, basis.exponents, rows, targets
    )
    assert abs(sol.objective - oracle_obj) <= 1e-8 * oracle_obj
    assert np.max(np.abs(sol.coeffs.coefficients - oracle_coeffs)) <= 1e-8 * max(
        1.0, np.max(np.abs(oracle_coeffs))
    )


# at p = 8 the relaxed first step 2/p can raise the objective, and only the
# Armijo backtracking keeps the descent monotone
@pytest.mark.parametrize("p", [1.0, 1.3, 2.0, 3.0, 4.0, 8.0])
def test_descent_and_feasibility(unit_disk, disk_grid, p, smoothed_objectives):
    prob = _problem(
        unit_disk, disk_grid, p, 10, lambda b: (point_constraint(b, abs(0.4 + 0.1j), 1.0),)
    )
    sol = minimize_pnorm(prob)
    # the p = 2 return runs no descent; every other solve descends on two
    # grids, and so does the same descent in complex arithmetic
    assert len(smoothed_objectives) == (0 if p == 2.0 else 2)
    complex_sol = _complex_levels(prob)
    assert len(smoothed_objectives) == (2 if p == 2.0 else 4)
    for values in smoothed_objectives.values():
        assert np.all(np.diff(values) <= 1e-14 * np.abs(values[1:]))
    assert sol.feasibility_residual <= 1e-10
    assert complex_sol.feasibility_residual <= 1e-10


def test_no_line_search_at_rounding_level(unit_disk, disk_grid, monkeypatch):
    # disk p = 3, degree 10, z = 0.45: the eps = 1e-10 stage once spent 22
    # trials, each a pass over the grid, on a step whose predicted decrease
    # the objective's sum cannot resolve
    prob = _problem(
        unit_disk, disk_grid, 3.0, 10, lambda b: (point_constraint(b, 0.45, 1.0),)
    )
    stages = []
    stage, trial, accept = solver._irls_stage, solver._Workspace.trial, solver._Workspace.accept

    def spied_stage(ws, *args):
        stages.append({"trials": 0, "steps": 0})
        return stage(ws, *args)

    def spied_trial(ws, *args):
        stages[-1]["trials"] += 1
        return trial(ws, *args)

    def spied_accept(ws):
        stages[-1]["steps"] += 1
        accept(ws)

    monkeypatch.setattr(solver, "_irls_stage", spied_stage)
    monkeypatch.setattr(solver._Workspace, "trial", spied_trial)
    monkeypatch.setattr(solver._Workspace, "accept", spied_accept)
    sol = minimize_pnorm(prob)
    assert sol.converged
    # 1e-6 and 1e-8 on the coarse grid, 1e-10 on the requested one, which
    # meets the duality gap
    assert len(stages) == 3
    for counts in stages:
        assert counts["trials"] <= 3 * max(counts["steps"], 1), stages


def _feasible_directions(prob, count, rng):
    """``count`` random unit vectors of raw coefficients in the null space of
    the constraint rows."""
    N = scipy.linalg.null_space(prob.constraint_matrix)
    x = rng.standard_normal((N.shape[1], count)) + 1j * rng.standard_normal((N.shape[1], count))
    d = N @ x
    return (d / np.linalg.norm(d, axis=0)).T


@pytest.mark.parametrize("p", [1.2, 1.5, 3.0])
@pytest.mark.parametrize("real", [True, False], ids=["real", "complex"])
@pytest.mark.parametrize("spec", ["disk:1", "annulus:0.5,1"])
def test_lower_bound_holds_at_every_feasible_point(spec, real, p):
    # Hölder: no feasible series has a grid p-norm below the lower bound,
    # the returned one included (its grid norm, by the dense Vandermonde, is
    # within rounding of the objective); the bound of a cold solve in real
    # arithmetic and of the same descent in complex arithmetic
    domain = pb.parse_domain(spec)
    grid = pb.build_grid(domain, 64, 128)
    basis = _basis(domain, p, 12)
    prob = ExtremalProblem(basis, grid, p, (point_constraint(basis, 0.6, 1.0),))
    sol = minimize_pnorm(prob) if real else _complex_levels(prob)
    V = vandermonde(grid, basis.exponents)
    a = sol.coeffs.coefficients
    lower = sol.lower_bound
    assert abs(lp_norm(grid, V @ a, p) - sol.objective) <= 1e-14 * sol.objective
    assert lower <= sol.objective * (1.0 + 1e-15)
    rng = np.random.default_rng(3)
    scale = np.linalg.norm(a)
    for step, d in zip(np.geomspace(1e-8, 1.0, 9), _feasible_directions(prob, 9, rng)):
        assert lp_norm(grid, V @ (a + step * scale * d), p) >= lower * (1.0 - 1e-14)


@pytest.mark.parametrize("p", [1.5, 3.0])
@pytest.mark.parametrize("real", [True, False], ids=["real", "complex"])
def test_certificate_away_from_the_minimizer_stays_below_the_minimum(unit_disk, disk_grid, real, p):
    # at points far from the minimizer the dual vector s u is far from
    # orthogonal to the slice; its IRLS-target form still bounds the minimum
    # from below, in real and in complex arithmetic
    prob = _problem(unit_disk, disk_grid, p, 10, lambda b: (point_constraint(b, 0.45, 1.0),))
    sol = minimize_pnorm(prob)
    assert sol.converged
    ws = solver._Workspace(prob, disk_grid, float if real else complex)
    t_min = prob.t_from_raw(sol.coeffs.coefficients)
    if real:
        t_min = t_min.real
    rng = np.random.default_rng(11)
    for size in (1e-3, 0.1, 1.0):
        noise = rng.standard_normal(t_min.size)
        if not real:
            noise = noise + 1j * rng.standard_normal(t_min.size)
        t = t_min + size * np.linalg.norm(t_min) * noise / np.linalg.norm(noise)
        ws.set_point(t, 1e-10)
        raw, lower = ws.certificate(t)
        assert raw ** (1.0 / p) > sol.objective
        assert lower <= sol.objective * (1.0 + 1e-14)


@pytest.mark.parametrize("p", [1.2, 1.5, 3.0, 4.0])
@pytest.mark.parametrize(
    "spec,n_min,r", [("disk:1", None, 0.45), ("punctured:1", -1, 0.5), ("annulus:0.5,1", None, 0.7)],
    ids=["disk", "punctured", "annulus"],
)
def test_converged_solves_have_a_small_duality_gap(spec, n_min, r, p):
    # cold in real arithmetic and the same descent in complex arithmetic; the
    # annulus at p <= 1.5 needs gap stages and certifies to _GAP_TOL, every
    # other solve to 1e-12 after the 1e-10 stage
    domain = pb.parse_domain(spec)
    grid = pb.build_grid(domain, 128, 256)
    basis = _basis(domain, p, 24, n_min)
    bound = solver._GAP_TOL if spec.startswith("annulus") and p <= 1.5 else 1e-12
    prob = ExtremalProblem(basis, grid, p, (point_constraint(basis, r, 1.0),))
    for sol in (minimize_pnorm(prob), _complex_levels(prob)):
        assert sol.converged
        assert -1e-15 <= sol.duality_gap <= bound
        assert sol.duality_gap == (sol.objective - sol.lower_bound) / sol.objective


def _requested_grid_passes(monkeypatch, prob, solve=minimize_pnorm):
    """Stages, accepted steps, Gram passes and raw objectives of ``solve`` of
    ``prob`` on its requested grid, counted by spies."""
    counts = dict.fromkeys(("stages", "steps", "grams", "raw"), 0)
    stage, accept = solver._irls_stage, solver._Workspace.accept
    reduced_system, raw_objective = solver._Workspace.reduced_system, solver._Workspace.raw_objective

    def counting(name, method):
        def spied(ws, *args):
            if ws.grid is prob.grid:
                counts[name] += 1
            return method(ws, *args)

        return spied

    monkeypatch.setattr(solver, "_irls_stage", counting("stages", stage))
    monkeypatch.setattr(solver._Workspace, "accept", counting("steps", accept))
    monkeypatch.setattr(solver._Workspace, "reduced_system", counting("grams", reduced_system))
    monkeypatch.setattr(solver._Workspace, "raw_objective", counting("raw", raw_objective))
    sol = solve(prob)
    monkeypatch.undo()
    return sol, counts


@pytest.mark.parametrize("real", [True, False], ids=["real", "complex"])
def test_certified_solve_runs_one_stage_on_the_requested_grid(unit_disk, disk_grid, monkeypatch, real):
    # disk p = 3: the 1e-10 stage meets the gap, so the requested grid runs
    # it alone and takes one raw objective; that stage stops before a step,
    # so the certificate reuses its system: one Gram pass on that grid, in
    # real and in complex arithmetic
    prob = _problem(unit_disk, disk_grid, 3.0, 10, lambda b: (point_constraint(b, 0.45, 1.0),))
    sol, counts = _requested_grid_passes(monkeypatch, prob, minimize_pnorm if real else _complex_levels)
    assert sol.converged and sol.duality_gap <= 1e-12
    assert counts == {"stages": 1, "steps": 0, "grams": 1, "raw": 1}
    assert sol.iterations == sol.coarse_iterations > 0


def test_gap_stages_run_until_the_gap_is_met(monkeypatch):
    # annulus p = 1.5 at 0.7: the 1e-10 stage leaves a gap of about 1e-9, so
    # the requested grid runs gap stages, one certificate (one raw
    # objective) after each, until the gap meets _GAP_TOL
    domain = pb.parse_domain("annulus:0.5,1")
    basis = _basis(domain, 1.5, 24)
    prob = ExtremalProblem(
        basis, pb.build_grid(domain, 128, 256), 1.5, (point_constraint(basis, 0.7, 1.0),)
    )
    sol, counts = _requested_grid_passes(monkeypatch, prob)
    assert sol.converged and sol.duality_gap <= solver._GAP_TOL
    assert 1 < counts["stages"] <= 1 + len(solver._GAP_STAGES)
    assert counts["raw"] == counts["stages"]


def test_solutions_at_p_up_to_one_carry_no_certificate(unit_disk, disk_grid):
    # p = 1 cold (real arithmetic) and restarted, and p < 1 cold and restarted
    prob = _problem(unit_disk, disk_grid, 1.0, 8, lambda b: (point_constraint(b, 0.3, 1.0),))
    cold = minimize_pnorm(prob)
    started = _restart(prob, cold.coeffs.coefficients)
    below_one = _problem(unit_disk, disk_grid, 0.8, 8, lambda b: (point_constraint(b, 0.3, 1.0),))
    cold_below = minimize_pnorm(below_one)
    restarts = multistart_minimize(below_one, cold.coeffs.coefficients, restarts=3, seed=0)
    for sol in (cold, started, cold_below, *restarts):
        assert sol.lower_bound is None and sol.duality_gap is None
        record = pb.solution_record(sol)
        assert record["lower_bound"] is None and record["duality_gap"] is None


@pytest.mark.parametrize(
    "z, want",
    [(0.7, 3.343131897790549), (0.6 + 0.2j, 5.339707095558469), (0.85j, 5.013376276493372)],
)
def test_grid_free_k4_lies_in_the_certified_bracket(annulus, z, want):
    # annulus 0.5..1, degree 24 (D = 49): the grid-free K_4 must lie in
    # [U^-4, L^-4] of the default grid's solve, up to a slack of 5e-14
    # relative for the grid's quadrature and rounding error on the smooth
    # |f|^4 (it reads 7e-15 to 1.2e-14 above L^-4 here)
    setup = pb.Setup(annulus, degree=24)
    k4 = grid_free_k4(0.5, 1.0, setup.basis(4.0).exponents, abs(z))
    assert abs(k4 - want) <= 1e-13 * want
    sol = setup.solve(4.0, z)
    assert sol.converged
    slack = 5e-14
    assert sol.objective**-4 * (1.0 - slack) <= k4 <= sol.lower_bound**-4 * (1.0 + slack)


@pytest.mark.parametrize("degree", [8, 16])
@pytest.mark.parametrize("r", [0.3, 0.6])
def test_punctured_k4_is_the_disk_k4_and_brackets_the_grid_free_k4(
    unit_disk, punctured, r, degree
):
    # at p = 4 the pole z^-1 is not admissible (|n| p >= 2), so the punctured
    # disk with n_min = -1 solves the disk's problem on an equal grid, bit
    # for bit; and the grid-free K_4 lies in [U^-4, L^-4] of that solve, up to
    # the slack of the annulus bracket test
    disk = pb.Setup(unit_disk, degree=degree)
    holed = pb.Setup(punctured, degree=degree, n_min=-1)
    exponents = disk.basis(4.0).exponents
    assert holed.basis(4.0).exponents == exponents == tuple(range(degree + 1))
    want, sol = disk.solve(4.0, r), holed.solve(4.0, r)
    assert sol.converged
    _assert_same_bits(sol, want)
    k4 = grid_free_k4(0.0, 1.0, exponents, r)
    slack = 5e-14
    assert sol.objective**-4 * (1.0 - slack) <= k4 <= sol.lower_bound**-4 * (1.0 + slack)


def test_specs_differing_only_in_p_share_one_set_of_tables(unit_disk, monkeypatch, fresh_rules):
    # the p-free tables are built once per grid level and exponent set, and
    # every p takes its own column scaling of them, built once per grid level
    # and spec and read by both arithmetics: cold solves at four p, p = 1
    # restarts from the cold p = 1 solve, and grid values on its spec
    built, scalings, workspaces = [], [], []
    init, scaling = solver._BasisTables.__init__, solver._BasisTables.scaling
    workspace_init = solver._Workspace.__init__

    def spied_init(tables, *args):
        init(tables, *args)
        built.append(tables)

    def spied_scaling(tables, col_norms):
        scalings.append(scaling(tables, col_norms))
        return scalings[-1]

    def spied_workspace_init(ws, problem, grid, dtype=complex):
        workspace_init(ws, problem, grid, dtype)
        workspaces.append((ws, problem.basis))

    monkeypatch.setattr(solver._BasisTables, "__init__", spied_init)
    monkeypatch.setattr(solver._BasisTables, "scaling", spied_scaling)
    monkeypatch.setattr(solver._Workspace, "__init__", spied_workspace_init)
    setup = pb.Setup(unit_disk, degree=8)
    for p in (1.0, 1.5, 2.0, 3.0):
        assert setup.solve(p, 0.4).converged
        assert setup.solve(p, 0.3j).converged
    problem = setup.problem(1.0, 0.4, "K_p")
    start = setup.solve(1.0, 0.4).coeffs.coefficients
    assert multistart_minimize(problem, start, restarts=2, seed=0)
    solver.grid_values(problem, start)
    cache = solver._grid_cache(setup.grid)
    coarse = solver._grid_cache(cache.coarse_grid)
    # the p = 2 return takes no grid level, so no coarse scaling
    levels = [(cache, (1.0, 1.5, 2.0, 3.0)), (coarse, (1.0, 1.5, 3.0))]
    want = [level.scaling(setup.basis(p)) for level, ps in levels for p in ps]
    assert sorted(map(id, scalings)) == sorted(map(id, want))
    assert not np.array_equal(want[1][0], want[3][0])
    # every workspace reads the cached scaling of its grid level and spec
    for ws, spec in workspaces:
        radial, gram_scale, weight_gram = solver._grid_cache(ws.grid).scaling(spec)
        assert ws.radial is radial and ws._gram_scale is gram_scale
        assert ws.weight_gram is weight_gram
    for grid in (setup.grid, cache.coarse_grid):
        dtypes = {ws.dtype for ws, spec in workspaces if ws.grid is grid and spec.p == 1.0}
        assert dtypes == {float, complex}
    # one set on the requested grid and one on its coarse rule
    exponents = setup.basis(1.5).exponents
    assert all(setup.basis(p).exponents == exponents for p in (1.0, 2.0, 3.0))
    assert sorted(map(id, built)) == sorted(map(id, [cache.tables(exponents), coarse.tables(exponents)]))


def test_a_grid_keeps_the_tables_and_bases_of_at_most_the_bound(unit_disk):
    # more exponent sets and basis specs than the bound, on one grid
    grid = pb.build_grid(unit_disk, 16, 32)
    for degree in range(2, solver._RULES + 4):
        for p in (1.5, 3.0):
            basis = pb.Setup(unit_disk, degree=degree, grid=grid).basis(p)
            problem = ExtremalProblem(basis, grid, p, (point_constraint(basis, 0.3),))
            assert minimize_pnorm(problem).converged
    cache = solver._grid_cache(grid)
    assert cache.tables.cache_info().currsize == solver._RULES
    assert cache.scaling.cache_info().currsize == solver._RULES


def test_solves_after_their_grid_cache_was_evicted_keep_their_bits(unit_disk, fresh_rules):
    # K_p and B_p on a grid whose cache, and its coarse rule's, were evicted
    # by solves on 2 * _RULES + 1 other grids and then rebuilt
    grid = pb.build_grid(unit_disk, 64, 128)
    setup = pb.Setup(unit_disk, degree=8, grid=grid)
    problems = [setup.problem(p, 0.4, kind) for p in (1.5, 2.0, 3.0) for kind in ("K_p", "B_p")]
    first = solver._grid_cache(grid)
    want = [minimize_pnorm(prob) for prob in problems]
    for k in range(2 * solver._RULES + 1):
        other = pb.build_grid(unit_disk, 16 + 2 * k, 32)
        assert pb.Setup(unit_disk, degree=4, grid=other).solve(1.5, 0.3).converged
    assert solver._grid_cache(grid) is not first
    for prob, sol in zip(problems, want):
        assert sol.converged
        _assert_same_bits(minimize_pnorm(prob), sol)


def test_rule_caches_keep_no_grid_a_caller_built(unit_disk, fresh_rules):
    # a grid a caller built shares the cache of its rule with every other
    # grid of that rule, and once the caller drops it, nothing keeps it alive
    grid = pb.build_grid(unit_disk, 64, 128)
    assert solver._grid_cache(grid) is solver._grid_cache(pb.build_grid(unit_disk, 64, 128))
    setup = pb.Setup(unit_disk, degree=8, grid=grid)
    assert setup.solve(1.5, 0.4).converged
    problem = setup.problem(1.0, 0.4, "K_p")
    assert multistart_minimize(problem, setup.solve(1.0, 0.4).coeffs.coefficients, restarts=2, seed=0)
    assert grid.weights.size == 64 * 128
    dropped = weakref.ref(grid)
    del grid, setup, problem
    gc.collect()
    assert dropped() is None
    assert solver._rule_caches.cache_info().currsize == 2


@pytest.mark.parametrize("p", [1.5, 3.0])
def test_nested_basis_monotonicity(unit_disk, disk_grid, p):
    objectives = []
    for degree in (4, 8, 16):
        prob = _problem(
            unit_disk, disk_grid, p, degree, lambda b: (point_constraint(b, 0.5, 1.0),)
        )
        objectives.append(minimize_pnorm(prob).objective)
    for larger, smaller in zip(objectives, objectives[1:]):
        assert smaller <= larger * (1.0 + 1e-9)


@pytest.mark.parametrize("p", [1.3, 2.0, 3.5])
def test_smoothed_gradient_matches_finite_differences(unit_disk, disk_grid, p):
    # the gradient the line search takes, p (A t - rhs) at the IRLS weights
    # of t, against central differences of the smoothed objective
    rng = np.random.default_rng(42)
    basis = _basis(unit_disk, p, 6)
    prob = ExtremalProblem(
        basis, disk_grid, p, (point_constraint(basis, 0.2, 1.0),)
    )
    base = minimize_pnorm(prob).coeffs.coefficients
    h = 1e-6
    ws = solver._Workspace(prob, disk_grid)
    t_base = prob.t_from_raw(base)
    size = t_base.size
    for _ in range(8):
        t = t_base + 0.5 * (rng.standard_normal(size) + 1j * rng.standard_normal(size))
        ws.set_point(t, 1e-4)
        A, rhs = ws.reduced_system(ws.irls_weights())
        grad = p * (A @ t - rhs)
        d = rng.standard_normal(size) + 1j * rng.standard_normal(size)
        d /= np.linalg.norm(d)
        fd = (ws.set_point(t + h * d, 1e-4) - ws.set_point(t - h * d, 1e-4)) / (2 * h)
        analytic = float(np.real(np.vdot(grad, d)))
        assert abs(fd - analytic) <= 1e-5 * max(1.0, abs(analytic))


def test_multistart_p09_collapses_to_constant(unit_disk, disk_grid):
    prob = _problem(
        unit_disk, disk_grid, 0.9, 8, lambda b: (point_constraint(b, 0.0, 1.0),)
    )
    sols = multistart_minimize(prob, _p1_start(prob), restarts=8, seed=0)
    assert sols
    expected = np.zeros(9, dtype=complex)
    expected[0] = 1.0
    target = math.pi ** (1 / 0.9)
    for sol in sols:
        assert np.max(np.abs(sol.coeffs.coefficients - expected)) <= 1e-4
        assert abs(sol.objective - target) <= 1e-6 * target


def test_multistart_p1_objectives_agree(unit_disk, disk_grid):
    prob = _problem(
        unit_disk, disk_grid, 1.0, 8, lambda b: (point_constraint(b, 0.3, 1.0),)
    )
    sols = multistart_minimize(prob, minimize_pnorm(prob).coeffs.coefficients, restarts=4, seed=0)
    best = sols[0].objective
    # convexity: every located optimum is the same one
    for sol in sols:
        assert abs(sol.objective - best) <= 1e-8 * best


def test_multistart_single_restart_is_single_descent(unit_disk, disk_grid):
    prob = _problem(
        unit_disk, disk_grid, 0.8, 6, lambda b: (point_constraint(b, 0.0, 1.0),)
    )
    sols = multistart_minimize(prob, _p1_start(prob), restarts=1, seed=0)
    assert len(sols) == 1


def _every_restart_refined(prob, base, restarts, seed):
    """The survivors of ``multistart_minimize`` from ``base`` when every
    restart runs both grid levels from its start (``_restart``): the same
    starts, converged filter and 1e-4 coefficient dedupe, without the coarse
    dedupe."""
    scale = 0.5 * max(1.0, float(np.linalg.norm(base)))
    starts = [base]
    for k in range(1, restarts):
        rng = np.random.default_rng([seed, k])
        noise = rng.standard_normal(base.size) + 1j * rng.standard_normal(base.size)
        starts.append(base + scale * noise / math.sqrt(base.size))
    runs = [_restart(prob, start) for start in starts]
    survivors = []
    for sol in sorted((s for s in runs if s.converged), key=lambda s: s.objective):
        a = sol.coeffs.coefficients
        if all(
            np.linalg.norm(a - b) / max(1.0, np.linalg.norm(a), np.linalg.norm(b)) > 1e-4
            for b in (kept.coeffs.coefficients for kept in survivors)
        ):
            survivors.append(sol)
    return survivors


@pytest.mark.parametrize(
    "p, seed, shape, refined",
    [
        # every restart meets the others on the coarse grid: one refinement
        (0.7, 0, (128, 256), range(1, 2)),
        # the four survivors of each seed come from several coarse end points
        *((0.3, seed, (128, 256), range(2, 16)) for seed in range(4)),
        # no coarse level, so nothing to deduplicate: every restart is refined
        (0.7, 0, (32, 64), range(16, 17)),
    ],
    ids=["p0.7", "p0.3-seed0", "p0.3-seed1", "p0.3-seed2", "p0.3-seed3", "p0.7-32x64"],
)
def test_multistart_refines_each_coarse_end_point_once(unit_disk, monkeypatch, p, seed, shape, refined):
    # refining one restart per cluster of coarse end points keeps the
    # survivors, and the spread d_p they give, of refining every restart
    setup = pb.Setup(unit_disk, degree=8, grid=pb.build_grid(unit_disk, *shape))
    prob = setup.problem(p, 0.0, "K_p")
    start = setup.solve(1.0, 0.0).coeffs.coefficients
    # one requested-grid workspace per refined restart
    built = []
    init = solver._Workspace.__init__

    def spied_init(ws, problem, grid, *args):
        init(ws, problem, grid, *args)
        built.append(grid is prob.grid and problem.p == p)

    monkeypatch.setattr(solver._Workspace, "__init__", spied_init)
    got = multistart_minimize(prob, start, restarts=16, seed=seed)
    assert sum(built) in refined
    monkeypatch.undo()
    want = _every_restart_refined(prob, start, 16, seed)
    assert len(got) == len(want) > 0
    for a, b in zip(got, want):
        assert abs(a.objective - b.objective) <= 1e-12 * b.objective
        assert np.max(np.abs(a.coeffs.coefficients - b.coeffs.coefficients)) <= 1e-10
    spread = analysis._pairwise_spread
    assert spread(prob, got) == pytest.approx(spread(prob, want), rel=1e-9)


def test_kkt_residual_certifies_p2_solution(unit_disk, disk_grid):
    prob = _problem(
        unit_disk, disk_grid, 2.0, 8, lambda b: (point_constraint(b, 0.3, 1.0),)
    )
    a = minimize_pnorm(prob).coeffs.coefficients
    assert _kkt(prob, a) <= 1e-8
    perturbed = a.copy()
    perturbed[3] += 0.1
    assert _kkt(prob, perturbed) > 1e-3


def test_kkt_residual_certifies_p4_metric_solution(unit_disk, disk_grid):
    prob = _problem(
        unit_disk,
        disk_grid,
        4.0,
        8,
        lambda b: (point_constraint(b, 0.0, 0.0), derivative_constraint(b, 0.0, 1.0)),
    )
    sol = minimize_pnorm(prob)
    assert _kkt(prob, sol.coeffs.coefficients) <= 1e-6


def test_dependent_constraints_rejected(unit_disk, disk_grid):
    basis = _basis(unit_disk, 2.0, 6)
    row, _ = point_constraint(basis, 0.3, 1.0)
    with pytest.raises(InfeasibleConstraintsError):
        ExtremalProblem(basis, disk_grid, 2.0, ((row, 1.0), (row, 2.0)))


@pytest.mark.parametrize(
    "entry,target",
    [(math.nan, 1.0), (math.inf, 1.0), (1.0, math.nan), (1.0, complex(0.0, math.inf))],
    ids=["row-nan", "row-inf", "target-nan", "target-inf"],
)
def test_non_finite_constraints_rejected(unit_disk, disk_grid, entry, target):
    basis = _basis(unit_disk, 2.0, 6)
    row = np.ones(basis.dimension, dtype=complex)
    row[2] = entry
    with pytest.raises(ValueError, match="must be finite"):
        ExtremalProblem(basis, disk_grid, 2.0, ((row, target),))


def test_one_svd_per_problem(unit_disk, disk_grid, monkeypatch):
    # the feasible slice is built once, when the problem is, and every solve
    # of the problem, on either grid, multistart restarts included, reuses it
    calls = []

    def spied(svd):
        def wrapped(*args, **kwargs):
            calls.append(svd)
            return svd(*args, **kwargs)

        return wrapped

    # the public name and the module global that numpy's own helpers call
    for module in (np.linalg, np.linalg._linalg):
        monkeypatch.setattr(module, "svd", spied(np.linalg.svd))
    prob = _problem(
        unit_disk, disk_grid, 1.5, 10, lambda b: (point_constraint(b, 0.4, 1.0),)
    )
    assert len(calls) == 1
    sol = minimize_pnorm(prob)
    assert sol.coarse_iterations > 0
    _restart(prob, sol.coeffs.coefficients)
    assert len(calls) == 1
    below_one = _problem(unit_disk, disk_grid, 0.9, 10, lambda b: (point_constraint(b, 0.4, 1.0),))
    assert len(calls) == 2
    # the restarts take their start as given and build no problem
    multistart_minimize(below_one, sol.coeffs.coefficients, restarts=3, seed=0)
    assert len(calls) == 2


def test_grid_levels_share_the_feasible_slice(unit_disk, disk_grid, monkeypatch):
    prob = _problem(
        unit_disk, disk_grid, 1.5, 10, lambda b: (point_constraint(b, 0.4, 1.0),)
    )
    seen = []
    init = solver._Workspace.__init__

    def spied_init(ws, problem, grid, *args):
        init(ws, problem, grid, *args)
        seen.append((grid, ws.a0, ws.N))

    monkeypatch.setattr(solver._Workspace, "__init__", spied_init)
    sol = minimize_pnorm(prob)
    a0, N = prob.feasible_slice
    assert [grid.weights.size for grid, _, _ in seen] == [
        disk_grid.weights.size // 16, disk_grid.weights.size
    ]
    assert all(ws_a0 is a0 and ws_N is N for _, ws_a0, ws_N in seen)
    assert not (a0.flags.writeable or N.flags.writeable)
    # N is orthonormal, a0 orthogonal to it, and t round-trips through raw coefficients
    assert np.allclose(N.conj().T @ N, np.eye(N.shape[1]), rtol=0, atol=1e-14)
    assert np.max(np.abs(N.conj().T @ a0)) <= 1e-15
    a = sol.coeffs.coefficients
    back = prob.raw_from_t(prob.t_from_raw(a))
    assert np.max(np.abs(back - a)) <= 1e-14 * np.max(np.abs(a))


def test_too_many_constraints_rejected(unit_disk, disk_grid):
    basis = BasisSpec((0, 1), unit_disk, 2.0)
    cons = (
        point_constraint(basis, 0.1, 1.0),
        point_constraint(basis, 0.2, 1.0),
    )
    with pytest.raises(ValueError):
        ExtremalProblem(basis, disk_grid, 2.0, cons)


@pytest.mark.parametrize(
    "spec, n_min, angles", [("disk:1", None, 16), ("disk:1", None, 24), ("annulus:0.5,1", -24, 48)]
)
def test_grid_with_too_few_angles_rejected(spec, n_min, angles):
    # exponents from n_min to 24: two of them are equal modulo K, and alias
    # on the K angles, unless K exceeds their span
    domain = pb.parse_domain(spec)
    basis = _basis(domain, 3.0, 24, n_min)
    span = basis.exponents[-1] - basis.exponents[0]
    cons = (point_constraint(basis, 0.7, 1.0),)
    with pytest.raises(ValueError, match=f"grid of {angles} angles .* spanning {span};"):
        ExtremalProblem(basis, pb.build_grid(domain, 8, angles), 3.0, cons)
    ExtremalProblem(basis, pb.build_grid(domain, 8, span + 1), 3.0, cons)


@pytest.mark.parametrize("spec", ["disk:2", "punctured:1", "annulus:0.5,1"])
def test_grid_on_another_domain_rejected(unit_disk, spec):
    basis = _basis(unit_disk, 2.0, 8)
    grid = pb.build_grid(pb.parse_domain(spec), 128, 256)
    with pytest.raises(ValueError, match="the grid is on .* but the basis on disk:1"):
        ExtremalProblem(basis, grid, 2.0, (point_constraint(basis, 0.7, 1.0),))


@pytest.mark.parametrize("p", [0.0, math.nan, math.inf])
def test_p_outside_zero_to_infinity_rejected(unit_disk, disk_grid, p):
    basis = BasisSpec((0, 1), unit_disk, 2.0)
    with pytest.raises(ValueError, match="finite"):
        ExtremalProblem(basis, disk_grid, p, (point_constraint(basis, 0.1, 1.0),))


def test_non_convergence_is_returned_not_raised(monkeypatch, unit_disk, disk_grid):
    monkeypatch.setattr(solver, "_MAX_ITERATIONS", 1)
    for p in (1.0, 1.3):
        prob = _problem(
            unit_disk, disk_grid, p, 10, lambda b: (point_constraint(b, 0.5, 1.0),)
        )
        sol = minimize_pnorm(prob)
        assert not sol.converged
        assert math.isfinite(sol.objective)


def test_multistart_validates_restarts_and_seed(unit_disk, disk_grid):
    prob = _problem(
        unit_disk, disk_grid, 0.8, 6, lambda b: (point_constraint(b, 0.0, 1.0),)
    )
    start = _p1_start(prob)
    with pytest.raises(ValueError, match="restarts"):
        multistart_minimize(prob, start, restarts=0, seed=0)
    with pytest.raises(ValueError, match="seed"):
        multistart_minimize(prob, start, restarts=2, seed=-1)


def test_solution_record_roundtrip(unit_disk, disk_grid):
    prob = _problem(
        unit_disk, disk_grid, 2.0, 6, lambda b: (point_constraint(b, 0.0, 1.0),)
    )
    sol = minimize_pnorm(prob)
    record = pb.solution_record(sol)
    assert set(record) == {
        "objective",
        "feasibility_residual",
        "lower_bound",
        "duality_gap",
        "iterations",
        "coarse_iterations",
        "converged",
        "solve_fallbacks",
        "anderson_steps",
    }
    assert record["coarse_iterations"] == 0
    assert record["solve_fallbacks"] == 0
    assert record["anderson_steps"] == 0  # the p = 2 return takes no step
    assert record["converged"] is True
