import cmath
import math
from types import SimpleNamespace

import numpy as np
import pytest

import pbergman as pb
from pbergman import analysis, solver
from pbergman.analysis import (
    DegenerateFitError,
    dp_estimate,
    fit_power_law,
    holder_exponent,
    hp_scaling_exponent,
    levi_form_log_kp,
    levi_metric_gap,
    limit_sweep,
)
from pbergman.kernel import mp_minimizer

from oracles import annulus_log_kernel_levi, quarter_laplacian

RADII = tuple(0.1 * 2.0**-k for k in range(6))
LEVI_DIRECTIONS = (1.0, cmath.exp(0.7j), 0.6 - 1.3j)


@pytest.fixture
def deg8(unit_disk, disk_grid):
    """A fresh degree-8 disk setup, with an empty cache, on each call."""
    return lambda: pb.Setup(unit_disk, degree=8, grid=disk_grid)


def planar_levi(setup, p, z, direction, step):
    """The Levi form by the planar 13-point stencil of tau -> log K_p(z + tau X)."""
    return quarter_laplacian(
        lambda tau: math.log(mp_minimizer(setup, p, z + tau * direction).k_p), step
    )


def test_radial_stencil_on_closed_forms(monkeypatch, unit_disk, disk_grid):
    # profiles fed in place of the solves: log K_p at the modulus |z| reads
    # profile(|z|)
    setup = pb.Setup(unit_disk, degree=1, grid=disk_grid)

    def levi(profile, z, direction=1.0):
        monkeypatch.setattr(
            analysis, "mp_minimizer",
            lambda _setup, p, point: SimpleNamespace(k_p=math.exp(profile(abs(point)))),
        )
        return levi_form_log_kp(setup, 2.0, z, direction)

    # harmonic: zero off the centre, and a constant at it
    assert abs(levi(math.log, 0.5)) <= 1e-6
    assert abs(levi(lambda r: 1.0, 0.0)) <= 1e-6
    # |tau|^2: the Levi form is |X|^2
    for z in (0.0, 0.5):
        assert abs(levi(lambda r: r**2, z, 0.6 - 1.3j) - abs(0.6 - 1.3j) ** 2) <= 1e-6
    # disk log-kernel profile, 2 |X|^2 / (1 - r^2)^2 at every r
    log_k = lambda r: -math.log(math.pi) - 2.0 * math.log(1.0 - r**2)
    for r in (0.0, 0.005, 0.5):
        for direction in LEVI_DIRECTIONS:
            exact = 2.0 * abs(direction) ** 2 / (1.0 - r**2) ** 2
            assert abs(levi(log_k, r * cmath.exp(0.4j), direction) - exact) <= 1e-6


@pytest.mark.parametrize("p", [2.0, 4.0])
def test_levi_form_at_center(disk16, p):
    value = levi_form_log_kp(disk16, p, 0.0)
    assert abs(value - 2.0) <= 1e-3


@pytest.mark.parametrize("p", [1.0, 1.5, 2.0, 4.0])
def test_levi_form_at_center_is_the_planar_stencil(disk16, p):
    # at the centre the radial stencil reads the moduli of the planar one and
    # gives its value to the bit, with no solve of its own
    for direction in LEVI_DIRECTIONS:
        for step in (1e-2, 3e-3):
            planar = planar_levi(disk16, p, 0j, direction, step)
            solves = len(disk16.cache)
            assert levi_form_log_kp(disk16, p, 0.0, direction, step) == planar
            assert len(disk16.cache) == solves


def test_levi_form_off_center(disk16):
    value = levi_form_log_kp(disk16, 2.0, 0.5)
    assert abs(value - 2.0 / 0.75**2) <= 5e-3


@pytest.mark.parametrize("r, rel_tol", [(0.3, 1e-9), (0.5, 1e-9), (0.8, 2e-6)])
def test_levi_form_off_center_against_planar_stencil(unit_disk, disk_grid, r, rel_tol):
    # the two stencils differ by their O(step^6) errors, 4e-9 relative at
    # r = 0.8; the truncation of K_2 at degree 48 is 1.3e-6 relative there
    z = r * cmath.exp(0.4j)
    for direction in LEVI_DIRECTIONS:
        setup = pb.Setup(unit_disk, degree=48, grid=disk_grid)
        exact = 2.0 * abs(direction) ** 2 / (1.0 - r**2) ** 2
        value = levi_form_log_kp(setup, 2.0, z, direction)
        assert len(setup.cache) == 7
        planar = planar_levi(setup, 2.0, z, direction, analysis.DEFAULT_FD_STEP)
        assert abs(value - planar) <= 1e-8 * exact
        assert abs(value - exact) <= rel_tol * exact


@pytest.mark.parametrize("p", [1.5, 4.0])
def test_levi_form_off_center_against_planar_stencil_at_p(disk16, p):
    for r in (0.3, 0.5, 0.8):
        z = r * cmath.exp(0.4j)
        value = levi_form_log_kp(disk16, p, z)
        planar = planar_levi(disk16, p, z, 1.0, analysis.DEFAULT_FD_STEP)
        assert abs(value - planar) <= 1e-5 * planar


@pytest.mark.parametrize("r", [0.62, 0.75, 0.88])
def test_levi_form_on_annulus_matches_closed_form(annulus, r):
    # K_2 of the degree-24 basis under the grid norm is the closed form to
    # about 1e-13; what is left is the stencil's truncation error, 2.5e-8
    # relative at r = 0.62 and below it elsewhere
    setup = pb.Setup(annulus, degree=24)
    exact = annulus_log_kernel_levi(r, 0.5, 1.0, 24)
    assert abs(levi_form_log_kp(setup, 2.0, r) - exact) <= 1e-7 * exact


def test_levi_margin_accounts_for_stencil(disk16):
    with pytest.raises(pb.BoundaryMarginError):
        levi_form_log_kp(disk16, 2.0, 0.93, step=1e-2)
    # a non-finite point is not a margin violation
    for z in (math.nan, math.inf):
        with pytest.raises(ValueError, match=r"^point .* is not finite$"):
            levi_form_log_kp(disk16, 2.0, z)


def test_levi_stencil_may_not_reach_the_pole_of_a_punctured_disk(unit_disk):
    # with a z^-1 term K_p is no even, smooth function of the modulus at 0, so
    # a stencil reaching the puncture read -54.16 at z = 0.015; without poles
    # the crossing is valid and reads the disk's profile
    punctured = pb.Domain("punctured_disk", 1.0)

    def levi(domain, n_min, z):
        grid = pb.build_grid(domain, 64, 128)
        setup = pb.Setup(domain, degree=12, n_min=n_min, grid=grid, margin=0.0)
        return levi_form_log_kp(setup, 1.5, z, step=1e-2)

    with pytest.raises(pb.BoundaryMarginError, match="pole"):
        levi(punctured, -1, 0.015)
    assert math.isfinite(levi(punctured, -1, 0.03))
    assert levi(punctured, 0, 0.015) == levi(unit_disk, None, 0.015)


@pytest.mark.parametrize(
    "p,expected",
    [(1.0, -0.25), (4.0, 2.0 - math.sqrt(3.0))],
)
def test_gap_values(disk16, p, expected):
    record = levi_metric_gap(disk16, p)
    assert abs(record.gap - expected) <= 2e-3
    assert record.gap == record.levi - record.b_p_squared


def test_gap_vanishes_at_p2(disk16):
    record = levi_metric_gap(disk16, 2.0)
    assert abs(record.gap) <= 2e-3


def test_gap_requires_disk(annulus):
    with pytest.raises(ValueError):
        levi_metric_gap(pb.Setup(annulus), 2.0)


@pytest.mark.parametrize("alpha", [0.5, 1.0, 2.0])
def test_fit_power_law_recovers_synthetic_exponent(alpha):
    radii = np.logspace(-3, -1, 7)
    deltas = 0.37 * radii**alpha
    slope, intercept, r2 = fit_power_law(radii, deltas)
    assert abs(slope - alpha) <= 1e-6
    assert abs(math.exp(intercept) - 0.37) <= 1e-6
    assert r2 >= 1.0 - 1e-12


@pytest.mark.parametrize(
    "radii, deltas, error",
    [
        ([0.1, 0.01], [1e-12, 1e-13], DegenerateFitError),  # below the noise floor
        ([0.1, 0.1], [1.0, 2.0], DegenerateFitError),  # one distinct radius
        ([0.1, 0.1, 0.01], [1.0, 2.0, 1e-12], DegenerateFitError),
        ([-1.0, 0.1], [1.0, 2.0], ValueError),
        ([0.0, 0.1], [1.0, 2.0], ValueError),
        ([math.inf, 0.1], [1.0, 2.0], ValueError),
        ([math.nan, 0.1], [1.0, 2.0], ValueError),
        ([0.1, 0.01], [math.inf, 1e-3], ValueError),
        ([0.1, 0.01], [math.nan, 1e-3], ValueError),
        ([0.1, 0.01], [-1e-3, 1e-3], ValueError),
    ],
    ids=[
        "noise-floor", "repeated-radius", "repeated-radius-above-floor", "negative-radius",
        "zero-radius", "inf-radius", "nan-radius", "inf-delta", "nan-delta", "negative-delta",
    ],
)
def test_fit_power_law_rejects(radii, deltas, error):
    with pytest.raises(error) as info:
        fit_power_law(radii, deltas)
    # a bad input is not reported as a degenerate fit
    assert (info.type is DegenerateFitError) == (error is DegenerateFitError)


def test_holder_slope_at_p2(disk16):
    fit = holder_exponent(disk16, 2.0, 0.2, 0.4, RADII)
    assert abs(fit.slope - 1.0) <= 0.1
    assert fit.r_squared >= 0.99


def test_holder_rejects_single_radius(disk16):
    with pytest.raises(DegenerateFitError):
        holder_exponent(disk16, 2.0, 0.2, 0.4, [0.1])


def test_holder_rejects_narrow_span(disk16):
    with pytest.raises(ValueError):
        holder_exponent(disk16, 2.0, 0.2, 0.4, [0.1, 0.05])


def test_holder_requires_p_above_one(disk16):
    with pytest.raises(ValueError):
        holder_exponent(disk16, 1.0, 0.2, 0.4, RADII)


def test_hp_scaling_slope_at_p2(disk16):
    fit = hp_scaling_exponent(disk16, 2.0, 0.3, RADII)
    assert abs(fit.slope - 2.0) <= 0.1
    assert fit.slope >= 1.9


def test_hp_scaling_degenerate_at_zero_radius_probes(disk16):
    # probes at w = z make every delta vanish below the noise floor
    with pytest.raises(DegenerateFitError):
        hp_scaling_exponent(disk16, 2.0, 0.3, [1e-30, 1e-32])


def test_dp_estimate_near_one_is_tiny(deg8):
    d_p, sols = dp_estimate(deg8(), 0.99, 0.0, restarts=6, seed=0)
    assert d_p < 1e-3
    assert sols


def test_dp_estimate_single_restart_is_zero(deg8):
    d_p, sols = dp_estimate(deg8(), 0.7, 0.0, restarts=1, seed=0)
    assert d_p == 0.0
    assert len(sols) == 1


def test_dp_estimate_monotone_in_restarts(deg8):
    values = []
    for restarts in (2, 4, 8):
        d_p, _ = dp_estimate(deg8(), 0.7, 0.0, restarts=restarts, seed=0)
        values.append(d_p)
    assert values[0] <= values[1] + 1e-12
    assert values[1] <= values[2] + 1e-12


def test_dp_estimate_survivors_meet_the_constraint_at_z(deg8):
    # posed at |z|, the survivors come back rotated to z: f(z) = 1, with the
    # objectives and the spread of the survivors at |z|
    z = 0.3 - 0.4j
    turned, at_z = dp_estimate(deg8(), 0.7, z, restarts=4, seed=0)
    real, at_r = dp_estimate(deg8(), 0.7, abs(z), restarts=4, seed=0)
    assert turned == real
    assert len(at_z) == len(at_r) > 0
    for got, want in zip(at_z, at_r):
        assert abs(pb.evaluate(got.coeffs, z) - 1.0) <= 1e-10
        assert abs(pb.evaluate(want.coeffs, abs(z)) - 1.0) <= 1e-10
        assert got.objective == want.objective
        exponents = np.array(want.coeffs.basis.exponents)
        rotated = want.coeffs.coefficients * np.conj(z / abs(z)) ** exponents
        assert np.array_equal(got.coeffs.coefficients, rotated)


def test_dp_estimate_validates_range(deg8):
    with pytest.raises(ValueError):
        dp_estimate(deg8(), 1.5, 0.0, restarts=2, seed=0)


def test_limit_sweep_trend(deg8):
    record = limit_sweep(deg8(), 0.0, [0.8, 0.95], restarts=4, seed=0)
    assert record.statuses == ("ok", "ok")
    for k_p in record.k_p_values:
        assert abs(k_p - 1.0 / math.pi) <= 1e-3 / math.pi
    assert record.d_p_estimates[-1] <= record.d_p_estimates[0] + 1e-12


def test_limit_sweep_at_p1_collapses(deg8):
    record = limit_sweep(deg8(), 0.0, [1.0], restarts=4, seed=0)
    assert record.d_p_estimates == (0.0,)


@pytest.mark.parametrize("seed", range(4))
@pytest.mark.parametrize(
    "p",
    [
        pytest.param(
            0.3, marks=pytest.mark.xfail(strict=True, reason="false spread, ROADMAP item 16")
        ),
        0.5,
        0.7,
    ],
)
def test_limit_sweep_at_center_has_no_spread(deg8, p, seed):
    # on the disk ||f||_p^p >= pi |f(0)|^p, with equality only for f = 1
    # (|f|^p is subharmonic), so the maximizer at z = 0 is unique: d_p = 0
    record = limit_sweep(deg8(), 0.0, [p], restarts=16, seed=seed)
    assert record.statuses == ("ok",)
    assert record.d_p_estimates == (0.0,)


def test_limit_sweep_repeats_exactly(deg8):
    first = limit_sweep(deg8(), 0.0, [0.9, 0.95], restarts=2, seed=0)
    second = limit_sweep(deg8(), 0.0, [0.9, 0.95], restarts=2, seed=0)
    assert first == second


def test_limit_rows_do_not_depend_on_the_phase_of_z(deg8):
    # K_p and the spread are rotation-invariant, so a row is posed at |z|:
    # the rows at 0.3i are those at 0.3, bit for bit, for the same seed
    ps = [0.7, 0.9, 1.0]
    turned = limit_sweep(deg8(), 0.3j, ps, restarts=4, seed=0)
    real = limit_sweep(deg8(), 0.3, ps, restarts=4, seed=0)
    assert turned.z == 0.3j and real.z == 0.3
    assert turned.statuses == real.statuses == ("ok",) * 3
    assert turned.k_p_values == real.k_p_values
    assert turned.d_p_estimates == real.d_p_estimates


def test_limit_sweep_solves_its_p1_start_once(monkeypatch, deg8):
    # every row starts its restarts from the one cached p = 1 solve at |z|,
    # the only cold solve of the sweep; the restarts run outside the cache
    calls = []
    minimize = solver.minimize_pnorm

    def counted(problem):
        calls.append(problem.p)
        return minimize(problem)

    for module in (solver, pb.kernel):
        monkeypatch.setattr(module, "minimize_pnorm", counted)
    setup = deg8()
    record = limit_sweep(setup, 0.3 - 0.4j, [0.7, 0.9, 1.0], restarts=4, seed=0)
    assert record.statuses == ("ok",) * 3
    assert list(setup.cache) == [(1.0, 0.5, "K_p")]
    assert calls == [1.0]


def test_limit_start_on_a_basis_with_a_pole_below_one(monkeypatch, punctured):
    # on the punctured disk with n_min = -2, z^-2 is admissible below p = 1
    # and not at 1: each row's restarts start from the p = 1 solve on the
    # p = 1 exponents, -1 .. 8, padded with a zero z^-2 coefficient
    starts = {}
    multistart = analysis.multistart_minimize

    def recording(problem, start, **restarts_and_seed):
        starts[problem.p] = start
        return multistart(problem, start, **restarts_and_seed)

    monkeypatch.setattr(analysis, "multistart_minimize", recording)
    setup = pb.Setup(punctured, degree=8, n_min=-2)
    record = limit_sweep(setup, 0.5, [0.8, 0.9], restarts=2, seed=0)
    assert record.statuses == ("ok", "ok")
    base = setup.cache[(1.0, 0.5, "K_p")]
    assert base.coeffs.basis.exponents == tuple(range(-1, 9))
    for p in (0.8, 0.9):
        assert setup.basis(p).exponents == tuple(range(-2, 9))
        assert starts[p][0] == 0.0
        assert np.array_equal(starts[p][1:], base.coeffs.coefficients)


def test_limit_sweep_restarts_pinned(monkeypatch, deg8):
    # K_p pinned from the Anderson-accelerated two-grid restarts.  Each pin
    # sits above the plain-IRLS value it replaced (``plain``), as a computed
    # K_p is a lower bound
    survivors = {}
    multistart = analysis.multistart_minimize

    def recording(problem, start, **restarts_and_seed):
        survivors[problem.p] = multistart(problem, start, **restarts_and_seed)
        return survivors[problem.p]

    monkeypatch.setattr(analysis, "multistart_minimize", recording)
    record = limit_sweep(deg8(), 0.3, [0.5, 0.7, 0.9, 1.0], restarts=4, seed=0)
    pinned = (
        0.3843629635234814, 0.3843841642461536, 0.3843855659263925, 0.38438569537577855
    )
    plain = (
        0.3843629634956888, 0.3843841642395342, 0.3843855659255055, 0.3843856953754118
    )
    assert record.statuses == ("ok",) * 4
    for k_p, want, below in zip(record.k_p_values, pinned, plain):
        assert abs(k_p - want) <= 1e-12 * want
        assert k_p > below
    assert survivors[0.7] and all(s.coarse_iterations > 0 for s in survivors[0.7])


def test_limit_sweep_validates_input(deg8):
    for p_list, restarts, seed in (([0.9, 0.8], 2, 0), ([1.5], 2, 0), ([0.9], 0, 0), ([0.9], 2, -1)):
        with pytest.raises(ValueError):
            limit_sweep(deg8(), 0.0, p_list, restarts=restarts, seed=seed)


def test_limit_sweep_rejects_margin_violation(monkeypatch, deg8):
    # a bad argument, not a failed row: it raises before the first solve
    def fail(*args, **kwargs):
        pytest.fail("limit_sweep solved before checking the margin")

    monkeypatch.setattr(analysis, "dp_estimate", fail)
    with pytest.raises(pb.BoundaryMarginError):
        limit_sweep(deg8(), 0.99, [0.9, 1.0], restarts=2, seed=0)


@pytest.mark.parametrize("error", [RuntimeError, np.linalg.LinAlgError])
def test_limit_sweep_rows_for_numerical_failures(monkeypatch, deg8, error):
    def fail(*args, **kwargs):
        raise error("no descent")

    monkeypatch.setattr(analysis, "dp_estimate", fail)
    record = limit_sweep(deg8(), 0.0, [0.9], restarts=2, seed=0)
    assert record.statuses == ("error: no descent",)


@pytest.mark.parametrize("error", [IndexError, TypeError])
def test_limit_sweep_propagates_defects(monkeypatch, deg8, error):
    def fail(*args, **kwargs):
        raise error("defect")

    monkeypatch.setattr(analysis, "dp_estimate", fail)
    with pytest.raises(error):
        limit_sweep(deg8(), 0.0, [0.9], restarts=2, seed=0)


def test_records_report_non_convergence(monkeypatch, deg8):
    radii = (0.1, 0.003)
    with monkeypatch.context() as stall:
        stall.setattr(solver, "_MAX_ITERATIONS", 1)
        assert not levi_metric_gap(deg8(), 1.0).converged
        assert not holder_exponent(deg8(), 1.5, 0.2, 0.4, radii, 2).converged
        assert not hp_scaling_exponent(deg8(), 1.5, 0.4, radii, 2).converged
    assert levi_metric_gap(deg8(), 1.0).converged
    assert holder_exponent(deg8(), 1.5, 0.2, 0.4, radii, 2).converged


def test_converged_counts_only_solves_at_its_p(monkeypatch, deg8):
    # a p = 2 solve returns its least-squares start, so a stage cap of one
    # cannot hold it back; the stalled p = 1 solves in the cache must not either
    monkeypatch.setattr(solver, "_MAX_ITERATIONS", 1)
    stalled = deg8()
    assert not levi_metric_gap(stalled, 1.0).converged
    assert levi_metric_gap(stalled, 2.0).converged
