import math

import numpy as np
import pytest

import pbergman as pb
from pbergman import analysis
from pbergman.analysis import (
    DegenerateFitError,
    dp_estimate,
    fit_power_law,
    holder_exponent,
    hp_scaling_exponent,
    levi_form_log_kp,
    levi_metric_gap,
    limit_sweep,
    quarter_laplacian,
)
from pbergman.solver import SolverConfig

RADII = tuple(0.1 * 2.0**-k for k in range(6))


@pytest.fixture
def deg8(unit_disk, disk_grid):
    """A fresh degree-8 disk setup with the given solver controls."""
    return lambda **config: pb.Setup(
        unit_disk, degree=8, grid=disk_grid, config=SolverConfig(**config)
    )


def test_quarter_laplacian_on_closed_forms():
    # harmonic: zero
    assert abs(quarter_laplacian(lambda t: math.exp(t.real) * math.cos(t.imag), 1e-2)) <= 1e-6
    # |tau|^2: quarter Laplacian is 1
    assert abs(quarter_laplacian(lambda t: abs(t) ** 2, 1e-2) - 1.0) <= 1e-6
    # disk log-kernel profile at 0.5, bypassing the solver entirely
    log_k = lambda t: -math.log(math.pi) - 2.0 * math.log(1.0 - abs(0.5 + t) ** 2)
    assert abs(quarter_laplacian(log_k, 1e-2) - 2.0 / 0.75**2) <= 1e-6


@pytest.mark.parametrize("p", [2.0, 4.0])
def test_levi_form_at_center(disk16, p):
    value = levi_form_log_kp(disk16, p, 0.0)
    assert abs(value - 2.0) <= 1e-3


def test_levi_form_off_center(disk16):
    value = levi_form_log_kp(disk16, 2.0, 0.5)
    assert abs(value - 2.0 / 0.75**2) <= 5e-3


def test_levi_margin_accounts_for_stencil(disk16):
    with pytest.raises(pb.BoundaryMarginError):
        levi_form_log_kp(disk16, 2.0, 0.93, step=1e-2)


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


def test_fit_power_law_noise_floor():
    with pytest.raises(DegenerateFitError):
        fit_power_law([0.1, 0.01], [1e-12, 1e-13])


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


def test_limit_sweep_repeats_exactly(deg8):
    first = limit_sweep(deg8(), 0.0, [0.9, 0.95], restarts=2, seed=0)
    second = limit_sweep(deg8(), 0.0, [0.9, 0.95], restarts=2, seed=0)
    assert first == second


def test_limit_sweep_restarts_pinned(monkeypatch, deg8):
    # K_p pinned from restarts that ran every stage on the requested grid;
    # running their early stages on the coarse grid must not move it
    survivors = {}
    multistart = analysis.multistart_minimize

    def recording(problem, config=None, **restarts_and_seed):
        survivors[problem.p] = multistart(problem, config, **restarts_and_seed)
        return survivors[problem.p]

    monkeypatch.setattr(analysis, "multistart_minimize", recording)
    record = limit_sweep(deg8(), 0.3, [0.5, 0.7, 0.9, 1.0], restarts=4, seed=0)
    pinned = (
        0.3843629634956888, 0.3843841642395342, 0.3843855659255055, 0.3843856953754118
    )
    assert record.statuses == ("ok",) * 4
    for k_p, want in zip(record.k_p_values, pinned):
        assert abs(k_p - want) <= 1e-12 * want
    assert survivors[0.7] and all(s.coarse_iterations > 0 for s in survivors[0.7])


def test_limit_sweep_validates_input(deg8):
    for p_list, restarts, seed in (([0.9, 0.8], 2, 0), ([1.5], 2, 0), ([0.9], 0, 0), ([0.9], 2, -1)):
        with pytest.raises(ValueError):
            limit_sweep(deg8(), 0.0, p_list, restarts=restarts, seed=seed)


def test_limit_sweep_row_for_margin_violation(deg8):
    # every row, p = 1 included, checks the margin
    record = limit_sweep(deg8(), 0.99, [0.9, 1.0], restarts=2, seed=0)
    for status, k_p, d_p in zip(record.statuses, record.k_p_values, record.d_p_estimates):
        assert status.startswith("error:") and "margin" in status
        assert math.isnan(k_p) and math.isnan(d_p)


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


def test_records_report_non_convergence(deg8):
    assert not levi_metric_gap(deg8(max_iterations=1), 1.0).converged
    assert levi_metric_gap(deg8(), 1.0).converged
    radii = (0.1, 0.003)
    assert not holder_exponent(deg8(max_iterations=1), 1.5, 0.2, 0.4, radii, 2).converged
    assert not hp_scaling_exponent(deg8(max_iterations=1), 1.5, 0.4, radii, 2).converged
    assert holder_exponent(deg8(), 1.5, 0.2, 0.4, radii, 2).converged


def test_converged_counts_only_solves_at_its_p(deg8):
    # a p = 2 solve returns its least-squares start, so a stalled config
    # cannot hold it back; the stalled p = 1 solves in the cache must not either
    stalled = deg8(max_iterations=1)
    assert not levi_metric_gap(stalled, 1.0).converged
    assert levi_metric_gap(stalled, 2.0).converged
