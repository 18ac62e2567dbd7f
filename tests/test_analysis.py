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
    write_holder_csv,
    write_levi_csv,
    write_limit_csv,
)
from pbergman.solver import SolverConfig

RADII = tuple(0.1 * 2.0**-k for k in range(6))


def test_quarter_laplacian_on_closed_forms():
    # harmonic: zero
    assert abs(quarter_laplacian(lambda t: math.exp(t.real) * math.cos(t.imag), 1e-2)) <= 1e-6
    # |tau|^2: quarter Laplacian is 1
    assert abs(quarter_laplacian(lambda t: abs(t) ** 2, 1e-2) - 1.0) <= 1e-6
    # disk log-kernel profile at 0.5, bypassing the solver entirely
    log_k = lambda t: -math.log(math.pi) - 2.0 * math.log(1.0 - abs(0.5 + t) ** 2)
    assert abs(quarter_laplacian(log_k, 1e-2) - 2.0 / 0.75**2) <= 1e-6


def test_levi_form_closed_form_bypass(unit_disk):
    log_k = lambda z: -math.log(math.pi) - 2.0 * math.log(1.0 - abs(z) ** 2)
    value = levi_form_log_kp(unit_disk, 2.0, 0.5, log_kp=log_k)
    assert abs(value - 2.0 / 0.75**2) <= 1e-6


@pytest.mark.parametrize("p", [2.0, 4.0])
def test_levi_form_at_center(unit_disk, disk_grid, kernel_cache, p):
    value = levi_form_log_kp(unit_disk, p, 0.0, grid=disk_grid, cache=kernel_cache)
    assert abs(value - 2.0) <= 1e-3


def test_levi_form_off_center(unit_disk, disk_grid, kernel_cache):
    value = levi_form_log_kp(unit_disk, 2.0, 0.5, grid=disk_grid, cache=kernel_cache)
    assert abs(value - 2.0 / 0.75**2) <= 5e-3


def test_levi_margin_accounts_for_stencil(unit_disk, disk_grid):
    with pytest.raises(pb.BoundaryMarginError):
        levi_form_log_kp(unit_disk, 2.0, 0.93, grid=disk_grid, step=1e-2)


@pytest.mark.parametrize(
    "p,expected",
    [(1.0, -0.25), (4.0, 2.0 - math.sqrt(3.0))],
)
def test_gap_values(unit_disk, disk_grid, kernel_cache, p, expected):
    record = levi_metric_gap(unit_disk, p, grid=disk_grid, cache=kernel_cache)
    assert abs(record.gap - expected) <= 2e-3
    assert record.gap == record.levi - record.b_p_squared


def test_gap_vanishes_at_p2(unit_disk, disk_grid, kernel_cache):
    record = levi_metric_gap(unit_disk, 2.0, grid=disk_grid, cache=kernel_cache)
    assert abs(record.gap) <= 2e-3


def test_gap_requires_disk(annulus):
    with pytest.raises(ValueError):
        levi_metric_gap(annulus, 2.0)


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


def test_holder_slope_at_p2(unit_disk, disk_grid, kernel_cache):
    fit = holder_exponent(
        unit_disk, 2.0, 0.2, 0.4, RADII, grid=disk_grid, cache=kernel_cache
    )
    assert abs(fit.slope - 1.0) <= 0.1
    assert fit.r_squared >= 0.99


def test_holder_rejects_single_radius(unit_disk, disk_grid):
    with pytest.raises(DegenerateFitError):
        holder_exponent(unit_disk, 2.0, 0.2, 0.4, [0.1], grid=disk_grid)


def test_holder_rejects_narrow_span(unit_disk, disk_grid):
    with pytest.raises(ValueError):
        holder_exponent(unit_disk, 2.0, 0.2, 0.4, [0.1, 0.05], grid=disk_grid)


def test_holder_requires_p_above_one(unit_disk, disk_grid):
    with pytest.raises(ValueError):
        holder_exponent(unit_disk, 1.0, 0.2, 0.4, RADII, grid=disk_grid)


def test_hp_scaling_slope_at_p2(unit_disk, disk_grid, kernel_cache):
    fit = hp_scaling_exponent(
        unit_disk, 2.0, 0.3, RADII, grid=disk_grid, cache=kernel_cache
    )
    assert abs(fit.slope - 2.0) <= 0.1
    assert fit.slope >= 1.9


def test_hp_scaling_degenerate_at_zero_radius_probes(unit_disk, disk_grid):
    # probes at w = z make every delta vanish below the noise floor
    with pytest.raises(DegenerateFitError):
        hp_scaling_exponent(
            unit_disk, 2.0, 0.3, [1e-30, 1e-32], grid=disk_grid,
        )


def test_dp_estimate_near_one_is_tiny(unit_disk, disk_grid):
    d_p, sols = dp_estimate(
        unit_disk, 0.99, 0.0, SolverConfig(restarts=6), grid=disk_grid
    )
    assert d_p < 1e-3
    assert sols


def test_dp_estimate_single_restart_is_zero(unit_disk, disk_grid):
    d_p, sols = dp_estimate(
        unit_disk, 0.7, 0.0, SolverConfig(restarts=1), grid=disk_grid
    )
    assert d_p == 0.0
    assert len(sols) == 1


def test_dp_estimate_monotone_in_restarts(unit_disk, disk_grid):
    values = []
    for restarts in (2, 4, 8):
        d_p, _ = dp_estimate(
            unit_disk, 0.7, 0.0, SolverConfig(restarts=restarts), grid=disk_grid
        )
        values.append(d_p)
    assert values[0] <= values[1] + 1e-12
    assert values[1] <= values[2] + 1e-12


def test_dp_estimate_validates_range(unit_disk, disk_grid):
    with pytest.raises(ValueError):
        dp_estimate(unit_disk, 1.0, 0.0, grid=disk_grid)


def test_limit_sweep_trend(unit_disk, disk_grid):
    record = limit_sweep(
        unit_disk, 0.0, [0.8, 0.95], SolverConfig(restarts=4), grid=disk_grid
    )
    assert record.statuses == ("ok", "ok")
    for k_p in record.k_p_values:
        assert abs(k_p - 1.0 / math.pi) <= 1e-3 / math.pi
    assert record.d_p_estimates[-1] <= record.d_p_estimates[0] + 1e-12


def test_limit_sweep_at_p1_collapses(unit_disk, disk_grid):
    record = limit_sweep(
        unit_disk, 0.0, [1.0], SolverConfig(restarts=4), grid=disk_grid
    )
    assert record.d_p_estimates == (0.0,)


def test_limit_sweep_repeats_exactly(unit_disk, disk_grid):
    cfg = SolverConfig(restarts=2)
    first = limit_sweep(unit_disk, 0.0, [0.9, 0.95], cfg, grid=disk_grid)
    second = limit_sweep(unit_disk, 0.0, [0.9, 0.95], cfg, grid=disk_grid)
    assert first == second


def test_limit_sweep_restarts_pinned(monkeypatch, unit_disk, disk_grid):
    # K_p pinned from restarts that ran every stage on the requested grid;
    # running their early stages on the coarse grid must not move it
    survivors = {}
    multistart = analysis.multistart_minimize

    def recording(problem, config=None):
        survivors[problem.p] = multistart(problem, config)
        return survivors[problem.p]

    monkeypatch.setattr(analysis, "multistart_minimize", recording)
    record = limit_sweep(
        unit_disk, 0.3, [0.5, 0.7, 0.9, 1.0], SolverConfig(restarts=4),
        degree=8, grid=disk_grid,
    )
    pinned = (
        0.3843629634956888, 0.3843841642395342, 0.3843855659255055, 0.3843856953754118
    )
    assert record.statuses == ("ok",) * 4
    for k_p, want in zip(record.k_p_values, pinned):
        assert abs(k_p - want) <= 1e-12 * want
    assert survivors[0.7] and all(s.coarse_iterations > 0 for s in survivors[0.7])


def test_limit_sweep_validates_input(unit_disk, disk_grid):
    with pytest.raises(ValueError):
        limit_sweep(unit_disk, 0.0, [0.9, 0.8], grid=disk_grid)
    with pytest.raises(ValueError):
        limit_sweep(unit_disk, 0.0, [1.5], grid=disk_grid)


def test_limit_sweep_row_for_margin_violation(unit_disk, disk_grid):
    record = limit_sweep(unit_disk, 0.99, [0.9], SolverConfig(restarts=2), grid=disk_grid)
    assert record.statuses[0].startswith("error:") and "margin" in record.statuses[0]
    assert math.isnan(record.k_p_values[0]) and math.isnan(record.d_p_estimates[0])


@pytest.mark.parametrize("error", [RuntimeError, np.linalg.LinAlgError])
def test_limit_sweep_rows_for_numerical_failures(monkeypatch, unit_disk, disk_grid, error):
    def fail(*args):
        raise error("no descent")

    monkeypatch.setattr(analysis, "_sweep_entry", fail)
    record = limit_sweep(unit_disk, 0.0, [0.9], grid=disk_grid)
    assert record.statuses == ("error: no descent",)


@pytest.mark.parametrize("error", [IndexError, TypeError])
def test_limit_sweep_propagates_defects(monkeypatch, unit_disk, disk_grid, error):
    def fail(*args):
        raise error("defect")

    monkeypatch.setattr(analysis, "_sweep_entry", fail)
    with pytest.raises(error):
        limit_sweep(unit_disk, 0.0, [0.9], grid=disk_grid)


def test_records_report_non_convergence(unit_disk, disk_grid):
    stalled = SolverConfig(max_iterations=1)
    assert not levi_metric_gap(unit_disk, 1.0, config=stalled, degree=8, grid=disk_grid).converged
    assert levi_metric_gap(unit_disk, 1.0, degree=8, grid=disk_grid).converged
    radii = (0.1, 0.003)
    probes = dict(directions=2, degree=8, grid=disk_grid)
    assert not holder_exponent(unit_disk, 1.5, 0.2, 0.4, radii, config=stalled, **probes).converged
    assert not hp_scaling_exponent(unit_disk, 1.5, 0.4, radii, config=stalled, **probes).converged
    assert holder_exponent(unit_disk, 1.5, 0.2, 0.4, radii, **probes).converged


def test_csv_writers(tmp_path, unit_disk, disk_grid, kernel_cache):
    record = levi_metric_gap(unit_disk, 2.0, grid=disk_grid, cache=kernel_cache)
    levi_path = tmp_path / "levi.csv"
    write_levi_csv(levi_path, [record])
    lines = levi_path.read_text().splitlines()
    assert lines[0] == "p,re_z,im_z,levi,bp2,gap"
    assert len(lines) == 2

    fit = pb.HolderFit(
        z_prime=0.2, w=0.4, p=2.0,
        radii=(0.1, 0.01), deltas=(0.05, 0.005),
        slope=1.0, intercept=-0.69, r_squared=1.0, converged=True,
    )
    holder_path = tmp_path / "holder.csv"
    write_holder_csv(holder_path, fit)
    assert holder_path.read_text().splitlines()[0] == "r,delta,fitted"

    sweep = limit_sweep(
        unit_disk, 0.0, [0.95], SolverConfig(restarts=2), grid=disk_grid
    )
    limit_path = tmp_path / "limit.csv"
    write_limit_csv(limit_path, sweep)
    lines = limit_path.read_text().splitlines()
    assert lines[0] == "p,K_p,d_p,restarts"
    assert lines[1].endswith(",2")
