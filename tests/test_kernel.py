import math

import numpy as np
import pytest

import pbergman as pb
from pbergman.kernel import BoundaryMarginError, h_function, metric_at, mp_minimizer, offdiag_kernel
from pbergman.series import BasisSpec, CoeffVector, evaluate
from pbergman.geometry import lp_norm

from oracles import disk_kernel, disk_minimizer


@pytest.mark.parametrize("p", [1.0, 1.5, 2.0, 3.0, 4.0])
def test_center_kernel_is_reciprocal_area(unit_disk, disk_grid, kernel_cache, p):
    result = mp_minimizer(unit_disk, p, 0.0, grid=disk_grid, degree=8, cache=kernel_cache)
    assert result.minimizer.converged
    assert abs(result.k_p - 1.0 / math.pi) <= 1e-3 / math.pi
    assert result.k_p == result.m_p**-p


def test_p2_kernel_matches_disk_oracle(unit_disk, disk_grid, kernel_cache):
    # on the disk K_p = 1/(pi (1 - |z|^2)^2) for every p >= 1, not just p = 2
    exact = disk_kernel(0.5, 0.5).real
    for p in (1.0, 1.5, 2.0, 4.0):
        result = mp_minimizer(unit_disk, p, 0.5, grid=disk_grid, cache=kernel_cache)
        assert result.minimizer.converged
        assert abs(result.k_p - exact) <= 1e-8 * exact, p


def test_p2_minimizer_matches_disk_oracle_pointwise(unit_disk, disk_grid, kernel_cache):
    result = mp_minimizer(unit_disk, 2.0, 0.5, grid=disk_grid, cache=kernel_cache)
    for w in (0.2, -0.3 + 0.1j, 0.55j, 0.0):
        expected = disk_minimizer(w, 0.5)
        got = evaluate(result.minimizer.coeffs, w)
        assert abs(got - expected) <= 1e-6


def test_offdiag_examples(unit_disk, disk_grid, kernel_cache):
    at_w = mp_minimizer(unit_disk, 3.0, 0.4, grid=disk_grid, cache=kernel_cache)
    diag = offdiag_kernel(unit_disk, 3.0, 0.4, 0.4, grid=disk_grid, cache=kernel_cache)
    assert abs(diag - at_w.k_p) <= 1e-10 * at_w.k_p

    off = offdiag_kernel(unit_disk, 2.0, 0.3, 0.5, grid=disk_grid, cache=kernel_cache)
    assert abs(off - disk_kernel(0.3, 0.5)) <= 1e-5 * abs(disk_kernel(0.3, 0.5))

    center = offdiag_kernel(unit_disk, 2.0, 0.0, 0.5, grid=disk_grid, cache=kernel_cache)
    assert abs(center - 1.0 / math.pi) <= 1e-5 / math.pi


def test_h_function_examples(unit_disk, disk_grid, kernel_cache):
    diag = h_function(unit_disk, 2.0, 0.3, 0.3, grid=disk_grid, cache=kernel_cache)
    assert abs(diag) <= 1e-12

    value = h_function(unit_disk, 2.0, 0.3, 0.5, grid=disk_grid, cache=kernel_cache)
    oracle = (
        disk_kernel(0.3, 0.3) + disk_kernel(0.5, 0.5) - 2 * disk_kernel(0.3, 0.5)
    ).real
    assert abs(value - oracle) <= 1e-6

    swapped = h_function(unit_disk, 2.0, 0.5, 0.3, grid=disk_grid, cache=kernel_cache)
    assert value == swapped


@pytest.mark.parametrize(
    "p,expected",
    [(2.0, math.sqrt(2.0)), (4.0, 3.0**0.25), (1.0, 1.5)],
)
def test_metric_center_examples(unit_disk, disk_grid, kernel_cache, p, expected):
    result = metric_at(unit_disk, p, 0.0, grid=disk_grid, degree=8, cache=kernel_cache)
    assert abs(result.b_p - expected) <= 1e-6 * expected


def test_metric_direction_scaling(unit_disk, disk_grid, kernel_cache):
    unit = metric_at(unit_disk, 2.0, 0.2, 1.0, grid=disk_grid, degree=8, cache=kernel_cache)
    scaled = metric_at(unit_disk, 2.0, 0.2, 3.0j, grid=disk_grid, degree=8, cache=kernel_cache)
    assert math.isclose(scaled.b_p, 3.0 * unit.b_p, rel_tol=1e-12)
    assert abs(abs(scaled.direction) - 1.0) <= 1e-15


def test_p2_metric_matches_disk_oracle(unit_disk, disk_grid, kernel_cache):
    result = metric_at(unit_disk, 2.0, 0.5, grid=disk_grid, cache=kernel_cache)
    exact = math.sqrt(2.0) / (1 - 0.25)
    assert abs(result.b_p - exact) <= 1e-5 * exact


def test_kernel_dominates_explicit_competitors(unit_disk, disk_grid, kernel_cache):
    rng = np.random.default_rng(17)
    p, z = 3.0, 0.4
    result = mp_minimizer(unit_disk, p, z, grid=disk_grid, degree=12, cache=kernel_cache)
    basis = pb.default_basis(unit_disk, p, 12)
    for _ in range(20):
        coef = rng.standard_normal(13) + 1j * rng.standard_normal(13)
        f = CoeffVector(basis, coef)
        values = evaluate(f, disk_grid.nodes)
        ratio = abs(evaluate(f, z)) ** p / lp_norm(disk_grid, values, p) ** p
        assert result.k_p >= ratio * (1.0 - 1e-8)


@pytest.mark.parametrize("p", [2.0, 3.0])
def test_degree_monotonicity(unit_disk, disk_grid, p):
    k_values, b_values = [], []
    for degree in (4, 8, 16):
        cache = {}
        k_values.append(
            mp_minimizer(unit_disk, p, 0.5, grid=disk_grid, degree=degree, cache=cache).k_p
        )
        b_values.append(
            metric_at(unit_disk, p, 0.5, grid=disk_grid, degree=degree, cache=cache).b_p
        )
    assert all(b >= a * (1 - 1e-8) for a, b in zip(k_values, k_values[1:]))
    assert all(b >= a * (1 - 1e-8) for a, b in zip(b_values, b_values[1:]))


def test_minimizer_satisfies_its_constraint(unit_disk, disk_grid, kernel_cache):
    result = mp_minimizer(unit_disk, 1.5, 0.3 + 0.2j, grid=disk_grid, cache=kernel_cache)
    assert abs(evaluate(result.minimizer.coeffs, 0.3 + 0.2j) - 1.0) <= 1e-10


def test_rotational_symmetry(unit_disk, disk_grid, kernel_cache):
    p, r = 1.5, 0.4
    base = mp_minimizer(unit_disk, p, r, grid=disk_grid, degree=12, cache=kernel_cache)
    rotated = mp_minimizer(
        unit_disk, p, r * np.exp(2j * math.pi / 7), grid=disk_grid, degree=12, cache=kernel_cache
    )
    assert abs(base.k_p - rotated.k_p) <= 1e-6 * base.k_p


@pytest.mark.parametrize("p", [1.5, 2.0, 3.0])
def test_h_function_empirically_nonnegative(unit_disk, disk_grid, kernel_cache, p):
    pairs = [(0.1, 0.3), (0.2 + 0.1j, -0.4j), (-0.5, 0.45), (0.3 + 0.3j, 0.35 + 0.28j)]
    for z, w in pairs:
        value = h_function(unit_disk, p, z, w, grid=disk_grid, degree=12, cache=kernel_cache)
        assert value >= -1e-8


def test_boundary_margin_enforced(unit_disk, disk_grid):
    with pytest.raises(BoundaryMarginError) as err:
        mp_minimizer(unit_disk, 2.0, 0.99, grid=disk_grid)
    assert "margin" in str(err.value)
    # explicit override admits the point
    result = mp_minimizer(unit_disk, 2.0, 0.97, grid=disk_grid, margin=0.01)
    assert result.minimizer.converged


def test_punctured_pole_enlarges_kernel(punctured):
    without = mp_minimizer(punctured, 1.0, 0.5, degree=12, n_min=0)
    with_pole = mp_minimizer(punctured, 1.0, 0.5, degree=12, n_min=-1)
    assert with_pole.k_p >= without.k_p * (1.0 - 1e-8)


def test_cache_reuses_results(unit_disk, disk_grid):
    cache = {}
    first = mp_minimizer(unit_disk, 2.0, 0.25, grid=disk_grid, cache=cache)
    second = mp_minimizer(unit_disk, 2.0, 0.25, grid=disk_grid, cache=cache)
    assert first is second
    assert len(cache) == 1


def test_mp_minimizer_rejects_p_below_one(unit_disk, disk_grid):
    with pytest.raises(ValueError):
        mp_minimizer(unit_disk, 0.9, 0.0, grid=disk_grid)


def test_sweep_rows_and_csv(tmp_path, unit_disk, disk_grid):
    rows = pb.kernel_metric_sweep(
        unit_disk, [2.0], [0.0, 0.3], grid=disk_grid, degree=8
    )
    assert [r["re_z"] for r in rows] == [0.0, 0.3]
    assert all(r["converged"] for r in rows)
    path = tmp_path / "sweep.csv"
    pb.write_sweep_csv(path, rows)
    lines = path.read_text().splitlines()
    assert lines[0] == "p,re_z,im_z,K_p,B_p"
    assert len(lines) == 3


def test_sweep_rows_report_non_convergence(unit_disk, disk_grid):
    rows = pb.kernel_metric_sweep(
        unit_disk, [1.0], [0.3], pb.SolverConfig(max_iterations=1),
        grid=disk_grid, degree=8,
    )
    assert [r["converged"] for r in rows] == [False]
