import math

import numpy as np
import pytest

import pbergman as pb
from pbergman import solver
from pbergman.cli import main
from pbergman.kernel import BoundaryMarginError, h_function, metric_at, mp_minimizer, offdiag_kernel
from pbergman.series import BasisSpec, CoeffVector, evaluate

from oracles import annulus_kernel, disk_kernel, disk_minimizer, lp_norm


@pytest.mark.parametrize("p", [1.0, 1.5, 2.0, 3.0, 4.0])
def test_center_kernel_is_reciprocal_area(disk8, p):
    result = mp_minimizer(disk8, p, 0.0)
    assert result.minimizer.converged
    assert abs(result.k_p - 1.0 / math.pi) <= 1e-3 / math.pi
    assert result.k_p == result.m_p**-p


def test_p2_kernel_matches_disk_oracle(disk24):
    # on the disk K_p = 1/(pi (1 - |z|^2)^2) for every p >= 1, not just p = 2
    exact = disk_kernel(0.5, 0.5).real
    for p in (1.0, 1.5, 2.0, 4.0):
        result = mp_minimizer(disk24, p, 0.5)
        assert result.minimizer.converged
        assert abs(result.k_p - exact) <= 1e-8 * exact, p


def test_p2_minimizer_matches_disk_oracle_pointwise(disk24):
    result = mp_minimizer(disk24, 2.0, 0.5)
    for w in (0.2, -0.3 + 0.1j, 0.55j, 0.0):
        expected = disk_minimizer(w, 0.5)
        got = evaluate(result.minimizer.coeffs, w)
        assert abs(got - expected) <= 1e-6


def test_offdiag_examples(disk24):
    at_w = mp_minimizer(disk24, 3.0, 0.4)
    diag = offdiag_kernel(disk24, 3.0, 0.4, 0.4)
    assert abs(diag - at_w.k_p) <= 1e-10 * at_w.k_p

    off = offdiag_kernel(disk24, 2.0, 0.3, 0.5)
    assert abs(off - disk_kernel(0.3, 0.5)) <= 1e-5 * abs(disk_kernel(0.3, 0.5))

    center = offdiag_kernel(disk24, 2.0, 0.0, 0.5)
    assert abs(center - 1.0 / math.pi) <= 1e-5 / math.pi


def test_h_function_examples(disk24):
    diag = h_function(disk24, 2.0, 0.3, 0.3)
    assert abs(diag) <= 1e-12

    value = h_function(disk24, 2.0, 0.3, 0.5)
    oracle = (
        disk_kernel(0.3, 0.3) + disk_kernel(0.5, 0.5) - 2 * disk_kernel(0.3, 0.5)
    ).real
    assert abs(value - oracle) <= 1e-6

    swapped = h_function(disk24, 2.0, 0.5, 0.3)
    assert value == swapped


@pytest.mark.parametrize(
    "p,expected",
    [(2.0, math.sqrt(2.0)), (4.0, 3.0**0.25), (1.0, 1.5)],
)
def test_metric_center_examples(disk8, p, expected):
    result = metric_at(disk8, p, 0.0)
    assert abs(result.b_p - expected) <= 1e-6 * expected


def test_metric_direction_scaling(disk8):
    unit = metric_at(disk8, 2.0, 0.2, 1.0)
    scaled = metric_at(disk8, 2.0, 0.2, 3.0j)
    assert math.isclose(scaled.b_p, 3.0 * unit.b_p, rel_tol=1e-12)
    assert abs(abs(scaled.direction) - 1.0) <= 1e-15


def test_p2_metric_matches_disk_oracle(disk24):
    result = metric_at(disk24, 2.0, 0.5)
    exact = math.sqrt(2.0) / (1 - 0.25)
    assert abs(result.b_p - exact) <= 1e-5 * exact


def test_annulus_p2_kernel_matches_closed_form(annulus):
    setup = pb.Setup(annulus, degree=24)
    for z in (0.7, 0.6 + 0.2j, 0.85j, -0.56):
        exact = annulus_kernel(z, 0.5, 1.0, 24)
        assert math.isclose(mp_minimizer(setup, 2.0, z).k_p, exact, rel_tol=1e-12)


@pytest.mark.parametrize("p, tol", [(1.0, 1e-6), (1.5, 1e-8), (2.0, 1e-10), (4.0, 1e-10)])
def test_disk_metric_is_invariant(disk24, p, tol):
    # B_p is a Moebius-invariant metric: B_p(z) (1 - |z|^2) = B_p(0)
    center = metric_at(disk24, p, 0.0).b_p
    for z in (0.3, 0.2 + 0.3j, -0.5j):
        moved = metric_at(disk24, p, z).b_p * (1.0 - abs(z) ** 2)
        assert math.isclose(moved, center, rel_tol=tol)


def test_kernel_dominates_explicit_competitors(disk12, disk_grid):
    rng = np.random.default_rng(17)
    p, z = 3.0, 0.4
    result = mp_minimizer(disk12, p, z)
    basis = disk12.basis(p)
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
        setup = pb.Setup(unit_disk, degree=degree, grid=disk_grid)
        k_values.append(mp_minimizer(setup, p, 0.5).k_p)
        b_values.append(metric_at(setup, p, 0.5).b_p)
    assert all(b >= a * (1 - 1e-8) for a, b in zip(k_values, k_values[1:]))
    assert all(b >= a * (1 - 1e-8) for a, b in zip(b_values, b_values[1:]))


def test_minimizer_satisfies_its_constraint(disk24):
    result = mp_minimizer(disk24, 1.5, 0.3 + 0.2j)
    assert abs(evaluate(result.minimizer.coeffs, 0.3 + 0.2j) - 1.0) <= 1e-10


def test_rotational_symmetry(disk12):
    p, r = 1.5, 0.4
    base = mp_minimizer(disk12, p, r)
    rotated = mp_minimizer(disk12, p, r * np.exp(2j * math.pi / 7))
    assert abs(base.k_p - rotated.k_p) <= 1e-6 * base.k_p


@pytest.mark.parametrize("p", [1.5, 2.0, 3.0])
def test_h_function_empirically_nonnegative(disk12, p):
    pairs = [(0.1, 0.3), (0.2 + 0.1j, -0.4j), (-0.5, 0.45), (0.3 + 0.3j, 0.35 + 0.28j)]
    for z, w in pairs:
        value = h_function(disk12, p, z, w)
        assert value >= -1e-8


def test_boundary_margin_enforced(unit_disk, disk_grid, disk24):
    with pytest.raises(BoundaryMarginError) as err:
        mp_minimizer(disk24, 2.0, 0.99)
    assert "margin" in str(err.value)
    # explicit override admits the point
    result = mp_minimizer(pb.Setup(unit_disk, grid=disk_grid, margin=0.01), 2.0, 0.97)
    assert result.minimizer.converged
    for margin in (-0.01, math.nan):
        with pytest.raises(ValueError):
            pb.Setup(unit_disk, grid=disk_grid, margin=margin)


def test_punctured_pole_enlarges_kernel(punctured):
    without = mp_minimizer(pb.Setup(punctured, degree=12, n_min=0), 1.0, 0.5)
    with_pole = mp_minimizer(pb.Setup(punctured, degree=12, n_min=-1), 1.0, 0.5)
    assert with_pole.k_p >= without.k_p * (1.0 - 1e-8)


def test_cache_reuses_results(unit_disk, disk_grid):
    setup = pb.Setup(unit_disk, grid=disk_grid)
    first = mp_minimizer(setup, 2.0, 0.25)
    second = mp_minimizer(setup, 2.0, 0.25)
    assert first.minimizer is second.minimizer
    assert len(setup.cache) == 1


def test_mp_minimizer_rejects_p_below_one(disk24):
    with pytest.raises(ValueError):
        mp_minimizer(disk24, 0.9, 0.0)


def test_sweep_rows_and_csv(tmp_path, disk8):
    rows = pb.kernel_metric_sweep(disk8, [2.0], [0.0, 0.3])
    assert [r["re_z"] for r in rows] == [0.0, 0.3]
    assert all(r["converged"] for r in rows)
    # the CLI's CSV carries exactly these rows
    path = tmp_path / "sweep.csv"
    argv = ["kernel", "--p", "2", "--z", "0,0.3", "--degree", "8", "--out", str(path)]
    assert main(argv) == 0
    lines = path.read_text().splitlines()[2:]
    assert lines[0] == "p,re_z,im_z,K_p,B_p"
    keys = ("p", "re_z", "im_z", "K_p", "B_p")
    assert lines[1:] == [",".join(format(r[k], ".17g") for k in keys) for r in rows]


def test_sweep_rows_report_non_convergence(monkeypatch, unit_disk, disk_grid):
    monkeypatch.setattr(solver, "_MAX_ITERATIONS", 1)
    rows = pb.kernel_metric_sweep(pb.Setup(unit_disk, degree=8, grid=disk_grid), [1.0], [0.3])
    assert [r["converged"] for r in rows] == [False]
