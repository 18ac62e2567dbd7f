import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import pbergman as pb
from pbergman.geometry import QuadratureGrid
from pbergman.lacunary import (
    LacunarySeries,
    NotLacunaryError,
    RadialQuadrature,
    RefinementError,
    UndersampledQuadratureError,
    circle_norm_ratio,
    criterion_integral,
    default_series_grid,
    direct_lp,
    equivalence_ratio,
    integrability_record,
    lacunarity_constant,
    read_series_csv,
    series_grid_values,
    tail_triangle_check,
    write_series_csv,
)

DYADIC_10 = tuple(2**k for k in range(1, 11))


@pytest.fixture(scope="module")
def dyadic_grid():
    return default_series_grid(LacunarySeries(DYADIC_10, np.ones(10, dtype=complex)))


def _random_series(rng, exponents=DYADIC_10):
    n = len(exponents)
    return LacunarySeries(
        exponents, rng.standard_normal(n) + 1j * rng.standard_normal(n)
    )


def test_lacunarity_examples():
    assert lacunarity_constant((2, 4, 8, 16)) == 2.0
    assert lacunarity_constant((1, 2, 3)) == 1.5
    assert lacunarity_constant((7,)) == math.inf
    with pytest.raises(ValueError):
        lacunarity_constant((3, 3))
    with pytest.raises(ValueError):
        lacunarity_constant((0, 2))


def test_series_construction():
    # min ratio 1.5 > 1, so {1, 2, 3} is accepted even though it is barely gapped
    s = LacunarySeries((1, 2, 3), np.ones(3, dtype=complex))
    assert s.lacunarity == 1.5
    with pytest.raises(ValueError):
        LacunarySeries((2, 2), np.ones(2, dtype=complex))
    with pytest.raises(ValueError):
        LacunarySeries((1, 2), np.ones(3, dtype=complex))
    # strictly increasing positive integers always have min ratio > 1; the
    # named rejection for A <= 1 stays as a guard on the constructor contract
    assert issubclass(NotLacunaryError, ValueError)


@pytest.mark.parametrize("p", [0.5, 1.0, 2.0, 4.0])
def test_criterion_single_term(p):
    s = LacunarySeries((1,), np.array([1.0 + 0j]))
    exact = 2.0 * math.pi / (p + 2.0)
    assert math.isclose(criterion_integral(s, p), exact, rel_tol=1e-10)


def test_criterion_appending_zero_terms_is_exact():
    s = LacunarySeries((1, 4), np.array([0.8 - 0.3j, 0.0]))
    t = LacunarySeries((1,), np.array([0.8 - 0.3j]))
    assert criterion_integral(s, 1.7) == criterion_integral(t, 1.7)


def test_criterion_validation():
    s = LacunarySeries((1,), np.array([1.0 + 0j]))
    with pytest.raises(ValueError):
        criterion_integral(s, 0.0)
    with pytest.raises(RefinementError):
        criterion_integral(s, 2.0, RadialQuadrature(max_levels=3))


def test_direct_examples(dyadic_grid):
    s = LacunarySeries((1,), np.array([1.0 + 0j]))
    assert math.isclose(direct_lp(s, 2.0), math.pi / 2, rel_tol=1e-10)

    s24 = LacunarySeries((2, 4), np.array([1.0 + 0j, 1.0 + 0j]))
    assert math.isclose(direct_lp(s24, 2.0), 8.0 * math.pi / 15.0, rel_tol=1e-10)

    zero = LacunarySeries(DYADIC_10, np.zeros(10, dtype=complex))
    assert direct_lp(zero, 2.0, dyadic_grid) == 0.0


def test_direct_requires_unit_disk():
    s = LacunarySeries((1, 2), np.ones(2, dtype=complex))
    grid = pb.build_grid(pb.Domain("disk", 2.0), 32, 16)
    with pytest.raises(ValueError):
        direct_lp(s, 2.0, grid)


@pytest.mark.parametrize("p", [0.5, 1.0, 2.0, 4.0])
def test_equivalence_ratio_single_term_is_one(p):
    s = LacunarySeries((1,), np.array([1.0 + 0j]))
    assert abs(equivalence_ratio(s, p) - 1.0) <= 1e-6


def test_equivalence_ratio_p2_is_parseval(dyadic_grid):
    rng = np.random.default_rng(23)
    for _ in range(5):
        s = _random_series(rng)
        assert abs(equivalence_ratio(s, 2.0, dyadic_grid) - 1.0) <= 1e-6


def test_scale_equivariance(dyadic_grid):
    rng = np.random.default_rng(29)
    s = _random_series(rng)
    c = 3.7 - 1.2j
    for p in (0.5, 2.0, 4.0):
        factor = abs(c) ** p
        assert math.isclose(
            criterion_integral(s.scaled(c), p),
            factor * criterion_integral(s, p),
            rel_tol=1e-10,
        )
        assert math.isclose(
            direct_lp(s.scaled(c), p, dyadic_grid),
            factor * direct_lp(s, p, dyadic_grid),
            rel_tol=1e-10,
        )
        assert math.isclose(
            equivalence_ratio(s.scaled(c), p, dyadic_grid),
            equivalence_ratio(s, p, dyadic_grid),
            rel_tol=1e-9,
        )


@pytest.mark.parametrize("M", [1e-170, 1e170])
@pytest.mark.parametrize("p", [1.0, 1.5])
def test_extreme_coefficient_scales(M, p):
    # squared moduli of these coefficients under- or overflow
    unit = LacunarySeries((1, 2, 4), np.array([1.0, 0.5 - 0.25j, 0.75j]))
    s = unit.scaled(M)
    grid = pb.build_grid(pb.parse_domain("disk:1"), 64, 256)
    criterion, direct = criterion_integral(unit, p), direct_lp(unit, p, grid)
    assert math.isclose(criterion_integral(s, p), M**p * criterion, rel_tol=1e-12)
    assert math.isclose(direct_lp(s, p, grid), M**p * direct, rel_tol=1e-12)
    ratio = equivalence_ratio(s, p, grid)
    assert math.isfinite(ratio)
    assert math.isclose(ratio, equivalence_ratio(unit, p, grid), rel_tol=1e-12)
    circle = circle_norm_ratio(s, 0.9, p)
    assert math.isfinite(circle)
    assert math.isclose(circle, circle_norm_ratio(unit, 0.9, p), rel_tol=1e-12)


def test_criterion_monotone_in_coefficient_modulus():
    rng = np.random.default_rng(31)
    s = _random_series(rng, (1, 3, 9, 27))
    bumped = s.coefficients.copy()
    bumped[2] *= 2.0
    assert criterion_integral(LacunarySeries(s.exponents, bumped), 1.3) >= criterion_integral(s, 1.3)


def test_circle_norm_single_term_is_one():
    # |f| is constant in t, so the ratio is 1 up to ulps of |e^(i theta)|
    s = LacunarySeries((5,), np.array([2.0 + 1.0j]))
    for p in (1.0, 2.5, 4.0):
        assert abs(circle_norm_ratio(s, 0.9, p) - 1.0) <= 5e-16


def test_circle_norm_p2_identity():
    rng = np.random.default_rng(37)
    s = _random_series(rng, tuple(2**k for k in range(1, 9)))
    assert abs(circle_norm_ratio(s, 0.9, 2.0) - 1.0) <= 1e-10


def test_circle_norm_nyquist_stability():
    rng = np.random.default_rng(41)
    exps = tuple(2**k for k in range(1, 9))
    s = _random_series(rng, exps)
    base = circle_norm_ratio(s, 0.9, 4.0)
    doubled = circle_norm_ratio(s, 0.9, 4.0, nodes=16 * exps[-1])
    assert abs(base - doubled) <= 1e-9


def test_circle_norm_validation():
    s = LacunarySeries((2, 8), np.ones(2, dtype=complex))
    with pytest.raises(UndersampledQuadratureError):
        circle_norm_ratio(s, 0.9, 2.0, nodes=32)
    with pytest.raises(ValueError):
        circle_norm_ratio(s, 1.2, 2.0)
    with pytest.raises(ValueError):
        circle_norm_ratio(s, 0.9, 0.7)
    with pytest.raises(ValueError):
        circle_norm_ratio(LacunarySeries((2,), np.zeros(1, dtype=complex)), 0.9, 2.0)
    big = LacunarySeries((1, 2**21), np.ones(2, dtype=complex))
    with pytest.raises(ValueError):
        circle_norm_ratio(big, 0.9, 2.0)


def test_tail_triangle_trivial_cases():
    rng = np.random.default_rng(43)
    a = _random_series(rng, (1, 2, 4, 8, 16))
    zero = LacunarySeries(a.exponents, np.zeros(5, dtype=complex))
    assert tail_triangle_check(a, zero, 1.5, 1)
    assert tail_triangle_check(a, a, 3.0, 2)


@pytest.mark.parametrize("p", [0.5, 1.5, 3.0])
@pytest.mark.parametrize("start", [1, 5])
def test_tail_triangle_random_pairs(p, start):
    rng = np.random.default_rng(47 + start)
    for _ in range(100):
        a = _random_series(rng, (1, 2, 4, 8, 16, 32))
        b = _random_series(rng, (1, 2, 4, 8, 16, 32))
        assert tail_triangle_check(a, b, p, start)


def test_tail_triangle_misaligned_rejected():
    a = LacunarySeries((1, 2), np.ones(2, dtype=complex))
    b = LacunarySeries((1, 4), np.ones(2, dtype=complex))
    with pytest.raises(ValueError):
        tail_triangle_check(a, b, 2.0, 1)


def test_series_csv_roundtrip(tmp_path):
    s = LacunarySeries((2, 4, 16), np.array([1.0 + 2.0j, -0.5, 0.125j]))
    path = tmp_path / "series.csv"
    write_series_csv(path, s)
    assert path.read_text().splitlines()[0] == "lambda,re,im"
    back = read_series_csv(path)
    assert back.exponents == s.exponents
    assert np.array_equal(back.coefficients, s.coefficients)


def test_integrability_record(dyadic_grid):
    rng = np.random.default_rng(53)
    s = _random_series(rng)
    record = integrability_record(s, 2.0, dyadic_grid)
    assert record["integrable"] is True
    assert abs(record["ratio"] - 1.0) <= 1e-6
    assert record["A"] == 2.0


def test_grid_values_match_pointwise(dyadic_grid):
    rng = np.random.default_rng(59)
    s = _random_series(rng, (1, 2, 4))
    grid = pb.build_grid(pb.Domain("disk", 1.0), 8, 8)
    values = series_grid_values(s, grid)
    direct = sum(
        a * grid.nodes**n for a, n in zip(s.coefficients, s.exponents)
    )
    assert np.max(np.abs(values - direct)) <= 1e-12


def _dense_values(series, grid):
    return sum(a * grid.nodes**n for a, n in zip(series.coefficients, series.exponents))


def _dense_lp(values, p, grid):
    return float(grid.weights @ np.abs(values) ** p)


@pytest.mark.parametrize("shape", [None, (8, 16)])
def test_blocked_integral_matches_dense_reference(dyadic_grid, shape):
    # (8, 16): lambda_max = 1024 >= 16 angular nodes, so exponents alias
    grid = dyadic_grid if shape is None else pb.build_grid(pb.Domain("disk", 1.0), *shape)
    s = _random_series(np.random.default_rng(67))
    dense = _dense_values(s, grid)
    values = series_grid_values(s, grid)
    assert np.max(np.abs(values - dense)) <= 1e-13 * np.max(np.abs(dense))
    for p in (0.5, 1.0, 1.5, 2.0, 3.0, 4.0):
        assert math.isclose(direct_lp(s, p, grid), _dense_lp(dense, p, grid), rel_tol=1e-13)


def test_direct_p2_is_multi_term_parseval():
    # integral of |sum a_k z^lambda_k|^2 over the disk = pi sum |a_k|^2 / (lambda_k + 1)
    rng = np.random.default_rng(71)
    for top in (4, 9, 12):
        s = _random_series(rng, tuple(2**k for k in range(top + 1)))
        exact = math.pi * sum(
            abs(a) ** 2 / (n + 1) for a, n in zip(s.coefficients, s.exponents)
        )
        assert math.isclose(direct_lp(s, 2.0), exact, rel_tol=1e-12)


def test_series_integrals_never_build_flat_grid_arrays(monkeypatch):
    s = _random_series(np.random.default_rng(73), (1, 3, 9, 27))
    grid = default_series_grid(s)
    direct_lp(s, 1.5, grid)
    series_grid_values(s, grid)
    equivalence_ratio(s, 3.0, grid)
    assert "nodes" not in vars(grid) and "weights" not in vars(grid)

    def refuse(self):
        raise AssertionError("flat grid array built")

    monkeypatch.setattr(QuadratureGrid, "nodes", property(refuse))
    monkeypatch.setattr(QuadratureGrid, "weights", property(refuse))
    circle_norm_ratio(s, 0.9, 3.0)
    integrability_record(s, 1.5)


@settings(max_examples=20, deadline=None)
@given(
    exponents=st.sets(st.integers(1, 512), min_size=1, max_size=8),
    seed=st.integers(0, 2**32 - 1),
    p=st.floats(0.25, 6.0),
    c=st.complex_numbers(min_magnitude=0.1, max_magnitude=10.0),
)
def test_blocked_integral_property(exponents, seed, p, c):
    s = _random_series(np.random.default_rng(seed), tuple(sorted(exponents)))
    # 40 radii: at 8 lambda_max >= 2048 angular nodes the last block is partial
    grid = pb.build_grid(pb.Domain("disk", 1.0), 40, max(64, 8 * s.lambda_max))
    value = direct_lp(s, p, grid)
    assert math.isclose(value, _dense_lp(_dense_values(s, grid), p, grid), rel_tol=1e-12)
    assert math.isclose(direct_lp(s.scaled(c), p, grid), abs(c) ** p * value, rel_tol=1e-12)
