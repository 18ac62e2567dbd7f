import gc
import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import pbergman as pb
from pbergman import lacunary, solver
from pbergman.geometry import QuadratureGrid
from pbergman.lacunary import (
    LacunarySeries,
    NotLacunaryError,
    RefinementError,
    circle_norm_ratio,
    criterion_integral,
    direct_lp,
    equivalence_ratio,
    integrability_record,
    lacunarity_constant,
    read_series_csv,
    series_grid_values,
)

from oracles import dense_lp, lacunary_l4, write_series_csv

DYADIC_10 = tuple(2**k for k in range(1, 11))


def _direct_grid(series):
    """The unit-disk grid of ``direct_lp``'s radii and its largest angular
    count, 8 lambda_max or 256, for lambda_max up to 4096."""
    unit_disk = pb.Domain("disk", 1.0)
    return pb.build_grid(unit_disk, lacunary._DIRECT_RADII, lacunary._direct_angles(series))


@pytest.fixture(scope="module")
def dyadic_grid():
    return _direct_grid(LacunarySeries(DYADIC_10, np.ones(10, dtype=complex)))


def _random_series(rng, exponents=DYADIC_10):
    n = len(exponents)
    return LacunarySeries(
        exponents, rng.standard_normal(n) + 1j * rng.standard_normal(n)
    )


def _dyadic_series(top: int, seed: int) -> LacunarySeries:
    return _random_series(np.random.default_rng(seed), tuple(2**k for k in range(top + 1)))


def _scaled(series, c):
    return LacunarySeries(series.exponents, c * series.coefficients)


def _direct_counts(series, p):
    """``direct_lp``'s angular count on each of its circles at this p."""
    grid = _direct_grid(series)
    unit = lacunary._unit_scale(series)[0]
    live = lacunary._amplitudes(unit, grid.radii)[1]
    return lacunary._sized_counts(unit, live, p, grid.angular_count)


def _dense_sized_lp(series, p):
    """``dense_lp`` on the circles and angular counts of ``direct_lp``'s rule."""
    grid = _direct_grid(series)
    return dense_lp(series, p, grid.radii, grid.radial_weights, _direct_counts(series, p))


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


def test_criterion_evaluates_its_panels_in_three_profile_calls(monkeypatch):
    # one call per ladder and one for the closing panel, not one per panel
    calls = []
    original = lacunary._profile
    monkeypatch.setattr(lacunary, "_profile", lambda *args: calls.append(1) or original(*args))
    criterion_integral(_dyadic_series(12, seed=7), 1.5)
    assert len(calls) == 3


def test_criterion_appending_zero_terms_is_exact():
    s = LacunarySeries((1, 4), np.array([0.8 - 0.3j, 0.0]))
    t = LacunarySeries((1,), np.array([0.8 - 0.3j]))
    assert criterion_integral(s, 1.7) == criterion_integral(t, 1.7)


def test_criterion_validation(monkeypatch):
    s = LacunarySeries((1,), np.array([1.0 + 0j]))
    for p in (0.0, math.nan, math.inf):
        with pytest.raises(ValueError):
            criterion_integral(s, p)
        with pytest.raises(ValueError):
            direct_lp(s, p)
    monkeypatch.setattr(lacunary, "_RADIAL_LEVELS", 3)
    with pytest.raises(RefinementError):
        criterion_integral(s, 2.0)


def test_direct_examples():
    s = LacunarySeries((1,), np.array([1.0 + 0j]))
    assert math.isclose(direct_lp(s, 2.0), math.pi / 2, rel_tol=1e-10)

    s24 = LacunarySeries((2, 4), np.array([1.0 + 0j, 1.0 + 0j]))
    assert math.isclose(direct_lp(s24, 2.0), 8.0 * math.pi / 15.0, rel_tol=1e-10)

    zero = LacunarySeries(DYADIC_10, np.zeros(10, dtype=complex))
    assert direct_lp(zero, 2.0) == 0.0


def test_direct_integral_rejects_lambda_max_above_4096():
    # 4096 is the direct integral's own limit; no argument lifts it
    s = _dyadic_series(13, seed=3)
    assert s.lambda_max == 8192
    for call in (lambda: direct_lp(s, 2.0), lambda: integrability_record(s, 2.0)):
        with pytest.raises(ValueError, match="above 4096") as info:
            call()
        message = str(info.value)
        assert "direct area integral" in message and "grid" not in message
    assert direct_lp(_dyadic_series(12, seed=3), 2.0) > 0.0


def test_direct_integral_builds_no_grid(monkeypatch):
    # the direct integral reads only the radial rule of the default grid, so
    # it never builds the grid's 8 lambda_max angles, and its rule is that
    # grid's to the bit
    s = _dyadic_series(12, seed=11)
    grid = _direct_grid(s)
    radii, radial_weights = pb.geometry._radial_rule(pb.Domain("disk", 1.0), 256)
    assert np.array_equal(radii, grid.radii)
    assert np.array_equal(radial_weights, grid.radial_weights)

    def refuse(*args):
        raise AssertionError("direct_lp built a grid")

    monkeypatch.setattr(pb.geometry, "build_grid", refuse)
    assert not hasattr(lacunary, "build_grid")  # no binding the patch misses
    for p in (0.5, 1.0, 3.0):
        assert direct_lp(s, p) > 0.0
    assert direct_lp(_scaled(s, 0.0), 2.0) == 0.0


def test_grid_values_require_unit_disk():
    s = LacunarySeries((1, 2), np.ones(2, dtype=complex))
    grid = pb.build_grid(pb.Domain("disk", 2.0), 32, 16)
    with pytest.raises(ValueError):
        series_grid_values(s, grid)


@pytest.mark.parametrize("p", [0.5, 1.0, 2.0, 4.0])
def test_equivalence_ratio_single_term_is_one(p):
    s = LacunarySeries((1,), np.array([1.0 + 0j]))
    assert abs(equivalence_ratio(s, p) - 1.0) <= 1e-6


def test_equivalence_ratio_p2_is_parseval():
    rng = np.random.default_rng(23)
    for _ in range(5):
        s = _random_series(rng)
        assert abs(equivalence_ratio(s, 2.0) - 1.0) <= 1e-6


def test_scale_equivariance():
    rng = np.random.default_rng(29)
    s = _random_series(rng)
    c = 3.7 - 1.2j
    for p in (0.5, 2.0, 4.0):
        factor = abs(c) ** p
        assert math.isclose(
            criterion_integral(_scaled(s, c), p),
            factor * criterion_integral(s, p),
            rel_tol=1e-10,
        )
        assert math.isclose(
            direct_lp(_scaled(s, c), p),
            factor * _dense_sized_lp(s, p),
            rel_tol=1e-10,
        )
        assert math.isclose(
            equivalence_ratio(_scaled(s, c), p),
            equivalence_ratio(s, p),
            rel_tol=1e-9,
        )


@pytest.mark.parametrize("M", [1e-170, 1e170])
@pytest.mark.parametrize("p", [1.0, 1.5, 2.0, 4.0])
def test_extreme_coefficient_scales(M, p):
    # squared moduli of these coefficients under- or overflow; from p = 2 on
    # so do the integrals themselves, but never their ratio
    unit = LacunarySeries((1, 2, 4), np.array([1.0, 0.5 - 0.25j, 0.75j]))
    s = _scaled(unit, M)
    if p < 2:
        criterion, direct = criterion_integral(unit, p), _dense_sized_lp(unit, p)
        assert math.isclose(criterion_integral(s, p), M**p * criterion, rel_tol=1e-12)
        assert math.isclose(direct_lp(s, p), M**p * direct, rel_tol=1e-12)
    ratio = equivalence_ratio(s, p)
    assert math.isfinite(ratio)
    assert math.isclose(ratio, equivalence_ratio(unit, p), rel_tol=1e-12)
    record = integrability_record(s, p)
    assert record["ratio"] == ratio
    assert record["integrable"] is True
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


@pytest.mark.parametrize("exponents", [(600, 1200), (2048, 4096)])
@pytest.mark.parametrize("p", [2.0, 4.0])
def test_circle_norm_where_every_term_underflows(exponents, p):
    # at r = 0.5 every term, |f|^2 and the radial profile underflow (0.5^1200
    # squared, 0.5^2048 itself), so a ratio of them was 0/0; the second term
    # is below rounding beside the first, so the ratio is 1
    s = LacunarySeries(exponents, np.ones(2, dtype=complex))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert abs(circle_norm_ratio(s, 0.5, p) - 1.0) <= 1e-15


def test_circle_norm_p2_identity():
    rng = np.random.default_rng(37)
    s = _random_series(rng, tuple(2**k for k in range(1, 9)))
    assert abs(circle_norm_ratio(s, 0.9, 2.0) - 1.0) <= 1e-10


def test_circle_norm_nyquist_stability():
    rng = np.random.default_rng(41)
    exps = tuple(2**k for k in range(1, 9))
    s = _random_series(rng, exps)
    base = circle_norm_ratio(s, 0.9, 4.0)

    def circle_mean(p):
        # mean of |f|^p over 16 lambda_max angles on |z| = 0.9
        return dense_lp(s, p, [0.9], np.ones(1), 16 * exps[-1]) / (2.0 * math.pi)

    doubled = circle_mean(4.0) ** 0.25 / circle_mean(2.0) ** 0.5
    assert abs(base - doubled) <= 1e-9


def test_circle_norm_validation():
    s = LacunarySeries((2, 8), np.ones(2, dtype=complex))
    with pytest.raises(ValueError):
        circle_norm_ratio(s, 1.2, 2.0)
    for p in (0.7, math.nan, math.inf):
        with pytest.raises(ValueError):
            circle_norm_ratio(s, 0.9, p)
    with pytest.raises(ValueError):
        circle_norm_ratio(LacunarySeries((2,), np.zeros(1, dtype=complex)), 0.9, 2.0)
    big = LacunarySeries((1, 2**21), np.ones(2, dtype=complex))
    with pytest.raises(ValueError):
        circle_norm_ratio(big, 0.9, 2.0)


def test_circle_norm_holds_one_tile():
    # lambda_max = 2^16 asks for 2^19 roots of unity (8 MiB); the circle is
    # reduced tile by tile and the table built in place, so nothing else on
    # the order of the table is held
    s = _dyadic_series(16, seed=97)
    table_bytes = 16 * 8 * s.lambda_max
    tracemalloc.start()
    try:
        circle_norm_ratio(s, 0.9, 3.0)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 1.5 * table_bytes


def _tail_triangle_holds(a, b, p, start):
    """I(a - b) <= c_p I(a) + c_p I(b), where I is the criterion integral of
    the terms from the 1-based ``start`` on and c_p is 2^(p/2) for p <= 2 and
    2^(p-1) for p >= 2 (the scalar convexity constants)."""

    def tail(coefficients):
        return LacunarySeries(a.exponents[start - 1 :], coefficients[start - 1 :])

    c_p = 2.0 ** (0.5 * p) if p <= 2 else 2.0 ** (p - 1.0)
    left = criterion_integral(tail(a.coefficients - b.coefficients), p)
    right = c_p * (
        criterion_integral(tail(a.coefficients), p) + criterion_integral(tail(b.coefficients), p)
    )
    return left <= right * (1.0 + 1e-12) + 1e-300


def test_tail_triangle_trivial_cases():
    rng = np.random.default_rng(43)
    a = _random_series(rng, (1, 2, 4, 8, 16))
    zero = LacunarySeries(a.exponents, np.zeros(5, dtype=complex))
    assert _tail_triangle_holds(a, zero, 1.5, 1)
    assert _tail_triangle_holds(a, a, 3.0, 2)


@pytest.mark.parametrize("p", [0.5, 1.5, 3.0])
@pytest.mark.parametrize("start", [1, 5])
def test_tail_triangle_random_pairs(p, start):
    rng = np.random.default_rng(47 + start)
    for _ in range(100):
        a = _random_series(rng, (1, 2, 4, 8, 16, 32))
        b = _random_series(rng, (1, 2, 4, 8, 16, 32))
        assert _tail_triangle_holds(a, b, p, start)


def test_series_csv_roundtrip(tmp_path):
    s = LacunarySeries((2, 4, 16), np.array([1.0 + 2.0j, -0.5, 0.125j]))
    path = tmp_path / "series.csv"
    write_series_csv(path, s)
    assert path.read_text().splitlines()[0] == "lambda,re,im"
    back = read_series_csv(path)
    assert back.exponents == s.exponents
    assert np.array_equal(back.coefficients, s.coefficients)


def test_integrability_record():
    rng = np.random.default_rng(53)
    s = _random_series(rng)
    record = integrability_record(s, 2.0)
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
    """sum_n a_n r_i^n e^(2 pi i ((n k) mod K) / K), flat and radial-major: the
    phase of each term from its exact residue, not from a power of a rounded
    e^(i theta_k), which drifts by n ulps."""
    K = grid.angular_count
    k = np.arange(K)
    return sum(
        a * np.outer(grid.radii**n, np.exp(2j * math.pi * ((n * k) % K) / K)).ravel()
        for a, n in zip(series.coefficients, series.exponents)
    )


@pytest.mark.parametrize("shape", [None, (8, 16)])
def test_blocked_integral_matches_dense_reference(dyadic_grid, shape):
    # (8, 16): lambda_max = 1024 >= 16 angular nodes, so exponents alias
    grid = dyadic_grid if shape is None else pb.build_grid(pb.Domain("disk", 1.0), *shape)
    s = _random_series(np.random.default_rng(67))
    dense = _dense_values(s, grid)
    values = series_grid_values(s, grid)
    assert np.max(np.abs(values - dense)) <= 1e-13 * np.max(np.abs(dense))
    if shape is None:
        for p in (0.5, 1.0, 1.5, 2.0, 3.0, 4.0):
            assert math.isclose(direct_lp(s, p), _dense_sized_lp(s, p), rel_tol=1e-13)


@pytest.mark.parametrize("top", [4, 6, 8, 10])
def test_direct_p4_matches_grid_free_oracle(top):
    # |f|^4 on a circle is a trigonometric polynomial the sized rule resolves
    # exactly, so what is left is the radial rule's error
    for seed in range(3):
        s = _dyadic_series(top, seed)
        assert math.isclose(direct_lp(s, 4.0), lacunary_l4(s), rel_tol=1e-13)


def test_direct_p2_is_multi_term_parseval():
    # integral of |sum a_k z^lambda_k|^2 over the disk = pi sum |a_k|^2 / (lambda_k + 1)
    rng = np.random.default_rng(71)
    for top in (4, 9, 12):
        s = _random_series(rng, tuple(2**k for k in range(top + 1)))
        exact = math.pi * sum(
            abs(a) ** 2 / (n + 1) for a, n in zip(s.coefficients, s.exponents)
        )
        assert math.isclose(direct_lp(s, 2.0), exact, rel_tol=1e-12)


def test_series_integrals_keep_no_grid(fresh_rules):
    # the series integrals build their rules per call and drop them, and
    # never keep one in the solver's rules
    s = _dyadic_series(12, seed=79)
    integrability_record(s, 1.0)
    circle_norm_ratio(s, 0.9, 1.0)
    gc.collect()
    assert solver.shared_grid.cache_info().currsize == 0
    assert not [obj for obj in gc.get_objects() if isinstance(obj, QuadratureGrid)
                and obj.angular_count == 8 * s.lambda_max]


def test_series_integrals_never_build_flat_grid_arrays(monkeypatch):
    s = _random_series(np.random.default_rng(73), (1, 3, 9, 27))
    grid = _direct_grid(s)
    series_grid_values(s, grid)
    assert "nodes" not in vars(grid) and "weights" not in vars(grid)

    def refuse(self):
        raise AssertionError("flat grid array built")

    monkeypatch.setattr(QuadratureGrid, "nodes", property(refuse))
    monkeypatch.setattr(QuadratureGrid, "weights", property(refuse))
    direct_lp(s, 1.5)
    equivalence_ratio(s, 3.0)
    circle_norm_ratio(s, 0.9, 3.0)
    integrability_record(s, 1.5)


@settings(max_examples=20, deadline=None)
@given(
    exponents=st.sets(st.integers(1, 512), min_size=1, max_size=8),
    seed=st.integers(0, 2**32 - 1),
    p=st.floats(0.25, 6.0),
    c=st.complex_numbers(min_magnitude=0.1, max_magnitude=10.0),
)
# a high lowest exponent makes the series tiny on most circles, where |f|^p
# at p < 1 still counts: every term there must be kept relative to the
# largest one on that circle, not to the largest coefficient
@example(exponents={297, 322}, seed=0, p=0.5, c=1 + 0j)
@example(exponents={266, 322}, seed=0, p=0.25, c=1 + 0j)
def test_blocked_integral_property(exponents, seed, p, c):
    s = _random_series(np.random.default_rng(seed), tuple(sorted(exponents)))
    value = direct_lp(s, p)
    assert math.isclose(value, _dense_sized_lp(s, p), rel_tol=1e-12)
    assert math.isclose(direct_lp(_scaled(s, c), p), abs(c) ** p * value, rel_tol=1e-12)


@pytest.mark.parametrize("top", [8, 10, 12])
def test_sized_rule_matches_uniform_rule(top):
    # same 256 radii; the sized rule gives each circle only the angles its
    # live terms need, the uniform rule 8 lambda_max on every circle
    s = _dyadic_series(top, 79 + top)
    grid = _direct_grid(s)
    for p, tol in ((2.0, 1e-14), (4.0, 1e-14), (0.5, 2e-6), (1.0, 2e-6), (1.5, 2e-6)):
        uniform = dense_lp(s, p, grid.radii, grid.radial_weights, grid.angular_count)
        assert math.isclose(direct_lp(s, p), uniform, rel_tol=tol)


def _tile_nodes(monkeypatch, call):
    """The values ``_tiles`` yields during call(), and the tiles they come in."""
    original = lacunary._tiles
    nodes, tiles = 0, 0

    def counting(*args):
        nonlocal nodes, tiles
        for rows, j0, values in original(*args):
            nodes, tiles = nodes + values.size, tiles + 1
            yield rows, j0, values

    monkeypatch.setattr(lacunary, "_tiles", counting)
    call()
    monkeypatch.setattr(lacunary, "_tiles", original)
    return nodes, tiles


def test_sized_rule_evaluates_a_tenth_of_the_uniform_nodes(monkeypatch):
    s = _dyadic_series(12, 83)
    grid = _direct_grid(s)
    nodes = {p: _tile_nodes(monkeypatch, lambda: direct_lp(s, p))[0] for p in (0.5, 1.0, 2.0, 4.0)}
    # every circle once, at its sized count; the uniform rule has 256 x 8 x 4096
    for p, count in nodes.items():
        assert count == _direct_counts(s, p).sum()
    assert nodes[0.5] == nodes[1.0] == 864768
    assert nodes[1.0] <= 0.12 * grid.radial_count * grid.angular_count
    # at even p the count only needs to exceed the degree of |f|^p
    assert nodes[2.0] == 106240 and nodes[2.0] <= 0.13 * nodes[1.0]
    assert nodes[4.0] <= 0.26 * nodes[1.0]


@pytest.mark.parametrize("top", [8, 12])
@pytest.mark.parametrize("p", [2.0, 4.0, 6.0])
def test_even_p_count_is_exact_and_tight(top, p):
    # |f|^p is a trigonometric polynomial of degree (p/2)(lambda_max - 1) on
    # an outer circle, where every term is alive: the smallest power of two
    # above it gives what 8 times as many angles give, and half of it does not
    s = _dyadic_series(top, seed=101)
    radius = np.array([0.999])
    count = lacunary._exact_counts(s, lacunary._amplitudes(s, radius)[1], p, np.array([2**30]))[0]
    assert count // 2 <= 0.5 * p * (s.lambda_max - 1) < count

    def mean(k):
        return lacunary._circle_means(s, radius, p, lambda live: np.array([k]))[0]

    exact = mean(count)
    assert math.isclose(exact, mean(8 * count), rel_tol=1e-14)
    assert not math.isclose(exact, mean(count // 2), rel_tol=1e-7)


def test_one_circle_stacks_its_chunks_into_tiles(monkeypatch):
    # 8 lambda_max = 2^15 angles are 32 chunks of 2^10, stacked into tiles of
    # _STACK_NODES values rather than one tile per chunk
    s = _dyadic_series(12, seed=103)
    nodes, tiles = _tile_nodes(monkeypatch, lambda: circle_norm_ratio(s, 0.9, 3.0))
    assert (nodes, tiles) == (8 * s.lambda_max, 8 * s.lambda_max // lacunary._STACK_NODES)
    mean = dense_lp(s, 3.0, [0.9], np.ones(1), 8 * s.lambda_max) / (2.0 * math.pi)
    l2 = math.sqrt(np.sum(np.abs(s.coefficients) ** 2 * 0.81 ** np.array(s.exponents)))
    assert math.isclose(circle_norm_ratio(s, 0.9, 3.0), mean ** (1 / 3) / l2, rel_tol=1e-14)


def test_sized_rule_with_no_live_term_on_inner_circles():
    # |a_1| r^64 = 1e-12 r^64 is below the cut on the innermost circles, where
    # the rule keeps the first term alone
    rng = np.random.default_rng(89)
    exps = tuple(2**k for k in range(6, 13))
    coef = rng.standard_normal(7) + 1j * rng.standard_normal(7)
    coef[0] = 1e-12
    s = LacunarySeries(exps, coef)
    exact = math.pi * sum(abs(a) ** 2 / (n + 1) for a, n in zip(coef, exps))
    assert math.isclose(direct_lp(s, 2.0), exact, rel_tol=1e-12)
    zero = LacunarySeries(exps, np.zeros(7, dtype=complex))
    for p in (0.5, 2.0, 4.0):
        assert direct_lp(zero, p) == 0.0
