import math

import numpy as np
import pytest

import pbergman as pb
from pbergman.geometry import build_grid
from pbergman.series import (
    BasisSpec,
    CoeffVector,
    admissible_exponents,
    evaluate,
)
from pbergman.solver import derivative_constraint

from oracles import lp_norm, monomial_lp_norm


def _derivative(basis, coefficients, z):
    # f'(z) through the constraint row the B_p solve imposes
    return derivative_constraint(basis, z)[0] @ np.asarray(coefficients, dtype=complex)


@pytest.mark.parametrize(
    "spec,p,exponents",
    [
        ("disk:2.5", 1.5, (0, 1, 7, 24)),
        ("disk:0.4", 3.0, (0, 2, 16)),
        ("annulus:0.5,1", 2.0, (-24, -2, -1, 0, 3, 24)),  # n = -1: the log case
        ("annulus:0.5,1", 1.0, (-3, -2, -1, 0, 5)),  # n = -2: the log case
        ("annulus:1.5,2", 1.7, (-12, 0, 12)),
        ("punctured:1", 1.9, (-1, 0, 4)),
        ("punctured:1.6", 1.9, (-1, 0, 4)),
    ],
    ids=["disk-R2.5", "disk-R0.4", "annulus-p2", "annulus-p1", "annulus-wide",
         "punctured", "punctured-R1.6"],
)
def test_col_norms_match_quadrature_oracle(spec, p, exponents):
    basis = BasisSpec(exponents, pb.parse_domain(spec), p)
    want = np.array([monomial_lp_norm(basis.domain, n, p) for n in exponents])
    assert np.all(np.abs(basis.col_norms - want) <= 1e-14 * want)
    assert not basis.col_norms.flags.writeable


@pytest.mark.parametrize("spec", ["disk:1000", "disk:0.001"])
def test_col_norms_outside_double_range_rejected(spec):
    basis = BasisSpec(tuple(range(49)), pb.parse_domain(spec), 8.0)
    with pytest.raises(ValueError, match="double range"):
        basis.col_norms


def test_pole_col_norm_closed_form():
    # ||z^-k||_p^p = 2 pi R^(2 - kp) / (2 - kp) on the punctured disk of radius R
    R, p = 1.6, 1.9
    basis = BasisSpec((-1, 0), pb.Domain("punctured_disk", R), p)
    want = 2.0 * math.pi * R ** (2.0 - p) / (2.0 - p)
    assert abs(basis.col_norms[0] ** p - want) <= 1e-13 * want


def test_admissible_on_disk(unit_disk):
    assert admissible_exponents(unit_disk, 2.0, -3, 2) == [0, 1, 2]


def test_admissible_on_punctured(punctured):
    # integral of |z|^(np) * 2 pi r dr is finite iff |n| p < 2 for poles
    assert admissible_exponents(punctured, 1.0, -3, 1) == [-1, 0, 1]
    assert admissible_exponents(punctured, 2.0, -1, 1) == [0, 1]


def test_admissible_on_annulus(annulus):
    assert admissible_exponents(annulus, 0.5, -2, 2) == [-2, -1, 0, 1, 2]


def test_admissible_validation(unit_disk):
    for p in (0.0, math.nan, math.inf):
        with pytest.raises(ValueError):
            admissible_exponents(unit_disk, p, 0, 3)
    with pytest.raises(ValueError):
        admissible_exponents(unit_disk, 2.0, 3, 0)


def test_basis_rejects_poles_on_disk(unit_disk):
    with pytest.raises(ValueError):
        BasisSpec((-1, 0, 1), unit_disk, 2.0)


def test_basis_rejects_conditioning_cap(unit_disk):
    with pytest.raises(ValueError):
        BasisSpec((0, 49), unit_disk, 2.0)


def test_evaluate_examples(unit_disk, annulus):
    const = CoeffVector(BasisSpec((0,), unit_disk, 2.0), [1.0])
    assert evaluate(const, 0.3 + 0.4j) == 1.0

    linear = CoeffVector(BasisSpec((0, 1), unit_disk, 2.0), [0.0, 1.0])
    assert evaluate(linear, 0.5) == 0.5

    laurent = CoeffVector(BasisSpec((-1, 1), annulus, 2.0), [1.0, 1.0])
    assert math.isclose(abs(evaluate(laurent, 0.5)), 2.5, rel_tol=1e-15)


def test_derivative_examples(unit_disk, annulus):
    linear = BasisSpec((0, 1), unit_disk, 2.0)
    assert _derivative(linear, [0.0, 1.0], 0.17 - 0.2j) == 1.0

    quad = BasisSpec((0, 1, 2), unit_disk, 2.0)
    assert math.isclose(abs(_derivative(quad, [0.0, 0.0, 1.0], 0.5)), 1.0, rel_tol=1e-15)

    pole = BasisSpec((-1,), annulus, 2.0)
    assert math.isclose(abs(_derivative(pole, [1.0], 0.5) + 4.0), 0.0, abs_tol=1e-12)


def test_pole_evaluation_at_zero_rejected(punctured):
    basis = BasisSpec((-1, 0), punctured, 1.0)
    with pytest.raises(ValueError):
        evaluate(CoeffVector(basis, [1.0, 1.0]), 0.0)
    with pytest.raises(ValueError):
        _derivative(basis, [1.0, 1.0], 0.0)


def test_linearity(unit_disk):
    rng = np.random.default_rng(5)
    basis = BasisSpec(tuple(range(0, 9)), unit_disk, 2.0)
    a = rng.standard_normal(9) + 1j * rng.standard_normal(9)
    b = rng.standard_normal(9) + 1j * rng.standard_normal(9)
    z = 0.3 - 0.6j
    combo = evaluate(CoeffVector(basis, 2.0 * a + 1.5j * b), z)
    parts = 2.0 * evaluate(CoeffVector(basis, a), z) + 1.5j * evaluate(
        CoeffVector(basis, b), z
    )
    assert abs(combo - parts) <= 1e-12 * max(1.0, abs(parts))
    dcombo = _derivative(basis, 2.0 * a + 1.5j * b, z)
    dparts = 2.0 * _derivative(basis, a, z) + 1.5j * _derivative(basis, b, z)
    assert abs(dcombo - dparts) <= 1e-12 * max(1.0, abs(dparts))


def test_derivative_matches_central_difference(unit_disk):
    rng = np.random.default_rng(9)
    basis = BasisSpec(tuple(range(0, 13)), unit_disk, 2.0)
    coef = rng.standard_normal(13) + 1j * rng.standard_normal(13)
    coef /= np.linalg.norm(coef)
    coeffs = CoeffVector(basis, coef)
    h = 1e-6
    for z in (0.1, 0.5 + 0.3j, -0.88, 0.6j):
        fd = (evaluate(coeffs, z + h) - evaluate(coeffs, z - h)) / (2 * h)
        assert abs(fd - _derivative(basis, coef, z)) <= 1e-8


def test_admissible_exponents_have_finite_norm(punctured):
    grid = build_grid(punctured, 128, 16)
    for n in admissible_exponents(punctured, 1.0, -1, 4):
        value = lp_norm(grid, grid.nodes**n, 1.0)
        assert math.isfinite(value)


@pytest.mark.parametrize("n,p", [(-3, 1.0), (-4, 1.0), (-2, 2.0), (-1, 3.0), (-2, 3.0)])
def test_excluded_exponents_diverge_under_refinement(punctured, n, p):
    # strictly divergent cases, n p + 2 < 0: the truncated norm blows up as
    # the Gauss-Legendre nodes crowd toward the puncture
    assert n not in admissible_exponents(punctured, p, n, n)
    coarse = build_grid(punctured, 32, 8)
    fine = build_grid(punctured, 4096, 8)
    growth = lp_norm(fine, fine.nodes**n, p) / lp_norm(coarse, coarse.nodes**n, p)
    assert growth >= 10.0


def test_boundary_case_excluded_but_slow(punctured):
    # |n| p = 2 diverges only logarithmically: excluded by admissibility,
    # and the truncated norm still creeps upward under refinement
    assert admissible_exponents(punctured, 2.0, -1, 1) == [0, 1]
    coarse = build_grid(punctured, 32, 8)
    fine = build_grid(punctured, 4096, 8)
    growth = lp_norm(fine, fine.nodes**-1, 2.0) / lp_norm(coarse, coarse.nodes**-1, 2.0)
    assert growth > 1.1
