import math

import numpy as np
import pytest

import pbergman as pb
from pbergman.geometry import build_grid, format_domain, parse_domain

from oracles import lp_norm


def test_disk_weights_reproduce_area(unit_disk):
    grid = build_grid(unit_disk, 64, 128)
    assert abs(grid.weights.sum() - math.pi) <= 1e-12 * math.pi


def test_annulus_weights_reproduce_area(annulus):
    grid = build_grid(annulus, 64, 128)
    assert abs(grid.weights.sum() - 0.75 * math.pi) <= 1e-12 * math.pi


def test_punctured_same_measure_as_disk(punctured):
    grid = build_grid(punctured, 64, 128)
    assert abs(grid.weights.sum() - math.pi) <= 1e-12 * math.pi


def test_abs_z_squared_integral(unit_disk):
    # polar oracle: integral_0^1 r^2 * 2 pi r dr = pi / 2
    grid = build_grid(unit_disk, 64, 128)
    value = float(grid.weights @ np.abs(grid.nodes) ** 2)
    assert abs(value - math.pi / 2) <= 1e-10


def test_lp_norm_of_constant(disk_grid):
    values = np.ones_like(disk_grid.nodes)
    assert math.isclose(lp_norm(disk_grid, values, 2.0), math.sqrt(math.pi), rel_tol=1e-12)


def test_lp_norm_of_z(disk_grid):
    assert math.isclose(
        lp_norm(disk_grid, disk_grid.nodes, 2.0), math.sqrt(math.pi / 2), rel_tol=1e-12
    )
    assert math.isclose(
        lp_norm(disk_grid, disk_grid.nodes, 4.0), (math.pi / 3) ** 0.25, rel_tol=1e-12
    )


@pytest.mark.parametrize("domain_key", ["disk", "annulus"])
@pytest.mark.parametrize("n,p", [(0, 2), (1, 2), (3, 4), (7, 6), (16, 2), (5, 8)])
def test_monomial_exactness(domain_key, n, p, unit_disk, annulus):
    domain = unit_disk if domain_key == "disk" else annulus
    grid = build_grid(domain, 64, 256)
    assert n * p <= 2 * grid.radial_count - 2
    value = lp_norm(grid, grid.nodes**n, p) ** p
    exact = (
        2.0
        * math.pi
        * (domain.outer_radius ** (n * p + 2) - domain.inner_radius ** (n * p + 2))
        / (n * p + 2)
    )
    assert abs(value - exact) <= 1e-10 * exact


@pytest.mark.parametrize("p", [2.0, 4.0, 2.7])
def test_grid_refinement_stability(unit_disk, p):
    # fixed polynomial, zero free on the closed disk so |f|^p is real analytic
    def f(nodes):
        return 3.0 + nodes + 0.5 * nodes**2 + 0.01 * nodes**16

    coarse = build_grid(unit_disk, 128, 256)
    fine = build_grid(unit_disk, 256, 512)
    a = lp_norm(coarse, f(coarse.nodes), p)
    b = lp_norm(fine, f(fine.nodes), p)
    assert abs(a - b) <= 1e-10 * b


def test_rotation_invariance(disk_grid):
    rng = np.random.default_rng(3)
    values = rng.standard_normal(disk_grid.nodes.size) + 1j * rng.standard_normal(
        disk_grid.nodes.size
    )
    before = lp_norm(disk_grid, values, 1.7)
    after = lp_norm(disk_grid, values * np.exp(1j * 0.8349), 1.7)
    assert math.isclose(before, after, rel_tol=1e-13)


def test_nodes_strictly_interior(unit_disk, punctured):
    for domain in (unit_disk, punctured):
        grid = build_grid(domain, 32, 16)
        radii = np.abs(grid.nodes)
        assert radii.min() > 0.0
        assert radii.max() < domain.outer_radius
        assert np.all(grid.weights > 0.0)


def test_invalid_counts_rejected(unit_disk):
    with pytest.raises(ValueError):
        build_grid(unit_disk, 1, 128)
    with pytest.raises(ValueError):
        build_grid(unit_disk, 16, 3)


def test_degenerate_domain_rejected():
    with pytest.raises(ValueError):
        pb.Domain("annulus", 0.5, 1.0)
    with pytest.raises(ValueError):
        pb.Domain("disk", 1.0, 0.3)
    with pytest.raises(ValueError):
        pb.Domain("blob", 1.0)


@pytest.mark.parametrize(
    "text", ["disk:1", "disk:2.5", "annulus:0.5,1", "punctured:1"]
)
def test_domain_roundtrip(text):
    domain = parse_domain(text)
    assert parse_domain(format_domain(domain)) == domain


def test_domain_parse_errors():
    for text in ("ball:1", "annulus:1", "disk:x", ""):
        with pytest.raises(ValueError):
            parse_domain(text)


def test_grids_are_read_only(disk_grid):
    with pytest.raises(ValueError):
        disk_grid.weights[0] = 0.0


@pytest.mark.parametrize("shape", [(8, 16), (32, 64)])
def test_flat_arrays_built_on_demand(annulus, shape):
    grid = build_grid(annulus, *shape)
    assert "nodes" not in vars(grid) and "weights" not in vars(grid)
    # built here from the Gauss-Legendre rule, independently of build_grid
    x, glw = np.polynomial.legendre.leggauss(shape[0])
    radii = 0.25 * x + 0.75
    radial_weights = glw * 0.25 * radii
    thetas = 2.0 * math.pi * np.arange(shape[1]) / shape[1]
    nodes = (radii[:, None] * np.exp(1j * thetas)[None, :]).ravel()
    weights = np.repeat(radial_weights * (2.0 * math.pi / shape[1]), shape[1])
    assert np.array_equal(grid.nodes, nodes) and np.array_equal(grid.weights, weights)
    assert grid.nodes is grid.nodes and grid.weights is grid.weights
    for arr in (grid.nodes, grid.weights, grid.radii, grid.radial_weights, grid.thetas):
        assert not arr.flags.writeable
