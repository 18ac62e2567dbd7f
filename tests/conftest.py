import sys
from pathlib import Path

import pytest

import pbergman as pb
from pbergman import solver

sys.path.insert(0, str(Path(__file__).parent))


@pytest.fixture(scope="session")
def unit_disk():
    return pb.Domain("disk", 1.0)


@pytest.fixture(scope="session")
def punctured():
    return pb.Domain("punctured_disk", 1.0)


@pytest.fixture(scope="session")
def annulus():
    return pb.Domain("annulus", 1.0, 0.5)


@pytest.fixture
def fresh_rules():
    """An empty rule cache (``solver.shared_grid``) and no cached tables of
    any rule (``solver._rule_caches``) at the start and the end of the test,
    so that a test which counts grid or table builds sees every rule it uses
    built anew, whatever ran before it."""
    solver.shared_grid.cache_clear()
    solver._rule_caches.cache_clear()
    yield
    solver.shared_grid.cache_clear()
    solver._rule_caches.cache_clear()


@pytest.fixture
def smoothed_objectives(monkeypatch):
    """Per workspace, in order, the smoothed objective w . terms at every
    descent point: each time ``set_eps`` fills the terms of an iterate and
    each time ``accept`` takes a line-search step."""
    records = {}
    set_eps, accept = solver._Workspace.set_eps, solver._Workspace.accept

    def record(ws):
        records.setdefault(ws, []).append(float(ws.w @ ws.terms))

    def spied_set_eps(ws, eps):
        value = set_eps(ws, eps)
        record(ws)
        return value

    def spied_accept(ws):
        accept(ws)
        record(ws)

    monkeypatch.setattr(solver._Workspace, "set_eps", spied_set_eps)
    monkeypatch.setattr(solver._Workspace, "accept", spied_accept)
    return records


@pytest.fixture(scope="session")
def disk_grid(unit_disk):
    return pb.build_grid(unit_disk, 128, 256)


# One setup per basis degree on the unit disk, shared across tests so that
# repeated (p, point) solves at that degree reuse the setup's cache.


@pytest.fixture(scope="session")
def disk8(unit_disk, disk_grid):
    return pb.Setup(unit_disk, degree=8, grid=disk_grid)


@pytest.fixture(scope="session")
def disk12(unit_disk, disk_grid):
    return pb.Setup(unit_disk, degree=12, grid=disk_grid)


@pytest.fixture(scope="session")
def disk16(unit_disk, disk_grid):
    return pb.Setup(unit_disk, degree=16, grid=disk_grid)


@pytest.fixture(scope="session")
def disk24(unit_disk, disk_grid):
    return pb.Setup(unit_disk, degree=24, grid=disk_grid)
