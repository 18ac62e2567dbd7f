import sys
from pathlib import Path

import pytest

import pbergman as pb

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
