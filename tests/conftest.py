import numpy as np
import pytest

from ncgalois import groups


@pytest.fixture(scope="session")
def fixture_groups():
    return {name: make() for name, make in groups.FIXTURE_GROUPS.items()}


@pytest.fixture(scope="session")
def s3():
    return groups.symmetric_group(3)


@pytest.fixture(scope="session")
def s4():
    return groups.symmetric_group(4)


@pytest.fixture(scope="session")
def d4():
    return groups.dihedral_group(4)


@pytest.fixture
def rng():
    return np.random.default_rng(20260809)


def direct_product(g, h):
    """G x H on pairs (a, b) at index a * |H| + b."""
    n, m = g.order, h.order
    return groups.FiniteGroup((g.mult[:, None, :, None] * m + h.mult[None, :, None, :])
                              .reshape(n * m, n * m))


@pytest.fixture(scope="session")
def s4_times_z2():
    return direct_product(groups.symmetric_group(4), groups.cyclic_group(2))


@pytest.fixture(scope="session")
def s4_times_s3():
    return direct_product(groups.symmetric_group(4), groups.symmetric_group(3))


@pytest.fixture(scope="session")
def s5_times_z2():
    return direct_product(groups.symmetric_group(5), groups.cyclic_group(2))
