import importlib.util
import json
from pathlib import Path

import numpy as np
import pytest

from ncgalois import crossed, groups, reporting
from ncgalois.algebras import StarAlgebra


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


@pytest.fixture(scope="session")
def crossed_s3_m3(tmp_path_factory):
    """(base, action) of the crossed-s3-m3 benchmark spec at seed 101, read as the CLI reads it."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("workloads", path)
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    out = tmp_path_factory.mktemp("crossed-s3-m3")
    body = json.loads(Path(workloads.write_inputs("crossed-s3-m3", 101, str(out))).read_text())
    group = reporting.group_from_json(json.loads((out / body["group"]).read_text()))
    unitaries = np.array([reporting.matrix_from_json(u) for u in body["action"]["unitaries"]])
    base = StarAlgebra.full(3)
    return base, crossed.ad_action(group, base, unitaries)
