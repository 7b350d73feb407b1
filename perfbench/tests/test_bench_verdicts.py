"""The benchmark's verdict gate and span arithmetic, without running the CLI.

Each doctored report must count as a failed op; clean ones must pass.

    python3 -m pytest perfbench/tests -q
"""

import copy
import itertools
import os
import resource
import signal
import sys
import time
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

import certify  # noqa: E402
import run  # noqa: E402
import traced_cli  # noqa: E402


def _symmetric_table(n):
    perms = sorted(itertools.permutations(range(n)))
    index = {p: i for i, p in enumerate(perms)}
    return [[index[tuple(p[q[k]] for k in range(n))] for q in perms] for p in perms]


def _s4_table():
    return _symmetric_table(4)


def _envelope(command, body):
    return {"command": command, "seed": 7, "inputs": {"spec": "digest"},
            "report": body, "violations": [], "tolerances": {}}


def _galois():
    subgroups = certify.subgroups_of(_s4_table())
    rows = [{"subgroup": sorted(h), "fixed_dim": 576 // len(h), "fixed_id": i,
             "bicommutant_ok": True, "bicommutant_residual": 1e-14}
            for i, h in enumerate(sorted(subgroups, key=sorted))]
    body = {"rows": rows, "proper": True, "injective": True,
            "minimal_action": False, "minimal_action_witness_dim": 24}
    return "galois-s4-regular", {"order": 24, "subgroups": subgroups}, _envelope("galois", body)


def _martingale():
    chain = [list(range(12)), [0, 3, 8, 11], [0, 3], [0]]
    moments = [2.7, 8.8, 15.2, 29.3]
    table = {"bimodule": 1e-14, "contraction_gap": 0, "idempotence": 1e-15,
             "identity_on_subalgebra": 0, "schwarz_min_eig": 0,
             "state_preservation": 1e-16, "unitality": 0}
    body = {"chain": chain, "moments": moments, "nondecreasing": True,
            "terminal_residual": 0, "chain_ends_trivially": True,
            "axiom_tables": {",".join(map(str, c)): dict(table) for c in chain}}
    return ("martingale-a4-regular", {"chain": chain, "moments": moments},
            _envelope("martingale", body))


def _modular():
    names = ["delta_equals_fs", "f_equals_j_halfinv", "j_halfpower_j", "j_selfadjoint",
             "j_squared", "s_equals_halfinv_j", "s_squared", "sf_equals_delta_inv"]
    body = {"gns_dim": 36, "identity_residuals": {n: 1e-13 for n in names},
            "tomita_takesaki": {"flow_invariance": 1e-15, "jmj_in_commutant": 1e-14},
            "kms_residuals": {"0.5": 3.0, "1.0": 6e-14, "2.0": 416.0}}
    return "modular-m6", {}, _envelope("modular", body)


def _crossed():
    subgroups = certify.subgroups_of(_symmetric_table(3))
    rows = [{"subgroup": sorted(h), "fixed_dim": 54 // len(h), "bicommutant_ok": True}
            for h in sorted(subgroups, key=sorted)]
    body = {"carrier_dim": 18, "algebra_dim": 54,
            "block_structure": [[6, 2], [3, 1], [3, 1]],
            "covariance_residual": 4e-15, "galois_rows": rows}
    return "crossed-s3-m3", {"subgroups": subgroups}, _envelope("crossed", body)


CLEAN = {"galois": _galois, "martingale": _martingale, "modular": _modular,
         "crossed": _crossed}


def _case(kind):
    workload, expected, report = CLEAN[kind]()
    expected.update(seed=7, inputs={"spec": "digest"})
    return workload, expected, report


@pytest.mark.parametrize("kind", sorted(CLEAN))
def test_clean_reports_pass(kind):
    workload, expected, report = _case(kind)
    assert certify.check_report(workload, expected, report) == []


def test_s4_has_thirty_subgroups():
    assert len(certify.subgroups_of(_s4_table())) == 30


def test_s3_has_six_subgroups():
    assert len(certify.subgroups_of(_symmetric_table(3))) == 6


def _set(path, value):
    def doctor(report):
        target = report
        for key in path[:-1]:
            target = target[key]
        target[path[-1]] = value
    return doctor


def _drop_row(report):
    report["report"]["rows"].pop()


def _drop_crossed_row(report):
    report["report"]["galois_rows"].pop()


DOCTORED = [
    ("galois", "violations", _set(["violations"], [{"check": "injectivity"}])),
    ("galois", "missing row", _drop_row),
    ("galois", "fixed_dim", _set(["report", "rows", 3, "fixed_dim"], 100)),
    ("galois", "not injective", _set(["report", "injective"], False)),
    ("galois", "not proper", _set(["report", "proper"], False)),
    ("galois", "witness", _set(["report", "minimal_action_witness_dim"], 1)),
    ("galois", "bicommutant", _set(["report", "rows", 0, "bicommutant_residual"], 2e-9)),
    ("galois", "seed", _set(["seed"], 8)),
    ("galois", "inputs", _set(["inputs"], {"spec": "other"})),
    ("galois", "command", _set(["command"], "modular")),
    ("martingale", "decreasing", _set(["report", "moments"], [2.7, 8.8, 8.7, 29.3])),
    ("martingale", "moment value", _set(["report", "moments", 0], 2.8)),
    ("martingale", "flag", _set(["report", "nondecreasing"], False)),
    ("martingale", "terminal", _set(["report", "terminal_residual"], 2e-10)),
    ("martingale", "terminal missing", _set(["report", "terminal_residual"], None)),
    ("martingale", "axiom", _set(["report", "axiom_tables", "0", "idempotence"], 2e-9)),
    ("martingale", "schwarz", _set(["report", "axiom_tables", "0", "schwarz_min_eig"], -2e-9)),
    ("modular", "gns_dim", _set(["report", "gns_dim"], 35)),
    ("modular", "identity", _set(["report", "identity_residuals", "j_squared"], 2e-9)),
    ("modular", "tomita-takesaki", _set(["report", "tomita_takesaki", "flow_invariance"], 1.0)),
    ("modular", "kms beta 1", _set(["report", "kms_residuals", "1.0"], 2e-10)),
    ("modular", "kms beta 2", _set(["report", "kms_residuals", "2.0"], 1e-4)),
    ("crossed", "dimension", _set(["report", "algebra_dim"], 53)),
    ("crossed", "blocks", _set(["report", "block_structure"], [[6, 2], [3, 2]])),
    ("crossed", "covariance", _set(["report", "covariance_residual"], 2e-10)),
    ("crossed", "carrier", _set(["report", "carrier_dim"], 9)),
    ("crossed", "malformed", _set(["report"], {"algebra_dim": 54})),
    ("crossed", "missing galois row", _drop_crossed_row),
    ("crossed", "wrong galois row", _set(["report", "galois_rows", 0, "subgroup"], [0, 1])),
    ("crossed", "galois bicommutant", _set(["report", "galois_rows", 2, "bicommutant_ok"], False)),
]


@pytest.mark.parametrize("kind,what,doctor", DOCTORED, ids=[f"{k}-{w}" for k, w, _ in DOCTORED])
def test_doctored_report_fails(kind, what, doctor):
    workload, expected, report = _case(kind)
    bad = copy.deepcopy(report)
    doctor(bad)
    assert certify.check_report(workload, expected, bad) != []


@pytest.mark.parametrize("kind", sorted(CLEAN))
def test_missing_report_fails(kind):
    workload, expected, _ = _case(kind)
    assert certify.check_report(workload, expected, None) == ["missing report"]


def test_tracer_self_time_and_nesting(tmp_path):
    tracer = traced_cli.Tracer(op_id=3)

    def leaf(x):
        return x + 1

    leaf = tracer.wrap("m.leaf", leaf)

    def outer(depth):
        return leaf(depth) if depth == 0 else outer_traced(depth - 1) + leaf(depth)

    outer_traced = tracer.wrap("m.outer", outer)
    assert outer_traced(2) == 6
    path = tmp_path / "spans.npz"
    tracer.save(str(path), import_s=0.5)
    layers = run.layer_metrics(path, scale=2.0)
    assert layers["m.outer.calls"] == 3
    assert layers["m.leaf.calls"] == 3
    # every time is rescaled by the op's factor
    assert layers["cli.import_s"] == 1.0
    with np.load(path) as d:
        dur = 2.0 * (d["end"] - d["start"])
        outer_mask = d["name"] == 1
        # recursion: only the outermost call counts towards total_s
        assert layers["m.outer.total_s"] == pytest.approx(dur[outer_mask].max())
        assert set(d["op"].tolist()) == {3}
    total_self = layers["m.outer.self_s"] + layers["m.leaf.self_s"]
    assert total_self == pytest.approx(layers["m.outer.total_s"])


def test_spawn_kills_a_child_past_the_deadline(tmp_path):
    previous = signal.signal(signal.SIGALRM, run._alarm)
    try:
        start = time.perf_counter()
        wall, code, _ = run.spawn([sys.executable, "-c", "import time; time.sleep(30)"],
                                  dict(os.environ), tmp_path / "log", start + 0.5)
    finally:
        signal.signal(signal.SIGALRM, previous)
    assert code is None
    assert 0.4 < wall < 10.0


def test_spawn_reports_the_childs_own_peak_rss(tmp_path):
    # a child started straight from this process, which holds numpy, would
    # carry this process's RSS high-water mark in its rusage
    wall, code, rss = run.spawn([sys.executable, "-c", "pass"], dict(os.environ),
                                tmp_path / "log", time.perf_counter() + 60.0)
    own_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    assert code == 0
    assert wall > 0.0
    assert 0.0 < rss < own_mb
