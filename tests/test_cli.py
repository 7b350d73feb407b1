import dataclasses
import importlib.util
import json
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import kernel_reference
import numpy as np
import pytest

from ncgalois import algebras, galois, groups, modular, ncprob, reporting, reps
from ncgalois.cli import main
from ncgalois.linalg import DEFAULT_TOL, Tolerance


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    """Fixture files shared by the CLI tests."""
    root = tmp_path_factory.mktemp("cli")
    s3 = groups.symmetric_group(3)
    with open(root / "s3.json", "w") as fh:
        json.dump(reporting.group_to_json(s3), fh)
    perm = reps.permutation_rep(s3, groups.symmetric_action(3))
    with open(root / "s3_perm.json", "w") as fh:
        json.dump(reporting.rep_to_json(perm), fh)
    reg = reps.regular_rep(s3)
    with open(root / "s3_reg.json", "w") as fh:
        json.dump(reporting.rep_to_json(reg), fh)
    return root


def write_spec(root, name, payload):
    path = root / name
    with open(path, "w") as fh:
        json.dump(payload, fh)
    return str(path)


def run_cli(args):
    return main([str(a) for a in args])


def load_report(path):
    with open(path) as fh:
        return json.load(fh)


def test_analyze_group(workspace, tmp_path):
    spec = write_spec(workspace, "a.json", {"group": "s3.json"})
    out = tmp_path / "r.json"
    assert run_cli(["analyze-group", spec, "--out", out]) == 0
    report = load_report(out)
    assert report["report"]["order"] == 6
    assert len(report["report"]["subgroups"]) == 6
    assert report["violations"] == []
    assert report["inputs"]["group"]["sha256"]


def test_irreps_report(workspace, tmp_path):
    spec = write_spec(workspace, "i.json", {"group": "s3.json"})
    out = tmp_path / "r.json"
    assert run_cli(["irreps", spec, "--out", out]) == 0
    body = load_report(out)["report"]
    assert body["dims"] == [1, 1, 2]
    assert body["sum_of_squares"] == 6
    assert body["peter_weyl_residual"] < 1e-10
    assert body["schur_max_deviation_from_pattern"] < 1e-10


def test_decompose_requires_seed(workspace, tmp_path):
    spec = write_spec(workspace, "d0.json", {"representation": "s3_reg.json"})
    assert run_cli(["decompose", spec, "--out", tmp_path / "x.json"]) == 1


def test_decompose_report(workspace, tmp_path):
    spec = write_spec(workspace, "d.json",
                      {"representation": "s3_reg.json", "seed": 7})
    out = tmp_path / "r.json"
    assert run_cli(["decompose", spec, "--out", out]) == 0
    body = load_report(out)["report"]
    assert body["blocks"] == [[0, 1], [1, 1], [2, 2]]
    assert body["block_diagonalization_residual"] < 1e-9


@pytest.mark.parametrize("command", ["irreps", "decompose"])
def test_irreps_and_decompose_reports_do_not_depend_on_the_tolerances(command, tmp_path,
                                                                      monkeypatch):
    # the tables are rebuilt for each run, so a tolerance that reached them
    # could not hide behind their memo
    s4 = groups.FIXTURE_GROUPS["S4"]()
    payload = ({"group": reporting.group_to_json(s4), "seed": 3} if command == "irreps" else
               {"representation": reporting.rep_to_json(reps.regular_rep(s4)), "seed": 7})
    spec = write_spec(tmp_path, "spec.json", payload)
    reports = []
    for options in ([], ["--tol-abs", 1e-10, "--tol-rel", 1e-6]):
        monkeypatch.setattr(reps, "_TABLE_CACHE", {})
        monkeypatch.setattr(reps, "_CHARACTER_CACHE", {})
        out = tmp_path / f"r{len(reports)}.json"
        assert run_cli([command, spec, *options, "--out", out]) == 0
        reports.append(load_report(out))
    default, loose = (r.pop("tolerances") for r in reports)
    assert default == {"abs_eps": 1e-12, "rel_eps": 1e-9}
    assert loose == {"abs_eps": 1e-10, "rel_eps": 1e-6}
    assert reports[0] == reports[1]


def test_galois_report(workspace, tmp_path):
    spec = write_spec(workspace, "g.json", {"representation": "s3_reg.json"})
    out = tmp_path / "r.json"
    assert run_cli(["galois", spec, "--out", out]) == 0
    body = load_report(out)["report"]
    assert body["proper"] and body["injective"]
    assert len(body["rows"]) == 6
    assert all(r["bicommutant_ok"] for r in body["rows"])


def test_galois_solves_one_commutant_per_subgroup_class(tmp_path, monkeypatch):
    # the minimal-action witness is the top row's first commutant, so S4
    # regular solves one first commutant per conjugacy class of its subgroups,
    # no fixed-point algebra, and nothing again for M^G
    s4 = groups.symmetric_group(4)
    (tmp_path / "s4_reg.json").write_text(json.dumps(reporting.rep_to_json(reps.regular_rep(s4))))
    spec = write_spec(tmp_path, "s4.json", {"representation": "s4_reg.json"})
    calls = {"fixed_point_algebra": [], "_solve_commutant": []}
    for module, name in ((algebras, "fixed_point_algebra"), (algebras, "_solve_commutant")):
        monkeypatch.setattr(module, name, lambda *args, _f=getattr(module, name), _n=name:
                            calls[_n].append(len(args[0])) or _f(*args))
    out = tmp_path / "r.json"
    assert run_cli(["galois", spec, "--out", out]) == 0
    classes = groups.subgroup_classes(s4, groups.enumerate_subgroups(s4))
    assert len(calls["_solve_commutant"]) == len({r for r, _ in classes}) == 11
    assert calls["fixed_point_algebra"] == []
    body = load_report(out)["report"]
    # (M^G)' is the span of the 24 left translations
    assert body["minimal_action_witness_dim"] == 24 and not body["minimal_action"]


def test_galois_on_order_48_builds_no_identity_basis(s4_times_z2, tmp_path):
    # S4 x Z2 regular, at the CLI's order bound: M = M_48 is read by its size,
    # so the traced peak is about 31 MiB with a cold irrep table, where the
    # 2304 x 2304 identity basis alone took 85 MB (a 94.5 MiB peak)
    (tmp_path / "rep.json").write_text(
        json.dumps(reporting.rep_to_json(reps.regular_rep(s4_times_z2))))
    spec = write_spec(tmp_path, "g48.json", {"representation": "rep.json"})
    out = tmp_path / "r.json"
    tracemalloc.start()
    try:
        assert run_cli(["galois", spec, "--out", out]) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 48 * 2 ** 20
    body = load_report(out)["report"]
    assert len(body["rows"]) == 98 and body["injective"] and body["proper"]
    assert load_report(out)["violations"] == []


def test_a_representations_group_file_is_hashed(workspace, tmp_path):
    # a representation may name its group by path; that file is an input too
    rep = reporting.rep_to_json(reps.regular_rep(groups.symmetric_group(3)))
    (workspace / "s3_reg_by_path.json").write_text(json.dumps({**rep, "group": "s3.json"}))
    spec = write_spec(workspace, "gp.json", {"representation": "s3_reg_by_path.json"})
    out = tmp_path / "r.json"
    assert run_cli(["galois", spec, "--out", out]) == 0
    inputs = load_report(out)["inputs"]
    assert inputs["representation"]["path"] == "s3_reg_by_path.json"
    assert inputs["representation.group"] == {
        "path": "s3.json", "sha256": reporting.sha256_of_file(workspace / "s3.json")}


def test_modular_report(workspace, tmp_path):
    rho = reporting.matrix_to_json(np.diag([0.5, 0.3, 0.2]).astype(complex))
    spec = write_spec(workspace, "m.json", {"state": rho, "seed": 1})
    out = tmp_path / "r.json"
    assert run_cli(["modular", spec, "--out", out]) == 0
    body = load_report(out)["report"]
    assert max(body["identity_residuals"].values()) < 1e-9
    assert body["kms_residuals"]["1.0"] < 1e-10
    assert body["kms_residuals"]["2.0"] > 1e-3


def test_crossed_report(workspace, tmp_path):
    z2 = groups.cyclic_group(2)
    spec = write_spec(workspace, "c.json", {
        "group": reporting.group_to_json(z2),
        "base": {"kind": "diagonal", "dim": 2},
        "action": {"kind": "ad", "unitaries": [
            reporting.matrix_to_json(np.eye(2, dtype=complex)),
            reporting.matrix_to_json(np.array([[0, 1], [1, 0]], dtype=complex)),
        ]},
        "seed": 3,
    })
    out = tmp_path / "r.json"
    assert run_cli(["crossed", spec, "--out", out]) == 0
    body = load_report(out)["report"]
    assert body["is_factor"]
    assert body["covariance_residual"] < 1e-10
    assert body["block_structure"] == [[2, 2]]


def test_martingale_report(workspace, tmp_path):
    s3 = groups.symmetric_group(3)
    subs = groups.enumerate_subgroups(s3)
    a3 = next(s for s in subs if s.order == 3)
    e11 = np.zeros((3, 3), dtype=complex)
    e11[0, 0] = 1.0
    spec = write_spec(workspace, "mart.json", {
        "group": "s3.json",
        "representation": "s3_perm.json",
        "chain": [list(range(6)), list(a3.members), [0]],
        "x": reporting.matrix_to_json(e11),
        "state": reporting.matrix_to_json(np.eye(3, dtype=complex) / 3),
        "seed": 5,
    })
    out = tmp_path / "r.json"
    assert run_cli(["martingale", spec, "--out", out]) == 0
    body = load_report(out)["report"]
    np.testing.assert_allclose(body["moments"], [1 / 9, 1 / 9, 1 / 3])
    assert body["nondecreasing"]
    assert body["terminal_residual"] == 0.0
    assert load_report(out)["violations"] == []


def test_martingale_flags_noninvariant_state(workspace, tmp_path):
    s3 = groups.symmetric_group(3)
    subs = groups.enumerate_subgroups(s3)
    a3 = next(s for s in subs if s.order == 3)
    e11 = np.zeros((3, 3), dtype=complex)
    e11[0, 0] = 1.0
    spec = write_spec(workspace, "mart_bad.json", {
        "group": "s3.json",
        "representation": "s3_perm.json",
        "chain": [list(range(6)), list(a3.members)],
        "x": reporting.matrix_to_json(e11),
        "state": reporting.matrix_to_json(np.diag([0.6, 0.3, 0.1]).astype(complex)),
        "seed": 5,
    })
    out = tmp_path / "r.json"
    # violations recorded, run still succeeds
    assert run_cli(["martingale", spec, "--out", out]) == 0
    report = load_report(out)
    assert any(v["check"].startswith("cond_exp:state_preservation")
               for v in report["violations"])


def _workloads():
    """The benchmark's ``perfbench/workloads.py``, which writes each workload's inputs."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"
    loader = importlib.util.spec_from_file_location("workloads", path)
    workloads = importlib.util.module_from_spec(loader)
    loader.loader.exec_module(workloads)
    return workloads


def test_martingale_solves_each_chain_algebra_once_at_the_cli_tolerance(tmp_path, monkeypatch):
    # the axiom audit reads M^{H_t} off the filtration, so the A4 benchmark
    # chain of four subgroups makes four fixed-point solves, all at --tol-*
    spec = _workloads().write_inputs("martingale-a4-regular", 101, str(tmp_path))
    tols, honest = [], algebras.fixed_point_algebra
    monkeypatch.setattr(algebras, "fixed_point_algebra", lambda m, rep, sub, tol=DEFAULT_TOL:
                        tols.append(tol) or honest(m, rep, sub, tol))
    out = tmp_path / "r.json"
    assert run_cli(["martingale", spec, "--tol-rel", "1e-8", "--out", out]) == 0
    assert tols == [Tolerance(abs_eps=1e-12, rel_eps=1e-8)] * 4
    assert load_report(out)["violations"] == []


@pytest.mark.parametrize("workload, subgroups, expectations", [
    ("galois-s4-regular", 30, 52), ("martingale-a4-regular", 4, 42)])
def test_orbitals_are_labelled_once_per_subgroup(workload, subgroups, expectations, tmp_path,
                                                 monkeypatch):
    # every conditional expectation and fixed-point algebra on a permutation
    # representation reads H's orbital labels, computed on the first call for
    # H and kept on the representation
    spec = _workloads().write_inputs(workload, 101, str(tmp_path))
    labelled, averaged = [], []
    orbitals, expectation = reps.UnitaryRep.orbitals, ncprob.conditional_expectation

    def labelling(rep, members):
        if members not in rep._orbitals:   # the call that labels H
            labelled.append(members)
        return orbitals(rep, members)

    monkeypatch.setattr(reps.UnitaryRep, "orbitals", labelling)
    monkeypatch.setattr(ncprob, "conditional_expectation",
                        lambda a, rep, sub:
                        averaged.append(sub.members) or expectation(a, rep, sub))
    assert run_cli([workload.split("-")[0], spec, "--out", tmp_path / "r.json"]) == 0
    assert load_report(tmp_path / "r.json")["violations"] == []
    assert len(labelled) == len(set(labelled)) == subgroups
    assert set(averaged) == set(labelled) and len(averaged) == expectations


@pytest.mark.parametrize("command", ["galois", "analyze-group"])
def test_a_cli_run_on_s4_leaves_numpy_ma_unloaded(command, tmp_path):
    # a plain np.unique imports numpy.ma, 25-31 ms of a cold CLI process in
    # numpy 2.x; neither the galois path (class sums, lattice, rows) nor
    # conjugacy_classes needs it
    if command == "galois":
        spec = _workloads().write_inputs("galois-s4-regular", 101, str(tmp_path))
    else:
        spec = write_spec(tmp_path, "s4.json",
                          {"group": reporting.group_to_json(groups.symmetric_group(4))})
    src = os.path.dirname(os.path.dirname(reps.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run(
        [sys.executable, "-c",
         "import sys\nfrom ncgalois import cli\nstatus = cli.main(sys.argv[1:])\n"
         "print('numpy.ma' in sys.modules, 'numpy' in sys.modules)\nsys.exit(status)",
         command, spec, "--out", str(tmp_path / "r.json")],
        env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split()[-2:] == ["False", "True"]


def _crossed_spec(base_extra=None, action_extra=None):
    z2 = groups.cyclic_group(2)
    flip = np.array([[0, 1], [1, 0]], dtype=complex)
    return {
        "group": reporting.group_to_json(z2),
        "base": {"kind": "diagonal", "dim": 2, **(base_extra or {})},
        "action": {"kind": "ad", "unitaries": [
            reporting.matrix_to_json(np.eye(2, dtype=complex)),
            reporting.matrix_to_json(flip),
        ], **(action_extra or {})},
        "seed": 3,
    }


def _z2_with(extra):
    return {**reporting.group_to_json(groups.cyclic_group(2)), **extra}


@pytest.mark.parametrize("command, payload, detail", [
    ("analyze-group", {"group": "s3.json", "oops": 1}, "unknown spec fields: ['oops']"),
    ("crossed", _crossed_spec(base_extra={"oops": 1}), "unknown base fields: ['oops']"),
    ("crossed", _crossed_spec(action_extra={"oops": 1}), "unknown action fields: ['oops']"),
    ("analyze-group", {"group": _z2_with({"oops": 1})}, "unknown group fields: ['oops']"),
    ("decompose", {"representation": {**reporting.rep_to_json(
        kernel_reference.trivial_rep(groups.cyclic_group(2))), "oops": 1}, "seed": 1},
     "unknown representation fields: ['oops']"),
], ids=["spec", "base", "action", "group", "representation"])
def test_unknown_fields_rejected(workspace, tmp_path, capsys, command, payload, detail):
    spec = write_spec(workspace, f"unknown-{command}.json", payload)
    assert run_cli([command, spec, "--out", tmp_path / "x.json"]) == 1
    error = json.loads(capsys.readouterr().out)
    assert error["error"] == "validation" and error["detail"] == detail


@pytest.mark.parametrize("part, obj, detail", [
    ("base", {"kind": "diagonal"}, "missing base fields: ['dim']"),
    ("base", {"kind": "span", "dim": 2}, "missing base fields: ['matrices']"),
    ("action", {"kind": "ad"}, "missing action fields: ['unitaries']"),
    ("action", {"kind": "table"}, "missing action fields: ['tables']"),
], ids=["base-dim", "span-matrices", "ad-unitaries", "table-tables"])
def test_missing_crossed_fields_are_named(workspace, tmp_path, capsys, part, obj, detail):
    # a missing field is a bad input named by the validator, not a KeyError
    spec = write_spec(workspace, f"missing-{part}.json", {**_crossed_spec(), part: obj})
    assert run_cli(["crossed", spec, "--out", tmp_path / "x.json"]) == 1
    error = json.loads(capsys.readouterr().out)
    assert error["error"] == "validation" and error["kind"] == "SpecValidationError"
    assert error["detail"] == detail


@pytest.mark.parametrize("field", ["group", "dim", "matrices"])
def test_missing_representation_fields_are_named(workspace, tmp_path, capsys, field):
    # every command that takes a representation reads it through rep_from_json
    rep = reporting.rep_to_json(reps.regular_rep(groups.cyclic_group(2)))
    del rep[field]
    spec = write_spec(workspace, f"missing-rep-{field}.json", {"representation": rep, "seed": 1})
    assert run_cli(["decompose", spec, "--out", tmp_path / "x.json"]) == 1
    error = json.loads(capsys.readouterr().out)
    assert error["error"] == "validation" and error["kind"] == "SpecValidationError"
    assert error["detail"] == f"missing representation fields: ['{field}']"


@pytest.mark.parametrize("option", ["--tol-abs", "--tol-rel"])
@pytest.mark.parametrize("value", ["nan", "-1", "inf"])
def test_invalid_tolerance_rejected(workspace, tmp_path, capsys, option, value):
    # a NaN, negative or infinite tolerance is a bad input, not a numerical failure
    spec = write_spec(workspace, "g.json", {"representation": "s3_reg.json"})
    out = tmp_path / "x.json"
    assert run_cli(["galois", spec, option, value, "--out", out]) == 1
    error = json.loads(capsys.readouterr().out)
    assert error["error"] == "validation" and error["kind"] == "SpecValidationError"
    assert error["detail"].startswith(f"{option} must be finite and non-negative")
    assert not out.exists()


def test_malformed_group_file_exit_code(workspace, tmp_path, capsys):
    spec = write_spec(workspace, "bad.json",
                      {"group": {"order": 2, "mult_table": [[0, 1], [1, 1]]}})
    assert run_cli(["analyze-group", spec, "--out", tmp_path / "x.json"]) == 1
    captured = capsys.readouterr()
    assert "NotLatinSquare" in captured.out


def test_missing_input_file(workspace, tmp_path):
    spec = write_spec(workspace, "miss.json", {"group": "nope.json"})
    assert run_cli(["analyze-group", spec, "--out", tmp_path / "x.json"]) == 1


def test_fixture_dir_env_var(workspace, tmp_path, monkeypatch):
    elsewhere = tmp_path / "specs"
    elsewhere.mkdir()
    spec = elsewhere / "a.json"
    with open(spec, "w") as fh:
        json.dump({"group": "s3.json"}, fh)
    monkeypatch.setenv("NCGALOIS_FIXTURES", str(workspace))
    out = tmp_path / "r.json"
    assert run_cli(["analyze-group", spec, "--out", out]) == 0


def test_byte_determinism_across_runs_and_threads(workspace, tmp_path):
    """Same spec, two runs, different BLAS thread settings: equal bytes."""
    spec = write_spec(workspace, "det.json",
                      {"representation": "s3_reg.json", "seed": 2})
    outputs = []
    for threads in ("1", "4"):
        out = tmp_path / f"det-{threads}-a.json"
        env = dict(os.environ,
                   OMP_NUM_THREADS=threads, OPENBLAS_NUM_THREADS=threads)
        proc = subprocess.run(
            [sys.executable, "-m", "ncgalois.cli", "galois", spec,
             "--out", str(out)],
            env=env, capture_output=True, text=True,
        )
        assert proc.returncode == 0, proc.stdout + proc.stderr
        outputs.append(out.read_bytes())
    # and a plain re-run
    out = tmp_path / "det-rerun.json"
    subprocess.run(
        [sys.executable, "-m", "ncgalois.cli", "galois", spec, "--out", str(out)],
        capture_output=True, check=True,
    )
    outputs.append(out.read_bytes())
    assert outputs[0] == outputs[1] == outputs[2]


def test_cli_import_leaves_numpy_unloaded():
    """The BLAS pin in main() only works if importing the CLI loads no numpy."""
    proc = subprocess.run(
        [sys.executable, "-c",
         "import sys, ncgalois.cli; print('numpy' in sys.modules)"],
        capture_output=True, text=True, check=True,
    )
    assert proc.stdout.strip() == "False"


def test_byte_determinism_across_threads_s4(tmp_path):
    """S4 regular (24x24) is large enough for threaded BLAS to change the bytes."""
    s4 = groups.symmetric_group(4)
    with open(tmp_path / "s4_reg.json", "w") as fh:
        json.dump(reporting.rep_to_json(reps.regular_rep(s4)), fh)
    spec = write_spec(tmp_path, "det_s4.json", {"representation": "s4_reg.json"})
    outputs = []
    for threads in ("1", "2"):
        out = tmp_path / f"det-s4-{threads}.json"
        env = dict(os.environ,
                   OMP_NUM_THREADS=threads, OPENBLAS_NUM_THREADS=threads)
        proc = subprocess.run(
            [sys.executable, "-m", "ncgalois.cli", "galois", spec,
             "--out", str(out)],
            env=env, capture_output=True, text=True,
        )
        assert proc.returncode == 0, proc.stdout + proc.stderr
        outputs.append(out.read_bytes())
    assert outputs[0] == outputs[1]


def _shifted(table, by):
    return [[entry + by for entry in row] for row in table]


@pytest.mark.parametrize("command, payload", [
    ("analyze-group", {"group": {"mult_table": _shifted([[0, 1], [1, 0]], 0.4)}}),
    ("analyze-group", {"group": {**reporting.group_to_json(groups.symmetric_group(3)),
                                 "order": 6.5}}),
    ("analyze-group", {"group": {"order": True, "mult_table": [[0]]}}),
    ("decompose", {"representation": {**reporting.rep_to_json(
        reps.regular_rep(groups.symmetric_group(3))), "dim": 6.7}, "seed": 1}),
    ("crossed", _crossed_spec(base_extra={"dim": 2.9})),
    ("decompose", {"representation": "s3_reg.json", "seed": True}),
], ids=["mult-table", "order", "bool-order", "rep-dim", "base-dim", "bool-seed"])
def test_non_integer_spec_values_rejected(workspace, tmp_path, capsys, command, payload):
    # int() would truncate each of these to a valid value
    spec = write_spec(workspace, f"non-integer-{command}.json", payload)
    assert run_cli([command, spec, "--out", tmp_path / "x.json"]) == 1
    error = json.loads(capsys.readouterr().out)
    assert error["kind"] == "SpecValidationError"
    assert "must be an integer" in error["detail"]


@pytest.mark.parametrize("dim", [0, -2])
@pytest.mark.parametrize("kind", ["full", "diagonal", "scalars", "span"])
def test_crossed_base_dim_below_one_rejected(workspace, tmp_path, capsys, kind, dim):
    # an empty or negative carrier is a bad input, not a numerical failure
    base = {"kind": kind, "dim": dim}
    if kind == "span":
        base["matrices"] = [reporting.matrix_to_json(np.eye(2, dtype=complex))]
    spec = write_spec(workspace, f"base-dim-{kind}.json", {**_crossed_spec(), "base": base})
    assert run_cli(["crossed", spec, "--out", tmp_path / "x.json"]) == 1
    error = json.loads(capsys.readouterr().out)
    assert error["error"] == "validation" and error["kind"] == "SpecValidationError"
    assert "base dim" in error["detail"]


def _with_entry(obj, value):
    """A matrix or representation object whose first entry is ``value``."""
    obj = json.loads(json.dumps(obj))
    first = obj["entries"] if "entries" in obj else obj["matrices"][0][0]
    first[0][0] = value
    return obj


def _martingale_spec(**fields):
    s3 = groups.symmetric_group(3)
    return {"group": "s3.json", "representation": "s3_perm.json",
            "chain": [list(range(6)), [s3.identity]],
            "x": reporting.matrix_to_json(np.eye(3, dtype=complex)),
            "state": reporting.matrix_to_json(np.eye(3, dtype=complex) / 3),
            "seed": 5, **fields}


@pytest.mark.parametrize("command, payload, where", [
    ("decompose", {"representation": _with_entry(reporting.rep_to_json(
        reps.regular_rep(groups.symmetric_group(3))), float("nan")), "seed": 1},
     "representation matrices at (0, 0, 0)"),
    ("modular", {"state": _with_entry(reporting.matrix_to_json(
        np.diag([0.5, 0.3, 0.2]).astype(complex)), float("inf")), "seed": 1}, "state at (0, 0)"),
    ("martingale", _martingale_spec(x=_with_entry(
        reporting.matrix_to_json(np.eye(3, dtype=complex)), float("nan"))), "x at (0, 0)"),
    ("crossed", {**_crossed_spec(), "action": {"kind": "ad", "unitaries": [
        reporting.matrix_to_json(np.eye(2, dtype=complex)),
        _with_entry(reporting.matrix_to_json(np.eye(2, dtype=complex)), float("nan"))]}},
     "action unitary at (0, 0)"),
], ids=["representation", "state", "x", "ad-unitary"])
def test_non_finite_spec_values_rejected(workspace, tmp_path, capsys, command, payload, where):
    # json.load accepts NaN and Infinity, which no residual bound can catch
    spec = write_spec(workspace, f"non-finite-{command}.json", payload)
    assert run_cli([command, spec, "--out", tmp_path / "x.json"]) == 1
    error = json.loads(capsys.readouterr().out)
    assert error["kind"] == "SpecValidationError"
    assert error["detail"] == f"non-finite entry in {where}"


def test_irreps_runs_no_commutant_kernel_outside_the_table(workspace, tmp_path, monkeypatch):
    # the table's irreps are certified by their character norms, not by kernels
    from ncgalois import linalg

    inside, outside = [0], []
    table, kernel = reps.irrep_table, linalg.commutant_kernel

    def counted_table(*args, **kwargs):
        inside[0] += 1
        try:
            return table(*args, **kwargs)
        finally:
            inside[0] -= 1

    def counted_kernel(*args, **kwargs):
        if not inside[0]:
            outside.append(args[0].shape)
        return kernel(*args, **kwargs)

    monkeypatch.setattr(reps, "irrep_table", counted_table)
    monkeypatch.setattr(linalg, "commutant_kernel", counted_kernel)
    spec = write_spec(workspace, "s4-irreps.json",
                      {"group": reporting.group_to_json(groups.symmetric_group(4))})
    assert run_cli(["irreps", spec, "--out", tmp_path / "r.json"]) == 0
    assert outside == []
    assert load_report(tmp_path / "r.json")["report"]["dims"] == [1, 1, 2, 3, 3]


_VALIDATION = ("SpecValidationError", "NotLatinSquare", "NotAssociative", "NoIdentity",
               "NoInverse", "OrderBoundExceeded", "ParentMismatch", "DimensionMismatch",
               "NotAHomomorphism", "NotAState", "NotFaithful", "NotContained",
               "NotInvariantAlgebra")
_NUMERICAL = ("NotHermitian", "NoConvergence", "NotPositiveDefinite", "NotIrreducible",
              "DecompositionFailed", "IncompleteTable", "CenterSplitFailed", "ClosureFailed")


def _leaf_errors():
    """Names of the package's error classes that no other class extends."""
    from ncgalois import errors

    classes, stack = [], [errors.NCGaloisError]
    while stack:
        subclasses = stack.pop().__subclasses__()
        classes += [c for c in subclasses if not c.__subclasses__()]
        stack += subclasses
    return {c.__name__ for c in classes}


def test_every_error_class_is_classified_once():
    assert _leaf_errors() == {*_VALIDATION, *_NUMERICAL}
    assert len(_VALIDATION) + len(_NUMERICAL) == 21


@pytest.mark.parametrize("name, code, kind", [
    *((name, 1, "validation") for name in _VALIDATION),
    *((name, 2, "numerical") for name in _NUMERICAL),
])
def test_the_exception_class_decides_the_exit_code(workspace, tmp_path, capsys, monkeypatch,
                                                   name, code, kind):
    from ncgalois import cli, errors

    def planted(*args):
        raise getattr(errors, name)("planted")

    monkeypatch.setitem(cli._HANDLERS, "analyze-group", planted)
    spec = write_spec(workspace, "planted.json", {"group": "s3.json"})
    out = tmp_path / "x.json"
    assert run_cli(["analyze-group", spec, "--out", out]) == code
    assert json.loads(capsys.readouterr().out) == {"error": kind, "kind": name,
                                                   "detail": "planted"}
    assert not out.exists()


def _doubled_left_mult():
    honest = modular.GNSSpace.left_mult_matrix
    return lambda self, a: 2.0 * honest(self, a)


def _similar_left_mult():
    # S L_a S^-1 for a fixed non-unitary S: still multiplicative, no longer adjoint-compatible
    honest = modular.GNSSpace.left_mult_matrix

    def similar(self, a):
        s = np.arange(1.0, self.dim + 1.0)
        return (s[:, None] * honest(self, a)) / s[None, :]
    return similar


def _conditional_expectation_failing_after(calls):
    # the first ``calls`` expectations are honest, each later one returns its argument
    honest, seen = ncprob.conditional_expectation, []

    def planted(x, rep, subgroup):
        seen.append(x)
        return honest(x, rep, subgroup) if len(seen) <= calls else x
    return planted


def _scalars_for_the_trivial_subgroup():
    honest = algebras.fixed_point_algebra
    return lambda m, rep, sub, tol=DEFAULT_TOL: (
        algebras.StarAlgebra.scalars(m.ambient_dim) if sub.order == 1
        else honest(m, rep, sub, tol))


@pytest.mark.parametrize("command, owner, name, make, detail", [
    ("modular", modular.GNSSpace, "left_mult_matrix", _doubled_left_mult,
     "left multiplication failed to be multiplicative"),
    ("modular", modular.GNSSpace, "left_mult_matrix", _similar_left_mult,
     "left multiplication failed the adjoint relation"),
    ("martingale", algebras, "fixed_point_algebra", _scalars_for_the_trivial_subgroup,
     "fixed algebras failed to increase along the chain"),
    ("martingale", ncprob, "conditional_expectation",
     lambda: _conditional_expectation_failing_after(0), "element is not adapted"),
    ("martingale", ncprob, "conditional_expectation",
     lambda: _conditional_expectation_failing_after(2), "martingale property failed at (0,1)"),
], ids=["gns-multiplicative", "gns-adjoint", "filtration-increasing", "adapted",
        "martingale-property"])
def test_a_failed_certificate_is_numerical(workspace, tmp_path, capsys, monkeypatch,
                                           command, owner, name, make, detail):
    # a planted defect in a certificate the package computes exits 2, not as bad input
    monkeypatch.setattr(owner, name, make())
    unit = np.zeros((3, 3), dtype=complex)
    unit[0, 0] = 1.0
    payload = ({"state": reporting.matrix_to_json(np.diag([0.5, 0.3, 0.2]).astype(complex)),
                "seed": 1} if command == "modular"
               else _martingale_spec(x=reporting.matrix_to_json(unit)))
    spec = write_spec(workspace, f"planted-{command}.json", payload)
    assert run_cli([command, spec, "--out", tmp_path / "x.json"]) == 2
    error = json.loads(capsys.readouterr().out)
    assert error["error"] == "numerical" and error["kind"] == "ClosureFailed"
    assert error["detail"].startswith(detail)


def test_a_failed_crossed_self_test_is_numerical(workspace, tmp_path, capsys, monkeypatch):
    # four identities in place of each generating pair generate only the
    # scalars, so the crossed algebra fails its certificate A'' = A: a
    # numerical ClosureFailed, exit 2, where a covariance failure exits 1
    monkeypatch.setattr(algebras, "_generating_pair", lambda basis: np.broadcast_to(
        np.eye(basis.shape[1], dtype=complex), (4, *basis.shape[1:])))
    spec = write_spec(workspace, "planted-crossed.json", _crossed_spec())
    assert run_cli(["crossed", spec, "--out", tmp_path / "x.json"]) == 2
    error = json.loads(capsys.readouterr().out)
    assert error["error"] == "numerical" and error["kind"] == "ClosureFailed"
    assert error["detail"].startswith(
        "the double commutant, of dimension 1, is not the span, of dimension 4")


def _wrapped(owner, name, change):
    """``owner.name`` with ``change`` applied to what it returns."""
    honest = getattr(owner, name)
    return lambda *args, **kwargs: change(honest(*args, **kwargs))


@pytest.mark.parametrize("command, owner, name, make, check", [
    ("irreps", reps, "peter_weyl_basis",
     lambda: _wrapped(reps, "peter_weyl_basis", lambda found: (2.0 * found[0], *found[1:])),
     "peter_weyl_orthonormality"),
    ("decompose", reps, "decompose",
     lambda: _wrapped(reps, "decompose", lambda dec: dataclasses.replace(
         dec, intertwiner=dec.intertwiner[:, ::-1])), "block_diagonalization"),
    ("modular", modular, "tomita",
     lambda: _wrapped(modular, "tomita", lambda md: dataclasses.replace(md, delta=2.0 * md.delta)),
     "identity:delta_equals_fs"),
    ("modular", modular, "kms_residual",
     lambda: (lambda rho, a, b, beta, tol, _f=modular.kms_residual: _f(rho, a, b, 2 * beta, tol)),
     "kms_at_beta_1"),
    ("martingale", ncprob, "martingale_from",
     lambda: _wrapped(ncprob, "martingale_from", lambda mart: dataclasses.replace(
         mart, elements=mart.elements[::-1])), "moment_monotonicity"),
], ids=["peter-weyl", "block-diagonalization", "modular-identity", "kms", "moments"])
def test_a_planted_defect_is_a_recorded_violation(workspace, tmp_path, monkeypatch, command,
                                                  owner, name, make, check):
    # a planted defect upstream of each property check the CLI records itself:
    # a Peter-Weyl basis scaled by 2, an intertwiner with its columns reversed,
    # Delta doubled, the KMS residual taken at beta = 2, and the martingale
    # read backwards, whose moments then decrease; each lands in the report's
    # violations under its check's name, and the run exits 0
    unit = np.zeros((3, 3), dtype=complex)
    unit[0, 0] = 1.0
    payload = {"irreps": {"group": "s3.json", "seed": 3},
               "decompose": {"representation": "s3_reg.json", "seed": 7},
               "modular": {"state": reporting.matrix_to_json(
                   np.diag([0.5, 0.3, 0.2]).astype(complex)), "seed": 1},
               "martingale": _martingale_spec(x=reporting.matrix_to_json(unit))}[command]
    spec = write_spec(workspace, f"defect-{check}.json", payload)
    out = tmp_path / "r.json"
    assert run_cli([command, spec, "--out", out]) == 0
    assert check not in [v["check"] for v in load_report(out)["violations"]]
    monkeypatch.setattr(owner, name, make())
    assert run_cli([command, spec, "--out", out]) == 0
    assert check in [v["check"] for v in load_report(out)["violations"]]


def test_a_galois_spec_with_a_mode_is_rejected(workspace, tmp_path, capsys):
    # the CLI builds the full algebra, where the mode is always "inner"
    spec = write_spec(workspace, "g-mode.json", {"representation": "s3_reg.json",
                                                 "mode": "inner"})
    assert run_cli(["galois", spec, "--out", tmp_path / "x.json"]) == 1
    error = json.loads(capsys.readouterr().out)
    assert error == {"error": "validation", "kind": "SpecValidationError",
                     "detail": "unknown spec fields: ['mode']"}
