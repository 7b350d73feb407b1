import json
import os
import subprocess
import sys

import numpy as np
import pytest

from ncgalois import groups, reporting, reps
from ncgalois.cli import main


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


def test_galois_report(workspace, tmp_path):
    spec = write_spec(workspace, "g.json", {"representation": "s3_reg.json"})
    out = tmp_path / "r.json"
    assert run_cli(["galois", spec, "--out", out]) == 0
    body = load_report(out)["report"]
    assert body["proper"] and body["injective"]
    assert len(body["rows"]) == 6
    assert all(r["bicommutant_ok"] for r in body["rows"])


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
        reps.trivial_rep(groups.cyclic_group(2))), "oops": 1}, "seed": 1},
     "unknown representation fields: ['oops']"),
], ids=["spec", "base", "action", "group", "representation"])
def test_unknown_fields_rejected(workspace, tmp_path, capsys, command, payload, detail):
    spec = write_spec(workspace, f"unknown-{command}.json", payload)
    assert run_cli([command, spec, "--out", tmp_path / "x.json"]) == 1
    error = json.loads(capsys.readouterr().out)
    assert error["error"] == "validation" and error["detail"] == detail


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
