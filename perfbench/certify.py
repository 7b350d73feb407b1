"""Verdict gate: check each CLI report against closed forms.

Nothing here imports ``ncgalois``.  The certificates come from what the
inputs are (the regular representation of S4, a faithful state on M6,
S3 acting on M3 by an inner action, the A4 martingale tower) and the
bounds are the acceptance suite's own, never looser.  ``check_report``
returns the list of failed checks; an empty list means the op is
verified.
"""

from __future__ import annotations

import hashlib
import json
import os

import numpy as np

# acceptance-suite bounds (tests/test_acceptance.py)
BICOMMUTANT_BOUND = 1e-9        # criterion 4
AXIOM_BOUND = 1e-9              # criterion 5
TERMINAL_BOUND = 1e-10          # criterion 6
IDENTITY_BOUND = 1e-9           # criterion 7
KMS_BETA1_BOUND = 1e-10         # criterion 7
KMS_BETA2_FLOOR = 1e-3          # criterion 7
COVARIANCE_BOUND = 1e-10        # criterion 8
MOMENT_SLACK = 1e-10            # ncprob.convergence_check default
MOMENT_RTOL = 1e-9              # reported moments against numpy's own

S4_SUBGROUPS = 30
S3_SUBGROUPS = 6
CROSSED_DIM = 54
CROSSED_CARRIER = 18
CROSSED_BLOCKS = [[3, 1], [3, 1], [6, 2]]
GNS_DIM = 36


def sha256_of_file(path: str) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def _matrix(obj) -> np.ndarray:
    flat = np.array([complex(re, im) for re, im in obj["entries"]])
    return flat.reshape(obj["rows"], obj["cols"])


def _load(input_dir: str, name: str):
    with open(os.path.join(input_dir, name)) as fh:
        return json.load(fh)


def subgroups_of(mult) -> set:
    """Every subgroup of the group with this multiplication table, by closure."""
    order = len(mult)
    identity = next(e for e in range(order) if list(mult[e]) == list(range(order)))

    def close(gens) -> frozenset:
        members = set(gens) | {identity}
        frontier = list(members)
        while frontier:
            grown = []
            for a in frontier:
                for b in list(members):
                    for c in (mult[a][b], mult[b][a]):
                        if c not in members:
                            members.add(c)
                            grown.append(c)
            frontier = grown
        return frozenset(members)

    found = {close(())}
    frontier = list(found)
    while frontier:
        grown = []
        for h in frontier:
            for g in range(order):
                if g not in h:
                    s = close(h | {g})
                    if s not in found:
                        found.add(s)
                        grown.append(s)
        frontier = grown
    return found


def expected_for(workload: str, input_dir: str) -> dict:
    """Closed-form facts about one workload's inputs, computed once per run."""
    spec = _load(input_dir, "spec.json")
    inputs = {}
    for key, value in spec.items():
        if isinstance(value, str):
            inputs[key] = {"path": value,
                           "sha256": sha256_of_file(os.path.join(input_dir, value))}
    expected = {"seed": spec["seed"], "inputs": inputs}
    if workload == "galois-s4-regular":
        mult = _load(input_dir, spec["representation"])["group"]["mult_table"]
        expected["order"] = len(mult)
        expected["subgroups"] = subgroups_of(mult)
    elif workload == "martingale-a4-regular":
        rep = _load(input_dir, spec["representation"])
        mats = np.array([[[complex(re, im) for re, im in row] for row in m]
                         for m in rep["matrices"]])
        x = _matrix(_load(input_dir, spec["x"]))
        rho = _matrix(_load(input_dir, spec["state"]))
        moments = []
        for members in spec["chain"]:
            u = mats[members]
            xt = np.einsum("gij,jk,glk->il", u, x, u.conj()) / len(members)
            moments.append(float(np.trace(rho @ xt.conj().T @ xt).real))
        expected["chain"] = spec["chain"]
        expected["moments"] = moments
    elif workload == "crossed-s3-m3":
        expected["subgroups"] = subgroups_of(_load(input_dir, spec["group"])["mult_table"])
    return expected


def _galois(body: dict, expected: dict) -> list:
    order = expected["order"]
    rows = body["rows"]
    fails = []
    if len(rows) != S4_SUBGROUPS:
        fails.append(f"rows: {len(rows)} != {S4_SUBGROUPS}")
    if {frozenset(r["subgroup"]) for r in rows} != expected["subgroups"]:
        fails.append("rows: subgroups differ from the closure of the table")
    for r in rows:
        if r["fixed_dim"] * len(r["subgroup"]) != order * order:
            fails.append(f"fixed_dim*|H| != |G|^2 at {r['subgroup']}")
        if not r["bicommutant_ok"] or not r["bicommutant_residual"] <= BICOMMUTANT_BOUND:
            fails.append(f"bicommutant at {r['subgroup']}")
    for flag in ("proper", "injective"):
        if body[flag] is not True:
            fails.append(f"{flag} is not true")
    if body["minimal_action_witness_dim"] != order:
        fails.append(f"minimal_action_witness_dim != {order}")
    return fails


def _martingale(body: dict, expected: dict) -> list:
    fails = []
    moments = body["moments"]
    if body["chain"] != expected["chain"]:
        fails.append("chain differs from the spec")
    if body["nondecreasing"] is not True or any(
            a > b + MOMENT_SLACK for a, b in zip(moments, moments[1:])):
        fails.append("moments decrease")
    if len(moments) != len(expected["moments"]) or any(
            abs(a - b) > MOMENT_RTOL * max(1.0, abs(b))
            for a, b in zip(moments, expected["moments"])):
        fails.append("moments differ from phi(E(x)* E(x))")
    if body["terminal_residual"] is None or not body["terminal_residual"] <= TERMINAL_BOUND:
        fails.append("terminal residual")
    if len(body["axiom_tables"]) != len(expected["chain"]):
        fails.append("axiom tables missing")
    for key, table in body["axiom_tables"].items():
        for name, value in table.items():
            worst = -value if name == "schwarz_min_eig" else value
            if not worst <= AXIOM_BOUND:
                fails.append(f"axiom {name} at {key}")
    return fails


def _modular(body: dict, expected: dict) -> list:
    fails = []
    if body["gns_dim"] != GNS_DIM:
        fails.append(f"gns_dim != {GNS_DIM}")
    residuals = dict(body["identity_residuals"])
    residuals.update(body["tomita_takesaki"])
    for name, value in residuals.items():
        if not value <= IDENTITY_BOUND:
            fails.append(f"identity {name}")
    if len(body["identity_residuals"]) != 8:
        fails.append("identity residuals missing")
    kms = body["kms_residuals"]
    if not kms["1.0"] <= KMS_BETA1_BOUND:
        fails.append("KMS at beta 1")
    if not kms["2.0"] > KMS_BETA2_FLOOR:
        fails.append("KMS at beta 2 is not a negative control")
    return fails


def _crossed(body: dict, expected: dict) -> list:
    fails = []
    if body["carrier_dim"] != CROSSED_CARRIER:
        fails.append(f"carrier_dim != {CROSSED_CARRIER}")
    if body["algebra_dim"] != CROSSED_DIM:
        fails.append(f"algebra_dim != {CROSSED_DIM}")
    if sorted(body["block_structure"]) != CROSSED_BLOCKS:
        fails.append(f"blocks != {CROSSED_BLOCKS}")
    if not body["covariance_residual"] <= COVARIANCE_BOUND:
        fails.append("covariance")
    rows = body["galois_rows"]
    if len(rows) != S3_SUBGROUPS:
        fails.append(f"galois_rows: {len(rows)} != {S3_SUBGROUPS}")
    if {frozenset(r["subgroup"]) for r in rows} != expected["subgroups"]:
        fails.append("galois_rows: subgroups differ from the closure of the table")
    if not all(r["bicommutant_ok"] for r in rows):
        fails.append("crossed Galois bicommutant")
    return fails


_CHECKS = {
    "galois-s4-regular": ("galois", _galois),
    "martingale-a4-regular": ("martingale", _martingale),
    "modular-m6": ("modular", _modular),
    "crossed-s3-m3": ("crossed", _crossed),
}


def check_report(workload: str, expected: dict, report) -> list:
    """Failed checks of one parsed report; ``None`` stands for a missing report."""
    if report is None:
        return ["missing report"]
    command, check = _CHECKS[workload]
    fails = []
    if report.get("command") != command:
        fails.append(f"command != {command}")
    if report.get("seed") != expected["seed"]:
        fails.append("seed differs from the spec")
    if report.get("inputs") != expected["inputs"]:
        fails.append("input hashes differ from the files written")
    if report.get("violations") != []:
        fails.append(f"violations: {report.get('violations')}")
    try:
        fails += check(report["report"], expected)
    except (KeyError, TypeError, ValueError, IndexError) as exc:
        fails.append(f"malformed report: {type(exc).__name__}: {exc}")
    return fails
