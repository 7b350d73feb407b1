"""Seeded inputs for the benchmark workloads.

Run as a script, this is the benchmark's set-up step: a fresh process
imports ``ncgalois`` and writes one workload's spec and input files::

    python3 perfbench/workloads.py <workload> <seed> <out_dir>

The spec is always ``<out_dir>/spec.json``; ``COMMANDS`` names the CLI
command that reads it.  The CLI receives only these files.
"""

from __future__ import annotations

import json
import os
import sys

import numpy as np

COMMANDS = {
    "galois-s4-regular": "galois",
    "martingale-a4-regular": "martingale",
    "modular-m6": "modular",
    "crossed-s3-m3": "crossed",
}

SPEC = "spec.json"

# Shares of one op's time in interpreter code, small einsums and dense
# eigh/svd, from a traced op of each workload (README, "Workloads").  The
# benchmark weights the parts of its calibration kernel by them.
CALIBRATION_MIX = {
    "galois-s4-regular": (0.25, 0.05, 0.70),
    "martingale-a4-regular": (0.15, 0.80, 0.05),
    "modular-m6": (0.10, 0.35, 0.55),
    "crossed-s3-m3": (0.15, 0.27, 0.58),
}


def _dump(out_dir: str, name: str, obj) -> str:
    with open(os.path.join(out_dir, name), "w") as fh:
        json.dump(obj, fh, sort_keys=True)
    return name


def _relabelled(group, rng):
    """The same group with its elements renumbered by a seeded permutation."""
    from ncgalois import groups

    order = group.order
    perm = rng.permutation(order)
    table = np.empty((order, order), dtype=np.intp)
    table[np.ix_(perm, perm)] = perm[group.mult]
    labels = [None] * order
    for old, new in enumerate(perm):
        labels[new] = group.labels[old]
    return groups.FiniteGroup(table, labels=labels)


def _random_unitary(n: int, rng) -> np.ndarray:
    z = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    q, r = np.linalg.qr(z)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def _random_density(n: int, rng, floor: float = 0.05) -> np.ndarray:
    a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    rho = a @ a.conj().T + floor * np.eye(n)
    return rho / np.trace(rho).real


def _galois_s4_regular(rng, out_dir: str) -> dict:
    from ncgalois import groups, reporting, reps

    group = _relabelled(groups.symmetric_group(4), rng)
    rep = reps.regular_rep(group)
    return {"representation": _dump(out_dir, "s4_regular.json",
                                    reporting.rep_to_json(rep))}


def _martingale_a4_regular(rng, out_dir: str) -> dict:
    from ncgalois import groups, reporting, reps

    group = groups.alternating_group(4)
    rep = reps.regular_rep(group)
    subs = groups.enumerate_subgroups(group)
    v4 = next(s for s in subs if s.order == 4)
    z2 = next(s for s in subs if s.order == 2 and v4.contains(s))
    chain = [list(range(group.order)), list(v4.members), list(z2.members),
             [group.identity]]
    n = rep.dim
    x = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    sigma = _random_density(n, rng)
    mats = rep.matrices
    # averaging over the whole group makes the state A4-invariant
    rho = np.einsum("gij,jk,glk->il", mats, sigma, mats.conj()) / group.order
    rho = (rho + rho.conj().T) / 2.0
    return {
        "group": _dump(out_dir, "a4.json", reporting.group_to_json(group)),
        "representation": _dump(out_dir, "a4_regular.json",
                                reporting.rep_to_json(rep)),
        "chain": chain,
        "x": _dump(out_dir, "x.json", reporting.matrix_to_json(x)),
        "state": _dump(out_dir, "state.json", reporting.matrix_to_json(rho)),
    }


def _modular_m6(rng, out_dir: str) -> dict:
    from ncgalois import reporting

    rho = _random_density(6, rng)
    rho = (rho + rho.conj().T) / 2.0
    return {"state": _dump(out_dir, "state.json", reporting.matrix_to_json(rho))}


def _crossed_s3_m3(rng, out_dir: str) -> dict:
    from ncgalois import groups, reporting, reps

    group = groups.symmetric_group(3)
    perm = reps.permutation_rep(group, groups.symmetric_action(3))
    w = _random_unitary(3, rng)
    unitaries = [w @ u @ w.conj().T for u in perm.matrices]
    return {
        "group": _dump(out_dir, "s3.json", reporting.group_to_json(group)),
        "base": {"kind": "full", "dim": 3},
        "action": {"kind": "ad",
                   "unitaries": [reporting.matrix_to_json(u) for u in unitaries]},
    }


_BUILDERS = {
    "galois-s4-regular": _galois_s4_regular,
    "martingale-a4-regular": _martingale_a4_regular,
    "modular-m6": _modular_m6,
    "crossed-s3-m3": _crossed_s3_m3,
}


def write_inputs(workload: str, seed: int, out_dir: str) -> str:
    """Write the spec and inputs of ``workload`` for ``seed``; return the spec path."""
    rng = np.random.default_rng([seed, sorted(_BUILDERS).index(workload)])
    spec = _BUILDERS[workload](rng, out_dir)
    spec["seed"] = seed
    return os.path.join(out_dir, _dump(out_dir, SPEC, spec))


if __name__ == "__main__":
    write_inputs(sys.argv[1], int(sys.argv[2]), sys.argv[3])
