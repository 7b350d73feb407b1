"""Write the golden CLI reports that a change to the numerics should leave byte-identical.

Usage::

    python3 tests/golden_reports.py OUT_DIR

Each report comes from this checkout's CLI, run in its own process, which
pins BLAS to one thread: the four benchmark workloads at seed 101 (inputs
from ``perfbench/workloads.py``); ``analyze-group``, ``irreps`` (seed 3) and
``decompose`` (seed 7, regular representation) on the eight fixture groups;
``galois`` on the regular representations of Z2 through A4; and ``galois``
on S3 and S4 acting on their points and on S3 through its trivial and sign
characters.  Specs go to OUT_DIR/inputs/<name>/ and reports to
OUT_DIR/<name>.json, so two checkouts compare by one ``diff -r``.
"""

import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[:0] = [os.path.join(ROOT, "src"), os.path.join(ROOT, "perfbench")]

import numpy as np  # noqa: E402
import workloads  # noqa: E402

from ncgalois import groups, reporting, reps  # noqa: E402

BENCHMARK_SEED = 101


def _specs(inputs: str):
    """(report name, command, spec path) of every golden report."""
    def write(name: str, payload: dict) -> str:
        where = os.path.join(inputs, name)
        os.makedirs(where, exist_ok=True)
        path = os.path.join(where, "spec.json")
        with open(path, "w") as fh:
            json.dump(payload, fh, sort_keys=True)
        return path

    for workload, command in workloads.COMMANDS.items():
        where = os.path.join(inputs, workload)
        os.makedirs(where, exist_ok=True)
        yield workload, command, workloads.write_inputs(workload, BENCHMARK_SEED, where)
    for name, make in groups.FIXTURE_GROUPS.items():
        group = make()
        regular = reporting.rep_to_json(reps.regular_rep(group))
        yield (f"analyze-group-{name}", "analyze-group",
               write(f"analyze-group-{name}", {"group": reporting.group_to_json(group)}))
        yield (f"irreps-{name}", "irreps",
               write(f"irreps-{name}", {"group": reporting.group_to_json(group), "seed": 3}))
        yield (f"decompose-{name}", "decompose",
               write(f"decompose-{name}", {"representation": regular, "seed": 7}))
        if name != "S4":   # the S4 regular lattice is the galois-s4-regular workload
            yield (f"galois-regular-{name}", "galois",
                   write(f"galois-regular-{name}", {"representation": regular}))
    for name in ("S3", "S4"):
        group = groups.FIXTURE_GROUPS[name]()
        perm = reps.permutation_rep(group, groups.symmetric_action(int(name[1])))
        yield (f"galois-points-{name}", "galois",
               write(f"galois-points-{name}", {"representation": reporting.rep_to_json(perm)}))
        if name == "S3":
            signs = np.linalg.det(perm.matrices).real
            sign = reps.UnitaryRep(group, np.array([np.diag([1.0, s]) for s in signs]))
            yield ("galois-sign-S3", "galois",
                   write("galois-sign-S3", {"representation": reporting.rep_to_json(sign)}))


def main(out_dir: str) -> None:
    env = {**os.environ, "PYTHONPATH": os.path.join(ROOT, "src")}
    for name, command, spec in _specs(os.path.join(out_dir, "inputs")):
        out = os.path.join(out_dir, f"{name}.json")
        subprocess.run([sys.executable, "-m", "ncgalois.cli", command, spec, "--out", out],
                       env=env, check=True, stdout=subprocess.DEVNULL)


if __name__ == "__main__":
    if len(sys.argv) != 2:
        sys.exit(__doc__)
    main(sys.argv[1])
