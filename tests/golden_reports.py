"""Write the golden CLI reports that a change to the numerics should leave byte-identical.

Usage::

    python3 tests/golden_reports.py OUT_DIR [--compare REF_DIR]

Each report comes from this checkout's CLI, run in its own process, which
pins BLAS to one thread: the four benchmark workloads at seed 101 (inputs
from ``perfbench/workloads.py``); ``analyze-group``, ``irreps`` (seed 3) and
``decompose`` (seed 7, regular representation) on the eight fixture groups;
``galois`` on the regular representations of Z2 through A4; and ``galois``
on S3 and S4 acting on their points and on S3 through its trivial and sign
characters.  Specs go to OUT_DIR/inputs/<name>/ and reports to
OUT_DIR/<name>.json, so two checkouts compare by one ``diff -r``.

With ``--compare REF_DIR`` the new reports are then held against the ones
another checkout wrote to REF_DIR: each report that differs is printed with
the JSON path, old value and new value of every differing entry, and the
script exits 1 on any difference, a missing report included.
"""

import argparse
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


_MISSING = "<missing>"


def _differences(old, new, path: str = "$"):
    """(JSON path, old value, new value) of every entry where two documents differ."""
    if isinstance(old, dict) and isinstance(new, dict):
        for key in sorted(old.keys() | new.keys()):
            yield from _differences(old.get(key, _MISSING), new.get(key, _MISSING),
                                    f"{path}.{key}")
    elif isinstance(old, list) and isinstance(new, list) and len(old) == len(new):
        for i, (a, b) in enumerate(zip(old, new)):
            yield from _differences(a, b, f"{path}[{i}]")
    elif type(old) is not type(new) or old != new:
        yield path, old, new


def compare(out_dir: str, ref_dir: str) -> int:
    """Print every report of out_dir that differs from ref_dir's; the number of them."""
    def reports(where):
        return {f for f in os.listdir(where) if f.endswith(".json")}

    names = sorted(reports(out_dir) | reports(ref_dir))
    differing = 0
    for name in names:
        paths = [os.path.join(d, name) for d in (ref_dir, out_dir)]
        if not all(os.path.exists(p) for p in paths):
            differing += 1
            print(f"{name}: only in {ref_dir if os.path.exists(paths[0]) else out_dir}")
            continue
        blobs = [open(p, "rb").read() for p in paths]
        if blobs[0] == blobs[1]:
            continue
        differing += 1
        found = list(_differences(*(json.loads(b) for b in blobs)))
        print(f"{name}: {len(found)} differing entries" if found else
              f"{name}: equal as JSON, different bytes")
        for path, old, new in found:
            print(f"  {path}: {old!r} -> {new!r}")
    print(f"{differing} of {len(names)} reports differ")
    return differing


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("out_dir")
    parser.add_argument("--compare", metavar="REF_DIR")
    args = parser.parse_args()
    main(args.out_dir)
    if args.compare and compare(args.out_dir, args.compare):
        sys.exit(1)
