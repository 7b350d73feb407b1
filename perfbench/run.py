"""Benchmark of the ncgalois CLI: one closed-loop client, one fresh CLI process per op.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a source checkout; ``src/ncgalois`` is put on the
children's ``PYTHONPATH``.  Set-up writes the workload's spec and inputs
from the seed in fresh processes (``setup_s`` is their median).  Then ops
run back to back while the next one is expected to end within
``--seconds``; a run holds at least one op.  One op is

    python -m ncgalois.cli <command> spec.json --out <report>

with BLAS pinned to one thread in the child's environment.  An op counts
only when the child exits 0, its report passes every certificate in
``certify.py`` and its bytes equal those of the run's first report.

Every child's wall time is rescaled to a reference host speed: the harness
times a fixed calibration kernel between children, and a child's seconds
are divided by its slowdown, the calibrations just before and just after
it weighted by the workload's ``CALIBRATION_MIX`` over the reference.  The
raw wall times are printed beside the rescaled ones.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` alternates
untraced ops with ops run under ``traced_cli.py`` (at least two traced)
and prints the per-layer metrics: counts from one traced op, which must
repeat exactly across the traced ops, and median times.  The last line of
stdout is the JSON result; the lines above it are for people.
"""

from __future__ import annotations

import argparse
import ctypes
import hashlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

PINNED = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
if __name__ == "__main__":
    # the harness's own calibration kernel runs on one BLAS thread too; the
    # pin holds only if it is set before numpy loads
    os.environ.update({var: "1" for var in PINNED})

import numpy as np  # noqa: E402

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import certify  # noqa: E402
import workloads  # noqa: E402

ROOT = HERE.parent
SETUP_REPEATS = 7
# On a shared 2-vCPU virtual machine the same code ran up to 1.8 times
# slower for stretches of seconds to minutes (README, "Noise").  A reported
# second is a second on a host where each part of calibration() takes this
# long.
REFERENCE_PART_S = 0.1
# after a long child, calibrate for about this share of its wall time, so a
# 30 s op is not rescaled by one short sample; at most this many repeats
CALIBRATION_SHARE = 0.1
CALIBRATION_MAX_REPEATS = 12
# set-up is an interpreter start and imports
SETUP_MIX = (1.0, 0.0, 0.0)
# every child is killed after this many seconds of the run, so the run
# itself ends well inside three minutes
RUN_DEADLINE_S = 170.0
PR_SET_CHILD_SUBREAPER = 36


class _Deadline(Exception):
    pass


def _alarm(signum, frame):
    raise _Deadline


def _terminate(signum, frame):
    raise SystemExit(128 + signum)


_CAL_RNG = np.random.default_rng(0)
_CAL_MATS = _CAL_RNG.standard_normal((4, 12, 12)) + 1j * _CAL_RNG.standard_normal((4, 12, 12))
_CAL_HERM = _CAL_RNG.standard_normal((432, 432)) + 1j * _CAL_RNG.standard_normal((432, 432))
_CAL_HERM = _CAL_HERM + _CAL_HERM.conj().T


def calibration(repeats: int = 1) -> np.ndarray:
    """Mean wall times of the three parts of a fixed kernel, about 0.1 s each.

    The parts are the kinds of code the CLI's ops spend their time in:
    interpreter loops, small three-operand einsums and a dense complex eigh.
    Each slows with the host differently.  The kernel never touches
    ncgalois, so a change to the program cannot move it.
    """
    times = np.zeros(3)
    for _ in range(repeats):
        t0 = time.perf_counter()
        acc = 0
        for i in range(1_000_000):
            acc += i * i % 7
        t1 = time.perf_counter()
        for _ in range(300):
            np.einsum("gij,jk,glk->il", _CAL_MATS, _CAL_MATS[0], _CAL_MATS.conj())
        t2 = time.perf_counter()
        np.linalg.eigh(_CAL_HERM)
        times += (t1 - t0, t2 - t1, time.perf_counter() - t2)
    return times / repeats


def spawn(argv, env, log_path: Path, deadline: float):
    """Run one child to its exit; return (wall seconds, exit code, peak RSS in MB).

    ``launcher.py`` starts the child in a session of its own, reaps it with
    ``os.wait4`` and reports its wall time and rusage.  Past ``deadline`` (a
    ``perf_counter`` value) the session is killed and the exit code is None.
    """
    start = time.perf_counter()
    proc = subprocess.Popen([sys.executable, str(HERE / "launcher.py"), str(log_path)] + argv,
                            env=env, stdout=subprocess.PIPE, cwd=ROOT,
                            start_new_session=True)
    signal.setitimer(signal.ITIMER_REAL, max(deadline - start, 0.001))
    try:
        _, status = os.waitpid(proc.pid, 0)
        signal.setitimer(signal.ITIMER_REAL, 0)
    except BaseException as exc:
        # past the deadline, or the harness itself is being stopped: the
        # child must not outlive it
        signal.setitimer(signal.ITIMER_REAL, 0)
        _kill_session(proc.pid)
        proc.stdout.close()
        if not isinstance(exc, _Deadline):
            raise
        return time.perf_counter() - start, None, 0.0
    with proc.stdout:
        out = proc.stdout.read()
    proc.returncode = os.waitstatus_to_exitcode(status)
    if proc.returncode != 0:
        return time.perf_counter() - start, proc.returncode, 0.0
    result = json.loads(out)
    return result["wall"], result["code"], result["rss_mb"]


def _kill_session(pid: int) -> None:
    """Kill the launcher's session and reap every member that is our child.

    The harness is a subreaper (``main``), so the launcher's child is
    adopted when the launcher dies and is reaped here too.
    """
    try:
        os.killpg(pid, signal.SIGKILL)
    except ProcessLookupError:
        pass
    while True:
        try:
            os.waitpid(-pid, 0)
        except ChildProcessError:
            return


class Run:
    def __init__(self, args, workdir: Path):
        self.workload = args.workload
        self.seed = args.seed
        self.workdir = workdir
        self.deadline = time.perf_counter() + RUN_DEADLINE_S
        self.env = dict(os.environ, **{var: "1" for var in PINNED})
        self.env["PYTHONPATH"] = os.pathsep.join(
            filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
        self.log = workdir / "children.log"
        self.ops: list = []          # dicts: raw, wall, slowdown, rss, traced, ok, why
        self.calibrations: list = []  # arrays from calibration()
        self.first_sha = None
        self.first_counts = None

    def timed(self, argv, mix):
        """spawn() a child between two calibrations; also return its slowdown.

        The slowdown is the calibration's part times weighted by ``mix``, the
        child's shares of interpreter, einsum and eigh time, over the
        reference, averaged over the calibrations just before and after the
        child.  Adjacent children share the calibration between them.
        """
        if not self.calibrations:
            self.calibrations.append(calibration())
        before = self.calibrations[-1]
        wall, code, rss = spawn(argv, self.env, self.log, self.deadline)
        repeats = round(CALIBRATION_SHARE * wall / (3 * REFERENCE_PART_S))
        # a child killed at the deadline leaves no time for a long calibration
        self.calibrations.append(calibration(
            1 if code is None else min(max(1, repeats), CALIBRATION_MAX_REPEATS)))
        slowdown = float(np.dot(mix, before + self.calibrations[-1])) / (2 * REFERENCE_PART_S)
        return wall, slowdown, code, rss

    # -- set-up --------------------------------------------------------------

    def setup(self) -> float:
        """Write the inputs; return the median rescaled set-up time."""
        times, contents = [], []
        for k in range(SETUP_REPEATS):
            out = self.workdir / f"inputs{k}"
            out.mkdir()
            wall, slowdown, code, _ = self.timed(
                [sys.executable, str(HERE / "workloads.py"), self.workload,
                 str(self.seed), str(out)], SETUP_MIX)
            if code != 0:
                raise SystemExit(f"set-up failed (exit {code}); see {self.log}")
            times.append(wall / slowdown)
            contents.append({p.name: p.read_bytes() for p in sorted(out.iterdir())})
        if any(c != contents[0] for c in contents):
            raise SystemExit("set-up is not deterministic: inputs differ between repeats")
        self.inputs = self.workdir / "inputs0"
        self.expected = certify.expected_for(self.workload, str(self.inputs))
        return statistics.median(times)

    # -- ops -----------------------------------------------------------------

    def op(self, traced: bool) -> dict:
        index = len(self.ops)
        report = self.workdir / f"report{index}.json"
        cli = [workloads.COMMANDS[self.workload], str(self.inputs / workloads.SPEC),
               "--out", str(report)]
        if traced:
            spans = self.workdir / f"spans{index}.npz"
            argv = [sys.executable, str(HERE / "traced_cli.py"), str(spans), str(index)] + cli
        else:
            argv = [sys.executable, "-m", "ncgalois.cli"] + cli
        wall, slowdown, code, rss = self.timed(argv, workloads.CALIBRATION_MIX[self.workload])
        record = {"raw": wall, "wall": wall / slowdown, "slowdown": slowdown, "rss": rss,
                  "traced": traced, "why": []}
        if code != 0:
            tail = self.log.read_text(errors="replace")[-400:]
            record["why"].append(f"exit code {code}; log ends: {tail}")
        if report.exists():
            raw = report.read_bytes()
            sha = hashlib.sha256(raw).hexdigest()
            try:
                parsed = json.loads(raw)
            except ValueError:
                parsed = None
                record["why"].append("report is not JSON")
            if self.first_sha is None:
                self.first_sha = sha
            elif sha != self.first_sha:
                record["why"].append("report bytes differ from the run's first report")
        else:
            parsed = None
        record["why"] += certify.check_report(self.workload, self.expected, parsed)
        if traced and code == 0:
            record["layers"] = layer_metrics(spans, 1.0 / slowdown)
            record["layers"]["trace.unattributed_s"] = (
                record["wall"] - record["layers"]["cli.import_s"]
                - record["layers"]["cli.main.total_s"])
            counts = {k: v for k, v in record["layers"].items() if not k.endswith("_s")}
            if self.first_counts is None:
                self.first_counts = counts
            elif counts != self.first_counts:
                moved = sorted(k for k in counts if counts[k] != self.first_counts.get(k))
                record["why"].append(f"trace counts differ between repeats: {moved[:8]}")
        record["ok"] = not record["why"]
        if not record["ok"]:
            print(f"op {index} failed: {'; '.join(map(str, record['why']))}", file=sys.stderr)
        self.ops.append(record)
        return record

    def loop(self, seconds: float, traced: bool) -> float:
        """Run ops while the next one should end within ``seconds``; return the loop's time.

        The next op is expected to take the median of the ops so far, so
        runs last about ``seconds`` without a long op overshooting them.
        """
        start = time.perf_counter()
        # the first op's calibration before it is the mean of the set-up's,
        # which sample the host over several seconds
        self.calibrations.append(np.mean(self.calibrations, axis=0))
        rounds = []
        while True:
            begun = time.perf_counter()
            if traced:
                self.op(False)
            self.op(traced)
            now = time.perf_counter()
            rounds.append(now - begun)
            if now - start + statistics.median(rounds) > seconds or now > self.deadline:
                break
        while traced and sum(o["traced"] for o in self.ops) < 2:
            # a second traced op that would run past the deadline is left
            # out rather than killed; its counts then go unrepeated
            if time.perf_counter() + 1.5 * self.ops[-1]["raw"] > self.deadline:
                print("no time for a second traced op: counts not repeated",
                      file=sys.stderr)
                break
            self.op(True)
        return time.perf_counter() - start


def layer_metrics(path: Path, scale: float) -> dict:
    """Per-name calls, total, self time and kernel sizes of one traced op.

    Times are multiplied by ``scale``, the op's rescale factor.
    """
    with np.load(path) as d:
        names = json.loads(str(d["names"]))
        name, parent, outer, n = d["name"], d["parent"], d["outer"], d["n"]
        dur = (d["end"] - d["start"]) * scale
        import_s = float(d["import_s"]) * scale
    has_parent = parent >= 0
    child = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=len(dur))
    self_time = dur - child
    out = {"cli.import_s": import_s}
    for k, label in enumerate(names):
        mask = name == k
        out[f"{label}.calls"] = int(mask.sum())
        out[f"{label}.total_s"] = float(dur[mask & outer].sum())
        out[f"{label}.self_s"] = float(self_time[mask].sum())
        out[f"{label}.n_max"] = int(n[mask].max()) if mask.any() else 0
        out[f"{label}.n3_sum"] = int((n[mask] ** 3).sum())
    return out


def end_to_end(run: Run, setup_s: float) -> dict:
    ok = [o for o in run.ops if o["ok"]]
    walls = [o["wall"] for o in (ok or run.ops)]
    return {
        "report_s.p50": statistics.median(walls),
        # the children's time only: the calibrations between them are the
        # harness's, not the loop's
        "reports_per_min": len(ok) * 60.0 / sum(o["wall"] for o in run.ops),
        "peak_rss_mb": max(o["rss"] for o in run.ops),
        "setup_s": setup_s,
    }


def per_layer(run: Run, names) -> dict:
    traced = [o for o in run.ops if o["traced"] and "layers" in o]
    if not traced:
        return {}
    # each traced op against the untraced op just before it, so that the
    # host's speed drifting over the run cancels out of the ratio
    ratios = [b["wall"] / a["wall"] for a, b in zip(run.ops, run.ops[1:])
              if b["traced"] and not a["traced"]]
    values = {}
    for metric in names:
        if metric == "trace.overhead_share":
            values[metric] = statistics.median(ratios) - 1.0
        elif metric == "host.slowdown":
            values[metric] = statistics.median(o["slowdown"] for o in run.ops)
        elif metric == "host.report_wall_s.p50":
            values[metric] = statistics.median(o["raw"] for o in run.ops if not o["traced"])
        elif metric.endswith("_s"):
            values[metric] = statistics.median(o["layers"][metric] for o in traced)
        else:
            values[metric] = traced[0]["layers"][metric]
    return values


def _print_layers(run: Run) -> None:
    traced = [o for o in run.ops if o["traced"] and "layers" in o]
    if not traced:
        return
    layers = traced[0]["layers"]
    wall = traced[0]["wall"]
    shares: dict = {}
    for key, value in layers.items():
        if key.endswith(".self_s"):
            span = key[:-len(".self_s")]
            group = span if span in ("linalg.eigh", "linalg.svd", "linalg.einsum") \
                else span.split(".")[0]
            shares[group] = shares.get(group, 0.0) + value
    shares["interpreter+import+unattributed"] = (
        layers["cli.import_s"] + layers["trace.unattributed_s"])
    print(f"self time of traced op 0 ({wall:.3f} s rescaled), by layer:")
    for group, value in sorted(shares.items(), key=lambda kv: -kv[1]):
        print(f"  {group:34s} {value:9.3f} s  {100.0 * value / wall:5.1f}%")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=sorted(workloads.COMMANDS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    signal.signal(signal.SIGALRM, _alarm)
    signal.signal(signal.SIGTERM, _terminate)
    # The harness and every child share one CPU, so the calibration times the
    # CPU the child runs on: each vCPU of a shared virtual machine can slow
    # and recover on its own (README, "Noise").
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    # adopt the children of a launcher that is killed, so they can be reaped
    ctypes.CDLL(None, use_errno=True).prctl(PR_SET_CHILD_SUBREAPER, 1, 0, 0, 0)

    if not (ROOT / "src" / "ncgalois" / "cli.py").is_file():
        print(f"no ncgalois source under {ROOT / 'src'}; run from a source checkout",
              file=sys.stderr)
        return 2
    with open(ROOT / "BENCHMARK.json") as fh:
        spec = json.load(fh)
    section = spec["per_layer"] if args.trace else spec["end_to_end"]
    units = {m["name"]: m["unit"] for m in section}

    build = ROOT / ".bench_build"
    build.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="perfbench-", dir=build))
    try:
        run = Run(args, workdir)
        setup_s = run.setup()
        elapsed = run.loop(args.seconds, traced=bool(args.trace))
        values = per_layer(run, units) if args.trace else end_to_end(run, setup_s)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    failed = sum(not o["ok"] for o in run.ops)
    attempted = len(run.ops)
    timed = [o for o in run.ops if not o["traced"]]
    print(f"workload {args.workload} seed {args.seed}: {attempted} ops "
          f"({len(timed)} untraced, {attempted - len(timed)} traced) in {elapsed:.1f} s")
    print(f"fail_rate {failed / attempted:.4f} ({failed} failed / {attempted} attempted)")
    print(f"report sha256 {run.first_sha} (compare across commits for information only)")
    print(f"host slowdown {statistics.median(o['slowdown'] for o in run.ops):.4f} "
          f"(median over ops; 1 is the reference speed); raw report_s.p50 "
          f"{statistics.median(o['raw'] for o in run.ops if not o['traced']):.4f} s")
    if args.trace:
        _print_layers(run)
    else:
        print(f"report_s.p50 over {sum(o['ok'] for o in run.ops)} verified ops")
    for name, value in values.items():
        print(f"  {name} = {value:.6g} {units[name]}")
    print(json.dumps({
        "correct": failed == 0 and len(values) == len(units),
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values.get(name, 0), "unit": unit}
                    for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
