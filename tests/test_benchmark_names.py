"""Every per-layer metric of BENCHMARK.json that times a function of the
package names one that exists: the traced benchmark run reads each of them,
so a deleted or renamed function stops it."""

import importlib
import json
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
# metrics the harness takes outside the package's functions: its own trace
# and host figures, the CLI's import time, and numpy's eigh, svd and einsum
OUTSIDE = ("trace.", "host.", "cli.import_s", "linalg.eigh.", "linalg.svd.", "linalg.einsum.")


def _resolves(name: str) -> bool:
    """Whether ``module.attr[.attr]`` names an attribute of an ncgalois module."""
    module, *attrs = name.split(".")
    try:
        obj = importlib.import_module(f"ncgalois.{module}")
    except ModuleNotFoundError:
        return False
    for attr in attrs:
        if not hasattr(obj, attr):
            return False
        obj = getattr(obj, attr)
    return True


def unresolved(benchmark: dict) -> list:
    """The per-layer metrics of ``benchmark`` whose function does not exist."""
    metrics = [m["name"] for m in benchmark["per_layer"] if not m["name"].startswith(OUTSIDE)]
    assert metrics
    return [m for m in metrics if not _resolves(m.rsplit(".", 1)[0])]


def test_every_per_layer_function_of_the_benchmark_exists():
    assert unresolved(json.loads((ROOT / "BENCHMARK.json").read_text())) == []


def test_a_deleted_function_is_named_by_its_metric():
    # negative control: the metrics outside the package are skipped, a
    # method resolves through its class, and a missing name or module is named
    benchmark = {"per_layer": [{"name": n} for n in (
        "galois.galois_map.total_s", "linalg.Subspace.from_span.calls", "linalg.eigh.n_max",
        "trace.overhead_share", "cli.import_s", "galois.no_such_function.total_s",
        "no_such_module.f.calls")]}
    assert unresolved(benchmark) == ["galois.no_such_function.total_s", "no_such_module.f.calls"]
