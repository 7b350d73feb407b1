"""Traced CLI child: wrap ncgalois's layers from outside, then run the CLI.

    python3 perfbench/traced_cli.py <spans.npz> <op_id> <cli args...>

Before calling ``ncgalois.cli.main`` this wraps every public function of
the layer modules, rebinds the names other modules imported with
``from ... import``, and wraps ``StarAlgebra.__init__``, the ``Subspace``
methods ``from_span`` and ``intersect``, ``numpy.linalg.{eigh,eigvalsh,
svd}`` and ``numpy.einsum``.  Each call becomes one span (name, start,
end, parent, op id, kernel size); spans stay in memory and are written
to ``<spans.npz>`` when the CLI returns.  Nothing inside ncgalois is
changed on disk.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import sys
import time

LAYERS = ("cli", "reporting", "galois", "ncprob", "modular", "crossed",
          "algebras", "reps", "groups", "linalg")


class Tracer:
    def __init__(self, op_id: int):
        self.op_id = op_id
        self.ids: dict = {}
        self.spans: list = []
        self.stack = [-1]
        self.active: list = []

    def wrap(self, name: str, fn, size=None):
        """A traced stand-in for ``fn``; wrappers given one name share a span name."""
        name_id = self.ids.setdefault(name, len(self.ids))
        if name_id == len(self.active):
            self.active.append(0)
        spans, stack, active = self.spans, self.stack, self.active
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            outer = active[name_id] == 0
            active[name_id] += 1
            parent = stack[-1]
            stack.append(index)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                active[name_id] -= 1
                n = size(args, kwargs) if size is not None else 0
                spans[index] = (name_id, start, end, parent, outer, n)

        return traced

    def save(self, path: str, import_s: float) -> None:
        import numpy as np

        # every span has closed once cli.main returned
        cols = list(zip(*self.spans)) if self.spans else [()] * 6
        np.savez(
            path,
            name=np.array(cols[0], dtype=np.int32),
            start=np.array(cols[1], dtype=np.float64),
            end=np.array(cols[2], dtype=np.float64),
            parent=np.array(cols[3], dtype=np.int64),
            outer=np.array(cols[4], dtype=bool),
            n=np.array(cols[5], dtype=np.int64),
            op=np.full(len(self.spans), self.op_id, dtype=np.int32),
            names=np.array(json.dumps(list(self.ids))),
            import_s=np.array(import_s),
        )


def _shape(args, kwargs) -> tuple:
    import numpy as np

    return np.shape(args[0] if args else kwargs["a"])


def _square(args, kwargs) -> int:
    return int(_shape(args, kwargs)[-1])


def _largest_side(args, kwargs) -> int:
    return int(max(_shape(args, kwargs)[-2:]))


def install(tracer: Tracer) -> None:
    import numpy as np

    modules = {name: importlib.import_module(f"ncgalois.{name}") for name in LAYERS}
    replaced = {}
    for layer, module in modules.items():
        for attr, value in list(vars(module).items()):
            if (not attr.startswith("_") and inspect.isfunction(value)
                    and value.__module__ == module.__name__):
                replaced[value] = tracer.wrap(f"{layer}.{attr}", value)
    # rebind the names other modules took with ``from ... import``
    for mod_name, module in list(sys.modules.items()):
        if mod_name.split(".")[0] == "ncgalois" and module is not None:
            for attr, value in list(vars(module).items()):
                if inspect.isfunction(value) and value in replaced:
                    setattr(module, attr, replaced[value])

    star = modules["algebras"].StarAlgebra
    star.__init__ = tracer.wrap("algebras.StarAlgebra", star.__init__)
    subspace = modules["linalg"].Subspace
    subspace.from_span = staticmethod(
        tracer.wrap("linalg.Subspace.from_span", vars(subspace)["from_span"].__func__))
    subspace.intersect = tracer.wrap("linalg.Subspace.intersect", subspace.intersect)

    np.linalg.eigh = tracer.wrap("linalg.eigh", np.linalg.eigh, _square)
    np.linalg.eigvalsh = tracer.wrap("linalg.eigh", np.linalg.eigvalsh, _square)
    np.linalg.svd = tracer.wrap("linalg.svd", np.linalg.svd, _largest_side)
    np.einsum = tracer.wrap("linalg.einsum", np.einsum)


def main(argv) -> int:
    spans_path, op_id, cli_args = argv[0], int(argv[1]), argv[2:]
    start = time.perf_counter()
    import ncgalois  # noqa: F401  (the import the CLI user pays)
    import ncgalois.cli
    import_s = time.perf_counter() - start

    tracer = Tracer(op_id)
    install(tracer)
    try:
        return ncgalois.cli.main(cli_args)
    finally:
        tracer.save(spans_path, import_s)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
