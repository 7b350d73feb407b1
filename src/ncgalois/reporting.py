"""File formats and deterministic report serialization.

All reports are JSON with sorted keys and floats printed to 17
significant digits, so byte-identical inputs (plus seed) produce
byte-identical report files; golden-file tests depend on this.
"""

from __future__ import annotations

import hashlib
import json
import os
import tempfile

import numpy as np

from .errors import SpecValidationError
from .groups import FiniteGroup
from .reps import UnitaryRep


# ---------------------------------------------------------------------------
# canonical JSON


def _format_float(x: float) -> str:
    if not np.isfinite(x):
        raise SpecValidationError(f"non-finite value {x!r} in report")
    return format(float(x) + 0.0, ".17g")


def _encode(obj) -> str:
    if obj is None:
        return "null"
    if isinstance(obj, (bool, np.bool_)):
        return "true" if obj else "false"
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        return _format_float(float(obj))
    if isinstance(obj, (complex, np.complexfloating)):
        return f"[{_format_float(obj.real)}, {_format_float(obj.imag)}]"
    if isinstance(obj, str):
        return json.dumps(obj)
    if isinstance(obj, np.ndarray):
        return _encode(obj.tolist())
    if isinstance(obj, (list, tuple)):
        return "[" + ", ".join(_encode(v) for v in obj) + "]"
    if isinstance(obj, dict):
        items = []
        for key in sorted(obj.keys()):
            if not isinstance(key, str):
                raise SpecValidationError(f"non-string report key {key!r}")
            items.append(f"{json.dumps(key)}: {_encode(obj[key])}")
        return "{" + ", ".join(items) + "}"
    raise SpecValidationError(f"cannot serialize {type(obj).__name__} into a report")


def dumps_canonical(obj) -> str:
    return _encode(obj) + "\n"


def write_atomic(path: str, content: str) -> None:
    directory = os.path.dirname(os.path.abspath(path)) or "."
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".report-")
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(content)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def sha256_of_file(path: str) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        digest.update(fh.read())
    return digest.hexdigest()


def check_fields(obj: dict, required, optional, what: str) -> None:
    """Raise SpecValidationError naming every key of the spec object ``obj``
    outside ``required`` and ``optional``, then every missing required one."""
    extra = set(obj) - set(required) - set(optional)
    if extra:
        raise SpecValidationError(f"unknown {what} fields: {sorted(extra)}")
    missing = set(required) - set(obj)
    if missing:
        raise SpecValidationError(f"missing {what} fields: {sorted(missing)}")


def _require_finite(values: np.ndarray, what: str) -> None:
    """Raise SpecValidationError at the first NaN or infinite entry, named by ``what``."""
    bad = np.argwhere(~np.isfinite(values))
    if bad.size:
        raise SpecValidationError(f"non-finite entry in {what} at {tuple(map(int, bad[0]))}")


def spec_int(value, what: str) -> int:
    """An integer field of a spec; a float or a boolean is an error, not truncated."""
    if isinstance(value, (bool, np.bool_)) or not isinstance(value, (int, np.integer)):
        raise SpecValidationError(f"{what} must be an integer, got {value!r}")
    return int(value)


# ---------------------------------------------------------------------------
# matrices


def _pairs(a: np.ndarray) -> list:
    """An array as nested lists with each entry an ``[re, im]`` pair of floats."""
    return np.stack([a.real, a.imag], -1).tolist()


def _from_pairs(entries, axes: int) -> np.ndarray:
    """Nested lists of ``[re, im]`` pairs, ``axes`` deep, as a complex array:
    the inverse of ``_pairs``.  The numbers are read as one float64 array of
    shape (..., 2) and viewed as complex128, so each entry has the bits of
    ``complex(re, im)`` (-0.0 included) and no Python complex is made."""
    pairs = np.asarray(entries)
    if pairs.size == 0:
        return pairs.astype(np.complex128)
    if pairs.dtype.kind not in "biuf" or pairs.ndim != axes + 1 or pairs.shape[-1] != 2:
        raise SpecValidationError("entries must be nested lists of [re, im] number pairs")
    return np.ascontiguousarray(pairs, dtype=np.float64).view(np.complex128)[..., 0]


def matrix_to_json(m: np.ndarray) -> dict:
    m = np.asarray(m, dtype=np.complex128)
    return {"rows": int(m.shape[0]), "cols": int(m.shape[1]), "entries": _pairs(m.reshape(-1))}


def matrix_from_json(obj, what: str = "matrix") -> np.ndarray:
    """A matrix object of a spec; ``what`` names its field in error messages."""
    if not isinstance(obj, dict) or set(obj) != {"rows", "cols", "entries"}:
        raise SpecValidationError(
            'matrix object must have exactly the fields "rows", "cols", "entries"'
        )
    rows, cols = spec_int(obj["rows"], "matrix rows"), spec_int(obj["cols"], "matrix cols")
    entries = obj["entries"]
    if len(entries) != rows * cols:
        raise SpecValidationError(
            f"matrix has {len(entries)} entries, expected {rows * cols}"
        )
    matrix = _from_pairs(entries, 1).reshape(rows, cols)
    _require_finite(matrix, what)
    return matrix


# ---------------------------------------------------------------------------
# groups


def group_to_json(group: FiniteGroup) -> dict:
    obj = {"order": group.order, "mult_table": group.mult.tolist()}
    if group.labels is not None:
        obj["labels"] = list(group.labels)
    return obj


def group_from_json(obj) -> FiniteGroup:
    if not isinstance(obj, dict):
        raise SpecValidationError("group object must be a JSON object")
    check_fields(obj, {"mult_table"}, {"order", "labels"}, "group")
    table = obj["mult_table"]
    for entry in np.asarray(table, dtype=object).ravel():
        spec_int(entry, "mult_table entry")
    if "order" in obj and spec_int(obj["order"], "group order") != len(table):
        raise SpecValidationError("declared order does not match the table size")
    return FiniteGroup(table, labels=obj.get("labels"))


# ---------------------------------------------------------------------------
# representations


def rep_to_json(rep: UnitaryRep) -> dict:
    return {"dim": rep.dim, "matrices": _pairs(rep.matrices), "group": group_to_json(rep.group)}


def irrep_table_to_json(table) -> dict:
    """Characters and matrices of every irreducible, canonically ordered."""
    return {
        "dims": list(table.dims),
        "characters": _pairs(table.characters),
        "matrices": [_pairs(rep.matrices) for rep in table.irreps],
    }


def algebra_to_json(algebra) -> dict:
    """Ambient and algebra dimensions plus the basis matrices."""
    return {
        "ambient_dim": algebra.ambient_dim,
        "dim": algebra.dim,
        "basis": [matrix_to_json(b) for b in algebra.basis],
    }


def rep_from_json(obj) -> UnitaryRep:
    if not isinstance(obj, dict):
        raise SpecValidationError("representation object must be a JSON object")
    check_fields(obj, {"group", "dim", "matrices"}, (), "representation")
    group = group_from_json(obj["group"])
    dim = spec_int(obj["dim"], "representation dim")
    mats = _from_pairs(obj["matrices"], 3)
    if mats.shape != (group.order, dim, dim):
        raise SpecValidationError(
            f"matrices have shape {mats.shape}, expected {(group.order, dim, dim)}"
        )
    _require_finite(mats, "representation matrices")
    return UnitaryRep(group, mats)
