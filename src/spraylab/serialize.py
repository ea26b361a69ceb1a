"""JSON (de)serialization for points, matrices, variety specs, and reports.

Schemas:
  point   {"coords": [x0, x1, ...]}
  matrix  {"rows": r, "cols": c, "entries": [...]} row-major; complex entries
          are [re, im] pairs
  variety {"kind": "sphere", "n": 2} / {"kind": "SO", "m": 3} /
          {"kind": "fermat_sphere", "n": 2, "exponent": 6} /
          {"kind": "product", "factors": [...]}

Floats are emitted as shortest round-trip decimals (the json module uses
repr), which keeps reports byte-stable across reruns.  NaN and infinities
have no JSON form, so a report holding one is refused.
"""

from __future__ import annotations

import dataclasses
import json
import math
import re

import numpy as np

from .geometry import ShapeError, VarietySpec


def variety_to_json(spec: VarietySpec) -> dict:
    if spec.kind == "sphere":
        return {"kind": "sphere", "n": spec.n}
    if spec.kind == "fermat_sphere":
        return {"kind": "fermat_sphere", "n": spec.n, "exponent": spec.exponent}
    if spec.is_group:
        return {"kind": spec.kind, "m": spec.m}
    if spec.kind == "product":
        return {"kind": "product", "factors": [variety_to_json(f) for f in spec.factors]}
    raise ValueError(f"unknown variety kind {spec.kind!r}")


def variety_from_json(data: dict) -> VarietySpec:
    kind = data["kind"]
    if kind == "sphere":
        return VarietySpec.sphere(data["n"])
    if kind == "fermat_sphere":
        return VarietySpec.fermat_sphere(data["n"], data["exponent"])
    if kind in ("O", "SO", "U", "SU"):
        return VarietySpec.group(kind, data["m"])
    if kind == "product":
        return VarietySpec.product(*(variety_from_json(f) for f in data["factors"]))
    raise ValueError(f"unknown variety kind {kind!r}")


_LABEL_RE = re.compile(r"^(S)(\d+)$|^(O|SO|U|SU)\((\d+)\)$")


def parse_variety_label(label: str) -> VarietySpec:
    """Parse shorthand like ``"S2"`` or ``"SO(3)"`` into a VarietySpec."""
    m = _LABEL_RE.match(label.strip())
    if not m:
        raise ValueError(f"cannot parse variety label {label!r}")
    if m.group(1):
        return VarietySpec.sphere(int(m.group(2)))
    return VarietySpec.group(m.group(3), int(m.group(4)))


def point_to_json(p: np.ndarray) -> dict:
    return {"coords": [float(x) for x in np.asarray(p, dtype=float)]}


def point_from_json(data: dict) -> np.ndarray:
    coords = np.asarray(data["coords"], dtype=float)
    if coords.ndim != 1:
        raise ShapeError("point coords must be a flat list")
    if not np.all(np.isfinite(coords)):
        raise ValueError("point has non-finite coordinates")
    return coords


def matrix_to_json(mat: np.ndarray) -> dict:
    mat = np.asarray(mat)
    if mat.ndim != 2:
        raise ShapeError("matrix must be 2-d")
    rows, cols = mat.shape
    if np.iscomplexobj(mat):
        entries = [[float(z.real), float(z.imag)] for z in mat.reshape(-1)]
    else:
        entries = [float(x) for x in mat.reshape(-1)]
    return {"rows": rows, "cols": cols, "entries": entries}


def matrix_from_json(data: dict) -> np.ndarray:
    rows, cols = int(data["rows"]), int(data["cols"])
    entries = data["entries"]
    if len(entries) != rows * cols:
        raise ShapeError(f"expected {rows * cols} entries, got {len(entries)}")
    if any(isinstance(e, (list, tuple)) for e in entries):
        vals = np.array([complex(e[0], e[1]) for e in entries])
    else:
        vals = np.asarray(entries, dtype=float)
    if not np.all(np.isfinite(vals)):
        raise ValueError("matrix has non-finite entries")
    return vals.reshape(rows, cols)


def decimal_string(x: float) -> str:
    """Shortest decimal that round-trips at 17 significant digits."""
    return format(float(x), ".17g")


def jsonable(obj):
    """Recursively convert dataclasses / numpy values into JSON-safe objects."""
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        return {f.name: jsonable(getattr(obj, f.name)) for f in dataclasses.fields(obj)}
    if isinstance(obj, dict):
        return {str(k): jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [jsonable(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return jsonable(obj.tolist())
    if isinstance(obj, (np.bool_, bool)):  # before int: bool is an int subclass
        return bool(obj)
    if isinstance(obj, (np.floating, float)):
        return float(obj)
    if isinstance(obj, (np.integer, int)):
        return int(obj)
    if obj is None or isinstance(obj, str):
        return obj
    if isinstance(obj, complex):
        return [obj.real, obj.imag]
    raise TypeError(f"cannot serialize {type(obj)!r}")


def _non_finite_path(obj, path: str = ""):
    """Dotted path of the first NaN or infinity in key-sorted order, or None."""
    if isinstance(obj, float):
        return None if math.isfinite(obj) else path
    if isinstance(obj, dict):
        children = sorted(obj.items())
    elif isinstance(obj, list):
        children = enumerate(obj)
    else:
        return None
    for key, value in children:
        found = _non_finite_path(value, f"{path}.{key}" if path else str(key))
        if found is not None:
            return found
    return None


def dumps_canonical(obj) -> str:
    """Deterministic JSON text: sorted keys, fixed separators, trailing newline.

    A NaN or an infinity has no JSON form: RuntimeError names the first one's field.
    """
    data = jsonable(obj)
    try:
        return json.dumps(data, sort_keys=True, indent=2, allow_nan=False) + "\n"
    except ValueError:
        raise RuntimeError(f"report has a non-finite value at {_non_finite_path(data)}") from None
