"""JSON serialization for variety specs and reports.

Schemas:
  variety {"kind": "sphere", "n": 2} (the n-sphere) /
          {"kind": "SO", "m": 3} (a group: "O", "SO", "U" or "SU", matrix size m)

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

from .geometry import VarietySpec


def variety_to_json(spec: VarietySpec) -> dict:
    if spec.kind == "sphere":
        return {"kind": "sphere", "n": spec.n}
    return {"kind": spec.kind, "m": spec.m}


_LABEL_RE = re.compile(r"^(S)(\d+)$|^(O|SO|U|SU)\((\d+)\)$")


def parse_variety_label(label: str) -> VarietySpec:
    """Parse shorthand like ``"S2"`` or ``"SO(3)"`` into a VarietySpec."""
    m = _LABEL_RE.match(label.strip())
    if not m:
        raise ValueError(f"cannot parse variety label {label!r}")
    if m.group(1):
        return VarietySpec.sphere(int(m.group(2)))
    return VarietySpec.group(m.group(3), int(m.group(4)))


def decimal_string(x: float) -> str:
    """17 significant digits: the same double when parsed, though not the shortest."""
    return format(float(x), ".17g")


def jsonable(obj):
    """Recursively convert dataclasses and numpy scalars into JSON-safe objects."""
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        return {f.name: jsonable(getattr(obj, f.name)) for f in dataclasses.fields(obj)}
    if isinstance(obj, dict):
        return {str(k): jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [jsonable(v) for v in obj]
    if isinstance(obj, (np.bool_, bool)):  # before int: bool is an int subclass
        return bool(obj)
    if isinstance(obj, (np.floating, float)):
        return float(obj)
    if isinstance(obj, (np.integer, int)):
        return int(obj)
    if obj is None or isinstance(obj, str):
        return obj
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
