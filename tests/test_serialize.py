import dataclasses
import json
from typing import Optional

import numpy as np

from spraylab.degree import DegreeOptions, a_k, circle_power_map, sphere_degree, unitary_degree
from spraylab.serialize import dumps_canonical


def _reference_jsonable(obj):
    # jsonable before plain leaves were matched by exact type: every value
    # goes down the dataclass and isinstance chain.
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        return {f.name: _reference_jsonable(getattr(obj, f.name)) for f in dataclasses.fields(obj)}
    if isinstance(obj, dict):
        return {str(k): _reference_jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_reference_jsonable(v) for v in obj]
    if isinstance(obj, (np.bool_, bool)):
        return bool(obj)
    if isinstance(obj, (np.floating, float)):
        return float(obj)
    if isinstance(obj, (np.integer, int)):
        return int(obj)
    if obj is None or isinstance(obj, str):
        return obj
    raise TypeError(f"cannot serialize {type(obj)!r}")


def _reference_dumps(obj) -> str:
    return json.dumps(_reference_jsonable(obj), sort_keys=True, indent=2) + "\n"


@dataclasses.dataclass
class _Inner:
    x: np.float64
    flag: np.bool_
    count: np.int64
    small: np.float32
    note: Optional[str] = None


@dataclasses.dataclass
class _Outer:
    inner: _Inner
    rows: list
    pair: tuple
    table: dict


def test_canonical_text_matches_the_reference_conversion():
    inner = _Inner(np.float64(-0.0), np.bool_(True), np.int64(-(2**62)), np.float32(0.1))
    cases = [
        _Outer(
            inner=inner,
            rows=[[1.5, -0.0, np.float64(2.25)], (np.int32(3), 4), [True, np.bool_(False), None]],
            pair=(inner, "text"),
            table={3: {"big": 2**80, "neg": -(2**70)}, "nested": {"a": [{"b": (0.1, 1e-300)}]}},
        ),
        {"top": [inner, {"x": 5e-324, "y": -1e308, "z": np.float64(1) / 3}], 7: False},
        [2**64, -0.0, 0.0, 1, True, "s", None, np.uint8(255), np.float16(0.5)],
        -0.0,
        np.bool_(False),
        10**30,
    ]
    for obj in cases:
        assert dumps_canonical(obj) == _reference_dumps(obj)


def test_degree_reports_match_the_reference_conversion():
    reports = [
        sphere_degree(circle_power_map(-3), 1, DegreeOptions(seed=7)),
        unitary_degree(a_k(2), DegreeOptions(seed=3)),
    ]
    for report in reports:
        assert dumps_canonical(report) == _reference_dumps(report)
