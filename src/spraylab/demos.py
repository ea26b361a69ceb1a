"""Built-in demo families for the approximation pipeline.

Each builder returns the pieces the pipeline needs: the smooth input map,
a homotopy connecting it to an exact rational map, the spray on the target,
and its default ``ApproxConfig`` (target accuracy and degree cap; tracking
runs under the fixed limits ``approx._MAX_INTERVALS``,
``sprays._NEWTON_MAX_ITER`` and ``sprays._MAX_FIBER_NORM``).  ``DEMOS`` maps
each CLI demo name to its builder.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict

import numpy as np

from .approx import ApproxConfig, Homotopy, PolynomialMap, sphere_exponents
from .degree import identity_map
from .geometry import VarietySpec, normalize_rows
from .sprays import Spray, stereographic_spray


@dataclass
class DemoSetup:
    f_many: Callable
    homotopy: Homotopy
    spray: Spray
    cfg: ApproxConfig
    expected_degree: int


def _poly_descriptor(name: str, formula: str, input_dim: int, degree: int, columns) -> tuple:
    """A polynomial base map F0 as its exact coefficient table over the sphere
    basis: the table's evaluator, which the pipeline runs, and the descriptor
    its report prints, in beta's JSON form plus a ``name`` and a ``formula``."""
    exps = sphere_exponents(input_dim, degree)
    coeffs = np.zeros((len(exps), len(columns)))
    for col, terms in enumerate(columns):
        for exp, value in terms.items():
            coeffs[exps.index(exp), col] = value
    table = PolynomialMap(input_dim, len(columns), degree, coeffs)
    return table.eval_many, {"name": name, "formula": formula, **table.to_jsonable()}


def s1_identity() -> DemoSetup:
    """Identity on the circle through the constant homotopy; exact output."""
    circle = VarietySpec.sphere(1)
    f0 = _poly_descriptor("identity", "(x, y)", 2, 1, [{(1, 0): 1.0}, {(0, 1): 1.0}])
    homotopy = Homotopy(circle, circle, lambda x, t: identity_map(x), *f0)
    return DemoSetup(
        f_many=identity_map,
        homotopy=homotopy,
        spray=stereographic_spray(1, fiber="ambient"),
        cfg=ApproxConfig(target_c0=1e-3, d_max=8),
        expected_degree=1,
    )


def s1_power2_wiggle() -> DemoSetup:
    """exp(i(2 theta + 0.3 sin theta)) on the circle, homotoped through z -> z^2."""
    circle = VarietySpec.sphere(1)

    def angles(x):
        return np.arctan2(x[:, 1], x[:, 0])

    def at_time(x, t):
        a = 2.0 * angles(x) + 0.3 * t * np.sin(angles(x))
        return np.column_stack([np.cos(a), np.sin(a)])

    # On the circle x^2 - y^2 = 2x^2 - 1, and the sphere basis has no y^2.
    f0 = _poly_descriptor(
        "square", "(x^2 - y^2, 2xy)", 2, 2, [{(2, 0): 2.0, (0, 0): -1.0}, {(1, 1): 2.0}]
    )
    homotopy = Homotopy(circle, circle, at_time, *f0)
    return DemoSetup(
        f_many=lambda x: at_time(x, 1.0),
        homotopy=homotopy,
        spray=stereographic_spray(1, fiber="ambient"),
        cfg=ApproxConfig(target_c0=1e-3, d_max=20),
        expected_degree=2,
    )


_BUMP_AXIS = np.array([0.3, -0.2, 0.9])
_BUMP_CENTER = np.array([0.24253562503633297, 0.566249958418111, 0.78824078136808214])


def _bump_field(x: np.ndarray) -> np.ndarray:
    # Projected constant field weighted by a smooth bump around a fixed center.
    w = np.exp(-(1.0 - x @ _BUMP_CENTER) / 0.35)
    tang = _BUMP_AXIS[None, :] - (x @ _BUMP_AXIS)[:, None] * x
    return w[:, None] * tang


def s2_bump_identity() -> DemoSetup:
    """Identity on the 2-sphere composed with a 0.2-strength tangent bump flow."""
    sphere = VarietySpec.sphere(2)

    def at_time(x, t):
        x = np.asarray(x, dtype=float)
        return normalize_rows(x + 0.2 * t * _bump_field(x))

    f0 = _poly_descriptor(
        "identity", "(x, y, z)", 3, 1, [{(1, 0, 0): 1.0}, {(0, 1, 0): 1.0}, {(0, 0, 1): 1.0}]
    )
    homotopy = Homotopy(sphere, sphere, at_time, *f0)
    return DemoSetup(
        f_many=lambda x: at_time(x, 1.0),
        homotopy=homotopy,
        spray=stereographic_spray(2, fiber="ambient"),
        cfg=ApproxConfig(target_c0=1e-2, d_max=12),
        expected_degree=1,
    )


DEMOS: Dict[str, Callable[[], DemoSetup]] = {
    "identity": s1_identity,
    "s1-power-2-wiggle": s1_power2_wiggle,
    "s2-bump-identity": s2_bump_identity,
}
