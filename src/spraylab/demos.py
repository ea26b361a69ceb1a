"""Built-in demo families for the approximation pipeline.

Each builder returns the pieces the pipeline needs: the smooth input map,
a homotopy connecting it to an exact rational map, the spray on the target,
and default pipeline settings.  New demos can be registered by name through
:func:`register_demo`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict

import numpy as np

from .approx import ApproxConfig, Homotopy, monomial_exponents
from .geometry import VarietySpec
from .sampling import normalize_rows
from .serialize import decimal_string
from .sprays import Spray, stereographic_spray


@dataclass
class DemoSetup:
    name: str
    f_many: Callable
    homotopy: Homotopy
    spray: Spray
    cfg: ApproxConfig
    expected_degree: int


def _poly_descriptor(name: str, formula: str, input_dim: int, degree: int, columns) -> dict:
    """Exact coefficient table of a polynomial base map, canonical monomial order."""
    exps = monomial_exponents(input_dim, degree)
    coeffs = np.zeros((len(exps), len(columns)))
    for col, terms in enumerate(columns):
        for exp, value in terms.items():
            coeffs[exps.index(exp), col] = value
    return {
        "name": name,
        "formula": formula,
        "input_dim": input_dim,
        "output_dim": len(columns),
        "degree": degree,
        "coefficients": [[decimal_string(c) for c in row] for row in coeffs],
    }


def s1_identity() -> DemoSetup:
    """Identity on the circle through the constant homotopy; exact output."""
    circle = VarietySpec.sphere(1)

    def ident(x):
        return np.asarray(x, dtype=float).copy()

    homotopy = Homotopy(
        domain=circle,
        target=circle,
        eval_many=lambda x, t: ident(x),
        f0_many=ident,
        f0_descriptor=_poly_descriptor(
            "identity", "(x, y)", 2, 1, [{(1, 0): 1.0}, {(0, 1): 1.0}]
        ),
    )
    return DemoSetup(
        name="identity",
        f_many=ident,
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

    def square(x):
        return np.column_stack([x[:, 0] ** 2 - x[:, 1] ** 2, 2.0 * x[:, 0] * x[:, 1]])

    homotopy = Homotopy(
        domain=circle,
        target=circle,
        eval_many=at_time,
        f0_many=square,
        f0_descriptor=_poly_descriptor(
            "square",
            "(x^2 - y^2, 2xy)",
            2,
            2,
            [{(2, 0): 1.0, (0, 2): -1.0}, {(1, 1): 2.0}],
        ),
    )
    return DemoSetup(
        name="s1-power-2-wiggle",
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

    def ident(x):
        return np.asarray(x, dtype=float).copy()

    homotopy = Homotopy(
        domain=sphere,
        target=sphere,
        eval_many=at_time,
        f0_many=ident,
        f0_descriptor=_poly_descriptor(
            "identity",
            "(x, y, z)",
            3,
            1,
            [{(1, 0, 0): 1.0}, {(0, 1, 0): 1.0}, {(0, 0, 1): 1.0}],
        ),
    )
    return DemoSetup(
        name="s2-bump-identity",
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


def register_demo(name: str, builder: Callable[[], DemoSetup]) -> None:
    """Plugin hook: make a demo available to the CLI under ``name``."""
    DEMOS[name] = builder
