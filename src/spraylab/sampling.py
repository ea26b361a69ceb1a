"""Seeded random samplers on the supported varieties and quasi-uniform sphere sets."""

from __future__ import annotations

from functools import lru_cache
from statistics import NormalDist

import numpy as np

from .geometry import (
    VarietySpec,
    cayley_many,
    deinterleave,
    embed_fiber_in_algebra,
    matrix_to_point,
    normalize_rows,
)

_GOLDEN = (1.0 + np.sqrt(5.0)) / 2.0
_INV_NORMAL_CDF = np.frompyfunc(NormalDist().inv_cdf, 1, 1)


def rng(seed: int) -> np.random.Generator:
    return np.random.default_rng(int(seed))


def sample_group(spec: VarietySpec, count: int, gen: np.random.Generator) -> np.ndarray:
    """Haar-ish group samples: Cayley images of random skew matrices.

    For O(m) half of the samples are reflected into the second component;
    for SU(m) the unit-determinant phase is divided out.
    """
    coeffs = gen.uniform(-1.0, 1.0, (count, spec.dim))
    q = cayley_many(embed_fiber_in_algebra(coeffs, spec.kind, spec.m))
    if spec.kind == "O":
        refl = np.eye(spec.m)
        refl[0, 0] = -1.0
        flip = gen.integers(0, 2, count).astype(bool)
        q[flip] = q[flip] @ refl
    elif spec.kind == "SU":
        det = np.linalg.det(q)
        q = q * np.exp(-1j * np.angle(det) / spec.m)[:, None, None]
    elif spec.kind == "U":
        # Cayley images have no det = -1 phase obstruction; add a random
        # diagonal phase so the whole group is covered.
        phase = np.exp(1j * gen.uniform(0.0, 2.0 * np.pi, count))
        q = q * phase[:, None, None] ** (1.0 / spec.m)
    return matrix_to_point(q, spec)


def sample_variety(spec: VarietySpec, count: int, seed: int) -> np.ndarray:
    """Deterministic batch of points on ``spec``, shape (count, ambient_dim)."""
    if spec.kind == "sphere":
        return normalize_rows(rng(seed).standard_normal((count, spec.n + 1)))
    return sample_group(spec, count, rng(seed))


def sample_fiber(dim: int, count: int, gen: np.random.Generator, radius: float) -> np.ndarray:
    """Fiber vectors with directions uniform and norms uniform in (0, radius]."""
    d = normalize_rows(gen.standard_normal((count, dim)))
    return d * (radius * gen.uniform(0.0, 1.0, count))[:, None]


def _frac(x):
    return x - np.floor(x)


def _kronecker_alphas(d: int) -> np.ndarray:
    """Irrational lattice directions from the generalized golden ratio.

    phi_d is the unique real root of x^(d+1) = x + 1 above 1, giving a
    low-discrepancy Kronecker sequence with alphas phi_d^-(i+1).
    """
    phi = 1.5
    for _ in range(64):
        phi = (1.0 + phi) ** (1.0 / (d + 1))
    return phi ** -(np.arange(1, d + 1, dtype=float))


@lru_cache(maxsize=16)
def sphere_quasi_uniform(count: int, n: int) -> np.ndarray:
    """Fibonacci-type quasi-uniform point set on the n-sphere, shape (count, n+1).

    S1 uses the golden-angle sequence, S2 the classic Fibonacci spiral, and
    higher dimensions a Kronecker lattice pushed through the inverse normal
    CDF (the standard library's ``statistics.NormalDist().inv_cdf``, Wichura's
    AS241) and normalized.  The 16 sets last asked for are kept and shared:
    the arrays are read-only.
    """
    if n == 1:
        theta = 2.0 * np.pi * _frac(np.arange(count) * (_GOLDEN - 1.0))
        points = np.column_stack([np.cos(theta), np.sin(theta)])
    elif n == 2:
        i = np.arange(count, dtype=float)
        z = 1.0 - 2.0 * (i + 0.5) / count
        r = np.sqrt(np.maximum(0.0, 1.0 - z * z))
        theta = 2.0 * np.pi * _frac(i / _GOLDEN)
        points = np.column_stack([r * np.cos(theta), r * np.sin(theta), z])
    else:
        alphas = _kronecker_alphas(n + 1)
        u = _frac(0.5 + np.outer(np.arange(1, count + 1, dtype=float), alphas))
        u = np.clip(u, 1e-12, 1.0 - 1e-12)
        points = normalize_rows(_INV_NORMAL_CDF(u).astype(float))
    points.setflags(write=False)
    return points


def sphere_quasi_uniform_complex(count: int, k: int) -> np.ndarray:
    """Quasi-uniform points on the unit sphere of C^k, returned as complex rows."""
    return deinterleave(sphere_quasi_uniform(count, 2 * k - 1))
