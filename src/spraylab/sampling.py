"""Seeded random samplers on the supported varieties, quasi-uniform sphere sets
and the cached simplicial sphere meshes."""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
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
_MESH_ROTATION_SEED = 1975  # the sphere meshes' fixed rotation; no regular value draws from it


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


@dataclass(frozen=True)
class SphereMesh:
    """A triangulation of S^n: the cube [-1, 1]^(n+1)'s boundary, projected radially.

    Each of the 2(n+1) facets carries the Freudenthal triangulation of its
    m-by-...-by-m grid of cells: n! simplices per cell, one per order in
    which a path from the cell's low corner to its high corner takes the n
    unit steps.  ``vertices`` (V, n+1) are the unit rows, shared
    between facets and turned by one fixed rotation; ``simplices`` (S, n+1)
    index them; ``signs`` (S,) is sign det[v_0..v_n], the orientation of each
    simplex's cone; ``facets`` (2(n+1), (m+1)^n) numbers each facet's lattice
    points in C order of its n free coordinates.  The edges of the
    simplices join the facet points p and p + e_T for every nonempty set T
    of the facet's axes.  Every array is read-only.
    """

    vertices: np.ndarray
    simplices: np.ndarray
    signs: np.ndarray
    facets: np.ndarray


def mesh_size(n: int, m: int) -> int:
    """Simplices of ``sphere_mesh(n, m)``: 2(n+1) facets of m^n cells of n! simplices."""
    return 2 * (n + 1) * math.factorial(n) * m**n


@lru_cache(maxsize=16)
def sphere_mesh(n: int, m: int) -> SphereMesh:
    """The cached mesh of S^n with m cells per edge of each cube facet.

    Lattice points are named by their global id, the ravelled index of their
    coordinates in {0..m}^(n+1), and numbered in increasing id.  One facet's
    triangulation is built once, as facet-lattice indices, and each facet
    maps it to vertex numbers by one lookup.  A Freudenthal simplex's
    orientation is the same in every cell of a facet (its vertices differ by
    unit steps, so det[v_0..v_n] = h^n v_0[axis] times the sign of the step
    order), and radial projection and a rotation keep it, so the signs of
    one cell are computed and repeated.  The lattice is turned by a fixed
    rotation, the Cayley image of a seeded skew matrix: under symmetric maps
    such as q -> q^2, lattice-aligned vertices gave simplices singular
    images.  Built on first use; the 16 meshes last asked for are kept.
    """
    side = m + 1
    local = side ** np.arange(n - 1, -1, -1)  # strides of a facet's n coordinates
    orders = np.array(list(itertools.permutations(range(n))), dtype=np.int64).reshape(-1, n)
    steps = np.zeros((len(orders), n + 1, n), dtype=np.int64)
    steps[np.arange(len(orders))[:, None], np.arange(1, n + 1), orders] = 1
    paths = np.cumsum(steps, axis=1) @ local  # (n!, n+1) facet indices of the first cell
    corners = np.indices((m,) * n).reshape(n, -1).T @ local
    cell_simplices = (corners[:, None, None] + paths).reshape(-1, n + 1)

    points = np.indices((side,) * n).reshape(n, -1).T
    strides = side ** np.arange(n, -1, -1)
    global_ids = []  # per facet, the global ids of its lattice points
    for axis in range(n + 1):
        free = np.delete(np.arange(n + 1), axis)
        for value in (0, m):
            global_ids.append(points @ strides[free] + value * strides[axis])
    ids = np.sort(np.concatenate(global_ids))
    ids = ids[np.append(True, ids[1:] != ids[:-1])]  # a point on several facets, once
    lattice = np.stack(np.unravel_index(ids, (side,) * (n + 1)), axis=1)
    coeffs = rng(_MESH_ROTATION_SEED).uniform(-1.0, 1.0, (1, n * (n + 1) // 2))
    rotation = cayley_many(embed_fiber_in_algebra(coeffs, "SO", n + 1))[0]
    vertices = normalize_rows(2.0 * lattice / m - 1.0) @ rotation.T

    facets = np.stack([np.searchsorted(ids, g) for g in global_ids]).astype(np.int32)
    simplices = np.empty((len(facets), len(cell_simplices), n + 1), dtype=np.int32)
    for facet, numbers in zip(simplices, facets):
        np.take(numbers, cell_simplices, out=facet)
    first = vertices[simplices[:, : len(orders)]]  # (facets, n!, n+1, n+1)
    signs = np.sign(np.linalg.det(first)).astype(np.int8)[:, None]
    simplices, signs = simplices.reshape(-1, n + 1), np.repeat(signs, m**n, axis=1).ravel()
    for array in (vertices, simplices, signs, facets):
        array.setflags(write=False)
    return SphereMesh(vertices, simplices, signs, facets)
