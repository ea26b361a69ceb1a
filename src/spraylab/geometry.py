"""Points, matrices, variety membership, and explicit rational building blocks.

Everything downstream works on plain numpy arrays, batched over rows: a
batch of points is an (N, ambient_dim) float array, a stack of matrices an
(N, m, m) float or complex array.
Complex coordinates are realified by interleaving, so a point of a unitary
group or of a sphere inside C^k is stored as [re z0, im z0, re z1, ...].
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

_GROUP_KINDS = ("O", "SO", "U", "SU")


class ShapeError(ValueError):
    """A point or matrix does not have the dimensions the operation expects."""


# ---------------------------------------------------------------------------
# Variety specifications
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class VarietySpec:
    """A supported variety: a round sphere or a classical group.

    ``kind`` is one of ``"sphere"``, ``"O"``, ``"SO"``, ``"U"``, ``"SU"``.
    Spheres use ``n`` (the manifold dimension), groups use ``m`` (the
    matrix size).
    """

    kind: str
    n: int = 0
    m: int = 0

    def __post_init__(self):
        if self.kind != "sphere" and self.kind not in _GROUP_KINDS:
            raise ValueError(f"unknown variety kind {self.kind!r}")

    # -- constructors -------------------------------------------------------

    @staticmethod
    def sphere(n: int) -> "VarietySpec":
        if n < 1:
            raise ValueError(f"sphere dimension must be >= 1, got {n}")
        return VarietySpec(kind="sphere", n=int(n))

    @staticmethod
    def group(name: str, m: int) -> "VarietySpec":
        if name not in _GROUP_KINDS:
            raise ValueError(f"unknown group kind {name!r}")
        if m < 1:
            raise ValueError(f"matrix size must be >= 1, got {m}")
        return VarietySpec(kind=name, m=int(m))

    # -- derived data --------------------------------------------------------

    @property
    def is_group(self) -> bool:
        return self.kind in _GROUP_KINDS

    @property
    def is_complex(self) -> bool:
        return self.kind in ("U", "SU")

    @property
    def ambient_dim(self) -> int:
        if self.kind == "sphere":
            return self.n + 1
        if self.kind in ("O", "SO"):
            return self.m * self.m
        return 2 * self.m * self.m  # U, SU

    @property
    def dim(self) -> int:
        """Manifold dimension (the rank a dominating spray must reach)."""
        if self.kind == "sphere":
            return self.n
        if self.kind in ("O", "SO"):
            return self.m * (self.m - 1) // 2
        if self.kind == "U":
            return self.m * self.m
        return self.m * self.m - 1  # SU

    def label(self) -> str:
        if self.kind == "sphere":
            return f"S{self.n}"
        return f"{self.kind}({self.m})"


# ---------------------------------------------------------------------------
# Row normalization and realification helpers
# ---------------------------------------------------------------------------


def normalize_rows(x: np.ndarray) -> np.ndarray:
    """Rows (last axis) over their norms; a lone vector over its dot-product norm."""
    return x / np.linalg.norm(x, axis=-1 if x.ndim > 1 else None, keepdims=True)


def interleave(z: np.ndarray) -> np.ndarray:
    """Complex array (..., k) -> real array (..., 2k) as [re, im, re, im, ...]."""
    z = np.asarray(z, dtype=complex)
    out = np.empty(z.shape[:-1] + (2 * z.shape[-1],), dtype=float)
    out[..., 0::2] = z.real
    out[..., 1::2] = z.imag
    return out


def deinterleave(x: np.ndarray) -> np.ndarray:
    """Inverse of :func:`interleave`."""
    x = np.asarray(x, dtype=float)
    if x.shape[-1] % 2:
        raise ShapeError("realified array must have even length")
    return x[..., 0::2] + 1j * x[..., 1::2]


def point_to_matrix(p: np.ndarray, spec: VarietySpec) -> np.ndarray:
    """Unflatten a group point into its m-by-m matrix."""
    p = np.asarray(p, dtype=float)
    if not spec.is_group:
        raise ShapeError(f"{spec.label()} is not a group variety")
    if p.shape[-1] != spec.ambient_dim:
        raise ShapeError(f"expected {spec.ambient_dim} coordinates, got {p.shape[-1]}")
    m = spec.m
    if spec.is_complex:
        return deinterleave(p).reshape(p.shape[:-1] + (m, m))
    return p.reshape(p.shape[:-1] + (m, m))


def matrix_to_point(q: np.ndarray, spec: VarietySpec) -> np.ndarray:
    """Flatten an m-by-m matrix into ambient coordinates of the group."""
    q = np.asarray(q)
    m = spec.m
    flat = q.reshape(q.shape[:-2] + (m * m,))
    if spec.is_complex:
        return interleave(flat)
    return np.asarray(flat, dtype=float).copy()


# ---------------------------------------------------------------------------
# Membership
# ---------------------------------------------------------------------------


def membership_residual_many(points: np.ndarray, spec: VarietySpec) -> np.ndarray:
    """Per-row membership residuals for a batch of points, shape (N,)."""
    p = np.asarray(points, dtype=float)
    if p.ndim != 2 or p.shape[1] != spec.ambient_dim:
        raise ShapeError(
            f"batch has shape {p.shape}, {spec.label()} needs (N, {spec.ambient_dim})"
        )
    if spec.kind == "sphere":
        return np.abs(np.einsum("ni,ni->n", p, p) - 1.0)
    q = point_to_matrix(p, spec)
    gram = q @ np.conj(np.swapaxes(q, -1, -2)) - np.eye(spec.m)
    resid = np.max(np.abs(gram), axis=(1, 2))
    if spec.kind in ("SO", "SU"):
        resid = np.maximum(resid, np.abs(np.linalg.det(q) - 1.0))
    return resid


# ---------------------------------------------------------------------------
# Cayley transform
# ---------------------------------------------------------------------------


_SIGN2 = np.array([[1.0, -1.0], [-1.0, 1.0]])
_EYE2 = np.eye(2)
# Rolled indices for 3x3 cofactors: E[j, l] = (I + A)[R[l], R[j]] with R = (1, 2, 0, 1),
# so adj(I + A)[i, k] = E[i, k] E[i+1, k+1] - E[i+1, k] E[i, k+1] for i, k in 0..2.
_R3 = np.array([1, 2, 0, 1])
_R3_DIAG = (np.array([0, 1, 2, 3, 0, 3]), np.array([0, 1, 2, 3, 3, 0]))  # where R[j] == R[l]


def _adjugate_and_det(a: np.ndarray) -> tuple:
    """adj(I + A), written out as cofactors in a fresh array, and det(I + A), for m = 2, 3."""
    if a.shape[-1] == 2:
        # adj is linear on 2x2 matrices: swap the diagonal, negate the off-diagonal.
        # Adding all of I also turns a negated zero into +0.
        adj = np.swapaxes(a[..., ::-1, ::-1], -1, -2) * _SIGN2
        adj += _EYE2
        return adj, adj[..., 1, 1] * adj[..., 0, 0] - a[..., 0, 1] * a[..., 1, 0]
    e = np.swapaxes(a, -1, -2)[..., _R3[:, None], _R3]
    e[..., _R3_DIAG[0], _R3_DIAG[1]] += 1.0
    adj = e[..., :3, :3] * e[..., 1:, 1:]
    adj -= e[..., 1:, :3] * e[..., :3, 1:]
    # Row 0 of I + A against column 0 of its adjugate.
    det = e[..., 2, 2] * adj[..., 0, 0]
    det += e[..., 0, 2] * adj[..., 1, 0]
    det += e[..., 1, 2] * adj[..., 2, 0]
    return adj, det


def cayley_many(a: np.ndarray) -> np.ndarray:
    """Cayley transform (I - A)(I + A)^(-1) of stacked (..., m, m) matrices.

    Maps skew-symmetric matrices to special-orthogonal ones and
    skew-Hermitian matrices to unitary ones, fixing I at A = 0, and is an
    involution: applying it twice returns the input.  The formula holds for
    any real or complex A with I + A invertible, not only skew ones.

    For m = 2 and 3 (every SO(2), SO(3), O(3), U(2), SU(2) and SU(3)
    spray) it is evaluated as 2 adj(I + A) / det(I + A) - I, with the
    adjugate written out as cofactors, elementwise, so row i of a batch is
    bitwise equal to the transform of row i alone.  Other m use one batched
    LAPACK solve.  When I + A is singular, m = 2, 3 give non-finite entries
    in that matrix (without a warning) and other m raise
    ``np.linalg.LinAlgError``.
    """
    a = np.asarray(a)
    a = a.astype(np.result_type(a, 1.0), copy=False)
    m = a.shape[-1]
    if m in (2, 3):
        out, det = _adjugate_and_det(a)
        with np.errstate(divide="ignore", invalid="ignore"):
            out *= (2.0 / det)[..., None, None]
        out[..., range(m), range(m)] -= 1.0
        return out
    eye = np.eye(m, dtype=a.dtype)
    ipa = eye + a
    return np.swapaxes(
        np.linalg.solve(np.swapaxes(ipa, -1, -2), np.swapaxes(eye - a, -1, -2)), -1, -2
    )


# ---------------------------------------------------------------------------
# Shrink map and Fermat scaling
# ---------------------------------------------------------------------------


def _squared_norms(v: np.ndarray) -> np.ndarray:
    # The stacked matmul sums like ``v @ v`` on one row, so batches agree bitwise.
    return np.matmul(v[..., None, :], v[..., :, None])[..., 0, 0]


def shrink_map(v: np.ndarray, c: float) -> np.ndarray:
    """Rational squeeze c*v / (1 + |v|^2) over the last axis; image norms stay below c/2."""
    v = np.asarray(v, dtype=float)
    if not np.all(np.isfinite(v)):
        raise ValueError("input has non-finite coordinates")
    if c <= 0:
        raise ValueError(f"scale must be positive, got {c}")
    return c * v / (1.0 + _squared_norms(v))[..., None]


def unshrink_map(w: np.ndarray, c: float) -> np.ndarray:
    """Inverse of :func:`shrink_map` over the last axis, on its image ball |w| < c/2 (small branch)."""
    w = np.asarray(w, dtype=float)
    r = np.sqrt(_squared_norms(w))[..., None]
    disc = c * c - 4.0 * r * r
    if np.any(disc < 0):
        raise ValueError("vector lies outside the image of the shrink map")
    r = np.where(r == 0.0, 1.0, r)  # w = 0 maps to itself; t below is then 0
    t = (c - np.sqrt(disc)) / (2.0 * r)
    return w * (t / r)


def radial_to_fermat(x: np.ndarray, exponent: int) -> np.ndarray:
    """Scale points of the round sphere radially onto sum x_i**exponent = 1."""
    x = np.asarray(x, dtype=float)
    scale = np.sum(x**exponent, axis=-1) ** (1.0 / exponent)
    return x / scale[..., None]


# ---------------------------------------------------------------------------
# Tangent frames on spheres
# ---------------------------------------------------------------------------


def sphere_tangent_basis_many(points: np.ndarray) -> np.ndarray:
    """Deterministic orthonormal tangent frames at rows of ``points``.

    Drops the axis of largest absolute component and Gram-Schmidts the
    remaining standard basis vectors against the point, in index order.
    Returns an array of shape (N, n, n+1).
    """
    p = np.asarray(points, dtype=float)
    count, amb = p.shape
    n = amb - 1
    drop = np.argmax(np.abs(p), axis=1)
    base = np.tile(np.arange(amb), (count, 1))
    kept = base[base != drop[:, None]].reshape(count, n)
    seeds = np.eye(amb)[kept]  # (N, n, amb)
    frame = np.empty((count, n, amb))
    for j in range(n):
        u = seeds[:, j, :].copy()
        u -= np.einsum("ni,ni->n", u, p)[:, None] * p
        for l in range(j):
            u -= np.einsum("ni,ni->n", u, frame[:, l, :])[:, None] * frame[:, l, :]
        frame[:, j, :] = normalize_rows(u)
    return frame


def oriented_sphere_frame_many(points: np.ndarray) -> np.ndarray:
    """Tangent frames with the outward-normal-first orientation.

    The frame rows t_1..t_n are flipped (last row only) so that the
    (n+1)-frame [p, t_1, ..., t_n] is positively oriented in the ambient
    space.  Degree computations rely on this convention.
    """
    p = np.asarray(points, dtype=float)
    frames = sphere_tangent_basis_many(p)
    stacked = np.concatenate([p[:, None, :], frames], axis=1)
    flip = np.linalg.det(stacked) < 0
    frames[flip, -1, :] *= -1.0
    return frames


def tangent_probes(map_many, points: np.ndarray, steps: np.ndarray) -> np.ndarray:
    """Values of a sphere map at the points stepped along each direction.

    ``steps`` is (N, m, n+1), one tangent step per row and direction; the
    result is (N, out, m) with column j the map at normalize(points + steps[:, j]),
    the layout of a Jacobian.  One map call per direction.
    """
    cols = [map_many(normalize_rows(points + steps[:, j])) for j in range(steps.shape[1])]
    return np.stack(cols, axis=2)


# ---------------------------------------------------------------------------
# Lie algebra bases and group tangent frames
# ---------------------------------------------------------------------------


@lru_cache(maxsize=None)
def lie_algebra_basis(kind: str, m: int) -> np.ndarray:
    """Fixed deterministic basis of the Lie algebra of the given group kind.

    O/SO: skew-symmetric E_ij - E_ji for i < j (lexicographic).
    U: the m diagonal generators i*E_jj, then per pair i < j the two
    generators E_ij - E_ji and i*(E_ij + E_ji).
    SU: traceless diagonal generators i*(E_jj - E_(j+1)(j+1)), then the same
    off-diagonal pairs as U.  O(1), SO(1) and SU(1) get an empty (0, m, m) stack.
    """
    mats = []
    if kind in ("O", "SO"):
        for i in range(m):
            for j in range(i + 1, m):
                b = np.zeros((m, m))
                b[i, j] = 1.0
                b[j, i] = -1.0
                mats.append(b)
        dtype = float
    elif kind in ("U", "SU"):
        if kind == "U":
            for j in range(m):
                b = np.zeros((m, m), dtype=complex)
                b[j, j] = 1j
                mats.append(b)
        else:
            for j in range(m - 1):
                b = np.zeros((m, m), dtype=complex)
                b[j, j] = 1j
                b[j + 1, j + 1] = -1j
                mats.append(b)
        for i in range(m):
            for j in range(i + 1, m):
                b = np.zeros((m, m), dtype=complex)
                b[i, j] = 1.0
                b[j, i] = -1.0
                mats.append(b)
                b = np.zeros((m, m), dtype=complex)
                b[i, j] = 1j
                b[j, i] = 1j
                mats.append(b)
        dtype = complex
    else:
        raise ValueError(f"no Lie algebra basis for kind {kind!r}")
    out = np.array(mats, dtype=dtype).reshape(-1, m, m)
    out.setflags(write=False)
    return out


def embed_fiber_in_algebra(v: np.ndarray, kind: str, m: int) -> np.ndarray:
    """Linear embedding of fiber coordinates into the Lie algebra, batched."""
    basis = lie_algebra_basis(kind, m)
    return np.tensordot(np.asarray(v, dtype=float), basis, axes=(-1, 0))


@lru_cache(maxsize=None)
def _algebra_flat(kind: str, m: int) -> tuple:
    """Realified flat Lie algebra basis rows and their pseudo-inverse."""
    flat = matrix_to_point(lie_algebra_basis(kind, m), VarietySpec.group(kind, m))
    return flat, np.linalg.pinv(flat)


def algebra_coordinates_many(a: np.ndarray, kind: str, m: int) -> tuple:
    """Batched basis coordinates of (N, m, m) algebra elements, with residuals."""
    flat, pinv = _algebra_flat(kind, m)
    vec = matrix_to_point(a, VarietySpec.group(kind, m))
    coords = vec @ pinv
    return coords, np.max(np.abs(coords @ flat - vec), axis=1)


def variety_tangent_frame(points: np.ndarray, spec: VarietySpec) -> np.ndarray:
    """Orthonormal tangent frames at rows of ``points`` on any supported variety.

    Takes (N, ambient_dim) points and returns (N, dim, ambient_dim) frames.
    """
    p = np.asarray(points, dtype=float)
    if spec.kind == "sphere":
        return sphere_tangent_basis_many(p)
    basis = lie_algebra_basis(spec.kind, spec.m)
    rows = matrix_to_point(basis @ point_to_matrix(p, spec)[:, None], spec)  # (N, d, amb)
    # QR with a sign fix keeps the frames deterministic.
    qmat, rmat = np.linalg.qr(np.swapaxes(rows, 1, 2))
    signs = np.where(np.diagonal(rmat, axis1=1, axis2=2) < 0, -1.0, 1.0)
    return np.swapaxes(qmat * signs[:, None, :], 1, 2)
