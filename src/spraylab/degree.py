"""Degree calculus for sphere-to-matrix-group maps and numerical degree oracles.

The matrix side: homogeneous extensions, the block ``#`` product, and the
recursive family of unitary-valued maps a_k on S^(2k-1) with values in
SU(2^(k-1)).  The oracle side: winding numbers on S1 and signed preimage
counting on higher spheres, both under the outward-normal-first orientation
convention with interleaved realification (re, im, re, im, ...).

The column-based degree formula needs a k-by-k representative of the map;
maps presented with larger matrix size are compressed one size step at a
time, which preserves the homotopy class because each rotation field is
built from a contraction of a non-surjective column map.  A step rotates the
last column, per point, to a constant unit vector b and then rotates b, by
one constant rotation, to the last basis vector e_q.  Both rotations are the
identity plus a rank-two update, so their product moves every column by
multiples of the last column, b and e_q alone: one step costs two
projections and two rank-one updates, applied in place.  The chain runs on
columns directly and carries only the columns a caller asks for (plus the
last columns later steps still rotate).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import lru_cache
from typing import Callable, Optional

import numpy as np

from .geometry import (
    VarietySpec,
    deinterleave,
    interleave,
    matrix_to_point,
    membership_residual_many,
    normalize_rows,
    oriented_sphere_frame_many,
    radial_to_fermat,
    sphere_tangent_basis_many,
    tangent_probes,
)
from .sampling import rng, sphere_quasi_uniform, sphere_quasi_uniform_complex

_AK_CAP = 6  # largest k of a_k: its matrices grow as 2^(k-1)
_CHECK_SAMPLES = 256  # sphere samples of min_abs_det and max_unitarity_defect
_WINDING_GRID = 1 << 16
_NEWTON_TOL = 1e-11
_NEWTON_MAX_ITER = 60
_FD_STEP = 1e-6
_MIN_JACOBIAN = 1e-8  # smallest |det| at a preimage of a regular value
_MAX_REDRAWS = 5  # regular values redrawn before DegeneracyError
_DEDUP_RADIUS = 1e-6
_MISSED_SAMPLES = 4096  # the missed-point search of compress_to_k_block
_MISSED_CANDIDATES = 128
_MISSED_MARGIN = 0.02


class DegeneracyError(RuntimeError):
    """No usable regular value after the allowed number of redraws."""


class InconsistencyError(RuntimeError):
    """Two independent degree computations disagree (or divisibility failed)."""


class _RegularValueReject(Exception):
    pass


# ---------------------------------------------------------------------------
# Matrix-valued sphere maps
# ---------------------------------------------------------------------------


@dataclass
class MatrixSphereMap:
    """An evaluable map from the unit sphere of C^k into GL_p(C).

    ``eval_many`` takes complex rows (N, k) and returns stacked matrices
    (N, p, p); values must be invertible on the sphere.
    """

    k: int
    p: int
    eval_many: Callable
    name: str = "f"

    def eval_columns(self, z: np.ndarray, cols) -> np.ndarray:
        """Columns ``cols`` of the values at rows z, shape (N, p, len(cols))."""
        return self.eval_many(z)[:, :, list(cols)]

    def min_abs_det(self) -> float:
        z = sphere_quasi_uniform_complex(_CHECK_SAMPLES, self.k)
        return float(np.min(np.abs(np.linalg.det(self.eval_many(z)))))

    def max_unitarity_defect(self) -> float:
        z = sphere_quasi_uniform_complex(_CHECK_SAMPLES, self.k)
        mats = self.eval_many(z)
        gram = mats @ np.conj(np.swapaxes(mats, 1, 2)) - np.eye(self.p)
        return float(np.max(np.abs(gram)))


def homogeneous_extension(f: MatrixSphereMap) -> Callable:
    """Positively 1-homogeneous extension: x -> |x| f(x/|x|), zero at the origin."""

    def extended(x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=complex)
        norms = np.linalg.norm(x, axis=1)
        out = np.zeros((x.shape[0], f.p, f.p), dtype=complex)
        mask = norms > 0
        if np.any(mask):
            out[mask] = norms[mask, None, None] * f.eval_many(x[mask] / norms[mask, None])
        return out

    return extended


def _kron_many(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Row-wise Kronecker product of (N, r, r) with (N, s, s) stacks."""
    n, r, s = a.shape[0], a.shape[1], b.shape[1]
    return np.einsum("nij,nkl->nikjl", a, b).reshape(n, r * s, r * s)


def sharp_product(f: MatrixSphereMap, g: MatrixSphereMap) -> MatrixSphereMap:
    """Block product of sphere-to-matrix maps with multiplicative degree.

    On the unit sphere of C^(k+l), with F and G the homogeneous extensions,

        (x, y) -> [[F(x) (x) I_q,  -I_p (x) G(y)*],
                   [I_p (x) G(y),   F(x)* (x) I_q]]

    giving a map of size 2pq.  Unitary-valued factors give a unitary-valued
    product.
    """
    big_f = homogeneous_extension(f)
    big_g = homogeneous_extension(g)
    k, p, q = f.k, f.p, g.p

    def eval_many(z: np.ndarray) -> np.ndarray:
        z = np.asarray(z, dtype=complex)
        fx = big_f(z[:, :k])
        gy = big_g(z[:, k:])
        n = z.shape[0]
        eye_p = np.broadcast_to(np.eye(p, dtype=complex), (n, p, p))
        eye_q = np.broadcast_to(np.eye(q, dtype=complex), (n, q, q))
        fx_star = np.conj(np.swapaxes(fx, 1, 2))
        gy_star = np.conj(np.swapaxes(gy, 1, 2))
        top = np.concatenate([_kron_many(fx, eye_q), -_kron_many(eye_p, gy_star)], axis=2)
        bot = np.concatenate([_kron_many(eye_p, gy), _kron_many(fx_star, eye_q)], axis=2)
        return np.concatenate([top, bot], axis=1)

    return MatrixSphereMap(
        k=f.k + g.k, p=2 * p * q, eval_many=eval_many, name=f"({f.name}#{g.name})"
    )


def ak_matrix_many(z: np.ndarray, k: int) -> np.ndarray:
    """The R-linear 2^(k-1) by 2^(k-1) matrix of the k-th recursive unitary map.

    Built by the block recursion: size 1 is z_1; each step wraps the previous
    block with -conj(z_k) I on the upper right, z_k I on the lower left, and
    the conjugate transpose of the previous block on the lower right.  The
    levels are filled into one preallocated array, leading block first.
    """
    z = np.asarray(z, dtype=complex)
    if z.ndim == 1:
        z = z[None]
    size = 2 ** (k - 1)
    out = np.zeros((z.shape[0], size, size), dtype=complex)
    out[:, 0, 0] = z[:, 0]
    flat = out.reshape(z.shape[0], size * size)
    for j in range(1, k):
        s = 2 ** (j - 1)
        # The diagonals of the off-diagonal blocks, as strided slices of the rows.
        flat[:, s : s * (size + 2) : size + 1] = -np.conj(z[:, j])[:, None]
        flat[:, s * size : s * (2 * size + 1) : size + 1] = z[:, j][:, None]
        out[:, s : 2 * s, s : 2 * s] = np.conj(np.swapaxes(out[:, :s, :s], 1, 2))
    return out


def a_k(k: int) -> MatrixSphereMap:
    """The k-th map of the recursive family, S^(2k-1) -> SU(2^(k-1)) for k >= 2.

    Raises ValueError for k < 1 or k > ``_AK_CAP``.
    """
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    if k > _AK_CAP:
        raise ValueError(f"k = {k} exceeds the size cap {_AK_CAP} (matrices grow as 2^(k-1))")
    return MatrixSphereMap(
        k=k, p=2 ** (k - 1), eval_many=lambda z: ak_matrix_many(z, k), name=f"a_{k}"
    )


def power_map_matrix(d: int) -> MatrixSphereMap:
    """z -> z^d on the circle as a 1-by-1 matrix map (negative d via conjugation)."""

    def eval_many(z: np.ndarray) -> np.ndarray:
        w = z[:, 0] ** d if d >= 0 else np.conj(z[:, 0]) ** (-d)
        return w[:, None, None]

    return MatrixSphereMap(k=1, p=1, eval_many=eval_many, name=f"z^{d}")


# ---------------------------------------------------------------------------
# Identity checks for the a_k family
# ---------------------------------------------------------------------------


@dataclass
class AkIdentityReport:
    k: int
    n_samples: int
    seed: int
    tol: float
    linearity_max: float
    gram_identity_max: float
    det_identity_max: float
    unitary_membership_max: float
    membership_tol: float
    passed: bool


def verify_ak_identities(
    k: int, n_samples: int = 1000, seed: int = 0, tol: float = 1e-10
) -> AkIdentityReport:
    """Check R-linearity, the A A* identity, the determinant formula, and
    (S)U-membership of sphere values, over seeded samples.

    Samples are kept at norm <= 1.5 so the determinant comparison is not
    swamped by the magnitude of |z|^(2^(k-1)).  The size-1 determinant
    identity |z|^2 refers to the determinant of the realified matrix, which
    equals the squared modulus of the complex determinant; blocks of size
    >= 2 use the complex determinant directly.
    """
    gen = rng(seed)

    def draw():
        raw = gen.standard_normal((n_samples, k)) + 1j * gen.standard_normal((n_samples, k))
        return normalize_rows(raw) * gen.uniform(0.1, 1.5, n_samples)[:, None]

    u, v = draw(), draw()
    alpha = gen.uniform(-2.0, 2.0, n_samples)
    beta = gen.uniform(-2.0, 2.0, n_samples)

    mixed = ak_matrix_many(alpha[:, None] * u + beta[:, None] * v, k)
    split = alpha[:, None, None] * ak_matrix_many(u, k) + beta[:, None, None] * ak_matrix_many(v, k)
    linearity_max = float(np.max(np.abs(mixed - split)))

    mats = ak_matrix_many(u, k)
    nrm2 = np.sum(np.abs(u) ** 2, axis=1)
    gram = mats @ np.conj(np.swapaxes(mats, 1, 2)) - nrm2[:, None, None] * np.eye(2 ** (k - 1))
    gram_identity_max = float(np.max(np.abs(gram)))

    dets = np.linalg.det(mats)
    if k == 1:
        det_identity_max = float(np.max(np.abs(np.abs(dets) ** 2 - nrm2)))
    else:
        det_identity_max = float(np.max(np.abs(dets - nrm2 ** (2 ** (k - 2)))))

    sphere = sphere_quasi_uniform_complex(n_samples, k)
    sphere_mats = ak_matrix_many(sphere, k)
    target = VarietySpec.group("U" if k == 1 else "SU", 2 ** (k - 1))
    membership = membership_residual_many(matrix_to_point(sphere_mats, target), target)
    unitary_membership_max = float(np.max(membership))

    membership_tol = 1e-12
    passed = (
        linearity_max <= tol
        and gram_identity_max <= tol
        and det_identity_max <= tol
        and unitary_membership_max <= membership_tol
    )
    return AkIdentityReport(
        k=k,
        n_samples=n_samples,
        seed=seed,
        tol=tol,
        linearity_max=linearity_max,
        gram_identity_max=gram_identity_max,
        det_identity_max=det_identity_max,
        unitary_membership_max=unitary_membership_max,
        membership_tol=membership_tol,
        passed=bool(passed),
    )


# ---------------------------------------------------------------------------
# Numerical degree oracles
# ---------------------------------------------------------------------------


@dataclass
class DegreeOptions:
    seed: int = 0
    n_starts: Optional[int] = None  # defaults to 200 * n
    max_dim: int = 5


@dataclass
class DegreeReport:
    value: int
    method: str
    n: int
    seed: int
    regular_value: Optional[list] = None
    preimages: Optional[list] = None
    signs: Optional[list] = None
    basin_counts: Optional[list] = None
    cross_check_value: Optional[int] = None
    winding_residual: Optional[float] = None
    newton_max_residual: Optional[float] = None
    n_starts: Optional[int] = None
    redraws: int = 0
    psi_degree: Optional[int] = None
    divisor: Optional[int] = None
    calibration_sign: Optional[int] = None


def winding_number(map_many: Callable) -> tuple:
    """Winding number of a circle self-map from summed angular increments."""
    theta = np.linspace(0.0, 2.0 * np.pi, _WINDING_GRID, endpoint=False)
    pts = np.column_stack([np.cos(theta), np.sin(theta)])
    img = map_many(pts)
    ang = np.arctan2(img[:, 1], img[:, 0])
    inc = np.diff(np.append(ang, ang[0]))
    inc = (inc + np.pi) % (2.0 * np.pi) - np.pi
    total = float(np.sum(inc)) / (2.0 * np.pi)
    residual = abs(total - round(total))
    if residual > 1e-3:
        raise InconsistencyError(f"winding sum {total} is not close to an integer")
    return int(round(total)), residual


def _newton_preimages(map_many, y, starts):
    """All converged solutions of map(x) = y from the given starts.

    Only the rows still above tolerance are evaluated and stepped; a row keeps
    the point and residual of its last evaluation.
    """
    x = starts.copy()
    resid = np.empty(x.shape[0])
    idx = np.arange(x.shape[0])
    n_tan = starts.shape[1] - 1
    for it in range(_NEWTON_MAX_ITER + 1):
        p = normalize_rows(x[idx])
        x[idx] = p
        values = map_many(p)
        resid[idx] = np.linalg.norm(values - y, axis=1)
        active = resid[idx] > _NEWTON_TOL
        if it == _NEWTON_MAX_ITER or not np.any(active):
            break
        idx, p, values = idx[active], p[active], values[active]
        # One-sided differences along the tangent frame only: that removes the
        # radial null direction of map-after-normalize, so the system below is
        # square in the tangent coordinates and well conditioned at regular points.
        frames = sphere_tangent_basis_many(p)
        jac = (tangent_probes(map_many, p, _FD_STEP * frames) - values[..., None]) / _FD_STEP
        gram = np.swapaxes(jac, 1, 2) @ jac
        gram += 1e-14 * np.eye(n_tan)
        rhs = np.einsum("naj,na->nj", jac, y - values)
        delta = np.linalg.solve(gram, rhs[..., None])[..., 0]
        step = np.einsum("nj,nja->na", delta, frames)
        norms = np.linalg.norm(step, axis=1)
        too_big = norms > 0.5
        step[too_big] *= (0.5 / norms[too_big])[:, None]
        x[idx] = normalize_rows(p + step)
    conv = resid <= _NEWTON_TOL * 10.0
    max_resid = float(np.max(resid[conv])) if np.any(conv) else float(np.min(resid))
    return x[conv], max_resid


def _dedup_points(points: np.ndarray, radius: float):
    """Cluster points in lexicographic order: each joins the first representative
    within ``radius`` or becomes a new one.  Returns representatives and counts."""
    if points.shape[0] == 0:
        return points, []
    order = np.lexsort(np.round(points, 9).T[::-1])
    pts = points[order]
    free = np.ones(pts.shape[0], dtype=bool)
    reps, counts = [], []
    while np.any(free):
        rep = pts[np.argmax(free)]
        near = free & (np.linalg.norm(pts - rep, axis=1) <= radius)
        reps.append(rep)
        counts.append(int(np.count_nonzero(near)))
        free &= ~near
    return np.array(reps), counts


def _preimage_signs(map_many, preimages, y):
    """Orientation signs of the map at each preimage; reject near-singular values.

    Central differences with step ``_FD_STEP`` along every preimage's oriented
    frame; a Jacobian determinant below ``_MIN_JACOBIAN`` rejects y.
    """
    if preimages.shape[0] == 0:
        return [], []
    frame_y = oriented_sphere_frame_many(y)
    step = _FD_STEP * oriented_sphere_frame_many(preimages)  # (P, n, n+1)
    diff = tangent_probes(map_many, preimages, step) - tangent_probes(map_many, preimages, -step)
    dets = np.linalg.det(frame_y @ (diff / (2.0 * _FD_STEP)))
    bad = np.flatnonzero(np.abs(dets) < _MIN_JACOBIAN)
    if bad.size:
        raise _RegularValueReject(f"near-singular preimage (|det| = {abs(dets[bad[0]]):.3e})")
    return [1 if d > 0 else -1 for d in dets], [float(d) for d in dets]


def _preimage_count_once(map_many, n, gen, starts, opts) -> DegreeReport:
    redraws = 0
    while True:
        y = normalize_rows(gen.standard_normal(n + 1))
        try:
            converged, max_resid = _newton_preimages(map_many, y, starts)
            preimages, counts = _dedup_points(converged, _DEDUP_RADIUS)
            signs, dets = _preimage_signs(map_many, preimages, y)
            return DegreeReport(
                value=int(sum(signs)),
                method="preimage_count",
                n=n,
                seed=opts.seed,
                regular_value=[float(v) for v in y],
                preimages=[[float(c) for c in p] for p in preimages],
                signs=signs,
                basin_counts=counts,
                newton_max_residual=max_resid,
                n_starts=len(starts),
                redraws=redraws,
            )
        except _RegularValueReject:
            redraws += 1
            if redraws > _MAX_REDRAWS:
                message = f"no regular value found after {_MAX_REDRAWS} redraws"
                raise DegeneracyError(message) from None


def preimage_count_degree(map_many: Callable, n: int, opts: DegreeOptions) -> DegreeReport:
    """Signed preimage count of a regular value, cross-checked at a second value."""
    starts = sphere_quasi_uniform(opts.n_starts or 200 * n, n)
    gen = rng(opts.seed)
    first = _preimage_count_once(map_many, n, gen, starts, opts)
    second = _preimage_count_once(map_many, n, gen, starts, opts)
    if first.value != second.value:
        raise InconsistencyError(
            f"preimage counts disagree across regular values: {first.value} vs {second.value}"
        )
    return replace(
        first, cross_check_value=second.value, redraws=first.redraws + second.redraws
    )


def sphere_degree(map_many: Callable, n: int, opts: Optional[DegreeOptions] = None) -> DegreeReport:
    """Topological degree of a smooth self-map of the n-sphere.

    ``map_many`` maps batched ambient rows (N, n+1) of sphere points to
    sphere points.  n = 1 integrates the winding number over a fine grid
    and cross-checks it against preimage counting, whose report it returns
    relabelled "winding" with the winding residual; n >= 2 counts signed
    preimages of a regular value, with rejection of near-singular values
    and a second independent regular value as a consistency check.
    """
    opts = opts or DegreeOptions()
    if n < 1:
        raise ValueError("sphere dimension must be >= 1")
    if n > opts.max_dim:
        raise ValueError(
            f"sphere dimension {n} exceeds the configured cap {opts.max_dim}"
        )
    if n > 1:
        return preimage_count_degree(map_many, n, opts)
    value, residual = winding_number(map_many)
    counted = preimage_count_degree(map_many, n, opts)
    if counted.value != value:
        raise InconsistencyError(
            f"winding ({value}) and preimage count ({counted.value}) disagree"
        )
    return replace(counted, method="winding", winding_residual=residual)


# ---------------------------------------------------------------------------
# The column formula for unitary-valued maps
# ---------------------------------------------------------------------------


def first_column_sphere_map(h: MatrixSphereMap) -> Callable:
    """Normalized first column of a k-by-k map as a self-map of S^(2k-1)."""

    def many(x_real: np.ndarray) -> np.ndarray:
        col = h.eval_columns(deinterleave(x_real), [0])[:, :, 0]
        return interleave(normalize_rows(col))

    return many


def _conj_dot(a: np.ndarray, x: np.ndarray) -> np.ndarray:
    """sum_i conj(a[i]) * x[i] over the leading axis, broadcasting the rest.

    The rows are added one by one, in order and in place, so a point's
    result does not depend on how many points share the call (np.sum may
    pair up a lone column).
    """
    ca = np.conj(a)
    acc = ca[0] * x[0]
    term = np.empty_like(acc)
    for i in range(1, len(x)):
        acc += np.multiply(ca[i], x[i], out=term)
    return acc


def _compress_step(x: np.ndarray, c: np.ndarray, b: np.ndarray) -> None:
    """One compression step, applied in place to the columns x, (q, m, N).

    The step is the product of two rotations, each the identity plus a
    rank-two update: a per-point one taking the unit column c, (q, N), to the
    constant unit b, (q,), and a constant one taking b to e_q.  A rotation
    taking a to a' = mu a + s n (mu = <a, a'>, n a unit vector orthogonal to
    a) acts as [[mu, -s], [s, conj(mu)]] on span{a, n} and as the identity
    on its complement.  In the vectors a and a' it sends x to x + a P + a' W,
    with tau = (<a', x> - conj(mu) <a, x>) / s^2, P = (mu - 1) tau - <a, x>
    and W = <a, x> + (conj(mu) - 1) tau.  The second rotation sees
    <b, R1 x> = <c, x>, so the product is x + c P + b B + e_q E, with
    coefficients from the projections <c, x> and <b, x> and the last row of
    R1 x.  Where b is on the complex line of e_q only the phase of the second
    rotation is applied.  Where c comes within s < 1e-8 of the complex line
    of b the rotation field degenerates, and ValueError is raised.
    """
    q = x.shape[0]
    mu = _conj_dot(c, b[:, None])
    v = b[:, None] - mu * c
    ss = _conj_dot(v, v).real
    if np.sqrt(np.min(ss)) < 1e-8:
        raise ValueError("rotation field degenerates: a column hits the complex line of b")
    pair = np.stack([c, np.broadcast_to(b[:, None], c.shape)], axis=1)
    cx, bx = _conj_dot(pair[:, :, None, :], x[:, None])
    tau = (bx - np.conj(mu) * cx) / ss
    p_coef = (mu - 1.0) * tau - cx
    w = cx + (np.conj(mu) - 1.0) * tau
    # The constant rotation b -> e_q: mu' = conj(b_q), s'^2 = |e_q - mu' b|^2.
    bq = b[q - 1]
    v_e = -np.conj(bq) * b
    v_e[q - 1] += 1.0
    ss_e = float(np.vdot(v_e, v_e).real)
    if ss_e < 1e-24:
        b_coef, e_coef = w + (np.conj(bq) - 1.0) * cx, 0.0
    else:
        rho = (x[q - 1] + c[q - 1] * p_coef + bq * (w - cx)) / ss_e
        b_coef = (np.conj(mu) - 1.0) * tau + (np.conj(bq) - 1.0) * rho
        e_coef = cx + (bq - 1.0) * rho
    x += c[:, None, :] * p_coef
    x += b[:, None, None] * b_coef
    x[q - 1] += e_coef


def _compress_chain(mats: np.ndarray, missed: list, cols) -> np.ndarray:
    """Columns ``cols`` of stacked (N, p, p) values after the compression steps.

    Step t acts on the leading q = p - t rows with one fused update
    (:func:`_compress_step`): the per-point rotation taking the last column
    (index q - 1) to -missed[t], then the constant rotation taking -missed[t]
    to e_q.  Only the wanted columns and the last columns of later steps are
    carried.  Returns (N, q, len(cols)) with q the size the last step acted
    on (p without steps), so that step's block form can be checked.
    """
    p = mats.shape[1]
    keep = sorted(set(cols) | {p - 1 - t for t in range(len(missed))})
    x = np.ascontiguousarray(np.transpose(mats[:, :, keep], (1, 2, 0)))
    for t, point in enumerate(missed):
        q = p - t
        x = x[:q, : sum(j < q for j in keep)]
        _compress_step(x, x[:, -1].copy(), -np.asarray(point, dtype=complex))
    return np.transpose(x[:, [keep.index(j) for j in cols]], (2, 0, 1))


class _CompressedMap(MatrixSphereMap):
    """``base`` with one column killed per missed point, evaluated column-wise.

    Every evaluation calls ``base.eval_many`` once and carries only the
    columns asked for through the rotation chain.
    """

    def __init__(self, base: MatrixSphereMap, missed: list):
        self.base, self.missed = base, list(missed)
        super().__init__(
            k=base.k,
            p=base.p - len(missed),
            eval_many=lambda z: self.eval_columns(z, range(self.p)),
            name=base.name + "~" * len(missed),
        )

    def eval_columns(self, z: np.ndarray, cols) -> np.ndarray:
        return _compress_chain(self.base.eval_many(z), self.missed, cols)[:, : self.p]


def _find_missed_point(f: MatrixSphereMap, z: np.ndarray) -> np.ndarray:
    """A unit vector of C^p whose complex line the last-column map never meets.

    The column map S^(2k-1) -> S^(2p-1) has image of dimension at most 2k-1
    < 2p-1, so quasi-uniform candidates scored by their worst overlap with
    the columns at the sphere samples z find a point with positive margin.
    """
    cols = f.eval_columns(z, [f.p - 1])[:, :, 0]
    cands = sphere_quasi_uniform_complex(_MISSED_CANDIDATES, f.p)
    cands = cands[np.abs(cands[:, f.p - 1]) < 0.9]
    overlap = np.max(np.abs(cols @ np.conj(cands).T), axis=0)
    best = int(np.argmin(overlap))
    if 1.0 - overlap[best] < _MISSED_MARGIN:
        raise ValueError(
            f"no candidate missed point with margin >= {_MISSED_MARGIN} "
            f"(best {1.0 - overlap[best]:.4f})"
        )
    return cands[best]


def compress_to_k_block(
    f: MatrixSphereMap, missed_points: Optional[list] = None
) -> MatrixSphereMap:
    """Homotope a unitary-valued map down to k-by-k size, one column at a time.

    Step t rotates the last column of the size-(p - t) map to e_q, through
    the constant -missed[t], and drops it (see :func:`_compress_step`).  The rotation
    field is the endpoint of a contraction of the column through the missed
    point, so it is null-homotopic and the homotopy class is kept.  The result
    evaluates the input map once per call and carries only the columns it is
    asked for through the chain (column 0 alone for the degree formula).

    ``missed_points`` lets callers pin the per-step missed points (mainly for
    tests); by default they are found by quasi-uniform search, which is
    deterministic and takes no seed.  The block structure of each step is
    verified on samples through the same chain, with all columns.
    """
    if f.max_unitarity_defect() > 1e-9:
        raise ValueError("compression requires unitary values on the sphere")
    # The quasi-uniform sets are nested, so the block check's 64 samples are
    # the first rows of the missed-point search's set.
    z = sphere_quasi_uniform_complex(_MISSED_SAMPLES, f.k)
    mats = f.eval_many(z[:64])
    missed = []
    while f.p - len(missed) > f.k:
        step = len(missed)
        if missed_points is not None:
            point = np.asarray(missed_points[step], dtype=complex)
        else:
            cur = _CompressedMap(f, missed)
            point = _find_missed_point(cur, z)
        missed.append(point)
        # The construction promises block-diagonal form; check it held.
        q = f.p - step
        full = _compress_chain(mats, missed, range(q))
        defect = max(
            float(np.max(np.abs(full[:, :, q - 1] - np.eye(q)[q - 1]))),
            float(np.max(np.abs(full[:, q - 1, : q - 1]))),
        )
        if defect > 1e-9:
            raise ValueError(f"column compression failed to block-diagonalize ({defect:.3e})")
    return _CompressedMap(f, missed) if missed else f


@lru_cache(maxsize=None)
def calibration_sign() -> int:
    """Global orientation calibration for the column degree formula.

    The sign convention linking the column degree to the matrix-map degree
    depends on an orientation choice; it is fixed once by requiring the
    k = 2 map of the recursive unitary family to have degree +1, which pins
    every other value.  The oracle runs under the outward-normal-first
    convention with interleaved realification.
    """
    psi = first_column_sphere_map(a_k(2))
    opts = DegreeOptions(seed=20_230_117, n_starts=600)
    d = preimage_count_degree(psi, 3, opts).value
    if abs(d) != 1:
        raise InconsistencyError(f"calibration map must have column degree +-1, got {d}")
    return -d


def unitary_degree(f: MatrixSphereMap, opts: Optional[DegreeOptions] = None) -> DegreeReport:
    """Degree of a map S^(2k-1) -> GL_p(C) via the normalized-first-column formula.

    The map is first reduced to a k-by-k representative when p > k (this
    requires unitary values; see :func:`compress_to_k_block`).  The degree of
    the normalized first column psi must be divisible by (k-1)!; the result
    is the calibrated quotient.  A divisibility failure signals either an
    orientation bug or a map outside the method's hypotheses and raises
    InconsistencyError.
    """
    opts = opts or DegreeOptions()
    k = f.k
    if f.p < k:
        raise ValueError(f"matrix size {f.p} is smaller than the block size {k}")
    reduced = f if f.p == k else compress_to_k_block(f)
    psi = first_column_sphere_map(reduced)
    inner = sphere_degree(psi, 2 * k - 1, opts)
    divisor = math.factorial(k - 1)
    if inner.value % divisor != 0:
        raise InconsistencyError(
            f"column degree {inner.value} is not divisible by (k-1)! = {divisor}"
        )
    kappa = calibration_sign()
    value = (kappa ** (k - 1)) * ((-1) ** (k - 1)) * (inner.value // divisor)
    return replace(
        inner,
        value=int(value),
        method="unitary_formula",
        psi_degree=inner.value,
        divisor=divisor,
        calibration_sign=kappa,
    )


# ---------------------------------------------------------------------------
# Auxiliary sphere self-maps used by tests and the CLI
# ---------------------------------------------------------------------------


def fermat_power_self_map(n: int, k: int) -> Callable:
    """The odd-power map pulled back to a self-map of the round n-sphere.

    Rescale radially onto the degree-2k Fermat sphere, then apply the
    coordinatewise k-th power; a homeomorphism for odd k, of degree 1 in the
    standard orientation.
    """
    if k < 1 or k % 2 == 0:
        raise ValueError(f"odd positive exponent required, got {k}")

    def many(x: np.ndarray) -> np.ndarray:
        return radial_to_fermat(np.asarray(x, dtype=float), 2 * k) ** k

    return many


def identity_map(x: np.ndarray) -> np.ndarray:
    return np.asarray(x, dtype=float).copy()


def antipodal_map(x: np.ndarray) -> np.ndarray:
    return -np.asarray(x, dtype=float)


def circle_power_map(d: int) -> Callable:
    """theta -> d * theta on the unit circle, as a batched ambient map."""

    def many(x: np.ndarray) -> np.ndarray:
        theta = np.arctan2(x[:, 1], x[:, 0])
        return np.column_stack([np.cos(d * theta), np.sin(d * theta)])

    return many
