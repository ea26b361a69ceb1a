"""Degree calculus for sphere-to-matrix-group maps and numerical degree oracles.

The matrix side: homogeneous extensions, the block ``#`` product, and the
recursive family of unitary-valued maps a_k on S^(2k-1) with values in
SU(2^(k-1)).  The oracle side: winding numbers on S1, signed preimage
counting on higher spheres, and Bott's integral of tr((f^-1 df)^(2k-1)) for
maps into GL_p(C), all under the outward-normal-first orientation
convention with interleaved realification (re, im, re, im, ...).  In that
convention a unitary-valued map f on S^(2k-1) has deg f = deg psi / (k-1)!,
with psi the normalized first column of a k-by-k representative of f.  A
count with an independent oracle searches one regular value: psi's against
Bott's integral of f itself, which needs neither compression nor Newton, and
a circle self-map's against its winding number.  Self-maps of higher spheres
are counted at two regular values.

Maps presented with larger matrix size are compressed to one, one size step
at a time, which preserves the homotopy class because each rotation field is
built from a contraction of a non-surjective column map.  A step rotates the
last column, per point, to a constant unit vector b and then rotates b, by
one constant rotation, to the last basis vector e_q.  Both rotations are the
identity plus a rank-two update, so their product moves every column by
multiples of the last column, b and e_q alone: one step costs two
projections and two rank-one updates, applied in place.  The chain carries
only the columns a caller asks for and the last columns later steps rotate;
a step updates those that outlive it, and its own last one only if asked.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
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
_CHECK_SAMPLES = 256  # sphere samples of min_abs_det and of compression's unitarity check
_WINDING_GRID = 1 << 16
_NEWTON_TOL = 1e-11
_NEWTON_MAX_ITER = 25
_FD_STEP = 1e-6
_MIN_JACOBIAN = 1e-8  # smallest |det| at a preimage of a regular value
_MAX_REDRAWS = 5  # regular values redrawn before DegeneracyError
_DEDUP_RADIUS = 1e-6
_MIN_SEPARATION = 1e-4  # closest two distinct preimages of a regular value
_MISSED_SAMPLES = 4096  # the missed-point search of compress_to_k_block
_MISSED_CANDIDATES = 128
_MISSED_MARGIN = 0.02
_CALIBRATION_SIGN = -1
_BOTT_START = 64  # quasi-uniform points per rotated copy at the first level
_BOTT_CAP = 4096  # points per copy at the last level: each level doubles them
_BOTT_COPIES = 4
_BOTT_ROTATION_SEED = 1978  # the copies' fixed rotations; no regular value draws from it
_BOTT_STEP = 1e-5
_BOTT_TOL = 0.1  # largest copy spread and largest |mean - round(mean)| that certify
_BOTT_MIN_SINGULAR = 1e-10  # smallest sigma_min / sigma_max of a value of the map
_BOTT_CHUNK_ENTRIES = 1 << 17  # complex matrix entries of a chunk's widest stack


class DegeneracyError(RuntimeError):
    """No usable regular value after the allowed number of redraws, a matrix
    map with a (numerically) singular value, or a map with a non-finite value."""


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


def homogeneous_extension(f: MatrixSphereMap) -> Callable:
    """Positively 1-homogeneous extension: x -> |x| f(x/|x|), zero at the origin."""

    def extended(x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=complex)
        norms = np.linalg.norm(x, axis=1)
        mask = norms > 0
        if np.all(mask):
            return norms[:, None, None] * f.eval_many(x / norms[:, None])
        out = np.zeros((x.shape[0], f.p, f.p), dtype=complex)
        if np.any(mask):
            out[mask] = norms[mask, None, None] * f.eval_many(x[mask] / norms[mask, None])
        return out

    return extended


def sharp_product(f: MatrixSphereMap, g: MatrixSphereMap) -> MatrixSphereMap:
    """Block product of sphere-to-matrix maps with multiplicative degree.

    On the unit sphere of C^(k+l), with F and G the homogeneous extensions,

        (x, y) -> [[F(x) (x) I_q,  -I_p (x) G(y)*],
                   [I_p (x) G(y),   F(x)* (x) I_q]]

    giving a map of size 2pq.  Unitary-valued factors give a unitary-valued
    product.  The blocks are written into one array, one strided diagonal at a time.
    """
    big_f = homogeneous_extension(f)
    big_g = homogeneous_extension(g)
    k, p, q = f.k, f.p, g.p

    def eval_many(z: np.ndarray) -> np.ndarray:
        z = np.asarray(z, dtype=complex)
        fx = big_f(z[:, :k])
        gy = big_g(z[:, k:])
        fx_star, gy_star = np.conj(np.swapaxes(fx, 1, 2)), np.conj(np.swapaxes(gy, 1, 2))
        n, pq = z.shape[0], p * q
        out = np.zeros((n, 2 * pq, 2 * pq), dtype=complex)
        blocks = out.reshape(n, 2, p, q, 2, p, q)  # (half, i, a) is row half * pq + i * q + a
        for a in range(q):
            blocks[:, 0, :, a, 0, :, a], blocks[:, 1, :, a, 1, :, a] = fx, fx_star
        for i in range(p):
            blocks[:, 1, i, :, 0, i, :], blocks[:, 0, i, :, 1, i, :] = gy, gy_star
        out += 0.0  # -0 to +0, as a product with I gives; so -I (x) G* holds -0 off its diagonal
        np.negative(out[:, :pq, pq:], out=out[:, :pq, pq:])
        return out

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

    Samples have norms in [0.1, 1.5].  The determinant formula
    det = |z|^(2^(k-1)) is compared relatively, as |det / |z|^(2^(k-1)) - 1|,
    since its absolute error grows with the magnitude |z|^(2^(k-1)).  The
    size-1 identity refers to the determinant of the realified matrix, which
    equals the squared modulus of the complex determinant, so k = 1 reports
    ||det|^2 / |z|^2 - 1|; blocks of size >= 2 use the complex determinant
    directly.  k outside [1, ``_AK_CAP``] raises a_k's ValueError before any draw.
    """
    ak = a_k(k).eval_many
    gen = rng(seed)

    def draw():
        raw = gen.standard_normal((n_samples, k)) + 1j * gen.standard_normal((n_samples, k))
        return normalize_rows(raw) * gen.uniform(0.1, 1.5, n_samples)[:, None]

    u, v = draw(), draw()
    alpha = gen.uniform(-2.0, 2.0, n_samples)
    beta = gen.uniform(-2.0, 2.0, n_samples)

    mixed = ak(alpha[:, None] * u + beta[:, None] * v)
    mats = ak(u)
    split = alpha[:, None, None] * mats + beta[:, None, None] * ak(v)
    linearity_max = float(np.max(np.abs(mixed - split)))

    nrm2 = np.sum(np.abs(u) ** 2, axis=1)
    gram = mats @ np.conj(np.swapaxes(mats, 1, 2)) - nrm2[:, None, None] * np.eye(2 ** (k - 1))
    gram_identity_max = float(np.max(np.abs(gram)))

    dets = np.linalg.det(mats)
    if k == 1:
        det_identity_max = float(np.max(np.abs(np.abs(dets) ** 2 / nrm2 - 1.0)))
    else:
        det_identity_max = float(np.max(np.abs(dets / nrm2 ** (2 ** (k - 2)) - 1.0)))

    sphere = sphere_quasi_uniform_complex(n_samples, k)
    sphere_mats = ak(sphere)
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

    def __post_init__(self):
        if self.n_starts is not None and self.n_starts < 1:
            raise ValueError(f"n_starts must be >= 1, got {self.n_starts}")


@dataclass
class DegreeReport:
    value: int
    method: str
    n: int
    seed: int
    regular_value: Optional[list] = None
    preimages: Optional[list] = None
    signs: Optional[list] = None
    basin_counts: Optional[list] = None  # starts converged or retired onto each preimage
    cross_check_value: Optional[int] = None
    winding_residual: Optional[float] = None
    newton_max_residual: Optional[float] = None
    n_starts: Optional[int] = None
    redraws: int = 0


@dataclass
class UnitaryDegreeReport(DegreeReport):
    """A unitary degree: psi's preimage count, the divisor (k-1)!, and, for
    k >= 2, the Bott integral that cross-checked the count."""

    psi_degree: Optional[int] = None
    divisor: Optional[int] = None
    calibration_sign: Optional[int] = None
    integral_mean: Optional[float] = None
    integral_spread: Optional[float] = None
    integral_points: Optional[int] = None


def _check_dimension(n: int, opts: DegreeOptions) -> None:
    if n < 1:
        raise ValueError("sphere dimension must be >= 1")
    if n > opts.max_dim:
        raise ValueError(
            f"sphere dimension {n} exceeds the configured cap {opts.max_dim}"
        )


def _finite(map_many: Callable, refusal: str = "the map has a non-finite value") -> Callable:
    """``map_many``, raising DegeneracyError(refusal) at its first non-finite value."""

    def guarded(x: np.ndarray) -> np.ndarray:
        values = map_many(x)
        if not np.all(np.isfinite(values)):
            raise DegeneracyError(refusal)
        return values

    return guarded


def winding_number(map_many: Callable) -> tuple:
    """Winding number of a circle self-map from summed angular increments; finite values only."""
    theta = np.linspace(0.0, 2.0 * np.pi, _WINDING_GRID, endpoint=False)
    pts = np.column_stack([np.cos(theta), np.sin(theta)])
    img = _finite(map_many)(pts)
    ang = np.arctan2(img[:, 1], img[:, 0])
    inc = np.diff(np.append(ang, ang[0]))
    inc = (inc + np.pi) % (2.0 * np.pi) - np.pi
    total = float(np.sum(inc)) / (2.0 * np.pi)
    residual = abs(total - round(total))
    if residual > 1e-3:
        raise InconsistencyError(f"winding sum {total} is not close to an integer")
    return int(round(total)), residual


def _newton_preimages(map_many, y, starts):
    """Newton on map(x) = y, one row per start: final points, residuals and owners.

    Only the rows still above tolerance are evaluated and stepped; a row keeps
    the point and residual of its last evaluation.  The search clusters its
    endpoints once: ``owner[i]`` is the row that registered the preimage row i
    joined, or -1.  A converged row joins the preimage whose ``_DEDUP_RADIUS``
    ball it is in, or registers one with the rows of its pass within that
    radius; an active row entering a ball is retired there, taking its point
    and residual.  A wider ball (half ``_MIN_SEPARATION``, say) could absorb a
    row headed for a second preimage close by and hide the fold rejection.
    Rows stop after ``_NEWTON_MAX_ITER`` = 25 iterations, where a residual up
    to 10 times the tolerance counts as converged: on a_3, a_4, z^d # a_2 and
    q^11 every preimage was first reached by iteration 10, while rows past 25
    made 15-40% of a search's map rows.
    """
    x = starts.copy()
    resid = np.empty(x.shape[0])
    owner = np.full(x.shape[0], -1)
    idx = np.arange(x.shape[0])
    found = np.empty(0, dtype=np.intp)  # one row per distinct preimage converged to
    n_tan = starts.shape[1] - 1
    for it in range(_NEWTON_MAX_ITER + 1):
        p = normalize_rows(x[idx])
        x[idx] = p
        values = map_many(p)
        resid[idx] = np.linalg.norm(values - y, axis=1)
        active = resid[idx] > _NEWTON_TOL
        converged = resid[idx] <= (10.0 if it == _NEWTON_MAX_ITER else 1.0) * _NEWTON_TOL
        # Rows in the ball of a found preimage (|a - b|^2 = 2 - 2 a.b for unit rows).
        near, src = np.nonzero(p @ x[found].T >= 1.0 - 0.5 * _DEDUP_RADIUS**2)
        ball = np.zeros(idx.size, dtype=bool)
        ball[near] = True
        owner[idx[near]] = found[src]
        on = active[near]
        rows, src = idx[near[on]], found[src[on]]
        x[rows], resid[rows] = x[src], resid[src]
        new = idx[converged & ~ball]
        while new.size:  # register each newly converged preimage once
            found = np.append(found, new[0])
            joins = np.linalg.norm(x[new] - x[new[0]], axis=1) <= _DEDUP_RADIUS
            owner[new[joins]], new = new[0], new[~joins]
        active &= ~ball
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
    return x, resid, owner


def _preimage_signs(map_many, preimages, y):
    """Orientation signs of the map at each preimage; reject near-singular values.

    Central differences with step ``_FD_STEP`` along every preimage's oriented
    frame; a Jacobian determinant below ``_MIN_JACOBIAN`` rejects y.
    """
    if preimages.shape[0] == 0:
        return [], []
    frame_y = oriented_sphere_frame_many(y[None])[0]
    step = _FD_STEP * oriented_sphere_frame_many(preimages)  # (P, n, n+1)
    diff = tangent_probes(map_many, preimages, step) - tangent_probes(map_many, preimages, -step)
    dets = np.linalg.det(frame_y @ (diff / (2.0 * _FD_STEP)))
    bad = np.flatnonzero(np.abs(dets) < _MIN_JACOBIAN)
    if bad.size:
        raise _RegularValueReject(f"near-singular preimage (|det| = {abs(dets[bad[0]]):.3e})")
    return [1 if d > 0 else -1 for d in dets], [float(d) for d in dets]


def _closest_pair_distance(points: np.ndarray) -> float:
    """Smallest distance between two of the unit rows; inf for fewer than two."""
    if points.shape[0] < 2:
        return np.inf
    gram = points @ points.T
    np.fill_diagonal(gram, -1.0)
    return float(np.sqrt(max(2.0 - 2.0 * np.max(gram), 0.0)))


def _preimage_count_once(map_many, n, gen, starts, opts) -> DegreeReport:
    """Signed preimage count at one regular value, redrawing rejected values.

    A value is rejected when a preimage's Jacobian is near-singular or when
    two distinct preimages lie within ``_MIN_SEPARATION``: Newton smears the
    single preimage of a value near a fold into a cluster of "preimages"
    whose Jacobians are small but not small enough to be caught.
    """
    redraws = 0
    while True:
        y = normalize_rows(gen.standard_normal(n + 1))
        try:
            x, resid, owner = _newton_preimages(map_many, y, starts)
            joined = np.flatnonzero(owner >= 0)
            # Each preimage is reported at the lexicographically first row that joined it.
            ranked = joined[np.lexsort(np.round(x[joined], 9).T[::-1])]
            reps = ranked[np.sort(np.unique(owner[ranked], return_index=True)[1])]
            preimages, counts = x[reps], np.bincount(owner[joined])[owner[reps]]
            gap = _closest_pair_distance(preimages)
            if gap < _MIN_SEPARATION:
                raise _RegularValueReject(f"two preimages {gap:.3e} apart: y is near a fold")
            signs, dets = _preimage_signs(map_many, preimages, y)
            return DegreeReport(
                value=int(sum(signs)),
                method="preimage_count",
                n=n,
                seed=opts.seed,
                regular_value=[float(v) for v in y],
                preimages=[[float(c) for c in p] for p in preimages],
                signs=signs,
                basin_counts=counts.tolist(),
                newton_max_residual=float(np.max(resid[joined]) if joined.size else np.min(resid)),
                n_starts=len(starts),
                redraws=redraws,
            )
        except _RegularValueReject:
            redraws += 1
            if redraws > _MAX_REDRAWS:
                message = f"no regular value found after {_MAX_REDRAWS} redraws"
                raise DegeneracyError(message) from None


def preimage_count_degree(
    map_many: Callable, n: int, opts: DegreeOptions, cross_check: Optional[int] = None
) -> DegreeReport:
    """Signed preimage count of a regular value, cross-checked at a second value.

    A caller holding an independent value of the degree passes it as
    ``cross_check``, which takes the second regular value's place.  A
    non-finite map value, at a Newton row or a probe, raises DegeneracyError.
    """
    map_many = _finite(map_many)
    starts = sphere_quasi_uniform(200 * n if opts.n_starts is None else opts.n_starts, n)
    gen = rng(opts.seed)
    first = _preimage_count_once(map_many, n, gen, starts, opts)
    if cross_check is not None:
        if first.value != cross_check:
            raise InconsistencyError(
                f"preimage count {first.value} disagrees with the cross-check {cross_check}"
            )
        return replace(first, cross_check_value=cross_check)
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
    and counts signed preimages of one regular value against it, as the
    cross-check; the count's report is returned relabelled "winding" with
    the winding residual.  n >= 2 counts signed preimages of a regular
    value, with rejection of near-singular values and a second independent
    regular value as a consistency check.
    """
    opts = opts or DegreeOptions()
    _check_dimension(n, opts)
    if n > 1:
        return preimage_count_degree(map_many, n, opts)
    value, residual = winding_number(map_many)
    counted = preimage_count_degree(map_many, n, opts, cross_check=value)
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

    Row by row, in order and in place, so a point's result does not depend on
    how many points share the call (np.sum may pair up a lone column).
    """
    acc = np.conj(a[0]) * x[0]
    term = np.empty_like(acc)
    for i in range(1, len(a)):
        acc += np.multiply(np.conj(a[i]), x[i], out=term)
    return acc


def _compress_step(x: np.ndarray, c: np.ndarray, b: np.ndarray, m: int) -> None:
    """One compression step on the carried columns x, (q, m', N), applied to the first m.

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
    R1 x.  The missed-point search keeps |b_q| < 0.9, so the second rotation
    has s'^2 = 1 - |b_q|^2 >= 0.19.  Where c comes within s < 1e-8 of the
    complex line of b the rotation field degenerates, and ValueError is raised.

    The per-point factors mu and c's last row are kept (1, N): with one column
    at N = 1 a (1,) factor would meet (1, 1) coefficients, a product numpy
    rounds without the fused multiply-add of its batched loops, and a lone
    point would no longer match its row of a batch.
    """
    q = x.shape[0]
    mu = _conj_dot(c[:, None], b[:, None, None])
    v = b[:, None] - mu * c
    ss = _conj_dot(v, v).real
    if np.sqrt(ss.min()) < 1e-8:
        raise ValueError("rotation field degenerates: a column hits the complex line of b")
    cx, bx = _conj_dot(c[:, None], x[:, :m]), _conj_dot(b, x[:, :m])
    tau = (bx - np.conj(mu) * cx) / ss
    p_coef = (mu - 1.0) * tau - cx
    mu_tau = (np.conj(mu) - 1.0) * tau
    w = cx + mu_tau
    # The constant rotation b -> e_q: mu' = conj(b_q), s'^2 = |e_q - mu' b|^2.
    bq = b[q - 1]
    v_e = -np.conj(bq) * b
    v_e[q - 1] += 1.0
    rho = (x[q - 1, :m] + c[q - 1 :] * p_coef + bq * (w - cx)) / float(np.vdot(v_e, v_e).real)
    b_coef = mu_tau + (np.conj(bq) - 1.0) * rho
    e_coef = cx + (bq - 1.0) * rho
    update = np.multiply(c[:, None, :], p_coef)
    x[:, :m] += update
    x[:, :m] += np.multiply(b[:, None, None], b_coef, out=update)
    x[q - 1, :m] += e_coef


def _compress_chain(mats: np.ndarray, missed: list, cols) -> np.ndarray:
    """Columns ``cols`` of stacked (N, p, p) values after the compression steps.

    Step t acts on the leading q = p - t rows with one fused update
    (:func:`_compress_step`): the per-point rotation taking the last column
    (index q - 1) to -missed[t], then the constant rotation taking -missed[t]
    to e_q.  Only the wanted columns and the last columns of later steps are
    carried, as (rows, columns, N); a step's last column becomes e_q, which
    the next step slices away, so it is updated only if the last step's is
    in ``cols``.  Returns (N, q, len(cols)) with q the size the last step
    acted on (p without steps), so that step's block form can be checked.
    """
    n, p = mats.shape[:2]
    keep = sorted(set(cols) | {p - 1 - t for t in range(len(missed))})
    x = np.empty((p, len(keep), n), dtype=complex)
    for i, j in enumerate(keep):
        x[:, i] = mats[:, :, j].T
    for t, point in enumerate(missed):
        q = p - t
        x = x[:q, : sum(j < q for j in keep)]
        updated = x.shape[1] if t == len(missed) - 1 and q - 1 in cols else x.shape[1] - 1
        _compress_step(x, x[:, -1].copy(), -np.asarray(point, dtype=complex), updated)
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


def _find_missed_point(cols: np.ndarray) -> np.ndarray:
    """A unit vector of C^q whose complex line the sampled last columns (N, q) never meet.

    The column map S^(2k-1) -> S^(2q-1) has image of dimension at most 2k-1
    < 2q-1, so quasi-uniform candidates scored by their worst overlap with
    the sampled columns find a point with positive margin.
    """
    q = cols.shape[1]
    cands = sphere_quasi_uniform_complex(_MISSED_CANDIDATES, q)
    cands = cands[np.abs(cands[:, q - 1]) < 0.9]
    conj = np.conj(cands).T  # row chunks keep the overlap's temporaries small
    overlap = np.max([np.max(np.abs(r @ conj), axis=0) for r in np.array_split(cols, 8)], axis=0)
    best = int(np.argmin(overlap))
    if 1.0 - overlap[best] < _MISSED_MARGIN:
        raise ValueError(
            f"no candidate missed point with margin >= {_MISSED_MARGIN} "
            f"(best {1.0 - overlap[best]:.4f})"
        )
    return cands[best]


def compress_to_k_block(f: MatrixSphereMap) -> MatrixSphereMap:
    """Homotope a unitary-valued map down to k-by-k size, one column at a time.

    Step t rotates the last column of the size-(p - t) map to e_q, through
    the constant -missed[t], and drops it (see :func:`_compress_step`).  The rotation
    field is the endpoint of a contraction of the column through the missed
    point, so it is null-homotopic and the homotopy class is kept.  The result
    evaluates the input map once per call and carries only the columns it is
    asked for through the chain (column 0 alone for the degree formula).

    The missed points come from a quasi-uniform search, which is deterministic
    and takes no seed.  f is evaluated once, at the search's samples: the
    unitarity check reads the first ``_CHECK_SAMPLES`` of them, and the search
    carries columns k..p-1 of every sample, applying each step to them once.
    The block structure of each step is verified on the first 64 samples
    through the chain, with all columns.  ValueError is raised when a sampled
    value is not unitary or not finite.
    """
    mats = f.eval_many(sphere_quasi_uniform_complex(_MISSED_SAMPLES, f.k))
    unitary = VarietySpec.group("U", f.p)
    points = matrix_to_point(mats[:_CHECK_SAMPLES], unitary)
    if not np.max(membership_residual_many(points, unitary)) <= 1e-9:
        raise ValueError("compression requires unitary values on the sphere")
    last = np.ascontiguousarray(np.transpose(mats[:, :, f.k :], (1, 2, 0)))  # (rows, cols, N)
    missed = []
    for q in range(f.p, f.k, -1):
        missed.append(_find_missed_point(last[:q, q - 1 - f.k].T))
        _compress_step(last[:q], last[:q, q - 1 - f.k].copy(), -missed[-1], q - 1 - f.k)
        # The construction promises block-diagonal form; check it held.
        full = _compress_chain(mats[:64], missed, range(q))
        defect = max(
            float(np.max(np.abs(full[:, :, q - 1] - np.eye(q)[q - 1]))),
            float(np.max(np.abs(full[:, q - 1, : q - 1]))),
        )
        if defect > 1e-9:
            raise ValueError(f"column compression failed to block-diagonalize ({defect:.3e})")
    return _CompressedMap(f, missed) if missed else f


# ---------------------------------------------------------------------------
# Bott's integral
# ---------------------------------------------------------------------------


@dataclass
class BottIntegral:
    value: int  # round(mean)
    mean: float  # the average of the copies' means, in units of degree
    spread: float  # the largest copy mean minus the smallest
    points: int  # quasi-uniform points per copy at the level that certified


def _alternating_trace(a: np.ndarray) -> np.ndarray:
    """sum over permutations s of sign(s) tr(a_s(1) ... a_s(m)), per row of a (N, m, p, p).

    For odd m, a cyclic shift of the word is an even permutation with the
    same trace, so the sum is m tr(a_1 Alt(a_2, ..., a_m)), with Alt the
    signed sum over orderings.  Alt is built level by level over subsets S of
    {2, ..., m}: putting j in front of an ordering of S passes the members of
    S below j, so Alt(S + {j}) collects (-1)^(#S below j) a_j Alt(S).
    """
    n_pts, m, p = a.shape[:3]
    level = {0: np.broadcast_to(np.eye(p, dtype=complex), (n_pts, p, p))}
    for _ in range(m - 1):
        grown = {}
        for mask, alt in level.items():
            for j in range(m - 1):
                if mask >> j & 1:
                    continue
                term = a[:, j + 1] @ alt
                if bin(mask & ((1 << j) - 1)).count("1") % 2:
                    np.negative(term, out=term)
                key = mask | 1 << j
                if key in grown:
                    grown[key] += term
                else:
                    grown[key] = term
        level = grown
    return m * np.einsum("nab,nba->n", a[:, 0], level[(1 << (m - 1)) - 1])


def _bott_integrand(f: MatrixSphereMap, x: np.ndarray) -> np.ndarray:
    """Bott's integrand at real sphere rows x, scaled so that its mean is the degree.

    A_i = f(x)^-1 (f(x + h t_i) - f(x - h t_i)) / 2h along the oriented frame
    t_1..t_m (m = 2k - 1).  A solve, not a conjugate transpose, gives f^-1,
    so GL values work too.
    """
    n_pts, m = x.shape[0], x.shape[1] - 1
    k, p = f.k, f.p

    def values(rows):
        return f.eval_many(deinterleave(rows))

    base = values(x)
    sv = np.linalg.svd(base, compute_uv=False)
    if np.any(sv[:, -1] <= _BOTT_MIN_SINGULAR * sv[:, 0]):
        raise DegeneracyError(f"{f.name} has a singular or non-finite value on the sphere")
    step = _BOTT_STEP * oriented_sphere_frame_many(x)
    # (N, p, m, p): the m differences side by side, so one solve per point.
    diff = tangent_probes(values, x, step) - tangent_probes(values, x, -step)
    rhs = diff.reshape(n_pts, p, m * p) / (2.0 * _BOTT_STEP)
    a = np.swapaxes(np.linalg.solve(base, rhs).reshape(n_pts, p, m, p), 1, 2)
    scale = (-1) ** (k + 1) / (math.factorial(m) * 2 ** (k - 1) * 1j**k)
    return (scale * _alternating_trace(a)).real


def bott_degree(f: MatrixSphereMap) -> BottIntegral:
    """Degree of f: S^(2k-1) -> GL_p(C) from Bott's integral of f itself.

        deg f = +-(k-1)! / ((2k-1)! (2 pi i)^k) int tr((f^-1 df)^(2k-1))

    (Bott and Seeley, Comm. Math. Phys. 62, 1978).  The sphere's volume
    2 pi^k / (k-1)! turns the integral into the mean over the sphere of
    sum_s sign(s) tr(A_s(1) ... A_s(2k-1)) / ((2k-1)! 2^(k-1) i^k), with
    A_i = f^-1 df(t_i) on the outward-normal-first frame.  In that
    orientation the sign is (-1)^(k+1): a_1 and a_2 have degree +1, as in
    the column formula.  k = 1 is the winding number.

    The mean is taken over ``_BOTT_COPIES`` copies of a quasi-uniform set,
    each turned by a fixed Haar rotation.  The set starts at ``_BOTT_START``
    points and doubles (the sets are nested, so a level only evaluates its
    new points) until the copies' means agree within ``_BOTT_TOL`` and their
    average is within ``_BOTT_TOL`` of an integer.  InconsistencyError is
    raised when ``_BOTT_CAP`` points per copy do not get there, and
    DegeneracyError when a value of f, at a point or a probe, is not finite
    or is numerically singular.  Points are evaluated in chunks, so memory
    does not grow with the level.
    """
    refusal = f"{f.name} has a singular or non-finite value on the sphere"
    f = MatrixSphereMap(k=f.k, p=f.p, eval_many=_finite(f.eval_many, refusal), name=f.name)
    n = 2 * f.k - 1
    gen = rng(_BOTT_ROTATION_SEED)
    transposed = []  # Haar rotations: Q of a Gaussian, with R's diagonal made positive
    for _ in range(_BOTT_COPIES):
        q, r = np.linalg.qr(gen.standard_normal((n + 1, n + 1)))
        transposed.append((q * np.sign(np.diag(r))).T)
    transposed = np.stack(transposed)
    # A chunk holds the 2n + 1 values per point and the widest level of Alt.
    width = max(2 * n + 1, math.comb(n - 1, (n - 1) // 2)) * f.p**2
    chunk = max(1, _BOTT_CHUNK_ENTRIES // width)
    sums, done, count = np.zeros(_BOTT_COPIES), 0, _BOTT_START
    while True:
        rows = (sphere_quasi_uniform(count, n)[done:] @ transposed).reshape(-1, n + 1)
        values = [_bott_integrand(f, rows[i : i + chunk]) for i in range(0, len(rows), chunk)]
        sums += np.concatenate(values).reshape(_BOTT_COPIES, -1).sum(axis=1)
        done = count
        means = sums / count
        mean, spread = float(np.mean(means)), float(np.ptp(means))
        if spread <= _BOTT_TOL and abs(mean - round(mean)) <= _BOTT_TOL:
            return BottIntegral(value=round(mean), mean=mean, spread=spread, points=count)
        if count >= _BOTT_CAP:
            raise InconsistencyError(
                f"Bott integral of {f.name} did not settle at {count} points per copy:"
                f" mean {mean:.4f}, spread {spread:.4f}"
            )
        count *= 2


def calibration_sign() -> int:
    """The constant -1 that every unitary report records as ``calibration_sign``.

    The column formula takes no sign: psi of a_2 is the identity of S^3, of
    degree +1 in this module's orientation (tests/test_degree.py pins both).
    """
    return _CALIBRATION_SIGN


def unitary_degree(
    f: MatrixSphereMap, opts: Optional[DegreeOptions] = None
) -> UnitaryDegreeReport:
    """Degree of a map S^(2k-1) -> GL_p(C) via the normalized-first-column formula.

    The map is first reduced to a k-by-k representative when p > k (this
    requires unitary values; see :func:`compress_to_k_block`).  The result
    is deg psi / (k-1)!, with psi the normalized first column.

    k = 1 takes psi's degree from :func:`sphere_degree`: one regular value's
    preimage count, checked by the winding number over a fine grid.  Bott's
    sampled mean is not used there: it can settle on a wrong integer with a
    small spread when the map turns steeply between its points.  For k >= 2
    psi's preimages are counted at one regular value, and the count must
    equal (k-1)! round(I), with I Bott's integral of the uncompressed map
    (:func:`bott_degree`); that product is the ``cross_check_value``, and
    the report carries the integral's mean, spread and points per copy.  A
    count that differs, divisible by (k-1)! or not, signals a missed basin,
    an orientation bug or a map outside the method's hypotheses, and raises
    InconsistencyError.
    """
    opts = opts or DegreeOptions()
    k = f.k
    if f.p < k:
        raise ValueError(f"matrix size {f.p} is smaller than the block size {k}")
    _check_dimension(2 * k - 1, opts)
    reduced = f if f.p == k else compress_to_k_block(f)
    psi = first_column_sphere_map(reduced)
    divisor = math.factorial(k - 1)
    integral = {}
    if k == 1:
        inner = sphere_degree(psi, 1, opts)
    else:
        bott = bott_degree(f)
        inner = preimage_count_degree(psi, 2 * k - 1, opts, cross_check=divisor * bott.value)
        integral = {"integral_mean": bott.mean, "integral_spread": bott.spread,
                    "integral_points": bott.points}
    return UnitaryDegreeReport(
        **{**vars(inner), "value": inner.value // divisor, "method": "unitary_formula"},
        psi_degree=inner.value,
        divisor=divisor,
        calibration_sign=_CALIBRATION_SIGN,
        **integral,
    )


# ---------------------------------------------------------------------------
# Auxiliary sphere self-maps used by tests and the CLI
# ---------------------------------------------------------------------------


def fermat_power_self_map(k: int) -> Callable:
    """The odd-power map pulled back to a self-map of the round sphere of any dimension.

    Rescale radially onto the degree-2k Fermat sphere, then apply the
    coordinatewise k-th power; a homeomorphism for odd k, of degree 1 in the
    standard orientation.
    """
    if k < 1 or k % 2 == 0:
        raise ValueError(f"odd positive exponent required, got {k}")

    def many(x: np.ndarray) -> np.ndarray:
        return radial_to_fermat(np.asarray(x, dtype=float), 2 * k) ** k

    return many


def quaternion_power_map(d: int) -> Callable:
    """q -> q^d on the unit quaternions, a self-map of S^3 of degree d.

    Rows are (a, b, c, e) for a + bi + cj + ek; negative d powers q^-1 = conj(q).
    The power is |d| Hamilton products (a, v)(a', v') = (aa' - v.v', av' + a'v + v x v').
    """

    def many(x: np.ndarray) -> np.ndarray:
        base = np.asarray(x, dtype=float) * (1.0 if d >= 0 else np.array([1.0, -1.0, -1.0, -1.0]))
        out = np.zeros_like(base)
        out[:, 0] = 1.0
        for _ in range(abs(d)):
            a, v = out[:, :1], out[:, 1:]
            real = a * base[:, :1] - np.sum(v * base[:, 1:], axis=1, keepdims=True)
            out = np.hstack([real, a * base[:, 1:] + base[:, :1] * v + np.cross(v, base[:, 1:])])
        return out

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
