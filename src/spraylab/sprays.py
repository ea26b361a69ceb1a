"""Explicit dominating sprays, numerical verification of the spray axioms,
and local inversion near the zero section.

Every spray here lives on a sphere or a classical group and is trivialized:
the total space is base x R^fiber_dim, the zero section is (y, 0), and
``eval_many(y, v)`` is a regular map, batched over rows, landing back in the
base.  Fiber coordinates never depend on a per-point tangent frame:
such frames have seams on spheres, and a spray read in one would jump across
them.  Dominance is checked against the base's own tangent frames.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from . import serialize
from .geometry import (
    VarietySpec,
    cayley_many,
    deinterleave,
    embed_fiber_in_algebra,
    interleave,
    lie_algebra_basis,
    matrix_to_point,
    membership_residual_many,
    point_to_matrix,
    algebra_coordinates_many,
    shrink_map,
    unshrink_map,
    variety_tangent_frame,
)
from .sampling import rng, sample_fiber, sample_variety


class SprayInversionError(RuntimeError):
    """Local inversion failed (no convergence, or the target is out of reach)."""


class AntipodeError(SprayInversionError):
    """The stereographic inverse is undefined at the antipode."""


_NEWTON_TOL = 1e-11  # see solve_fiber_many
_NEWTON_FD_STEP = 1e-7
_NEWTON_MAX_ITER = 50
_MAX_FIBER_NORM = 100.0  # radius of the fiber ball an exact inverse must land in
# Smallest accepted ratio of sigma_r, the least singular value of a row's tangent-projected
# fiber Jacobian, at a Gauss-Newton solution to its value at v = 0; tested as rows converge.
_MIN_SIGMA_RATIO = 0.1
_DOMINANCE_FD_STEP = 1e-5  # see verify_dominating
_RANK_TOL = 1e-6  # the rank and pseudo-inverse cut of _tangent_gram


@dataclass
class Spray:
    """A trivialized spray: ``eval_many`` maps (base points, fiber vectors) to base points.

    ``base`` is a sphere or a classical group.  The spray dominates when its
    fiber derivative at the zero section reaches ``base.dim``, the
    dimension of the base, at every point.
    """

    kind: str
    base: VarietySpec
    fiber_dim: int
    eval_many: Callable
    params: dict = field(default_factory=dict)
    inverse_many: Optional[Callable] = None

    def descriptor(self) -> dict:
        return {
            "kind": self.kind,
            "base": serialize.variety_to_json(self.base),
            "fiber_dim": self.fiber_dim,
            "params": self.params,
        }


# ---------------------------------------------------------------------------
# Stereographic spray on the n-sphere
# ---------------------------------------------------------------------------


def _stereo_forward(points: np.ndarray, w: np.ndarray) -> np.ndarray:
    # Second intersection of the line from -p through p + w with the sphere.
    wn2 = np.einsum("ni,ni->n", w, w)
    far = np.isinf(wn2)
    if np.any(far):
        # |w|^2 overflowed: the intersection is -p to double precision.
        near = _stereo_forward(points, np.where(far[:, None], 0.0, w))
        return np.where(far[:, None], -points, near)
    return ((4.0 - wn2)[:, None] * points + 4.0 * w) / (4.0 + wn2)[:, None]


def _stereo_backward(points: np.ndarray, targets: np.ndarray) -> np.ndarray:
    # Projection of q from -p onto the tangent hyperplane through p.
    qp = np.einsum("ni,ni->n", targets, points)
    denom = 1.0 + qp
    if np.any(denom <= 1e-12):
        raise AntipodeError("target is (numerically) antipodal to the base point")
    return 2.0 * (targets - qp[:, None] * points) / denom[:, None]


def stereographic_spray(n: int, fiber: str = "ambient") -> Spray:
    """Spray on the n-sphere via inverse stereographic projection from -p.

    The fiber is R^(n+1), the trivialization of the tangent bundle inside
    base x R^(n+1): a fiber vector is an ambient vector that gets projected
    onto the tangent hyperplane first, so fiber_dim is n + 1 and the spray
    dominates with rank n.  ``fiber`` names that trivialization, the only
    one: coordinates in a per-point tangent frame would make the spray
    discontinuous across the frame's seams.  The exact inverse returns the
    tangential representative, the minimal-norm fiber preimage.
    """
    if fiber != "ambient":
        raise ValueError(f"unknown fiber mode {fiber!r}")

    def eval_many(points, vs):
        w = vs - np.einsum("ni,ni->n", vs, points)[:, None] * points
        return _stereo_forward(points, w)

    return Spray(
        kind="stereographic",
        base=VarietySpec.sphere(n),
        fiber_dim=n + 1,
        eval_many=eval_many,
        inverse_many=_stereo_backward,
        params={"n": n, "fiber": fiber},
    )


# ---------------------------------------------------------------------------
# Group-action sprays
# ---------------------------------------------------------------------------


def _default_space(group: VarietySpec) -> VarietySpec:
    if group.kind in ("O", "SO"):
        return VarietySpec.sphere(group.m - 1)
    return VarietySpec.sphere(2 * group.m - 1)


def group_action_spray(
    group: VarietySpec,
    space: Optional[VarietySpec] = None,
    shrink_c: Optional[float] = None,
) -> Spray:
    """Spray s(y, v) = cayley(skew(v)) . y for a classical group acting on ``space``.

    ``space`` defaults to the sphere the group acts on transitively
    (S^(m-1) for O/SO(m), the realified S^(2m-1) for U/SU(m)); passing the
    group itself selects the left-translation action.  ``skew`` embeds fiber
    coordinates into the Lie algebra by the fixed deterministic basis, and
    an optional shrink precomposition v -> c v / (1 + |v|^2) is available
    for the partially-defined-parametrization setting.  SU(m) acts on itself
    only for m <= 2; m >= 3 raises ValueError, since the Cayley transform of
    su(m) has determinant 1 only at m = 2.
    """
    if not group.is_group:
        raise ValueError(f"{group.label()} is not a group")
    if space is None:
        space = _default_space(group)
    algebra_kind = "SO" if group.kind == "O" else group.kind
    m = group.m
    fiber_dim = lie_algebra_basis(algebra_kind, m).shape[0]

    self_action = space == group
    if not self_action and space != _default_space(group):
        given = space.label() if isinstance(space, VarietySpec) else repr(space)
        raise ValueError(
            f"{group.label()} acts on {_default_space(group).label()} or on itself: space must"
            f" be None, the group's VarietySpec or {_default_space(group).label()}, not {given}"
        )
    if self_action and group.kind == "SU" and m >= 3:
        # Cayley of a traceless skew-Hermitian A has det prod (1 - i l)/(1 + i l)
        # over A's eigenvalues i l: 1 for the pair +-l of su(2), not beyond it.
        raise ValueError(
            f"{group.label()} cannot act on itself: Cayley transforms of su({m}) leave it"
        )
    complex_vec = group.is_complex and not self_action

    def _group_elements(vs):
        if shrink_c is not None:
            vs = shrink_map(vs, shrink_c)
        return cayley_many(embed_fiber_in_algebra(vs, algebra_kind, m))

    if self_action:

        def eval_many(points, vs):
            q = _group_elements(vs)
            ymat = point_to_matrix(points, group)
            return matrix_to_point(q @ ymat, group)

        def inverse_many(points, targets):
            ymat = point_to_matrix(points, group)
            qmat = point_to_matrix(targets, group)
            # g y = q, and y is orthogonal or unitary, so g = q y^H.
            g = qmat @ np.conj(np.swapaxes(ymat, -1, -2))
            # I + g is singular when g has eigenvalue -1 (a half-turn in SO(3)):
            # cayley_many then gives non-finite entries (m = 2, 3) or raises.
            try:
                a = cayley_many(g)
                finite = np.all(np.isfinite(a))
            except np.linalg.LinAlgError:
                finite = False
            if not finite:
                raise SprayInversionError("I + g is singular: the target is not Cayley-reachable")
            coords, resid = algebra_coordinates_many(a, algebra_kind, m)
            if not np.max(resid) <= 1e-8:
                raise SprayInversionError(
                    "target group element is not in the Cayley-reachable neighborhood"
                )
            if shrink_c is not None:
                coords = unshrink_map(coords, shrink_c)
            return coords

    else:

        def eval_many(points, vs):
            q = _group_elements(vs)
            if complex_vec:
                z = deinterleave(points)
                return interleave(np.einsum("nij,nj->ni", q, z))
            return np.einsum("nij,nj->ni", q, points)

        inverse_many = None

    return Spray(
        kind="group_action",
        base=space,
        fiber_dim=fiber_dim,
        eval_many=eval_many,
        inverse_many=inverse_many,
        params={
            "group": serialize.variety_to_json(group),
            "space": serialize.variety_to_json(space),
            "shrink_c": shrink_c,
        },
    )


# ---------------------------------------------------------------------------
# Iterated and constant sprays
# ---------------------------------------------------------------------------


def iterated_spray(spray: Spray, k: int) -> Spray:
    """k-fold iterate: blocks are fed left to right through the base spray.

    s_k(z, (v_1, ..., v_k)) = s(s(...s(z, v_1)..., v_(k-1)), v_k); with all
    blocks zero this returns z, and with only the first block nonzero it
    reproduces the base spray.
    """
    if k < 1:
        raise ValueError(f"iteration count must be >= 1, got {k}")
    m = spray.fiber_dim

    def eval_many(points, vs):
        cur = points
        for i in range(k):
            cur = spray.eval_many(cur, vs[:, i * m : (i + 1) * m])
        return cur

    return Spray(
        kind="iterated",
        base=spray.base,
        fiber_dim=k * m,
        eval_many=eval_many,
        params={"k": k, "inner": spray.descriptor()},
    )


def constant_spray(spec: VarietySpec) -> Spray:
    """Degenerate test fixture: s(y, v) = y.  Satisfies the axioms, never dominates."""
    return Spray(
        kind="constant",
        base=spec,
        fiber_dim=spec.dim,
        eval_many=lambda points, vs: points.copy(),
        params={"fiber_dim": spec.dim},
    )


def fiber_differences(spray: Spray, points: np.ndarray, vs: np.ndarray, h) -> np.ndarray:
    """s(y, v + h e_i) - s(y, v - h e_i) for every fiber axis i, in one ``eval_many`` call.

    ``h`` is a scalar or one step per row.  Returns (N, fiber_dim, ambient);
    callers divide by their own 2h.
    """
    n, fdim = vs.shape
    dirs = np.concatenate([np.eye(fdim), -np.eye(fdim)])  # +h e_i, then -h e_i
    probes = vs[:, None, :] + np.reshape(h, (-1, 1, 1)) * dirs
    out = spray.eval_many(np.repeat(points, 2 * fdim, axis=0), probes.reshape(-1, fdim))
    out = out.reshape(n, 2, fdim, -1)
    return out[:, 0] - out[:, 1]


# ---------------------------------------------------------------------------
# Axiom and dominance verification
# ---------------------------------------------------------------------------


@dataclass
class SprayAxiomReport:
    kind: str
    base: str
    n_samples: int
    seed: int
    tol: float
    fiber_radius: float
    zero_section_max: float
    membership_max: float
    max_violation: float
    passed: bool
    per_sample: list


def verify_spray_axioms(
    spray: Spray,
    n_samples: int = 1000,
    seed: int = 0,
    tol: float = 1e-10,
    fiber_radius: float = 10.0,
) -> SprayAxiomReport:
    """Check s(y, 0) = y and target closure on seeded samples; report, never raise."""
    points = sample_variety(spray.base, n_samples, seed)
    at_zero = spray.eval_many(points, np.zeros((n_samples, spray.fiber_dim)))
    zero_dev = np.max(np.abs(at_zero - points), axis=1)
    vs = sample_fiber(spray.fiber_dim, n_samples, rng(seed + 1), fiber_radius)
    out = spray.eval_many(points, vs)
    member = membership_residual_many(out, spray.base)
    per_sample = np.maximum(zero_dev, member)
    max_violation = float(np.max(per_sample))
    return SprayAxiomReport(
        kind=spray.kind,
        base=spray.base.label(),
        n_samples=n_samples,
        seed=seed,
        tol=tol,
        fiber_radius=fiber_radius,
        zero_section_max=float(np.max(zero_dev)),
        membership_max=float(np.max(member)),
        max_violation=max_violation,
        passed=bool(max_violation <= tol),
        per_sample=[float(x) for x in per_sample],
    )


@dataclass
class DominanceReport:
    kind: str
    base: str
    n_samples: int
    seed: int
    fd_step: float
    rank_tol: float
    required_rank: int
    min_rank: int
    max_rank: int
    passed: bool
    ranks: list


def verify_dominating(spray: Spray, n_samples: int = 500, seed: int = 0) -> DominanceReport:
    """Numerical rank of the fiber derivative at the zero section, per sample.

    Central finite differences in the fiber argument (step
    ``_DOMINANCE_FD_STEP`` * (1 + |y|)), rows projected onto the base's tangent
    frame (:func:`variety_tangent_frame` of the sphere or group), rank from
    the cut of :func:`_tangent_gram`, which Newton inversion steps with too.
    The spray passes when every sample reaches rank dim(base).
    """
    points = sample_variety(spray.base, n_samples, seed)
    steps = _DOMINANCE_FD_STEP * (1.0 + np.linalg.norm(points, axis=1))
    diff = fiber_differences(spray, points, np.zeros((n_samples, spray.fiber_dim)), steps)
    jac = np.swapaxes(diff / (2.0 * steps)[:, None, None], 1, 2)  # (N, ambient, fiber)
    *_, kept = _tangent_gram(jac, variety_tangent_frame(points, spray.base))
    ranks = np.sum(kept, axis=1)
    passed = bool(np.all(ranks == spray.base.dim))
    return DominanceReport(
        kind=spray.kind,
        base=spray.base.label(),
        n_samples=n_samples,
        seed=seed,
        fd_step=_DOMINANCE_FD_STEP,
        rank_tol=_RANK_TOL,
        required_rank=spray.base.dim,
        min_rank=int(np.min(ranks)),
        max_rank=int(np.max(ranks)),
        passed=passed,
        ranks=[int(r) for r in ranks],
    )


# ---------------------------------------------------------------------------
# Local inversion near the zero section
# ---------------------------------------------------------------------------


def solve_fiber_many(spray: Spray, points: np.ndarray, targets: np.ndarray) -> np.ndarray:
    """Fiber vectors xi with s(y, xi) = q per row, for q near the image of the zero section.

    A spray with an exact inverse uses it, then checks max |xi| against
    ``_MAX_FIBER_NORM``, which bounds exact inverses only, and the max-abs
    image residual against 1e-8.  Otherwise one masked, damped Gauss-Newton
    runs from xi = 0 over all rows: only rows whose residual norm is above
    1e-11 are evaluated and stepped.  Each active row gets central-difference
    Jacobian columns with step 1e-7 * (1 + |xi_row|) (all probes in one
    :func:`fiber_differences` call), the minimal-norm step of
    :func:`_tangent_step` in the tangent frame at s(y, xi), and its own
    halving line search.  Raises SprayInversionError for the whole batch when
    any row stalls below step 1/1024, has not converged after
    ``_NEWTON_MAX_ITER`` iterations, or converged where its Jacobian has lost
    conditioning (tested as rows converge): sigma_r, r = ``spray.base.dim``,
    of its last Jacobian below 0.1 times its value at xi = 0, the paper's
    test that the spray is still a local diffeomorphism in xi.  The caller is
    expected to refine its homotopy partition on that signal.  The result
    depends only on the arguments, so equal calls return bitwise-equal vectors.
    """
    points = np.asarray(points, dtype=float)
    targets = np.asarray(targets, dtype=float)
    if spray.inverse_many is not None:
        vs = spray.inverse_many(points, targets)
        norms = np.linalg.norm(vs, axis=1)
        # Written as not (x <= bound) so that a NaN fails too.
        if not np.max(norms) <= _MAX_FIBER_NORM:
            raise SprayInversionError(
                f"exact inverse outside the local neighborhood (max |v| = {np.max(norms):.3e})"
            )
        resid = np.max(np.abs(spray.eval_many(points, vs) - targets))
        if not resid <= 1e-8:
            raise SprayInversionError(f"exact inverse failed to verify (residual {resid:.3e})")
        return vs
    vs = np.zeros((points.shape[0], spray.fiber_dim))
    resid = spray.eval_many(points, vs) - targets
    rn = np.linalg.norm(resid, axis=1)
    sigma = np.ones(points.shape[0])  # sigma_r of each row's latest Jacobian
    sigma0 = None
    for _ in range(_NEWTON_MAX_ITER):
        act = np.flatnonzero(~(rn <= _NEWTON_TOL))  # a NaN residual stays active
        if act.size == 0:
            break
        y, v, r = points[act], vs[act], resid[act]
        h = _NEWTON_FD_STEP * (1.0 + np.linalg.norm(v, axis=1))
        jac = np.swapaxes(fiber_differences(spray, y, v, h), 1, 2) / (2.0 * h)[:, None, None]
        frames = variety_tangent_frame(targets[act] + r, spray.base)  # at s(y, v)
        delta, sigma[act] = _tangent_step(jac, r, frames)
        sigma0 = sigma.copy() if sigma0 is None else sigma0
        searching, step = np.arange(act.size), 1.0
        while searching.size:
            v_new = v[searching] + step * delta[searching]
            r_new = spray.eval_many(y[searching], v_new) - targets[act[searching]]
            rn_new = np.linalg.norm(r_new, axis=1)
            better = rn_new < rn[act[searching]]
            rows = act[searching[better]]
            vs[rows], resid[rows], rn[rows] = v_new[better], r_new[better], rn_new[better]
            searching = searching[~better]
            step *= 0.5
            if searching.size and step < 1.0 / 1024.0:
                raise SprayInversionError("damped Gauss-Newton stalled")
        # A row that converged where its Jacobian lost most of its rank-r
        # singular value has crossed a fold of the spray, past the local
        # inversion neighborhood; it is never stepped again, so stop now.
        ratio = np.min(np.divide(sigma, sigma0, where=rn <= _NEWTON_TOL, out=np.ones_like(rn)))
        if not ratio >= _MIN_SIGMA_RATIO:
            raise SprayInversionError(
                f"fiber Jacobian lost conditioning (sigma_r ratio {ratio:.3e})"
            )
    if not np.all(rn <= _NEWTON_TOL):
        raise SprayInversionError(
            f"no convergence after {_NEWTON_MAX_ITER} iterations (residual {np.max(rn):.3e})"
        )
    return vs


def _tangent_gram(jac: np.ndarray, frames: np.ndarray) -> tuple:
    """J_T = T J for stacked Jacobians J and frames T, the ascending eigenpairs of G = J_T J_T^T,
    and the kept mask: eigenvalues above ``_RANK_TOL``^2 times the largest, that is singular
    values of J_T above ``_RANK_TOL`` times the largest (none when J_T = 0)."""
    jt = frames @ jac
    lam, vec = np.linalg.eigh(jt @ np.swapaxes(jt, 1, 2))
    return jt, lam, vec, lam > _RANK_TOL**2 * lam[:, -1:]


def _tangent_step(jac: np.ndarray, r: np.ndarray, frames: np.ndarray) -> tuple:
    """-pinv(J) r for stacked Jacobians J whose columns lie in the rows of ``frames``, and sigma_r.

    pinv(J) r = J_T^T G^+ T r, with G^+ inverting the eigenvalues :func:`_tangent_gram` keeps:
    the cut of ``np.linalg.pinv(J, rcond=_RANK_TOL)``.
    """
    jt, lam, vec, kept = _tangent_gram(jac, frames)
    inv = np.divide(1.0, lam, where=kept, out=np.zeros_like(lam))
    coef = vec @ (inv[:, :, None] * (np.swapaxes(vec, 1, 2) @ (frames @ r[:, :, None])))
    return -(np.swapaxes(jt, 1, 2) @ coef)[:, :, 0], np.sqrt(np.maximum(lam[:, 0], 0.0))


def probe_injectivity_radius(spray: Spray, seed: int = 0) -> float:
    """Largest probed fiber radius at which inverse_many(eval_many(y, v)) recovers v.

    Returns 0.0 when no probed radius round-trips (or the spray has no
    inverse).  This is an empirical stand-in for an injectivity bound the
    construction itself does not provide.
    """
    if spray.inverse_many is None:
        return 0.0
    points = sample_variety(spray.base, 64, seed)
    best = 0.0
    for radius in (0.5, 1.0, 2.0, 3.0, 4.0, 6.0):
        vs = sample_fiber(spray.fiber_dim, 64, rng(seed + 17), radius)
        if spray.kind == "stereographic":
            # Only the tangential representative is recoverable.
            vs = vs - np.einsum("ni,ni->n", vs, points)[:, None] * points
        try:
            back = spray.inverse_many(points, spray.eval_many(points, vs))
        except SprayInversionError:
            break
        if np.max(np.abs(back - vs)) > 1e-9:
            break
        best = radius
    return best
