import dataclasses
import warnings

import numpy as np
import pytest

import spraylab.sprays as sprays_mod
from spraylab.geometry import (
    VarietySpec,
    deinterleave,
    interleave,
    lie_algebra_basis,
    matrix_to_point,
    membership_residual_many,
    point_to_matrix,
    sphere_tangent_basis_many,
    unshrink_map,
    variety_tangent_frame,
)
from spraylab.sampling import normalize_rows, rng, sample_fiber, sample_variety
from spraylab.sprays import (
    AntipodeError,
    Spray,
    SprayInversionError,
    constant_spray,
    group_action_spray,
    iterated_spray,
    probe_injectivity_radius,
    solve_fiber_many,
    stereographic_spray,
    verify_dominating,
    verify_spray_axioms,
)

SO = VarietySpec.group
S = VarietySpec.sphere


def all_test_sprays():
    return [
        stereographic_spray(1),
        stereographic_spray(2),
        stereographic_spray(3),
        stereographic_spray(2, fiber="ambient"),
        group_action_spray(SO("SO", 2)),
        group_action_spray(SO("SO", 3)),
        group_action_spray(SO("O", 3)),
        group_action_spray(SO("U", 2)),
        group_action_spray(SO("SU", 2)),
        group_action_spray(SO("SO", 3), SO("SO", 3)),
        iterated_spray(stereographic_spray(2), 3),
    ]


# ---------------------------------------------------------------------------
# axioms
# ---------------------------------------------------------------------------


def test_zero_section_identity_all_sprays():
    for spray in all_test_sprays():
        pts = sample_variety(spray.base, 1000, 0)
        out = spray.eval_many(pts, np.zeros((1000, spray.fiber_dim)))
        assert np.max(np.abs(out - pts)) <= 1e-12, spray.kind


def test_base_closure_up_to_radius_ten():
    for spray in all_test_sprays():
        pts = sample_variety(spray.base, 300, 1)
        vs = sample_fiber(spray.fiber_dim, 300, rng(2), 10.0)
        resid = membership_residual_many(spray.eval_many(pts, vs), spray.base)
        assert np.max(resid) <= 1e-10, spray.kind


def test_axiom_report_passes():
    for spray in all_test_sprays():
        report = verify_spray_axioms(spray, n_samples=300, seed=0)
        assert report.passed, (spray.kind, report.max_violation)
        assert len(report.per_sample) == 300


@pytest.mark.parametrize("n_samples", [0, -3])
@pytest.mark.parametrize("verify", [verify_spray_axioms, verify_dominating])
def test_verification_refuses_fewer_than_one_sample(verify, n_samples, monkeypatch):
    drawn = []
    monkeypatch.setattr(sprays_mod, "sample_variety", lambda *args: drawn.append(args))
    with pytest.raises(ValueError, match=f"n_samples must be >= 1, got {n_samples}"):
        verify(stereographic_spray(2), n_samples=n_samples)
    assert drawn == []


def test_corrupted_spray_fails_with_planted_violation():
    base = stereographic_spray(2)

    def corrupted(points, vs):
        out = base.eval_many(points, vs)
        return out + 1e-3 * vs

    bad = Spray(
        kind="stereographic",
        base=base.base,
        fiber_dim=base.fiber_dim,
        eval_many=corrupted,
    )
    report = verify_spray_axioms(bad, n_samples=200, seed=0, fiber_radius=1.0)
    assert not report.passed
    assert 1e-5 <= report.max_violation <= 1e-2


def _seam_points(spec):
    """Two points of a sphere 2e-12 apart on either side of a tangent-frame
    seam: their two largest coordinates swap."""
    head = np.array([0.6, 0.6, 0.529, 0.3, 0.2][: spec.ambient_dim])
    shift = np.zeros(spec.ambient_dim)
    shift[:2] = [1e-12, -1e-12]
    return normalize_rows((head + shift)[None]), normalize_rows((head - shift)[None])


def test_sphere_sprays_are_continuous_across_frame_seams():
    # A spray is a regular map, so it cannot jump where the deterministic
    # per-point tangent frame (discontinuous on every sphere) changes its axes.
    for spray in all_test_sprays():
        if spray.base.kind != "sphere":
            continue
        below, above = _seam_points(spray.base)
        vs = sample_fiber(spray.fiber_dim, 1, rng(23), 1.0)
        jump = np.max(np.abs(spray.eval_many(below, vs) - spray.eval_many(above, vs)))
        assert jump <= 1e-9, (spray.descriptor(), jump)


def _frame_fiber_stereographic_spray():
    """S2 stereographic spray with its fiber read in the per-point frame of
    ``sphere_tangent_basis_many``: s(y, v) = stereo(y, T(y)^T v).  It is a
    spray at every point, but it jumps wherever the frame's dropped axis changes."""

    def eval_many(points, vs):
        w = np.einsum("nij,ni->nj", sphere_tangent_basis_many(points), vs)
        return sprays_mod._stereo_forward(points, w)

    return Spray(kind="stereographic", base=S(2), fiber_dim=2, eval_many=eval_many)


def test_frame_fiber_spray_jumps_across_a_frame_seam():
    # |y0| = |y1| on the seam: the frame drops axis 0 on one side and axis 1 on the other.
    shift = np.array([3.5e-13, -3.5e-13, 0.0])
    head = np.array([0.6, 0.6, 0.529])
    below, above = (normalize_rows((head + d)[None]) for d in (shift, -shift))
    v = np.array([[1.0, 0.0]])
    spray = _frame_fiber_stereographic_spray()
    assert np.linalg.norm(below - above) <= 1e-12
    assert np.linalg.norm(spray.eval_many(below, v) - spray.eval_many(above, v)) > 1.0


@pytest.mark.xfail(
    strict=True,
    raises=AssertionError,
    reason="verify_spray_axioms checks independent samples only and verify_dominating reads "
    "one derivative per sample, so neither sees a jump; ROADMAP item 10 adds a paired "
    "continuity check",
)
@pytest.mark.parametrize("seed", [0, 3, 5])
def test_verification_refuses_a_spray_that_jumps_across_a_frame_seam(seed):
    spray = _frame_fiber_stereographic_spray()
    axioms = verify_spray_axioms(spray, n_samples=300, seed=seed)
    dominance = verify_dominating(spray, n_samples=300, seed=seed)
    assert not (axioms.passed and dominance.passed)


def _tangential(vs, points):
    return vs - np.einsum("ni,ni->n", vs, points)[:, None] * points


# ---------------------------------------------------------------------------
# stereographic spray specifics
# ---------------------------------------------------------------------------


def test_stereographic_circle_hand_case():
    # The line from -e1 through e1 + 2 e2 meets the circle again at e2.
    spray = stereographic_spray(1)
    out = spray.eval_many(np.array([[1.0, 0.0]]), np.array([[0.0, 2.0]]))
    np.testing.assert_allclose(out, [[0.0, 1.0]], atol=1e-15)


def test_stereographic_matches_line_sphere_intersection():
    # Independent oracle: intersect the line -p + s(2p + w) with the sphere
    # by solving the quadratic in s directly.
    spray = stereographic_spray(3)
    gen = rng(8)
    for _ in range(50):
        p = gen.normal(size=4)
        p /= np.linalg.norm(p)
        v = gen.normal(size=4)
        w = v - (v @ p) * p
        a = 4.0 + w @ w
        s = 4.0 / a  # nonzero root of |l(s)|^2 = 1
        expected = -p + s * (2.0 * p + w)
        np.testing.assert_allclose(spray.eval_many(p[None], v[None])[0], expected, atol=1e-14)


def test_stereographic_roundtrip_radius_three():
    for n in (1, 2, 3):
        spray = stereographic_spray(n)
        pts = sample_variety(spray.base, 1000, 3)
        vs = _tangential(sample_fiber(n + 1, 1000, rng(4), 3.0), pts)
        back = spray.inverse_many(pts, spray.eval_many(pts, vs))
        assert np.max(np.abs(back - vs)) <= 1e-10


def test_stereographic_ambient_projects_normal_component():
    spray = stereographic_spray(2, fiber="ambient")
    p = np.array([[0.0, 0.0, 1.0]])
    v_tangent = np.array([[0.4, -0.2, 0.0]])
    for radial in (0.0, 1.0, -2.5):
        out = spray.eval_many(p, v_tangent + radial * p)
        np.testing.assert_allclose(out, spray.eval_many(p, v_tangent), atol=1e-15)


def test_stereographic_antipode_error():
    spray = stereographic_spray(2)
    p = np.array([[0.0, 0.0, 1.0]])
    with pytest.raises(AntipodeError):
        spray.inverse_many(p, -p)


@pytest.mark.parametrize("fiber", ["ambient"])
def test_stereographic_huge_fiber_lands_on_antipode(fiber):
    # |w|^2 overflows above |w| ~ 1e154; the image is then -p to double precision.
    spray = stereographic_spray(2, fiber=fiber)
    pts = sample_variety(spray.base, 8, 5)
    vs = sample_fiber(spray.fiber_dim, 8, rng(6), 1.0)
    vs[::2] *= 1e200
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        out = spray.eval_many(pts, vs)
        report = verify_spray_axioms(spray, n_samples=200, seed=3, fiber_radius=1e200)
    np.testing.assert_array_equal(out[::2], -pts[::2])
    np.testing.assert_array_equal(out[1::2], spray.eval_many(pts[1::2], vs[1::2]))
    assert report.passed and report.max_violation <= 1e-14


# ---------------------------------------------------------------------------
# group sprays
# ---------------------------------------------------------------------------


def test_so2_zero_vector_is_identity_rotation():
    spray = group_action_spray(SO("SO", 2))
    y = np.array([[0.6, 0.8]])
    np.testing.assert_allclose(spray.eval_many(y, np.zeros((1, 1))), y, atol=0)


def test_so3_rotation_axis_fixed_point():
    # The first basis generator spans the (x, y) rotation plane, so e3 is
    # an axis fixed point for any coefficient on that generator.
    spray = group_action_spray(SO("SO", 3))
    e3 = np.array([[0.0, 0.0, 1.0]])
    for t in (0.1, 0.5, 2.0):
        np.testing.assert_allclose(spray.eval_many(e3, np.array([[t, 0.0, 0.0]])), e3, atol=1e-15)


def test_group_spray_with_shrink_still_a_spray():
    spray = group_action_spray(SO("SO", 3), shrink_c=0.5)
    report = verify_spray_axioms(spray, n_samples=200, seed=0)
    assert report.passed
    dom = verify_dominating(spray, n_samples=100, seed=0)
    assert dom.passed


def test_group_spray_dimension_mismatch():
    with pytest.raises(ValueError):
        group_action_spray(SO("SO", 3), S(3))


@pytest.mark.parametrize("shrink_c", [0.0, -2.0, np.inf, np.nan], ids=["0", "-2", "inf", "nan"])
def test_group_spray_refuses_a_shrink_scale_that_is_not_finite_and_positive(shrink_c):
    with pytest.raises(ValueError, match="shrink_c must be finite and > 0"):
        group_action_spray(SO("SO", 3), shrink_c=shrink_c)


def test_group_spray_rejects_a_label_for_a_space():
    # "self" is the CLI's word; the library takes the group's VarietySpec.
    with pytest.raises(ValueError, match="None, the group's VarietySpec or S2, not 'self'"):
        group_action_spray(SO("SO", 3), "self")


# ---------------------------------------------------------------------------
# dominance
# ---------------------------------------------------------------------------


def test_dominance_stereographic():
    for n in (1, 2, 3):
        dom = verify_dominating(stereographic_spray(n), n_samples=300, seed=0)
        assert dom.passed and dom.min_rank == n


def test_dominance_on_sphere_actions():
    for m in (2, 3, 4):
        dom = verify_dominating(group_action_spray(SO("O", m)), n_samples=200, seed=0)
        assert dom.passed and dom.min_rank == m - 1


def test_dominance_rank_500_random_points_so3():
    dom = verify_dominating(group_action_spray(SO("SO", 3)), n_samples=500, seed=1)
    assert dom.passed and dom.min_rank == dom.max_rank == 2


def test_verify_dominating_is_one_spray_call():
    # All +-h probes of every fiber axis go into a single eval_many call.
    spray = group_action_spray(SO("SO", 3))
    calls = []

    def spy(points, vs):
        calls.append(points.shape[0])
        return spray.eval_many(points, vs)

    dom = verify_dominating(dataclasses.replace(spray, eval_many=spy), n_samples=40, seed=0)
    assert dom.passed
    assert calls == [40 * 2 * spray.fiber_dim]


def test_dominance_iterated_spray():
    # The first block already reaches full vertical rank, so iterates keep it.
    for base in (stereographic_spray(2), group_action_spray(SO("SO", 3))):
        dom = verify_dominating(iterated_spray(base, 3), n_samples=150, seed=2)
        assert dom.passed and dom.min_rank == 2


def test_constant_spray_fails_dominance_with_rank_zero():
    dom = verify_dominating(constant_spray(S(2)), n_samples=50, seed=0)
    assert not dom.passed
    assert dom.max_rank == 0


def _svd_ranks(spray, n_samples, seed):
    """Per-sample reference: singular values of the tangent-projected fiber Jacobian,
    rank = #(sigma >= 1e-6 sigma_max), and 0 when sigma_max = 0."""
    points = sample_variety(spray.base, n_samples, seed)
    steps = 1e-5 * (1.0 + np.linalg.norm(points, axis=1))
    zeros = np.zeros((n_samples, spray.fiber_dim))
    diff = sprays_mod.fiber_differences(spray, points, zeros, steps)
    ranks = []
    for y, d, h in zip(points, diff, steps):
        frame = variety_tangent_frame(y[None], spray.base)[0]
        sing = np.linalg.svd(frame @ (d.T / (2.0 * h)), compute_uv=False)
        ranks.append(int(np.sum(sing >= 1e-6 * sing[0])) if sing[0] > 0 else 0)
    return ranks


def _rank_varying_so3_spray():
    """SO(3) acting on S2 with generator 0 zeroed everywhere and generator 2 zeroed
    where y0 > 0, scaled by 1e-7 (below the rank cut) where y0 <= 0 < y1 and by 1e-4
    (above it) elsewhere; every generator is zeroed where y2 > 0.8.  Ranks 0, 1 and 2
    all occur."""
    so3 = group_action_spray(SO("SO", 3))

    def eval_many(points, vs):
        scale = np.ones_like(vs)
        scale[:, 0] = 0.0
        scale[:, 2] = np.where(points[:, 0] > 0, 0.0, np.where(points[:, 1] > 0, 1e-7, 1e-4))
        scale[points[:, 2] > 0.8] = 0.0
        return so3.eval_many(points, scale * vs)

    return dataclasses.replace(so3, eval_many=eval_many)


@pytest.mark.parametrize("seed", [0, 4])
def test_dominance_ranks_match_a_per_sample_svd_reference(seed):
    planted = _rank_varying_so3_spray()
    for spray in all_test_sprays() + [constant_spray(S(2)), planted]:
        dom = verify_dominating(spray, n_samples=120, seed=seed)
        assert dom.ranks == _svd_ranks(spray, 120, seed), spray.descriptor()
    assert set(verify_dominating(planted, n_samples=120, seed=seed).ranks) == {0, 1, 2}


@pytest.mark.parametrize(
    "spray",
    [
        group_action_spray(SO("SO", 3)),
        group_action_spray(SO("U", 2), SO("U", 2)),
        constant_spray(S(2)),
    ],
    ids=lambda spray: spray.kind,
)
def test_dominance_tangent_frame_is_one_batched_call(spray, monkeypatch):
    # The lookup goes through the sprays module at call time, so a wrapper
    # installed there sees every call.
    calls, shapes = [], []

    def counting(points, spec):
        calls.append(points.shape)
        frames = variety_tangent_frame(points, spec)
        shapes.append(frames.shape)
        return frames

    monkeypatch.setattr(sprays_mod, "variety_tangent_frame", counting)
    verify_dominating(spray, n_samples=25, seed=2)
    assert calls == [(25, spray.base.ambient_dim)]
    assert shapes == [(25, spray.base.dim, spray.base.ambient_dim)]


# ---------------------------------------------------------------------------
# iterated sprays
# ---------------------------------------------------------------------------


def test_iterated_k1_matches_base():
    base = stereographic_spray(2)
    it = iterated_spray(base, 1)
    pts = sample_variety(base.base, 100, 5)
    vs = sample_fiber(base.fiber_dim, 100, rng(6), 2.0)
    np.testing.assert_array_equal(it.eval_many(pts, vs), base.eval_many(pts, vs))


def test_iterated_last_block_zero_reduces():
    base = stereographic_spray(2)
    it = iterated_spray(base, 2)
    pts = sample_variety(base.base, 100, 7)
    v1 = sample_fiber(base.fiber_dim, 100, rng(8), 2.0)
    stacked = np.hstack([v1, np.zeros_like(v1)])
    np.testing.assert_array_equal(it.eval_many(pts, stacked), base.eval_many(pts, v1))


def test_iterated_single_block_from_zero_section():
    base = stereographic_spray(2)
    it = iterated_spray(base, 3)
    pts = sample_variety(base.base, 100, 9)
    v = sample_fiber(base.fiber_dim, 100, rng(10), 2.0)
    z = np.zeros_like(v)
    np.testing.assert_array_equal(
        it.eval_many(pts, np.hstack([z, z, v])), base.eval_many(pts, v)
    )


@pytest.mark.parametrize("k", [2, 3, 4])
def test_iterated_equals_nested_composition(k):
    for base in (stereographic_spray(2), group_action_spray(SO("SO", 3))):
        it = iterated_spray(base, k)
        pts = sample_variety(base.base, 500, 11)
        vs = sample_fiber(base.fiber_dim * k, 500, rng(12), 2.0)
        direct = pts
        for i in range(k):
            direct = base.eval_many(direct, vs[:, i * base.fiber_dim : (i + 1) * base.fiber_dim])
        assert np.max(np.abs(it.eval_many(pts, vs) - direct)) <= 1e-12


def test_iterated_rejects_zero_count():
    with pytest.raises(ValueError):
        iterated_spray(stereographic_spray(1), 0)


# ---------------------------------------------------------------------------
# local inversion
# ---------------------------------------------------------------------------


def test_local_inverse_zero_section():
    for spray in (stereographic_spray(2), group_action_spray(SO("SO", 3))):
        y = sample_variety(spray.base, 1, 13)
        v = solve_fiber_many(spray, y, y)
        assert np.max(np.abs(v)) <= 1e-9


def test_local_inverse_roundtrip_stereographic():
    spray = stereographic_spray(2)
    gen = rng(14)
    for _ in range(25):
        y = sample_variety(spray.base, 1, int(gen.integers(1 << 30)))
        v = _tangential(gen.normal(size=3)[None], y)
        q = spray.eval_many(y, v)
        np.testing.assert_allclose(solve_fiber_many(spray, y, q), v, atol=1e-10)


def test_local_inverse_near_antipode_diverges():
    spray = stereographic_spray(2)
    y = np.array([[0.0, 0.6, 0.8]])
    q = -y + 1e-3 * np.array([1.0, 0.0, 0.0])
    q /= np.linalg.norm(q)
    with pytest.raises(SprayInversionError):
        solve_fiber_many(spray, y, q)


def test_local_inverse_self_action_exact():
    spray = group_action_spray(SO("SU", 2), SO("SU", 2))
    y = sample_variety(spray.base, 1, 16)
    v = np.array([[0.12, -0.2, 0.31]])
    q = spray.eval_many(y, v)
    np.testing.assert_allclose(solve_fiber_many(spray, y, q), v, atol=1e-10)


@pytest.mark.parametrize("m", [3, 4])
def test_self_action_half_turn_target_is_an_inversion_error(m):
    # g = diag(1, ..., 1, -1, -1) is a half-turn: I + g is singular, so no
    # Cayley fiber vector reaches it from the identity.
    group = SO("SO", m)
    spray = group_action_spray(group, group)
    target = np.diag([1.0] * (m - 2) + [-1.0, -1.0]).reshape(1, -1)
    with pytest.raises(SprayInversionError):
        solve_fiber_many(spray, np.eye(m).reshape(1, -1), target)


def test_exact_inverse_nan_fails_its_checks():
    spray = group_action_spray(SO("SU", 2), SO("SU", 2))
    broken = dataclasses.replace(spray, inverse_many=lambda p, q: np.full((p.shape[0], 3), np.nan))
    y = sample_variety(spray.base, 2, 17)
    with pytest.raises(SprayInversionError):
        solve_fiber_many(broken, y, y)


def test_self_action_with_shrink_inverts_through_unshrink():
    # Below |v| = 1 the shrink map is injective, so the exact inverse undoes
    # it: the linear solve for the shrunk vector, then unshrink_map.
    spray = group_action_spray(SO("SU", 2), SO("SU", 2), 0.5)
    y = sample_variety(spray.base, 32, 21)
    v = sample_fiber(spray.fiber_dim, 32, rng(22), 0.9)
    q = spray.eval_many(y, v)
    np.testing.assert_allclose(spray.inverse_many(y, q), v, atol=1e-10)
    np.testing.assert_allclose(solve_fiber_many(spray, y, q), v, atol=1e-10)


def _self_action_inverse_reference(group, points, targets, shrink_c):
    """The Cayley-involution inverse: g = q y^H, A = C(g) by a solve, then basis coordinates."""
    ymat, qmat = point_to_matrix(points, group), point_to_matrix(targets, group)
    g = qmat @ np.conj(np.swapaxes(ymat, -1, -2))
    eye = np.eye(group.m)
    a = np.linalg.solve(eye + g, eye - g)  # I + g and I - g commute
    flat = matrix_to_point(lie_algebra_basis(group.kind, group.m), group)
    coords = np.linalg.lstsq(flat.T, matrix_to_point(a, group).T, rcond=None)[0].T
    return coords if shrink_c is None else unshrink_map(coords, shrink_c)


@pytest.mark.parametrize(
    "kind, m, shrink_c",
    [("SO", 3, None), ("SO", 4, None), ("O", 3, None), ("U", 2, None), ("U", 3, None),
     ("SU", 2, None), ("SU", 2, 0.5)],
    ids=["so3", "so4", "o3", "u2", "u3", "su2", "su2-shrink"],
)
def test_self_action_inverse_matches_the_cayley_involution_reference(kind, m, shrink_c):
    group = SO(kind, m)
    spray = group_action_spray(group, group, shrink_c)
    y = sample_variety(group, 4096, 36)
    v = sample_fiber(spray.fiber_dim, 4096, rng(37), 6.0 if shrink_c is None else 0.95)
    q = spray.eval_many(y, v)
    back = spray.inverse_many(y, q)
    reference = _self_action_inverse_reference(group, y, q, shrink_c)
    scale = 1.0 + np.linalg.norm(v, axis=1)
    assert np.max(np.linalg.norm(back - reference, axis=1) / scale) <= 1e-12
    assert np.max(np.abs(back - v)) <= 1e-12


def test_exact_inverse_off_by_a_small_step_fails_to_verify():
    spray = stereographic_spray(2)
    off = dataclasses.replace(
        spray, inverse_many=lambda p, q: sprays_mod._stereo_backward(p, q) + 1e-6
    )
    y = sample_variety(spray.base, 4, 23)
    q = spray.eval_many(y, sample_fiber(3, 4, rng(24), 0.5))
    solve_fiber_many(spray, y, q)  # the true inverse verifies
    with pytest.raises(SprayInversionError, match="failed to verify"):
        solve_fiber_many(off, y, q)


def test_newton_divergence_error():
    spray = group_action_spray(SO("SO", 3))
    y = np.array([[0.0, 0.0, 1.0]])
    with pytest.raises(SprayInversionError):
        solve_fiber_many(spray, y, -y)
    # One unreachable row fails the whole batch, even when the others converge.
    pts = sample_variety(spray.base, 8, 18)
    targets = spray.eval_many(pts, sample_fiber(3, 8, rng(19), 0.3))
    targets[5] = -pts[5]
    solve_fiber_many(spray, pts[:5], targets[:5])
    with pytest.raises(SprayInversionError):
        solve_fiber_many(spray, pts, targets)


def test_self_action_target_off_the_group_is_not_cayley_reachable():
    # y e^(0.3i) is unitary but has determinant e^(0.6i): g = e^(0.3i) I has
    # no traceless Cayley preimage in su(2).
    group = SO("SU", 2)
    spray = group_action_spray(group, group)
    y = sample_variety(group, 4, 32)
    targets = matrix_to_point(np.exp(0.3j) * point_to_matrix(y, group), group)
    with pytest.raises(SprayInversionError, match="not in the Cayley-reachable neighborhood"):
        solve_fiber_many(spray, y, targets)


def test_batched_newton_matches_single_row_solves():
    spray = group_action_spray(SO("SO", 3))
    pts = sample_variety(spray.base, 64, 20)
    targets = spray.eval_many(pts, sample_fiber(3, 64, rng(21), 1.0))
    batch = solve_fiber_many(spray, pts, targets)
    single = np.array([solve_fiber_many(spray, p[None], q[None])[0] for p, q in zip(pts, targets)])
    assert np.max(np.abs(spray.eval_many(pts, batch) - targets)) <= 1e-10
    assert np.max(np.abs(spray.eval_many(pts, batch) - spray.eval_many(pts, single))) <= 1e-10


@pytest.mark.parametrize(
    "spray",
    [
        group_action_spray(SO("SO", 4)),
        group_action_spray(SO("U", 2)),
        group_action_spray(SO("SU", 3)),
        group_action_spray(SO("SO", 3), shrink_c=0.5),
    ],
    ids=["so4-s3", "u2-s3", "su3-s5", "so3-s2-shrink"],
)
def test_newton_solve_reaches_targets_beyond_so3(spray):
    pts = sample_variety(spray.base, 32, 24)
    targets = spray.eval_many(pts, sample_fiber(spray.fiber_dim, 32, rng(25), 0.3))
    vs = solve_fiber_many(spray, pts, targets)
    assert np.max(np.abs(spray.eval_many(pts, vs) - targets)) <= 1e-10


def test_newton_solve_on_a_constant_spray_fails_without_warnings():
    spray = constant_spray(S(2))
    pts = sample_variety(spray.base, 8, 26)
    targets = normalize_rows(pts + 0.1 * rng(27).standard_normal(pts.shape))
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with pytest.raises(SprayInversionError):
            solve_fiber_many(spray, pts, targets)


@pytest.mark.parametrize(
    "spray",
    [
        stereographic_spray(2),
        group_action_spray(SO("SU", 2), SO("SU", 2)),
        group_action_spray(SO("SO", 3)),
        iterated_spray(group_action_spray(SO("SO", 3)), 2),
        constant_spray(S(2)),
    ],
    ids=["stereographic", "self-action", "sphere-action", "iterated", "constant"],
)
def test_solve_on_an_empty_batch_returns_no_rows(spray):
    empty = np.zeros((0, spray.base.ambient_dim))
    assert solve_fiber_many(spray, empty, empty).shape == (0, spray.fiber_dim)


def test_iterated_spray_solves_in_its_first_block_and_no_inverse_is_refused():
    inner = group_action_spray(SO("SU", 2))  # su(2) on S3 has no kernel: v round-trips
    spray = iterated_spray(inner, 3)
    y = sample_variety(spray.base, 32, 38)
    v = sample_fiber(inner.fiber_dim, 32, rng(39), 1.0)
    first_block = np.concatenate([v, np.zeros((32, 2 * inner.fiber_dim))], axis=1)
    back = solve_fiber_many(spray, y, spray.eval_many(y, first_block))
    np.testing.assert_allclose(back, first_block, atol=1e-12)
    # A target reached through all three blocks is solved in the first one.
    q = spray.eval_many(y, sample_fiber(spray.fiber_dim, 32, rng(40), 0.3))
    vs = solve_fiber_many(spray, y, q)
    assert np.max(np.abs(spray.eval_many(y, vs) - q)) <= 1e-12
    assert np.all(vs[:, inner.fiber_dim :] == 0.0)
    # Without an inner inverse there is none to iterate, and nothing is evaluated.
    calls = []
    bare = dataclasses.replace(
        inner, eval_many=lambda p, v: calls.append(1) or inner.eval_many(p, v), inverse_many=None
    )
    assert iterated_spray(bare, 3).inverse_many is None
    for unsolvable in (bare, iterated_spray(bare, 3)):
        with pytest.raises(ValueError, match="without inverse_many"):
            solve_fiber_many(unsolvable, y, q)
    assert calls == []


def test_shrink_self_action_out_of_reach_is_an_inversion_error():
    # A shrunk su(2) vector has norm below c/2 = 0.25, so the spray reaches no
    # element g = diag(e^(0.8i), e^(-0.8i)) away from the base point.
    group = SO("SU", 2)
    spray = group_action_spray(group, group, 0.5)
    y = sample_variety(group, 4, 33)
    far = matrix_to_point(np.diag([np.exp(0.8j), np.exp(-0.8j)]) @ point_to_matrix(y, group), group)
    with pytest.raises(SprayInversionError, match="outside the image of the shrink map"):
        solve_fiber_many(spray, y, far)


def _pairs_up_to_angle(space, n, seed, max_angle=3.0):
    """n base points on a sphere and targets at geodesic angles up to ``max_angle`` from them."""
    y = sample_variety(space, n, seed)
    gen = rng(seed + 1)
    d = normalize_rows(_tangential(gen.standard_normal(y.shape), y))
    angle = gen.uniform(0.0, max_angle, (n, 1))
    return y, np.cos(angle) * y + np.sin(angle) * d


def _fd_sigma_r(spray, points, vs):
    # sigma_r of the finite-difference fiber Jacobian in the tangent frame at s(y, v).
    h = 1e-7 * (1.0 + np.linalg.norm(vs, axis=1))
    diff = sprays_mod.fiber_differences(spray, points, vs, h)
    jac = np.swapaxes(diff, 1, 2) / (2.0 * h)[:, None, None]
    frames = variety_tangent_frame(spray.eval_many(points, vs), spray.base)
    return np.sqrt(sprays_mod._tangent_gram(jac, frames)[0][:, 0])


def _minimal_norm_reference(spray, points, targets):
    """pinv of the columns B_k (y + t), applied to y - t, then unshrunk: the minimal-norm v."""
    group = spray.params["group"]
    basis = lie_algebra_basis(group["kind"], group["m"])
    w = points + targets
    if spray.base.ambient_dim == group["m"]:  # O/SO(m) on S^(m-1)
        cols = np.einsum("kij,nj->nik", basis, w)
    else:  # U/SU(m) on the realified S^(2m-1)
        cols = np.swapaxes(interleave(np.einsum("kij,nj->nki", basis, deinterleave(w))), 1, 2)
    us = (np.linalg.pinv(cols) @ (points - targets)[:, :, None])[:, :, 0]
    shrink_c = spray.params["shrink_c"]
    return us if shrink_c is None else unshrink_map(us, shrink_c)


@pytest.mark.parametrize(
    "spray",
    [
        group_action_spray(SO("SO", 3)),
        group_action_spray(SO("SO", 4)),
        group_action_spray(SO("U", 2)),
        group_action_spray(SO("SU", 3)),
        group_action_spray(SO("SO", 3), shrink_c=40.0),
    ],
    ids=["so3-s2", "so4-s3", "u2-s3", "su3-s5", "so3-s2-shrink"],
)
def test_sphere_action_inverse_is_exact_minimal_and_reads_the_fold(spray, monkeypatch):
    # Angles up to 3 reach past the fold (sigma_r ratio ~ cos(angle / 2)^2), so the
    # fold test records its ratios here instead of refusing the batch.
    ratios = []
    monkeypatch.setattr(sprays_mod, "_check_fold", ratios.append)
    y, t = _pairs_up_to_angle(spray.base, 4096, 34)
    vs = spray.inverse_many(y, t)
    assert np.max(np.abs(spray.eval_many(y, vs) - t)) <= 1e-14
    reference = _minimal_norm_reference(spray, y, t)
    scale = 1.0 + np.linalg.norm(vs, axis=1)
    assert np.max(np.linalg.norm(vs - reference, axis=1) / scale) <= 1e-12
    fd_ratio = _fd_sigma_r(spray, y, vs) / _fd_sigma_r(spray, y, np.zeros_like(vs))
    assert np.max(np.abs(ratios[0] - fd_ratio)) <= 1e-6
    assert np.min(ratios[0]) < sprays_mod._MIN_SIGMA_RATIO  # some pairs are past the fold


def test_sphere_action_inverse_refuses_an_antipodal_target():
    spray = group_action_spray(SO("U", 2))
    y = sample_variety(spray.base, 3, 35)
    with pytest.raises(SprayInversionError, match="antipodal"):
        spray.inverse_many(y, -y)


def test_probe_injectivity_radius_reaches_three():
    assert probe_injectivity_radius(stereographic_spray(2)) >= 3.0
    # The SO(3) fiber has a kernel: the inverse returns the minimal-norm preimage, not v.
    assert probe_injectivity_radius(group_action_spray(SO("SO", 3))) == 0.0
    # su(2) has no kernel on S3: v round-trips until the fold test refuses it.
    assert probe_injectivity_radius(group_action_spray(SO("SU", 2))) == 3.0


def test_probe_injectivity_radius_stops_at_the_first_failed_radius():
    spray = stereographic_spray(2)
    halved = dataclasses.replace(
        spray, inverse_many=lambda p, q: 0.5 * sprays_mod._stereo_backward(p, q)
    )
    assert probe_injectivity_radius(halved) == 0.0  # the first radius does not round-trip

    def refuses_past_1_5(points, targets):
        vs = sprays_mod._stereo_backward(points, targets)
        if np.max(np.linalg.norm(vs, axis=1)) > 1.5:
            raise SprayInversionError("beyond |v| = 1.5")
        return vs

    capped = dataclasses.replace(spray, inverse_many=refuses_past_1_5)
    assert probe_injectivity_radius(capped) == 1.0  # 0.5 and 1.0 round-trip, 2.0 raises


# ---------------------------------------------------------------------------
# descriptors
# ---------------------------------------------------------------------------


def test_descriptor_shapes():
    desc = iterated_spray(stereographic_spray(1), 2).descriptor()
    assert desc["kind"] == "iterated"
    assert desc["fiber_dim"] == 4  # two blocks of the S1 spray's ambient fiber R^2
    assert desc["params"]["inner"]["kind"] == "stereographic"
    import json

    json.dumps(desc)  # must be JSON-clean


def test_su_self_action_is_refused_from_m_3():
    # The Cayley transform of su(3) leaves SU(3): its determinant is not 1.
    with pytest.raises(ValueError, match="cannot act on itself"):
        group_action_spray(SO("SU", 3), SO("SU", 3))
    for spray in (group_action_spray(SO("SU", 2), SO("SU", 2)), group_action_spray(SO("SU", 3))):
        assert verify_spray_axioms(spray, n_samples=200, seed=0).passed
