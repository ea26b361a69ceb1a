import dataclasses
import warnings

import numpy as np
import pytest

import spraylab.sprays as sprays_mod
from spraylab.geometry import VarietySpec, membership_residual_many, variety_tangent_frame
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


def test_local_inverse_newton_fallback_on_sphere_action():
    spray = group_action_spray(SO("SO", 3))
    y = sample_variety(spray.base, 1, 15)
    q = spray.eval_many(y, np.array([[0.2, -0.1, 0.3]]))
    v = solve_fiber_many(spray, y, q)
    # The fiber is 3-dimensional over a 2-dimensional base, so only the
    # image point is pinned down, not the fiber vector itself.
    assert np.max(np.abs(spray.eval_many(y, v) - q)) <= 1e-10


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


def test_newton_divergence_error(monkeypatch):
    spray = group_action_spray(SO("SO", 3))
    y = np.array([[0.0, 0.0, 1.0]])
    monkeypatch.setattr(sprays_mod, "_NEWTON_MAX_ITER", 4)
    with pytest.raises(SprayInversionError):
        solve_fiber_many(spray, y, -y)
    # One unreachable row fails the whole batch, even when the others converge.
    pts = sample_variety(spray.base, 8, 18)
    targets = spray.eval_many(pts, sample_fiber(3, 8, rng(19), 0.3))
    targets[5] = -pts[5]
    solve_fiber_many(spray, pts[:5], targets[:5])
    with pytest.raises(SprayInversionError):
        solve_fiber_many(spray, pts, targets)


def test_batched_newton_matches_single_row_solves():
    spray = group_action_spray(SO("SO", 3))
    pts = sample_variety(spray.base, 64, 20)
    targets = spray.eval_many(pts, sample_fiber(3, 64, rng(21), 1.0))
    batch = solve_fiber_many(spray, pts, targets)
    single = np.array([solve_fiber_many(spray, p[None], q[None])[0] for p, q in zip(pts, targets)])
    assert np.max(np.abs(spray.eval_many(pts, batch) - targets)) <= 1e-10
    assert np.max(np.abs(spray.eval_many(pts, batch) - spray.eval_many(pts, single))) <= 1e-10


def test_pinv_step_matches_numpy_pinv_bitwise():
    gen = rng(22)
    # Rank-two (the SO(3) spray on S2: 3 fiber axes onto a 2-dimensional
    # tangent space, plus noise below the cut) and full-rank Jacobians.
    low = gen.standard_normal((64, 6, 2)) @ gen.standard_normal((64, 2, 3))
    for jac in (low + 1e-9 * gen.standard_normal((64, 6, 3)), gen.standard_normal((64, 6, 3))):
        r = gen.standard_normal((64, 6))
        delta, sigma = sprays_mod._pinv_step(jac, r, 2)
        ref = -(np.linalg.pinv(jac, rcond=1e-6) @ r[:, :, None])[:, :, 0]
        np.testing.assert_array_equal(delta, ref)
        np.testing.assert_array_equal(sigma, np.linalg.svd(jac, full_matrices=False)[1][:, 1])


def test_probe_injectivity_radius_reaches_three():
    assert probe_injectivity_radius(stereographic_spray(2)) >= 3.0
    assert probe_injectivity_radius(group_action_spray(SO("SO", 3))) == 0.0  # no inverse


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
