import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from spraylab.degree import fermat_power_self_map
from spraylab.geometry import (
    ShapeError,
    VarietySpec,
    cayley_many,
    deinterleave,
    interleave,
    lie_algebra_basis,
    matrix_to_point,
    membership_residual_many,
    point_to_matrix,
    oriented_sphere_frame_many,
    radial_to_fermat,
    shrink_map,
    sphere_tangent_basis_many,
    unshrink_map,
    variety_tangent_frame,
)
from spraylab.sampling import sample_variety
from spraylab.serialize import dumps_canonical


# ---------------------------------------------------------------------------
# membership
# ---------------------------------------------------------------------------


def test_is_member_unit_basis_vector():
    p = np.array([1.0, 0.0, 0.0])
    assert membership_residual_many(p[None], VarietySpec.sphere(2))[0] <= 1e-12


def test_is_member_identity_in_so3():
    p = np.eye(3).reshape(-1)
    assert membership_residual_many(p[None], VarietySpec.group("SO", 3))[0] <= 1e-12


def test_is_member_rejects_scaled_point():
    p = 1.01 * np.array([1.0, 1.0]) / np.sqrt(2.0)
    assert membership_residual_many(p[None], VarietySpec.sphere(1))[0] > 1e-12


def test_variety_spec_refuses_unknown_kinds():
    with pytest.raises(ValueError, match="unknown variety kind 'torus'"):
        VarietySpec(kind="torus", n=2)


def test_is_member_shape_error():
    with pytest.raises(ShapeError):
        membership_residual_many(np.array([[1.0, 0.0]]), VarietySpec.sphere(2))


def test_sampled_points_pass_membership_everywhere():
    specs = [
        VarietySpec.sphere(3),
        VarietySpec.group("O", 3),
        VarietySpec.group("SO", 4),
        VarietySpec.group("U", 2),
        VarietySpec.group("SU", 3),
    ]
    for spec in specs:
        pts = sample_variety(spec, 200, 0)
        assert np.max(membership_residual_many(pts, spec)) <= 1e-12, spec.label()


def test_su_membership_checks_determinant():
    # diag(i, i) is unitary with det -1: in U(2) but not in SU(2).
    q = np.diag([1j, 1j])
    pt = interleave(q.reshape(-1))[None]
    assert membership_residual_many(pt, VarietySpec.group("U", 2))[0] <= 1e-12
    assert membership_residual_many(pt, VarietySpec.group("SU", 2))[0] > 1e-12


# ---------------------------------------------------------------------------
# Cayley transform
# ---------------------------------------------------------------------------


def test_cayley_at_zero_is_identity():
    np.testing.assert_allclose(cayley_many(np.zeros((2, 2))), np.eye(2), atol=0)


def test_cayley_2x2_hand_value():
    # (I - A)(I + A)^(-1) for A = [[0, 1], [-1, 0]]:
    # I+A = [[1,1],[-1,1]], inverse = 0.5*[[1,-1],[1,1]],
    # product = 0.5*[[0,-2],[2,0]] = [[0,-1],[1,0]].
    a = np.array([[0.0, 1.0], [-1.0, 0.0]])
    np.testing.assert_allclose(cayley_many(a), np.array([[0.0, -1.0], [1.0, 0.0]]), atol=1e-15)


def test_cayley_skew_4x4_orthogonal_and_involutive():
    gen = np.random.default_rng(3)
    raw = gen.uniform(-1.0, 1.0, (4, 4))
    a = raw - raw.T
    q = cayley_many(a)
    np.testing.assert_allclose(q @ q.T, np.eye(4), atol=1e-12)
    np.testing.assert_allclose(cayley_many(q), a, atol=1e-10)


def test_cayley_involution_many_trials():
    gen = np.random.default_rng(11)
    raw = gen.uniform(-1.0, 1.0, (1000, 4, 4))
    a = raw - np.swapaxes(raw, 1, 2)
    assert np.max(np.abs(cayley_many(cayley_many(a)) - a)) <= 1e-10


def test_cayley_skew_input_lands_in_so():
    gen = np.random.default_rng(5)
    for m in (2, 3, 5):
        raw = gen.uniform(-1.0, 1.0, (m, m))
        q = cayley_many(raw - raw.T)
        assert abs(np.linalg.det(q) - 1.0) <= 1e-10


def test_cayley_skew_hermitian_unitary():
    gen = np.random.default_rng(7)
    raw = gen.normal(size=(3, 3)) + 1j * gen.normal(size=(3, 3))
    a = raw - raw.conj().T
    q = cayley_many(a)
    np.testing.assert_allclose(q @ q.conj().T, np.eye(3), atol=1e-12)


@given(st.integers(0, 10_000))
def test_cayley_involution_hypothesis(seed):
    gen = np.random.default_rng(seed)
    raw = gen.uniform(-1.0, 1.0, (3, 3))
    a = raw - raw.T
    assert np.max(np.abs(cayley_many(cayley_many(a)) - a)) <= 1e-10


def _cayley_by_solve(a):
    eye = np.eye(a.shape[-1])
    lhs, rhs = np.swapaxes(eye + a, -1, -2), np.swapaxes(eye - a, -1, -2)
    return np.swapaxes(np.linalg.solve(lhs, rhs), -1, -2)


def _skew_batch(seed, n, m, complex_):
    gen = np.random.default_rng(seed)
    raw = gen.normal(size=(n, m, m))
    if complex_:
        raw = raw + 1j * gen.normal(size=(n, m, m))
    return raw - np.conj(np.swapaxes(raw, -1, -2))


@pytest.mark.parametrize("complex_", [False, True])
@pytest.mark.parametrize("m", [2, 3])
def test_cayley_cofactor_form_matches_a_solve(m, complex_):
    a = _skew_batch(31, 64, m, complex_)
    q = _cayley_by_solve(a)  # orthogonal / unitary: the self-action inverse's input
    assert np.max(np.abs(cayley_many(a) - q)) <= 1e-14
    assert np.max(np.abs(cayley_many(q) - _cayley_by_solve(q))) <= 1e-14


@pytest.mark.parametrize("complex_", [False, True])
@pytest.mark.parametrize("m", [1, 2, 3, 4])
def test_cayley_batch_rows_equal_lone_rows_bitwise(m, complex_):
    a = _skew_batch(32, 64, m, complex_)
    batch = cayley_many(a)
    for i in range(64):
        assert np.array_equal(batch[i], cayley_many(a[i : i + 1])[0])


def test_cayley_2x2_unitary_involution():
    a = _skew_batch(33, 200, 2, True)
    q = cayley_many(a)
    gram = q @ np.conj(np.swapaxes(q, 1, 2))
    np.testing.assert_allclose(gram, np.broadcast_to(np.eye(2), q.shape), atol=1e-13)
    assert np.max(np.abs(cayley_many(q) - a)) <= 1e-10


@pytest.mark.parametrize("m,solves", [(1, 1), (2, 0), (3, 0), (4, 1)])
def test_cayley_solves_only_outside_2x2_and_3x3(m, solves, monkeypatch):
    calls = []
    solve = np.linalg.solve

    def spy(lhs, rhs):
        calls.append(lhs.shape)
        return solve(lhs, rhs)

    monkeypatch.setattr(np.linalg, "solve", spy)
    a = _skew_batch(34, 8, m, False)
    np.testing.assert_allclose(cayley_many(a), _cayley_by_solve(a), rtol=0, atol=1e-14)
    assert len(calls) == solves + 1  # the reference makes one


def test_cayley_singular_identity_plus_a_is_non_finite_for_3x3():
    # A = diag(0, -1, -1) makes I + A singular.
    with np.errstate(all="raise"):
        q = cayley_many(np.diag([0.0, -1.0, -1.0])[None])
    assert not np.any(np.isfinite(q))


# ---------------------------------------------------------------------------
# shrink map
# ---------------------------------------------------------------------------


def test_shrink_fixed_point_and_arithmetic():
    np.testing.assert_array_equal(shrink_map(np.zeros(3), 1.0), np.zeros(3))
    np.testing.assert_allclose(shrink_map(np.array([1.0, 0.0]), 1.0), [0.5, 0.0], atol=0)


def test_shrink_jacobian_at_zero():
    # Central differences of v -> c v / (1 + |v|^2) at v = 0 against c * I.
    c, h = 0.25, 1e-6
    jac = np.empty((3, 3))
    for j in range(3):
        e = np.zeros(3)
        e[j] = h
        jac[:, j] = (shrink_map(e, c) - shrink_map(-e, c)) / (2.0 * h)
    np.testing.assert_allclose(jac, c * np.eye(3), atol=1e-6)


@given(st.lists(st.floats(-50, 50), min_size=1, max_size=6), st.floats(0.01, 10))
def test_shrink_norm_bound(coords, c):
    out = shrink_map(np.array(coords), c)
    assert np.linalg.norm(out) <= c / 2.0 + 1e-15


def test_unshrink_roundtrip():
    v = np.array([0.3, -0.4, 0.1])
    w = shrink_map(v, 0.8)
    np.testing.assert_allclose(unshrink_map(w, 0.8), v, atol=1e-12)


def test_shrink_rejects_bad_input():
    with pytest.raises(ValueError):
        shrink_map(np.array([np.nan]), 1.0)
    with pytest.raises(ValueError):
        shrink_map(np.zeros(2), -1.0)


# ---------------------------------------------------------------------------
# Fermat power maps
# ---------------------------------------------------------------------------


def test_fermat_identity_for_k_one():
    x = np.array([[0.3, -0.9, 0.1]])
    x /= np.linalg.norm(x)
    np.testing.assert_allclose(fermat_power_self_map(1)(x), x, rtol=0, atol=1e-15)


def test_fermat_fixes_basis_vector():
    e1 = np.zeros((1, 4))
    e1[0, 0] = 1.0
    np.testing.assert_array_equal(fermat_power_self_map(3)(e1), e1)


def test_fermat_cubes_land_on_circle():
    # Round-circle points scale onto a^6 + b^6 = 1, whose cubes (a^3, b^3) have unit norm.
    theta = np.linspace(-3.0, 3.0, 17)
    out = fermat_power_self_map(3)(np.column_stack([np.cos(theta), np.sin(theta)]))
    assert np.max(np.abs(np.einsum("ni,ni->n", out, out) - 1.0)) <= 1e-12


def test_fermat_rejects_even_exponent():
    with pytest.raises(ValueError):
        fermat_power_self_map(2)


def test_radial_to_fermat_membership():
    gen = np.random.default_rng(4)
    x = gen.normal(size=(100, 4))
    x /= np.linalg.norm(x, axis=1, keepdims=True)
    pts = radial_to_fermat(x, 6)
    assert np.max(np.abs(np.sum(pts**6, axis=1) - 1.0)) <= 1e-12


# ---------------------------------------------------------------------------
# tangent frames
# ---------------------------------------------------------------------------


def test_tangent_basis_circle_axis():
    np.testing.assert_allclose(
        sphere_tangent_basis_many(np.array([[1.0, 0.0]])), [[[0.0, 1.0]]], atol=0
    )


def test_tangent_basis_sphere_axis():
    t = sphere_tangent_basis_many(np.array([[1.0, 0.0, 0.0]]))
    np.testing.assert_allclose(t, [[[0.0, 1.0, 0.0], [0.0, 0.0, 1.0]]], atol=0)


def test_tangent_basis_orthonormal_s4():
    gen = np.random.default_rng(9)
    p = gen.normal(size=(20, 5))
    p /= np.linalg.norm(p, axis=1, keepdims=True)
    t = sphere_tangent_basis_many(p)
    assert t.shape == (20, 4, 5)
    np.testing.assert_allclose(t @ np.swapaxes(t, 1, 2), np.broadcast_to(np.eye(4), (20, 4, 4)),
                               atol=1e-12)
    assert np.max(np.abs(np.einsum("nri,ni->nr", t, p))) <= 1e-12


def test_oriented_frames_positive():
    gen = np.random.default_rng(10)
    for n in (1, 2, 3, 5):
        p = gen.normal(size=(40, n + 1))
        p /= np.linalg.norm(p, axis=1, keepdims=True)
        frames = oriented_sphere_frame_many(p)
        stacked = np.concatenate([p[:, None, :], frames], axis=1)
        assert np.all(np.linalg.det(stacked) > 0)


def test_tangent_basis_deterministic():
    p = np.array([[0.1, -0.7, 0.7, 0.1]])
    p /= np.linalg.norm(p)
    np.testing.assert_array_equal(sphere_tangent_basis_many(p), sphere_tangent_basis_many(p))


def _gram_schmidt_frame(normal):
    # Drop the axis of largest |normal_i|, Gram-Schmidt the other axes against normal.
    drop = int(np.argmax(np.abs(normal)))
    rows = []
    for seed in np.delete(np.eye(normal.shape[0]), drop, axis=0):
        u = seed - (seed @ normal) * normal
        for r in rows:
            u -= (u @ r) * r
        rows.append(u / np.linalg.norm(u))
    return np.array(rows)


def _frame_reference(p, spec):
    # One point at a time: the per-point frames the batched version replaces.
    if spec.kind == "sphere":
        return _gram_schmidt_frame(p)
    tangents = lie_algebra_basis(spec.kind, spec.m) @ point_to_matrix(p, spec)
    qmat, rmat = np.linalg.qr(matrix_to_point(tangents, spec).T)
    signs = np.sign(np.diag(rmat))
    signs[signs == 0] = 1.0
    return (qmat * signs).T


@pytest.mark.parametrize(
    "spec",
    [
        VarietySpec.sphere(2),
        VarietySpec.group("SO", 3),
        VarietySpec.group("U", 2),
        VarietySpec.group("SU", 2),
    ],
    ids=lambda spec: spec.label(),
)
def test_batched_tangent_frames_match_per_point_loop(spec):
    points = sample_variety(spec, 40, seed=4)
    frames = variety_tangent_frame(points, spec)
    assert frames.shape == (40, spec.dim, spec.ambient_dim)
    ref = np.array([_frame_reference(p, spec) for p in points])
    np.testing.assert_allclose(frames, ref, rtol=0, atol=1e-14)
    gram = frames @ np.swapaxes(frames, 1, 2)
    np.testing.assert_allclose(gram, np.broadcast_to(np.eye(spec.dim), gram.shape), atol=1e-12)


# ---------------------------------------------------------------------------
# realification and canonical JSON
# ---------------------------------------------------------------------------


def test_interleave_roundtrip():
    z = np.array([1.0 + 2.0j, -0.5 + 0.25j])
    np.testing.assert_array_equal(deinterleave(interleave(z)), z)
    np.testing.assert_array_equal(interleave(z), [1.0, 2.0, -0.5, 0.25])


def test_dumps_canonical_refuses_non_finite_and_names_the_field():
    report = {"z": float("nan"), "a": {"ok": 1.0, "rows": [0.5, float("inf")]}}
    with pytest.raises(RuntimeError, match=r"a\.rows\.1$"):
        dumps_canonical(report)


@pytest.mark.parametrize("value", [np.zeros(2), 1.0 + 2.0j, {1.0}])
def test_dumps_canonical_refuses_arrays_complex_and_other_types(value):
    # Reports hold lists and real scalars; anything else is a bug upstream.
    with pytest.raises(TypeError, match="cannot serialize"):
        dumps_canonical({"value": value})
