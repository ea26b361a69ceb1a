from dataclasses import replace

import numpy as np
import pytest

from spraylab.degree import (
    DegeneracyError,
    DegreeOptions,
    DegreeReport,
    InconsistencyError,
    MatrixSphereMap,
    _dedup_points,
    _preimage_count_once,
    _preimage_signs,
    _RegularValueReject,
    a_k,
    ak_matrix_many,
    antipodal_map,
    calibration_sign,
    circle_power_map,
    compress_to_k_block,
    fermat_power_self_map,
    first_column_sphere_map,
    homogeneous_extension,
    identity_map,
    power_map_matrix,
    preimage_count_degree,
    sharp_product,
    sphere_degree,
    unitary_degree,
    verify_ak_identities,
    winding_number,
)
from spraylab import degree as degree_mod
from spraylab.geometry import (
    interleave,
    oriented_sphere_frame_many,
    sphere_tangent_basis_many,
    tangent_probes,
)
from spraylab.sampling import (
    normalize_rows,
    rng,
    sphere_quasi_uniform,
    sphere_quasi_uniform_complex,
)


# ---------------------------------------------------------------------------
# homogeneous extension
# ---------------------------------------------------------------------------


def test_extension_zero_at_origin():
    ext = homogeneous_extension(a_k(2))
    out = ext(np.zeros((1, 2), dtype=complex))
    assert np.max(np.abs(out)) == 0.0


def test_extension_positive_homogeneity():
    ext = homogeneous_extension(a_k(2))
    z = sphere_quasi_uniform_complex(20, 2)
    np.testing.assert_allclose(ext(2.0 * z), 2.0 * ext(z), atol=1e-14)


def test_extension_restricts_to_map():
    f = a_k(3)
    ext = homogeneous_extension(f)
    z = sphere_quasi_uniform_complex(20, 3)
    np.testing.assert_allclose(ext(z), f.eval_many(z), atol=1e-15)


# ---------------------------------------------------------------------------
# sharp product and the a_k family
# ---------------------------------------------------------------------------


def test_a1_is_coordinate():
    z = sphere_quasi_uniform_complex(10, 1)
    np.testing.assert_array_equal(ak_matrix_many(z, 1)[:, 0, 0], z[:, 0])


def test_a2_block_formula():
    z = sphere_quasi_uniform_complex(25, 2)
    mats = ak_matrix_many(z, 2)
    z1, z2 = z[:, 0], z[:, 1]
    np.testing.assert_array_equal(mats[:, 0, 0], z1)
    np.testing.assert_array_equal(mats[:, 0, 1], -np.conj(z2))
    np.testing.assert_array_equal(mats[:, 1, 0], z2)
    np.testing.assert_array_equal(mats[:, 1, 1], np.conj(z1))


def test_sharp_of_two_circle_maps_matches_recursion():
    sp = sharp_product(a_k(1), a_k(1))
    z = sphere_quasi_uniform_complex(50, 2)
    np.testing.assert_allclose(sp.eval_many(z), ak_matrix_many(z, 2), atol=1e-15)
    assert sp.p == 2 and sp.k == 2


def test_sharp_determinant_is_one_on_sphere():
    sp = sharp_product(a_k(1), a_k(1))
    z = sphere_quasi_uniform_complex(200, 2)
    np.testing.assert_allclose(np.linalg.det(sp.eval_many(z)), 1.0, atol=1e-13)


def test_sharp_recursion_extends_to_higher_k():
    sp = sharp_product(a_k(2), a_k(1))
    z = sphere_quasi_uniform_complex(50, 3)
    np.testing.assert_allclose(sp.eval_many(z), ak_matrix_many(z, 3), atol=1e-14)


@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_ak_identwhile_suite(k):
    report = verify_ak_identities(k, n_samples=500, seed=0)
    assert report.passed, report


def test_ak_gram_identity_at_random_points():
    gen = rng(21)
    z = gen.normal(size=(1000, 3)) + 1j * gen.normal(size=(1000, 3))
    z /= np.linalg.norm(z, axis=1)[:, None]
    mats = ak_matrix_many(z, 3)
    gram = mats @ np.conj(np.swapaxes(mats, 1, 2))
    np.testing.assert_allclose(gram, np.broadcast_to(np.eye(4), gram.shape), atol=1e-12)


def test_ak_values_unitary_and_invertible():
    for k in (2, 3, 4):
        f = a_k(k)
        assert f.max_unitarity_defect() <= 1e-12
        assert f.min_abs_det() >= 1.0 - 1e-10


def test_ak_size_cap():
    with pytest.raises(ValueError):
        a_k(7)
    assert a_k(5).p == 16


# ---------------------------------------------------------------------------
# winding and preimage oracles
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("d", range(-3, 4))
def test_circle_degrees_both_methods(d):
    report = sphere_degree(circle_power_map(d), 1)
    assert report.value == d
    assert report.cross_check_value == d  # preimage oracle agreed


def test_winding_number_residual_small():
    value, residual = winding_number(circle_power_map(3))
    assert value == 3 and residual <= 1e-9


def test_identity_degree():
    for n in (2, 3):
        assert sphere_degree(identity_map, n).value == 1


def test_antipodal_degree_s2():
    assert sphere_degree(antipodal_map, 2).value == -1


def test_fermat_pullback_degree():
    assert sphere_degree(fermat_power_self_map(1, 3), 1).value == 1
    assert sphere_degree(fermat_power_self_map(2, 3), 2).value == 1


def test_degree_invariant_under_small_perturbation():
    # Composing with a small tangent-field displacement plus projection is a
    # homotopy, so the computed integer must not move.
    axis = np.array([0.3, 0.5, -0.4])

    def perturbed(x):
        t = axis[None, :] - (x @ axis)[:, None] * x
        moved = x + 1e-3 * t
        moved /= np.linalg.norm(moved, axis=1, keepdims=True)
        return fermat_power_self_map(2, 3)(moved)

    assert sphere_degree(perturbed, 2).value == sphere_degree(fermat_power_self_map(2, 3), 2).value


def test_dimension_cap_enforced():
    with pytest.raises(ValueError):
        sphere_degree(identity_map, 7)


def test_degeneracy_error_on_pinned_critical_value(monkeypatch):
    # theta -> theta + sin(theta) has derivative zero exactly at theta = pi,
    # so a value generator pinned at (-1, 0) only ever proposes a critical
    # value and the redraw loop must give up.
    def folded(x):
        theta = np.arctan2(x[:, 1], x[:, 0])
        a = theta + np.sin(theta)
        return np.column_stack([np.cos(a), np.sin(a)])

    class PinnedGen:
        def standard_normal(self, size):
            return np.array([-1.0, 0.0])

    monkeypatch.setattr(degree_mod, "_MAX_REDRAWS", 3)
    monkeypatch.setattr(degree_mod, "_MIN_JACOBIAN", 1e-4)
    opts = DegreeOptions(n_starts=100)
    starts = sphere_quasi_uniform(100, 1)
    with pytest.raises(DegeneracyError):
        _preimage_count_once(folded, 1, PinnedGen(), starts, opts)


@pytest.mark.parametrize(
    "degree_of, expected",
    [
        (lambda: preimage_count_degree(circle_power_map(2), 1, DegreeOptions()), 2),
        (lambda: sphere_degree(circle_power_map(2), 1), 2),
        (lambda: unitary_degree(power_map_matrix(-2)), -2),
    ],
    ids=["preimage_count", "sphere_degree", "unitary_degree"],
)
def test_redrawn_regular_value_is_reported(degree_of, expected, monkeypatch):
    # On S1 the report is the preimage cross-check's, relabelled around the
    # winding number; its redraws must survive that, also through the column formula.
    calibration_sign()  # cached before any value is rejected
    rejected = []

    def reject_first(*args):
        if not rejected:
            rejected.append(args)
            raise _RegularValueReject("rejected by the test")
        return _preimage_signs(*args)

    monkeypatch.setattr(degree_mod, "_preimage_signs", reject_first)
    report = degree_of()
    assert rejected
    assert (report.value, report.redraws) == (expected, 1)


@pytest.mark.parametrize(
    "degree_of",
    [
        lambda: sphere_degree(circle_power_map(2), 1, DegreeOptions(seed=3)),
        lambda: unitary_degree(power_map_matrix(-2), DegreeOptions(seed=3)),
    ],
    ids=["sphere_degree", "unitary_degree"],
)
def test_circle_report_carries_the_preimage_search(degree_of):
    # The winding report keeps every field of the preimage cross-check it ran,
    # as reports on higher spheres do: basins, start count, Newton residual.
    report = degree_of()
    assert report.method in ("winding", "unitary_formula")
    assert report.winding_residual is not None and report.winding_residual <= 1e-3
    assert report.n_starts == 200
    assert len(report.basin_counts) == len(report.preimages) == abs(report.cross_check_value)
    assert sum(report.basin_counts) <= report.n_starts
    assert report.newton_max_residual <= 1e-10


def test_circle_report_is_the_relabelled_preimage_count():
    opts = DegreeOptions(seed=5)
    counted = preimage_count_degree(circle_power_map(-3), 1, opts)
    report = sphere_degree(circle_power_map(-3), 1, opts)
    residual = winding_number(circle_power_map(-3))[1]
    assert report == replace(counted, method="winding", winding_residual=residual)


def _dedup_reference(points, radius):
    # Point-by-point greedy clustering: the loop the batched version replaces.
    pts = points[np.lexsort(np.round(points, 9).T[::-1])]
    reps, counts = [], []
    for row in pts:
        for i, rep in enumerate(reps):
            if np.linalg.norm(row - rep) <= radius:
                counts[i] += 1
                break
        else:
            reps.append(row)
            counts.append(1)
    return np.array(reps), counts


def test_dedup_matches_pointwise_greedy_loop():
    gen = rng(5)
    centers = sphere_quasi_uniform(6, 3)
    # Chains of points 0.6 radius apart: the first-representative rule decides
    # which cluster each one joins, so order and counts are both exercised.
    pts = np.concatenate(
        [c + 1e-6 * gen.uniform(-0.6, 0.6, (gen.integers(1, 40), 4)) for c in centers]
    )
    pts = pts[gen.permutation(pts.shape[0])]
    reps, counts = _dedup_points(pts, 1e-6)
    ref_reps, ref_counts = _dedup_reference(pts, 1e-6)
    np.testing.assert_array_equal(reps, ref_reps)
    assert counts == ref_counts


def _signs_reference(map_many, preimages, y, fd_step, min_jacobian):
    # One preimage and one frame direction per map call: the loop the batched
    # version replaces.
    frame_y = oriented_sphere_frame_many(y)
    signs, dets = [], []
    for x in preimages:
        cols = []
        for t in oriented_sphere_frame_many(x):
            plus = map_many(normalize_rows((x + fd_step * t)[None]))[0]
            minus = map_many(normalize_rows((x - fd_step * t)[None]))[0]
            cols.append((plus - minus) / (2.0 * fd_step))
        det = float(np.linalg.det(frame_y @ np.stack(cols, axis=1)))
        if abs(det) < min_jacobian:
            raise _RegularValueReject(f"near-singular preimage (|det| = {abs(det):.3e})")
        signs.append(1 if det > 0 else -1)
        dets.append(det)
    return signs, dets


def test_preimage_signs_match_per_point_loop(monkeypatch):
    psi = first_column_sphere_map(compress_to_k_block(a_k(3)))
    points = sphere_quasi_uniform(24, 5)
    y = points[0]
    signs, dets = _preimage_signs(psi, points, y)
    ref_signs, ref_dets = _signs_reference(psi, points, y, 1e-6, 1e-8)
    assert signs == ref_signs and len(set(signs)) == 2
    assert dets == ref_dets
    # A threshold between the determinants rejects, naming the same preimage.
    cut = float(np.median(np.abs(ref_dets)))
    with pytest.raises(_RegularValueReject) as ref_err:
        _signs_reference(psi, points, y, 1e-6, cut)
    monkeypatch.setattr(degree_mod, "_MIN_JACOBIAN", cut)
    with pytest.raises(_RegularValueReject) as err:
        _preimage_signs(psi, points, y)
    assert str(err.value) == str(ref_err.value)


def _fd_tangent_jacobian_reference(map_many, points, values, frames, h):
    # One-sided differences, one frame direction per map call: the loop the
    # Newton search's tangent_probes call replaces.
    cols = []
    for j in range(frames.shape[1]):
        stepped = normalize_rows(points + h * frames[:, j, :])
        cols.append((map_many(stepped) - values) / h)
    return np.stack(cols, axis=2)


def test_newton_jacobian_matches_per_direction_loop():
    psi = first_column_sphere_map(compress_to_k_block(a_k(3)))
    p = sphere_quasi_uniform(64, 5)
    values = psi(p)
    frames = sphere_tangent_basis_many(p)
    h = degree_mod._FD_STEP
    jac = (tangent_probes(psi, p, h * frames) - values[..., None]) / h
    assert jac.shape == (64, 6, 5)
    np.testing.assert_array_equal(jac, _fd_tangent_jacobian_reference(psi, p, values, frames, h))


def test_preimage_count_once_returns_a_report():
    starts = sphere_quasi_uniform(400, 2)
    report = _preimage_count_once(identity_map, 2, rng(0), starts, DegreeOptions())
    assert isinstance(report, DegreeReport)
    assert (report.value, report.method, report.n_starts, report.redraws) == (
        1, "preimage_count", 400, 0
    )
    assert report.signs == [1] and report.basin_counts == [400]


# ---------------------------------------------------------------------------
# the column formula
# ---------------------------------------------------------------------------


def test_calibration_sign_is_cached_and_unit():
    assert calibration_sign() in (-1, 1)
    assert calibration_sign() == calibration_sign()


def test_unitary_degree_a1():
    report = unitary_degree(a_k(1))
    assert report.value == 1 and report.method == "unitary_formula"
    assert report.divisor == 1


@pytest.mark.parametrize("k", [2, 3])
def test_unitary_degree_ak_is_one(k):
    report = unitary_degree(a_k(k))
    assert report.value == 1
    assert report.psi_degree % report.divisor == 0


def test_unitary_degree_power_maps():
    for d in (-2, 3):
        assert unitary_degree(power_map_matrix(d)).value == d


def test_unitary_degree_rejects_small_matrix():
    with pytest.raises(ValueError):
        unitary_degree(MatrixSphereMap(k=2, p=1, eval_many=lambda z: z[:, :1, None]))


def test_divisibility_guard_raises():
    # A synthetic 3-block map whose first column is the identity embedding;
    # its column degree 1 is not divisible by 2! = 2, which the theory
    # forbids for anything actually continuous into invertible 3-blocks, so
    # the guard must fire.
    def eval_many(z):
        n = z.shape[0]
        out = np.broadcast_to(np.eye(3, dtype=complex), (n, 3, 3)).copy()
        out[:, :, 0] = z
        return out

    fake = MatrixSphereMap(k=3, p=3, eval_many=eval_many)
    with pytest.raises(InconsistencyError):
        unitary_degree(fake)


# ---------------------------------------------------------------------------
# compression to the k-block
# ---------------------------------------------------------------------------


def test_compress_requires_unitary_values():
    scaled = MatrixSphereMap(k=3, p=4, eval_many=lambda z: 2.0 * ak_matrix_many(z, 3))
    with pytest.raises(ValueError):
        compress_to_k_block(scaled)


def test_compress_a3_closed_form_column():
    # With the missed point pinned at e1, the two explicit rotations send
    # the last column (0, -conj z3, conj z2, z1) to e4 and carry the first
    # column (z1, z2, z3, 0) to (z1^2, z2 - z1 conj z3, z3 + z1 conj z2, 0);
    # the derivation is a direct expansion of the two rank-two rotation
    # formulas.  Frozen here as an independent check on the generic code.
    reduced = compress_to_k_block(a_k(3), missed_points=[np.array([1.0, 0, 0, 0], complex)])
    z = sphere_quasi_uniform_complex(100, 3)
    col = reduced.eval_many(z)[:, :, 0]
    expected = np.stack(
        [
            z[:, 0] ** 2,
            z[:, 1] - z[:, 0] * np.conj(z[:, 2]),
            z[:, 2] + z[:, 0] * np.conj(z[:, 1]),
        ],
        axis=1,
    )
    np.testing.assert_allclose(col, expected, atol=1e-13)
    # unit norm comes for free from unitarity of the compressed map
    np.testing.assert_allclose(np.linalg.norm(col, axis=1), 1.0, atol=1e-13)


def test_compress_output_is_unitary():
    reduced = compress_to_k_block(a_k(3))
    assert reduced.p == 3
    assert reduced.max_unitarity_defect() <= 1e-10


def test_compressed_column_degree_is_two():
    reduced = compress_to_k_block(a_k(3))
    psi = first_column_sphere_map(reduced)
    assert sphere_degree(psi, 5).value == 2


def _dense_rotation(a, b):
    # The p-by-p unitaries I + rank two taking each row of a to the matching
    # row of b, built as full matrices: the reference for the column chain.
    mu = np.einsum("ni,ni->n", np.conj(a), b)
    v = b - mu[:, None] * a
    s = np.linalg.norm(v, axis=1)
    n = v / s[:, None]
    outer = lambda x, y: x[:, :, None] * np.conj(y)[:, None, :]
    return (
        np.eye(a.shape[1])
        + (mu - 1.0)[:, None, None] * outer(a, a)
        + (np.conj(mu) - 1.0)[:, None, None] * outer(n, n)
        + s[:, None, None] * (outer(n, a) - outer(a, n))
    )


def test_compress_a4_first_column_matches_dense_reference():
    def unit(v):
        v = np.asarray(v, dtype=complex)
        return v / np.linalg.norm(v)

    pinned = [
        unit([1, 1j, 0, 0, 0, 0, 0, 0.5]),
        unit([1, 0, 1j, 0, 0, 0, 0]),
        unit([1, 0, 0, 1j, 0, 0]),
        unit([1, 0, 0, 0, 1j]),
    ]
    z = sphere_quasi_uniform_complex(200, 4)
    mats = a_k(4).eval_many(z)
    for point in pinned:
        q = mats.shape[1]
        b = np.broadcast_to(-point, (z.shape[0], q))
        e_last = np.broadcast_to(np.eye(q, dtype=complex)[q - 1], (z.shape[0], q))
        rotated = _dense_rotation(b, e_last) @ _dense_rotation(mats[:, :, q - 1], b) @ mats
        mats = rotated[:, : q - 1, : q - 1]
    reduced = compress_to_k_block(a_k(4), missed_points=pinned)
    assert reduced.p == 4
    col = reduced.eval_columns(z, [0])[:, :, 0]
    np.testing.assert_allclose(col, mats[:, :, 0], rtol=0, atol=1e-13)
    np.testing.assert_allclose(reduced.eval_many(z), mats, rtol=0, atol=1e-13)


@pytest.mark.parametrize("k", [3, 4])
def test_compressed_column_does_not_depend_on_batch_size(k):
    reduced = compress_to_k_block(a_k(k))
    z = sphere_quasi_uniform_complex(24, k)
    batch = reduced.eval_columns(z, [0])
    for i in range(24):
        np.testing.assert_array_equal(reduced.eval_columns(z[i : i + 1], [0])[0], batch[i])


def _ak_by_concatenation(z, k):
    # The block recursion built by concatenating broadcast identity blocks.
    cur = z[:, 0][:, None, None].copy()
    for j in range(1, k):
        zj = z[:, j][:, None, None]
        eye = np.broadcast_to(np.eye(cur.shape[1], dtype=complex), cur.shape)
        top = np.concatenate([cur, -np.conj(zj) * eye], axis=2)
        bot = np.concatenate([zj * eye, np.conj(np.swapaxes(cur, 1, 2))], axis=2)
        cur = np.concatenate([top, bot], axis=1)
    return cur


@pytest.mark.parametrize("k", [1, 2, 3, 4, 5])
def test_ak_matrix_matches_concatenated_recursion(k):
    gen = rng(k)
    z = gen.standard_normal((40, k)) + 1j * gen.standard_normal((40, k))
    mats = ak_matrix_many(z, k)
    ref = _ak_by_concatenation(z, k)
    assert mats.shape == ref.shape == (40, 2 ** (k - 1), 2 ** (k - 1))
    assert np.all(mats == ref)


def test_compress_draws_the_missed_point_samples_once(monkeypatch):
    counts = []
    draw = degree_mod.sphere_quasi_uniform_complex

    def spy(count, k):
        counts.append(count)
        return draw(count, k)

    monkeypatch.setattr(degree_mod, "sphere_quasi_uniform_complex", spy)
    assert compress_to_k_block(a_k(4)).p == 4
    assert counts.count(4096) == 1
    assert len(counts) == 6  # unitarity check, missed-point samples, 4 candidate sets


def test_compress_missed_point_on_column_line_raises():
    # The last column of a_3 at z = e1 is e4, so a missed point pinned at e4
    # puts that column on the complex line of -missed: the rotation field
    # degenerates there and evaluation must refuse.
    reduced = compress_to_k_block(a_k(3), missed_points=[np.array([0, 0, 0, 1.0], complex)])
    z0 = np.array([[1.0, 0.0, 0.0]], dtype=complex)
    with pytest.raises(ValueError, match="degenerates"):
        reduced.eval_many(z0)
    with pytest.raises(ValueError, match="degenerates"):
        first_column_sphere_map(reduced)(interleave(z0))


@pytest.mark.parametrize(
    "name, f, psi_degree, signs, basin_counts",
    [
        ("a_2", a_k(2), 1, [1], [600]),
        ("a_3", a_k(3), 2, [1, 1], [518, 482]),
        ("z^2#a_2", sharp_product(power_map_matrix(2), a_k(2)), 4, [1, 1, 1, 1],
         [246, 181, 185, 234]),
    ],
)
def test_unitary_degree_frozen_preimage_data(name, f, psi_degree, signs, basin_counts):
    # Frozen from the dense-rotation implementation with full-batch Newton:
    # the column chain and the active-set search must find the same basins.
    report = unitary_degree(f, DegreeOptions(seed=11))
    assert report.psi_degree == psi_degree
    assert report.signs == signs
    assert report.basin_counts == basin_counts


@pytest.mark.slow
def test_divisibility_k4():
    report = unitary_degree(a_k(4), DegreeOptions(max_dim=7, n_starts=1600))
    assert report.psi_degree % 6 == 0
    assert report.value == 1


# ---------------------------------------------------------------------------
# multiplicativity
# ---------------------------------------------------------------------------


def test_degree_multiplicativity_family():
    g = a_k(1)
    dg = unitary_degree(g).value
    for f in (a_k(1), power_map_matrix(2), power_map_matrix(-1)):
        df = unitary_degree(f).value
        assert unitary_degree(sharp_product(f, g)).value == df * dg


def test_sharp_a2_a1_degree_one():
    # a_2 # a_1 realizes the k = 3 member of the family; its degree through
    # the compression pipeline must also be 1.
    report = unitary_degree(sharp_product(a_k(2), a_k(1)))
    assert report.value == 1


def test_report_is_jsonable():
    import json

    from spraylab.serialize import jsonable

    report = unitary_degree(a_k(2))
    payload = json.dumps(jsonable(report))
    assert '"unitary_formula"' in payload
    assert '"calibration_sign"' in payload
