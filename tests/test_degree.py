import math
import os
import subprocess
import sys
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from spraylab.degree import (
    DegeneracyError,
    DegreeOptions,
    DegreeReport,
    InconsistencyError,
    MatrixSphereMap,
    _preimage_count_once,
    _preimage_signs,
    _RegularValueReject,
    UnitaryDegreeReport,
    a_k,
    ak_matrix_many,
    antipodal_map,
    bott_degree,
    calibration_sign,
    circle_power_map,
    compress_to_k_block,
    fermat_power_self_map,
    first_column_sphere_map,
    homogeneous_extension,
    identity_map,
    power_map_matrix,
    preimage_count_degree,
    quaternion_power_map,
    sharp_product,
    sphere_degree,
    unitary_degree,
    verify_ak_identities,
    winding_number,
)
from spraylab import degree as degree_mod
from spraylab.approx import PolynomialMap, sphere_exponents
from spraylab.geometry import (
    VarietySpec,
    interleave,
    matrix_to_point,
    membership_residual_many,
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
from spraylab.serialize import dumps_canonical


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


@pytest.mark.parametrize("k", [1, 2, 3, 4, 5])
def test_ak_identity_suite(k):
    report = verify_ak_identities(k, n_samples=500, seed=0)
    assert report.passed, report


# One row per block, and one block holding every sample.
_AK_BLOCKS = [1, 1 << 30]


@pytest.mark.parametrize("entries", _AK_BLOCKS)
@pytest.mark.parametrize("k", [1, 2, 3, 4, 5])
def test_ak_identity_report_does_not_depend_on_the_block_size(k, entries, monkeypatch):
    # 37 samples are not a multiple of any block, so the last block is short.
    blocked = dumps_canonical(verify_ak_identities(k, n_samples=37, seed=3))
    monkeypatch.setattr(degree_mod, "_AK_BLOCK_ENTRIES", entries)
    assert dumps_canonical(verify_ak_identities(k, n_samples=37, seed=3)) == blocked


@pytest.mark.parametrize("entries", _AK_BLOCKS + [16**3])
@pytest.mark.parametrize("k", [2, 5])
def test_ak_identities_fail_on_a_wrong_value_at_the_last_sample(k, entries, monkeypatch):
    # a_k is wrong only at the last row of each stack the check evaluates in
    # one block: u, v, their combination and the sphere points.  At k = 5,
    # 16^3 entries make blocks of 16 rows, so the last sample is in a tail of 5.
    last = []

    def record(z, k):
        last.append(z[-1].copy())
        return ak_matrix_many(z, k)

    monkeypatch.setattr(degree_mod, "_AK_BLOCK_ENTRIES", 1 << 30)
    monkeypatch.setattr(degree_mod, "ak_matrix_many", record)
    assert verify_ak_identities(k, n_samples=37, seed=3).passed
    monkeypatch.undo()

    def wrong(z, k):
        mats = ak_matrix_many(z, k)
        hit = np.any([np.all(z == row, axis=1) for row in last], axis=0)
        mats[hit] *= 1.0 + 1e-6
        return mats

    monkeypatch.setattr(degree_mod, "_AK_BLOCK_ENTRIES", entries)
    monkeypatch.setattr(degree_mod, "ak_matrix_many", wrong)
    report = verify_ak_identities(k, n_samples=37, seed=3)
    assert not report.passed
    assert min(report.gram_identity_max, report.unitary_membership_max) > 1e-7, report


def test_ak_identities_refuse_no_samples():
    with pytest.raises(ValueError, match="n_samples must be >= 1"):
        verify_ak_identities(2, n_samples=0)


def test_ak_gram_identity_at_random_points():
    gen = rng(21)
    z = gen.normal(size=(1000, 3)) + 1j * gen.normal(size=(1000, 3))
    z /= np.linalg.norm(z, axis=1)[:, None]
    mats = ak_matrix_many(z, 3)
    gram = mats @ np.conj(np.swapaxes(mats, 1, 2))
    np.testing.assert_allclose(gram, np.broadcast_to(np.eye(4), gram.shape), atol=1e-12)


def _max_unitarity_defect(f):
    unitary = VarietySpec.group("U", f.p)
    values = f.eval_many(sphere_quasi_uniform_complex(256, f.k))
    return float(np.max(membership_residual_many(matrix_to_point(values, unitary), unitary)))


def test_ak_values_unitary_and_invertible():
    for k in (2, 3, 4):
        f = a_k(k)
        assert _max_unitarity_defect(f) <= 1e-12
        assert f.min_abs_det() >= 1.0 - 1e-10


def test_ak_size_cap():
    with pytest.raises(ValueError):
        a_k(7)
    assert a_k(5).p == 16


@pytest.mark.parametrize("k,message", [(0, "k must be >= 1"), (7, "exceeds the size cap 6")])
def test_ak_identities_refuse_k_outside_the_cap_before_drawing(k, message, monkeypatch):
    seeds = []
    monkeypatch.setattr(degree_mod, "rng", lambda seed: seeds.append(seed) or rng(seed))
    with pytest.raises(ValueError, match=message):
        verify_ak_identities(k, n_samples=8)
    assert seeds == []


# ---------------------------------------------------------------------------
# winding and preimage oracles
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("d", range(-3, 4))
def test_circle_degrees_both_methods(d):
    report = sphere_degree(circle_power_map(d), 1)
    assert report.value == d
    assert report.cross_check_value == d  # preimage oracle agreed


def test_winding_number_residual_small():
    value, residual, _ = winding_number(circle_power_map(3))
    assert value == 3 and residual <= 1e-9


def test_identity_degree():
    for n in (2, 3):
        assert sphere_degree(identity_map, n).value == 1


def test_antipodal_degree_s2():
    assert sphere_degree(antipodal_map, 2).value == -1


def test_fermat_pullback_degree():
    assert sphere_degree(fermat_power_self_map(3), 1).value == 1
    assert sphere_degree(fermat_power_self_map(3), 2).value == 1


def test_quaternion_power_map_is_the_closed_form_power():
    q = sphere_quasi_uniform(200, 3)
    theta = np.arccos(np.clip(q[:, 0], -1.0, 1.0))
    axis = q[:, 1:] / np.sin(theta)[:, None]
    for d in (-3, 0, 2, 5):
        closed = np.column_stack([np.cos(d * theta), np.sin(d * theta)[:, None] * axis])
        np.testing.assert_allclose(quaternion_power_map(d)(q), closed, rtol=0, atol=1e-12)


@pytest.mark.parametrize("d", [2, 3, 5])
def test_quaternion_power_degree(d):
    # q^5 has five preimages, some with basins of a few starts in 600.
    for seed in range(8):
        assert sphere_degree(quaternion_power_map(d), 3, DegreeOptions(seed=seed)).value == d


@pytest.mark.parametrize("d,seed", [(11, 2), (11, 4), (12, 3), (12, 5)])
def test_high_quaternion_powers_never_get_a_wrong_degree(d, seed):
    # A quasi-uniform Newton search read 10, 10, 11 and 11 here: it missed a
    # basin.  The mesh count has no basin to miss, so a degree must be right
    # or refused.
    try:
        value = sphere_degree(quaternion_power_map(d), 3, DegreeOptions(seed=seed)).value
    except (DegeneracyError, InconsistencyError):
        return
    assert value == d


_BUBBLE_CENTER = normalize_rows(np.array([-0.59006, -0.219403, 0.768311, 0.115715]))


def _bubble_map(rho):
    """The identity of S3 outside the geodesic cap of radius rho about c; inside, the point
    at distance s rho from c in the unit tangent direction u goes to cos(a) c + sin(a) u,
    a = 2 pi (1 - s) + rho s.  The cap wraps once more around S3: degree -1 for every rho."""

    def many(x):
        cos_d = np.clip(x @ _BUBBLE_CENTER, -1.0, 1.0)
        s = np.arccos(cos_d)[:, None] / rho
        tangent = x - cos_d[:, None] * _BUBBLE_CENTER
        norm = np.linalg.norm(tangent, axis=1, keepdims=True)
        u = np.divide(tangent, norm, out=np.zeros_like(tangent), where=norm > 0)
        alpha = 2.0 * np.pi * (1.0 - s) + rho * s
        return np.where(s < 1.0, np.cos(alpha) * _BUBBLE_CENTER + np.sin(alpha) * u, x)

    return many


@pytest.mark.parametrize("seed", [0, 1])
def test_a_wide_bubble_map_has_degree_minus_one(seed):
    report = sphere_degree(_bubble_map(1.0), 3, DegreeOptions(seed=seed))
    assert (report.value, report.mesh_cells) == (-1, 16)


@pytest.mark.xfail(
    strict=True,
    reason="the mesh gate reads vertex spreads only, so a cap narrower than a cell is"
    " invisible and levels 4/8 certify 1; ROADMAP item 18 certifies with a Lipschitz bound",
)
def test_a_narrow_bubble_map_never_gets_a_wrong_degree():
    for seed in range(8):
        try:
            value = sphere_degree(_bubble_map(0.05), 3, DegreeOptions(seed=seed)).value
        except (DegeneracyError, InconsistencyError):
            continue
        assert value == -1, seed


# q^20 after a reflection of R^4, with a bump added in the target along e_2
# and renormalized: |bump| <= 0.9 < 1, so the sum never vanishes and the
# map is homotopic to q^20 o R, of degree -20.  A 400-start Newton search
# read -16 at seed 0.
_MIRROR_NORMAL = normalize_rows(np.array([0.3, -0.7, 0.5, 0.4]))
_REFLECTION = np.eye(4) - 2.0 * np.outer(_MIRROR_NORMAL, _MIRROR_NORMAL)  # det -1
_BUMP_CENTER = normalize_rows(np.array([0.2, 0.6, -0.3, 0.7]))


def _asymmetric_minus_twenty(x):
    out = quaternion_power_map(20)(x @ _REFLECTION.T)
    out[:, 2] += 0.9 * np.exp(-4.0 * np.sum((x - _BUMP_CENTER) ** 2, axis=1))
    return normalize_rows(out)


@pytest.mark.parametrize(
    "f, n, expected",
    [
        pytest.param(_asymmetric_minus_twenty, 3, -20, marks=pytest.mark.slow),
        pytest.param(quaternion_power_map(-3), 3, -3, marks=pytest.mark.slow),
        (fermat_power_self_map(5), 4, 1),
    ],
    ids=["asymmetric-minus-twenty", "q^-3", "fermat-5-on-S4"],
)
def test_mesh_degrees_are_right_or_refused(f, n, expected):
    for seed in range(8):
        try:
            value = sphere_degree(f, n, DegreeOptions(seed=seed)).value
        except (DegeneracyError, InconsistencyError):
            continue
        assert value == expected, seed


@pytest.mark.parametrize("n, m", [(2, 4), (3, 4), (4, 2)])
def test_mesh_counts_the_identity_once_and_the_antipodal_map_with_its_sign(n, m):
    identity = degree_mod._mesh_level(identity_map, n, m)
    antipodal = degree_mod._mesh_level(antipodal_map, n, m)
    for y in normalize_rows(rng(n).standard_normal((64, n + 1))):
        count, starts = degree_mod._mesh_count(identity, y)
        assert count == 1 and len(starts) == 1
        assert degree_mod._mesh_count(antipodal, y)[0] == (-1) ** (n + 1)


@pytest.mark.parametrize(
    "f, n, m", [(quaternion_power_map(2), 3, 8), (fermat_power_self_map(3), 2, 8)],
    ids=["q^2", "fermat-3"],
)
def test_mesh_count_does_not_depend_on_the_vertex_order(f, n, m):
    level = degree_mod._mesh_level(f, n, m)
    mesh = level.mesh
    gen = rng(1)
    order = np.argsort(gen.random(mesh.simplices.shape), axis=1)
    simplices = np.take_along_axis(mesh.simplices, order, axis=1)
    signs = np.sign(np.linalg.det(mesh.vertices[simplices])).astype(np.int8)
    shuffled = replace(level, mesh=replace(mesh, simplices=simplices, signs=signs))
    assert not np.array_equal(signs, mesh.signs)
    degree = sphere_degree(f, n).value
    for y in normalize_rows(gen.standard_normal((8, n + 1))):
        assert degree_mod._mesh_count(shuffled, y)[0] == degree_mod._mesh_count(level, y)[0] == degree


def test_mesh_count_rejects_a_value_on_a_face():
    # The identity's image of a vertex is that vertex, on a face of every
    # simplex around it.
    level = degree_mod._mesh_level(identity_map, 3, 4)
    with pytest.raises(_RegularValueReject, match="on a face"):
        degree_mod._mesh_count(level, level.mesh.vertices[7])


def test_a_map_into_a_cap_counts_zero_without_a_preimage():
    def into_a_cap(x):
        return normalize_rows(x + np.array([1.5, 0.0, 0.0]))

    reports = [sphere_degree(into_a_cap, 2, DegreeOptions(seed=seed)) for seed in range(4)]
    assert all(report.value == 0 for report in reports)
    # The cap is x_0 >= sqrt(5) / 3; a y below it has no preimage and no hit.
    missed = [r for r in reports if r.regular_value[0] < 0.7]
    assert missed and all((r.n_starts, r.preimages) == (0, []) for r in missed)


def test_mesh_report_fields():
    report = sphere_degree(quaternion_power_map(2), 3, DegreeOptions(seed=4))
    assert isinstance(report, degree_mod.MeshDegreeReport)
    assert (report.value, report.method, report.cross_check_value) == (2, "mesh_count", 2)
    # One Newton start per hit simplex, each converging to a preimage of its own.
    assert report.n_starts == len(report.preimages) == 2 and report.basin_counts == [1, 1]
    assert report.mesh_cells == 8 and report.mesh_spread < degree_mod._MESH_GATE
    assert report.lipschitz_source == "sampled_spread"
    assert report.newton_max_residual <= 1e-10
    assert report.regular_value == list(normalize_rows(rng(4).standard_normal(4)))


def test_mesh_levels_evaluate_the_map_once_each():
    rows = []

    def counted(x):
        rows.append(len(x))
        return quaternion_power_map(3)(x)

    report = sphere_degree(counted, 3)
    cells = [4, 8, 16, 32]
    assert report.mesh_cells == 16
    vertices = [len(degree_mod.sphere_mesh(3, m).vertices) for m in cells]
    assert rows[: len(cells)] == vertices
    assert max(rows[len(cells):]) <= report.n_starts


def test_mesh_refuses_past_its_cap(monkeypatch):
    monkeypatch.setattr(degree_mod, "_MESH_CAP", degree_mod.mesh_size(3, 16))
    with pytest.raises(DegeneracyError, match="agreed by 16 cells per edge on S3"):
        sphere_degree(quaternion_power_map(5), 3)


def test_mesh_count_disagreeing_with_newton_raises(monkeypatch):
    real = degree_mod._mesh_count

    def one_too_many(level, y):
        count, starts = real(level, y)
        return count + 1, starts

    monkeypatch.setattr(degree_mod, "_mesh_count", one_too_many)
    with pytest.raises(InconsistencyError, match="preimage count 1 disagrees with the cross-check 2"):
        sphere_degree(identity_map, 2)


def test_located_preimages_without_a_cross_check_are_refused_before_any_evaluation():
    rows = []

    def counted(x):
        rows.append(len(x))
        return identity_map(x)

    y = normalize_rows(np.array([0.3, -0.4, 0.8]))
    with pytest.raises(ValueError, match="need a cross_check"):
        preimage_count_degree(counted, 2, DegreeOptions(), located=(y, y[None]))
    assert rows == []


def test_mesh_degree_guards_no_map_twice(monkeypatch):
    real, guarded = degree_mod._finite, []

    def recording(map_many, *args):
        assert not any(map_many is g for g in guarded), "a guarded map was guarded again"
        guarded.append(real(map_many, *args))
        return guarded[-1]

    monkeypatch.setattr(degree_mod, "_finite", recording)
    assert sphere_degree(quaternion_power_map(2), 3, DegreeOptions(seed=4)).value == 2
    assert len(guarded) == 2  # the mesh levels' map and the Newton search's


def test_sphere_degree_refuses_n_starts_where_it_counts_on_a_mesh():
    # S1 counts the winding grid's crossings and S2 to S4 a mesh's hits, so
    # neither starts a quasi-uniform search; psi of a k = 1 map is an S1 map.
    for n in (1, 2, 3, 4):
        with pytest.raises(ValueError, match=f"n_starts does not apply on S{n}"):
            sphere_degree(identity_map, n, DegreeOptions(n_starts=5))
    with pytest.raises(ValueError, match="n_starts does not apply on S1, whose degree is a crossing"):
        unitary_degree(power_map_matrix(2), DegreeOptions(n_starts=5))
    assert sphere_degree(identity_map, 5, DegreeOptions(n_starts=50)).n_starts == 50


def test_degree_invariant_under_small_perturbation():
    # Composing with a small tangent-field displacement plus projection is a
    # homotopy, so the computed integer must not move.
    axis = np.array([0.3, 0.5, -0.4])

    def perturbed(x):
        t = axis[None, :] - (x @ axis)[:, None] * x
        moved = x + 1e-3 * t
        moved /= np.linalg.norm(moved, axis=1, keepdims=True)
        return fermat_power_self_map(3)(moved)

    assert sphere_degree(perturbed, 2).value == sphere_degree(fermat_power_self_map(3), 2).value


def test_dimension_cap_enforced():
    with pytest.raises(ValueError):
        sphere_degree(identity_map, 7)


def test_options_refuse_fewer_than_one_start():
    with pytest.raises(ValueError, match="n_starts must be >= 1, got 0"):
        DegreeOptions(n_starts=0)
    assert DegreeOptions(n_starts=1).n_starts == 1


def test_disagreeing_regular_values_raise(monkeypatch):
    values = iter([1, 3])

    def count_once(*args):
        return DegreeReport(value=next(values), method="preimage_count", n=1, seed=0)

    monkeypatch.setattr(degree_mod, "_preimage_count_once", count_once)
    with pytest.raises(InconsistencyError, match="disagree across regular values: 1 vs 3"):
        preimage_count_degree(circle_power_map(2), 1, DegreeOptions())


def test_winding_disagreeing_with_the_preimage_count_raises(monkeypatch):
    # The winding number is the cross-check of both the grid's crossing count
    # and Newton's count from the crossings, so either disagreement is refused.
    real = winding_number

    def winding_three(map_many):
        return (3, 0.0, real(map_many)[2])

    monkeypatch.setattr(degree_mod, "winding_number", winding_three)
    with pytest.raises(InconsistencyError, match="crossing count 2 disagrees with the winding number 3"):
        sphere_degree(circle_power_map(2), 1)

    def crossings_three(map_many):
        crossings = real(map_many)[2]
        return (3, 0.0, lambda y: (3, crossings(y)[1]))

    monkeypatch.setattr(degree_mod, "winding_number", crossings_three)
    with pytest.raises(InconsistencyError, match="preimage count 2 disagrees with the cross-check 3"):
        sphere_degree(circle_power_map(2), 1)


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


def test_fold_value_is_rejected_by_preimage_separation():
    # At the fold value (-1, 0) of theta -> theta + sin(theta), Newton stops
    # 3e-4 to 4e-4 short of theta = pi, at dozens of points about 1e-6 apart.
    # Their Jacobians (~6e-8) clear the default floor, so only their spacing
    # shows that the value is critical.
    def folded(x):
        theta = np.arctan2(x[:, 1], x[:, 0])
        a = theta + np.sin(theta)
        return np.column_stack([np.cos(a), np.sin(a)])

    class PinnedGen:
        def standard_normal(self, size):
            return np.array([-1.0, 0.0])

    starts = sphere_quasi_uniform(100, 1)
    with pytest.raises(DegeneracyError):
        _preimage_count_once(folded, 1, PinnedGen(), starts, DegreeOptions(n_starts=100))


@pytest.mark.parametrize(
    "degree_of, expected",
    [
        (lambda: preimage_count_degree(circle_power_map(2), 1, DegreeOptions()), 2),
        (lambda: sphere_degree(circle_power_map(2), 1), 2),
        (lambda: unitary_degree(power_map_matrix(-2)), -2),
        (lambda: sphere_degree(antipodal_map, 2), -1),
    ],
    ids=["preimage_count", "sphere_degree", "unitary_degree", "sphere_degree-mesh"],
)
def test_redrawn_regular_value_is_reported(degree_of, expected, monkeypatch):
    # On S1 the report is the preimage count's, relabelled around the winding
    # number; its redraws must survive that, also through the column formula.
    # On S2 a y the Newton refinement rejects is redrawn, mesh count and all.
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
    # A circle report keeps every field of the preimage count it ran, as
    # reports on higher spheres do: basins, start count, Newton residual.
    # Both add the residual of the winding number that checked the count.
    # Newton starts once per crossing of the grid, and z^2 and z^-2 turn one
    # way, so every start is a preimage of its own.
    report = degree_of()
    assert report.winding_residual is not None and report.winding_residual <= 1e-3
    if report.method == "unitary_formula":
        assert report.integral_mean is report.integral_spread is report.integral_points is None
    assert report.n_starts == len(report.preimages) == abs(report.cross_check_value) == 2
    assert report.basin_counts == [1, 1]
    assert report.newton_max_residual <= 1e-10


def test_circle_report_is_the_relabelled_preimage_count():
    # The count Newton refines from the crossings of the seed's first value.
    opts = DegreeOptions(seed=5)
    value, residual, crossings = winding_number(circle_power_map(-3))
    y = normalize_rows(rng(5).standard_normal(2))
    located = (y, crossings(y)[1])
    counted = preimage_count_degree(circle_power_map(-3), 1, opts, cross_check=value, located=located)
    report = sphere_degree(circle_power_map(-3), 1, opts)
    assert report == replace(counted, method="winding", winding_residual=residual)
    assert report.regular_value == list(y) and report.redraws == 0


def _dedup_reference(points, radius):
    # Point-by-point greedy clustering in lexicographic order: the clustering
    # the Newton search's registry must reproduce.
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


def _signs_reference(map_many, preimages, y, fd_step, min_jacobian):
    # One preimage and one frame direction per map call: the loop the batched
    # version replaces.
    frame_y = oriented_sphere_frame_many(y[None])[0]
    signs, dets = [], []
    for x in preimages:
        cols = []
        for t in oriented_sphere_frame_many(x[None])[0]:
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


def _newton_reference(map_many, y, starts, max_iter=60):
    # The search with no retirement: every row steps until it converges or
    # until max_iter, the budget the search had before rows were retired.
    x, resid, idx = starts.copy(), np.empty(starts.shape[0]), np.arange(starts.shape[0])
    h = degree_mod._FD_STEP
    for it in range(max_iter + 1):
        p = normalize_rows(x[idx])
        x[idx] = p
        values = map_many(p)
        resid[idx] = np.linalg.norm(values - y, axis=1)
        active = resid[idx] > degree_mod._NEWTON_TOL
        if it == max_iter or not np.any(active):
            return x, resid
        idx, p, values = idx[active], p[active], values[active]
        frames = sphere_tangent_basis_many(p)
        jac = _fd_tangent_jacobian_reference(map_many, p, values, frames, h)
        gram = np.swapaxes(jac, 1, 2) @ jac + 1e-14 * np.eye(frames.shape[1])
        rhs = np.einsum("naj,na->nj", jac, y - values)
        step = np.einsum("nj,nja->na", np.linalg.solve(gram, rhs[..., None])[..., 0], frames)
        norms = np.linalg.norm(step, axis=1)
        step[norms > 0.5] *= (0.5 / norms[norms > 0.5])[:, None]
        x[idx] = normalize_rows(p + step)


@pytest.mark.parametrize(
    "f",
    [sharp_product(power_map_matrix(d), a_k(2)) for d in (2, 3)] + [a_k(3)],
    ids=["z^2#a_2", "z^3#a_2", "a_3"],
)
def test_registry_clusters_as_the_pointwise_greedy_loop(f):
    # The search's registry is the only clustering of its endpoints: the
    # report's preimages and basins are the greedy loop's over the rows that
    # joined a preimage.  z^3#a_2's preimages come in another order when
    # ranked by row index, so the lexicographic rank is exercised.
    psi = first_column_sphere_map(compress_to_k_block(f))
    n = 2 * f.k - 1
    starts = sphere_quasi_uniform(200 * n, n)
    y = normalize_rows(rng(11).standard_normal(n + 1))  # the first value at seed 11
    x, _, owner = degree_mod._newton_preimages(psi, y, starts)
    report = _preimage_count_once(psi, n, rng(11), starts, DegreeOptions(seed=11))
    assert report.redraws == 0 and report.regular_value == list(y)
    ref_preimages, ref_counts = _dedup_reference(x[owner >= 0], degree_mod._DEDUP_RADIUS)
    np.testing.assert_array_equal(np.array(report.preimages), ref_preimages)
    assert report.basin_counts == ref_counts and len(ref_counts) >= 2


@pytest.mark.parametrize(
    "f", [sharp_product(power_map_matrix(2), a_k(2)), a_k(3)], ids=["z^2#a_2", "a_3"]
)
def test_retired_rows_converge_to_their_preimage_without_retirement(f):
    psi = first_column_sphere_map(compress_to_k_block(f))
    n = 2 * f.k - 1
    starts = sphere_quasi_uniform(200 * n, n)
    y = normalize_rows(rng(11).standard_normal(n + 1))  # the first value at seed 11
    x, resid, owner = degree_mod._newton_preimages(psi, y, starts)
    ref_x, ref_resid = _newton_reference(psi, y, starts)
    # A retired row holds its preimage's point bit for bit, like the row that
    # converged to it: rows sharing a point are that row and its retirees.
    _, group, sizes = np.unique(x, axis=0, return_inverse=True, return_counts=True)
    shared = sizes[group.ravel()] > 1
    assert np.count_nonzero(shared) > starts.shape[0] // 4
    assert np.all(resid[shared] <= degree_mod._NEWTON_TOL)
    assert np.all(ref_resid[shared] <= degree_mod._NEWTON_TOL)
    np.testing.assert_array_equal(owner >= 0, resid <= 10 * degree_mod._NEWTON_TOL)
    gaps = np.linalg.norm(ref_x[shared] - x[shared], axis=1)
    assert np.max(gaps) <= degree_mod._DEDUP_RADIUS
    # Rows the capped search left unconverged hold no preimage it missed.
    tol, radius = 10 * degree_mod._NEWTON_TOL, degree_mod._DEDUP_RADIUS
    preimages, _ = _dedup_reference(x[resid <= tol], radius)
    ref_preimages, _ = _dedup_reference(ref_x[ref_resid <= tol], radius)
    assert preimages.shape == ref_preimages.shape
    np.testing.assert_allclose(preimages, ref_preimages, rtol=0, atol=1e-9)


def test_preimage_count_once_returns_a_report():
    starts = sphere_quasi_uniform(400, 2)
    report = _preimage_count_once(identity_map, 2, rng(0), starts, DegreeOptions())
    assert isinstance(report, DegreeReport)
    assert (report.value, report.method, report.n_starts, report.redraws) == (
        1, "preimage_count", 400, 0
    )
    assert report.signs == [1] and report.basin_counts == [400]


def _nan_where(map_many, mask_of):
    # map_many with NaN rows wherever mask_of(x) holds.
    def many(x):
        out = np.array(map_many(x), dtype=float)
        out[mask_of(x)] = np.nan
        return out

    return many


@pytest.mark.parametrize("n", [2, 3])
def test_non_finite_map_values_are_refused(n):
    # NaN caps around both seed-0 regular values hide the identity's only
    # preimages.  A NaN residual fails `resid > tol`, so a search that took
    # it for converged would find no preimage and certify degree 0.
    gen = rng(0)
    values = np.stack([normalize_rows(gen.standard_normal(n + 1)) for _ in range(2)])
    capped = _nan_where(identity_map, lambda x: np.any(x @ values.T > 0.99, axis=1))
    with pytest.raises(DegeneracyError, match="non-finite"):
        sphere_degree(capped, n)


def test_nan_at_a_sign_test_probe_refuses_the_map():
    # The identity of S2, NaN only on a tiny ball around the sign test's probe
    # at y - 1e-6 t_1, so no Newton row lands there.  A NaN probe is a
    # non-finite map value like any other, not a reason to redraw y.
    y = normalize_rows(rng(0).standard_normal(3))  # the first value at seed 0
    t1 = oriented_sphere_frame_many(y[None])[0, 0]
    probe = normalize_rows(y - 1e-6 * t1)
    dot = _nan_where(identity_map, lambda x: np.linalg.norm(x - probe, axis=1) < 1e-8)
    with pytest.raises(DegeneracyError, match="non-finite"):
        sphere_degree(dot, 2, DegreeOptions(seed=0))


def test_winding_number_refuses_a_non_finite_value():
    arc = _nan_where(circle_power_map(2), lambda x: x[:, 0] > 0.999)
    with pytest.raises(DegeneracyError, match="non-finite"):
        winding_number(arc)


@pytest.mark.parametrize("d", [10923, 33000, 40000, -40000])
def test_winding_number_refuses_a_grid_step_of_a_sixth_turn_or_more(d):
    # Wrapped increments sum to an integer, so a step past pi went unseen:
    # z^40000 read -25536 and z^33000 read -32536, each with residual 0.
    with pytest.raises(DegeneracyError, match="winding grid step"):
        winding_number(circle_power_map(d))
    with pytest.raises(DegeneracyError, match="winding grid step"):
        sphere_degree(circle_power_map(d), 1)
    # 10922 / 65536 of a turn per step is just under a sixth.
    assert winding_number(circle_power_map(np.sign(d) * 10922))[0] == np.sign(d) * 10922


def _unblocked_winding(map_many):
    # The winding sum over the whole grid in one batch: the reference the blocks must reproduce.
    theta = np.linspace(0.0, 2.0 * np.pi, degree_mod._WINDING_GRID, endpoint=False)
    img = map_many(np.column_stack([np.cos(theta), np.sin(theta)]))
    ang = np.arctan2(img[:, 1], img[:, 0])
    inc = np.diff(np.append(ang, ang[0]))
    inc = (inc + np.pi) % (2.0 * np.pi) - np.pi
    total = float(np.sum(inc)) / (2.0 * np.pi)
    return int(round(total)), abs(total - round(total))


def _polynomial_circle_map(degree):
    # A normalized PolynomialMap of the given degree on S1: (x, y) plus small
    # terms in every column of the basis, so it has degree 1.
    exponents = sphere_exponents(2, degree)
    coefficients = 0.01 * rng(3).standard_normal((len(exponents), 2))
    coefficients[exponents.index((1, 0)), 0] += 1.0
    coefficients[exponents.index((0, 1)), 1] += 1.0
    poly = PolynomialMap(input_dim=2, output_dim=2, degree=degree, coefficients=coefficients)
    return lambda x: normalize_rows(poly.eval_many(x))


def _folded_circle_map(x):
    # theta -> theta + 2 sin(theta): degree 1, turning back on |theta| > 2 pi / 3,
    # so a value near the fold has three preimages of signs +1, -1, +1.
    theta = np.arctan2(x[:, 1], x[:, 0])
    a = theta + 2.0 * np.sin(theta)
    return np.column_stack([np.cos(a), np.sin(a)])


@pytest.mark.parametrize(
    "map_many",
    [circle_power_map(3), circle_power_map(-7), _folded_circle_map, _polynomial_circle_map(20)],
    ids=["z^3", "z^-7", "folded", "polynomial-20"],
)
def test_blocked_winding_number_matches_one_batch_bit_for_bit(map_many):
    # The blocks tile the grid, so each image, increment and the sum are the same doubles.
    rows = []

    def recorded(x):
        rows.append(len(x))
        return map_many(x)

    value, residual, _ = winding_number(recorded)
    block, grid = degree_mod._WINDING_BLOCK, degree_mod._WINDING_GRID
    assert rows == [block] * (grid // block) and grid % block == 0
    assert (value, residual) == _unblocked_winding(map_many)


def test_circle_degree_memory_does_not_grow_with_the_grid():
    # A degree-20 map on S1 has 41 columns: 21 MB of Vandermonde at 65 536 rows,
    # 1.3 MB in a block of 4096.
    f = _polynomial_circle_map(20)
    tracemalloc.start()
    try:
        report = sphere_degree(f, 1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert report.value == 1
    assert peak < 8e6


def test_circle_report_starts_once_per_crossing():
    # Newton starts once per grid crossing of y, so a value the fold covers
    # three times has three starts, each its own preimage.
    crossings = winding_number(_folded_circle_map)[2]
    counts = []
    for seed in range(8):
        report = sphere_degree(_folded_circle_map, 1, DegreeOptions(seed=seed))
        count, starts = crossings(np.array(report.regular_value))
        assert report.value == count == 1
        assert report.n_starts == len(starts) == len(report.preimages)
        assert report.basin_counts == [1] * report.n_starts
        counts.append(report.n_starts)
    assert set(counts) == {1, 3}


@pytest.mark.parametrize("d", [200, 1000])
def test_high_circle_powers_certify_at_every_seed(d):
    # 200 quasi-uniform starts could not find 200 or 1000 preimages; the
    # grid's crossings locate every one.
    for seed in range(8):
        report = sphere_degree(circle_power_map(d), 1, DegreeOptions(seed=seed))
        assert report.value == report.n_starts == d


# ---------------------------------------------------------------------------
# the column formula
# ---------------------------------------------------------------------------


def test_calibration_sign_is_the_constant_minus_one():
    assert calibration_sign() == -1


def test_column_map_of_a2_is_the_identity_of_degree_one():
    # calibration_sign is a constant because of these two facts: psi(a_2),
    # (z1, z2) -> (z1, z2), is the identity of S^3, and the preimage oracle
    # counts it as degree +1 in the outward-normal-first orientation.
    psi = first_column_sphere_map(a_k(2))
    x = sphere_quasi_uniform(1000, 3)
    assert np.max(np.abs(psi(x) - x)) <= 1e-15
    report = preimage_count_degree(psi, 3, DegreeOptions(seed=20_230_117, n_starts=600))
    assert report.value == 1
    assert calibration_sign() == -report.value


def test_calibration_sign_evaluates_no_map():
    # In a fresh interpreter, so that nothing computed earlier can answer.
    src = os.path.dirname(os.path.dirname(degree_mod.__file__))
    code = (
        "import spraylab.degree as d\n"
        "def refuse(*args):\n"
        "    raise AssertionError('calibration_sign evaluated a map')\n"
        "d._newton_preimages = d.ak_matrix_many = refuse\n"
        "assert d.calibration_sign() == -1\n"
    )
    env = {**os.environ, "PYTHONPATH": src}
    assert subprocess.run([sys.executable, "-c", code], env=env).returncode == 0
    assert unitary_degree(a_k(3)).value == 1


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


@pytest.mark.parametrize("seed", range(8))
def test_circle_degrees_from_one_regular_value_at_every_seed(seed):
    # One search per count, checked by the winding number or the integral.
    opts = DegreeOptions(seed=seed)
    for d in range(-3, 4):
        assert sphere_degree(circle_power_map(d), 1, opts).value == d
        assert unitary_degree(power_map_matrix(d), opts).value == d


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

    def nan_cap(z):
        out = ak_matrix_many(z, 3)
        out[z[:, 0].real > 0.5] = np.nan
        return out

    # A NaN unitarity defect fails the check too.
    with pytest.raises(ValueError, match="requires unitary values"):
        compress_to_k_block(MatrixSphereMap(k=3, p=4, eval_many=nan_cap))


def test_compress_a3_closed_form_column():
    # With the missed point pinned at e1, the two explicit rotations send
    # the last column (0, -conj z3, conj z2, z1) to e4 and carry the first
    # column (z1, z2, z3, 0) to (z1^2, z2 - z1 conj z3, z3 + z1 conj z2, 0);
    # the derivation is a direct expansion of the two rank-two rotation
    # formulas.  Frozen here as an independent check on the generic code.
    reduced = degree_mod._CompressedMap(a_k(3), [np.array([1.0, 0, 0, 0], complex)])
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
    assert _max_unitarity_defect(reduced) <= 1e-10


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
    reduced = degree_mod._CompressedMap(a_k(4), pinned)
    assert reduced.p == 4
    col = reduced.eval_columns(z, [0])[:, :, 0]
    np.testing.assert_allclose(col, mats[:, :, 0], rtol=0, atol=1e-13)
    np.testing.assert_allclose(reduced.eval_many(z), mats, rtol=0, atol=1e-13)


@pytest.mark.parametrize(
    "f",
    [a_k(3), a_k(4), sharp_product(power_map_matrix(2), a_k(2))],
    ids=["3", "4", "z^2#a_2"],
)
def test_compressed_column_does_not_depend_on_batch_size(f):
    reduced = compress_to_k_block(f)
    z = sphere_quasi_uniform_complex(24, f.k)
    if f.p == 4 and f.k == 3:
        z[5] = [0, 0, 1]  # the x-block of z^2 # a_2 is zero: the extension's masked path
    q = reduced.p + 1  # the size the last step acts on; the block check takes all its columns
    chain = lambda rows, cols: degree_mod._compress_chain(f.eval_many(rows), reduced.missed, cols)
    evaluations = [
        lambda rows: reduced.eval_columns(rows, [0]),
        reduced.eval_many,
        lambda rows: chain(rows, range(q)),
        lambda rows: chain(rows, [q - 1]),  # one column: no (1, 1) by (1,) products at N = 1
    ]
    for evaluate in evaluations:
        batch = evaluate(z)
        for i in range(24):
            np.testing.assert_array_equal(evaluate(z[i : i + 1])[0], batch[i])


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


def _assert_bitwise_equal(actual, expected):
    # Equal values with equal signs, so -0 and +0 count as different.
    np.testing.assert_array_equal(actual, expected)
    for part in (np.real, np.imag):
        np.testing.assert_array_equal(np.signbit(part(actual)), np.signbit(part(expected)))


def _sharp_by_concatenation(f, g):
    # The # product built from einsum Kronecker products and concatenated
    # blocks, with the masked homogeneous extension at every call.
    def kron(a, b):
        n, r, s = a.shape[0], a.shape[1], b.shape[1]
        return np.einsum("nij,nkl->nikjl", a, b).reshape(n, r * s, r * s)

    def extension(h, x):
        norms = np.linalg.norm(x, axis=1)
        out = np.zeros((x.shape[0], h.p, h.p), dtype=complex)
        mask = norms > 0
        if np.any(mask):
            out[mask] = norms[mask, None, None] * h.eval_many(x[mask] / norms[mask, None])
        return out

    def eval_many(z):
        fx, gy = extension(f, z[:, : f.k]), extension(g, z[:, f.k :])
        n = z.shape[0]
        eye_p = np.broadcast_to(np.eye(f.p, dtype=complex), (n, f.p, f.p))
        eye_q = np.broadcast_to(np.eye(g.p, dtype=complex), (n, g.p, g.p))
        fx_star = np.conj(np.swapaxes(fx, 1, 2))
        gy_star = np.conj(np.swapaxes(gy, 1, 2))
        top = np.concatenate([kron(fx, eye_q), -kron(eye_p, gy_star)], axis=2)
        bot = np.concatenate([kron(eye_p, gy), kron(fx_star, eye_q)], axis=2)
        return np.concatenate([top, bot], axis=1)

    return MatrixSphereMap(k=f.k + g.k, p=2 * f.p * g.p, eval_many=eval_many)


@pytest.mark.parametrize(
    "build, x_dim",
    [
        (lambda sharp: sharp(power_map_matrix(-2), a_k(2)), 1),
        (lambda sharp: sharp(power_map_matrix(2), a_k(2)), 1),
        (lambda sharp: sharp(a_k(2), a_k(1)), 2),
        (lambda sharp: sharp(sharp(a_k(2), a_k(1)), a_k(1)), 3),
    ],
    ids=["z^-2#a_2", "z^2#a_2", "a_2#a_1", "(a_2#a_1)#a_1"],
)
def test_sharp_product_matches_concatenated_blocks_bitwise(build, x_dim):
    new, ref = build(sharp_product), build(_sharp_by_concatenation)
    gen = rng(new.k)
    z = normalize_rows(gen.standard_normal((50, new.k)) + 1j * gen.standard_normal((50, new.k)))
    z[0, :x_dim] = 0  # zero x-block
    z[1, x_dim:] = 0  # zero y-block
    z[2] = -0.0  # the origin, with signed zeros
    z[3] = np.eye(new.k)[0]  # real and imaginary axis points: exact zeros in the values
    z[4] = 1j * np.eye(new.k)[-1]
    for rows in (z, z[5:6], z[:1]):
        _assert_bitwise_equal(new.eval_many(rows), ref.eval_many(rows))


def _reference_conj_dot(a, x):
    ca = np.conj(a)
    acc = ca[0] * x[0]
    term = np.empty_like(acc)
    for i in range(1, len(x)):
        acc += np.multiply(ca[i], x[i], out=term)
    return acc


def _reference_compress_step(x, c, b):
    # The fused step as first written: projections from one stacked pair and
    # both rank-one updates applied to every carried column.
    q = x.shape[0]
    mu = _reference_conj_dot(c, b[:, None])
    v = b[:, None] - mu * c
    ss = _reference_conj_dot(v, v).real
    if np.sqrt(np.min(ss)) < 1e-8:
        raise ValueError("rotation field degenerates: a column hits the complex line of b")
    pair = np.stack([c, np.broadcast_to(b[:, None], c.shape)], axis=1)
    cx, bx = _reference_conj_dot(pair[:, :, None, :], x[:, None])
    tau = (bx - np.conj(mu) * cx) / ss
    p_coef = (mu - 1.0) * tau - cx
    w = cx + (np.conj(mu) - 1.0) * tau
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


def _reference_compress_chain(mats, missed, cols):
    p = mats.shape[1]
    keep = sorted(set(cols) | {p - 1 - t for t in range(len(missed))})
    x = np.ascontiguousarray(np.transpose(mats[:, :, keep], (1, 2, 0)))
    for t, point in enumerate(missed):
        q = p - t
        x = x[:q, : sum(j < q for j in keep)]
        _reference_compress_step(x, x[:, -1].copy(), -np.asarray(point, dtype=complex))
    return np.transpose(x[:, [keep.index(j) for j in cols]], (2, 0, 1))


@pytest.mark.parametrize("rows", [1, 24, 1600])
@pytest.mark.parametrize("k", [3, 4])
def test_compress_chain_matches_reference_bitwise(k, rows):
    # Skipping the columns a step drops and gathering column by column must
    # not change one bit of what the chain returns, after any number of steps.
    f = a_k(k)
    missed = compress_to_k_block(f).missed
    mats = f.eval_many(sphere_quasi_uniform_complex(rows, k))
    for steps in range(1, len(missed) + 1):
        q = f.p - steps + 1
        for cols in ([0], range(q)):
            _assert_bitwise_equal(
                degree_mod._compress_chain(mats, missed[:steps], cols),
                _reference_compress_chain(mats, missed[:steps], cols),
            )


def test_compress_draws_the_missed_point_samples_once(monkeypatch):
    counts = []
    draw = degree_mod.sphere_quasi_uniform_complex

    def spy(count, k):
        counts.append(count)
        return draw(count, k)

    monkeypatch.setattr(degree_mod, "sphere_quasi_uniform_complex", spy)
    assert compress_to_k_block(a_k(4)).p == 4
    assert counts.count(4096) == 1
    assert len(counts) == 5  # the missed-point samples, 4 candidate sets


def test_compress_evaluates_its_map_once():
    f = a_k(4)
    rows = []

    def counted(z):
        rows.append(z.shape[0])
        return f.eval_many(z)

    assert compress_to_k_block(replace(f, eval_many=counted)).p == 4
    # The missed-point samples, shared by the unitarity check and all 4 steps.
    assert rows == [4096]


def _missed_points_by_rerun_chains(f):
    # The search re-running the chain from step 0 for every step's last columns.
    mats = f.eval_many(sphere_quasi_uniform_complex(4096, f.k))
    missed = []
    while f.p - len(missed) > f.k:
        q = f.p - len(missed)
        cols = degree_mod._compress_chain(mats, missed, [q - 1])[:, :q, 0]
        missed.append(degree_mod._find_missed_point(cols))
    return missed


@pytest.mark.parametrize(
    "f",
    [a_k(3), a_k(4), a_k(5), sharp_product(power_map_matrix(2), a_k(2))],
    ids=lambda f: f.name,
)
def test_compress_missed_points_match_rerun_chains_bitwise(f):
    missed = compress_to_k_block(f).missed
    expected = _missed_points_by_rerun_chains(f)
    assert len(missed) == len(expected) == f.p - f.k
    for point, ref in zip(missed, expected):
        _assert_bitwise_equal(point, ref)


def test_compress_applies_each_step_once_to_the_samples(monkeypatch):
    widths = []
    step = degree_mod._compress_step

    def spy(x, c, b, m):
        widths.append(c.shape[-1])
        return step(x, c, b, m)

    monkeypatch.setattr(degree_mod, "_compress_step", spy)
    assert compress_to_k_block(a_k(5)).p == 5
    # 11 steps, each applied once to the 4096 samples; the rest are block checks.
    assert widths.count(4096) == 11
    assert set(widths) == {64, 4096}


def test_compress_missed_point_on_column_line_raises():
    # The last column of a_3 at z = e1 is e4, so a missed point pinned at e4
    # puts that column on the complex line of -missed: the rotation field
    # degenerates there and evaluation must refuse.
    reduced = degree_mod._CompressedMap(a_k(3), [np.array([0, 0, 0, 1.0], complex)])
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


# ---------------------------------------------------------------------------
# Bott's integral
# ---------------------------------------------------------------------------


def _z_sharp_a2(d):
    return sharp_product(power_map_matrix(d), a_k(2))


@pytest.mark.parametrize(
    "f, expected",
    [(a_k(k), 1) for k in (1, 2, 3, 4)]
    + [(sharp_product(a_k(2), a_k(2)), 1)]
    + [(_z_sharp_a2(d), d) for d in (-2, 2, 3, 5)],
    ids=lambda v: getattr(v, "name", str(v)),
)
def test_bott_degree_of_symmetric_maps(f, expected):
    # Their integrands are constant on the sphere: the first level settles.
    result = bott_degree(f)
    assert result.value == expected
    assert abs(result.mean - expected) <= 1e-7
    assert result.spread <= 1e-7 and result.points == degree_mod._BOTT_START


def _twisted(base, strength, seed):
    # base + strength B, with B a fixed non-symmetric quadratic of operator
    # norm below 1 on the sphere, so every value stays invertible and the
    # straight-line homotopy keeps the degree of the unitary base.
    gen = rng(seed)
    coeffs = gen.standard_normal((base.k, base.p, base.p))
    coeffs = coeffs + 1j * gen.standard_normal(coeffs.shape)
    coeffs /= np.sqrt(np.sum(np.abs(coeffs) ** 2))

    def eval_many(z):
        quad = np.einsum("nj,jab->nab", z * np.conj(z[:, ::-1]), coeffs)
        return base.eval_many(z) + strength * quad

    return MatrixSphereMap(k=base.k, p=base.p, eval_many=eval_many, name="twisted")


def test_bott_degree_escalates_on_a_non_symmetric_gl_map():
    result = bott_degree(_twisted(_z_sharp_a2(3), 0.9, seed=0))
    assert result.value == 3
    assert result.points > degree_mod._BOTT_START
    assert result.spread <= degree_mod._BOTT_TOL


def test_bott_degree_refuses_an_unsettled_integral(monkeypatch):
    monkeypatch.setattr(degree_mod, "_BOTT_CAP", 2 * degree_mod._BOTT_START)
    with pytest.raises(InconsistencyError, match="did not settle at 128 points"):
        bott_degree(_twisted(_z_sharp_a2(3), 0.9, seed=0))


def test_bott_degree_does_not_depend_on_the_chunk_size(monkeypatch):
    f = _twisted(a_k(3), 0.5, seed=1)
    whole = bott_degree(f)
    monkeypatch.setattr(degree_mod, "_BOTT_CHUNK_ENTRIES", 1)  # one point per chunk
    chunked = bott_degree(f)
    assert chunked.value == whole.value and chunked.points == whole.points
    assert abs(chunked.mean - whole.mean) <= 1e-12


def _rank_one(z):
    # The first column is the identity of S^3, but every value has rank one.
    return np.repeat(np.asarray(z, dtype=complex)[:, :, None], 2, axis=2)


def _with_a_nan(z):
    values = ak_matrix_many(z, 2)
    values[0, 1, 1] = np.nan
    return values


@pytest.mark.parametrize("eval_many", [_rank_one, _with_a_nan])
def test_singular_matrix_map_raises_a_named_error(eval_many):
    f = MatrixSphereMap(k=2, p=2, eval_many=eval_many, name="degenerate")
    with pytest.raises(DegeneracyError, match="singular or non-finite value"):
        bott_degree(f)
    with pytest.raises(DegeneracyError, match="singular or non-finite value"):
        unitary_degree(f)


def test_nan_at_a_bott_probe_is_refused_at_the_first_level(monkeypatch):
    # a_2 with NaN on a thin shell around one point of the first level's
    # first rotated copy: the point's value is finite, its probes 1e-5 away
    # are not.  The integral must refuse the map there, not escalate.
    gen = rng(degree_mod._BOTT_ROTATION_SEED)
    q, r = np.linalg.qr(gen.standard_normal((4, 4)))
    x0 = sphere_quasi_uniform(degree_mod._BOTT_START, 3)[5] @ (q * np.sign(np.diag(r))).T

    def shelled(z):
        values = ak_matrix_many(z, 2)
        gap = np.linalg.norm(interleave(z) - x0, axis=1)
        values[(gap > 1e-7) & (gap < 3e-5)] = np.nan
        return values

    counts = []
    draw = degree_mod.sphere_quasi_uniform

    def spy(count, n):
        counts.append(count)
        return draw(count, n)

    monkeypatch.setattr(degree_mod, "sphere_quasi_uniform", spy)
    with pytest.raises(DegeneracyError, match="non-finite"):
        bott_degree(MatrixSphereMap(k=2, p=2, eval_many=shelled, name="shelled"))
    assert counts == [degree_mod._BOTT_START]


def test_unitary_report_carries_the_integral():
    report = unitary_degree(a_k(3), DegreeOptions(seed=11))
    assert isinstance(report, UnitaryDegreeReport)
    assert report.value == 1
    assert report.cross_check_value == report.psi_degree == 2
    assert abs(report.integral_mean - 1.0) <= 1e-7 and report.integral_spread <= 1e-7
    assert report.integral_points == degree_mod._BOTT_START
    # k = 1 is checked by the winding number over its fine grid, not by a
    # sampled integral, so its report carries no integral fields.
    circle = unitary_degree(power_map_matrix(2))
    assert isinstance(circle, UnitaryDegreeReport)
    assert circle.value == circle.psi_degree == circle.cross_check_value == 2
    assert circle.integral_mean is None and circle.winding_residual <= 1e-3
    # Only unitary reports carry the column formula's fields.
    sphere = sphere_degree(circle_power_map(2), 1)
    assert type(sphere) is DegreeReport and not hasattr(sphere, "psi_degree")


@pytest.mark.parametrize(
    "f, message",
    [
        (a_k(3), "count 4 disagrees with the cross-check 2"),
        (power_map_matrix(2), "count 3 disagrees with the cross-check 2"),
    ],
    ids=["a_3", "z^2"],
)
def test_a_wrong_psi_count_is_refused_by_the_integral(f, message, monkeypatch):
    # Adding (k-1)! keeps the count divisible, so only the integral (or, at
    # k = 1, the winding number) can see it.
    real = degree_mod._count_at
    extra = math.factorial(f.k - 1)

    def one_basin_too_many(*args, **kwargs):
        report = real(*args, **kwargs)
        return replace(report, value=report.value + extra)

    monkeypatch.setattr(degree_mod, "_count_at", one_basin_too_many)
    with pytest.raises(InconsistencyError, match=message):
        unitary_degree(f)


@pytest.mark.parametrize(
    "degree_of",
    [
        lambda: unitary_degree(a_k(3)),
        lambda: unitary_degree(a_k(1)),
        lambda: unitary_degree(power_map_matrix(2)),
        lambda: sphere_degree(circle_power_map(2), 1),
    ],
    ids=["a_3", "a_1", "z^2", "sphere_degree-S1"],
)
def test_unitary_degree_searches_one_regular_value(degree_of, monkeypatch):
    # Each count has an independent oracle, so one regular value is searched.
    calls = []
    real = degree_mod._newton_preimages

    def spy(*args):
        calls.append(args[1])
        return real(*args)

    monkeypatch.setattr(degree_mod, "_newton_preimages", spy)
    report = degree_of()
    assert report.redraws == 0
    assert len(calls) == 1
    assert list(calls[0]) == report.regular_value


@pytest.mark.parametrize("d", [3, -2])
def test_unitary_degree_of_a_non_symmetric_circle_map(d):
    # z^d plus a constant of modulus 0.9: a k = 1 map whose angle does not
    # turn at a constant rate.  The winding number checks its count.
    report = unitary_degree(_twisted(power_map_matrix(d), 0.9, seed=0))
    assert report.value == report.psi_degree == report.cross_check_value == d
    assert report.winding_residual <= 1e-3 and report.integral_points is None


def _steep_circle_map():
    # Degree 2: theta -> theta plus a second full turn packed into a tanh step
    # of width 0.003 at theta = 0.7.  Bott's integral settles on 1 at 64
    # points per copy, with a spread below 1e-5: its points step over the turn.
    def eval_many(z):
        theta = np.angle(z[:, 0])
        step = np.tanh(((theta - 0.7 + np.pi) % (2 * np.pi) - np.pi) / 0.003)
        return np.exp(1j * (theta + np.pi * (1 + step)))[:, None, None]

    return MatrixSphereMap(k=1, p=1, eval_many=eval_many, name="steep")


def test_a_steep_circle_map_never_gets_a_wrong_degree():
    # One regular value's count may miss the steep turn's small basin, but the
    # winding number sees the turn, so every seed certifies 2 or refuses.
    values = []
    for seed in range(8):
        try:
            values.append(unitary_degree(_steep_circle_map(), DegreeOptions(seed=seed)).value)
        except InconsistencyError:
            continue
    assert values and set(values) == {2}


@pytest.mark.parametrize("seed", range(8))
def test_a_steep_circle_map_certifies_at_every_seed(seed):
    # The grid crosses the steep turn, so its small basin gets a start of its own.
    report = unitary_degree(_steep_circle_map(), DegreeOptions(seed=seed))
    assert report.value == report.cross_check_value == 2
    assert report.n_starts == 2 and report.basin_counts == [1, 1]


@pytest.mark.slow
def test_a4_certifies_at_seed_6():
    # Two regular values once disagreed here (6 vs 5 preimages): the second
    # search missed a basin.  The integral replaces that search.
    report = unitary_degree(a_k(4), DegreeOptions(seed=6, max_dim=7, n_starts=1600))
    assert report.value == 1
    assert report.psi_degree == report.cross_check_value == 6
