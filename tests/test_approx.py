import hashlib
import itertools
import json

import numpy as np
import pytest

import spraylab.approx as approx_mod
import spraylab.sprays as sprays_mod
from spraylab.approx import (
    ApproxConfig,
    DegreeExhaustedError,
    Homotopy,
    HomotopyTooWildError,
    RegularApproximation,
    approximate,
    approximation_error,
    fit_polynomial,
    sphere_exponents,
    track_eta,
)
from spraylab.degree import sphere_degree
from spraylab.demos import DEMOS
from spraylab.geometry import VarietySpec, membership_residual_many, sphere_tangent_basis_many
from spraylab.sampling import normalize_rows, rng, sphere_quasi_uniform
from spraylab.serialize import dumps_canonical
from spraylab.sprays import (
    SprayInversionError,
    group_action_spray,
    iterated_spray,
    solve_fiber_many,
    stereographic_spray,
)

CIRCLE = VarietySpec.sphere(1)
SPHERE2 = VarietySpec.sphere(2)


def _identity(x):
    return np.asarray(x, dtype=float).copy()


def _rotation_homotopy(total_angle):
    def at_time(x, t):
        a = total_angle * t
        c, s = np.cos(a), np.sin(a)
        return np.column_stack([c * x[:, 0] - s * x[:, 1], s * x[:, 0] + c * x[:, 1]])

    return Homotopy(CIRCLE, CIRCLE, at_time, _identity, {"name": "identity"})


# ---------------------------------------------------------------------------
# tracking
# ---------------------------------------------------------------------------


def test_track_constant_homotopy():
    h = Homotopy(CIRCLE, CIRCLE, lambda x, t: _identity(x), _identity, {"name": "identity"})
    result = track_eta(h, stereographic_spray(1, fiber="ambient"), sphere_quasi_uniform(64, 1))
    assert len(result.partition) == 2
    assert np.max(np.abs(result.eta)) <= 1e-15
    assert result.final_residual <= 1e-12


def test_track_small_rotation_single_interval_exact_inverse():
    grid = sphere_quasi_uniform(128, 1)
    result = track_eta(_rotation_homotopy(0.3), stereographic_spray(1, fiber="ambient"), grid)
    assert len(result.partition) == 2
    assert result.final_residual <= 1e-10
    # Closed-form check: the tangential stereographic preimage of the
    # rotated point q = R(0.3) p from p is 2 (q - (q.p) p) / (1 + q.p).
    q = _rotation_homotopy(0.3).eval_many(grid, 1.0)
    qp = np.einsum("ni,ni->n", q, grid)
    expected = 2.0 * (q - qp[:, None] * grid) / (1.0 + qp)[:, None]
    np.testing.assert_allclose(result.eta, expected, atol=1e-12)


def test_track_half_sweep_forces_bisection():
    grid = sphere_quasi_uniform(128, 1)
    result = track_eta(_rotation_homotopy(np.pi), stereographic_spray(1, fiber="ambient"), grid)
    assert len(result.partition) - 1 >= 2
    assert result.final_residual <= 1e-10
    assert max(result.node_residuals) <= 1e-10


@pytest.mark.parametrize("max_fiber_norm,intervals", [(1.0, 4), (0.3, 16)])
def test_track_resumes_after_bisection(monkeypatch, max_fiber_norm, intervals):
    # Each accepted interval and each bisection costs one solve; replaying the
    # chain from t = 0 after every bisection would cost 9 and 119.
    solve, calls = approx_mod.solve_fiber_many, []

    def spy(*args):
        calls.append(1)
        return solve(*args)

    monkeypatch.setattr(approx_mod, "solve_fiber_many", spy)
    monkeypatch.setattr(sprays_mod, "_MAX_FIBER_NORM", max_fiber_norm)
    grid = sphere_quasi_uniform(128, 1)
    result = track_eta(_rotation_homotopy(np.pi), stereographic_spray(1, fiber="ambient"), grid)
    assert len(result.partition) - 1 == intervals
    assert len(calls) == 2 * intervals - 1
    assert result.final_residual <= approx_mod.TRACK_TOL


def test_track_newton_only_spray_so3_on_s2():
    axis = np.array([0.3, -0.2, 0.9]) / np.linalg.norm([0.3, -0.2, 0.9])

    def at_time(x, t):
        c, s = np.cos(0.3 * t), np.sin(0.3 * t)
        return c * x + s * np.cross(axis, x) + (1.0 - c) * (x @ axis)[:, None] * axis

    spray = group_action_spray(VarietySpec.group("SO", 3))
    assert spray.inverse_many is None
    h = Homotopy(SPHERE2, SPHERE2, at_time, _identity, {"name": "identity"})
    result = track_eta(h, spray, sphere_quasi_uniform(128, 2))
    assert result.final_residual <= approx_mod.TRACK_TOL
    assert max(result.node_residuals) <= approx_mod.TRACK_TOL


def _z_rotation_homotopy(total_angle):
    # Rotation of S2 about the z axis by total_angle * t.
    def at_time(x, t):
        c, s = np.cos(total_angle * t), np.sin(total_angle * t)
        return np.asarray(x, dtype=float) @ np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]]).T

    return Homotopy(SPHERE2, SPHERE2, at_time, _identity, {"name": "identity"})


def test_near_antipodal_rotation_bisects_and_fits():
    # At angle 3.121 one SO(3)-spray interval over [0, 1] converges to fiber
    # vectors of norm up to ~98, where the spray's fiber Jacobian has lost
    # almost all of its rank-two singular value; accepting it left the fit
    # exhausted at c0 ~ 2.  Refused there, the interval bisects once.
    h = _z_rotation_homotopy(3.121)
    spray = group_action_spray(VarietySpec.group("SO", 3))
    cfg = ApproxConfig(target_c0=1e-3, d_max=12, grid_size=1024)
    approx = approximate(lambda x: h.eval_many(x, 1.0), h, spray, cfg)
    assert approx.status == "ok"
    assert approx.partition == [0.0, 0.5, 1.0]
    assert approx.c0 <= 1e-3


def test_solve_refuses_a_solution_past_the_spray_fold():
    h = _z_rotation_homotopy(3.121)
    grid = sphere_quasi_uniform(1024, 2)
    spray = group_action_spray(VarietySpec.group("SO", 3))
    with pytest.raises(SprayInversionError, match="lost conditioning"):
        solve_fiber_many(spray, h.f0_many(grid), h.eval_many(grid, 1.0))


def test_solve_past_the_fold_stops_once_a_converged_row_fails(monkeypatch):
    # A converged row's sigma_r is final, so the fold test fails the solve as
    # soon as such a row converges, not after every other row has.
    h = _z_rotation_homotopy(3.1406)
    grid = sphere_quasi_uniform(1024, 2)
    spray = group_action_spray(VarietySpec.group("SO", 3))
    calls = []
    original = sprays_mod.fiber_differences

    def counted(*args):
        calls.append(1)
        return original(*args)

    monkeypatch.setattr(sprays_mod, "fiber_differences", counted)
    with pytest.raises(SprayInversionError, match="lost conditioning"):
        solve_fiber_many(spray, h.f0_many(grid), h.eval_many(grid, 1.0))
    assert len(calls) <= 8


def test_track_interval_budget_error(monkeypatch):
    grid = sphere_quasi_uniform(32, 1)
    monkeypatch.setattr(approx_mod, "_MAX_INTERVALS", 1)
    with pytest.raises(HomotopyTooWildError):
        track_eta(_rotation_homotopy(np.pi), stereographic_spray(1, fiber="ambient"), grid)


# ---------------------------------------------------------------------------
# polynomial fitting
# ---------------------------------------------------------------------------


def _sphere_basis_reference(n_vars, degree):
    # Every tuple with entries <= degree, filtered and sorted by (degree, lex).
    tuples = itertools.product(range(degree + 1), repeat=n_vars)
    full = sorted((e for e in tuples if sum(e) <= degree), key=lambda e: (sum(e), e))
    return [e for e in full if e[-1] <= 1]


def test_monomial_basis_is_canonical():
    exps = sphere_exponents(2, 2)
    assert exps == [(0, 0), (0, 1), (1, 0), (1, 1), (2, 0)]


@pytest.mark.parametrize("n,degree,columns", [(1, 20, 41), (2, 12, 169)])
def test_sphere_basis_has_full_rank(n, degree, columns):
    exps = sphere_exponents(n + 1, degree)
    assert len(exps) == columns
    assert exps == _sphere_basis_reference(n + 1, degree)
    vmat = approx_mod._vandermonde(sphere_quasi_uniform(1024, n), degree)
    assert np.linalg.matrix_rank(vmat / np.linalg.norm(vmat, axis=0)) == columns


def test_vandermonde_matches_monomial_products():
    grid = sphere_quasi_uniform(64, 2)
    ref = np.prod(grid[:, None, :] ** np.array(sphere_exponents(3, 5), dtype=float)[None], axis=2)
    np.testing.assert_allclose(approx_mod._vandermonde(grid, 5), ref, rtol=1e-14, atol=0)


@pytest.mark.parametrize("n_vars,degree", [(2, 20), (3, 12), (4, 9), (7, 4)])
def test_graded_basis_matches_filter_and_sort(n_vars, degree):
    assert sphere_exponents(n_vars, degree) == _sphere_basis_reference(n_vars, degree)


def test_vandermonde_matches_direct_powers_in_seven_variables():
    grid = sphere_quasi_uniform(64, 6)
    ref = np.prod(grid[:, None, :] ** np.array(sphere_exponents(7, 4), dtype=float)[None], axis=2)
    np.testing.assert_allclose(approx_mod._vandermonde(grid, 4), ref, rtol=1e-14, atol=0)


@pytest.mark.parametrize(
    "n_vars,degree,digest",
    [
        (2, 20, "256325af50ecc35ac02fa98221da1099f93c7f902e4d91909a84121693911b4b"),
        (3, 12, "6a09b2c37ee1277fde37ed5ca17b9176f8d7a2dedecb5fd141366e80d4334177"),
        (4, 9, "7b28015d220b1fcf92e8b9abaf131861b62fba28599f0ea8fb9802b0be5db2b7"),
        (7, 4, "6721d06c628734ef69589cca96d87c5da3a11f4aa3dd8169ccc88f9798863d3e"),
        (3, 0, "3afcb42ae5e5e41174d7d1c525646238c7d0cc913c61adb6efe8cdfd7e6b3333"),
    ],
)
def test_vandermonde_bytes_are_frozen(n_vars, degree, digest):
    # Every column is its parent column times one coordinate, an elementwise
    # IEEE product, so the bytes are platform-independent.  Reports stay
    # byte-identical only while that product order does.
    vmat = approx_mod._vandermonde(rng(0).uniform(-1.0, 1.0, (50, n_vars)), degree)
    assert hashlib.sha256(vmat.tobytes()).hexdigest() == digest


@pytest.mark.parametrize("count", [0, 1, 2])
def test_fit_refuses_fewer_samples_than_degree_one_has_columns(count):
    # S1's degree-1 basis has 3 columns; the fit takes every other sample.
    points = sphere_quasi_uniform(64, 1)[:count]
    with pytest.raises(ValueError, match="not enough samples to fit even degree 1"):
        fit_polynomial(points, np.ones((count, 2)), target_resid=1.0, d_max=3)


def test_escalation_stops_where_the_samples_run_out():
    # 3 fitted samples determine degree 1 (3 columns) but not degree 2 (5).
    points = sphere_quasi_uniform(6, 1)
    with pytest.raises(DegreeExhaustedError) as err:
        fit_polynomial(points, rng(1).standard_normal((6, 2)), target_resid=0.0, d_max=3)
    best = err.value.best
    assert best.degree == 1
    assert len(best.fit_rms_curve) == len(best.val_max_curve) == 1
    assert str(err.value).startswith("stopped at degree 1: degree 2 needs 5 fit samples, 3 given")


def test_fit_coefficients_stable_under_tiny_eta_noise():
    # A full-rank basis makes the fit a well-conditioned least-squares problem:
    # a 1e-10 perturbation of eta may move the coefficients only slightly.
    demo = DEMOS["s2-bump-identity"]()
    grid = sphere_quasi_uniform(1024, 2)
    eta = track_eta(demo.homotopy, demo.spray, grid).eta
    noisy = eta + 1e-10 * rng(5).standard_normal(eta.shape)
    fits = []
    for values in (eta, noisy):
        with pytest.raises(DegreeExhaustedError) as err:
            fit_polynomial(grid, values, target_resid=0.0, d_max=8)
        fits.append(err.value.best)
    assert [f.degree for f in fits] == [8, 8]
    assert np.max(np.abs(fits[0].coefficients - fits[1].coefficients)) <= 1e-6


def test_report_exponents_reproduce_beta():
    demo = DEMOS["s2-bump-identity"]()
    approx = approximate(demo.f_many, demo.homotopy, demo.spray, demo.cfg)
    beta = json.loads(dumps_canonical(approx.to_jsonable()))["beta"]
    exps = np.array(beta["exponents"], dtype=float)
    coeffs = np.array([[float(c) for c in row] for row in beta["coefficients"]])
    grid = sphere_quasi_uniform(300, 2)
    values = np.prod(grid[:, None, :] ** exps[None], axis=2) @ coeffs
    np.testing.assert_allclose(values, approx.beta.eval_many(grid), rtol=0, atol=1e-12)


def test_fit_zero_samples():
    pts = sphere_quasi_uniform(200, 1)
    spec = fit_polynomial(pts, np.zeros((200, 2)), target_resid=1e-12, d_max=4)
    assert spec.degree == 1
    assert np.max(np.abs(spec.coefficients)) == 0.0
    assert spec.val_max == 0.0


def test_fit_recovers_linear_map_exactly():
    gen = rng(3)
    pts = sphere_quasi_uniform(300, 2)
    mat = gen.normal(size=(3, 2))
    vals = pts @ mat + np.array([0.3, -0.1])
    spec = fit_polynomial(pts, vals, target_resid=1e-12, d_max=4)
    assert spec.degree == 1
    assert spec.val_max <= 1e-12


def _wiggle_eta(grid_size=512):
    # The pure-rotation eta is linear in ambient coordinates, so the wiggle
    # demo provides the non-polynomial fitting workload here.
    demo = DEMOS["s1-power-2-wiggle"]()
    grid = sphere_quasi_uniform(grid_size, 1)
    result = track_eta(demo.homotopy, demo.spray, grid)
    return grid, result


def test_fit_curve_monotone_and_meets_target():
    grid, result = _wiggle_eta()
    spec = fit_polynomial(grid, result.eta, target_resid=1e-4, d_max=10)
    assert 1 < spec.degree <= 10
    curve = np.array(spec.fit_rms_curve)
    assert np.all(np.diff(curve) <= 1e-12)


def test_fit_degree_exhausted_carries_best():
    grid, result = _wiggle_eta(256)
    with pytest.raises(DegreeExhaustedError) as err:
        fit_polynomial(grid, result.eta, target_resid=1e-15, d_max=3)
    best = err.value.best
    assert best.degree <= 3
    assert best.val_max > 1e-15


def _reference_fit_chain(points, values, d_max):
    # The per-degree solve the growing factorization replaced: a fresh
    # column-scaled lstsq over each degree's whole Vandermonde matrix.
    fit_pts, fit_vals = points[0::2], values[0::2]
    val_pts, val_vals = points[1::2], values[1::2]
    chain = []
    for degree in range(1, d_max + 1):
        vmat = approx_mod._vandermonde(fit_pts, degree)
        scale = np.linalg.norm(vmat, axis=0)
        coef = np.linalg.lstsq(vmat / scale, fit_vals, rcond=None)[0] / scale[:, None]
        fit_rms = np.sqrt(np.mean(np.sum((vmat @ coef - fit_vals) ** 2, axis=1)))
        val_resid = approx_mod._vandermonde(val_pts, degree) @ coef - val_vals
        chain.append((coef, fit_rms, np.max(np.linalg.norm(val_resid, axis=1))))
    return chain


def _escalation_steps(monkeypatch, points, values, d_max):
    # Every degree's coefficients of one escalation that never meets its target.
    steps = []
    solve = approx_mod._GrowingQR.solve

    def spy(self):
        steps.append(solve(self))
        return steps[-1]

    monkeypatch.setattr(approx_mod._GrowingQR, "solve", spy)
    with pytest.raises(DegreeExhaustedError) as err:
        fit_polynomial(points, values, target_resid=0.0, d_max=d_max)
    monkeypatch.undo()
    return steps, err.value.best


def _s1_wiggle_eta(grid_size=1024):
    grid, result = _wiggle_eta(grid_size)
    return grid, result.eta


def _s2_bump_eta(grid_size=1024):
    demo = DEMOS["s2-bump-identity"]()
    grid = sphere_quasi_uniform(grid_size, 2)
    return grid, track_eta(demo.homotopy, demo.spray, grid).eta


def _s3_bump_field(grid_size=2048):
    grid = sphere_quasi_uniform(grid_size, 3)
    bump = np.exp(-3.0 * np.sum((grid - np.array([1.0, 0, 0, 0])) ** 2, axis=1))
    columns = [bump * grid[:, 1], bump * np.sin(2.0 * grid[:, 0]), grid[:, 3] ** 3]
    return grid, np.column_stack(columns)


@pytest.mark.parametrize(
    "field,d_max",
    [(_s1_wiggle_eta, 14), (_s2_bump_eta, 12), (_s3_bump_field, 12)],
    ids=["s1-wiggle", "s2-bump", "s3-bump"],
)
def test_growing_solve_matches_per_degree_lstsq(monkeypatch, field, d_max):
    grid, values = field()
    steps, best = _escalation_steps(monkeypatch, grid, values, d_max)
    reference = _reference_fit_chain(grid, values, d_max)
    assert len(steps) == len(best.fit_rms_curve) == d_max
    for degree, (coef, (ref_coef, ref_rms, ref_val)) in enumerate(zip(steps, reference), 1):
        assert coef.shape == ref_coef.shape
        assert np.linalg.norm(coef - ref_coef) <= 1e-8 * np.linalg.norm(ref_coef), degree
        np.testing.assert_allclose(best.fit_rms_curve[degree - 1], ref_rms, rtol=1e-9, atol=1e-12)
        np.testing.assert_allclose(best.val_max_curve[degree - 1], ref_val, rtol=1e-9, atol=1e-12)


@pytest.mark.parametrize("n,grid_size,degree", [(1, 1024, 40), (2, 2048, 20)])
def test_growing_factorization_stays_orthonormal_and_triangular(n, grid_size, degree):
    # The monomial columns are ill-conditioned here (S2 to degree 20 on
    # 8192 points has a condition number of 3.5e7), so a single
    # Gram-Schmidt pass would lose Q's orthogonality.  With the second pass
    # Q stays orthonormal, and each scaled column lies in the span of Q's
    # rows up to its own: Q^T V is upper triangular.
    points = sphere_quasi_uniform(grid_size, n)[0::2]
    factor = approx_mod._GrowingQR(np.ones((len(points), 1)))
    blocks = approx_mod._vandermonde_blocks(points)
    for _ in range(degree + 1):
        factor.append(next(blocks))
    columns = len(sphere_exponents(n + 1, degree))
    assert factor.q.shape == (columns, len(points)) and factor.kept.all()
    assert np.max(np.abs(factor.q @ factor.q.T - np.eye(columns))) <= 1e-12
    scaled = approx_mod._vandermonde(points, degree) / factor.scale
    assert np.max(np.abs(np.tril(factor.q @ scaled, -1))) <= 1e-13


def test_capped_fit_is_a_step_of_the_longer_escalation(monkeypatch):
    grid, eta = _s2_bump_eta()
    steps, _ = _escalation_steps(monkeypatch, grid, eta, 10)
    for degree in range(1, 11):
        with pytest.raises(DegreeExhaustedError) as err:
            fit_polynomial(grid, eta, target_resid=0.0, d_max=degree)
        best = err.value.best
        assert best.degree == degree  # the held-out residual falls at every degree here
        scale = np.max(np.abs(steps[degree - 1]))
        assert np.max(np.abs(best.coefficients - steps[degree - 1])) <= 1e-12 * scale


def test_fit_runs_no_lstsq_and_no_svd(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("the fit must not refactor from scratch")

    monkeypatch.setattr(np.linalg, "lstsq", refuse)
    monkeypatch.setattr(np.linalg, "svd", refuse)
    grid, result = _wiggle_eta()
    spec = fit_polynomial(grid, result.eta, target_resid=1e-6, d_max=12)
    assert spec.achieved_target and spec.degree > 1


def test_duplicated_column_gets_coefficient_zero():
    # With x0 = x1 at every point the x0 column repeats the x1 column before
    # it: it is dependent, gets coefficient 0, and the fit stays exact.
    t = np.linspace(0.0, 2.0 * np.pi, 200, endpoint=False)
    pts = np.column_stack([np.cos(t), np.cos(t), np.sqrt(2.0) * np.sin(t)]) / np.sqrt(2.0)
    values = np.column_stack([pts[:, 1] + 2.0 * pts[:, 2] + 0.5, -pts[:, 0]])
    spec = fit_polynomial(pts, values, target_resid=1e-12, d_max=2)
    assert spec.degree == 1 and spec.val_max <= 1e-12
    x0, x1 = sphere_exponents(3, 1).index((1, 0, 0)), sphere_exponents(3, 1).index((0, 1, 0))
    assert np.all(spec.coefficients[x0] == 0.0)
    np.testing.assert_allclose(spec.coefficients[x1], [1.0, -1.0], rtol=1e-12)


# ---------------------------------------------------------------------------
# assembly
# ---------------------------------------------------------------------------


def _tracked_rotation(angle=0.3, grid_size=256):
    grid = sphere_quasi_uniform(grid_size, 1)
    h = _rotation_homotopy(angle)
    result = track_eta(h, stereographic_spray(1, fiber="ambient"), grid)
    return grid, h, result


def _assembled(h, result, beta):
    return RegularApproximation(
        spray=result.spray, homotopy=h, beta=beta, partition=result.partition,
        status="ok", tracking_residual=result.final_residual,
    )


def test_assemble_with_zero_beta_reproduces_base_map():
    grid, h, result = _tracked_rotation()
    zero = fit_polynomial(grid, np.zeros_like(result.eta), target_resid=1e-12, d_max=2)
    approx = _assembled(h, result, zero)
    np.testing.assert_array_equal(approx.eval_many(grid), h.f0_many(grid))


def test_assembled_map_lands_on_target_everywhere():
    grid, h, result = _tracked_rotation()
    beta = fit_polynomial(grid, result.eta, target_resid=1e-6, d_max=10)
    approx = _assembled(h, result, beta)
    probe = sphere_quasi_uniform(10_000, 1)
    resid = membership_residual_many(approx.eval_many(probe), CIRCLE)
    assert np.max(resid) <= 1e-12


def test_assemble_dimension_checks():
    grid, h, result = _tracked_rotation()
    beta = fit_polynomial(grid[:, :1] * 0 + 1.0, result.eta, target_resid=1.0, d_max=1)
    with pytest.raises(ValueError, match="^polynomial input dimension does not match the domain$"):
        _assembled(h, result, beta)
    wide = fit_polynomial(grid, np.zeros((len(grid), 3)), target_resid=1.0, d_max=1)
    with pytest.raises(ValueError, match="^polynomial output dimension does not match the spray"):
        _assembled(h, result, wide)


# ---------------------------------------------------------------------------
# error measurement
# ---------------------------------------------------------------------------


def test_error_zero_for_identical_maps():
    grid = sphere_quasi_uniform(256, 1)
    errors = approximation_error(_identity, _identity, grid)
    assert errors == {"c0": 0.0, "c1": 0.0}


def test_error_sees_planted_tangent_perturbation():
    grid = sphere_quasi_uniform(512, 2)
    axis = np.array([0.2, -0.5, 0.8])

    def perturbed(x):
        t = axis[None, :] - (x @ axis)[:, None] * x
        t /= np.linalg.norm(t, axis=1, keepdims=True)
        out = x + 1e-3 * t
        return out / np.linalg.norm(out, axis=1, keepdims=True)

    errors = approximation_error(perturbed, _identity, grid)
    assert 0.5e-3 <= errors["c0"] <= 1.5e-3


def test_error_c1_against_analytic_derivative():
    # For a fixed rotation R, the tangent-map discrepancy from the identity
    # along unit tangent directions is |R t - t| = 2 sin(a / 2).
    a = 0.2
    rot = _rotation_homotopy(a)
    grid = sphere_quasi_uniform(256, 1)
    errors = approximation_error(lambda x: rot.eval_many(x, 1.0), _identity, grid)
    assert abs(errors["c1"] - 2.0 * np.sin(a / 2.0)) <= 1e-5


def _error_reference(g_many, f_many, grid):
    # One frame direction per loop step: the loop tangent_probes replaces.
    h = approx_mod._FD_STEP
    c0 = float(np.max(np.linalg.norm(g_many(grid) - f_many(grid), axis=1)))
    frames = sphere_tangent_basis_many(grid)
    c1 = 0.0
    for j in range(frames.shape[1]):
        t = frames[:, j, :]
        plus = normalize_rows(grid + h * t)
        minus = normalize_rows(grid - h * t)
        dg = (g_many(plus) - g_many(minus)) / (2.0 * h)
        df = (f_many(plus) - f_many(minus)) / (2.0 * h)
        c1 = max(c1, float(np.max(np.linalg.norm(dg - df, axis=1))))
    return {"c0": c0, "c1": c1}


def test_error_matches_per_direction_loop():
    demo = DEMOS["s2-bump-identity"]()
    demo.cfg.grid_size = 1 << 10
    approx = approximate(demo.f_many, demo.homotopy, demo.spray, demo.cfg)
    grid = sphere_quasi_uniform(1 << 10, 2)
    errors = approximation_error(approx.eval_many, demo.f_many, grid)
    assert errors == _error_reference(approx.eval_many, demo.f_many, grid)
    assert errors["c1"] > 0.0


# ---------------------------------------------------------------------------
# full pipeline
# ---------------------------------------------------------------------------


def test_pipeline_regular_input_comes_back_exactly():
    demo = DEMOS["identity"]()
    approx = approximate(demo.f_many, demo.homotopy, demo.spray, demo.cfg)
    assert approx.status == "ok"
    assert approx.c0 <= 1e-14
    assert approx.membership_max <= 1e-12


def test_pipeline_s1_demo_full():
    demo = DEMOS["s1-power-2-wiggle"]()
    approx = approximate(demo.f_many, demo.homotopy, demo.spray, demo.cfg)
    assert approx.status == "ok"
    assert approx.c0 <= 1e-3
    assert approx.beta.degree <= 20
    assert approx.membership_max <= 1e-12
    assert approx.chain_ok
    assert sphere_degree(approx.eval_many, 1).value == 2


def test_pipeline_s2_demo_smoke():
    demo = DEMOS["s2-bump-identity"]()
    demo.cfg.grid_size = 1 << 10  # smaller grid than the acceptance run
    approx = approximate(demo.f_many, demo.homotopy, demo.spray, demo.cfg)
    assert approx.status == "ok"
    assert approx.c0 <= 1e-2
    assert approx.membership_max <= 1e-12
    assert sphere_degree(approx.eval_many, 2).value == 1


@pytest.mark.parametrize("name", ["s1-power-2-wiggle", "s2-bump-identity"])
def test_pipeline_assembles_on_the_target(name):
    # g(x) = s^k(F0(x), beta(x)) with s^k the iterate of the target's own spray.
    demo = DEMOS[name]()
    demo.cfg.grid_size = 1 << 10
    approx = approximate(demo.f_many, demo.homotopy, demo.spray, demo.cfg)
    k = len(approx.partition) - 1
    assert approx.spray.base == demo.homotopy.target
    desc = approx.to_jsonable()["spray"]
    assert desc == iterated_spray(demo.spray, k).descriptor()
    assert desc["params"]["inner"] == demo.spray.descriptor()
    x = sphere_quasi_uniform(300, demo.homotopy.domain.n)
    expected = iterated_spray(demo.spray, k).eval_many(
        demo.homotopy.f0_many(x), approx.beta.eval_many(x)
    )
    np.testing.assert_array_equal(approx.eval_many(x), expected)


def test_pipeline_unattainable_target_reports_exhaustion():
    demo = DEMOS["s1-power-2-wiggle"]()
    demo.cfg.target_c0 = 1e-15
    demo.cfg.d_max = 6
    approx = approximate(demo.f_many, demo.homotopy, demo.spray, demo.cfg)
    assert approx.status == "degree_exhausted"
    assert approx.beta is not None  # best effort retained
    assert approx.membership_max <= 1e-12  # exactness holds regardless


def test_pipeline_fit_meeting_its_proxy_but_not_the_target_is_reported(monkeypatch):
    # With almost no fit margin the held-out proxy is met at degree 1, far
    # above the target: the measured c0 must flag the run.
    monkeypatch.setattr(approx_mod, "_FIT_MARGIN", 1e-9)
    demo = DEMOS["s1-power-2-wiggle"]()
    approx = approximate(demo.f_many, demo.homotopy, demo.spray, demo.cfg)
    assert approx.status == "target_missed"
    assert approx.beta.degree == 1
    assert approx.c0 > demo.cfg.target_c0


def test_pipeline_rejects_endpoint_mismatch():
    demo = DEMOS["s1-power-2-wiggle"]()
    with pytest.raises(ValueError):
        approximate(_identity, demo.homotopy, demo.spray, demo.cfg)


def test_pipeline_rejects_a_nan_in_the_input_map():
    h = _z_rotation_homotopy(0.5)

    def f_many(x):
        out = h.eval_many(x, 1.0)
        out[3] = np.nan
        return out

    spray = group_action_spray(VarietySpec.group("SO", 3))
    with pytest.raises(ValueError, match="deviates from the input map by nan"):
        approximate(f_many, h, spray, ApproxConfig(target_c0=1e-3, d_max=4, grid_size=256))


def test_pipeline_report_serializes():
    demo = DEMOS["identity"]()
    approx = approximate(demo.f_many, demo.homotopy, demo.spray, demo.cfg)
    text = dumps_canonical(approx.to_jsonable())
    assert '"coefficients"' in text
    assert '"status"' in text


_BASE_MAP_FORMULAS = {
    "(x, y)": lambda x: x,
    "(x, y, z)": lambda x: x,
    "(x^2 - y^2, 2xy)": lambda x: np.column_stack(
        [x[:, 0] ** 2 - x[:, 1] ** 2, 2.0 * x[:, 0] * x[:, 1]]
    ),
}


@pytest.mark.parametrize("name", sorted(DEMOS))
def test_demo_base_map_matches_descriptor_coefficients(name):
    # F0 is the table its report prints: read back from the canonical JSON, the
    # exponents and coefficients reproduce the evaluator the pipeline runs
    # exactly, and the table's closed form within rounding.
    demo = DEMOS[name]()
    cfg = ApproxConfig(target_c0=1.0, d_max=1, grid_size=64)
    report = approximate(demo.f_many, demo.homotopy, demo.spray, cfg)
    f0 = json.loads(dumps_canonical(report.to_jsonable()))["f0"]
    exps = np.array(f0["exponents"])
    coeffs = np.array([[float(c) for c in row] for row in f0["coefficients"]])
    assert exps.shape == (len(coeffs), f0["input_dim"]) and coeffs.shape[1] == f0["output_dim"]
    assert np.all(exps[:, -1] <= 1) and np.max(exps.sum(axis=1)) == f0["degree"]
    grid = sphere_quasi_uniform(1024, demo.homotopy.domain.n)
    # x**e as e_i factors x_i: at degree <= 2 the pipeline's roundings, unlike pow.
    monomials = np.column_stack([np.prod(np.repeat(grid, e, axis=1), axis=1) for e in exps])
    table = monomials @ coeffs
    np.testing.assert_array_equal(table, demo.homotopy.f0_many(grid))
    closed_form = _BASE_MAP_FORMULAS[f0["formula"]](grid)
    np.testing.assert_allclose(table, closed_form, rtol=0, atol=1e-15)
