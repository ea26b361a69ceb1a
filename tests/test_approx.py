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
    approximate,
    approximation_error,
    assemble_regular_map,
    fit_polynomial,
    monomial_exponents,
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
    product_submersion_spray,
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
# homotopy validation
# ---------------------------------------------------------------------------


def test_homotopy_check_passes_for_rotation():
    grid = sphere_quasi_uniform(128, 1)
    _rotation_homotopy(0.3).check(grid)


def test_homotopy_check_rejects_base_mismatch():
    h = Homotopy(
        CIRCLE,
        CIRCLE,
        lambda x, t: _identity(x),
        lambda x: 0.999 * _identity(x),
        {"name": "broken"},
    )
    with pytest.raises(ValueError):
        h.check(sphere_quasi_uniform(64, 1))


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
    prod = product_submersion_spray(SPHERE2, group_action_spray(VarietySpec.group("SO", 3)))
    base = np.hstack([grid, h.f0_many(grid)])
    target = np.hstack([grid, h.eval_many(grid, 1.0)])
    with pytest.raises(SprayInversionError, match="lost conditioning"):
        solve_fiber_many(prod, base, target)


def test_track_interval_budget_error(monkeypatch):
    grid = sphere_quasi_uniform(32, 1)
    monkeypatch.setattr(approx_mod, "_MAX_INTERVALS", 1)
    with pytest.raises(HomotopyTooWildError):
        track_eta(_rotation_homotopy(np.pi), stereographic_spray(1, fiber="ambient"), grid)


# ---------------------------------------------------------------------------
# polynomial fitting
# ---------------------------------------------------------------------------


def test_monomial_basis_is_canonical():
    exps = monomial_exponents(2, 2)
    assert exps == [(0, 0), (0, 1), (1, 0), (0, 2), (1, 1), (2, 0)]


@pytest.mark.parametrize("n,degree,columns", [(1, 20, 41), (2, 12, 169)])
def test_sphere_basis_has_full_rank(n, degree, columns):
    exps = sphere_exponents(n + 1, degree)
    assert len(exps) == columns
    assert exps == [e for e in monomial_exponents(n + 1, degree) if e[-1] <= 1]
    vmat = approx_mod._vandermonde(sphere_quasi_uniform(1024, n), exps)
    assert np.linalg.matrix_rank(vmat / np.linalg.norm(vmat, axis=0)) == columns


def test_vandermonde_matches_monomial_products():
    grid = sphere_quasi_uniform(64, 2)
    for exps in (monomial_exponents(3, 5), sphere_exponents(3, 5)):
        ref = np.prod(grid[:, None, :] ** np.array(exps, dtype=float)[None], axis=2)
        np.testing.assert_allclose(approx_mod._vandermonde(grid, exps), ref, rtol=1e-14, atol=0)


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


# ---------------------------------------------------------------------------
# assembly
# ---------------------------------------------------------------------------


def _tracked_rotation(angle=0.3, grid_size=256):
    grid = sphere_quasi_uniform(grid_size, 1)
    h = _rotation_homotopy(angle)
    result = track_eta(h, stereographic_spray(1, fiber="ambient"), grid)
    return grid, h, result


def test_assemble_with_zero_beta_reproduces_base_map():
    grid, h, result = _tracked_rotation()
    zero = fit_polynomial(grid, np.zeros_like(result.eta), target_resid=1e-12, d_max=2)
    approx = assemble_regular_map(h, result, zero)
    np.testing.assert_array_equal(approx.eval_many(grid), h.f0_many(grid))


def test_assembled_map_lands_on_target_everywhere():
    grid, h, result = _tracked_rotation()
    beta = fit_polynomial(grid, result.eta, target_resid=1e-6, d_max=10)
    approx = assemble_regular_map(h, result, beta)
    probe = sphere_quasi_uniform(10_000, 1)
    resid = membership_residual_many(approx.eval_many(probe), CIRCLE)
    assert np.max(resid) <= 1e-12


def test_assemble_dimension_checks():
    grid, h, result = _tracked_rotation()
    beta = fit_polynomial(grid[:, :1] * 0 + 1.0, result.eta, target_resid=1.0, d_max=1)
    with pytest.raises(ValueError):
        assemble_regular_map(h, result, beta)


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


def test_pipeline_unattainable_target_reports_exhaustion():
    demo = DEMOS["s1-power-2-wiggle"]()
    demo.cfg.target_c0 = 1e-15
    demo.cfg.d_max = 6
    approx = approximate(demo.f_many, demo.homotopy, demo.spray, demo.cfg)
    assert approx.status == "degree_exhausted"
    assert approx.beta is not None  # best effort retained
    assert approx.membership_max <= 1e-12  # exactness holds regardless


def test_pipeline_rejects_endpoint_mismatch():
    demo = DEMOS["s1-power-2-wiggle"]()
    with pytest.raises(ValueError):
        approximate(_identity, demo.homotopy, demo.spray, demo.cfg)


def test_pipeline_report_serializes():
    demo = DEMOS["identity"]()
    approx = approximate(demo.f_many, demo.homotopy, demo.spray, demo.cfg)
    text = dumps_canonical(approx.to_jsonable())
    assert '"coefficients"' in text
    assert '"status"' in text


@pytest.mark.parametrize("name", sorted(DEMOS))
def test_demo_base_map_matches_descriptor_coefficients(name):
    # The descriptor's coefficient table must reproduce the exact base map.
    from spraylab.approx import _vandermonde

    demo = DEMOS[name]()
    desc = demo.homotopy.f0_descriptor
    exps = monomial_exponents(desc["input_dim"], desc["degree"])
    coeffs = np.array([[float(c) for c in row] for row in desc["coefficients"]])
    grid = sphere_quasi_uniform(200, demo.homotopy.domain.n)
    np.testing.assert_allclose(
        _vandermonde(grid, exps) @ coeffs, demo.homotopy.f0_many(grid), atol=1e-15
    )
