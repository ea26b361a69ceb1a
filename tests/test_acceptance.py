"""Acceptance suite: one test per release criterion, each printing a summary
line with its measured runtime.  Tolerances and runtime budgets are fixed
here and are not meant to be tuned."""

import json
import time

import numpy as np
import pytest

from spraylab.approx import approximate
from spraylab.cli import main
from spraylab.degree import (
    DegreeOptions,
    a_k,
    circle_power_map,
    fermat_power_self_map,
    power_map_matrix,
    sharp_product,
    sphere_degree,
    unitary_degree,
    verify_ak_identities,
)
from spraylab.demos import DEMOS
from spraylab.geometry import VarietySpec
from spraylab.sampling import rng, sample_fiber, sample_variety
from spraylab.sprays import (
    group_action_spray,
    iterated_spray,
    stereographic_spray,
    verify_dominating,
    verify_spray_axioms,
)


def _stamp(name, t0, budget, detail=""):
    elapsed = time.monotonic() - t0
    print(f"ACCEPTANCE {name}: PASS in {elapsed:.2f}s (budget {budget:.0f}s) {detail}")
    assert elapsed < budget, f"{name} exceeded its runtime budget"


def test_criterion_1_spray_axiom_suite():
    t0 = time.monotonic()
    sprays = {
        "stereographic S1": stereographic_spray(1),
        "stereographic S2": stereographic_spray(2),
        "stereographic S3": stereographic_spray(3),
        "SO(2)": group_action_spray(VarietySpec.group("SO", 2)),
        "SO(3)": group_action_spray(VarietySpec.group("SO", 3)),
        "O(3)": group_action_spray(VarietySpec.group("O", 3)),
        "U(2)": group_action_spray(VarietySpec.group("U", 2)),
        "SU(2)": group_action_spray(VarietySpec.group("SU", 2)),
    }
    for name, spray in sprays.items():
        axioms = verify_spray_axioms(spray, n_samples=1000, seed=0, tol=1e-10)
        assert axioms.passed, (name, axioms.max_violation)
        dominance = verify_dominating(spray, n_samples=1000, seed=0)
        assert dominance.passed, (name, dominance.min_rank, dominance.required_rank)
        assert dominance.min_rank == spray.base.dim
    _stamp("1 spray axioms + dominance", t0, 10.0, f"({len(sprays)} sprays x 1000 samples)")


def test_criterion_2_iterated_spray_recursion():
    t0 = time.monotonic()
    for base in (stereographic_spray(2), group_action_spray(VarietySpec.group("SO", 3))):
        for k in (2, 3, 4):
            it = iterated_spray(base, k)
            pts = sample_variety(base.base, 500, 0)
            vs = sample_fiber(base.fiber_dim * k, 500, rng(1), 2.0)
            nested = pts
            for i in range(k):
                nested = base.eval_many(
                    nested, vs[:, i * base.fiber_dim : (i + 1) * base.fiber_dim]
                )
            dev = float(np.max(np.abs(it.eval_many(pts, vs) - nested)))
            assert dev <= 1e-12, (base.kind, k, dev)
    _stamp("2 iterated-spray recursion", t0, 5.0, "(k <= 4, 500 samples)")


def test_criterion_3_ak_identities():
    t0 = time.monotonic()
    for k in (1, 2, 3, 4):
        report = verify_ak_identities(k, n_samples=1000, seed=0, tol=1e-10)
        assert report.passed, report
        assert report.unitary_membership_max <= 1e-12
    _stamp("3 a_k identities", t0, 10.0, "(k <= 4, 1000 samples)")


def test_criterion_4_degree_calculus():
    t0 = time.monotonic()
    # deg(a_k) = 1 for k = 1, 2, 3 via the calibrated column formula,
    # with exact (k-1)! divisibility of the column degree.
    for k in (1, 2, 3):
        report = unitary_degree(a_k(k))
        assert report.value == 1, (k, report.value)
        assert report.psi_degree % report.divisor == 0

    # multiplicativity on the test family, exact integers
    g = a_k(1)
    dg = unitary_degree(g).value
    for f in (a_k(1), power_map_matrix(2), power_map_matrix(-1)):
        df = unitary_degree(f).value
        assert unitary_degree(sharp_product(f, g)).value == df * dg

    # winding and preimage oracles agree on circle degrees -3..3
    for d in range(-3, 4):
        report = sphere_degree(circle_power_map(d), 1)
        assert report.value == d and report.cross_check_value == d

    # odd power map pulled back to the round sphere has degree 1
    for n in (1, 2):
        assert sphere_degree(fermat_power_self_map(3), n).value == 1
    _stamp("4 degree calculus", t0, 60.0, "(a_k, multiplicativity, oracles, odd powers)")


def test_criterion_5_approximation_pipeline():
    t0 = time.monotonic()
    s1 = DEMOS["s1-power-2-wiggle"]()
    approx1 = approximate(s1.f_many, s1.homotopy, s1.spray, s1.cfg)
    assert approx1.status == "ok"
    assert approx1.c0 <= 1e-3
    assert approx1.membership_max <= 1e-12
    assert sphere_degree(approx1.eval_many, 1).value == 2
    curve1 = np.array(approx1.beta.fit_rms_curve)
    assert np.all(np.diff(curve1) <= 1e-12)

    s2 = DEMOS["s2-bump-identity"]()
    approx2 = approximate(s2.f_many, s2.homotopy, s2.spray, s2.cfg)
    assert approx2.status == "ok"
    assert approx2.c0 <= 1e-2
    assert approx2.membership_max <= 1e-12
    assert sphere_degree(approx2.eval_many, 2).value == 1
    curve2 = np.array(approx2.beta.fit_rms_curve)
    assert np.all(np.diff(curve2) <= 1e-12)
    _stamp(
        "5 approximation pipeline",
        t0,
        120.0,
        f"(S1 c0={approx1.c0:.2e} deg 2; S2 c0={approx2.c0:.2e} deg 1)",
    )


@pytest.mark.parametrize(
    "command,config",
    [
        ("verify-spray", {"kind": "stereographic", "n": 2, "samples": 300}),
        ("verify-spray", {"kind": "group", "group": "U(2)", "samples": 200}),
        ("degree", {"map": "a_k", "k": 3}),
        ("make-ak", {"k": 4, "samples": 500}),
        ("approximate", {"demo": "s2-bump-identity"}),
    ],
)
def test_criterion_6_cli_determinism(tmp_path, command, config):
    t0 = time.monotonic()
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(config))
    outs = []
    for name in ("a", "b"):
        out = tmp_path / f"{name}.json"
        code = main([command, "--config", str(cfg), "--seed", "3", "--out", str(out)])
        assert code == 0
        outs.append(out.read_bytes())
    assert outs[0] == outs[1]
    print(f"ACCEPTANCE 6 determinism [{command}]: PASS in {time.monotonic() - t0:.2f}s")
