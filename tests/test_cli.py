import json
import os
import subprocess
import sys

import numpy as np
import pytest

import spraylab
import spraylab.approx as approx_mod
import spraylab.sprays as sprays_mod
from spraylab.approx import ApproxConfig, Homotopy
from spraylab.cli import EXIT_FAIL, EXIT_OK, EXIT_USAGE, main
from spraylab.demos import DEMOS, DemoSetup
from spraylab.geometry import VarietySpec, matrix_to_point
from spraylab.sprays import group_action_spray, stereographic_spray


def run_cli(tmp_path, command, config, seed=None, name="cfg"):
    cfg_path = tmp_path / f"{name}.json"
    cfg_path.write_text(json.dumps(config))
    out_path = tmp_path / f"{name}-out.json"
    argv = [command, "--config", str(cfg_path), "--out", str(out_path)]
    if seed is not None:
        argv += ["--seed", str(seed)]
    code = main(argv)
    report = json.loads(out_path.read_text()) if out_path.exists() else None
    return code, report, out_path


# ---------------------------------------------------------------------------
# verify-spray
# ---------------------------------------------------------------------------


def test_verify_stereographic_s2_passes(tmp_path):
    code, report, _ = run_cli(
        tmp_path, "verify-spray", {"kind": "stereographic", "n": 2, "samples": 300}
    )
    assert code == EXIT_OK
    assert report["pass"] is True
    assert report["max_violation"] <= 1e-10
    assert len(report["per_sample"]) == 300
    assert report["dominance"]["min_rank"] == 2


def test_verify_group_spray_by_label(tmp_path):
    code, report, _ = run_cli(
        tmp_path,
        "verify-spray",
        {"kind": "group", "group": "SO(3)", "space": "S2", "samples": 200},
    )
    assert code == EXIT_OK
    assert report["pass"] is True


def test_integer_shrink_c_runs_the_spray_of_its_float(tmp_path):
    # shrink_c is a number key like the others: 1 and 1.0 describe one spray.
    config = {"kind": "group", "group": "SO(3)", "space": "S2", "samples": 20, "shrink_c": 1}
    code, as_int, _ = run_cli(tmp_path, "verify-spray", config, name="int")
    assert code == EXIT_OK
    code, as_float, _ = run_cli(tmp_path, "verify-spray", {**config, "shrink_c": 1.0}, name="float")
    assert code == EXIT_OK
    # Compared as JSON text, where 1 and 1.0 differ.
    assert json.dumps(as_int["spray"]) == json.dumps(as_float["spray"])


def test_verify_su3_self_action_is_a_usage_error(tmp_path):
    config = {"kind": "group", "group": "SU(3)", "space": "self", "samples": 50}
    code, report, _ = run_cli(tmp_path, "verify-spray", config)
    assert code == EXIT_USAGE and report is None


def test_verify_constant_spray_fails_with_rank_zero(tmp_path):
    code, report, _ = run_cli(tmp_path, "verify-spray", {"kind": "constant", "n": 2, "samples": 50})
    assert code == EXIT_FAIL
    assert report["pass"] is False
    assert report["dominance"]["max_rank"] == 0


def test_verify_frame_fiber_is_a_usage_error(tmp_path):
    # Fiber coordinates in a per-point tangent frame would not give a regular map.
    config = {"kind": "stereographic", "n": 2, "fiber": "frame", "samples": 50}
    code, report, _ = run_cli(tmp_path, "verify-spray", config)
    assert code == EXIT_USAGE
    assert report is None


def test_verify_unknown_kind_usage_error(tmp_path, capsys):
    # Product-submersion sprays are not a spray kind: the pipeline runs on the target.
    product = {"kind": "product", "x": "S1", "inner": {"kind": "stereographic", "n": 1}}
    for config in ({"kind": "nonsense"}, product):
        code, report, _ = run_cli(tmp_path, "verify-spray", config)
        assert code == EXIT_USAGE
        assert report is None
        assert "['constant', 'group', 'iterated', 'stereographic']" in capsys.readouterr().err


def test_verify_non_finite_report_fails_naming_the_field(tmp_path, capsys, monkeypatch):
    # A spray that goes NaN at huge fiber vectors gives a report JSON cannot hold.
    def forward(points, w):
        huge = np.linalg.norm(w, axis=1)[:, None] > 1e100
        return np.where(huge, np.nan, stereo_forward(points, w))

    stereo_forward = sprays_mod._stereo_forward
    monkeypatch.setattr(sprays_mod, "_stereo_forward", forward)
    config = {"kind": "stereographic", "n": 2, "samples": 50, "fiber_radius": 1e200}
    with np.errstate(all="ignore"):
        code, report, out_path = run_cli(tmp_path, "verify-spray", config)
    assert code == EXIT_FAIL
    assert report is None and not out_path.exists()
    assert "max_violation" in capsys.readouterr().err


def test_missing_config_file_usage_error(tmp_path):
    code = main(["degree", "--config", str(tmp_path / "does-not-exist.json")])
    assert code == EXIT_USAGE


# ---------------------------------------------------------------------------
# degree
# ---------------------------------------------------------------------------


def test_degree_a2_is_one(tmp_path):
    code, report, _ = run_cli(tmp_path, "degree", {"map": "a_k", "k": 2})
    assert code == EXIT_OK
    assert report["report"]["value"] == 1
    assert report["report"]["method"] == "unitary_formula"
    assert report["report"]["calibration_sign"] in (-1, 1)


def test_degree_power_minus_two(tmp_path):
    code, report, _ = run_cli(tmp_path, "degree", {"map": "power", "d": -2})
    assert code == EXIT_OK
    assert report["report"]["value"] == -2


def test_degree_fermat(tmp_path):
    code, report, _ = run_cli(tmp_path, "degree", {"map": "fermat", "k": 3, "n": 2})
    assert code == EXIT_OK
    assert report["report"]["value"] == 1
    assert report["report"]["preimages"]


def test_degree_sharp_product(tmp_path):
    cfg = {"map": "sharp", "f": {"map": "power", "d": 2}, "g": {"map": "a_k", "k": 1}}
    code, report, _ = run_cli(tmp_path, "degree", cfg)
    assert code == EXIT_OK
    assert report["report"]["value"] == 2


def test_degree_unknown_map_usage(tmp_path):
    code, _, _ = run_cli(tmp_path, "degree", {"map": "mystery"})
    assert code == EXIT_USAGE


@pytest.mark.parametrize(
    "command,config",
    [
        ("degree", {"map": "a_k", "k": 2, "n_starts": "many"}),
        ("degree", {"map": "a_k", "k": 2, "n_starts": 0}),
        ("verify-spray", {"kind": "stereographic", "n": None}),
        ("degree", {"map": "a_k", "k": 2, "seed": "abc"}),
        ("make-ak", {"k": 2, "seed": [1]}),
    ],
)
def test_bad_config_numbers_are_usage_errors(tmp_path, command, config):
    code, report, _ = run_cli(tmp_path, command, config)
    assert code == EXIT_USAGE
    assert report is None


@pytest.mark.parametrize(
    "command,config,seed,message",
    [
        ("verify-spray", [1, 2], None, "config must be a JSON object, got [1, 2]"),
        ("verify-spray", [1, 2], 3, "config must be a JSON object, got [1, 2]"),
        ("degree", "a_k", None, "config must be a JSON object, got 'a_k'"),
        ("make-ak", 4, None, "config must be a JSON object, got 4"),
        ("approximate", None, None, "config must be a JSON object, got None"),
        ("verify-spray", {"kind": "iterated", "k": 2, "inner": 5}, None,
         "spray config must be a JSON object, got 5"),
        ("verify-spray", {"kind": "iterated", "k": 2, "inner": {"kind": "iterated", "k": 2,
                                                                "inner": ["stereographic"]}},
         None, "spray config must be a JSON object, got ['stereographic']"),
        ("degree", {"map": "sharp", "f": 5, "g": {"map": "a_k", "k": 2}}, None,
         "matrix map config must be a JSON object, got 5"),
        ("degree", {"map": "sharp", "f": {"map": "a_k", "k": 2}, "g": [1]}, None,
         "matrix map config must be a JSON object, got [1]"),
    ],
    ids=["list", "list-seeded", "degree-string", "make-ak-number", "approximate-null",
         "inner-number", "nested-inner-list", "sharp-f-number", "sharp-g-list"],
)
def test_non_object_configs_are_usage_errors(tmp_path, capsys, command, config, seed, message):
    # A config, or a nested "inner", "f" or "g", that is not a JSON object is a
    # usage error with a message, not an AttributeError traceback.
    code, report, _ = run_cli(tmp_path, command, config, seed=seed)
    assert code == EXIT_USAGE
    assert report is None
    assert message in capsys.readouterr().err


@pytest.mark.parametrize(
    "command,config,bad",
    [
        ("verify-spray", {"kind": "stereographic", "n": 2, "sample": 50}, "sample"),
        ("degree", {"map": "a_k", "k": 2, "n_start": 10}, "n_start"),
        ("degree", {"map": "fermat", "k": 3, "n": 2, "d": 2}, "d"),
        ("make-ak", {"k": 2, "sample": 50}, "sample"),
        ("approximate", {"demo": "identity", "target_co": 1e-9}, "target_co"),
        ("approximate", {"demo": "identity", "check_degree": False}, "check_degree"),
        ("verify-spray", {"kind": "iterated", "k": 2,
                          "inner": {"kind": "stereographic", "n": 1, "samples": 9}}, "samples"),
        ("degree", {"map": "sharp", "f": {"map": "power", "d": 2, "k": 1},
                    "g": {"map": "a_k", "k": 1}}, "k"),
    ],
    ids=["verify-spray", "degree-matrix-map", "degree-self-map", "make-ak", "approximate",
         "approximate-check-degree", "nested-inner", "nested-f"],
)
def test_unread_config_keys_are_usage_errors(tmp_path, capsys, command, config, bad):
    # A key no table lists would be ignored, and the run would use a default
    # the user did not ask for.
    code, report, _ = run_cli(tmp_path, command, config)
    assert code == EXIT_USAGE
    assert report is None
    err = capsys.readouterr().err
    assert f"unknown keys ['{bad}']" in err and "accepted: [" in err


@pytest.mark.parametrize(
    "command,config,bad,kind",
    [
        ("verify-spray", {"kind": "stereographic", "n": True}, "n", "an integer"),
        ("verify-spray", {"kind": "iterated", "k": 2, "inner": {"kind": "stereographic",
                                                                "n": 1.0}}, "n", "an integer"),
        ("degree", {"map": "a_k", "k": 2.9}, "k", "an integer"),
        ("degree", {"map": "fermat", "k": 3, "n": True}, "n", "an integer"),
        ("make-ak", {"k": 2, "samples": 20.9}, "samples", "an integer"),
        ("approximate", {"demo": "identity", "target_c0": "1e-3"}, "target_c0", "a number"),
    ],
    ids=["verify-spray", "verify-spray-nested", "degree-matrix-map", "degree-self-map",
         "make-ak", "approximate-number"],
)
def test_config_values_of_another_json_type_are_usage_errors(tmp_path, capsys, command,
                                                             config, bad, kind):
    # int() and float() would read 2.9 as 2 and true as 1, and the report
    # would echo a config that did not run.
    code, report, _ = run_cli(tmp_path, command, config)
    assert code == EXIT_USAGE
    assert report is None
    assert f"key '{bad}' must be {kind}, got " in capsys.readouterr().err


@pytest.mark.parametrize(
    "bad,value",
    [("grid_size", 0), ("grid_size", -5), ("d_max", 0), ("d_max", -3), ("target_c0", -1)],
    ids=["grid_size-0", "grid_size-negative", "d_max-0", "d_max-negative", "target_c0-negative"],
)
def test_approximate_refuses_settings_it_cannot_honour(tmp_path, capsys, bad, value):
    # A zero grid_size used to run the default grid, a negative one died in
    # numpy, d_max < 1 claimed too few samples and a negative target_c0 ran
    # the whole pipeline to "target_missed".
    with pytest.raises(ValueError, match=f"^{bad} must be "):
        ApproxConfig(**{bad: value})
    code, report, _ = run_cli(tmp_path, "approximate", {"demo": "identity", bad: value})
    assert code == EXIT_USAGE
    assert report is None
    assert f"{bad} must be " in capsys.readouterr().err


def test_integers_are_numbers_in_a_config(tmp_path):
    code, report, _ = run_cli(tmp_path, "approximate", {"demo": "identity", "target_c0": 1})
    assert code == EXIT_OK
    assert report["approximation"]["config"]["target_c0"] == 1.0
    assert report["degree"]["value"] == 1


@pytest.mark.parametrize(
    "command,config",
    [
        ("degree", {"map": "conj"}),
        ("verify-spray", {"kind": "group", "group": "SO(3)", "space": "default"}),
        ("verify-spray", {"kind": "group", "group": {"kind": "SO", "m": 3}}),
    ],
    ids=["conj-map", "default-space", "variety-object"],
)
def test_removed_config_forms_are_usage_errors(tmp_path, command, config):
    code, report, _ = run_cli(tmp_path, command, config)
    assert code == EXIT_USAGE
    assert report is None


# ---------------------------------------------------------------------------
# make-ak
# ---------------------------------------------------------------------------


def test_make_ak_report(tmp_path):
    code, report, _ = run_cli(tmp_path, "make-ak", {"k": 3, "samples": 400})
    assert code == EXIT_OK
    assert report["pass"] is True
    assert report["map"] == {"name": "a_3", "k": 3, "size": 4}
    assert report["identities"]["gram_identity_max"] <= 1e-10
    assert report["min_abs_det_on_sphere"] >= 1.0 - 1e-10


@pytest.mark.parametrize("seed", [0, 1, 2, 3])
def test_make_ak_k6_passes_the_relative_determinant_identity(tmp_path, seed):
    # |det| = |z|^32 at k = 6 reaches 1.5^32 ~ 4e5, where an absolute
    # comparison at 1e-10 fails on rounding alone.
    code, report, _ = run_cli(tmp_path, "make-ak", {"k": 6, "samples": 300}, seed=seed)
    assert code == EXIT_OK
    assert report["pass"] is True
    assert report["identities"]["det_identity_max"] <= 1e-12


def test_make_ak_size_cap_is_not_configurable(tmp_path):
    code, report, _ = run_cli(tmp_path, "make-ak", {"k": 7, "cap": 8, "samples": 50})
    assert code == EXIT_USAGE
    assert report is None


def test_make_ak_above_the_size_cap_is_a_usage_error(tmp_path, capsys):
    code, report, _ = run_cli(tmp_path, "make-ak", {"k": 7})
    assert code == EXIT_USAGE
    assert report is None
    assert "exceeds the size cap" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# approximate
# ---------------------------------------------------------------------------


def test_approximate_identity_demo(tmp_path):
    code, report, _ = run_cli(tmp_path, "approximate", {"demo": "identity"})
    assert code == EXIT_OK
    approx = report["approximation"]
    assert approx["status"] == "ok"
    assert approx["errors"]["c0"] <= 1e-14
    assert report["degree"]["value"] == 1


def test_approximate_s1_demo(tmp_path):
    code, report, _ = run_cli(tmp_path, "approximate", {"demo": "s1-power-2-wiggle"})
    assert code == EXIT_OK
    approx = report["approximation"]
    assert approx["status"] == "ok"
    assert approx["errors"]["c0"] <= 1e-3
    assert approx["errors"]["membership_max"] <= 1e-12
    assert report["degree"]["value"] == 2
    # coefficients are decimal strings, round-trip exact
    coef = approx["beta"]["coefficients"][1][0]
    assert isinstance(coef, str)
    assert float(coef) == float(format(float(coef), ".17g"))


def test_approximate_unattainable_target_exit_one_with_best_effort(tmp_path):
    code, report, _ = run_cli(
        tmp_path,
        "approximate",
        {"demo": "s1-power-2-wiggle", "target_c0": 1e-15, "d_max": 5},
    )
    assert code == EXIT_FAIL
    assert report["approximation"]["status"] == "degree_exhausted"
    assert report["degree"]["value"] == 2
    assert report["approximation"]["beta"]["coefficients"]  # best effort included


def test_approximate_tracking_failure_reports_stage(tmp_path, monkeypatch):
    # A half-turn needs a bisection that a one-interval budget forbids.
    circle = VarietySpec.sphere(1)

    def half_turn(x, t):
        c, s = np.cos(np.pi * t), np.sin(np.pi * t)
        return np.column_stack([c * x[:, 0] - s * x[:, 1], s * x[:, 0] + c * x[:, 1]])

    def build():
        homotopy = Homotopy(circle, circle, half_turn, lambda x: np.array(x, float), {})
        return DemoSetup(
            f_many=lambda x: half_turn(x, 1.0),
            homotopy=homotopy,
            spray=stereographic_spray(1, fiber="ambient"),
            cfg=ApproxConfig(),
            expected_degree=1,
        )

    monkeypatch.setattr(approx_mod, "_MAX_INTERVALS", 1)
    monkeypatch.setitem(DEMOS, "half-turn", build)
    code, report, _ = run_cli(tmp_path, "approximate", {"demo": "half-turn"})
    assert code == EXIT_FAIL
    assert report["error"]["stage"] == "tracking"


def test_approximate_group_target_has_no_sphere_degree_check(tmp_path, monkeypatch):
    # S1 -> SU(2), z -> R(t) diag(z, conj z) with R(t) a rotation by 0.3 t, on
    # the self-action spray, which has an exact inverse.
    circle, su2 = VarietySpec.sphere(1), VarietySpec.group("SU", 2)

    def at_time(x, t):
        z = x[:, 0] + 1j * x[:, 1]
        mats = np.zeros((x.shape[0], 2, 2), dtype=complex)
        mats[:, 0, 0], mats[:, 1, 1] = z, np.conj(z)
        c, s = np.cos(0.3 * t), np.sin(0.3 * t)
        return matrix_to_point(np.array([[c, -s], [s, c]]) @ mats, su2)

    def build():
        return DemoSetup(
            f_many=lambda x: at_time(x, 1.0),
            homotopy=Homotopy(circle, su2, at_time, lambda x: at_time(x, 0.0), {}),
            spray=group_action_spray(su2, su2),
            cfg=ApproxConfig(),
            expected_degree=0,
        )

    monkeypatch.setitem(DEMOS, "s1-su2-rotation", build)
    code, report, _ = run_cli(tmp_path, "approximate", {"demo": "s1-su2-rotation"})
    assert code == EXIT_OK
    assert report["approximation"]["errors"]["membership_max"] <= 1e-12
    assert "degree" not in report


def test_approximate_wrong_expected_degree_fails(tmp_path, monkeypatch):
    # The identity demo with a wrong expected degree: the pipeline succeeds,
    # the checked degree is 1, so the run must fail and still write its report.
    def build():
        demo = DEMOS["identity"]()
        demo.expected_degree = 2
        return demo

    monkeypatch.setitem(DEMOS, "identity-expecting-2", build)
    code, report, _ = run_cli(tmp_path, "approximate", {"demo": "identity-expecting-2"})
    assert code == EXIT_FAIL
    assert report["approximation"]["status"] == "ok"
    assert report["degree"]["value"] == 1
    assert report["degree"]["expected"] == 2


def test_approximate_unknown_demo_usage(tmp_path):
    code, _, _ = run_cli(tmp_path, "approximate", {"demo": "missing-demo"})
    assert code == EXIT_USAGE


# ---------------------------------------------------------------------------
# determinism
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "command,config",
    [
        ("verify-spray", {"kind": "stereographic", "n": 1, "samples": 100}),
        ("verify-spray", {"kind": "group", "group": "SU(2)", "samples": 100}),
        ("degree", {"map": "a_k", "k": 2}),
        ("degree", {"map": "fermat", "k": 3, "n": 2}),
        ("make-ak", {"k": 2, "samples": 200}),
        ("approximate", {"demo": "s1-power-2-wiggle"}),
    ],
)
def test_reruns_are_byte_identical(tmp_path, command, config):
    _, _, out1 = run_cli(tmp_path, command, config, seed=5, name="one")
    _, _, out2 = run_cli(tmp_path, command, config, seed=5, name="two")
    assert out1.read_bytes() == out2.read_bytes()


def test_report_goes_to_stdout_without_out(tmp_path, capsys):
    _, _, out_path = run_cli(tmp_path, "make-ak", {"k": 2, "samples": 200}, seed=5)
    capsys.readouterr()
    assert main(["make-ak", "--config", str(tmp_path / "cfg.json"), "--seed", "5"]) == EXIT_OK
    assert capsys.readouterr().out.encode() == out_path.read_bytes()


def test_seed_echoed_and_config_roundtrip(tmp_path):
    code, report, _ = run_cli(tmp_path, "degree", {"map": "power", "d": 1}, seed=42)
    assert code == EXIT_OK
    assert report["seed"] == 42
    assert report["config"] == {"map": "power", "d": 1}


def test_import_leaves_scipy_special_unloaded():
    src = os.path.dirname(os.path.dirname(spraylab.__file__))
    code = (
        "import sys, spraylab\n"
        "from spraylab.sampling import sphere_quasi_uniform\n"
        "spraylab.calibration_sign()\n"
        "sphere_quasi_uniform(64, 5)\n"
        "sys.exit(any(m == 'scipy' or m.startswith('scipy.') for m in sys.modules))"
    )
    env = {**os.environ, "PYTHONPATH": src}
    assert subprocess.run([sys.executable, "-c", code], env=env).returncode == 0
