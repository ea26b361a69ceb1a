"""Tests of the benchmark itself: run with ``python3 -m pytest perfbench``."""

import json
from pathlib import Path

import pytest

import workloads
from child import measure, summarize
from tracer import METRICS, REQUIRED, Tracer, check_required
from workloads import Hooks, Job, build_jobs, draw_specs, gate_pipeline


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_generators_are_deterministic_per_seed(workload):
    first = draw_specs(workload, 7)
    assert draw_specs(workload, 7) == first
    assert json.loads(json.dumps(first)) == first
    assert draw_specs(workload, 8) != first


def test_workloads_draw_different_inputs_from_one_seed():
    assert draw_specs("pipeline-exact", 7)[0] != draw_specs("pipeline-newton", 7)[0]


class _Certified:
    """An approximation that claims success: status ok, on target, exact membership."""

    status, c0, membership_max = "ok", 1e-6, 1e-16


def test_gate_counts_planted_wrong_degree(lib):
    # antipodal_map on S2 has degree -1; the planted expectation is +1.
    spec = {"family": "planted", "target_c0": 1e-4, "expected_degree": 1}

    def run(hooks):
        degree = lib.degree.sphere_degree(lib.degree.antipodal_map, 2)
        return "report", gate_pipeline(spec, _Certified(), degree.value)

    jobs = [Job("planted", spec, run)]
    summary = summarize(jobs, measure(jobs, 0.0, Hooks(), 1))
    assert summary["failed"] == 1
    assert summary["wrong"] == 1
    assert "degree -1 != expected 1" in summary["jobs"][0]["reasons"][0]


def test_gate_honest_failure_is_not_wrong():
    spec = {"target_c0": 1e-4, "expected_degree": 1}

    class Exhausted(_Certified):
        status, c0 = "degree_exhausted", 1.3

    verdict = gate_pipeline(spec, Exhausted(), 1)
    assert not verdict.passed and not verdict.wrong


def test_raising_job_fails_without_crashing_the_harness():
    def run(hooks):
        raise RuntimeError("planted")

    jobs = [Job("raises", {"family": "raises"}, run)]
    summary = summarize(jobs, measure(jobs, 0.0, Hooks(), 1))
    assert summary["failed"] == 1 and summary["wrong"] == 0
    assert summary["jobs"][0]["reasons"] == ["RuntimeError: planted"]


def _cheap_jobs(lib):
    specs = [s for s in draw_specs("pipeline-exact", 3) if s["kind"] == "s1-wiggle"][:1]
    specs += [s for s in draw_specs("degree-unitary", 3) if s["family"] == "a_3"]
    specs += [s for s in draw_specs("verify-sprays", 3)
              if s["family"] in ("SO(3):sphere:shrink", "a_3-identities")]
    return build_jobs(lib, specs)


def test_traced_and_untraced_reports_are_byte_identical(lib):
    jobs = _cheap_jobs(lib)
    untraced = [workloads.run_job(job, Hooks()) for job in jobs]
    originals = {name: getattr(lib.approx, name) for name in ("approximate", "track_eta")}
    tracer = Tracer()
    tracer.install(lib)
    try:
        traced = [workloads.run_job(job, tracer) for job in jobs]
    finally:
        tracer.uninstall()
    assert all(verdict.passed for _, verdict in untraced + traced)
    assert [text for text, _ in traced] == [text for text, _ in untraced]
    assert {name: getattr(lib.approx, name) for name in originals} == originals
    metrics = tracer.metrics({"import_s": 0.0, "calibration_s": 0.0}, 0.0)
    for name in ("approx.fit.columns", "sprays.eval_calls", "degree.map_calls",
                 "degree.compress_s", "geometry.shrink_calls", "serialize.report_bytes"):
        assert metrics[name]["value"] > 0, name


def test_disappeared_name_fails_loudly(lib, monkeypatch):
    original = lib.approx.approximate
    monkeypatch.delattr(lib.approx, "track_eta")
    with pytest.raises(RuntimeError, match="track_eta"):
        Tracer().install(lib)
    assert lib.approx.approximate is original


def test_zero_counter_fails_loudly():
    metrics = Tracer().metrics({"import_s": 0.0, "calibration_s": 0.0}, 0.0)
    with pytest.raises(RuntimeError, match="stayed at zero"):
        check_required("pipeline-newton", metrics)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_required_names_are_per_layer_metrics(workload):
    assert set(REQUIRED[workload]) <= set(METRICS)


def test_benchmark_json_names_every_reported_metric():
    doc = json.loads((Path(__file__).parent.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in doc["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in doc["per_layer"]} == METRICS
    assert [m["name"] for m in doc["end_to_end"]] == ["wall_s", "job_max_s", "setup_s", "peak_rss_mb"]
