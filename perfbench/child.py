"""One workload in a fresh interpreter: set up, then run jobs for a time budget.

Started by ``run.py``; not meant to be run by hand.  Protocol on stdout: the
line ``ready`` once set-up is done (the parent times interpreter start to
this line), then one JSON line with the results.  With ``--setup-only`` the
child stops after set-up.

Set-up imports ``spraylab`` from the checkout's ``src/``, builds every
seeded input and fills the lazy ``calibration_sign`` cache.  Measurement
runs whole passes over the job list, at least ``MIN_PASSES`` of them, and
starts another while a typical pass still fits in the budget.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib
import json
import os
import platform
import resource
import statistics
import sys
import time
import types
from pathlib import Path

import workloads

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
# A job's time is the median of at least this many runs.
MIN_PASSES = 2
MODULES = ("approx", "degree", "geometry", "sampling", "serialize", "sprays")


def load_library():
    """Import spraylab from this checkout; refuse any other copy."""
    if not (SRC / "spraylab" / "__init__.py").is_file():
        raise SystemExit(f"benchmark: no spraylab sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import spraylab

    if Path(spraylab.__file__).resolve().parent != (SRC / "spraylab").resolve():
        raise SystemExit(f"benchmark: imported spraylab from {spraylab.__file__}, not {SRC}")
    return types.SimpleNamespace(
        **{name: importlib.import_module(f"spraylab.{name}") for name in MODULES}
    )


def environment() -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "nproc": len(os.sched_getaffinity(0)),
        "threads_env": {k: os.environ.get(k) for k in
                        ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
                         "SPRAYLAB_THREADS")},
    }


def digest(text) -> str:
    return hashlib.sha256(text.encode()).hexdigest() if text is not None else "none"


def measure(jobs: list, budget_s: float, hooks, min_passes: int, tracer=None) -> list:
    """Run whole passes over the job list while another pass fits in ``budget_s``."""
    runs = [[] for _ in jobs]  # per job: (seconds, digest, verdict)
    passes = []
    t_start = time.perf_counter()
    while len(passes) < min_passes or (
        time.perf_counter() - t_start + statistics.median(passes) <= budget_s
    ):
        t_pass = time.perf_counter()
        for i, job in enumerate(jobs):
            if tracer is not None:
                tracer.job = i
            t0 = time.perf_counter()
            text, verdict = workloads.run_job(job, hooks)
            runs[i].append((time.perf_counter() - t0, digest(text), verdict))
        passes.append(time.perf_counter() - t_pass)
    return runs


def summarize(jobs: list, runs: list) -> dict:
    """Per-job records plus the end-to-end times.

    A job's time is the median of its runs and ``wall_s`` sums them over the
    job list.  A family's time is the median over every run of every job in
    it, and ``job_max_s`` is the slowest family's time, so one unusual draw
    in a family of several jobs does not set it.
    """
    per_job, families = [], {}
    for job, rs in zip(jobs, runs):
        seconds = [r[0] for r in rs]
        families.setdefault(job.spec["family"], []).extend(seconds)
        per_job.append({
            "name": job.name,
            "spec": job.spec,
            "seconds": seconds,
            "median_s": statistics.median(seconds),
            "digests": sorted({r[1] for r in rs}),
            "failed": sum(not r[2].passed for r in rs),
            "wrong": sum(r[2].wrong for r in rs),
            "reasons": sorted({r[2].reason for r in rs if r[2].reason}),
        })
    family_s = {name: statistics.median(secs) for name, secs in families.items()}
    return {
        "jobs": per_job,
        "family_s": family_s,
        "wall_s": sum(j["median_s"] for j in per_job),
        "job_max_s": max(family_s.values()),
        "attempted": sum(len(rs) for rs in runs),
        "failed": sum(j["failed"] for j in per_job),
        "wrong": sum(j["wrong"] for j in per_job),
        "deterministic": all(len(j["digests"]) == 1 for j in per_job),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    t0 = time.perf_counter()
    lib = load_library()
    t1 = time.perf_counter()
    jobs = workloads.build_jobs(lib, workloads.draw_specs(args.workload, args.seed))
    t2 = time.perf_counter()
    lib.degree.calibration_sign()
    t3 = time.perf_counter()
    setup = {"import_s": t1 - t0, "inputs_s": t2 - t1, "calibration_s": t3 - t2}
    print("ready", flush=True)
    if args.setup_only:
        print(json.dumps({"setup": setup}), flush=True)
        return 0

    result = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
              "setup": setup, "env": environment()}
    if not args.trace:
        runs = measure(jobs, args.seconds, workloads.Hooks(), MIN_PASSES)
        result.update(summarize(jobs, runs))
        result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    else:
        from tracer import Tracer, check_required

        runs = measure(jobs, args.seconds / 2.0, workloads.Hooks(), 1)
        tracer = Tracer()
        tracer.install(lib)
        try:
            traced = measure(jobs, 0.0, tracer, 1, tracer)
        finally:
            tracer.uninstall()
        untraced, traced_summary = summarize(jobs, runs), summarize(jobs, traced)
        result.update(summarize(jobs, [a + b for a, b in zip(runs, traced)]))
        result["wall_s"] = untraced["wall_s"]
        result["traced_wall_s"] = traced_summary["wall_s"]
        result["trace_identical"] = all(
            u["digests"] == t["digests"] for u, t in zip(untraced["jobs"], traced_summary["jobs"])
        )
        result["layers"] = tracer.metrics(setup, traced_summary["wall_s"] - untraced["wall_s"])
        check_required(args.workload, result["layers"])
        result["spans"] = tracer.dump()
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
