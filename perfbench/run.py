"""The spraylab benchmark: certified-result workloads, timed end to end and traced per layer.

Run from the root of a checkout:

    python3 perfbench/run.py --workload pipeline-exact --seed 1 --seconds 15 --trace 0
    python3 perfbench/run.py --workload all --seed 1     # every workload, both modes

Each workload runs in fresh child processes whose environment pins
OPENBLAS_NUM_THREADS, OMP_NUM_THREADS and MKL_NUM_THREADS to 1 and sets
SPRAYLAB_THREADS to the number of usable cores; nothing else about the
machine is changed.  Several set-up-only children give the median
``setup_s``; one more child measures.

``--trace 0`` reports the end-to-end metrics: ``wall_s`` (sum over the job
list of each job's median time), ``job_max_s`` (the slowest job's median),
``setup_s`` (fresh interpreter to ready, median) and ``peak_rss_mb``.
``--trace 1`` first runs untraced for half the budget, then once with the
tracer installed, and reports the per-layer metrics of that traced pass,
including the tracing overhead (traced minus untraced ``wall_s``).

The last stdout line is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  ``failed`` counts jobs whose
certificate check failed or that raised; ``correct`` is false when a job
certified a wrong answer, a job's canonical report changed between runs,
or tracing changed a report.  The full record, spans included, is written
to ``.perfbench/`` in the checkout.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = ROOT / ".perfbench"
SETUP_SAMPLES = 5
CHILD_TIMEOUT_S = 150.0


class BenchError(RuntimeError):
    pass


def child_env() -> dict:
    env = dict(os.environ)
    env.update(
        OPENBLAS_NUM_THREADS="1",
        OMP_NUM_THREADS="1",
        MKL_NUM_THREADS="1",
        SPRAYLAB_THREADS=str(len(os.sched_getaffinity(0))),
    )
    return env


def run_child(args: list, timeout_s: float) -> tuple:
    """Start a child, time it from start to its ``ready`` line, return (setup_s, result)."""
    cmd = [sys.executable, str(HERE / "child.py")] + args
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, env=child_env(), stdout=subprocess.PIPE, text=True)
    killer = threading.Timer(timeout_s, proc.kill)
    killer.start()
    try:
        first = proc.stdout.readline()
        setup_s = time.perf_counter() - t0
        rest = proc.stdout.read()
        code = proc.wait()
    finally:
        killer.cancel()
        if proc.poll() is None:
            proc.kill()
        proc.wait()
        proc.stdout.close()
    if code != 0 or first.strip() != "ready":
        raise BenchError(f"child {' '.join(args)} exited with code {code}")
    lines = rest.strip().splitlines()
    if not lines:
        raise BenchError(f"child {' '.join(args)} printed no result")
    return setup_s, json.loads(lines[-1])


def run_workload(workload: str, seed: int, seconds: float, trace: int) -> dict:
    base = ["--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
            "--trace", str(trace)]
    setups = [run_child(base + ["--setup-only"], 60.0)[0] for _ in range(SETUP_SAMPLES - 1)]
    setup_s, result = run_child(base, CHILD_TIMEOUT_S)
    setups.append(setup_s)
    result["setup_samples_s"] = setups

    correct = result["wrong"] == 0 and result["deterministic"]
    if trace:
        correct = correct and result["trace_identical"]
        metrics = result["layers"]
    else:
        metrics = {
            "wall_s": {"value": result["wall_s"], "unit": "s"},
            "job_max_s": {"value": result["job_max_s"], "unit": "s"},
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
            "peak_rss_mb": {"value": result["peak_rss_mb"], "unit": "MB"},
        }
    result["summary"] = {"correct": correct, "attempted": result["attempted"],
                         "failed": result["failed"], "metrics": metrics}
    OUT_DIR.mkdir(exist_ok=True)
    (OUT_DIR / f"{workload}-seed{seed}-trace{trace}.json").write_text(json.dumps(result, indent=1))
    return result


def describe(result: dict) -> str:
    s = result["summary"]
    lines = [
        f"workload {result['workload']} seed {result['seed']} trace {result['trace']}: "
        f"correct={s['correct']} attempted={s['attempted']} failed={s['failed']} "
        f"fail_ratio={s['failed'] / s['attempted']:.4f} (jobs failed / jobs attempted)",
        "  env " + json.dumps(result["env"], sort_keys=True),
    ]
    for job in result["jobs"]:
        note = f"  FAILED {job['failed']}x: {'; '.join(job['reasons'])}" if job["failed"] else ""
        lines.append(f"  job {job['name']:<44} runs {len(job['seconds']):>3} "
                     f"median {job['median_s']:8.4f} s{note}")
    for name, m in s["metrics"].items():
        lines.append(f"  {name:<34} {m['value']:.6g} {m['unit']}")
    return "\n".join(lines)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=15)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "spraylab" / "__init__.py").is_file():
        print(f"benchmark: no spraylab sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")

    try:
        if args.workload != "all":
            result = run_workload(args.workload, args.seed, args.seconds, args.trace)
            print(describe(result))
            print(json.dumps(result["summary"]))
            return 0
        for workload in WORKLOADS:
            for trace in (0, 1):
                print(describe(run_workload(workload, args.seed, args.seconds, trace)), flush=True)
    except BenchError as exc:
        print(f"benchmark: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
