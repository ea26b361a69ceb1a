"""Compare the benchmark job digests of two checkouts, per workload and seed.

    python3 .github/compare_digests.py HEAD_CHECKOUT BASE_CHECKOUT SEED [SEED ...]

Reads ``.perfbench/<workload>-seed<seed>-trace0.json``, which
``perfbench/run.py --trace 0`` writes, in both checkouts.  For each workload
and seed it prints, as Markdown, how many of the head's job digests equal
the base's and the names of the jobs whose digests differ.  It only
reports: a file it cannot read is named, and it always exits with 0.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

WORKLOADS = ("pipeline-exact", "pipeline-newton", "degree-unitary", "verify-sprays")


def job_digests(checkout: str, workload: str, seed: str) -> dict:
    """Job name -> its canonical-report digests, as one run recorded them."""
    path = Path(checkout) / ".perfbench" / f"{workload}-seed{seed}-trace0.json"
    return {job["name"]: job["digests"] for job in json.loads(path.read_text())["jobs"]}


def main(argv: list) -> None:
    head, base, *seeds = argv
    print("```")
    for workload in WORKLOADS:
        for seed in seeds:
            try:
                ours, theirs = job_digests(head, workload, seed), job_digests(base, workload, seed)
            except (OSError, ValueError, KeyError) as exc:
                print(f"{workload} seed {seed}: cannot compare ({type(exc).__name__}: {exc})")
                continue
            names = list(ours) + [name for name in theirs if name not in ours]
            differ = [name for name in names if ours.get(name) != theirs.get(name)]
            equal = sum(ours[name] == theirs.get(name) for name in ours)
            print(f"{workload} seed {seed}: {equal} of {len(ours)} job digests equal the base's")
            if differ:
                print("  differ:", *differ)
    print("```")


if __name__ == "__main__":
    main(sys.argv[1:])
