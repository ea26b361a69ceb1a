"""Compare the README's CLI reports of two checkouts, per config and seed.

    python3 .github/cli_digests.py HEAD_CHECKOUT BASE_CHECKOUT SEED [SEED ...]

Reads the JSON lines of the head README's "Config examples" the way
``tests/test_readme.py`` does and runs each through its command (``kind``
configs through ``verify-spray``, ``map`` through ``degree``, ``demo``
through ``approximate``) as ``python3 -m spraylab.cli COMMAND --config FILE
--seed SEED --out FILE`` with ``PYTHONPATH=<checkout>/src``, in both
checkouts.  For each config and seed it prints, as Markdown, whether the
exit codes and the reports' sha256 digests match, and each child's peak RSS
in both checkouts, from the resource usage ``os.wait4`` returns for it (Linux
reports ``ru_maxrss`` in KiB).  It only reports: a run that cannot start or
times out is named, and it always exits with 0.
"""

from __future__ import annotations

import hashlib
import json
import os
import re
import subprocess
import sys
import tempfile
import time
from pathlib import Path

COMMANDS = {"kind": "verify-spray", "map": "degree", "demo": "approximate"}
TIMEOUT_S = 600


def config_examples(checkout: str) -> list:
    """The JSON configs of the README's "Config examples" section, one per line."""
    readme = (Path(checkout) / "README.md").read_text()
    section = readme.split("Config examples:", 1)[1].split("\n## ", 1)[0]
    blocks = re.findall(r"```json\n(.*?)```", section, re.S)
    return [json.loads(line) for block in blocks for line in block.splitlines() if line]


def run_report(checkout: str, command: str, config_path: Path, seed: str, out: Path) -> tuple:
    """(exit code or a failure note, sha256 of the written report or None,
    the child's peak RSS in MB or None)."""
    out.unlink(missing_ok=True)
    env = {**os.environ, "PYTHONPATH": str(Path(checkout).resolve() / "src")}
    args = [sys.executable, "-m", "spraylab.cli", command, "--config", str(config_path)]
    try:
        child = subprocess.Popen(
            args + ["--seed", seed, "--out", str(out)],
            env=env,
            cwd=checkout,
            stdout=subprocess.DEVNULL,
            stderr=subprocess.DEVNULL,
        )
    except OSError as exc:
        return type(exc).__name__, None, None
    # The child is reaped here, not by Popen, so that its rusage can be read.
    deadline = time.monotonic() + TIMEOUT_S
    while not (reaped := os.wait4(child.pid, os.WNOHANG))[0]:
        if time.monotonic() > deadline:
            child.kill()
            child.returncode = os.waitstatus_to_exitcode(os.wait4(child.pid, 0)[1])
            return "TimeoutExpired", None, None
        time.sleep(0.02)
    _, status, usage = reaped
    child.returncode = os.waitstatus_to_exitcode(status)
    digest = hashlib.sha256(out.read_bytes()).hexdigest() if out.exists() else None
    return child.returncode, digest, usage.ru_maxrss / 1024.0


def _rss(mb) -> str:
    return "n/a" if mb is None else f"{mb:.1f}"


def main(argv: list) -> None:
    head, base, *seeds = argv
    print("```")
    with tempfile.TemporaryDirectory() as scratch:
        config_path, out = Path(scratch) / "config.json", Path(scratch) / "report.json"
        for config in config_examples(head):
            (key,) = set(COMMANDS) & set(config)
            command, text = COMMANDS[key], json.dumps(config)
            config_path.write_text(text)
            for seed in seeds:
                ours = run_report(head, command, config_path, seed, out)
                theirs = run_report(base, command, config_path, seed, out)
                codes = "equal" if ours[0] == theirs[0] else f"{ours[0]} vs {theirs[0]}"
                if ours[1] != theirs[1]:
                    reports = "differ"
                else:
                    reports = "equal" if ours[1] else "written by neither"
                rss = f"peak RSS {_rss(ours[2])} vs {_rss(theirs[2])} MB"
                print(f"{command} {text} seed {seed}: exit codes {codes}, reports {reports}, {rss}")
    print("```")


if __name__ == "__main__":
    main(sys.argv[1:])
