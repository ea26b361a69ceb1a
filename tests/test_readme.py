"""The README's library quick tour runs and prints what its comments say,
and each of its config examples is accepted by the builder its command uses."""

import contextlib
import io
import json
import re
from pathlib import Path

from spraylab import cli
from spraylab.degree import MatrixSphereMap
from spraylab.demos import DEMOS, DemoSetup
from spraylab.sprays import Spray

README = Path(__file__).resolve().parents[1] / "README.md"


def quick_tour() -> str:
    section = README.read_text().split("## Library quick tour", 1)[1]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


def test_readme_quick_tour_runs_and_prints_its_comments():
    code = quick_tour()
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(code, str(README), "exec"), {"__name__": "readme_quick_tour"})
    comments = re.findall(r"^print\(.*\)\s+# (.+)$", code, re.M)
    printed = out.getvalue().splitlines()
    assert len(printed) == len(comments)
    for line, comment in zip(printed, comments):
        if "~" not in comment:
            assert line == comment
            continue
        # "~x" is an order of magnitude: the printed value is within 10x of x.
        figures = [float(f) for f in re.findall(r"~([-+.e\d]+)", comment)]
        values = [float(v) for v in line.split()]
        assert len(values) == len(figures)
        for value, figure in zip(values, figures):
            assert figure / 10.0 <= value <= figure * 10.0, (line, comment)


def config_examples() -> list:
    section = README.read_text().split("Config examples:", 1)[1].split("\n## ", 1)[0]
    blocks = re.findall(r"```json\n(.*?)```", section, re.S)
    return [json.loads(line) for block in blocks for line in block.splitlines() if line]


def build_config_example(config: dict):
    # The builder each command hands its config to, without running the command.
    if "kind" in config:
        return cli.build_spray(config)
    if "map" in config:
        self_map = cli._SPHERE_SELF_MAPS.get(config["map"])
        return self_map(config) if self_map else cli._build_matrix_map(config)
    return DEMOS[config["demo"]]()


def test_readme_config_examples_build():
    built = {"kind": [], "map": [], "demo": []}
    for config in config_examples():
        (key,) = set(built) & set(config)
        built[key].append(build_config_example(config))
    assert all(built.values())
    assert all(isinstance(spray, Spray) for spray in built["kind"])
    assert all(isinstance(f, MatrixSphereMap) or callable(f) for f in built["map"])
    assert all(isinstance(demo, DemoSetup) for demo in built["demo"])


def test_readme_has_a_config_example_for_every_spray_kind():
    kinds = {config["kind"] for config in config_examples() if "kind" in config}
    assert kinds == set(cli._SPRAY_KINDS)
