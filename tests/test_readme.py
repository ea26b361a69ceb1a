"""The README's library quick tour runs and prints what its comments say."""

import contextlib
import io
import re
from pathlib import Path

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
