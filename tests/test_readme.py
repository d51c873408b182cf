"""The README's code samples run against the library as it is."""

import contextlib
import io
import math
import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def _python_block(heading: str) -> str:
    text = README.read_text(encoding="utf-8")
    section = text.split(f"## {heading}\n", 1)[1].split("\n## ", 1)[0]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


def test_quick_tour_runs_and_prints_what_its_comments_say():
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(_python_block("Quick tour"), str(README), "exec"), {})
    value, threshold = (float(line) for line in out.getvalue().split())
    assert value < 0.0  # "negative: detected"
    assert abs(threshold - math.sqrt(3.0 / 5.0)) < 1e-12  # "~ sqrt(3/5)"


def test_layout_table_lists_each_module_once():
    layout = README.read_text(encoding="utf-8").split("## Layout\n", 1)[1].split("\n## ", 1)[0]
    rows = re.findall(r"^\| `witwire\.(\w+)` \|", layout, re.M)
    package = README.parent / "src" / "witwire"
    modules = {p.stem for p in package.glob("*.py")} - {"__init__", "__main__"}
    assert sorted(rows) == sorted(modules)
