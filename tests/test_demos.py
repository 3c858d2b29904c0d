"""Every demo runs to completion as a script, with every warning an error
(tables only without matplotlib), and the README's library quickstart
gives the values its comments state."""
import ast
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def test_demos_found():
    assert len(DEMOS) == 4


@pytest.mark.parametrize("demo", DEMOS, ids=[d.stem for d in DEMOS])
def test_demo_runs(demo, tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    # -W error: the package's no-numpy-warning contract covers the demos too
    proc = subprocess.run([sys.executable, "-W", "error", str(demo)], cwd=tmp_path, env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr


def test_readme_quickstart_values():
    # each statement of the quickstart block runs in turn; an expression
    # whose comment opens with a number, or a tuple whose first element it
    # is, must round to that number at the digits shown
    readme = (ROOT / "README.md").read_text()
    block = re.search(r"## Library quickstart\n\n```python\n(.*?)```", readme, re.S).group(1)
    lines, scope, checked = block.splitlines(), {}, []
    for node in ast.parse(block).body:
        if not isinstance(node, ast.Expr):
            exec(compile(ast.Module([node], []), "README.md", "exec"), scope)
            continue
        value = eval(compile(ast.Expression(node.value), "README.md", "eval"), scope)
        shown = re.search(r"#\s*\(?(\d+\.\d+)", lines[node.end_lineno - 1])
        if shown:
            number = value[0] if isinstance(value, tuple) else value
            digits = len(shown.group(1).split(".")[1])
            checked.append((round(number, digits), float(shown.group(1))))
    assert [shown for _, shown in checked] == [0.3154, 0.5218, 0.2453, 0.2714]
    assert all(got == shown for got, shown in checked), checked
