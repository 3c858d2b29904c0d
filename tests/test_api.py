import ast
import importlib
import inspect
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent

# the package and the modules whose __all__ the traced benchmark wraps
MODULES = ("pppt", "pppt.numerics", "pppt.ian", "pppt.opt", "pppt.fixed_rate",
           "pppt.simulation", "pppt.model")


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(name)
    missing = [attr for attr in module.__all__ if not hasattr(module, attr)]
    assert not missing, f"{name}.__all__ lists undefined names {missing}"


# public names no file of the library or the demos loads, with the reason
# each stays public
EXTERNAL_CALLERS = {
    "pppt.simulation.default_window_radius":
        "benchmarks/tracer.py reads it by its qualified name",
}


@pytest.fixture(scope="module")
def referenced_names():
    """Per file of the library and the demos, every name it loads in code,
    bare or as an attribute; definitions, imports and docstrings do not
    count."""
    names = {}
    for path in [*(ROOT / "src" / "pppt").glob("*.py"), *(ROOT / "demos").glob("*.py")]:
        loaded = names[path] = set()
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                loaded.add(node.id)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                loaded.add(node.attr)
    return names


@pytest.mark.parametrize("name", MODULES[1:])
def test_every_public_name_has_a_caller(name, referenced_names):
    # a name only its own module and the tests use is dead API: tests reach
    # private helpers instead.  Classes are exempt, as return and raise types.
    module = importlib.import_module(name)
    own = ROOT / "src" / "pppt" / f"{name.rsplit('.', 1)[1]}.py"
    used = set().union(*(loaded for path, loaded in referenced_names.items() if path != own))
    unused = sorted(attr for attr in module.__all__
                    if attr not in used and not inspect.isclass(getattr(module, attr))
                    and f"{name}.{attr}" not in EXTERNAL_CALLERS)
    assert not unused, f"nothing in src/ or demos/ outside {name} uses {unused}"


def test_cli_import_needs_numpy_only():
    # scipy is a test oracle, not a runtime dependency
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    code = ("import sys, pppt.cli; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"
