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
    "pppt.opt.pdf_sir":
        "acceptance criterion 1 integrates it (tests/test_acceptance.py)",
    "pppt.simulation.default_window_radius":
        "benchmarks/tracer.py reads it by its qualified name",
}


def _module_aliases(tree, package):
    """Names a file binds to modules (``from pppt import opt``,
    ``from . import ian as _ian``, ``import numpy as np``), and the
    qualified names it imports by name from a module."""
    aliases, imported = {}, set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                top = alias.name if alias.asname else alias.name.split(".")[0]
                aliases[alias.asname or top] = top
        elif isinstance(node, ast.ImportFrom):
            base = ".".join(filter(None, [package, node.module])) if node.level else node.module
            for alias in node.names:
                full = f"{base}.{alias.name}"
                if full in MODULES:
                    aliases[alias.asname or alias.name] = full
                else:
                    imported.add(full)
    return aliases, imported


@pytest.fixture(scope="module")
def referenced_names():
    """Per file of the library and the demos, the qualified names
    ``module.attr`` it uses: imported by name from the module, or loaded as
    an attribute of a name bound to it.  An attribute of a base that names
    no module (the CLI's loop over modules) counts for every module, as
    ``*.attr``.  Definitions, bare loads and docstrings do not count."""
    names = {}
    for path in [*(ROOT / "src" / "pppt").glob("*.py"), *(ROOT / "demos").glob("*.py")]:
        tree = ast.parse(path.read_text(), str(path))
        package = "pppt" if path.parent.name == "pppt" else None
        aliases, names[path] = _module_aliases(tree, package)

        def module_of(node):
            if isinstance(node, ast.Name):
                return aliases.get(node.id)
            if isinstance(node, ast.Attribute) and (base := module_of(node.value)):
                return f"{base}.{node.attr}" if f"{base}.{node.attr}" in MODULES else None
            return None

        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                names[path].add(f"{module_of(node.value) or '*'}.{node.attr}")
    return names


@pytest.mark.parametrize("name", MODULES[1:])
def test_every_public_name_has_a_caller(name, referenced_names):
    # a name only its own module and the tests use is dead API: tests reach
    # private helpers instead.  Classes are exempt, as return and raise types.
    module = importlib.import_module(name)
    own = ROOT / "src" / "pppt" / f"{name.rsplit('.', 1)[1]}.py"
    used = set().union(*(loaded for path, loaded in referenced_names.items() if path != own))
    unused = sorted(attr for attr in module.__all__
                    if not {f"{name}.{attr}", f"*.{attr}"} & used
                    and not inspect.isclass(getattr(module, attr))
                    and f"{name}.{attr}" not in EXTERNAL_CALLERS)
    assert not unused, f"nothing in src/ or demos/ outside {name} uses {unused}"


def test_every_package_alias_has_a_caller(referenced_names):
    # a package alias is only a second path to its module's name, so classes
    # get no exemption: some file must load it through pppt itself
    package = importlib.import_module("pppt")
    used = set().union(*referenced_names.values())
    unused = sorted(attr for attr in package.__all__
                    if not inspect.ismodule(getattr(package, attr))
                    and f"pppt.{attr}" not in used)
    assert not unused, f"nothing in src/ or demos/ loads {unused} from pppt"


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


def _openblas():
    import numpy
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"]
    except TypeError:  # numpy < 1.26 does not report its BLAS as data
        return False
    return "openblas" in blas.lower()


blas_threads = pytest.mark.skipif(
    not os.path.isdir("/proc/self/task") or not _openblas(),
    reason="needs /proc/self/task and numpy built on OpenBLAS")


def _threads_after(code, **env_vars):
    """Thread count and OPENBLAS_NUM_THREADS after ``code`` in a fresh
    interpreter whose environment sets no BLAS thread count but ``env_vars``."""
    env = {k: v for k, v in os.environ.items()
           if k not in ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    env.update(env_vars)
    probe = (f"{code}; import os; "
             "print(len(os.listdir('/proc/self/task')), os.environ.get('OPENBLAS_NUM_THREADS'))")
    proc = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True,
                          text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    count, value = proc.stdout.split()
    return int(count), value


@blas_threads
def test_import_loads_one_blas_thread_and_restores_environment():
    assert _threads_after("import pppt") == (1, "None")


@blas_threads
@pytest.mark.parametrize("first, env_vars", [("", {"OPENBLAS_NUM_THREADS": "2"}),
                                             ("import numpy; ", {})],
                         ids=["explicit-setting", "numpy-imported-first"])
def test_blas_threads_left_to_the_caller(first, env_vars):
    assert (_threads_after(first + "import pppt", **env_vars)
            == _threads_after("import numpy", **env_vars))
