import importlib

import pytest

# the package and the modules whose __all__ the traced benchmark wraps
MODULES = ("pppt", "pppt.numerics", "pppt.ian", "pppt.opt", "pppt.fixed_rate",
           "pppt.simulation", "pppt.model")


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(name)
    missing = [attr for attr in module.__all__ if not hasattr(module, attr)]
    assert not missing, f"{name}.__all__ lists undefined names {missing}"
