"""Every public function and class of every coldec module has a docstring."""

import importlib
import inspect
import pkgutil

import pytest

import coldec

MODULES = ["coldec"] + [f"coldec.{m.name}" for m in pkgutil.iter_modules(coldec.__path__)]


@pytest.mark.parametrize("module", MODULES)
def test_public_names_have_docstrings(module):
    mod = importlib.import_module(module)
    missing = []
    for name in mod.__all__:
        obj = getattr(mod, name)
        if inspect.isclass(obj):
            doc = vars(obj).get("__doc__")  # not one inherited from a base class
        elif inspect.isfunction(obj):
            doc = obj.__doc__
        else:
            continue
        if not (doc or "").strip():
            missing.append(name)
    assert not missing, f"{module}: no docstring on {missing}"
