"""Package-wide checks on the public names of `mnwaves`."""

import importlib
import inspect
import pkgutil

import pytest

import mnwaves

MODULES = sorted(info.name for info in pkgutil.iter_modules(mnwaves.__path__))


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    # nothing does `import *`, so a stale `__all__` entry breaks no import
    module = importlib.import_module(f"mnwaves.{name}")
    missing = [attr for attr in getattr(module, "__all__", ())
               if not hasattr(module, attr)]
    assert not missing, missing


@pytest.mark.parametrize("name", MODULES)
def test_no_function_takes_a_dispersion_point(name):
    # a sweep row is output: callers pass the plain v, k and omega it holds
    module = importlib.import_module(f"mnwaves.{name}")
    offenders = [
        f"{fname}({param.name})"
        for fname, func in inspect.getmembers(module, inspect.isfunction)
        if not fname.startswith("_") and func.__module__ == module.__name__
        for param in inspect.signature(func).parameters.values()
        if "DispersionPoint" in str(param.annotation)
    ]
    assert not offenders, offenders
