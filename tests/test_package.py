"""Package-wide checks on the public names of `mnwaves`."""

import dataclasses
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


def test_stress_state_fields_are_required():
    # both stress functions fill every slot, so a default would only hide
    # a slot one of them forgot
    fields = dataclasses.fields(mnwaves.StressState)
    assert [f.name for f in fields] == ["u1", "u3", "phi2", "sigma11",
                                        "sigma13", "sigma31", "sigma33",
                                        "pi12", "pi32"]
    assert all(f.default is dataclasses.MISSING
               and f.default_factory is dataclasses.MISSING for f in fields)
