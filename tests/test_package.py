"""Package-wide checks on the public names of `mnwaves`."""

import importlib
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
