"""The benchmark's per-layer tracer (bench/tracer.py) wraps mnwaves
functions by "module.name"; a rename in the library must not leave it
pointing at nothing."""

import importlib
import runpy
from pathlib import Path

TRACER = Path(__file__).resolve().parent.parent / "bench" / "tracer.py"


def test_traced_names_resolve():
    traced = runpy.run_path(str(TRACER))["TRACED"]  # source only, no .pyc
    assert traced
    for qualified in traced:
        module_name, func_name = qualified.split(".")
        module = importlib.import_module("mnwaves." + module_name)
        assert callable(getattr(module, func_name, None)), qualified
