"""Package-wide checks on the public names of `mnwaves`."""

import importlib
import inspect
import pkgutil
import subprocess
import sys

import numpy as np
import pytest

from conftest import subprocess_env
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
    params = inspect.signature(mnwaves.StressState).parameters.values()
    assert [p.name for p in params] == ["u1", "u3", "phi2", "sigma11",
                                        "sigma13", "sigma31", "sigma33",
                                        "pi12", "pi32"]
    assert all(p.default is inspect.Parameter.empty for p in params)


_GRID = np.ones((4, 4), dtype=complex)   # shared, so two fields compare equal


_POINT = (1.0, 2.0, 0.5, "elastic", None, 0.0, True)


def _point():
    return mnwaves.DispersionPoint(*_POINT)


# per record class: fresh constructor arguments with the same values on
# every call, and a replace() that its __init__ must reject
RECORDS = {
    "MaterialParams": (lambda: (2e9, 1e9, 2e8, 1.0, 1.0, 50.0, 2000.0,
                                1e-6, 1e-4), None),
    "DerivedScales": (lambda: (3.0, 2.0, 1.0, 1.5, 0.8, 1e5), {"d": 2.0}),
    "ValidationOutcome": (lambda: (False, ("rho > 0",)), None),
    "QuadratureSpec": (lambda: (1e-8,), {"rel_tol": 0.0}),
    "ScalarField2D": (lambda: (4, 4, 0.5, 0.5, 0.0, _GRID),
                      {"values": np.full((4, 4), np.nan)}),
    "ModeParams": (lambda: (2.0, 3.0, 1.5, 0.1), {"eps": -1.0}),
    "DecayExponents": (lambda: (1.0, 0.5, 1.0, 0.5, 0.2j, 0.3, 0.1j), None),
    "Amplitudes": (lambda: (1.0, 1.0, 0.5j), None),
    "StressState": (lambda: tuple(complex(i, -i) for i in range(9)), None),
    "ModeSolution": (lambda: (
        mnwaves.MaterialParams(*RECORDS["MaterialParams"][0]()),
        mnwaves.ModeParams(2.0, 3.0, 1.5, 0.1),
        mnwaves.Amplitudes(1.0, 1.0, 0.5j),
        mnwaves.DecayExponents(1.0, 0.5, 1.0, 0.5)), None),
    "DispersionPoint": (lambda: _POINT, None),
    "DispersionCurve": (lambda: ((_point(),),),
                        {"points": (_point(), _point())}),
}


@pytest.mark.parametrize("name", RECORDS)
def test_record_is_a_frozen_value(name):
    cls = getattr(mnwaves, name)
    args, bad_change = RECORDS[name]
    a, b = cls(*args()), cls(*args())
    if name == "MaterialParams":
        mnwaves.derive_scales(a)   # the cached scales are not a field
    first = next(iter(inspect.signature(cls).parameters))
    for attr in (first, "not_a_field"):
        with pytest.raises(AttributeError):
            setattr(a, attr, 1.0)
    with pytest.raises(AttributeError):
        delattr(a, first)
    assert a == b and not a != b
    if name == "ScalarField2D":   # a numpy array is unhashable
        with pytest.raises(TypeError):
            hash(a)
        # values compare as whole arrays, not by identity
        c, d = (cls(4, 4, 0.5, 0.5, 0.0, np.ones((4, 4))) for _ in range(2))
        assert c == d and not c != d
        changed = np.ones((4, 4))
        changed[2, 1] = 2.0
        assert c != cls(4, 4, 0.5, 0.5, 0.0, changed)
    else:
        assert hash(a) == hash(b)
    other = type("Other", (cls,), {})(*args())
    assert a != other and other != a
    assert a.replace() == a and a.replace() is not a
    assert repr(a).startswith(f"{name}({first}={getattr(a, first)!r}")
    if bad_change is not None:
        with pytest.raises(ValueError):
            a.replace(**bad_change)


# what `mnwaves` exported when its __init__ imported every module eagerly,
# with boundary_operator since moved from kernel to asymptotic; the deferred
# namespace must give each name from the module listed here
EAGER_EXPORTS = {
    "material": ["DerivedScales", "InvalidMaterialError", "MaterialParams",
                 "ValidationOutcome", "derive_scales", "load_material",
                 "material_from_json", "validate"],
    "specfun": ["ConvergenceError", "DEFAULT_QUAD_SPEC", "QuadratureSpec",
                "bessel_k0", "bessel_k1", "integrate_1d",
                "integrate_2d_polar"],
    "kernel": ["ScalarField2D", "apply_helmholtz", "convolve_halfplane",
               "kernel_weight"],
    "wavefield": ["Amplitudes", "DecayExponents", "ModeParams",
                  "ModeSolution", "StressState", "blayer_integral_closed",
                  "blayer_integral_quadrature", "decay_exponents",
                  "local_stresses", "nonlocal_stresses", "pde_residual"],
    "dispersion": ["CutoffError", "DispersionCurve", "DispersionPoint",
                   "NoSurfaceModeError", "elastic_amplitudes",
                   "micropolar_amplitudes", "micropolar_velocity",
                   "secular_leading", "solve_rayleigh", "sweep"],
    "asymptotic": ["bc_residual_order", "boundary_operator",
                   "equivalence_residual_elastic",
                   "equivalence_residual_micropolar", "extra_bc_residual"],
}
EAGER_NAMES = [(module, name) for module, names in EAGER_EXPORTS.items()
               for name in names]


@pytest.mark.parametrize("module, name", EAGER_NAMES)
def test_eager_export_resolves_to_its_module(module, name):
    namespace = {}
    exec(f"from mnwaves import {name}", namespace)
    submodule = importlib.import_module(f"mnwaves.{module}")
    assert namespace[name] is getattr(submodule, name)
    assert getattr(mnwaves, module) is submodule


def test_all_is_the_export_table():
    assert sorted(mnwaves.__all__) == sorted(name for _, name in EAGER_NAMES)
    assert len(set(mnwaves.__all__)) == len(mnwaves.__all__)


def test_dir_lists_every_export_and_module():
    listed = set(dir(mnwaves))
    assert {name for _, name in EAGER_NAMES} <= listed
    assert set(EAGER_EXPORTS) | {"__version__"} <= listed


def test_unknown_name_is_named_in_the_error():
    with pytest.raises(AttributeError, match="'no_such_name'"):
        mnwaves.no_such_name
    with pytest.raises(ImportError, match="no_such_name"):
        exec("from mnwaves import no_such_name", {})


def _run_child(script: str) -> str:
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True,
                          text=True, env=subprocess_env(), timeout=120)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_concurrent_first_access_runs_the_module_once():
    """Eight threads released together touch a deferred module and the
    package name that resolves through it: none may see a half-run module."""
    out = _run_child("""\
import sys, threading
import mnwaves
sys.setswitchinterval(1e-6)        # switch threads as often as possible
N = 8
barrier = threading.Barrier(N)
found, errors = [None] * N, []
def touch(i):
    barrier.wait(timeout=60)
    try:
        found[i] = (mnwaves.dispersion.solve_rayleigh if i % 2
                    else mnwaves.solve_rayleigh)
    except BaseException as exc:
        errors.append(repr(exc))
threads = [threading.Thread(target=touch, args=(i,)) for i in range(N)]
for t in threads:
    t.start()
for t in threads:
    t.join(timeout=60)
print(sum(t.is_alive() for t in threads), errors, len({id(f) for f in found}),
      found[0].__module__)
""")
    assert out == "0 [] 1 mnwaves.dispersion\n"


def test_failed_module_run_reaches_the_caller_and_runs_again():
    """A module whose code raises is put back unrun: the next access raises
    the same error again instead of reading a half-run namespace."""
    out = _run_child("""\
import sys
sys.modules["numpy"] = None        # makes `import numpy` raise ImportError
import mnwaves
for _ in range(2):
    try:
        mnwaves.kernel.kernel_weight
    except ImportError as exc:
        print("ImportError", "numpy" in str(exc))
print(mnwaves.material.validate.__module__)
del sys.modules["numpy"]
print(mnwaves.kernel.kernel_weight(1.0, 1.0) > 0)
""")
    assert out == ("ImportError True\nImportError True\n"
                   "mnwaves.material\nTrue\n")
