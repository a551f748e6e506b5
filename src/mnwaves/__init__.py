"""Rayleigh waves on a non-local micropolar elastic half-space.

Modules by concern:

    material    physical constants, derived wave speeds, JSON config I/O
    specfun     Bessel K0/K1 and adaptive quadrature (the oracle substrate)
    kernel      the 2D non-local kernel, integral and differential models
    wavefield   mode ansatz, decay exponents, local/non-local stresses
    dispersion  the two leading-order dispersion relations and sweeps
    asymptotic  equivalence-failure residuals and refined surface conditions
    cli         the `mnw` command-line tool

`import mnwaves` runs none of them.  The six library modules are registered
in `sys.modules` and on the package up front, and each runs its code on the
first access to one of its attributes; a public name such as
`mnwaves.solve_rayleigh` is looked up in its module on every access, so the
package holds no copy of it.  Only `material` is needed for the scalar
inputs, so `mnw validate` and `mnw speeds` never load numpy.
"""

import importlib.util
import sys
import threading
import types

__version__ = "0.1.0"

# each library module, in dependency order, with the public names it gives
_EXPORTS = {
    "material": ("DerivedScales", "InvalidMaterialError", "MaterialParams",
                 "ValidationOutcome", "derive_scales", "load_material",
                 "material_from_json", "validate"),
    "specfun": ("ConvergenceError", "DEFAULT_QUAD_SPEC", "QuadratureSpec",
                "bessel_k0", "bessel_k1", "integrate_1d",
                "integrate_2d_polar"),
    "kernel": ("ScalarField2D", "apply_helmholtz", "boundary_operator",
               "convolve_halfplane", "kernel_weight"),
    "wavefield": ("Amplitudes", "DecayExponents", "ModeParams",
                  "ModeSolution", "StressState", "blayer_integral_closed",
                  "blayer_integral_quadrature", "decay_exponents",
                  "local_stresses", "nonlocal_stresses", "pde_residual"),
    "dispersion": ("CutoffError", "DispersionCurve", "DispersionPoint",
                   "NoSurfaceModeError", "elastic_amplitudes",
                   "micropolar_amplitudes", "micropolar_velocity",
                   "secular_leading", "solve_rayleigh", "sweep"),
    "asymptotic": ("bc_residual_order", "equivalence_residual_elastic",
                   "equivalence_residual_micropolar", "extra_bc_residual"),
}
_MODULE_OF = {name: module
              for module, names in _EXPORTS.items() for name in names}
__all__ = list(_MODULE_OF)

# held while a module runs: a second thread waits for the whole module
# instead of reading its half-filled namespace
_LOCK = threading.RLock()
_running: set[types.ModuleType] = set()   # all in the thread holding it


class _Deferred(types.ModuleType):
    """A registered module whose code has not run yet.

    Any attribute access runs it once, then the module becomes a plain
    `ModuleType`, so later accesses cost nothing extra.  While it runs, the
    running thread reads it as it stands (as in any import); other threads
    wait.  If its code raises, the exception reaches the caller and the
    module is put back as it was, so the next access runs it again.
    """

    def __getattribute__(self, name):
        with _LOCK:
            if type(self) is _Deferred and self not in _running:
                _run(self)
        return types.ModuleType.__getattribute__(self, name)


def _run(module: _Deferred) -> None:
    _running.add(module)
    fresh = dict(module.__dict__)
    try:
        module.__spec__.loader.exec_module(module)
        module.__class__ = types.ModuleType
    except BaseException:
        module.__dict__.clear()
        module.__dict__.update(fresh)
        raise
    finally:
        _running.discard(module)


def _register(name: str) -> types.ModuleType:
    spec = importlib.util.find_spec(f"{__name__}.{name}")
    module = importlib.util.module_from_spec(spec)
    module.__class__ = _Deferred
    sys.modules[spec.name] = module
    return module


for _name in _EXPORTS:
    globals()[_name] = _register(_name)
del _name


def __getattr__(name: str):
    try:
        home = _MODULE_OF[name]
    except KeyError:
        raise AttributeError(
            f"module {__name__!r} has no attribute {name!r}") from None
    return getattr(globals()[home], name)


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))
