"""Rayleigh waves on a non-local micropolar elastic half-space.

Modules by concern:

    material    physical constants, derived wave speeds, JSON config I/O
    specfun     Bessel K0/K1 and adaptive quadrature (the oracle substrate)
    kernel      the 2D non-local kernel, integral and differential models
    wavefield   mode ansatz, decay exponents, local/non-local stresses
    dispersion  the two leading-order dispersion relations and sweeps
    asymptotic  equivalence-failure residuals and refined surface conditions
    cli         the `mnw` command-line tool
"""

from .material import (
    DerivedScales,
    InvalidMaterialError,
    MaterialParams,
    ValidationOutcome,
    derive_scales,
    load_material,
    material_from_json,
    validate,
)
from .specfun import (
    ConvergenceError,
    DEFAULT_QUAD_SPEC,
    QuadratureSpec,
    bessel_k0,
    bessel_k1,
    integrate_1d,
    integrate_2d_polar,
)
from .kernel import (
    ScalarField2D,
    apply_helmholtz,
    boundary_operator,
    convolve_halfplane,
    kernel_weight,
)
from .wavefield import (
    Amplitudes,
    DecayExponents,
    ModeParams,
    ModeSolution,
    StressState,
    blayer_integral_closed,
    blayer_integral_quadrature,
    decay_exponents,
    local_stresses,
    nonlocal_stresses,
    pde_residual,
)
from .dispersion import (
    CutoffError,
    DispersionCurve,
    DispersionPoint,
    NoSurfaceModeError,
    elastic_amplitudes,
    micropolar_amplitudes,
    micropolar_velocity,
    secular_leading,
    solve_rayleigh,
    sweep,
)
from .asymptotic import (
    bc_residual_order,
    equivalence_residual_elastic,
    equivalence_residual_micropolar,
    extra_bc_residual,
)

__version__ = "0.1.0"
