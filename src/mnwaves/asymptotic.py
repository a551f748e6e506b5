"""Equivalence-failure residuals and refined surface conditions.

A mode built from the differential non-local model does not satisfy the
integral-model equations of motion near the surface: the leading
boundary-layer coefficient of the momentum balance,

    elastic mode:     k^3/(2 (1+d)^2 r10) [ (1+d)^2 r10^2
                        - 2 r20^2 (d + r20^2 - 1) - (1 + d^2) ]
    micropolar mode:  k^3/(r20^2 + d) [ (1+d)^2 r10 r20 - (r20^2 + d)^2 ]

is nonzero whenever the other mode's relation is (they never vanish
together).  The cure is a surface-layer analysis: fast corrections
proportional to e^{-eta_f} with coefficients assembled here (`bl_coeffs`),
extra operator conditions on tau11 and M12 (`extra_bc_residual`), and the
refined traction conditions carrying the O(eps) and O(eps^2) corrections
(`bc_residual_refined`).

`first_order_elastic_solution` constructs, for a given eps, the mode that
satisfies the refined conditions through O(eps) exactly (a one-dimensional
root solve near the classical root).  Applying the classical conditions to
it leaves an O(eps) defect while the refined conditions leave O(eps^2) --
the slope study behind `bc_slope_study`.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from .dispersion import (DispersionPoint, amplitude_ratios, bracketed_root,
                         solve_rayleigh)
from .kernel import SurfaceTrace
from .material import MaterialParams, derive_scales
from .specfun import QuadratureSpec
from .wavefield import (
    Amplitudes,
    ModeParams,
    ModeSolution,
    _branches,
    blayer_closed_form,
    blayer_closed_form_deta,
    blayer_integral_closed,
    blayer_integral_quadrature,
    decay_exponents,
    leading_exponents,
    pde_residual,
    shear_balance_s,
    stress_branch_coeffs,
)

__all__ = [
    "BoundaryLayerCoeffs",
    "BCResidualReport",
    "equivalence_residual_elastic",
    "equivalence_residual_micropolar",
    "bl_coeffs",
    "bc_residual_order",
    "extra_bc_residual",
    "bc_residual_refined",
    "bc_residual_report",
    "first_order_elastic_solution",
    "bc_slope_study",
    "blayer_convergence",
    "residual_report_json",
]

SLOPE_EPS_GRID = (0.2, 0.1, 0.05)
_BLAYER_ETA_GRID = (0.0, 0.5, 2.0)


@dataclass(frozen=True)
class BoundaryLayerCoeffs:
    """Fast-layer coefficients of the e^{-eta_f} corrections.

    q*_0 are the leading force-stress coefficients, q*_1 the first-order
    ones, s*_0 the couple-stress coefficients; all vanish when the driving
    surface traces vanish.  eps is retained so the composite surface
    corrections (eps q31_0 + eps^2 q31_1 and so on) can be assembled.
    """

    q11_0: complex
    q31_0: complex
    q33_0: complex
    q11_1: complex
    q31_1: complex
    q33_1: complex
    s12_0: complex
    s32_0: complex
    eps: float


@dataclass(frozen=True)
class BCResidualReport:
    """Surface-condition residuals of one mode solution, all dimensionless.

    Force rows are normalized by k^2 (mu+kappa) |Q| and the couple row by
    k (mu+kappa) |Q|; `normalization` records the force-row reference.
    With a_nl = 0 the refined triple coincides with the classical one.
    """

    classical: tuple[complex, complex, complex]
    first_order: tuple[complex, complex, complex]
    refined: tuple[complex, complex, complex]
    extra: tuple[complex, complex]
    normalization: float


def equivalence_residual_elastic(m: MaterialParams,
                                 point: DispersionPoint) -> complex:
    """Leading boundary-layer coefficient of the momentum defect, elastic mode.

    This is the factor multiplying exp(-k z / eps); eps itself drops out of
    the leading coefficient.  A nonzero value is the failure of equivalence
    between the differential and integral models.
    """
    if not math.isfinite(point.k):
        raise ValueError("point carries no wavenumber; take one from a sweep "
                         "or attach k before computing the residual")
    sc = derive_scales(m)
    d = sc.d
    r10, _ = leading_exponents(m, point.v)
    r20sq = 1.0 - (point.v / sc.c2) ** 2
    if r10 == 0:
        raise ZeroDivisionError("residual is singular: r10 = 0")
    bracket = ((1.0 + d) ** 2 * r10 * r10
               - 2.0 * r20sq * (d + r20sq - 1.0)
               - (1.0 + d * d))
    return point.k ** 3 / (2.0 * (1.0 + d) ** 2 * r10) * bracket


def equivalence_residual_micropolar(m: MaterialParams, v: float,
                                    k: float) -> complex:
    """Leading boundary-layer coefficient on the micropolar mode.

    Proportional to the elastic-mode secular expression, so it vanishes only
    at the other mode's root: the two modes never coexist.
    """
    d = derive_scales(m).d
    r10, r20 = leading_exponents(m, v)
    r20sq = r20 * r20
    return (k ** 3 / (r20sq + d)
            * ((1.0 + d) ** 2 * r10 * r20 - (r20sq + d) ** 2))


def _surface_pair(trace: SurfaceTrace | None) -> tuple[complex, complex]:
    """(g(0), g'(0)) of a trace; a missing trace contributes zeros."""
    if trace is None:
        return 0j, 0j
    return complex(trace.amplitude), complex(-trace.decay * trace.amplitude)


def bl_coeffs(surface_sigma11: SurfaceTrace, surface_pi12: SurfaceTrace | None,
              eps: float,
              sigma11_first_order: SurfaceTrace | None = None,
              pi12_first_order: SurfaceTrace | None = None) -> BoundaryLayerCoeffs:
    """Coefficients of the decaying fast-layer solutions  C e^{-eta_f}.

    Leading order, from the surface value of the dimensionless sigma11 trace
    (chi-derivatives act on the carrier as multiplication by i w):

        Q11_0 = -1/2 sigma11|0,   Q31_0 = -1/2 d_chi sigma11|0,
        Q33_0 = -1/2 d_chi^2 sigma11|0.

    First order, each a surface value of the first-order trace minus the
    eta-derivative of the leading trace (first-order traces default to
    zero); the couple coefficients S12_0, S32_0 follow the same pattern from
    the Pi12 traces.
    """
    g0, g0p = _surface_pair(surface_sigma11)
    g1, _ = _surface_pair(sigma11_first_order)
    h0, h0p = _surface_pair(surface_pi12)
    h1, _ = _surface_pair(pi12_first_order)
    iw = 1j * surface_sigma11.chi_wavenumber
    iwp = iw if surface_pi12 is None else 1j * surface_pi12.chi_wavenumber
    first = g1 - g0p
    first_pi = h1 - h0p
    return BoundaryLayerCoeffs(
        q11_0=-0.5 * g0,
        q31_0=-0.5 * iw * g0,
        q33_0=-0.5 * iw * iw * g0,
        q11_1=-0.5 * first,
        q31_1=-0.5 * iw * first,
        q33_1=-0.5 * iw * iw * first,
        s12_0=-0.5 * first_pi,
        s32_0=-0.5 * iwp * first_pi,
        eps=eps,
    )


def _amp_norm(amp: Amplitudes) -> float:
    q = abs(amp.Q)
    if q > 0.0:
        return q
    return max(abs(amp.P), abs(amp.R), 1.0)


def _surface_values(sol: ModeSolution) -> dict[str, complex]:
    """Dimensionless surface stresses of the solution at chi = 0.

    Force components per k^2 (mu+kappa), couple components per k (mu+kappa);
    homogeneous of degree one in the amplitudes (report-level output divides
    by |Q| separately).
    """
    rows = stress_branch_coeffs(sol.m, sol.de, sol.mp.k)
    amps = [a for a, _, _ in _branches(sol.amp, sol.de)]
    return {comp: sum(c * a for c, a in zip(row, amps))
            for comp, row in rows.items()}


def bc_residual_order(sol: ModeSolution, order: int) -> tuple[complex, complex, complex]:
    """Residuals of the classical (order 0) or first-order surface conditions.

    Order 0 is the classical traction triple (sigma31, sigma33, Pi32) at the
    surface; order 1, the conditions through O(a), replaces the first
    component by sigma31 - (eps/2) d_chi sigma11 with eps = sol.mp.eps, the
    correction the boundary layer induces.  Values are dimensionless (force
    rows per k^2 (mu+kappa), couple row per k (mu+kappa)) and homogeneous of
    degree one in the amplitudes.
    """
    if order not in (0, 1):
        raise ValueError("order must be 0 or 1")
    vals = _surface_values(sol)
    first = vals["sigma31"]
    if order == 1:
        first = _first_order_row(first, vals["sigma11"], sol.mp.eps)
    return (first, vals["sigma33"], vals["pi32"])


def _first_order_row(sigma31: complex, sigma11: complex, eps: float) -> complex:
    """sigma31 - (eps/2) d_chi sigma11 with d_chi -> i: the first surface
    condition through O(a), shared by `bc_residual_order` and the solver of
    `first_order_elastic_solution`."""
    return sigma31 - 0.5 * eps * 1j * sigma11


def extra_bc_residual(sol: ModeSolution) -> tuple[complex, complex]:
    """The operator [1 - a d_z - (a^3/2) d_x^2 d_z] on tau11 and M12 at z = 0.

    On the e^{ikx} carrier the operator collapses to
    f(0) - (eps - eps^3/2) f'(0) in the dimensionless depth eta = k z, with
    eps = sol.mp.eps and f the boundary-layer-integral representation of
    each non-local stress.  Returned raw (dimensional); both components
    shrink with eps because the integral representation is compatible with
    these two conditions.
    """
    m, mp, eps = sol.m, sol.mp, sol.mp.eps
    rows = stress_branch_coeffs(m, sol.de, mp.k)
    norm_sigma = mp.k ** 2 * (m.mu + m.kappa)
    norm_pi = mp.k * (m.mu + m.kappa)
    coeff = eps - 0.5 * eps ** 3

    tau11 = 0j
    m12 = 0j
    for c11, c12, (a, r, r0) in zip(rows["sigma11"], rows["pi12"],
                                    _branches(sol.amp, sol.de)):
        i0 = blayer_closed_form(r, r0, eps, 0.0)
        i0p = blayer_closed_form_deta(r, r0, eps, 0.0)
        op = i0 - coeff * i0p
        tau11 += c11 * a * op
        m12 += c12 * a * op
    return (tau11 * norm_sigma, m12 * norm_pi)


def bc_residual_refined(sol: ModeSolution) -> tuple[complex, complex, complex]:
    """Residuals of the refined traction-free surface conditions:

        sigma31 - (a/2) sigma11,x + a^2 (sigma31,xx + sigma31,zz
                                          + 1/2 sigma11,xz)        = 0
        sigma33 + a^2 (sigma33,xx + sigma33,zz - 1/2 sigma11,xx)   = 0
        Pi32   - (a/2) Pi12,x   + a^2 (Pi32,xx  + Pi32,zz
                                          + 1/2 Pi12,xz)           = 0

    evaluated analytically on the branch ansatz (d_chi -> i,
    d_eta -> -r_b per branch) at eps = sol.mp.eps, normalized like
    `bc_residual_order`.  At a_nl = 0 every correction vanishes and the
    triple equals the classical one on the same evaluation path.
    """
    eps = sol.mp.eps
    rows = stress_branch_coeffs(sol.m, sol.de, sol.mp.k)
    branches = _branches(sol.amp, sol.de)
    e2 = eps * eps

    def combo(main: str, shear_like: bool, companion: str) -> complex:
        total = 0j
        for c_main, c_comp, (a_b, r, _) in zip(rows[main], rows[companion],
                                               branches):
            if a_b == 0:
                continue
            lap = c_main * (r * r - 1.0)
            if shear_like:
                term = (c_main
                        - 0.5 * eps * (1j * c_comp)
                        + e2 * (lap - 0.5j * r * c_comp))
            else:
                term = c_main + e2 * (lap + 0.5 * c_comp)
            total += a_b * term
        return total

    return (
        combo("sigma31", True, "sigma11"),
        combo("sigma33", False, "sigma11"),
        combo("pi32", True, "pi12"),
    )


def bc_residual_report(sol: ModeSolution) -> BCResidualReport:
    """All four surface-condition residual groups at eps = sol.mp.eps,
    normalized by |Q|."""
    m, mp = sol.m, sol.mp
    amp_norm = _amp_norm(sol.amp)
    norm_sigma = mp.k ** 2 * (m.mu + m.kappa) * amp_norm
    norm_pi = mp.k * (m.mu + m.kappa) * amp_norm
    raw_extra = extra_bc_residual(sol)

    def scaled(triple):
        return tuple(z / amp_norm for z in triple)

    return BCResidualReport(
        classical=scaled(bc_residual_order(sol, 0)),
        first_order=scaled(bc_residual_order(sol, 1)),
        refined=scaled(bc_residual_refined(sol)),
        extra=(raw_extra[0] / norm_sigma, raw_extra[1] / norm_pi),
        normalization=norm_sigma,
    )


def first_order_elastic_solution(m: MaterialParams, k: float, eps: float,
                                 v0: float) -> ModeSolution:
    """Elastic mode satisfying the surface conditions through O(eps) exactly.

    With R = 0 (forced by the couple row) and Q = 1, the sigma33 row fixes
    P = i p(v), and the remaining condition

        sigma31 - (eps/2) d_chi sigma11 = 0   at the surface

    is a real equation in the phase velocity, solved by `bracketed_root`
    to 1e-13 c2 on [0.8 v0, min(1.1 v0, c2)] around the classical root
    v0 = `solve_rayleigh(m).v`, which the caller solves once; a ValueError
    is raised when the row keeps its sign on that bracket.
    Branch exponents are the leading-order (eps-free) ones of the slow
    problem at the corrected velocity.
    """
    sc = derive_scales(m)

    def assemble(v: float):
        mp0 = ModeParams(k=k, omega=v * k, v=v, eps=0.0)
        de0 = decay_exponents(m, mp0)
        rows = stress_branch_coeffs(m, de0, k)
        # sigma33 row: c_P (i p) + c_Q = 0, with c_P real and c_Q imaginary
        p = (1j * rows["sigma33"][1] / rows["sigma33"][0]).real
        amp = Amplitudes(P=1j * p, Q=1.0 + 0j, R=0j)
        return de0, rows, amp

    def residual(v: float) -> float:
        # the sums of _surface_values on this step's table; building a
        # ModeSolution for bc_residual_order would double the cost of a step
        _, rows, amp = assemble(v)
        amps = (amp.P, amp.Q, amp.R)
        s31 = sum(c * a for c, a in zip(rows["sigma31"], amps))
        s11 = sum(c * a for c, a in zip(rows["sigma11"], amps))
        return _first_order_row(s31, s11, eps).real

    lo, hi = 0.8 * v0, min(1.1 * v0, sc.c2)
    flo, fhi = residual(lo), residual(hi)
    if flo * fhi > 0.0:
        raise ValueError("no first-order-corrected root near the classical "
                         "one for this eps")
    v = bracketed_root(residual, lo, hi, flo, fhi, 1e-13 * sc.c2)
    de0, _, amp = assemble(v)
    mp = ModeParams(k=k, omega=v * k, v=v, eps=eps)
    return ModeSolution(m=m, mp=mp, amp=amp, de=de0)


def bc_slope_study(m: MaterialParams, k: float, v0: float,
                   eps_values: tuple[float, ...] = SLOPE_EPS_GRID) -> dict:
    """Decay rate of classical vs refined residuals on corrected solutions.

    For each eps, the first-order-corrected mode near the classical root v0
    is built and both condition sets are evaluated on it; the classical
    defect scales like eps while the refined conditions only miss the
    O(eps^2) curvature terms.  Returns per-eps magnitudes and log-log slopes.
    """
    classical_mags = []
    refined_mags = []
    for eps in eps_values:
        sol = first_order_elastic_solution(m, k, eps, v0)
        classical = bc_residual_order(sol, 0)
        refined = bc_residual_refined(sol)
        classical_mags.append(max(abs(c) for c in classical))
        refined_mags.append(max(abs(c) for c in refined))
    log_eps = np.log(np.asarray(eps_values))
    slope_classical = float(np.polyfit(log_eps, np.log(classical_mags), 1)[0])
    slope_refined = float(np.polyfit(log_eps, np.log(refined_mags), 1)[0])
    return {
        "eps": list(eps_values),
        "classical_residuals": classical_mags,
        "refined_residuals": refined_mags,
        "classical": slope_classical,
        "refined": slope_refined,
    }


def _cpair(z: complex) -> dict:
    return {"re": z.real, "im": z.imag}


def blayer_convergence(m: MaterialParams, eps_values: tuple[float, ...],
                       spec: QuadratureSpec) -> dict:
    """Closed-form against quadrature boundary-layer integrals: the payload
    of `mnw blayer`, with the log-log slope of their relative deviation
    against eps per branch and depth (None for a single eps).  The state is
    v = 0.3 c2, omega = 3 omega_c (k = 1 and no branch 3 when kappa = 0)."""
    sc = derive_scales(m)
    v = 0.3 * sc.c2
    if m.kappa > 0:
        omega = 3.0 * sc.omega_cutoff
        k = omega / v
        branches = (1, 2, 3)
    else:
        k = 1.0
        omega = v * k
        branches = (1, 2)
    entries = []
    series: dict[str, list[float]] = {}
    for i in branches:
        for eta in _BLAYER_ETA_GRID:
            for eps in eps_values:
                de = decay_exponents(m, ModeParams(k=k, omega=omega, v=v,
                                                   eps=eps))
                closed = blayer_integral_closed(i, de, eps, eta)
                quad = blayer_integral_quadrature(i, de, eps, eta, spec)
                deviation = abs(quad - closed) / abs(closed)
                entries.append({
                    "i": i, "eta": eta, "eps": eps,
                    "closed": _cpair(closed),
                    "quadrature": _cpair(quad),
                    "deviation": deviation,
                })
                series.setdefault(f"i={i},eta={eta!r}", []).append(deviation)
    slopes = None
    if len(eps_values) >= 2:
        log_eps = np.log(np.asarray(eps_values))
        slopes = {key: float(np.polyfit(log_eps, np.log(devs), 1)[0])
                  for key, devs in series.items()}
    return {
        "rel_tol": spec.rel_tol,
        "state": {"v": v, "omega": omega, "k": k},
        "entries": entries,
        "slopes": slopes,
    }


def residual_report_json(m: MaterialParams, k: float, eps: float,
                         slopes: bool = True) -> str:
    """Full surface-residual report for the elastic mode at wavenumber k.

    Keys: classical, first_order, refined, extra, equivalence (arrays of
    re/im pairs), plus normalization, slopes and pde diagnostic blocks.
    """
    root = solve_rayleigh(m)
    v = root.v
    omega = v * k
    mp = ModeParams(k=k, omega=omega, v=v, eps=eps)
    de = decay_exponents(m, mp)
    point = DispersionPoint(omega=omega, k=k, v=v, mode_tag="elastic",
                            exponents=de,
                            secular_residual=root.secular_residual,
                            admissible=de.admissible)
    amp = amplitude_ratios(m, point, eps)
    sol = ModeSolution(m=m, mp=mp, amp=amp, de=de)
    report = bc_residual_report(sol)
    pde = pde_residual(amp, de, mp, m)

    payload: dict = {
        "classical": [_cpair(z) for z in report.classical],
        "first_order": [_cpair(z) for z in report.first_order],
        "refined": [_cpair(z) for z in report.refined],
        "extra": [_cpair(z) for z in report.extra],
        "equivalence": [
            _cpair(equivalence_residual_elastic(m, point)),
            _cpair(equivalence_residual_micropolar(m, v, k)),
        ],
        "normalization": report.normalization,
        "slopes": bc_slope_study(m, k, v) if slopes else None,
        "pde": {
            "res1": _cpair(pde[0]),
            "res2": _cpair(pde[1]),
            "res3": _cpair(pde[2]),
            "s_printed": None if de.s is None else _cpair(de.s),
            "s_balance": (None if de.decoupled
                          else _cpair(shear_balance_s(m, mp))),
        },
    }
    return json.dumps(payload, indent=2)
