"""Equivalence-failure residuals and refined surface conditions.

A mode built from the differential non-local model does not satisfy the
integral-model equations of motion near the surface: the leading
boundary-layer coefficient of the momentum balance,

    elastic mode:     k^3/(2 (1+d)^2 r10) [ (1+d)^2 r10^2
                        - 2 r20^2 (d + r20^2 - 1) - (1 + d^2) ]
    micropolar mode:  k^3/(r20^2 + d) [ (1+d)^2 r10 r20 - (r20^2 + d)^2 ]

is nonzero whenever the other mode's relation is (they never vanish
together).  The cure is a surface-layer analysis: fast corrections
proportional to e^{-eta_f}, extra operator conditions on tau11 and M12
(`extra_bc_residual`), and the traction conditions as one expansion in
eps: the classical conditions are its O(1) terms, the first-order ones its
O(eps) terms and the refined ones its O(eps^2) terms (`bc_residual_order`
with order 0, 1 and 2).

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

from .dispersion import (DispersionPoint, _secular, amplitude_ratios,
                         bracketed_root, solve_rayleigh)
from .kernel import boundary_operator
from .material import MaterialParams, derive_scales
from .specfun import QuadratureSpec
from .wavefield import (
    Amplitudes,
    DecayExponents,
    ModeParams,
    ModeSolution,
    _branch_sqrt,
    _blayer_closed,
    _branches,
    _leading_radicands,
    blayer_integral_closed,
    blayer_integral_quadrature,
    decay_exponents,
    leading_exponents,
    pde_residual,
    shear_balance_s,
    stress_branch_coeffs,
)

__all__ = [
    "BCResidualReport",
    "equivalence_residual_elastic",
    "equivalence_residual_micropolar",
    "bc_residual_order",
    "extra_bc_residual",
    "bc_residual_report",
    "first_order_elastic_solution",
    "bc_slope_study",
    "blayer_convergence",
    "residual_report_json",
]

SLOPE_EPS_GRID = (0.2, 0.1, 0.05)
_BLAYER_ETA_GRID = (0.0, 0.5, 2.0)


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
    r10_sq, r20sq = _leading_radicands(sc, point.v)
    r10 = _branch_sqrt(r10_sq)
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
    return k ** 3 / (r20 * r20 + d) * _secular(d, r10, r20, r20 * r20)


def _amp_norm(amp: Amplitudes) -> float:
    q = abs(amp.Q)
    if q > 0.0:
        return q
    return max(abs(amp.P), abs(amp.R), 1.0)


# The surface conditions in row order (sigma31, sigma33, Pi32): the stress
# each one constrains, its companion and whether it is shear-like
_CONDITIONS = (("sigma31", "sigma11", True),
               ("sigma33", "sigma11", False),
               ("pi32", "pi12", True))


def _surface_condition(rows: dict[str, tuple[complex, ...]],
                       amps: tuple[complex, ...], de: DecayExponents,
                       eps: float, order: int, row: int) -> complex:
    """Surface condition `row` through O(eps^order) on the branch ansatz
    (d_chi -> i, d_eta -> -r per branch).  With main and comp the sums over
    branches of coefficient x amplitude of the constrained stress and its
    companion in `rows`:

        shear-like: main - (eps/2) i comp
                    + eps^2 (sum (r^2 - 1) main - (i/2) sum r comp)
        normal:     main + eps^2 (sum (r^2 - 1) main + 1/2 comp)
    """
    main_row, comp_row, shear = _CONDITIONS[row]
    main = sum(c * a for c, a in zip(rows[main_row], amps))
    if order == 0 or (order == 1 and not shear):
        return main
    comp = sum(c * a for c, a in zip(rows[comp_row], amps))
    if order == 1:
        return main - 0.5 * eps * 1j * comp
    lap = sum(c * a * (r * r - 1.0)
              for c, a, (r, _) in zip(rows[main_row], amps, de._pairs))
    if not shear:
        return main + eps * eps * (lap + 0.5 * comp)
    bend = sum(c * a * r
               for c, a, (r, _) in zip(rows[comp_row], amps, de._pairs))
    return main - 0.5 * eps * 1j * comp + eps * eps * (lap - 0.5j * bend)


def bc_residual_order(sol: ModeSolution, order: int) -> tuple[complex, complex, complex]:
    """Residuals of the traction-free surface conditions through O(a^order):

        sigma31 - (a/2) sigma11,x + a^2 (sigma31,xx + sigma31,zz
                                          + 1/2 sigma11,xz)        = 0
        sigma33 + a^2 (sigma33,xx + sigma33,zz - 1/2 sigma11,xx)   = 0
        Pi32   - (a/2) Pi12,x   + a^2 (Pi32,xx  + Pi32,zz
                                          + 1/2 Pi12,xz)           = 0

    Order 0 keeps the classical terms (sigma31, sigma33, Pi32), order 1
    adds the O(a) terms the boundary layer induces, and order 2 gives the
    refined conditions, all evaluated analytically on the branch ansatz at
    eps = sol.mp.eps.  Values are dimensionless (force rows per
    k^2 (mu+kappa), couple row per k (mu+kappa)) and homogeneous of degree
    one in the amplitudes; at a_nl = 0 every order is the classical triple.
    """
    if order not in (0, 1, 2):
        raise ValueError("order must be 0, 1 or 2")
    rows = stress_branch_coeffs(sol.m, sol.de, sol.mp.k)
    amps = tuple(a for a, _, _ in _branches(sol.amp, sol.de))
    return tuple(_surface_condition(rows, amps, sol.de, sol.mp.eps, order, row)
                 for row in range(3))


def extra_bc_residual(sol: ModeSolution) -> tuple[complex, complex]:
    """The operator [1 - a d_z - (a^3/2) d_x^2 d_z] on tau11 and M12 at z = 0.

    `boundary_operator` at eps = sol.mp.eps on the surface value and
    eta-slope (eta = k z) of each branch's boundary-layer integral, summed
    with the coefficients of `stress_branch_coeffs`.  Values are
    dimensionless like those of `bc_residual_order`: tau11 per
    k^2 (mu+kappa), M12 per k (mu+kappa).  Both components shrink with eps
    because the integral representation is compatible with these two
    conditions.
    """
    eps = sol.mp.eps
    rows = stress_branch_coeffs(sol.m, sol.de, sol.mp.k)
    tau11 = m12 = 0j
    for c11, c12, (a, r, r0) in zip(rows["sigma11"], rows["pi12"],
                                    _branches(sol.amp, sol.de)):
        op = boundary_operator(*_blayer_closed(r, r0, eps, 0.0), eps)
        tau11 += c11 * a * op
        m12 += c12 * a * op
    return tau11, m12


def bc_residual_report(sol: ModeSolution) -> BCResidualReport:
    """All four surface-condition residual groups at eps = sol.mp.eps,
    normalized by |Q|."""
    amp_norm = _amp_norm(sol.amp)

    def scaled(values):
        return tuple(z / amp_norm for z in values)

    return BCResidualReport(
        classical=scaled(bc_residual_order(sol, 0)),
        first_order=scaled(bc_residual_order(sol, 1)),
        refined=scaled(bc_residual_order(sol, 2)),
        extra=scaled(extra_bc_residual(sol)),
        normalization=sol.mp.k ** 2 * (sol.m.mu + sol.m.kappa) * amp_norm,
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
    problem at the corrected velocity.  The row is A(v) + eps B(v), so the
    inverse eps(v) = -A(v)/B(v) is explicit.
    """
    sc = derive_scales(m)

    def assemble(v: float):
        mp0 = ModeParams(k=k, omega=v * k, v=v, eps=0.0)
        de0 = decay_exponents(m, mp0)
        rows = stress_branch_coeffs(m, de0, k)
        # sigma33 row: c_P (i p) + c_Q = 0, with c_P real and c_Q imaginary
        p = (1j * rows["sigma33"][1] / rows["sigma33"][0]).real
        return de0, rows, (1j * p, 1.0 + 0j, 0j)

    def residual(v: float) -> float:
        de0, rows, amps = assemble(v)
        return _surface_condition(rows, amps, de0, eps, 1, 0).real

    lo, hi = 0.8 * v0, min(1.1 * v0, sc.c2)
    flo, fhi = residual(lo), residual(hi)
    if flo * fhi > 0.0:
        raise ValueError("no first-order-corrected root near the classical "
                         "one for this eps")
    v = bracketed_root(residual, lo, hi, flo, fhi, 1e-13 * sc.c2)
    de0, _, amps = assemble(v)
    mp = ModeParams(k=k, omega=v * k, v=v, eps=eps)
    return ModeSolution(m=m, mp=mp, amp=Amplitudes(*amps), de=de0)


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
        refined = bc_residual_order(sol, 2)
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


def residual_report_json(m: MaterialParams, k: float, eps: float) -> str:
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
        "slopes": bc_slope_study(m, k, v),
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
