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
(`boundary_operator`, applied by `extra_bc_residual`), and the traction
conditions as one expansion in eps: the classical conditions are its O(1)
terms, the first-order ones its O(eps) terms and the refined ones its
O(eps^2) terms (`bc_residual_order` with order 0, 1 and 2).

`first_order_elastic_solution` is the mode that meets the conditions
through O(eps) exactly: on it the classical conditions leave O(eps) and the
refined ones O(eps^2), the slope study of `bc_slope_study`.
"""

from __future__ import annotations

import json
import math

from .dispersion import (_elastic_amplitudes, _elastic_root, _secular,
                         bracketed_root)
from .material import MaterialParams, derive_scales
from .wavefield import (
    Amplitudes,
    DecayExponents,
    ModeParams,
    ModeSolution,
    _branch_sqrt,
    _blayer_closed,
    _branches,
    _decay_exponents_at,
    _r10_squared,
    blayer_integral_closed,
    blayer_integral_quadrature,
    decay_exponents,
    leading_exponents,
    pde_residual,
    shear_balance_s,
    stress_branch_coeffs,
)

__all__ = [
    "equivalence_residual_elastic",
    "equivalence_residual_micropolar",
    "bc_residual_order",
    "extra_bc_residual",
    "boundary_operator",
    "first_order_elastic_solution",
    "bc_slope_study",
    "blayer_convergence",
    "residual_report_json",
]

SLOPE_EPS_GRID = (0.2, 0.1, 0.05)
_BLAYER_ETA_GRID = (0.0, 0.5, 2.0)


def equivalence_residual_elastic(m: MaterialParams, v: float,
                                 k: float) -> complex:
    """Leading boundary-layer coefficient of the momentum defect, elastic mode.

    This is the factor multiplying exp(-k z / eps); eps itself drops out of
    the leading coefficient.  A nonzero value is the failure of equivalence
    between the differential and integral models.
    """
    if not 0.0 < k < math.inf:
        raise ValueError(f"k must be positive and finite, got {k!r}")
    sc = derive_scales(m)
    d, r20sq = sc.d, 1.0 - (v / sc.c2) ** 2
    r10 = _branch_sqrt(_r10_squared(m, r20sq))
    if r10 == 0:
        raise ZeroDivisionError("residual is singular: r10 = 0")
    bracket = ((1.0 + d) ** 2 * r10 * r10
               - 2.0 * r20sq * (d + r20sq - 1.0)
               - (1.0 + d * d))
    return k ** 3 / (2.0 * (1.0 + d) ** 2 * r10) * bracket


def equivalence_residual_micropolar(m: MaterialParams, v: float,
                                    k: float) -> complex:
    """Leading boundary-layer coefficient on the micropolar mode.

    Proportional to the elastic-mode secular expression, so it vanishes only
    at the other mode's root: the two modes never coexist.
    """
    if not 0.0 < k < math.inf:
        raise ValueError(f"k must be positive and finite, got {k!r}")
    d = derive_scales(m).d
    r10, r20 = leading_exponents(m, v)
    return k ** 3 / (r20 * r20 + d) * _secular(d, r10, r20, r20 * r20)


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
              for c, a, (r, _, _) in zip(rows[main_row], amps, de._pairs))
    if not shear:
        return main + eps * eps * (lap + 0.5 * comp)
    bend = sum(c * a * r
               for c, a, (r, _, _) in zip(rows[comp_row], amps, de._pairs))
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
    amps = tuple(a for a, *_ in _branches(sol.amp, sol.de))
    return tuple(_surface_condition(rows, amps, sol.de, sol.mp.eps, order, row)
                 for row in range(3))


def boundary_operator(g0: complex, g1: complex, eps: float) -> complex:
    """[1 - eps d_eta - (eps^3/2) d_chi^2 d_eta] at the surface of a profile
    e^{i chi} g(eta), from g0 = g(0) and g1 = g'(0).

    d_chi^2 acts on the carrier as -1, so the operator evaluates to
    g(0) - (eps - eps^3/2) g'(0).
    """
    return g0 - (eps - 0.5 * eps ** 3) * g1


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
    for c11, c12, (a, r, r0, _) in zip(rows["sigma11"], rows["pi12"],
                                       _branches(sol.amp, sol.de)):
        op = boundary_operator(*_blayer_closed(r, r0, eps, 0.0), eps)
        tau11 += c11 * a * op
        m12 += c12 * a * op
    return tau11, m12


def first_order_elastic_solution(m: MaterialParams, k: float,
                                 eps: float) -> ModeSolution:
    """Elastic mode satisfying the surface conditions through O(eps) exactly.

    With R = 0 (forced by the couple row) and Q = 1, the sigma33 row fixes
    P = i p, and the order-1 sigma31 row, sigma31 - (eps/2) d_chi sigma11
    = 0, is a real equation in x = r20^2 that `bracketed_root` narrows to
    adjacent doubles on the x-image of [0.8 v0, min(1.1 v0, c2)],
    v0 = `solve_rayleigh(m).v`; a ValueError if it keeps its sign there.
    The exponents returned are the eps-free ones at that x, so r20 = sqrt(x).
    The row is A(v) + eps B(v), so eps(v) = -A(v)/B(v) is explicit.
    """
    c2 = derive_scales(m).c2

    def amps_and_row(x: float):
        r10, r20 = math.sqrt(_r10_squared(m, x)), math.sqrt(x)
        de = DecayExponents(r1=r10, r2=r20, r10=r10, r20=r20)  # eps = 0, P, Q
        rows = stress_branch_coeffs(m, de, k)
        # sigma33 row: c_P (i p) + c_Q = 0, with c_P real and c_Q imaginary
        p = (1j * rows["sigma33"][1] / rows["sigma33"][0]).real
        amps = (1j * p, 1.0 + 0j, 0j)
        return amps, _surface_condition(rows, amps, de, eps, 1, 0).real

    v0 = _elastic_root(m)[1].v
    lo, hi = (1.0 - (v / c2) ** 2 for v in (min(1.1 * v0, c2), 0.8 * v0))
    flo, fhi = amps_and_row(lo)[1], amps_and_row(hi)[1]
    if flo * fhi > 0.0:
        raise ValueError("no first-order-corrected root near the classical "
                         "one for this eps")
    x = bracketed_root(lambda u: amps_and_row(u)[1], lo, hi, flo, fhi, 0.0)
    v = c2 * math.sqrt(1.0 - x)
    mp = ModeParams(k=k, omega=v * k, v=v, eps=eps)
    return ModeSolution(m=m, mp=mp, amp=Amplitudes(*amps_and_row(x)[0]),
                        de=_decay_exponents_at(m, mp.replace(eps=0.0), x))


def _loglog_slope(xs, ys) -> float:
    """Least-squares slope of log y against log x, in closed form; NaN, as
    a fit on log 0 gives, unless every value is positive."""
    if not all(u > 0.0 for u in (*xs, *ys)):
        return math.nan
    lx = [math.log(x) for x in xs]
    ly = [math.log(y) for y in ys]
    mx = sum(lx) / len(lx)
    my = sum(ly) / len(ly)
    return (sum((x - mx) * (y - my) for x, y in zip(lx, ly))
            / sum((x - mx) ** 2 for x in lx))


def bc_slope_study(m: MaterialParams, k: float) -> dict:
    """Largest |residual| of the classical and the refined conditions on
    `first_order_elastic_solution` at each eps of SLOPE_EPS_GRID, and the
    log-log slope of each: about 1 (the classical defect is O(eps)) and 2
    (the refined conditions miss only the O(eps^2) curvature terms)."""
    classical_mags = []
    refined_mags = []
    for eps in SLOPE_EPS_GRID:
        sol = first_order_elastic_solution(m, k, eps)
        classical = bc_residual_order(sol, 0)
        refined = bc_residual_order(sol, 2)
        classical_mags.append(max(abs(c) for c in classical))
        refined_mags.append(max(abs(c) for c in refined))
    return {
        "eps": list(SLOPE_EPS_GRID),
        "classical_residuals": classical_mags,
        "refined_residuals": refined_mags,
        "classical": _loglog_slope(SLOPE_EPS_GRID, classical_mags),
        "refined": _loglog_slope(SLOPE_EPS_GRID, refined_mags),
    }


def _cpair(z: complex) -> dict:
    return {"re": z.real, "im": z.imag}


def blayer_convergence(m: MaterialParams,
                       eps_values: tuple[float, ...]) -> dict:
    """Closed-form against exact trace boundary-layer integrals: the payload
    of `mnw blayer`, with the log-log slope of their relative deviation
    against eps per branch and depth (None for a single eps).  The state is
    v = 0.3 c2, omega = 3 omega_c (k = 1 and no branch 3 when kappa = 0)."""
    sc = derive_scales(m)
    v = 0.3 * sc.c2
    if m.kappa > 0:
        omega = 3.0 * sc.omega_cutoff
        k = omega / v
    else:
        k = 1.0
        omega = v * k
    states = [decay_exponents(m, ModeParams(k=k, omega=omega, v=v, eps=eps))
              for eps in eps_values]
    entries = []
    series: dict[str, list[float]] = {}
    for i in range(1, len(states[0]._pairs) + 1):
        for eta in _BLAYER_ETA_GRID:
            for eps, de in zip(eps_values, states):
                closed = blayer_integral_closed(i, de, eps, eta)
                quad = blayer_integral_quadrature(i, de, eps, eta)
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
        slopes = {key: _loglog_slope(eps_values, devs)
                  for key, devs in series.items()}
    return {
        "state": {"v": v, "omega": omega, "k": k},
        "entries": entries,
        "slopes": slopes,
    }


def residual_report_json(m: MaterialParams, k: float, eps: float) -> str:
    """Full surface-residual report for the elastic mode at wavenumber k.

    Keys: classical, first_order, refined, extra, equivalence (arrays of
    re/im pairs), plus normalization, slopes and pde diagnostic blocks.
    The amplitudes are normalized to Q = 1, and normalization is the
    force-row scale k^2 (mu+kappa) of `bc_residual_order`.  A non-finite
    value raises ValueError instead of printing NaN or Infinity.  The
    exponents and amplitudes are taken at the root's x = r20^2.
    """
    x, root = _elastic_root(m)
    v = root.v
    mp = ModeParams(k=k, omega=v * k, v=v, eps=eps)
    de = _decay_exponents_at(m, mp, x)
    amp = _elastic_amplitudes(derive_scales(m).d, de.r10, de.r20, eps)
    sol = ModeSolution(m=m, mp=mp, amp=amp, de=de)
    pde = pde_residual(amp, de, mp, m)

    payload: dict = {
        "classical": [_cpair(z) for z in bc_residual_order(sol, 0)],
        "first_order": [_cpair(z) for z in bc_residual_order(sol, 1)],
        "refined": [_cpair(z) for z in bc_residual_order(sol, 2)],
        "extra": [_cpair(z) for z in extra_bc_residual(sol)],
        "equivalence": [
            _cpair(equivalence_residual_elastic(m, v, k)),
            _cpair(equivalence_residual_micropolar(m, v, k)),
        ],
        "normalization": k ** 2 * (m.mu + m.kappa),
        "slopes": bc_slope_study(m, k),
        "pde": {
            "res1": _cpair(pde[0]),
            "res2": _cpair(pde[1]),
            "res3": _cpair(pde[2]),
            "s_printed": None if de.s is None else _cpair(de.s),
            "s_balance": (None if de.decoupled
                          else _cpair(shear_balance_s(m, mp))),
        },
    }
    return json.dumps(payload, indent=2, allow_nan=False)
