"""Harmonic surface-wave ansatz for the micropolar half-space.

Fields are built from three decaying branches (time factor e^{-i omega t}
suppressed throughout):

    phi   = P e^{-k r1 z} e^{ikx}
    psi   = (Q e^{-k r2 z} + R e^{-k r3 z}) e^{ikx}
    Phi2  = s k^2 R e^{-k r3 z} e^{ikx}

with depth-attenuation exponents

    r1^2 = 1 - v^2/(c1^2 - eps^2 v^2)
    r2^2 = 1 - v^2/(c2^2 - eps^2 v^2)
    r3^2 = 1 - v^2/(c4^2 - eps^2 v^2) * (1 - omega_c^2/omega^2)
    s    = (v^2/c3^2) [1 - (c2^2 - eps^2 v^2)/(c4^2 - eps^2 v^2)
                           * (1 - omega_c^2/omega^2)]

with omega_c^2 = 2 c3^2/j, and their eps = 0 leading-order values r10,
r20, r30.  Square roots take the Re >= 0 branch (ties resolved to Im > 0)
so that admissible modes decay with depth.

The coupling amplitude s above annihilates neither shear equation exactly;
`shear_balance_s` gives the value that forces the psi-equation to vanish on
the R branch (it comes out with the opposite sign under the sign conventions
used here), and `exact_shear_exponents` solves the coupled psi-Phi2 pair
without approximation as an independent oracle.  `pde_residual` measures all
of this instead of hiding it.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

from .kernel import SurfaceTrace, approx_trace_integral
from .material import DerivedScales, MaterialParams, derive_scales
from .specfun import DEFAULT_QUAD_SPEC, QuadratureSpec

__all__ = [
    "ModeParams",
    "DecayExponents",
    "Amplitudes",
    "StressState",
    "ModeSolution",
    "ShearRoot",
    "ShearRoots",
    "leading_exponents",
    "decay_exponents",
    "exact_shear_exponents",
    "shear_balance_s",
    "mode_fields",
    "local_stresses",
    "nonlocal_stresses",
    "stress_branch_coeffs",
    "pde_residual",
    "blayer_closed_form",
    "blayer_quadrature_form",
    "blayer_integral_closed",
    "blayer_integral_quadrature",
]


@dataclass(frozen=True)
class ModeParams:
    k: float          # 1/m
    omega: float      # rad/s
    v: float          # m/s, = omega/k
    eps: float        # dimensionless non-locality, a*k

    def __post_init__(self):
        if not (self.k > 0 and self.omega > 0):
            raise ValueError("k and omega must be positive")
        if abs(self.v - self.omega / self.k) > 1e-14 * abs(self.v):
            raise ValueError("v must equal omega/k")


@dataclass(frozen=True)
class DecayExponents:
    """Branch exponents (full and leading order) for one mode state.

    In the classical limit kappa = 0 the microrotation decouples and the
    coupling amplitude s is undefined (0/0); such states have r3, r30 and s
    absent.
    """

    r1: complex
    r2: complex
    r10: complex
    r20: complex
    r3: complex | None = None
    s: complex | None = None
    r30: complex | None = None

    @property
    def decoupled(self) -> bool:
        return self.r3 is None

    @property
    def _pairs(self) -> tuple[tuple[complex, complex], ...]:
        """(r, r0) of the active branches: P and Q, then R unless decoupled."""
        pairs = ((self.r1, self.r10), (self.r2, self.r20))
        return pairs if self.r3 is None else pairs + ((self.r3, self.r30),)

    @property
    def admissible(self) -> bool:
        if self.r1.real <= 0 or self.r2.real <= 0:
            return False
        if self.r3 is not None and self.r3.real < 0:
            return False
        return True


@dataclass(frozen=True)
class Amplitudes:
    P: complex
    Q: complex
    R: complex


@dataclass(frozen=True)
class StressState:
    """Local (sigma, Pi) and non-local (tau, M) stresses at one point."""

    u1: complex = 0j
    u3: complex = 0j
    phi2: complex = 0j
    sigma11: complex = 0j
    sigma13: complex = 0j
    sigma31: complex = 0j
    sigma33: complex = 0j
    pi12: complex = 0j
    pi32: complex = 0j
    tau11: complex = 0j
    tau13: complex = 0j
    tau31: complex = 0j
    tau33: complex = 0j
    m12: complex = 0j
    m32: complex = 0j


@dataclass(frozen=True)
class ModeSolution:
    """A complete mode state: material, wave parameters, amplitudes, exponents."""

    m: MaterialParams
    mp: ModeParams
    amp: Amplitudes
    de: DecayExponents


def _branch_sqrt(z: complex) -> complex:
    """Principal square root flipped onto Re >= 0; pure-imaginary ties to Im > 0."""
    w = cmath.sqrt(z)
    if w.real < 0.0 or (w.real == 0.0 and w.imag < 0.0):
        w = -w
    return w


def _leading_radicands(sc: DerivedScales, v):
    """r10^2, r20^2 = 1 - (v/c1)^2, 1 - (v/c2)^2 for a float or array v."""
    return 1.0 - (v / sc.c1) ** 2, 1.0 - (v / sc.c2) ** 2


def leading_exponents(m: MaterialParams, v: float) -> tuple[complex, complex]:
    """Leading-order r10, r20 at v: `_branch_sqrt` of `_leading_radicands`."""
    r10_sq, r20_sq = _leading_radicands(derive_scales(m), v)
    return _branch_sqrt(r10_sq), _branch_sqrt(r20_sq)


def _micropolar_factor(sc: DerivedScales, omega: float) -> float:
    """1 - omega_c^2/omega^2, the cutoff factor of the micropolar branch."""
    return 1.0 - (sc.omega_cutoff / omega) ** 2


def _r30_squared(sc: DerivedScales, v: float, omega: float) -> float:
    """r30^2 = 1 - (v/c4)^2 (1 - omega_c^2/omega^2); zero on the micropolar
    mode."""
    return 1.0 - (v / sc.c4) ** 2 * _micropolar_factor(sc, omega)


def _r30(sc: DerivedScales, v: float, omega: float) -> complex:
    """Leading-order exponent r30 of the micropolar branch."""
    return _branch_sqrt(_r30_squared(sc, v, omega))


def decay_exponents(m: MaterialParams, mp: ModeParams) -> DecayExponents:
    """Depth-attenuation exponents of the three branches, plus coupling s."""
    sc = derive_scales(m)
    v2 = mp.v * mp.v
    e2v2 = mp.eps * mp.eps * v2
    d1 = sc.c1 ** 2 - e2v2
    d2 = sc.c2 ** 2 - e2v2
    d4 = sc.c4 ** 2 - e2v2
    if d1 == 0.0 or d2 == 0.0 or d4 == 0.0:
        raise ValueError("degenerate state: c_i^2 - eps^2 v^2 vanishes")
    r1 = _branch_sqrt(1.0 - v2 / d1)
    r2 = _branch_sqrt(1.0 - v2 / d2)
    r10, r20 = leading_exponents(m, mp.v)
    if m.kappa == 0.0:
        return DecayExponents(r1=r1, r2=r2, r10=r10, r20=r20)
    micro = _micropolar_factor(sc, mp.omega)
    r3 = _branch_sqrt(1.0 - (v2 / d4) * micro)
    r30 = _r30(sc, mp.v, mp.omega)
    s = (v2 / sc.c3 ** 2) * (1.0 - (d2 / d4) * micro)
    return DecayExponents(r1=r1, r2=r2, r3=r3, s=s, r10=r10, r20=r20, r30=r30)


@dataclass(frozen=True)
class ShearRoot:
    delta: complex     # depth exponent, Re >= 0 branch
    coupling: complex  # microrotation-to-shear amplitude ratio C/B


@dataclass(frozen=True)
class ShearRoots:
    first: ShearRoot
    second: ShearRoot
    degenerate: bool


def exact_shear_exponents(m: MaterialParams, mp: ModeParams) -> ShearRoots:
    """Both roots of the coupled psi-Phi2 system, without approximation.

    Substituting psi = B e^{ikx - k delta z}, Phi2 = C e^{ikx - k delta z}
    into the coupled pair yields a quadratic in X = delta^2 - 1:

        [c2^2 k^2 X + w^2 (1 - eps^2 X)] B + c3^2 C            = 0
        -(c3^2/j) k^2 X B + [c4^2 k^2 X - 2 c3^2/j
                             + w^2 (1 - eps^2 X)] C            = 0

    whose determinant this solves exactly; it is the oracle against which
    the closed-form r2, r3 are measured.
    """
    if not m.kappa > 0:
        raise ValueError("exact_shear_exponents requires kappa > 0")
    sc = derive_scales(m)
    k2 = mp.k * mp.k
    w2 = mp.omega * mp.omega
    e2 = mp.eps * mp.eps
    c22, c32, c42 = sc.c2 ** 2, sc.c3 ** 2, sc.c4 ** 2
    tsj = 2.0 * c32 / m.j_inertia
    qa = (c22 * k2 - e2 * w2) * (c42 * k2 - e2 * w2)
    qb = ((c22 * k2 - e2 * w2) * (w2 - tsj)
          + (c42 * k2 - e2 * w2) * w2
          + (c32 * c32 / m.j_inertia) * k2)
    qc = w2 * (w2 - tsj)
    disc = complex(qb) ** 2 - 4.0 * complex(qa) * complex(qc)
    scale = abs(qb) ** 2 + 4.0 * abs(qa) * abs(qc)
    degenerate = abs(disc) <= 1e-12 * scale
    sq = cmath.sqrt(disc)
    roots = sorted(((-qb + sq) / (2.0 * qa), (-qb - sq) / (2.0 * qa)),
                   key=lambda x: (x.real, x.imag))
    out = []
    for x in roots:
        delta = _branch_sqrt(1.0 + x)
        coupling = -(c22 * k2 * x + w2 * (1.0 - e2 * x)) / c32
        out.append(ShearRoot(delta=delta, coupling=coupling))
    return ShearRoots(first=out[0], second=out[1], degenerate=degenerate)


def shear_balance_s(m: MaterialParams, mp: ModeParams) -> complex:
    """Coupling amplitude that makes the psi-equation vanish on the R branch.

    Derived from the same substitution as `exact_shear_exponents`; comes out
    as the negative of the closed-form s under the sign conventions of this
    module.  Both values are surfaced by diagnostics, never silently merged.
    """
    if not m.kappa > 0:
        raise ValueError("shear_balance_s requires kappa > 0")
    sc = derive_scales(m)
    de = decay_exponents(m, mp)
    x3 = de.r3 * de.r3 - 1.0
    v2 = mp.v * mp.v
    d2 = sc.c2 ** 2 - mp.eps * mp.eps * v2
    return -(x3 * d2 + v2) / sc.c3 ** 2


def _branches(amp: Amplitudes, de: DecayExponents) -> list[tuple]:
    """(A, r, r0) of the active branches P (phi), Q (psi), R (psi, Phi2)."""
    if de.decoupled and amp.R != 0:
        raise ValueError("R must vanish in the decoupled (kappa = 0) limit")
    return [(a, r, r0) for a, (r, r0) in zip((amp.P, amp.Q, amp.R), de._pairs)]


def mode_fields(amp: Amplitudes, de: DecayExponents, mp: ModeParams,
                x: float, z: float) -> tuple[complex, complex, complex]:
    """Potentials (phi, psi, Phi2) at one point, time factor suppressed."""
    if z < 0:
        raise ValueError("the half-space is z >= 0")
    carrier = cmath.exp(1j * mp.k * x)
    terms = [a * cmath.exp(-mp.k * r * z) * carrier
             for a, r, _ in _branches(amp, de)]
    phi2 = de.s * mp.k ** 2 * terms[2] if len(terms) == 3 else 0j
    return terms[0], sum(terms[1:], 0j), phi2


def local_stresses(amp: Amplitudes, de: DecayExponents, mp: ModeParams,
                   m: MaterialParams, x: float, z: float) -> StressState:
    """Local force and couple stresses from the kinematics of the ansatz.

    Displacements come from the potentials, strains carry the microrotation
    term, and the constitutive relations combine them:

        eps_11 = u1,x           eps_33 = u3,z
        eps_13 = u3,x + Phi2    eps_31 = u1,z - Phi2
        sigma_mn = lambda eps_pp delta_mn + (mu+kappa) eps_mn + mu eps_nm
        Pi_12 = gamma Phi2,x    Pi_32 = gamma Phi2,z

    All derivatives are closed-form on the exponential branches.
    """
    if z < 0:
        raise ValueError("the half-space is z >= 0")
    k = mp.k
    carrier = cmath.exp(1j * k * x)
    u1 = u3 = u1x = u1z = u3x = u3z = 0j
    phi2 = phi2x = phi2z = 0j

    for b, (a, r, _) in enumerate(_branches(amp, de)):
        depth = cmath.exp(-k * r * z)
        e = a * depth * carrier
        if b == 0:
            t_u1 = 1j * k * e          # d phi / dx
            t_u3 = -k * r * e          # d phi / dz
        else:
            t_u1 = k * r * e           # -d psi / dz
            t_u3 = 1j * k * e          # d psi / dx
        u1 += t_u1
        u3 += t_u3
        u1x += 1j * k * t_u1
        u3x += 1j * k * t_u3
        u1z += -k * r * t_u1
        u3z += -k * r * t_u3
        if b == 2:
            phi2 = de.s * k ** 2 * e
            phi2x = 1j * k * phi2
            phi2z = -k * r * phi2

    eps11 = u1x
    eps33 = u3z
    eps13 = u3x + phi2
    eps31 = u1z - phi2
    dil = eps11 + eps33
    lam, mu, kap, gam = m.lambda_lame, m.mu, m.kappa, m.gamma_mp
    return StressState(
        u1=u1, u3=u3, phi2=phi2,
        sigma11=lam * dil + (mu + kap) * eps11 + mu * eps11,
        sigma33=lam * dil + (mu + kap) * eps33 + mu * eps33,
        sigma13=(mu + kap) * eps13 + mu * eps31,
        sigma31=(mu + kap) * eps31 + mu * eps13,
        pi12=gam * phi2x,
        pi32=gam * phi2z,
    )


_STRESS_ROWS = ("sigma11", "sigma13", "sigma31", "sigma33", "pi12", "pi32")


def stress_branch_coeffs(m: MaterialParams, de: DecayExponents,
                         k: float) -> dict[str, tuple[complex, ...]]:
    """Per-branch surface coefficients of the dimensionless stresses.

    Entry [comp][b] is the coefficient of A_b e^{ikx - k r_b z} in
    sigma_comp / (k^2 (mu+kappa)) (force rows) or Pi_comp / (k (mu+kappa))
    (couple rows), one column per active branch of `de` (two when
    decoupled).  Transcribed directly from the explicit stress block of
    the ansatz, independently of the kinematic path in `local_stresses`.
    """
    lam, mu, kap = m.lambda_lame, m.mu, m.kappa
    mk = mu + kap
    d = mu / mk
    dp = 1.0 + d
    big = lam + 2.0 * mu + kap
    r1, r2 = de.r1, de.r2
    # one column per branch, its entries in the order of _STRESS_ROWS
    cols = [(-(big - lam * r1 * r1) / mk, -1j * r1 * dp, -1j * r1 * dp,
             (big * r1 * r1 - lam) / mk, 0j, 0j),
            (1j * r2 * dp, -(1.0 + d * r2 * r2), -(d + r2 * r2),
             -1j * r2 * dp, 0j, 0j)]
    if not de.decoupled:
        r3, s = de.r3, de.s
        gk2 = m.gamma_mp * k * k / mk
        cols.append((1j * r3 * dp, s * (1.0 - d) - 1.0 - d * r3 * r3,
                     -(s * (1.0 - d) + d + r3 * r3), -1j * r3 * dp,
                     1j * s * gk2, -s * gk2 * r3))
    return dict(zip(_STRESS_ROWS, zip(*cols)))


def pde_residual(amp: Amplitudes, de: DecayExponents, mp: ModeParams,
                 m: MaterialParams) -> tuple[complex, complex, complex]:
    """Residuals of the three equations of motion on the ansatz.

    Evaluated at the probe point (x, z) = (0, 1/k) (residuals of the
    exponential ansatz factor out position, and 1/k sits between the surface
    and the far field), normalized by rho omega^2 max(|P|,|Q|,|R|).
    The dilatational and shear exponents annihilate their own equations on
    the P and Q branches; whatever remains on the R branch is reported, not
    zeroed.
    """
    sc = derive_scales(m)
    k2 = mp.k * mp.k
    w2 = mp.omega * mp.omega
    e2 = mp.eps * mp.eps
    maxamp = max(abs(amp.P), abs(amp.Q), abs(amp.R))
    if maxamp == 0.0:
        return (0j, 0j, 0j)
    norm = m.rho * w2 * maxamp

    x1 = de.r1 * de.r1 - 1.0
    x2 = de.r2 * de.r2 - 1.0
    e1 = cmath.exp(-de.r1)
    e2f = cmath.exp(-de.r2)

    eq1 = m.rho * (sc.c1 ** 2 * k2 * x1 + w2 * (1.0 - e2 * x1)) * amp.P * e1
    eq2 = m.rho * (sc.c2 ** 2 * k2 * x2 + w2 * (1.0 - e2 * x2)) * amp.Q * e2f
    eq3 = -m.kappa * k2 * x2 * amp.Q * e2f
    if not de.decoupled:
        x3 = de.r3 * de.r3 - 1.0
        e3 = cmath.exp(-de.r3)
        sk2 = de.s * k2
        eq2 += m.rho * (sc.c2 ** 2 * k2 * x3 + w2 * (1.0 - e2 * x3)
                        + sc.c3 ** 2 * sk2) * amp.R * e3
        eq3 += (m.gamma_mp * k2 * x3 * sk2
                - m.kappa * k2 * x3
                - 2.0 * m.kappa * sk2
                + m.rho * m.j_inertia * w2 * (1.0 - e2 * x3) * sk2) * amp.R * e3
    return (eq1 / norm, eq2 / norm, eq3 / norm)


def blayer_closed_form(r: complex, r0: complex, eps: float, eta: float) -> complex:
    """Closed form of the boundary-layer integral for exponent pair (r, r0):

        [1 + eps^2 (r0^2 - 1)] e^{-r eta}
        - 1/2 [1 + eps r0 + eps^2 (r0^2 - 1 - eta/(2 eps))] e^{-eta/eps}

    eps = 0 is the exact local limit, the bare branch decay e^{-r eta}.
    """
    if eps < 0:
        raise ValueError("eps must be >= 0")
    if not math.isfinite(eps * eps):
        raise ValueError(f"eps = {eps!r} is too large: eps^2 overflows")
    if eta < 0:
        raise ValueError("eta must be >= 0")
    if eps == 0.0:
        return cmath.exp(-r * eta)
    main = (1.0 + eps * eps * (r0 * r0 - 1.0)) * cmath.exp(-r * eta)
    arg = eta / eps
    if arg > 745.0:           # e^{-eta/eps} underflows; the term is gone
        return main
    boundary = 0.5 * (1.0 + eps * r0 + eps * eps * (r0 * r0 - 1.0)
                      - 0.5 * eps * eta) * math.exp(-arg)
    return main - boundary


def blayer_quadrature_form(r: complex, eps: float, eta: float,
                           spec: QuadratureSpec = DEFAULT_QUAD_SPEC) -> complex:
    """Boundary-layer integral by direct quadrature of the trace operator.

    This is the depth-smoothing operator applied to the profile e^{-r eta'}
    with unit chi-wavenumber carrier (the primed depth variable appears in
    the decaying exponential, consistent with the trace approximation the
    closed form is derived from).
    """
    return approx_trace_integral(SurfaceTrace(r), eps, eta, spec)


def _pick_exponents(i: int, de: DecayExponents) -> tuple[complex, complex]:
    if i not in (1, 2, 3):
        raise ValueError("branch index must be 1, 2 or 3")
    if i > len(de._pairs):
        raise ValueError("branch 3 is absent in the decoupled limit")
    return de._pairs[i - 1]


def blayer_integral_closed(i: int, de: DecayExponents, eps: float,
                           eta: float) -> complex:
    r, r0 = _pick_exponents(i, de)
    return blayer_closed_form(r, r0, eps, eta)


def blayer_integral_quadrature(i: int, de: DecayExponents, eps: float,
                               eta: float,
                               spec: QuadratureSpec = DEFAULT_QUAD_SPEC) -> complex:
    r, _ = _pick_exponents(i, de)
    return blayer_quadrature_form(r, eps, eta, spec)


def blayer_closed_form_deta(r: complex, r0: complex, eps: float,
                            eta: float) -> complex:
    """Analytic d/d eta of `blayer_closed_form` (used by surface operators)."""
    if eps < 0:
        raise ValueError("eps must be >= 0")
    if eps == 0.0:
        return -r * cmath.exp(-r * eta)
    main = -r * (1.0 + eps * eps * (r0 * r0 - 1.0)) * cmath.exp(-r * eta)
    arg = eta / eps
    if arg > 745.0:
        return main
    bracket = (1.0 + eps * r0 + eps * eps * (r0 * r0 - 1.0) - 0.5 * eps * eta)
    dbracket = -0.5 * eps
    boundary = 0.5 * (dbracket - bracket / eps) * math.exp(-arg)
    return main - boundary


def nonlocal_stresses(amp: Amplitudes, de: DecayExponents, mp: ModeParams,
                      m: MaterialParams, x: float, z: float) -> StressState:
    """Non-local stresses of the mode: the explicit k^2 [...] I_i structure.

    The branch coefficients of `stress_branch_coeffs`, with each branch's
    depth decay e^{-k r_i z} replaced by the boundary-layer integral
    I_i(k z) at eps = mp.eps: tau = k^2 (mu+kappa) sum_b coeff_b A_b I_b
    e^{ikx}, and k (mu+kappa) in place of k^2 (mu+kappa) for the couple
    stresses M.  As eps -> 0 the I_i collapse to the bare exponentials and
    tau -> sigma pointwise for z > 0.
    """
    if z < 0:
        raise ValueError("the half-space is z >= 0")
    k = mp.k
    carrier = cmath.exp(1j * k * x)
    weights = [a * blayer_closed_form(r, r0, mp.eps, k * z) * carrier
               for a, r, r0 in _branches(amp, de)]
    rows = stress_branch_coeffs(m, de, k)
    mk = m.mu + m.kappa

    def stress(comp: str, scale: float) -> complex:
        return scale * sum(c * w for c, w in zip(rows[comp], weights))

    kin = local_stresses(amp, de, mp, m, x, z)
    return StressState(
        u1=kin.u1, u3=kin.u3, phi2=kin.phi2,
        tau11=stress("sigma11", k * k * mk), tau13=stress("sigma13", k * k * mk),
        tau31=stress("sigma31", k * k * mk), tau33=stress("sigma33", k * k * mk),
        m12=stress("pi12", k * mk), m32=stress("pi32", k * mk),
    )
