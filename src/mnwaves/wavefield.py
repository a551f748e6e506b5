"""Harmonic surface-wave ansatz for the micropolar half-space.

Fields are built from three decaying branches (time factor e^{-i omega t}
suppressed throughout), one row (r, r0, s) each of the branch table
`DecayExponents._pairs`; every psi branch drives Phi2 = s k^2 psi, so Q is
the psi branch with s = 0 (s is None on the phi branch P):

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
used here).  `pde_residual` measures this instead of hiding it.
"""

from __future__ import annotations

import cmath
import math

from ._record import Record, setfield
from .material import DerivedScales, MaterialParams, derive_scales

__all__ = [
    "ModeParams",
    "DecayExponents",
    "Amplitudes",
    "StressState",
    "ModeSolution",
    "leading_exponents",
    "decay_exponents",
    "shear_balance_s",
    "local_stresses",
    "nonlocal_stresses",
    "stress_branch_coeffs",
    "pde_residual",
    "blayer_closed_form",
    "blayer_quadrature_form",
    "blayer_integral_closed",
    "blayer_integral_quadrature",
]


def _check_mode(k: float, omega: float, v: float, eps: float) -> None:
    """The checks of `ModeParams`, for callers that pass plain numbers."""
    if not 0 < k < math.inf:
        raise ValueError(f"k must be positive and finite, got {k!r}")
    if not 0 < omega < math.inf:
        raise ValueError(f"omega must be positive and finite, got {omega!r}")
    if not abs(v - omega / k) <= 1e-14 * abs(v):
        raise ValueError("v must equal omega/k")
    if not v > 0:  # omega/k underflowed to zero
        raise ValueError(f"v must be positive, got {v!r}")
    if not 0 <= eps < math.inf:
        raise ValueError(f"eps must be finite and >= 0, got {eps!r}")


class ModeParams(Record):
    def __init__(self,
                 k: float,      # 1/m
                 omega: float,  # rad/s
                 v: float,      # m/s, = omega/k
                 eps: float):   # dimensionless non-locality, a*k
        _check_mode(k, omega, v, eps)
        setfield(self, "k", k)
        setfield(self, "omega", omega)
        setfield(self, "v", v)
        setfield(self, "eps", eps)


class DecayExponents(Record):
    """Branch exponents (full and leading order) for one mode state.

    In the classical limit kappa = 0 the microrotation decouples and the
    coupling amplitude s is undefined (0/0); such states have r3, r30 and s
    absent.
    """

    def __init__(self, r1: complex, r2: complex, r10: complex, r20: complex,
                 r3: complex | None = None, s: complex | None = None,
                 r30: complex | None = None):
        setfield(self, "r1", r1)
        setfield(self, "r2", r2)
        setfield(self, "r10", r10)
        setfield(self, "r20", r20)
        setfield(self, "r3", r3)
        setfield(self, "s", s)
        setfield(self, "r30", r30)

    @property
    def decoupled(self) -> bool:
        return self.r3 is None

    @property
    def _pairs(self) -> tuple[tuple, ...]:
        """(r, r0, s) of P (s None), Q (s = 0) and R unless decoupled."""
        pairs = ((self.r1, self.r10, None), (self.r2, self.r20, 0.0))
        return (pairs if self.r3 is None
                else pairs + ((self.r3, self.r30, self.s),))

    @property
    def admissible(self) -> bool:
        """Re r1 > 0 and Re r2 > 0: the P and Q branches decay.  Branch 3 is
        exempt, as R = 0 on the elastic mode and r30 = 0 defines the
        micropolar one.  At eps = 0 it is `solve_rayleigh`'s x > 0."""
        return self.r1.real > 0 and self.r2.real > 0


class Amplitudes(Record):
    def __init__(self, P: complex, Q: complex, R: complex):
        setfield(self, "P", P)
        setfield(self, "Q", Q)
        setfield(self, "R", R)


class StressState(Record):
    """Displacements, microrotation and the stresses at one point.

    `local_stresses` fills the stress slots with the local force and couple
    stresses sigma and Pi, `nonlocal_stresses` with their integral-model
    counterparts tau and M.
    """

    def __init__(self, u1: complex, u3: complex, phi2: complex,
                 sigma11: complex, sigma13: complex, sigma31: complex,
                 sigma33: complex, pi12: complex, pi32: complex):
        setfield(self, "u1", u1)
        setfield(self, "u3", u3)
        setfield(self, "phi2", phi2)
        setfield(self, "sigma11", sigma11)
        setfield(self, "sigma13", sigma13)
        setfield(self, "sigma31", sigma31)
        setfield(self, "sigma33", sigma33)
        setfield(self, "pi12", pi12)
        setfield(self, "pi32", pi32)


class ModeSolution(Record):
    """A complete mode state: material, wave parameters, amplitudes, exponents."""

    def __init__(self, m: MaterialParams, mp: ModeParams, amp: Amplitudes,
                 de: DecayExponents):
        setfield(self, "m", m)
        setfield(self, "mp", mp)
        setfield(self, "amp", amp)
        setfield(self, "de", de)


def _branch_sqrt(z: complex) -> complex:
    """Principal square root flipped onto Re >= 0; pure-imaginary ties to Im > 0."""
    w = cmath.sqrt(z)
    if w.real < 0.0 or (w.real == 0.0 and w.imag < 0.0):
        w = -w
    return w


def _q(m: MaterialParams) -> float:
    """q = (c2/c1)^2 from the moduli: (mu + kappa)/(lambda + 2 mu + kappa)."""
    return (m.mu + m.kappa) / (m.lambda_lame + 2.0 * m.mu + m.kappa)


def _r10_squared(m: MaterialParams, x: float) -> float:
    """r10^2 = 1 - q (1 - x) at x = r20^2 = 1 - (v/c2)^2: in x, r20 keeps
    its digits as v -> c2."""
    return 1.0 - _q(m) * (1.0 - x)


def leading_exponents(m: MaterialParams, v: float) -> tuple[complex, complex]:
    """Leading-order r10, r20 at v: `_branch_sqrt` of r10^2 and x."""
    x = 1.0 - (v / derive_scales(m).c2) ** 2
    return _branch_sqrt(_r10_squared(m, x)), _branch_sqrt(x)


def _micropolar_factor(sc: DerivedScales, omega: float) -> float:
    """1 - omega_c^2/omega^2, the cutoff factor of the micropolar branch."""
    return 1.0 - (sc.omega_cutoff / omega) ** 2


def _r30_squared(sc: DerivedScales, v: float, omega: float) -> float:
    """r30^2 = 1 - (v/c4)^2 (1 - omega_c^2/omega^2); zero on the micropolar
    mode."""
    return 1.0 - (v / sc.c4) ** 2 * _micropolar_factor(sc, omega)


def decay_exponents(m: MaterialParams, mp: ModeParams) -> DecayExponents:
    """Depth-attenuation exponents of the three branches, plus coupling s."""
    return _decay_exponents_at(m, mp.v, mp.omega, mp.eps,
                               1.0 - (mp.v / derive_scales(m).c2) ** 2)


def _decay_exponents_at(m: MaterialParams, v: float, omega: float, eps: float,
                        x: float) -> DecayExponents:
    """`decay_exponents` on a checked state at x = r20^2 = 1 - w, not via v:
    r1^2 = 1 - q w/(1 - eps^2 q w) and r2^2 = (x - eps^2 w)/(1 - eps^2 w)."""
    w, e2 = 1.0 - x, eps * eps
    if not math.isfinite(e2):
        raise ValueError(f"eps = {eps!r} is too large: eps^2 overflows")
    qw = _q(m) * w
    g1, g2 = 1.0 - e2 * qw, 1.0 - e2 * w
    if g1 == 0.0 or g2 == 0.0:
        raise ValueError("degenerate state: c_i^2 - eps^2 v^2 vanishes")
    r1, r2 = _branch_sqrt(1.0 - qw / g1), _branch_sqrt((x - e2 * w) / g2)
    r10, r20 = _branch_sqrt(1.0 - qw), _branch_sqrt(x)  # r10^2 = 1 - q w
    if m.kappa == 0.0:
        return DecayExponents(r1=r1, r2=r2, r10=r10, r20=r20)
    sc = derive_scales(m)
    v2 = v * v
    e2v2 = e2 * v2
    if not math.isfinite(e2v2):
        raise ValueError(f"eps = {eps!r} is too large: eps^2 v^2 overflows")
    d2 = sc.c2 ** 2 - e2v2
    d4 = sc.c4 ** 2 - e2v2
    if d4 == 0.0:
        raise ValueError("degenerate state: c_i^2 - eps^2 v^2 vanishes")
    # omega_c^2 = 2 kappa/(rho j) straight from the moduli: squaring the
    # rounded omega_c adds error that the cancellation in r3^2 amplifies
    # where r3 is small
    micro = 1.0 - 2.0 * m.kappa / (m.rho * m.j_inertia * omega * omega)
    r3 = _branch_sqrt(1.0 - (v2 / d4) * micro)
    r30 = _branch_sqrt(_r30_squared(sc, v, omega))
    s = (v2 / sc.c3 ** 2) * (1.0 - (d2 / d4) * micro)
    return DecayExponents(r1=r1, r2=r2, r3=r3, s=s, r10=r10, r20=r20, r30=r30)


def shear_balance_s(m: MaterialParams, mp: ModeParams) -> complex:
    """Coupling amplitude that makes the psi-equation vanish on the R branch.

    psi = B e^{ikx - k r3 z} and Phi2 = s k^2 B e^{ikx - k r3 z} turn the
    psi-equation into [c2^2 X + v^2 (1 - eps^2 X) + c3^2 s] k^2 B = 0 with
    X = r3^2 - 1, solved here for s; it comes out as the negative of the
    closed-form s under the sign conventions of this module.  Both values
    are surfaced by diagnostics, never silently merged.
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
    """(A, r, r0, s) of the active branches P (phi), Q (psi), R (psi, Phi2)."""
    if de.decoupled and amp.R != 0:
        raise ValueError("R must vanish in the decoupled (kappa = 0) limit")
    return [(a, *pair) for a, pair in zip((amp.P, amp.Q, amp.R), de._pairs)]


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
    if not z >= 0:
        raise ValueError("the half-space is z >= 0")
    k = mp.k
    carrier = cmath.exp(1j * k * x)
    u1 = u3 = u1x = u1z = u3x = u3z = 0j
    phi2 = phi2x = phi2z = 0j

    for a, r, _, s in _branches(amp, de):
        depth = cmath.exp(-k * r * z)
        e = a * depth * carrier
        if s is None:
            t_u1 = 1j * k * e          # d phi / dx
            t_u3 = -k * r * e          # d phi / dz
        else:
            t_u1 = k * r * e           # -d psi / dz
            t_u3 = 1j * k * e          # d psi / dx
            t_phi2 = s * k ** 2 * e    # Phi2 = s k^2 psi
            phi2 += t_phi2
            phi2x += 1j * k * t_phi2
            phi2z += -k * r * t_phi2
        u1 += t_u1
        u3 += t_u3
        u1x += 1j * k * t_u1
        u3x += 1j * k * t_u3
        u1z += -k * r * t_u1
        u3z += -k * r * t_u3

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
    decoupled), the psi columns from one formula in (r, s).  Transcribed
    from the explicit stress block of the ansatz, independently of the
    kinematic path in `local_stresses`.
    """
    lam, mu, kap = m.lambda_lame, m.mu, m.kappa
    mk = mu + kap
    d = mu / mk
    dp = 1.0 + d
    big = lam + 2.0 * mu + kap
    gk2 = m.gamma_mp * k * k / mk
    (r1, _, _), *psi = de._pairs
    # one column per branch, its entries in the order of _STRESS_ROWS
    cols = [(-(big - lam * r1 * r1) / mk, -1j * r1 * dp, -1j * r1 * dp,
             (big * r1 * r1 - lam) / mk, 0j, 0j)]
    cols += [(1j * r * dp, s * (1.0 - d) - 1.0 - d * r * r,
              -(s * (1.0 - d) + d + r * r), -1j * r * dp,
              1j * s * gk2, -s * gk2 * r) for r, _, s in psi]
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

    (r1, _, _), *psi = de._pairs
    x1 = r1 * r1 - 1.0
    eq1 = (m.rho * (sc.c1 ** 2 * k2 * x1 + w2 * (1.0 - e2 * x1)) * amp.P
           * cmath.exp(-r1))
    eq2 = eq3 = 0j
    for a, (r, _, s) in zip((amp.Q, amp.R), psi):
        x = r * r - 1.0
        e = cmath.exp(-r)
        sk2 = s * k2
        eq2 += m.rho * (sc.c2 ** 2 * k2 * x + w2 * (1.0 - e2 * x)
                        + sc.c3 ** 2 * sk2) * a * e
        eq3 += (m.gamma_mp * k2 * x * sk2
                - m.kappa * k2 * x
                - 2.0 * m.kappa * sk2
                + m.rho * m.j_inertia * w2 * (1.0 - e2 * x) * sk2) * a * e
    return (eq1 / norm, eq2 / norm, eq3 / norm)


def _blayer_closed(r: complex, r0: complex, eps: float,
                   eta: float) -> tuple[complex, complex]:
    """(I, dI/deta): `blayer_closed_form` and its eta-slope from shared
    terms, behind one set of input checks."""
    if not eps >= 0:
        raise ValueError(f"eps must be >= 0, got {eps!r}")
    if not math.isfinite(eps * eps):
        raise ValueError(f"eps = {eps!r} is too large: eps^2 overflows")
    if not eta >= 0:
        raise ValueError(f"eta must be >= 0, got {eta!r}")
    decay = cmath.exp(-r * eta)
    if eps == 0.0:
        return decay, -r * decay
    main = (1.0 + eps * eps * (r0 * r0 - 1.0)) * decay
    arg = eta / eps
    if arg > 745.0:           # e^{-eta/eps} underflows; the term is gone
        return main, -r * main
    bracket = (1.0 + eps * r0 + eps * eps * (r0 * r0 - 1.0)
               - 0.5 * eps * eta)
    edge = math.exp(-arg)
    return (main - 0.5 * bracket * edge,
            -r * main + 0.5 * (0.5 * eps + bracket / eps) * edge)


def blayer_closed_form(r: complex, r0: complex, eps: float, eta: float) -> complex:
    """Closed form of the boundary-layer integral for exponent pair (r, r0):

        [1 + eps^2 (r0^2 - 1)] e^{-r eta}
        - 1/2 [1 + eps r0 + eps^2 (r0^2 - 1 - eta/(2 eps))] e^{-eta/eps}

    eps = 0 is the exact local limit, the bare branch decay e^{-r eta}.
    """
    return _blayer_closed(r, r0, eps, eta)[0]


def _exp_moments(c: complex, eta: float) -> tuple[complex, complex]:
    """int_0^eta (1, s) e^{c s} ds.  Where |c eta| < 1/2 the closed forms
    cancel, so eta (phi1, eta phi2)(c eta) is summed from the Taylor series
    of phi1, phi2 = int_0^1 (1, t) e^{z t} dt."""
    z = c * eta
    if abs(z) < 0.5:
        term, phi1, phi2 = 1.0 + 0j, 0j, 0j
        for n in range(18):  # term = z^n/n!; the first one left out is < 1e-21
            phi1 += term / (n + 1)
            phi2 += term / (n + 2)
            term *= z / (n + 1)
        return eta * phi1, eta * eta * phi2
    ez = cmath.exp(z)
    m0 = (ez - 1.0) / c
    return m0, (eta * ez - m0) / c


def blayer_quadrature_form(r: complex, eps: float, eta: float) -> complex:
    """Boundary-layer integral of the trace operator, integrated exactly:

        (1/2eps) int_0^inf [1 - (eps^2/2)(1 + |eta'-eta|/eps)]
                           e^{-r eta'} exp(-|eta'-eta|/eps) deta'

    i.e. the 1D non-local depth smoothing of the profile e^{-r eta'} on the
    e^{i chi} carrier, the chi-derivatives applied analytically (a factor
    -1).  Re r >= 0 keeps the profile bounded as eta' -> inf.

    On each side of the kink at eta the integrand is A - B s, with
    A = 1 - eps^2/2, B = eps/2 and s = |eta' - eta|, times an exponential
    in s.  With p = r - 1/eps and q = r + 1/eps the part above eta is
    e^{-r eta} (A/q - B/q^2) and the part below is
    e^{-r eta} int_0^eta (A - B s) e^{p s} ds.  Where (Re p) eta > 1 that
    e^{p s} could overflow, so the part below is taken from the surface
    instead: e^{-eta/eps} int_0^eta (A - B eta + B u) e^{-p u} du.
    """
    if not complex(r).real >= 0.0:
        raise ValueError(f"r = {r!r} has a negative real part")
    if not cmath.isfinite(r):
        raise ValueError(f"r = {r!r} must be finite")
    if not eps > 0:
        raise ValueError("eps must be positive")
    if not math.isfinite(eps * eps):
        raise ValueError(f"eps = {eps!r} is too large: eps^2 overflows")
    if not math.isfinite(1.0 / eps):
        raise ValueError(f"eps = {eps!r} is too small: 1/eps overflows")
    if not 0 <= eta < math.inf:
        raise ValueError("eta must be finite and >= 0")
    a_coef, b_coef = 1.0 - 0.5 * eps * eps, 0.5 * eps
    p, q = r - 1.0 / eps, r + 1.0 / eps
    decay = cmath.exp(-r * eta)
    above = decay * (a_coef / q - b_coef / (q * q))
    if p.real * eta > 1.0:
        m0, m1 = _exp_moments(-p, eta)
        below = math.exp(-eta / eps) * ((a_coef - b_coef * eta) * m0
                                         + b_coef * m1)
    else:
        m0, m1 = _exp_moments(p, eta)
        below = decay * (a_coef * m0 - b_coef * m1)
    return (above + below) / (2.0 * eps)


def _pick_exponents(i: int, de: DecayExponents) -> tuple[complex, complex]:
    if i not in (1, 2, 3):
        raise ValueError("branch index must be 1, 2 or 3")
    if i > len(de._pairs):
        raise ValueError("branch 3 is absent in the decoupled limit")
    return de._pairs[i - 1][:2]


def blayer_integral_closed(i: int, de: DecayExponents, eps: float,
                           eta: float) -> complex:
    r, r0 = _pick_exponents(i, de)
    return blayer_closed_form(r, r0, eps, eta)


def blayer_integral_quadrature(i: int, de: DecayExponents, eps: float,
                               eta: float) -> complex:
    r, _ = _pick_exponents(i, de)
    return blayer_quadrature_form(r, eps, eta)


def nonlocal_stresses(amp: Amplitudes, de: DecayExponents, mp: ModeParams,
                      m: MaterialParams, x: float, z: float) -> StressState:
    """Non-local stresses of the mode: the explicit k^2 [...] I_i structure.

    The kinematics are those of `local_stresses`; the stress slots hold
    tau (sigma slots) and M (pi slots).  The branch coefficients of
    `stress_branch_coeffs`, with each branch's depth decay e^{-k r_i z}
    replaced by the boundary-layer integral I_i(k z) at eps = mp.eps:
    tau = k^2 (mu+kappa) sum_b coeff_b A_b I_b e^{ikx}, and k (mu+kappa) in
    place of k^2 (mu+kappa) for the couple stresses M.  As eps -> 0 the I_i
    collapse to the bare exponentials and tau -> sigma pointwise for z > 0.
    """
    kin = local_stresses(amp, de, mp, m, x, z)
    k = mp.k
    carrier = cmath.exp(1j * k * x)
    weights = [a * blayer_closed_form(r, r0, mp.eps, k * z) * carrier
               for a, r, r0, _ in _branches(amp, de)]
    mk = m.mu + m.kappa
    return kin.replace(**{
        comp: (k * mk if comp.startswith("pi") else k * k * mk)
        * sum(c * w for c, w in zip(coeffs, weights))
        for comp, coeffs in stress_branch_coeffs(m, de, k).items()})
