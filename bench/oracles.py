"""Reference values computed apart from mnwaves, used to check its outputs.

Every function here is transcribed from the formulas in the mnwaves README
and module docstrings, or is a property the method must have; none reuses
mnwaves code or copies one of its outputs. scipy is imported inside the
functions that need it, so that input generation, which is timed as part of
set-up, never pays for a scipy module the program might not import.
"""

from __future__ import annotations

import cmath
import math

import numpy as np

# solve_rayleigh only searches velocities up to this share of c2.
SOLVER_CAP = 0.9999


def speeds(p: dict) -> dict:
    """c1..c4, d and omega_c of a material given as its JSON config."""
    return {
        "c1": math.sqrt((p["lambda"] + 2.0 * p["mu"] + p["kappa"]) / p["rho"]),
        "c2": math.sqrt((p["mu"] + p["kappa"]) / p["rho"]),
        "c3": math.sqrt(p["kappa"] / p["rho"]),
        "c4": math.sqrt(p["gamma"] / (p["rho"] * p["j"])),
        "d": p["mu"] / (p["mu"] + p["kappa"]),
        "omega_c": math.sqrt(2.0 * p["kappa"] / (p["rho"] * p["j"])),
    }


def secular(sp: dict, v: float) -> float:
    """(1+d)^2 r10 r20 - (r20^2 + d)^2 for 0 <= v <= c2."""
    d = sp["d"]
    r10 = math.sqrt(1.0 - (v / sp["c1"]) ** 2)
    r20sq = max(0.0, 1.0 - (v / sp["c2"]) ** 2)
    return (1.0 + d) ** 2 * r10 * math.sqrt(r20sq) - (r20sq + d) ** 2


def rayleigh_root(sp: dict) -> float:
    """Largest root of the secular function in (0, c2).

    Bracketed in s = r20 = sqrt(1 - v^2/c2^2), so that roots close to c2
    (small s) are resolved: the function equals -d^2 < 0 at s = 0 and is
    positive just above the trivial double root at v = 0 (s = 1).
    """
    from scipy import optimize

    c2 = sp["c2"]

    def f(s: float) -> float:
        return secular(sp, c2 * math.sqrt(1.0 - s * s))

    grid = np.concatenate([[0.0], np.geomspace(1e-12, 1.0 - 1e-9, 4000)])
    prev_s, prev_f = grid[0], f(grid[0])
    for s in grid[1:]:
        fs = f(float(s))
        if prev_f < 0.0 <= fs:
            root_s = optimize.brentq(f, prev_s, float(s), xtol=1e-300,
                                     rtol=4.0 * np.finfo(float).eps)
            return c2 * math.sqrt(1.0 - root_s * root_s)
        prev_s, prev_f = float(s), fs
    raise ValueError("no sign change of the secular function in (0, c2)")


def micropolar_velocity(sp: dict, omega: float) -> float:
    return sp["c4"] / math.sqrt(1.0 - (sp["omega_c"] / omega) ** 2)


def micropolar_equivalence(sp: dict, v: float, k: float) -> float:
    """k^3 secular(v) / (r20^2 + d): the micropolar equivalence residual."""
    r20sq = 1.0 - (v / sp["c2"]) ** 2
    return k ** 3 * secular(sp, v) / (r20sq + sp["d"])


def micropolar_equivalence_scale(sp: dict, v: float, k: float) -> float:
    """Size of the terms that cancel in micropolar_equivalence at a root."""
    d = sp["d"]
    r20sq = 1.0 - (v / sp["c2"]) ** 2
    return k ** 3 * ((1.0 + d) ** 2 + (r20sq + d) ** 2) / (r20sq + d)


def _phi1(z: complex) -> complex:
    """int_0^1 e^{z s} ds = (e^z - 1)/z, by its series where that cancels."""
    if abs(z) >= 0.5:
        return (cmath.exp(z) - 1.0) / z
    term, total = 1.0 + 0j, 0j
    for n in range(1, 30):
        total += term / n
        term *= z / n
    return total


def _phi2(z: complex) -> complex:
    """int_0^1 s e^{z s} ds = (z e^z - e^z + 1)/z^2, by its series where
    that cancels."""
    if abs(z) >= 0.5:
        return ((z - 1.0) * cmath.exp(z) + 1.0) / (z * z)
    term, total = 1.0 + 0j, 0j
    for n in range(0, 30):
        total += term / (n + 2)
        term *= z / (n + 1)
    return total


def trace_integral(r: complex, eps: float, eta: float) -> complex:
    """Depth-smoothed exponential profile e^{-r eta'} at depth eta:

        (1/2eps) int_0^inf [1 - (eps^2/2)(1 + |eta'-eta|/eps)]
                           e^{-r eta'} e^{-|eta'-eta|/eps} deta'

    (unit chi-wavenumber), integrated exactly: the integrand is a linear
    polynomial times an exponential on each side of the kink at eta. With
    A = 1 - eps^2/2, B = eps/2 and s the distance from eta, the part below
    eta is e^{-r eta} int_0^eta (A - B s) e^{p s} ds with p = r - 1/eps,
    and the part above is e^{-r eta} int_0^inf (A - B s) e^{-q s} ds =
    e^{-r eta} (A/q - B/q^2) with q = r + 1/eps. Exact values do not lose
    accuracy on the fast-oscillating or fast-decaying profiles near the
    c4 = eps v pole, where adaptive quadrature does.
    """
    r = complex(r)
    a_coef = 1.0 - 0.5 * eps * eps
    b_coef = 0.5 * eps
    q = r + 1.0 / eps
    total = a_coef / q - b_coef / (q * q)
    if eta > 0.0:
        if (r.real - 1.0 / eps) * eta > 1.0:
            # e^{p eta} would overflow: factor out e^{-eta/eps} instead,
            # with the integral taken from the other end
            ep = math.exp(-eta / eps)
            w = -(r - 1.0 / eps) * eta
            below = ep * eta * (a_coef * _phi1(w)
                                - b_coef * eta * (_phi1(w) - _phi2(w)))
            return (cmath.exp(-r * eta) * total + below) / (2.0 * eps)
        z = (r - 1.0 / eps) * eta
        total += eta * (a_coef * _phi1(z) - b_coef * eta * _phi2(z))
    return cmath.exp(-r * eta) * total / (2.0 * eps)


def disk_mass(u: float) -> float:
    """Kernel mass inside radius u*a: 1 - u K1(u)."""
    from scipy import special

    return 1.0 - u * float(special.k1(u))


def roundtrip_bound(h: float, width: float, a: float) -> float:
    """Second-order bound on |apply_helmholtz(convolve(f)) - f| / max|f|
    for f a Gaussian exp(-r^2/width^2) sampled with spacing h.

    Cell sampling of the convolution leaves h^2/8 |lap f| and the 5-point
    Laplacian leaves a^2 h^2/12 (|f_xxxx| + |f_zzzz|); for the Gaussian
    max|lap f| = 4/w^2 and max|f_xxxx| = 12/w^4, so the bound is
    h^2 (1/(2 w^2) + 2 a^2/w^4). It is below 1e-3 for h <= a/4, w >= 6a.
    """
    return h * h * (0.5 / width ** 2 + 2.0 * a * a / width ** 4)


def stencil_taps(h: float, a: float, radii: float = 12.0) -> int:
    """Cells of a square grid of spacing h whose centres lie within radii*a:
    the nonzero taps of the truncated kernel stencil."""
    m = max(1, math.ceil(radii * a / h))
    idx = np.arange(-m, m + 1) * h
    return int(np.count_nonzero(np.hypot(idx[:, None], idx[None, :])
                                <= radii * a))
