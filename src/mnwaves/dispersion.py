"""Leading-order dispersion of the two Rayleigh-wave modes.

The surface-traction determinant at leading order factors into two
relations.  The elastic mode solves

    (1 + d)^2 r10 r20 - (r20^2 + d)^2 = 0,      d = mu/(mu + kappa),

which is frequency-free (non-dispersive at this order) and reduces to the
classical Rayleigh function 4 r10 r20 - (1 + r20^2)^2 when kappa = 0.  The
micropolar mode is the exact root of r30 = 0,

    v = c4 / sqrt(1 - omega_c^2 / omega^2),

which only propagates above the cutoff omega_c = sqrt(2 kappa/(rho j)) and
descends monotonically to c4 from above.  The two relations cannot vanish
simultaneously.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .material import MaterialParams, derive_scales, material_fingerprint
from .wavefield import (Amplitudes, DecayExponents, ModeParams, _branch_sqrt,
                        _leading_radicands, _micropolar_factor, _r30,
                        _r30_squared, decay_exponents, leading_exponents)

__all__ = [
    "CutoffError",
    "NoSurfaceModeError",
    "LeakyRegimeWarning",
    "DispersionPoint",
    "DispersionCurve",
    "secular_leading",
    "solve_rayleigh",
    "micropolar_velocity",
    "amplitude_ratios",
    "sweep",
    "curve_to_csv",
]

_BRACKET_LO = 0.01     # of c2; excludes the trivial double root at v = 0
_BRACKET_HI = 0.9999   # of c2; top of the uniform scan grid
_SCAN_POINTS = 512
_SCAN_STEP = (_BRACKET_HI - _BRACKET_LO) / (_SCAN_POINTS - 1)   # of c2


class CutoffError(ValueError):
    """Micropolar mode requested below its cutoff frequency."""


class NoSurfaceModeError(RuntimeError):
    """The secular function has no sign change in the physical bracket."""


class LeakyRegimeWarning(UserWarning):
    """secular_leading evaluated at v > c2 (complex r20, real part returned)."""


@dataclass(frozen=True)
class DispersionPoint:
    omega: float
    k: float
    v: float
    mode_tag: str
    exponents: DecayExponents | None
    secular_residual: float
    admissible: bool

    @property
    def propagating(self) -> bool:
        return math.isfinite(self.v)


@dataclass(frozen=True)
class DispersionCurve:
    points: tuple[DispersionPoint, ...]
    fingerprint: str

    def __post_init__(self):
        omegas = [p.omega for p in self.points]
        if any(b <= a for a, b in zip(omegas, omegas[1:])):
            raise ValueError("curve frequencies must be strictly increasing")

    @property
    def propagating_count(self) -> int:
        return sum(1 for p in self.points if p.propagating)


def _secular(d, r10, r20, r20_sq):
    """(1 + d)^2 r10 r20 - (r20^2 + d)^2 for scalars or numpy arrays."""
    return (1.0 + d) ** 2 * r10 * r20 - (r20_sq + d) ** 2


def secular_leading(m: MaterialParams, v: float) -> float:
    """The leading-order elastic-mode secular function at phase velocity v.

    Real for 0 <= v <= c2; past c2 r20 turns imaginary and the real part is
    returned under a LeakyRegimeWarning.  Radicands, roots and expression
    have one home each: `_leading_radicands`, `_branch_sqrt`, `_secular`.
    """
    if v < 0:
        raise ValueError("phase velocity must be >= 0")
    sc = derive_scales(m)
    r10_sq, r20_sq = _leading_radicands(sc, v)
    if not r20_sq >= 0.0:
        warnings.warn("evaluating the secular function in the leaky regime "
                      f"(v = {v!r} > c2)", LeakyRegimeWarning, stacklevel=2)
    return _secular(sc.d, _branch_sqrt(r10_sq), _branch_sqrt(r20_sq),
                    r20_sq).real


def bracketed_root(f, a: float, b: float, fa: float, fb: float,
                   width: float) -> float:
    """Midpoint of a sign-change bracket [a, b] of f (fa = f(a) and
    fb = f(b) of opposite signs) narrowed until it is at most width wide;
    an exact zero of f ends the search.

    Each step is an Illinois step (regula falsi that halves the stored
    value of an end kept twice in a row), moved at least width/2 inside
    the bracket so that a root within width/2 of an end is closed off by
    the next step.  The bracket must keep up with bisection at half pace:
    after 2j evaluations it may be at most 2^-j of its first width, and
    while it is wider the steps are midpoints.  So where plain bisection
    takes n evaluations this takes at most 2n + 1, on any f.
    """
    if fa == 0.0 or fb == 0.0:
        return a if fa == 0.0 else b
    if (fa < 0.0) == (fb < 0.0):
        raise ValueError("f(a) and f(b) must differ in sign")
    half = 0.5 * width
    budget = b - a     # widest bracket allowed before the next step
    kept = 0           # end kept by the last step: -1 for a, +1 for b
    steps = 0
    while b - a > width:
        w = b - a
        if w > budget:
            x = 0.5 * (a + b)
        else:
            # max before min, so a NaN step (inf values) falls on a + half
            x = min(b - half, max(a + half, a - fa * w / (fb - fa)))
        fx = f(x)
        if fx == 0.0:
            return x
        if (fx < 0.0) == (fa < 0.0):
            a, fa = x, fx
            if kept == 1:
                fb *= 0.5
            kept = 1
        else:
            b, fb = x, fx
            if kept == -1:
                fa *= 0.5
            kept = -1
        steps += 1
        if steps % 2 == 0:
            budget *= 0.5
    return 0.5 * (a + b)


def _check_tol(tol: float) -> None:
    if not 0 < tol < _SCAN_STEP:
        raise ValueError(f"tol must lie in (0, {_SCAN_STEP!r}), below the "
                         "root scan step relative to c2, or the root loop "
                         "would never run")


def solve_rayleigh(m: MaterialParams, tol: float = 1e-10) -> DispersionPoint:
    """The elastic-mode root of `secular_leading` in (0.01, 1) c2.

    The secular function is positive just above the trivial v = 0 double
    root (its leading term is +v^2 (1+d)[2/c2^2 - (1+d)(1/(2 c1^2)
    + 1/(2 c2^2))] > 0 because c1 > c2 and d <= 1) and equals -d^2 < 0 at
    c2, so a sign change below c2 always exists.  The scan grid ends at c2
    itself: for kappa/mu above about 7.6 the root lies above 0.9999 c2.
    With several sign changes the largest-velocity bracket (the physical
    Rayleigh branch) is taken.  The leading-order mode is non-dispersive:
    omega and k of the returned point are NaN metadata, exponents are
    attached by `sweep`.  The bracket of the scan is narrowed by
    `bracketed_root` to tol, relative to c2, which must be positive and
    below the scan step, or the root loop would never run.
    """
    _check_tol(tol)
    sc = derive_scales(m)
    lo = _BRACKET_LO * sc.c2
    # one array expression for the scan; the grid stops at c2, so r10^2 and
    # r20^2 stay >= 0 and np.sqrt stays real
    grid = np.append(np.linspace(lo, _BRACKET_HI * sc.c2, _SCAN_POINTS), sc.c2)
    r10_sq, r20_sq = _leading_radicands(sc, grid)
    vals = _secular(sc.d, np.sqrt(r10_sq), np.sqrt(r20_sq), r20_sq)
    hits = np.flatnonzero((vals[:-1] == 0.0) | (vals[:-1] * vals[1:] < 0.0))
    if hits.size == 0:
        raise NoSurfaceModeError(
            "no sign change of the secular function in "
            f"({lo!r}, {sc.c2!r}); no elastic surface mode for this material")
    i = hits[-1]
    v = bracketed_root(lambda u: secular_leading(m, u), float(grid[i]),
                       float(grid[i + 1]), float(vals[i]), float(vals[i + 1]),
                       tol * sc.c2)
    return DispersionPoint(
        omega=math.nan, k=math.nan, v=v, mode_tag="elastic", exponents=None,
        secular_residual=abs(secular_leading(m, v)),
        admissible=v < sc.c2,
    )


def micropolar_velocity(m: MaterialParams, omega: float) -> float:
    """Phase velocity of the micropolar mode, v = c4/sqrt(1 - omega_c^2/omega^2)."""
    sc = derive_scales(m)
    if not omega > sc.omega_cutoff:
        raise CutoffError(
            f"mode does not propagate: omega = {omega!r} is at or below the "
            f"cutoff {sc.omega_cutoff!r}")
    return sc.c4 / math.sqrt(_micropolar_factor(sc, omega))


def amplitude_ratios(m: MaterialParams, point: DispersionPoint,
                     eps: float) -> Amplitudes:
    """Potential amplitudes of a solved point, normalized to Q = 1.

    Elastic mode:  P = i (r20^2 + d)(1 + (r10 - r20)(eps - eps^2 r20))
                        / ((1 + d) r10),                      R = 0.
    Micropolar mode:
                   P = i (1 + d) r20 (1 + (r10 - r20)(eps - eps^2 r20))
                        / (r20^2 + d),
                   R = [(r20^2 + d)^2 - (1 + d)^2 r10 r20] / (r20^2 + d)
                        * (1 + (r30 - r20)(eps - eps^2 r20)).
    """
    sc = derive_scales(m)
    d = sc.d
    r10, r20 = leading_exponents(m, point.v)
    corr = eps - eps * eps * r20
    if point.mode_tag == "elastic":
        if r10 == 0:
            raise ZeroDivisionError("amplitude ratio is singular: r10 = 0")
        p = (1j * (r20 * r20 + d) * (1.0 + (r10 - r20) * corr)
             / ((1.0 + d) * r10))
        return Amplitudes(P=p, Q=1.0 + 0j, R=0j)
    if point.mode_tag == "micropolar":
        if not math.isfinite(point.omega):
            raise ValueError("micropolar amplitudes need the point frequency")
        r30 = _r30(sc, point.v, point.omega)
        p = (1j * (1.0 + d) * r20 * (1.0 + (r10 - r20) * corr)
             / (r20 * r20 + d))
        r_amp = (-_secular(d, r10, r20, r20 * r20) / (r20 * r20 + d)
                 * (1.0 + (r30 - r20) * corr))
        return Amplitudes(P=p, Q=1.0 + 0j, R=r_amp)
    raise ValueError(f"unknown mode tag {point.mode_tag!r}")


def _solved_point(m: MaterialParams, omega: float, v: float,
                  mode_tag: str, residual: float) -> DispersionPoint:
    k = omega / v
    mp = ModeParams(k=k, omega=omega, v=v, eps=m.a_nl * k)
    de = decay_exponents(m, mp)
    return DispersionPoint(omega=omega, k=k, v=v, mode_tag=mode_tag,
                           exponents=de, secular_residual=residual,
                           admissible=de.admissible)


def sweep(m: MaterialParams, omega_lo: float, omega_hi: float, n: int,
          mode_tag: str = "elastic", tol: float = 1e-10) -> DispersionCurve:
    """Solve the requested mode on n log-spaced frequencies.

    Micropolar frequencies at or below the cutoff are recorded as
    non-propagating entries (NaN velocity, no exponents) rather than
    dropped, so the output always has n rows in increasing omega.  tol is
    the elastic root tolerance of `solve_rayleigh`, checked for both modes.
    """
    if not (0 < omega_lo < omega_hi):
        raise ValueError("need 0 < omega_lo < omega_hi")
    if n < 2:
        raise ValueError("need at least 2 sweep points")
    _check_tol(tol)
    if mode_tag not in ("elastic", "micropolar"):
        raise ValueError(f"unknown mode tag {mode_tag!r}")
    omegas = np.geomspace(omega_lo, omega_hi, n)
    points: list[DispersionPoint] = []
    if mode_tag == "elastic":
        root = solve_rayleigh(m, tol)
        for omega in map(float, omegas):
            points.append(_solved_point(m, omega, root.v, "elastic",
                                        root.secular_residual))
    else:
        sc = derive_scales(m)
        for omega in map(float, omegas):
            if omega <= sc.omega_cutoff:
                points.append(DispersionPoint(
                    omega=omega, k=math.nan, v=math.nan,
                    mode_tag="micropolar", exponents=None,
                    secular_residual=math.nan, admissible=False))
                continue
            v = micropolar_velocity(m, omega)
            points.append(_solved_point(m, omega, v, "micropolar",
                                        abs(_r30_squared(sc, v, omega))))
    return DispersionCurve(points=tuple(points),
                           fingerprint=material_fingerprint(m))


def curve_to_csv(curve: DispersionCurve) -> str:
    """One row per point; r1, r2 print their real parts, r3 both parts."""
    lines = ["omega,k,v,mode,r1,r2,r3_re,r3_im,secular_residual,admissible"]
    for p in curve.points:
        if p.exponents is None:
            r1 = r2 = r3re = r3im = math.nan
        else:
            r1 = p.exponents.r1.real
            r2 = p.exponents.r2.real
            if p.exponents.r3 is None:
                r3re = r3im = math.nan
            else:
                r3re = p.exponents.r3.real
                r3im = p.exponents.r3.imag
        lines.append(
            f"{p.omega!r},{p.k!r},{p.v!r},{p.mode_tag},{r1!r},{r2!r},"
            f"{r3re!r},{r3im!r},{p.secular_residual!r},"
            f"{'true' if p.admissible else 'false'}"
        )
    return "\n".join(lines) + "\n"
