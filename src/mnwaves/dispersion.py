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

from ._record import Record, setfield
from .material import MaterialParams, derive_scales
from .wavefield import (Amplitudes, DecayExponents, _check_mode,
                        _decay_exponents_at, _micropolar_factor,
                        _r10_squared, _r30_squared, leading_exponents)

__all__ = [
    "CutoffError",
    "NoSurfaceModeError",
    "DispersionPoint",
    "DispersionCurve",
    "secular_leading",
    "solve_rayleigh",
    "micropolar_velocity",
    "elastic_amplitudes",
    "micropolar_amplitudes",
    "sweep",
    "curve_to_csv",
]

_BRACKET_LO = 0.01     # of c2; excludes the trivial double root at v = 0


class CutoffError(ValueError):
    """Micropolar mode requested below its cutoff frequency."""


class NoSurfaceModeError(RuntimeError):
    """The secular function has no sign change in the physical bracket."""


class DispersionPoint(Record):
    def __init__(self, omega: float, k: float, v: float, mode_tag: str,
                 exponents: DecayExponents | None, secular_residual: float,
                 admissible: bool):
        setfield(self, "omega", omega)
        setfield(self, "k", k)
        setfield(self, "v", v)
        setfield(self, "mode_tag", mode_tag)
        setfield(self, "exponents", exponents)
        setfield(self, "secular_residual", secular_residual)
        setfield(self, "admissible", admissible)

    @property
    def propagating(self) -> bool:
        return math.isfinite(self.v)


class DispersionCurve(Record):
    def __init__(self, points: tuple[DispersionPoint, ...]):
        omegas = [p.omega for p in points]
        if any(b <= a for a, b in zip(omegas, omegas[1:])):
            raise ValueError("curve frequencies must be strictly increasing")
        setfield(self, "points", points)

    @property
    def propagating_count(self) -> int:
        return sum(1 for p in self.points if p.propagating)


def _secular(d, r10, r20, r20_sq):
    """(1 + d)^2 r10 r20 - (r20^2 + d)^2 for Python floats or complexes."""
    return (1.0 + d) ** 2 * r10 * r20 - (r20_sq + d) ** 2


def secular_leading(m: MaterialParams, v: float) -> float:
    """The leading-order elastic-mode secular function at a phase velocity
    0 <= v <= c2, where r10 and r20 are real; any other v is a ValueError.

    Radicands and expression have one home each: `wavefield._r10_squared`
    with x = r20^2, and `_secular`.
    """
    sc = derive_scales(m)
    x = 1.0 - (v / sc.c2) ** 2
    if not (v >= 0.0 and x >= 0.0):
        raise ValueError(f"phase velocity must lie in [0, c2] = "
                         f"[0, {sc.c2!r}], got {v!r}")
    return _secular(sc.d, math.sqrt(_r10_squared(m, x)), math.sqrt(x), x)


def bracketed_root(f, a: float, b: float, fa: float, fb: float) -> float:
    """A root of f in a sign-change bracket [a, b] (fa = f(a) and
    fb = f(b) of opposite signs): an exact zero of f, or one of the
    adjacent doubles the bracket is narrowed to (their rounded midpoint).

    Each step is an Illinois step (regula falsi that halves the stored
    value of an end kept twice in a row; Dowell & Jarratt, BIT 11, 1971).
    One that rounds onto an end takes the double next to that end, so a
    root within an ulp of an end is closed off by the next step; a NaN one
    (infinite values) is a midpoint.  The bracket must keep up with
    bisection at half pace: after 2j evaluations it may be at most 2^-j of
    its first width, and while it is wider the steps are midpoints.  So
    where plain bisection takes n evaluations this takes at most 2n + 1.
    """
    if fa == 0.0 or fb == 0.0:
        return a if fa == 0.0 else b
    if (fa < 0.0) == (fb < 0.0):
        raise ValueError("f(a) and f(b) must differ in sign")
    budget = b - a     # widest bracket allowed before the next step
    kept = 0           # end kept by the last step: -1 for a, +1 for b
    steps = 0
    while True:
        x = 0.5 * (a + b)
        if b - a <= budget:
            step = a - fa * (b - a) / (fb - fa)
            if step <= a:
                step = math.nextafter(a, b)
            elif step >= b:
                step = math.nextafter(b, a)
            if a < step < b:
                x = step
        if not a < x < b:
            return x    # a and b are adjacent doubles
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


def _geomspace(start: float, stop: float, n: int) -> list[float]:
    """numpy.geomspace(start, stop, n) for 0 < start < stop and n >= 2: the
    exact ends, and between them 10**y on numpy.linspace's points of the
    log10 ends, i*step + log10(start).  numpy's vectorized log10 and power
    may round differently from the C library's, so an interior point can
    differ from numpy's in its last digits."""
    lo = math.log10(start)
    step = (math.log10(stop) - lo) / (n - 1)
    return [start] + [10.0 ** (i * step + lo) for i in range(1, n - 1)] + [stop]


def _elastic_root(m: MaterialParams) -> tuple[float, DispersionPoint]:
    """x = r20^2 at the elastic root and the point `solve_rayleigh` returns,
    kept on the material instance: records are frozen, so it cannot go stale."""
    memo = vars(m).get("_elastic_root")
    if memo is not None:
        return memo
    sc = derive_scales(m)
    d = sc.d

    def f(x: float) -> float:
        return _secular(d, math.sqrt(_r10_squared(m, x)), math.sqrt(x), x)

    hi = 1.0 - _BRACKET_LO ** 2
    f_hi = f(hi)
    if not f_hi > 0.0:
        raise NoSurfaceModeError(
            "no sign change of the secular function between "
            f"{_BRACKET_LO!r} c2 and c2; no elastic surface mode for this "
            "material")
    x = bracketed_root(f, 0.0, hi, -d ** 2, f_hi)
    memo = x, DispersionPoint(
        omega=math.nan, k=math.nan, v=sc.c2 * math.sqrt(1.0 - x),
        mode_tag="elastic", exponents=None, secular_residual=abs(f(x)),
        admissible=x > 0.0,
    )
    setfield(m, "_elastic_root", memo)
    return memo


def solve_rayleigh(m: MaterialParams) -> DispersionPoint:
    """The elastic-mode root of `secular_leading` in (0.01, 1) c2.

    The unknown is x = r20^2 of `wavefield._r10_squared` (x -> 0 as kappa/mu
    grows).  Squared, the relation is (1+d)^4 (1 - q (1 - x)) x = (x + d)^4;
    its trivial root x = 1 (v = 0) divided out, it is the cubic
    x^3 + (1+4d) x^2 + (1+4d+6d^2 - q (1+d)^4) x - d^4, whose coefficients
    change sign once, so it has one positive root (Descartes), and that
    root lies in (0, 1): the cubic is -d^4 at 0 and above
    (1 - d^2)(1 + d)^2 >= 0 at 1, as q < 1 and d <= 1.  The secular
    function has the cubic's sign on [0, 1) and is -d^2 at x = 0, so one
    bracket [0, 1 - 0.01^2] holds the sign change, which `bracketed_root`
    narrows, in about 14 evaluations and at most 30, to adjacent doubles
    where the computed f changes sign; v = c2 sqrt(1 - x).  The residual
    |f(x)| and admissibility, x > 0 (r20 = sqrt(x) decays), are read from
    that x, not from v, which rounds to c2 once x is below about an ulp of
    1.  Each material instance solves it once.  The leading-order mode is
    non-dispersive: omega and k of the returned point are NaN metadata,
    exponents are attached by `sweep`.
    """
    return _elastic_root(m)[1]


def micropolar_velocity(m: MaterialParams, omega: float) -> float:
    """Phase velocity of the micropolar mode, v = c4/sqrt(1 - omega_c^2/omega^2)."""
    sc = derive_scales(m)
    if not omega > sc.omega_cutoff:
        raise CutoffError(
            f"mode does not propagate: omega = {omega!r} is at or below the "
            f"cutoff {sc.omega_cutoff!r}")
    return sc.c4 / math.sqrt(_micropolar_factor(sc, omega))


def elastic_amplitudes(m: MaterialParams, v: float, eps: float) -> Amplitudes:
    """Potential amplitudes of the elastic mode at phase velocity v,
    normalized to Q = 1:

        P = i (r20^2 + d)(1 + (r10 - r20)(eps - eps^2 r20)) / ((1 + d) r10),
        R = 0.
    """
    return _elastic_amplitudes(derive_scales(m).d, *leading_exponents(m, v), eps)


def _elastic_amplitudes(d: float, r10: complex, r20: complex,
                        eps: float) -> Amplitudes:
    if r10 == 0:
        raise ZeroDivisionError("amplitude ratio is singular: r10 = 0")
    corr = eps - eps * eps * r20
    p = (1j * (r20 * r20 + d) * (1.0 + (r10 - r20) * corr)
         / ((1.0 + d) * r10))
    return Amplitudes(P=p, Q=1.0 + 0j, R=0j)


def micropolar_amplitudes(m: MaterialParams, v: float, omega: float,
                          eps: float) -> Amplitudes:
    """Potential amplitudes of the micropolar mode at phase velocity v and
    frequency omega (positive and finite), normalized to Q = 1:

        P = i (1 + d) r20 (1 + (r10 - r20)(eps - eps^2 r20)) / (r20^2 + d),
        R = [(1 + d)^2 r10 r20 - (r20^2 + d)^2]
            / ((r20^2 + d)(s0 (1 - d) + d))
            * (1 + (r30 - r20)(eps - eps^2 r20)),

    s0 the coupling of the eps = 0 state.  At eps = 0, where r3 = r30 = 0
    on the mode, this R is what the sigma31 row of `stress_branch_coeffs`
    asks.  kappa = 0 is a ValueError (no s0), and s0 (1 - d) + d = 0 a
    ZeroDivisionError.
    """
    if not 0.0 < omega < math.inf:
        raise ValueError(f"omega must be positive and finite, got {omega!r}")
    if not m.kappa > 0:
        raise ValueError("micropolar_amplitudes requires kappa > 0")
    sc = derive_scales(m)
    d = sc.d
    de = _decay_exponents_at(m, v, omega, 0.0, 1.0 - (v / sc.c2) ** 2)
    r10, r20 = de.r10, de.r20
    coupling = de.s * (1.0 - d) + d
    if coupling == 0:
        raise ZeroDivisionError("amplitude ratio is singular: "
                                "s0 (1 - d) + d = 0")
    corr = eps - eps * eps * r20
    p = (1j * (1.0 + d) * r20 * (1.0 + (r10 - r20) * corr)
         / (r20 * r20 + d))
    r_amp = (_secular(d, r10, r20, r20 * r20) / ((r20 * r20 + d) * coupling)
             * (1.0 + (de.r30 - r20) * corr))
    return Amplitudes(P=p, Q=1.0 + 0j, R=r_amp)


def _solved_point(m: MaterialParams, omega: float, v: float,
                  mode_tag: str, residual: float, x: float) -> DispersionPoint:
    k = omega / v
    eps = m.a_nl * k
    _check_mode(k, omega, v, eps)
    de = _decay_exponents_at(m, v, omega, eps, x)
    return DispersionPoint(omega=omega, k=k, v=v, mode_tag=mode_tag,
                           exponents=de, secular_residual=residual,
                           admissible=de.admissible)


def sweep(m: MaterialParams, omega_lo: float, omega_hi: float, n: int,
          mode_tag: str = "elastic") -> DispersionCurve:
    """Solve the requested mode on n log-spaced frequencies.

    Micropolar frequencies at or below the cutoff are recorded as
    non-propagating entries (NaN velocity, no exponents) rather than
    dropped, so the output always has n rows in increasing omega.
    """
    if not (0 < omega_lo < omega_hi):
        raise ValueError("need 0 < omega_lo < omega_hi")
    if n < 2:
        raise ValueError("need at least 2 sweep points")
    if mode_tag not in ("elastic", "micropolar"):
        raise ValueError(f"unknown mode tag {mode_tag!r}")
    omegas = _geomspace(omega_lo, omega_hi, n)
    points: list[DispersionPoint] = []
    if mode_tag == "elastic":
        x, root = _elastic_root(m)
        for omega in omegas:
            points.append(_solved_point(m, omega, root.v, "elastic",
                                        root.secular_residual, x))
    else:
        sc = derive_scales(m)
        for omega in omegas:
            if omega <= sc.omega_cutoff:
                points.append(DispersionPoint(
                    omega=omega, k=math.nan, v=math.nan,
                    mode_tag="micropolar", exponents=None,
                    secular_residual=math.nan, admissible=False))
                continue
            v = micropolar_velocity(m, omega)
            points.append(_solved_point(m, omega, v, "micropolar",
                                        abs(_r30_squared(sc, v, omega)),
                                        1.0 - (v / sc.c2) ** 2))
    return DispersionCurve(points=tuple(points))


def curve_to_csv(curve: DispersionCurve) -> str:
    """One row per point, the real and imaginary part of each exponent;
    NaN where a row has no exponents or no branch 3."""
    lines = ["omega,k,v,mode,r1_re,r1_im,r2_re,r2_im,r3_re,r3_im,"
             "secular_residual,admissible"]
    missing = complex(math.nan, math.nan)
    for p in curve.points:
        de = p.exponents
        rs = ((missing,) * 3 if de is None
              else (de.r1, de.r2, missing if de.r3 is None else de.r3))
        parts = ",".join(f"{r.real!r},{r.imag!r}" for r in rs)
        lines.append(
            f"{p.omega!r},{p.k!r},{p.v!r},{p.mode_tag},{parts},"
            f"{p.secular_residual!r},{'true' if p.admissible else 'false'}"
        )
    return "\n".join(lines) + "\n"
