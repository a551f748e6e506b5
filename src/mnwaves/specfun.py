"""Special functions and adaptive quadrature used by every oracle.

The modified Bessel function K0 is the radial profile of the 2D non-local
kernel; it is exposed here behind a strict domain contract (K0 has a
logarithmic singularity at 0 and underflows past x ~ 700).  K1 is provided
because the integral of the kernel over a disk of radius R is
1 - (R/a) K1(R/a).  Both come from scipy.special, which is imported on the
first Bessel call: `import mnwaves` loads numpy only, and only the commands
that evaluate the kernel pay for scipy.

Quadrature is a heap-driven adaptive Gauss-Legendre pair (orders 10 and 21,
nodes from numpy.polynomial.legendre, so no tabulated constants enter the
code).  Semi-infinite integrals are mapped to (0, 1] with t = lo - ln(u),
which turns every exponentially decaying integrand into an algebraic one.
Integrands take the numpy array of a panel's abscissae and return a (complex)
array or a scalar that broadcasts; results are bitwise deterministic.  The
one 2D integral, over a disk, is of a radially symmetric g: 2 pi times one
radial integral.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np
from numpy.polynomial.legendre import leggauss

__all__ = [
    "QuadratureSpec",
    "DEFAULT_QUAD_SPEC",
    "ConvergenceError",
    "bessel_k0",
    "bessel_k1",
    "integrate_1d",
    "integrate_2d_polar",
]

_UNDERFLOW_X = 700.0


@dataclass(frozen=True)
class QuadratureSpec:
    rel_tol: float = 1e-10
    abs_tol: float = 1e-14
    max_subdivisions: int = 2000

    def __post_init__(self):
        if not 0 < self.rel_tol < math.inf:
            raise ValueError("rel_tol must be finite and > 0")
        if not 0 <= self.abs_tol < math.inf:
            raise ValueError("abs_tol must be finite and >= 0")
        if not self.max_subdivisions >= 1:
            raise ValueError("max_subdivisions must be >= 1")


DEFAULT_QUAD_SPEC = QuadratureSpec()


class ConvergenceError(RuntimeError):
    """Subdivision budget exhausted; carries the best estimate and its bound."""

    def __init__(self, estimate: complex, error_bound: float):
        super().__init__(
            f"quadrature did not converge (estimate {estimate}, "
            f"error bound {error_bound:.3e})"
        )
        self.estimate = estimate
        self.error_bound = error_bound


def _bessel(order: int, x):
    """K0 (order 0) or K1 (order 1) of a scalar or an array x > 0, with 0.0
    (underflow) past 700.  scipy is imported here, on the first call, so
    that `import mnwaves` does not pay for it."""
    from scipy.special import k0, k1

    xs = np.asarray(x, dtype=float)
    if not (xs > 0.0).all():
        raise ValueError(f"bessel_k{order} requires x > 0, got {x}")
    values = np.where(xs > _UNDERFLOW_X, 0.0, (k0, k1)[order](xs))
    return float(values) if values.ndim == 0 else values


def bessel_k0(x):
    """Modified Bessel function K0(x) for x > 0, a scalar or an array.

    Relative error <= 1e-12 on [1e-6, 700]; returns 0.0 (underflow) for
    x > 700.  x <= 0 is a domain error: K0 diverges logarithmically at 0.
    """
    return _bessel(0, x)


def bessel_k1(x):
    """Modified Bessel function K1(x) = -K0'(x) for x > 0, as bessel_k0."""
    return _bessel(1, x)


# Gauss-Legendre node/weight pairs on [-1, 1].  The order-21 rule is the
# estimate, the order-10 rule the comparison; neither touches an endpoint,
# so integrable endpoint singularities are admissible.  One integrand call
# takes all 31 nodes, the order-21 ones first.  The weights are complex so
# that no dot product with the complex values casts them again: the sums
# are the same, and a panel costs less.
_GL_HI_X, _GL_HI_W = leggauss(21)
_GL_LO_X, _GL_LO_W = leggauss(10)
_GL_X = np.concatenate([_GL_HI_X, _GL_LO_X])
_GL_HI_W, _GL_LO_W = _GL_HI_W.astype(complex), _GL_LO_W.astype(complex)


def _eval_panel(f: Callable[[np.ndarray], np.ndarray], a: float,
                b: float) -> tuple[complex, float]:
    """(estimate, error) of the panel [a, b], summed in Python complex."""
    half = 0.5 * (b - a)
    mid = 0.5 * (a + b)
    values = np.empty(31, dtype=complex)
    values[:] = f(mid + half * _GL_X)  # a constant integrand broadcasts
    hi = complex(_GL_HI_W @ values[:21]) * half
    lo = complex(_GL_LO_W @ values[21:]) * half
    return hi, abs(hi - lo)


def _adaptive(f: Callable[[np.ndarray], np.ndarray], a: float, b: float,
              spec: QuadratureSpec) -> complex:
    total, total_err = _eval_panel(f, a, b)
    # heap of (-error, insertion counter, a, b, value, error); the counter
    # makes tie-breaking, and therefore the refinement order, deterministic
    counter = 0
    heap = [(-total_err, counter, a, b, total, total_err)]
    for _ in range(spec.max_subdivisions):
        if total_err <= max(spec.abs_tol, spec.rel_tol * abs(total)):
            return total
        _, _, pa, pb, pval, perr = heapq.heappop(heap)
        mid = 0.5 * (pa + pb)
        if mid <= pa or mid >= pb:
            # interval at floating-point resolution; keep its estimate
            heapq.heappush(heap, (0.0, counter + 1, pa, pb, pval, 0.0))
            counter += 1
            total_err -= perr  # remove its error from the budget
            continue
        lval, lerr = _eval_panel(f, pa, mid)
        rval, rerr = _eval_panel(f, mid, pb)
        total += lval + rval - pval
        total_err += lerr + rerr - perr
        counter += 1
        heapq.heappush(heap, (-lerr, counter, pa, mid, lval, lerr))
        counter += 1
        heapq.heappush(heap, (-rerr, counter, mid, pb, rval, rerr))
    if total_err <= max(spec.abs_tol, spec.rel_tol * abs(total)):
        return total
    raise ConvergenceError(total, total_err)


def integrate_1d(f: Callable[[np.ndarray], np.ndarray], lo: float, hi: float,
                 spec: QuadratureSpec = DEFAULT_QUAD_SPEC) -> complex:
    """Adaptive integral of a complex-valued f over (lo, hi); hi may be +inf.

    The semi-infinite case substitutes t = lo - ln(u), u in (0, 1], which is
    exact for exponentially decaying integrands.  Raises ConvergenceError
    (carrying the best estimate) when the subdivision budget runs out.
    """
    if not math.isfinite(lo):
        raise ValueError("lower limit must be finite")
    if not hi >= lo:
        raise ValueError(f"upper limit {hi!r} is NaN or below the lower limit")
    if hi == lo:
        return 0.0 + 0.0j
    if hi == math.inf:
        def g(u: np.ndarray) -> np.ndarray:
            return f(lo - np.log(u)) / u
        return _adaptive(g, 0.0, 1.0, spec)
    return _adaptive(f, lo, hi, spec)


def integrate_2d_polar(g: Callable[[np.ndarray, float], np.ndarray],
                       r_max: float,
                       spec: QuadratureSpec = DEFAULT_QUAD_SPEC) -> complex:
    """Integral of g(r, theta) * r over the disk of radius r_max; r_max may
    be +inf.

    g must not depend on theta: it is called with the (31,) array of radii
    and theta = 0.0, and the result is 2 pi times its radial integral.  The
    Jacobian r tames integrable singularities of g at r = 0.
    """
    if not r_max > 0:
        raise ValueError("r_max must be positive")
    return 2.0 * math.pi * integrate_1d(lambda r: g(r, 0.0) * r, 0.0, r_max,
                                        spec)
