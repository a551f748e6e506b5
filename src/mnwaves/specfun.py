"""Special functions and adaptive quadrature used by every oracle.

The modified Bessel function K0 is the radial profile of the 2D non-local
kernel; it is exposed here behind a strict domain contract (K0 has a
logarithmic singularity at 0 and underflows past x ~ 700).  K1 is provided
because the integral of the kernel over a disk of radius R is
1 - (R/a) K1(R/a).  Both are read from a table of polynomials in ln x
(`_bessel_table`, written by tools/bessel_table.py with mpmath) and stay
within 1e-15 relative of K0 and K1 from the smallest normal float to 700;
below 1e-9 the leading terms of their series at 0 are exact to double
precision.  This module and `kernel` are the package's only numpy users, so
only the commands that evaluate the kernel pay for numpy; nothing needs
scipy.

Quadrature is a heap-driven adaptive Gauss-Legendre pair (orders 10 and 21,
nodes from numpy.polynomial.legendre, so no tabulated constants enter the
code).  Semi-infinite integrals are mapped to (0, 1] with t = lo - ln(u),
which turns every exponentially decaying integrand into an algebraic one.
Integrands take the numpy array of the abscissae of one panel (31 nodes) or
of both halves of a split panel (62) and return a (complex) array or a
scalar that broadcasts; results are bitwise deterministic.  The one 2D
integral, over a disk, is of a radially symmetric g: 2 pi times one radial
integral.
"""

from __future__ import annotations

import heapq
import math
from typing import Callable

import numpy as np
from numpy.polynomial.legendre import leggauss

from . import _bessel_table as _table
from ._record import Record, setfield

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
_ABS_TOL = 1e-14           # an error bound this small converges near 0
_MAX_SUBDIVISIONS = 2000   # panel bisections before ConvergenceError


class QuadratureSpec(Record):
    def __init__(self, rel_tol: float = 1e-10):
        if not 0 < rel_tol < math.inf:
            raise ValueError("rel_tol must be finite and > 0")
        setfield(self, "rel_tol", rel_tol)


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


def _rows(text: str) -> np.ndarray:
    """The table's numbers, read with float() so that each is exact."""
    return np.array([float(v) for v in text.split()])


_SMALL_X = 1e-9   # below it K0 = ln 2 - gamma - ln x and K1 = 1/x to 1e-17
_LN2_MINUS_EULER = 0.11593151565841245
# x in [1e-9, 700] lies in interval int(4 ln x + 83) of the table; numpy
# scalars, because a Python float is converted again on every call
_PER_WIDTH = np.float64(1.0 / _table.WIDTH)
_SHIFT = np.float64(-_table.T_LO / _table.WIDTH)
_INVERSE_CENTERS = _rows(_table.INVERSE_CENTERS)
# per order, coefficient k of interval i at [k, i]
_COEFFS = tuple(
    np.ascontiguousarray(_rows(text).reshape(_table.COUNT, -1).T)
    for text in (_table.K0, _table.K1))


def _tabulated(coeffs: np.ndarray, xs: np.ndarray) -> np.ndarray:
    """K_nu at xs in [1e-9, 700] from the table: the interval's polynomial
    in s = ln(x / x_i), by Horner, over e^x.  s comes from x, not from the
    rounded ln x that picks the interval, so ln x's rounding costs nothing."""
    i = (np.log(xs) * _PER_WIDTH + _SHIFT).astype(np.intp)
    s = np.log(xs * _INVERSE_CENTERS.take(i))
    c = coeffs.take(i, axis=1)
    acc = c[-1]
    for row in c[-2::-1]:
        acc *= s
        acc += row
    return acc / np.exp(xs)


def _bessel(order: int, x):
    """K0 (order 0) or K1 (order 1) of a scalar or an array x > 0, with 0.0
    (underflow) past 700.  The domain and the range of the table are
    checked once, on the extremes of x, so that a small array inside the
    table, as the kernel's quadrature panels are, runs no masks."""
    xs = np.asarray(x, dtype=float, order="C")
    lo = np.minimum.reduce(xs, axis=None, initial=math.inf)
    hi = np.maximum.reduce(xs, axis=None, initial=-math.inf)
    if not lo > 0.0:
        raise ValueError(f"bessel_k{order} requires x > 0, got {x}")
    if _SMALL_X <= lo and hi <= _UNDERFLOW_X:
        values = _tabulated(_COEFFS[order], xs)
    else:
        values = np.zeros(xs.shape)
        inside = (xs >= _SMALL_X) & (xs <= _UNDERFLOW_X)
        values[inside] = _tabulated(_COEFFS[order], xs[inside])
        small = xs < _SMALL_X
        if order == 0:
            values[small] = _LN2_MINUS_EULER - np.log(xs[small])
        else:
            with np.errstate(over="ignore"):  # K1 is inf at subnormal x
                values[small] = 1.0 / xs[small]
    return float(values) if values.ndim == 0 else values


def bessel_k0(x):
    """Modified Bessel function K0(x) for x > 0, a scalar or an array.

    Relative error <= 1e-15 from the smallest normal float to 700; returns
    0.0 (underflow) for x > 700.  x <= 0 is a domain error: K0 diverges
    logarithmically at 0.
    """
    return _bessel(0, x)


def bessel_k1(x):
    """Modified Bessel function K1(x) = -K0'(x) for x > 0, as bessel_k0."""
    return _bessel(1, x)


# Gauss-Legendre node/weight pairs on [-1, 1].  The order-21 rule is the
# estimate, the order-10 rule the comparison; neither touches an endpoint,
# so integrable endpoint singularities are admissible.  A panel's 31 nodes
# sit together in one integrand call, the order-21 ones first.  The weights
# are complex so that no dot product with the complex values casts them
# again: the sums are the same, and a panel costs less.
_GL_HI_X, _GL_HI_W = leggauss(21)
_GL_LO_X, _GL_LO_W = leggauss(10)
_GL_X = np.concatenate([_GL_HI_X, _GL_LO_X])
_GL_HI_W, _GL_LO_W = _GL_HI_W.astype(complex), _GL_LO_W.astype(complex)


def _eval_panels(f: Callable[[np.ndarray], np.ndarray],
                 bounds: list[tuple[float, float]]
                 ) -> list[tuple[complex, float]]:
    """(estimate, error) of each panel [a, b] in bounds, from one integrand
    call on all their nodes, so that the two halves of a split panel cost
    one call; each panel's sums are scaled in Python complex."""
    halves = [0.5 * (b - a) for a, b in bounds]
    nodes = np.multiply.outer(halves, _GL_X)
    nodes += np.array([[0.5 * (a + b)] for a, b in bounds])
    values = np.empty(nodes.shape, dtype=complex)
    values.reshape(-1)[:] = f(nodes.reshape(-1))  # a constant broadcasts
    his = (values[:, :21] @ _GL_HI_W).tolist()
    los = (values[:, 21:] @ _GL_LO_W).tolist()
    return [(hi * half, abs(hi * half - lo * half))
            for hi, lo, half in zip(his, los, halves)]


def _adaptive(f: Callable[[np.ndarray], np.ndarray], a: float, b: float,
              spec: QuadratureSpec) -> complex:
    [(total, total_err)] = _eval_panels(f, [(a, b)])
    # heap of (-error, insertion counter, a, b, value, error); the counter
    # makes tie-breaking, and therefore the refinement order, deterministic
    counter = 0
    heap = [(-total_err, counter, a, b, total, total_err)]
    for _ in range(_MAX_SUBDIVISIONS):
        if total_err <= max(_ABS_TOL, spec.rel_tol * abs(total)):
            return total
        _, _, pa, pb, pval, perr = heapq.heappop(heap)
        mid = 0.5 * (pa + pb)
        if mid <= pa or mid >= pb:
            # interval at floating-point resolution; keep its estimate
            heapq.heappush(heap, (0.0, counter + 1, pa, pb, pval, 0.0))
            counter += 1
            total_err -= perr  # remove its error from the budget
            continue
        (lval, lerr), (rval, rerr) = _eval_panels(f, [(pa, mid), (mid, pb)])
        total += lval + rval - pval
        total_err += lerr + rerr - perr
        counter += 1
        heapq.heappush(heap, (-lerr, counter, pa, mid, lval, lerr))
        counter += 1
        heapq.heappush(heap, (-rerr, counter, mid, pb, rval, rerr))
    if total_err <= max(_ABS_TOL, spec.rel_tol * abs(total)):
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

    g must not depend on theta: it is called with a (31,) or (62,) array of
    radii and theta = 0.0, and the result is 2 pi times its radial
    integral.  The Jacobian r tames integrable singularities of g at r = 0.
    """
    if not r_max > 0:
        raise ValueError("r_max must be positive")
    return 2.0 * math.pi * integrate_1d(lambda r: g(r, 0.0) * r, 0.0, r_max,
                                        spec)
