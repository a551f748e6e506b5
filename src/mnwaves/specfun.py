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
array or a scalar that broadcasts; results are bitwise deterministic.  Values
that broadcast to (m, 31) are m integrands on one shared panel set, each held
to its own tolerance.  `integrate_2d_polar` computes the radial integrals of
all the angles of an angular panel as one such batch: g(r, theta) gets the
radii as an array of shape (31,) and the angles as a column of shape (m, 1),
and max_subdivisions bounds the shared radial panel set.
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
                b: float) -> tuple[complex | np.ndarray, float | np.ndarray, float]:
    """(estimate, error, heap key) of the panel [a, b].  Values of at most
    one dimension are one column, summed in Python complex and float; values
    that broadcast to (m, 31) are m columns, summed as arrays and keyed on
    their largest error."""
    half = 0.5 * (b - a)
    mid = 0.5 * (a + b)
    fx = f(mid + half * _GL_X)
    if getattr(fx, "ndim", 0) < 2:
        values = np.empty(31, dtype=complex)
        values[:] = fx  # a constant integrand broadcasts
        hi = complex(_GL_HI_W @ values[:21]) * half
        lo = complex(_GL_LO_W @ values[21:]) * half
        err = abs(hi - lo)
        return hi, err, err
    values = np.empty(np.broadcast_shapes(fx.shape, (31,)), dtype=complex)
    values[:] = fx
    hi = (values[:, :21] @ _GL_HI_W) * half
    lo = (values[:, 21:] @ _GL_LO_W) * half
    err = np.abs(hi - lo)
    return hi, err, float(err.max())


def _column_tolerance(total: np.ndarray, spec: QuadratureSpec) -> np.ndarray:
    """max(abs_tol, rel_tol |total|) per column."""
    return np.maximum(spec.abs_tol, spec.rel_tol * np.abs(total))


def _adaptive(f: Callable[[np.ndarray], np.ndarray], a: float, b: float,
              spec: QuadratureSpec) -> complex | np.ndarray:
    value, err, key = _eval_panel(f, a, b)
    # heap of (-key, insertion counter, a, b, value, error); the counter
    # makes tie-breaking, and therefore the refinement order, deterministic.
    # Columns share the panels: the panel with the largest column error is
    # split next, and the loop ends when every column meets its tolerance.
    # One column stays in Python scalars, which numpy would slow down
    columns = isinstance(value, np.ndarray)
    counter = 0
    heap = [(-key, counter, a, b, value, err)]
    total = value
    total_err = err
    for _ in range(spec.max_subdivisions):
        if ((total_err <= _column_tolerance(total, spec)).all() if columns
                else total_err <= max(spec.abs_tol, spec.rel_tol * abs(total))):
            return total
        _, _, pa, pb, pval, perr = heapq.heappop(heap)
        mid = 0.5 * (pa + pb)
        if mid <= pa or mid >= pb:
            # interval at floating-point resolution; keep its estimate
            heapq.heappush(heap, (0.0, counter + 1, pa, pb, pval, 0.0 * perr))
            counter += 1
            total_err = total_err - perr  # remove its error from the budget
            continue
        lval, lerr, lkey = _eval_panel(f, pa, mid)
        rval, rerr, rkey = _eval_panel(f, mid, pb)
        # rebinding, not +=: the first panel's arrays are also in the heap
        total = total + (lval + rval - pval)
        total_err = total_err + (lerr + rerr - perr)
        counter += 1
        heapq.heappush(heap, (-lkey, counter, pa, mid, lval, lerr))
        counter += 1
        heapq.heappush(heap, (-rkey, counter, mid, pb, rval, rerr))
    if not columns:
        if total_err <= max(spec.abs_tol, spec.rel_tol * abs(total)):
            return total
        raise ConvergenceError(total, total_err)
    tolerance = _column_tolerance(total, spec)
    if (total_err <= tolerance).all():
        return total
    # report the column that misses its tolerance by the most
    worst = int(np.argmax(total_err - tolerance))
    raise ConvergenceError(complex(total[worst]), float(total_err[worst]))


def integrate_1d(f: Callable[[np.ndarray], np.ndarray], lo: float, hi: float,
                 spec: QuadratureSpec = DEFAULT_QUAD_SPEC) -> complex | np.ndarray:
    """Adaptive integral of a complex-valued f over (lo, hi); hi may be +inf.

    An f whose values broadcast to (m, 31) is a batch of m integrands on
    one shared panel set: the result is the array of their m integrals, and
    each meets its own tolerance.  The semi-infinite case substitutes
    t = lo - ln(u), u in (0, 1], which is exact for exponentially decaying
    integrands.  Raises ConvergenceError (carrying the best estimate, of the
    worst column of a batch) when the subdivision budget runs out.
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


def integrate_2d_polar(g: Callable[[np.ndarray, np.ndarray], np.ndarray],
                       r_max: float,
                       spec: QuadratureSpec = DEFAULT_QUAD_SPEC) -> complex:
    """Integral of g(r, theta) * r over the disk of radius r_max; r_max may
    be +inf.

    Iterated adaptive rule.  Per angular panel, the radial integrals of all
    m angular nodes are one batched integral on a shared radial panel set,
    with the Jacobian r, which tames integrable singularities of g at r = 0:
    g receives the (31,) array of radii and the (m, 1) column of angles, and
    its values broadcast to (m, 31).  A g that ignores theta is integrated
    radially once per angular panel.  max_subdivisions bounds the angular
    panel set and each shared radial one; every angle's radial integral
    still meets its own tolerance.
    """
    if not r_max > 0:
        raise ValueError("r_max must be positive")

    def radial(thetas: np.ndarray) -> complex | np.ndarray:
        column = thetas[:, np.newaxis]
        return integrate_1d(lambda r: g(r, column) * r, 0.0, r_max, spec)

    return integrate_1d(radial, 0.0, 2.0 * math.pi, spec)
