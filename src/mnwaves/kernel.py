"""The 2D non-local kernel in integral and differential form.

The kernel weight is K0(r/a) / (2 pi a^2), normalized so that its integral
over the plane is 1; it is the free-space Green's function of the modified
Helmholtz operator 1 - a^2 laplacian.  `convolve_halfplane` applies the
integral model to a sampled field on the half-plane z >= 0 (the region
z' < 0 contributes nothing), `apply_helmholtz` applies the differential
model, and the two are mutually inverse away from boundaries.  Off the
origin (1 - a^2 laplacian) K = 0 and grad K = -K1(r/a) r_hat / (2 pi a^3),
so by the divergence theorem a grid cell's mass is [it holds the origin]
- (1/2 pi) times the flux of u K1(u) d theta through its edges, theta the
angle seen from the origin.  u K1(u) lies in (0, 1) and is smooth in theta,
so one fixed Gauss rule needs no singularity subtraction, near 0 or not.
The stencil depends only on (dx, dz, a), so the last 8 are memoized on
those exact floats and handed out read-only, one array to every caller.
"""

from __future__ import annotations

import math
import sys
from functools import lru_cache

import numpy as np
from numpy.polynomial.legendre import leggauss

from ._record import Record, setfield
from .specfun import bessel_k0, bessel_k1

__all__ = [
    "ScalarField2D",
    "kernel_weight",
    "convolve_halfplane",
    "apply_helmholtz",
    "gaussian_field",
    "roundtrip_error",
    "field_to_csv",
]

TRUNCATION_RADII = 12.0   # kernel cut at 12 a, where K0 < 2e-6 of K0(1)
_MAX_STENCIL_SIDE = 2401  # cells per stencil side: spacings down to a/100
_GAUSS_EDGE_X, _GAUSS_EDGE_W = leggauss(8)


class ScalarField2D(Record):
    """Complex samples on a uniform half-plane grid.

    values has shape (nz, nx) (row-major over z then x); node (ix, iz) sits
    at (x0 + ix*dx, z0 + iz*dz).  z0 is 0 for half-space fields and becomes
    positive for interior sub-grids produced by apply_helmholtz.
    """

    def __init__(self, nx: int, nz: int, dx: float, dz: float, x0: float,
                 values: np.ndarray, z0: float = 0.0,
                 warnings: tuple[str, ...] = ()):
        if nx < 4 or nz < 4:
            raise ValueError("grid must be at least 4 x 4")
        for name, value in (("dx", dx), ("dz", dz)):
            if not 0 < value < math.inf:
                raise ValueError(f"grid spacing {name} must be positive and "
                                 f"finite, got {value!r}")
        for name, value in (("x0", x0), ("z0", z0)):
            if not math.isfinite(value):
                raise ValueError(f"grid origin {name} must be finite, got "
                                 f"{value!r}")
        values = np.asarray(values, dtype=complex)
        if values.shape != (nz, nx):
            raise ValueError(f"values must have shape (nz, nx) = {(nz, nx)}")
        if not np.all(np.isfinite(values.real)) or not np.all(np.isfinite(values.imag)):
            raise ValueError("field values must all be finite")
        setfield(self, "nx", nx)
        setfield(self, "nz", nz)
        setfield(self, "dx", dx)
        setfield(self, "dz", dz)
        setfield(self, "x0", x0)
        setfield(self, "values", values)
        setfield(self, "z0", z0)
        setfield(self, "warnings", warnings)

    def __eq__(self, other):
        # values as one array, not numpy's elementwise ==; still unhashable
        if other.__class__ is not self.__class__:
            return NotImplemented
        return all(np.array_equal(u, w) if name == "values" else u == w
                   for name, u, w in zip(self._fields, self._values(),
                                         other._values()))

    @property
    def xs(self) -> np.ndarray:
        return self.x0 + self.dx * np.arange(self.nx)

    @property
    def zs(self) -> np.ndarray:
        return self.z0 + self.dz * np.arange(self.nz)


def _check_length(a_nl: float, allow_zero: bool = False) -> None:
    """a_nl must be finite and positive, or zero where that is the local
    limit; an infinite a_nl would reach K0 as r/a = 0 or overflow."""
    above_zero = a_nl >= 0 if allow_zero else a_nl > 0
    if not (above_zero and a_nl < math.inf):
        bound = "non-negative" if allow_zero else "positive"
        raise ValueError(f"a_nl must be finite and {bound}, got {a_nl!r}")


def kernel_weight(r, a_nl: float):
    """K0(r/a) / (2 pi a^2) at r > 0, a scalar or an array; singular as r -> 0,
    and a ValueError where 2 pi a^2 or its inverse is not a normal float or
    a weight overflows."""
    _check_length(a_nl)
    area = 2.0 * math.pi * a_nl * a_nl
    if not (sys.float_info.min <= area and sys.float_info.min <= 1.0 / area):
        raise ValueError(f"a_nl = {a_nl!r} is out of range: 2 pi a_nl^2 or "
                         "its inverse is not a normal float")
    # bessel_k0 checks r/a > 0 (so r > 0) in the same pass as its table range
    try:
        k0 = bessel_k0(r / a_nl)
    except ValueError:
        raise ValueError("kernel_weight is singular at r = 0; integrate "
                         "over the cell instead of evaluating at the "
                         "origin") from None
    # K0 < 745 at every positive double: only below a ~ 8e-154 can w overflow
    if (area * sys.float_info.max < 745.0
            and float(np.max(k0)) / area == math.inf):
        raise ValueError(f"a_nl = {a_nl!r} is out of range: a weight overflows")
    return k0 / area


def _edge_flux(dist, along, width: float, a: float):
    """int u K1(u) dtheta over edges of length width centered at along on
    lines at distance dist from the origin, u = dist / (a cos theta); an
    edge centered on the perpendicular's foot (along = 0) is two halves."""
    lo = np.arctan2(np.maximum(along - 0.5 * width, 0.0), dist)
    half = 0.5 * (np.arctan2(along + 0.5 * width, dist) - lo)
    total = 0.0
    for node, weight in zip(_GAUSS_EDGE_X, _GAUSS_EDGE_W):
        u = dist / (a * np.cos(lo + half * (1.0 + node)))
        total = total + weight * (u * bessel_k1(u))
    return np.where(along == 0.0, 2.0, 1.0) * (half * total)


def _reach(h: float, r_cut: float) -> int:
    """Largest m with m*h <= r_cut: the stencil's half-width on an axis."""
    m = math.ceil(r_cut / h)
    return m - 1 if m * h > r_cut else m


@lru_cache(maxsize=8)
def _kernel_stencil(dx: float, dz: float, a: float) -> np.ndarray:
    """Cell-integrated kernel weights on offsets within the truncation disk.

    Entry [j + mz, i + mx] is the kernel mass of the cell centered at
    (i*dx, j*dz), from the fluxes through its four edges (module doc).
    Only the quadrant i, j >= 0 inside the disk is integrated, each edge
    once for the two cells that share it; the kernel is even in x and in
    z, so the other three quadrants are its mirror images and the stencil
    is exactly symmetric.  On a square grid the top edge of cell (i, j) is
    the right edge of cell (j, i), so its fluxes are a transpose.  The
    result is memoized and shared, hence read-only.
    """
    r_cut = TRUNCATION_RADII * a
    mx, mz = _reach(dx, r_cut), _reach(dz, r_cut)
    if 2 * max(mx, mz) + 1 > _MAX_STENCIL_SIDE:
        raise ValueError(f"spacing too fine for a = {a!r}: the kernel stencil "
                         f"would exceed {_MAX_STENCIL_SIDE} cells per side")
    ii, jj = np.meshgrid(np.arange(mx + 1) * dx, np.arange(mz + 1) * dz)
    inside = np.hypot(ii, jj) <= r_cut  # the truncation disk on cell centers
    # kept cells' left and lower neighbours are kept, so every edge is a
    # right or top edge; column 0's left edge and row 0's bottom mirror them
    right = np.zeros(inside.shape)
    right[inside] = _edge_flux(ii[inside] + 0.5 * dx, jj[inside], dz, a)
    if dx == dz:
        top = right.T
    else:
        top = np.zeros(inside.shape)
        top[inside] = _edge_flux(jj[inside] + 0.5 * dz, ii[inside], dx, a)
    left = np.concatenate([-right[:, :1], right[:, :-1]], axis=1)
    bottom = np.concatenate([-top[:1], top[:-1]], axis=0)
    net = (right - left) + (top - bottom)  # flux leaving each cell
    quad = np.where(inside, -net / (2.0 * math.pi), 0.0)
    quad[0, 0] += 1.0
    half = np.concatenate([quad[:, :0:-1], quad], axis=1)
    stencil = np.concatenate([half[:0:-1], half], axis=0)
    stencil.setflags(write=False)
    return stencil


def _fft_length(n: int) -> int:
    """Smallest 2^i 3^j 5^k >= n, a length the FFT factors into small steps."""
    best = 1 << (n - 1).bit_length()
    p5 = 1
    while p5 < best:
        p35 = p5
        while p35 < best:
            best = min(best, p35 << (-(-n // p35) - 1).bit_length())
            p35 *= 3
        p5 *= 5
    return best


def convolve_halfplane(f: ScalarField2D, a_nl: float) -> ScalarField2D:
    """Non-local image of f: discrete convolution with the kernel, truncated
    at 12 a, with the region z' < 0 excluded (half-space domain).

    f must decay toward the grid edges (boundary ring below 1e-6 of the
    peak); when the truncation disk cannot fit inside the grid an edge-effect
    warning is attached to the output metadata.  The cell weights come from
    fixed-order rules, not from an adaptive quadrature.
    """
    _check_length(a_nl)
    vals = f.values
    peak = float(np.max(np.abs(vals)))
    if peak > 0.0:
        ring = np.concatenate([vals[0, :], vals[-1, :], vals[:, 0], vals[:, -1]])
        if float(np.max(np.abs(ring))) >= 1e-6 * peak:
            raise ValueError("field does not decay at the grid edges; enlarge "
                             "the grid or recenter the support")
    stencil = _kernel_stencil(f.dx, f.dz, a_nl)
    mz = (stencil.shape[0] - 1) // 2
    mx = (stencil.shape[1] - 1) // 2
    # the stencil is symmetric, so correlation is convolution.  Centered at
    # index 0 of n + m or more cells per axis, the circular convolution never
    # wraps into the kept [0, n), and the zeros past f cut z' < 0 off.  Each
    # axis is padded up to a 5-smooth length: n + m is often prime (97 for
    # n = 73 at h = a/2), and a prime-length FFT is several times slower
    shape = (_fft_length(max(f.nz + mz, 2 * mz + 1)),
             _fft_length(max(f.nx + mx, 2 * mx + 1)))
    taps = np.zeros(shape)
    taps[:2 * mz + 1, :2 * mx + 1] = stencil
    spectrum = np.fft.rfft2(np.roll(taps, (-mz, -mx), axis=(0, 1)))
    re, im = (np.fft.irfft2(np.fft.rfft2(part, shape) * spectrum,
                            shape)[:f.nz, :f.nx]
              for part in (vals.real, vals.imag))
    out = re + 1j * im
    warnings = f.warnings
    r_cut = TRUNCATION_RADII * a_nl
    if 2.0 * r_cut > min((f.nx - 1) * f.dx, (f.nz - 1) * f.dz):
        warnings = warnings + (
            f"edge effects: truncation radius {r_cut!r} exceeds half the "
            f"grid extent",
        )
    return f.replace(values=out, warnings=warnings)


def apply_helmholtz(f: ScalarField2D, a_nl: float) -> ScalarField2D:
    """(1 - a^2 laplacian) f with the 5-point stencil, on the interior sub-grid."""
    _check_length(a_nl, allow_zero=True)
    if f.nx < 6 or f.nz < 6:
        raise ValueError("grid too small for an interior Laplacian stencil")
    v = f.values
    lap = ((v[1:-1, 2:] - 2.0 * v[1:-1, 1:-1] + v[1:-1, :-2]) / f.dx ** 2
           + (v[2:, 1:-1] - 2.0 * v[1:-1, 1:-1] + v[:-2, 1:-1]) / f.dz ** 2)
    out = v[1:-1, 1:-1] - (a_nl * a_nl) * lap
    return f.replace(nx=f.nx - 2, nz=f.nz - 2, x0=f.x0 + f.dx,
                     z0=f.z0 + f.dz, values=out)


def gaussian_field(n: int, h: float, width: float) -> ScalarField2D:
    """Gaussian bump exp(-r^2 / width^2) centered on an n x n grid of spacing h."""
    xs = h * np.arange(n)
    grid_x, grid_z = np.meshgrid(xs, xs)
    center = xs[n // 2]
    values = np.exp(-(((grid_x - center) ** 2 + (grid_z - center) ** 2)
                      / width ** 2)).astype(complex)
    return ScalarField2D(nx=n, nz=n, dx=h, dz=h, x0=0.0, values=values)


def roundtrip_error(f: ScalarField2D,
                    a_nl: float) -> tuple[ScalarField2D, int, float]:
    """(convolved f, margin, error): the error is max |apply_helmholtz(
    convolved f) - f| / max |f| over the nodes at least margin = m + 1 from
    every edge, m the stencil's half-width: the convolution at a checked
    node's Laplacian neighbours then reaches no node past the grid."""
    if f.dx != f.dz:
        raise ValueError("the roundtrip check needs dx == dz")
    convolved = convolve_halfplane(f, a_nl)
    smoothed = apply_helmholtz(convolved, a_nl)
    margin = _reach(f.dx, TRUNCATION_RADII * a_nl) + 1
    # apply_helmholtz drops one node on each side, shifting indices by one
    inner = smoothed.values[margin - 1:f.nz - 1 - margin,
                            margin - 1:f.nx - 1 - margin]
    err = np.max(np.abs(inner - f.values[margin:f.nz - margin,
                                         margin:f.nx - margin]))
    return convolved, margin, float(err / np.max(np.abs(f.values)))


def field_to_csv(f: ScalarField2D) -> str:
    """Serialize to `x,z,re,im` rows, z-major, shortest round-trip floats."""
    rows = (f"{float(x)!r},{float(z)!r},{float(v.real)!r},{float(v.imag)!r}"
            for z, row in zip(f.zs, f.values) for x, v in zip(f.xs, row))
    return "\n".join(["x,z,re,im", *rows]) + "\n"
