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

`approx_trace_integral` and `boundary_operator` realize the 1D trace
approximations used on surface profiles sigma(chi, eta) = e^{i chi w} g(eta):
the chi-derivatives act on the carrier as multiplication by i*w, so only the
depth profile g is handled numerically.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np
from numpy.polynomial.legendre import leggauss

from .specfun import (DEFAULT_QUAD_SPEC, QuadratureSpec, bessel_k0, bessel_k1,
                      integrate_1d)

__all__ = [
    "ScalarField2D",
    "SurfaceTrace",
    "kernel_weight",
    "convolve_halfplane",
    "apply_helmholtz",
    "gaussian_field",
    "roundtrip_error",
    "approx_trace_integral",
    "boundary_operator",
    "field_to_csv",
]

TRUNCATION_RADII = 12.0   # kernel cut at 12 a, where K0 < 2e-6 of K0(1)
_MAX_STENCIL_SIDE = 2401  # cells per stencil side: spacings down to a/100
_GAUSS_EDGE_X, _GAUSS_EDGE_W = leggauss(8)


@dataclass(frozen=True)
class ScalarField2D:
    """Complex samples on a uniform half-plane grid.

    values has shape (nz, nx) (row-major over z then x); node (ix, iz) sits
    at (x0 + ix*dx, z0 + iz*dz).  z0 is 0 for half-space fields and becomes
    positive for interior sub-grids produced by apply_helmholtz.
    """

    nx: int
    nz: int
    dx: float
    dz: float
    x0: float
    values: np.ndarray
    z0: float = 0.0
    warnings: tuple[str, ...] = field(default=())

    def __post_init__(self):
        if self.nx < 4 or self.nz < 4:
            raise ValueError("grid must be at least 4 x 4")
        for name, value in (("dx", self.dx), ("dz", self.dz)):
            if not 0 < value < math.inf:
                raise ValueError(f"grid spacing {name} must be positive and "
                                 f"finite, got {value!r}")
        for name, value in (("x0", self.x0), ("z0", self.z0)):
            if not math.isfinite(value):
                raise ValueError(f"grid origin {name} must be finite, got "
                                 f"{value!r}")
        vals = np.asarray(self.values, dtype=complex)
        if vals.shape != (self.nz, self.nx):
            raise ValueError(f"values must have shape (nz, nx) = {(self.nz, self.nx)}")
        if not np.all(np.isfinite(vals.real)) or not np.all(np.isfinite(vals.imag)):
            raise ValueError("field values must all be finite")
        object.__setattr__(self, "values", vals)

    @property
    def xs(self) -> np.ndarray:
        return self.x0 + self.dx * np.arange(self.nx)

    @property
    def zs(self) -> np.ndarray:
        return self.z0 + self.dz * np.arange(self.nz)


@dataclass(frozen=True)
class SurfaceTrace:
    """Depth profile g(eta) = amplitude e^{-decay eta} of a surface quantity
    e^{i chi w} g(eta); Re decay >= 0 keeps g bounded as eta -> inf."""

    decay: complex
    chi_wavenumber: float = 1.0
    amplitude: complex = 1.0 + 0.0j

    def __post_init__(self):
        if not complex(self.decay).real >= 0.0:
            raise ValueError(f"decay {self.decay!r} has a negative real part")

    @classmethod
    def constant(cls, value: complex = 1.0 + 0.0j,
                 chi_wavenumber: float = 1.0) -> "SurfaceTrace":
        """Depth-independent trace (decay 0)."""
        return cls(0.0, chi_wavenumber, value)

    def eval(self, eta):
        """g at a depth or an array of depths."""
        return self.amplitude * np.exp(-self.decay * eta)

    def surface_values(self) -> tuple[complex, complex]:
        """(g(0), g'(0)) = (amplitude, -decay * amplitude)."""
        return complex(self.amplitude), complex(-self.decay * self.amplitude)


def _check_length(a_nl: float, allow_zero: bool = False) -> None:
    """a_nl must be finite and positive, or zero where that is the local
    limit; an infinite a_nl would reach K0 as r/a = 0 or overflow."""
    above_zero = a_nl >= 0 if allow_zero else a_nl > 0
    if not (above_zero and a_nl < math.inf):
        bound = "non-negative" if allow_zero else "positive"
        raise ValueError(f"a_nl must be finite and {bound}, got {a_nl!r}")


def kernel_weight(r, a_nl: float):
    """K0(r/a) / (2 pi a^2) at r > 0, a scalar or an array; singular as r -> 0."""
    _check_length(a_nl)
    if not (np.asarray(r) > 0).all():
        raise ValueError("kernel_weight is singular at r = 0; integrate over "
                         "the cell instead of evaluating at the origin")
    return bessel_k0(r / a_nl) / (2.0 * math.pi * a_nl * a_nl)


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


def _kernel_stencil(dx: float, dz: float, a: float) -> np.ndarray:
    """Cell-integrated kernel weights on offsets within the truncation disk.

    Entry [j + mz, i + mx] is the kernel mass of the cell centered at
    (i*dx, j*dz), from the fluxes through its four edges (module doc).
    Only the quadrant i, j >= 0 inside the disk is integrated, each edge
    once for the two cells that share it; the kernel is even in x and in
    z, so the other three quadrants are its mirror images and the stencil
    is exactly symmetric.
    """
    r_cut = TRUNCATION_RADII * a
    mx = max(1, int(math.ceil(r_cut / dx)))
    mz = max(1, int(math.ceil(r_cut / dz)))
    if 2 * max(mx, mz) + 1 > _MAX_STENCIL_SIDE:
        raise ValueError(f"spacing too fine for a = {a!r}: the kernel stencil "
                         f"would exceed {_MAX_STENCIL_SIDE} cells per side")
    ii, jj = np.meshgrid(np.arange(_reach(dx, r_cut) + 1) * dx,
                         np.arange(_reach(dz, r_cut) + 1) * dz)
    inside = np.hypot(ii, jj) <= r_cut  # the truncation disk on cell centers
    # kept cells' left and lower neighbours are kept, so every edge is a
    # right or top edge; column 0's left edge and row 0's bottom mirror them
    right, top = np.zeros(inside.shape), np.zeros(inside.shape)
    right[inside] = _edge_flux(ii[inside] + 0.5 * dx, jj[inside], dz, a)
    top[inside] = _edge_flux(jj[inside] + 0.5 * dz, ii[inside], dx, a)
    left = np.concatenate([-right[:, :1], right[:, :-1]], axis=1)
    bottom = np.concatenate([-top[:1], top[:-1]], axis=0)
    net = (right - left) + (top - bottom)  # flux leaving each cell
    quad = np.where(inside, -net / (2.0 * math.pi), 0.0)
    quad[0, 0] += 1.0
    half = np.concatenate([quad[:, :0:-1], quad], axis=1)
    return np.concatenate([half[:0:-1], half], axis=0)


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
    return replace(f, values=out, warnings=warnings)


def apply_helmholtz(f: ScalarField2D, a_nl: float) -> ScalarField2D:
    """(1 - a^2 laplacian) f with the 5-point stencil, on the interior sub-grid."""
    _check_length(a_nl, allow_zero=True)
    if f.nx < 6 or f.nz < 6:
        raise ValueError("grid too small for an interior Laplacian stencil")
    v = f.values
    lap = ((v[1:-1, 2:] - 2.0 * v[1:-1, 1:-1] + v[1:-1, :-2]) / f.dx ** 2
           + (v[2:, 1:-1] - 2.0 * v[1:-1, 1:-1] + v[:-2, 1:-1]) / f.dz ** 2)
    out = v[1:-1, 1:-1] - (a_nl * a_nl) * lap
    return ScalarField2D(
        nx=f.nx - 2, nz=f.nz - 2, dx=f.dx, dz=f.dz,
        x0=f.x0 + f.dx, z0=f.z0 + f.dz,
        values=out, warnings=f.warnings,
    )


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


def approx_trace_integral(trace: SurfaceTrace, eps: float, eta: float,
                          spec: QuadratureSpec = DEFAULT_QUAD_SPEC) -> complex:
    """Depth-smoothed trace at eta:

        (1/2eps) int_0^inf [1 - (eps^2/2)(1 + |eta'-eta|/eps) w^2]
                           g(eta') exp(-|eta'-eta|/eps) deta'

    i.e. the 1D non-local trace operator with the chi-derivatives applied
    analytically to the e^{i chi w} carrier (a factor -w^2).
    """
    if not eps > 0:
        raise ValueError("eps must be positive")
    if not math.isfinite(eps * eps):
        raise ValueError(f"eps = {eps!r} is too large: eps^2 overflows")
    if eta < 0:
        raise ValueError("eta must be >= 0")
    w2 = trace.chi_wavenumber * trace.chi_wavenumber

    def integrand(etap: np.ndarray) -> np.ndarray:
        dist = np.abs(etap - eta)
        bracket = 1.0 - 0.5 * eps * eps * (1.0 + dist / eps) * w2
        return bracket * trace.eval(etap) * np.exp(-dist / eps)

    # Off its peak the integrand falls like e^{-rate |eta' - peak|}; a peak
    # between the Gauss nodes would pass as converged, so each piece is cut
    # 40/rate from its peak if that lies inside ((eta, inf) maps to length 1)
    decay, slope = complex(trace.decay).real, 1.0 / eps
    points = [eta, math.inf]
    if decay + slope > 40.0:
        points.insert(1, eta + 40.0 / (decay + slope))
    if eta > 0.0:  # split at the kink of |eta' - eta|
        rate = abs(decay - slope)
        if rate * eta > 40.0:
            points.insert(0, 40.0 / rate if decay > slope else eta - 40.0 / rate)
        points.insert(0, 0.0)
    total = integrate_1d(integrand, points[0], points[1], spec)
    for lo, hi in zip(points[1:], points[2:]):
        total += integrate_1d(integrand, lo, hi, spec)
    return total / (2.0 * eps)


def boundary_operator(trace: SurfaceTrace, eps: float) -> complex:
    """[1 - eps d_eta - (eps^3/2) d_chi^2 d_eta] applied to the trace at 0.

    d_chi^2 acts on the carrier as -w^2, so the operator evaluates to
    g(0) - eps g'(0) + (eps^3/2) w^2 g'(0).
    """
    g0, g1 = trace.surface_values()
    w2 = trace.chi_wavenumber * trace.chi_wavenumber
    return g0 - eps * g1 + 0.5 * eps ** 3 * w2 * g1


def field_to_csv(f: ScalarField2D) -> str:
    """Serialize to `x,z,re,im` rows, z-major, shortest round-trip floats."""
    lines = ["x,z,re,im"]
    for iz in range(f.nz):
        z = float(f.z0 + iz * f.dz)
        for ix in range(f.nx):
            x = float(f.x0 + ix * f.dx)
            v = f.values[iz, ix]
            lines.append(f"{x!r},{z!r},{float(v.real)!r},{float(v.imag)!r}")
    return "\n".join(lines) + "\n"
