"""The 2D non-local kernel in integral and differential form.

The kernel weight is K0(r/a) / (2 pi a^2), normalized so that its integral
over the plane is 1; it is the free-space Green's function of the modified
Helmholtz operator 1 - a^2 laplacian.  `convolve_halfplane` applies the
integral model to a sampled field on the half-plane z >= 0 (the region
z' < 0 contributes nothing), `apply_helmholtz` applies the differential
model, and the two are mutually inverse away from boundaries.

`approx_trace_integral` and `boundary_operator` realize the 1D trace
approximations used on surface profiles sigma(chi, eta) = e^{i chi w} g(eta):
the chi-derivatives act on the carrier as multiplication by i*w, so only the
depth profile g is handled numerically.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Callable

import numpy as np
from numpy.polynomial.legendre import leggauss

from .specfun import (
    DEFAULT_QUAD_SPEC,
    QuadratureSpec,
    bessel_k0,
    bessel_k1,
    integrate_1d,
)

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
    "field_from_csv",
]

TRUNCATION_RADII = 12.0   # kernel cut at 12 a, where K0 < 2e-6 of K0(1)
_GAUSS_CELL_X, _GAUSS_CELL_W = leggauss(6)
_GAUSS_ANGLE_X, _GAUSS_ANGLE_W = leggauss(32)


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
        if not (self.dx > 0 and self.dz > 0):
            raise ValueError("grid spacings must be positive")
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
    """Depth profile g(eta) of a surface quantity e^{i chi w} g(eta).

    eval must decay or stay bounded as eta -> inf.  eta_derivative, when
    present, is the analytic g'(eta); operators that differentiate the trace
    require it.
    """

    eval: Callable[[float], complex]
    chi_wavenumber: float
    eta_derivative: Callable[[float], complex] | None = None

    @classmethod
    def exponential(cls, decay: complex, chi_wavenumber: float = 1.0,
                    amplitude: complex = 1.0 + 0.0j) -> "SurfaceTrace":
        """Trace amplitude * e^{-decay * eta} with its analytic derivative."""
        return cls(
            eval=lambda eta: amplitude * np.exp(-decay * eta),
            chi_wavenumber=chi_wavenumber,
            eta_derivative=lambda eta: -decay * amplitude * np.exp(-decay * eta),
        )

    @classmethod
    def constant(cls, value: complex = 1.0 + 0.0j,
                 chi_wavenumber: float = 1.0) -> "SurfaceTrace":
        """Depth-independent trace (zero derivative)."""
        return cls(
            eval=lambda eta: complex(value),
            chi_wavenumber=chi_wavenumber,
            eta_derivative=lambda eta: 0j,
        )


def kernel_weight(r: float, a_nl: float) -> float:
    """K0(r/a) / (2 pi a^2); singular (integrably) as r -> 0."""
    if not a_nl > 0:
        raise ValueError("a_nl must be positive")
    if not r > 0:
        raise ValueError("kernel_weight is singular at r = 0; integrate over "
                         "the cell instead of evaluating at the origin")
    return bessel_k0(r / a_nl) / (2.0 * math.pi * a_nl * a_nl)


def _disk_mass(u: float) -> float:
    """Integral of K0 * r over [0, u*a], divided by a^2: 1 - u K1(u)."""
    return 1.0 - u * bessel_k1(u)


def _cell_self_weight(dx: float, dz: float, a: float) -> float:
    """Exact kernel mass of the rectangular cell containing the singularity.

    In polar form the radial integral closes to 1 - u K1(u); the remaining
    angular integral over the rectangle boundary rho(theta) is smooth and is
    done with a fixed Gauss rule per smooth piece.
    """
    def quadrant(w: float, h: float) -> float:
        theta_split = math.atan2(h, w)
        total = 0.0
        for lo, hi, rho in (
            (0.0, theta_split, lambda t: 0.5 * w / math.cos(t)),
            (theta_split, 0.5 * math.pi, lambda t: 0.5 * h / math.sin(t)),
        ):
            halfspan = 0.5 * (hi - lo)
            mid = 0.5 * (hi + lo)
            if halfspan <= 0.0:
                continue
            acc = 0.0
            for x, wgt in zip(_GAUSS_ANGLE_X, _GAUSS_ANGLE_W):
                theta = mid + halfspan * x
                acc += wgt * _disk_mass(rho(theta) / a)
            total += halfspan * acc
        return total

    # four symmetric quadrants make up the full rectangle
    return 4.0 * quadrant(dx, dz) / (2.0 * math.pi)


def _kernel_stencil(dx: float, dz: float, a: float) -> np.ndarray:
    """Cell-integrated kernel weights on offsets within the truncation disk.

    Entry [j + mz, i + mx] is the kernel mass of the cell centered at
    (i*dx, j*dz).  Off-center cells use a 6x6 Gauss product rule; the center
    cell is integrated exactly in the radial direction.
    """
    r_cut = TRUNCATION_RADII * a
    mx = max(1, int(math.ceil(r_cut / dx)))
    mz = max(1, int(math.ceil(r_cut / dz)))
    ii, jj = np.meshgrid(np.arange(-mx, mx + 1) * dx,
                         np.arange(-mz, mz + 1) * dz)
    # 6x6 tensor Gauss points relative to each cell center
    gx = 0.5 * dx * _GAUSS_CELL_X
    gz = 0.5 * dz * _GAUSS_CELL_X
    wx = 0.5 * dx * _GAUSS_CELL_W
    wz = 0.5 * dz * _GAUSS_CELL_W
    weights = np.zeros_like(ii)
    from scipy.special import k0 as vk0  # vectorized over the whole stencil
    for p in range(gx.size):
        for q in range(gz.size):
            r = np.hypot(ii + gx[p], jj + gz[q])
            weights += (wx[p] * wz[q]) * vk0(r / a)
    weights /= 2.0 * math.pi * a * a
    weights[mz, mx] = _cell_self_weight(dx, dz, a)
    # enforce the truncation disk on cell centers
    weights[np.hypot(ii, jj) > r_cut] = 0.0
    return weights


def convolve_halfplane(f: ScalarField2D, a_nl: float) -> ScalarField2D:
    """Non-local image of f: discrete convolution with the kernel, truncated
    at 12 a, with the region z' < 0 excluded (half-space domain).

    f must decay toward the grid edges (boundary ring below 1e-6 of the
    peak); when the truncation disk cannot fit inside the grid an edge-effect
    warning is attached to the output metadata.  The cell weights come from
    fixed-order rules, not from an adaptive quadrature.
    """
    if not a_nl > 0:
        raise ValueError("a_nl must be positive")
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
    # zero padding implements both the half-space cut at z' < 0 and the decay
    # of f beyond the grid in x
    padded = np.zeros((f.nz + 2 * mz, f.nx + 2 * mx), dtype=complex)
    padded[mz:mz + f.nz, mx:mx + f.nx] = vals
    out = np.zeros_like(vals)
    for j in range(stencil.shape[0]):
        for i in range(stencil.shape[1]):
            w = stencil[j, i]
            if w == 0.0:
                continue
            out += w * padded[j:j + f.nz, i:i + f.nx]
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
    convolved f) - f| / max |f| over the nodes at least margin = ceil(12 a/h)
    from every edge, beyond the reach of the truncated kernel."""
    if f.dx != f.dz:
        raise ValueError("the roundtrip check needs dx == dz")
    convolved = convolve_halfplane(f, a_nl)
    smoothed = apply_helmholtz(convolved, a_nl)
    margin = int(math.ceil(TRUNCATION_RADII * a_nl / f.dx))
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
    if eta < 0:
        raise ValueError("eta must be >= 0")
    w2 = trace.chi_wavenumber * trace.chi_wavenumber

    def integrand(etap: float) -> complex:
        dist = abs(etap - eta)
        bracket = 1.0 - 0.5 * eps * eps * (1.0 + dist / eps) * w2
        return bracket * trace.eval(etap) * math.exp(-dist / eps)

    # split at the kink of |eta' - eta|
    total = integrate_1d(integrand, eta, math.inf, spec)
    if eta > 0.0:
        total += integrate_1d(integrand, 0.0, eta, spec)
    return total / (2.0 * eps)


def boundary_operator(trace: SurfaceTrace, eps: float) -> complex:
    """[1 - eps d_eta - (eps^3/2) d_chi^2 d_eta] applied to the trace at 0.

    d_chi^2 acts on the carrier as -w^2, so the operator evaluates to
    g(0) - eps g'(0) + (eps^3/2) w^2 g'(0).
    """
    if trace.eta_derivative is None:
        raise ValueError("boundary_operator needs a trace with an analytic "
                         "eta derivative")
    g0 = complex(trace.eval(0.0))
    g1 = complex(trace.eta_derivative(0.0))
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


def field_from_csv(text: str) -> ScalarField2D:
    lines = [ln for ln in text.strip().split("\n")]
    if not lines or lines[0] != "x,z,re,im":
        raise ValueError("field CSV must start with header 'x,z,re,im'")
    xs, zs, vals = [], [], []
    for ln in lines[1:]:
        sx, sz, sre, sim = ln.split(",")
        xs.append(float(sx))
        zs.append(float(sz))
        vals.append(complex(float(sre), float(sim)))
    zs_arr = np.array(zs)
    nx = int(np.argmax(zs_arr != zs_arr[0])) if np.any(zs_arr != zs_arr[0]) else len(zs)
    if nx <= 0 or len(vals) % nx != 0:
        raise ValueError("field CSV rows do not form a rectangular grid")
    nz = len(vals) // nx
    values = np.array(vals).reshape(nz, nx)
    dx = xs[1] - xs[0] if nx > 1 else 1.0
    dz = zs[nx] - zs[0] if nz > 1 else 1.0
    # every node must sit at (x0 + ix dx, z0 + iz dz), up to rounding
    off_x = np.reshape(xs, (nz, nx)) - (xs[0] + dx * np.arange(nx))
    off_z = np.reshape(zs, (nz, nx)) - (zs[0] + dz * np.arange(nz))[:, None]
    if (np.max(np.abs(off_x)) > 1e-9 * abs(dx)
            or np.max(np.abs(off_z)) > 1e-9 * abs(dz)):
        raise ValueError("field CSV grid is not uniformly spaced")
    return ScalarField2D(nx=nx, nz=nz, dx=dx, dz=dz, x0=xs[0], z0=zs[0],
                         values=values)
