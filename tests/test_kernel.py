import ast
import cmath
import itertools
import math
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import mnwaves
from conftest import fit_slope, subprocess_env
from mnwaves.kernel import (
    ScalarField2D,
    _fft_length,
    _kernel_stencil,
    apply_helmholtz,
    boundary_operator,
    convolve_halfplane,
    field_to_csv,
    gaussian_field,
    kernel_weight,
    roundtrip_error,
)
from mnwaves import kernel
from mnwaves.specfun import ConvergenceError, bessel_k0, bessel_k1
from mnwaves.wavefield import blayer_closed_form, blayer_quadrature_form

K0_AT_1 = 0.421024438240708


def direct_convolution(f: ScalarField2D, a: float) -> np.ndarray:
    """Reference for convolve_halfplane: the plain sum over the stencil taps
    that reach each output node, with nothing beyond the grid."""
    w = _kernel_stencil(f.dx, f.dz, a)
    mz, mx = w.shape[0] // 2, w.shape[1] // 2
    out = np.zeros_like(f.values)
    for iz, ix in np.ndindex(out.shape):
        z0, z1 = max(0, iz - mz), min(f.nz, iz + mz + 1)
        x0, x1 = max(0, ix - mx), min(f.nx, ix + mx + 1)
        out[iz, ix] = np.sum(w[z0 - iz + mz:z1 - iz + mz,
                               x0 - ix + mx:x1 - ix + mx]
                             * f.values[z0:z1, x0:x1])
    return out


EDGE_NODES, EDGE_WEIGHTS = np.polynomial.legendre.leggauss(8)


def segment_flux(dist, s0, s1, a: float):
    """int u K1(u) dtheta over s0 <= s <= s1 on lines at distance dist from
    the origin, theta = atan(s/dist) and u = dist/(a cos theta): an 8-point
    Gauss rule on each side of the foot of the perpendicular (s = 0)."""
    total = 0.0
    for lo, hi in ((np.maximum(s0, 0.0), np.maximum(s1, 0.0)),
                   (np.maximum(-s1, 0.0), np.maximum(-s0, 0.0))):
        start = np.arctan2(lo, dist)
        half = 0.5 * (np.arctan2(hi, dist) - start)
        piece = 0.0
        for node, weight in zip(EDGE_NODES, EDGE_WEIGHTS):
            u = dist / (a * np.cos(start + half * (1.0 + node)))
            piece = piece + weight * (u * bessel_k1(u))
        total = total + half * piece
    return total


def side_flux(x, s0, s1, a: float):
    """Flux of u K1(u) dtheta through the sides x (!= 0), s0 <= s <= s1,
    along +x: r_hat . x_hat has the sign of x."""
    return np.copysign(segment_flux(np.abs(x), s0, s1, a), x)


def outward_flux(x0, x1, z0, z1, a: float):
    """Flux out of the rectangles [x0, x1] x [z0, z1], no side on an axis:
    far side minus near side along each axis."""
    return ((side_flux(x1, z0, z1, a) - side_flux(x0, z0, z1, a))
            + (side_flux(z1, x0, x1, a) - side_flux(z0, x0, x1, a)))


def full_square_stencil(dx: float, dz: float, a: float) -> np.ndarray:
    """Reference for _kernel_stencil: every cell of the (2m+1)^2 square,
    m = ceil(12 a/h), integrated through its own four edges, with no edge
    shared and no quadrant mirrored; zeroed outside the 12 a disk, and the
    empty outer lines cut off."""
    r_cut = 12.0 * a
    mx, mz = math.ceil(r_cut / dx), math.ceil(r_cut / dz)
    x, z = np.meshgrid(np.arange(-mx, mx + 1) * dx,
                       np.arange(-mz, mz + 1) * dz)
    flux = outward_flux(x - 0.5 * dx, x + 0.5 * dx, z - 0.5 * dz, z + 0.5 * dz,
                        a)
    w = (x == 0.0) * (z == 0.0) - flux / (2.0 * math.pi)
    w[np.hypot(x, z) > r_cut] = 0.0
    # the stencil ends at the outermost rows and columns that hold a cell
    rows = np.flatnonzero(w.any(axis=1))
    cols = np.flatnonzero(w.any(axis=0))
    return w[rows[0]:rows[-1] + 1, cols[0]:cols[-1] + 1]


def accurate_cell_mass(i: int, j: int, dx: float, dz: float,
                       a: float) -> float:
    """Kernel mass of the cell centered at (i dx, j dz), i, j >= 0, to about
    1e-15: the center cell in polar form, 1 - (1/2 pi) int (u K1(u)) dtheta
    with 64 Gauss nodes per smooth piece of its boundary; any other cell by
    a 16 x 16 Gauss rule on each of 4 x 4 sub-cells of K0 itself."""
    if i == j == 0:
        nodes, weights = np.polynomial.legendre.leggauss(64)
        split = math.atan2(dz, dx)
        total = 0.0
        for lo, hi, side, trig in ((0.0, split, dx, np.cos),
                                   (split, 0.5 * math.pi, dz, np.sin)):
            half = 0.5 * (hi - lo)
            u = 0.5 * side / (a * trig(lo + half * (1.0 + nodes)))
            total += half * np.dot(weights, 1.0 - u * bessel_k1(u))
        return 4.0 * total / (2.0 * math.pi)
    nodes, weights = np.polynomial.legendre.leggauss(16)
    sub = 4
    offsets = ((np.arange(sub)[:, None] + 0.5 * (1.0 + nodes)) / sub
               - 0.5).ravel()
    w = np.tile(weights, sub) / (2 * sub)
    r = np.hypot(i * dx + dx * offsets[None, :],
                 j * dz + dz * offsets[:, None])
    return (dx * dz * float(w @ bessel_k0(r / a) @ w)
            / (2.0 * math.pi * a * a))


def is_prime(n: int) -> bool:
    return n > 1 and all(n % d for d in range(2, math.isqrt(n) + 1))


def is_5_smooth(n: int) -> bool:
    for p in (2, 3, 5):
        while n % p == 0:
            n //= p
    return n == 1


STENCIL_SPACINGS = [(0.5, 0.5), (1 / 3, 1 / 3), (0.25, 0.25), (0.3, 0.45)]


class TestKernelWeight:
    def test_value_at_r_equals_a(self):
        a = 0.03
        want = K0_AT_1 / (2.0 * math.pi * a * a)
        assert kernel_weight(a, a) == pytest.approx(want, rel=1e-12)

    def test_singular_origin_is_domain_error(self):
        with pytest.raises(ValueError):
            kernel_weight(0.0, 0.1)
        with pytest.raises(ValueError):
            kernel_weight(-1.0, 0.1)
        with pytest.raises(ValueError):
            kernel_weight(1.0, 0.0)

    def test_array_equals_scalar(self):
        a = 0.03
        rng = np.random.default_rng(20241018)
        rs = a * np.exp(rng.uniform(math.log(1e-6), math.log(800.0), 400))
        got = kernel_weight(rs, a)
        assert (got == np.array([kernel_weight(float(r), a) for r in rs])).all()

    @pytest.mark.parametrize("bad", [0.0, -1.0, math.nan])
    def test_array_domain_error(self, bad):
        with pytest.raises(ValueError, match="singular"):
            kernel_weight(np.array([0.01, bad, 0.2]), 0.1)

    @pytest.mark.parametrize("a_nl", [0.0, -0.1, math.inf, math.nan])
    def test_length_must_be_finite_and_positive(self, a_nl):
        with pytest.raises(ValueError, match="a_nl"):
            kernel_weight(1.0, a_nl)


class TestKernelStencil:
    @pytest.mark.parametrize("hx, hz", STENCIL_SPACINGS)
    def test_matches_full_square_sum(self, hx, hz):
        a = 1e-4
        got = _kernel_stencil(hx * a, hz * a, a)
        want = full_square_stencil(hx * a, hz * a, a)
        assert got.shape == want.shape
        assert np.max(np.abs(got - want)) <= 1e-15 * np.max(np.abs(want))

    @pytest.mark.parametrize("hx, hz", STENCIL_SPACINGS)
    def test_exactly_symmetric(self, hx, hz):
        w = _kernel_stencil(hx * 1e-4, hz * 1e-4, 1e-4)
        assert np.array_equal(w, w[::-1])
        assert np.array_equal(w, w[:, ::-1])

    @pytest.mark.parametrize("dx, dz, a", [
        (0.38, 0.38, 1.0), (0.28, 0.28, 1.0),  # the fresh-* benchmark classes
        (0.011, 0.017, 0.02)])
    def test_outer_rows_and_columns_hold_cells(self, dx, dz, a):
        # 12 a/h is not an integer here, so ceil(12 a/h) offsets would end
        # in a row and a column of cells outside the disk
        w = _kernel_stencil(dx, dz, a)
        assert w.shape[0] < 2 * math.ceil(12.0 * a / dz) + 1
        assert w.shape[1] < 2 * math.ceil(12.0 * a / dx) + 1
        for line in (w[0], w[-1], w[:, 0], w[:, -1]):
            assert np.any(line > 0.0)

    @pytest.mark.parametrize("hx, hz", STENCIL_SPACINGS)
    def test_integrates_one_quadrant(self, hx, hz, monkeypatch):
        # 8 angular nodes on each of a quadrant cell's right and top edges
        calls = []

        def counting_k1(x):
            calls.append(np.size(x))
            return bessel_k1(x)

        monkeypatch.setattr(kernel, "bessel_k1", counting_k1)
        w = _kernel_stencil(hx * 1e-4, hz * 1e-4, 1e-4)
        mz, mx = w.shape[0] // 2, w.shape[1] // 2
        assert 0 < sum(calls) <= 16 * (mx + 1) * (mz + 1)

    @pytest.mark.parametrize("hx, hz", STENCIL_SPACINGS)
    def test_near_cells_match_accurate_reference(self, hx, hz):
        # a 6 x 6 Gauss rule on K0 misses these cells by 1.5e-7 to 5e-6
        a = 1e-4
        w = _kernel_stencil(hx * a, hz * a, a)
        mz, mx = w.shape[0] // 2, w.shape[1] // 2
        for i, j in itertools.product(range(4), repeat=2):
            want = accurate_cell_mass(i, j, hx * a, hz * a, a)
            assert abs(w[mz + j, mx + i] - want) <= 1e-9 * want, (i, j)

    @pytest.mark.parametrize("hx, hz", STENCIL_SPACINGS)
    def test_block_sum_is_boundary_flux(self, hx, hz):
        # the fluxes through interior edges cancel, so a block of cells
        # inside the disk holds [origin] - (1/2 pi) its boundary's flux
        a = 1e-4
        dx, dz = hx * a, hz * a
        w = _kernel_stencil(dx, dz, a)
        mz, mx = w.shape[0] // 2, w.shape[1] // 2
        for i0, i1, j0, j1 in ((-3, 3, -2, 2), (2, 6, 1, 4), (-2, 2, -7, -3),
                               (-10, 4, 5, 5)):
            xs, zs = np.arange(i0, i1 + 1) * dx, np.arange(j0, j1 + 1) * dz
            flux = sum(np.sum(side_flux(hi, s - 0.5 * ds, s + 0.5 * ds, a)
                              - side_flux(lo, s - 0.5 * ds, s + 0.5 * ds, a))
                       for lo, hi, s, ds in (
                           ((i0 - 0.5) * dx, (i1 + 0.5) * dx, zs, dz),
                           ((j0 - 0.5) * dz, (j1 + 0.5) * dz, xs, dx)))
            holds_origin = i0 <= 0 <= i1 and j0 <= 0 <= j1
            block = w[mz + j0:mz + j1 + 1, mx + i0:mx + i1 + 1].sum()
            assert abs(block - (holds_origin - flux / (2.0 * math.pi))) \
                <= 1e-13, (i0, i1, j0, j1)


class TestScalarField2D:
    def test_shape_validation(self):
        with pytest.raises(ValueError):
            ScalarField2D(nx=4, nz=4, dx=0.1, dz=0.1, x0=0.0,
                          values=np.zeros((4, 5), dtype=complex))
        with pytest.raises(ValueError):
            ScalarField2D(nx=3, nz=4, dx=0.1, dz=0.1, x0=0.0,
                          values=np.zeros((4, 3), dtype=complex))

    def test_nonfinite_rejected(self):
        vals = np.zeros((4, 4), dtype=complex)
        vals[1, 1] = math.inf
        with pytest.raises(ValueError):
            ScalarField2D(nx=4, nz=4, dx=0.1, dz=0.1, x0=0.0, values=vals)

    @pytest.mark.parametrize("name, value", [
        ("dx", math.inf), ("dx", 0.0), ("dz", math.nan), ("dz", -0.1),
        ("x0", math.nan), ("x0", math.inf), ("z0", -math.inf)])
    def test_nonfinite_geometry_rejected(self, name, value):
        geometry = {"dx": 0.1, "dz": 0.1, "x0": 0.0, "z0": 0.0, name: value}
        with pytest.raises(ValueError, match=name):
            ScalarField2D(nx=4, nz=4, values=np.zeros((4, 4)), **geometry)

    def test_csv_round_trip(self):
        rng = np.random.default_rng(7)
        vals = rng.normal(size=(5, 4)) + 1j * rng.normal(size=(5, 4))
        f = ScalarField2D(nx=4, nz=5, dx=0.25, dz=0.5, x0=-1.0, z0=0.0,
                          values=vals)
        text = field_to_csv(f)
        assert text.startswith("x,z,re,im\n")
        x, z, re, im = np.loadtxt(text.splitlines(), delimiter=",",
                                  skiprows=1, unpack=True)
        assert (x == np.tile(f.xs, f.nz)).all()
        assert (z == np.repeat(f.zs, f.nx)).all()
        assert (re == vals.real.ravel()).all()
        assert (im == vals.imag.ravel()).all()


class TestConvolveHalfplane:
    def test_zero_field_maps_to_zero(self):
        f = ScalarField2D(nx=16, nz=16, dx=0.01, dz=0.01, x0=0.0,
                          values=np.zeros((16, 16), dtype=complex))
        out = convolve_halfplane(f, 0.01)
        assert np.all(out.values == 0)

    def test_gaussian_deviation_second_order_in_a(self):
        a = 0.05
        width = 0.3
        f = gaussian_field(96, a / 2.0, width)
        out = convolve_halfplane(f, a)
        margin = int(math.ceil(12.0 * a / f.dx))
        inner = slice(margin, f.nx - margin)
        dev = np.max(np.abs(out.values[inner, inner] - f.values[inner, inner]))
        # tau ~ f + a^2 lap f, so the deviation is O((a/width)^2)
        assert dev / np.max(np.abs(f.values)) < 6.0 * (a / width) ** 2

    def test_delta_cell_reproduces_kernel_profile(self):
        a = 0.05
        h = a / 2.0
        n = 64
        vals = np.zeros((n, n), dtype=complex)
        vals[n // 2, n // 2] = 1.0
        f = ScalarField2D(nx=n, nz=n, dx=h, dz=h, x0=0.0, values=vals)
        out = convolve_halfplane(f, a)
        for cells in (4, 6, 8, 12, 16):
            got = out.values[n // 2, n // 2 + cells].real / (h * h)
            want = kernel_weight(cells * h, a)
            assert got == pytest.approx(want, rel=0.02), f"at r = {cells * h / a} a"

    def test_random_field_matches_direct_sum(self):
        rng = np.random.default_rng(11)
        vals = rng.normal(size=(40, 31)) + 1j * rng.normal(size=(40, 31))
        vals[0, :] = vals[-1, :] = vals[:, 0] = vals[:, -1] = 0.0
        f = ScalarField2D(nx=31, nz=40, dx=0.011, dz=0.017, x0=0.0,
                          values=vals)
        out = convolve_halfplane(f, 0.02).values
        want = direct_convolution(f, 0.02)
        assert np.max(np.abs(out - want)) <= 1e-13 * np.max(np.abs(want))

    @pytest.mark.parametrize("nx, nz, dx, dz, a", [
        (73, 73, 0.5e-4, 0.5e-4, 1e-4),   # the benchmark's a/2 class
        (25, 27, 2.0, 3.0, 1.0)])
    def test_prime_padding_lengths_match_direct_sum(self, nx, nz, dx, dz, a):
        # n + m is prime on both axes, so the FFT runs on a padded length.
        # n + m - 1 is 5-smooth and the outermost axis taps sit on the 12 a
        # circle: a length one short would wrap those taps onto the far
        # edge, which holds just under the 1e-6 decay limit
        rng = np.random.default_rng(nx * nz)
        vals = rng.normal(size=(nz, nx)) + 1j * rng.normal(size=(nz, nx))
        edge = 0.9e-6 * np.max(np.abs(vals[1:-1, 1:-1]))
        vals[0, :] = vals[-1, :] = vals[:, 0] = vals[:, -1] = edge
        f = ScalarField2D(nx=nx, nz=nz, dx=dx, dz=dz, x0=0.0, values=vals)
        mz, mx = (side // 2 for side in _kernel_stencil(dx, dz, a).shape)
        assert is_prime(nx + mx) and is_prime(nz + mz)
        out = convolve_halfplane(f, a).values
        want = direct_convolution(f, a)
        assert np.max(np.abs(out - want)) <= 1e-13 * np.max(np.abs(want))

    def test_fft_length_is_smallest_5_smooth(self):
        for n in range(1, 3001):
            want = next(m for m in itertools.count(n) if is_5_smooth(m))
            assert _fft_length(n) == want, n

    @pytest.mark.parametrize("a_nl", [0.0, -0.01, math.inf, math.nan])
    def test_length_must_be_finite_and_positive(self, a_nl):
        with pytest.raises(ValueError, match="a_nl"):
            convolve_halfplane(gaussian_field(16, 0.01, 0.02), a_nl)

    def test_corner_delta_on_grid_smaller_than_stencil(self):
        # the stencil (93 x 121 cells) is larger than the 24 x 24 grid, so a
        # circular convolution that wrapped would put mass in the far corner
        vals = np.zeros((24, 24), dtype=complex)
        vals[1, 1] = 1.0
        f = ScalarField2D(nx=24, nz=24, dx=0.01, dz=0.013, x0=0.0,
                          values=vals)
        out = convolve_halfplane(f, 0.05).values
        want = direct_convolution(f, 0.05)
        assert np.max(np.abs(out - want)) <= 1e-13 * np.max(np.abs(want))

    def test_stencil_size_is_bounded(self):
        # h = a/1000 would need a 24001 x 24001 stencil
        a = 0.01
        vals = np.zeros((16, 16), dtype=complex)
        vals[8, 8] = 1.0
        f = ScalarField2D(nx=16, nz=16, dx=a / 1000, dz=a / 1000, x0=0.0,
                          values=vals)
        with pytest.raises(ValueError, match="stencil"):
            convolve_halfplane(f, a)

    def test_does_not_load_scipy_signal(self):
        script = ("import sys\n"
                  "from mnwaves import kernel\n"
                  "kernel.convolve_halfplane(kernel.gaussian_field(32, 0.01, "
                  "0.03), 0.01)\n"
                  "print('scipy.signal' in sys.modules)\n")
        proc = subprocess.run([sys.executable, "-c", script],
                              capture_output=True, text=True,
                              env=subprocess_env())
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == "False\n"

    def test_only_specfun_imports_scipy(self):
        # and only inside a function body, so `import mnwaves` skips scipy
        importers = set()
        for path in Path(mnwaves.__file__).parent.glob("*.py"):
            tree = ast.parse(path.read_text())
            in_functions = {id(node) for fn in ast.walk(tree)
                            if isinstance(fn, (ast.FunctionDef,
                                               ast.AsyncFunctionDef))
                            for node in ast.walk(fn)}
            for node in ast.walk(tree):
                if isinstance(node, ast.Import):
                    names = [alias.name for alias in node.names]
                elif isinstance(node, ast.ImportFrom):
                    names = [node.module or ""]
                else:
                    continue
                if any(n.split(".")[0] == "scipy" for n in names):
                    importers.add(path.name)
                    assert id(node) in in_functions, (
                        f"{path.name}:{node.lineno} imports scipy at module "
                        "level")
        assert importers == {"specfun.py"}

    def test_edge_decay_precondition(self):
        n = 16
        vals = np.ones((n, n), dtype=complex)
        f = ScalarField2D(nx=n, nz=n, dx=0.01, dz=0.01, x0=0.0, values=vals)
        with pytest.raises(ValueError, match="decay"):
            convolve_halfplane(f, 0.01)

    def test_truncation_warning_on_small_grid(self):
        n = 24
        h = 0.01
        vals = np.zeros((n, n), dtype=complex)
        vals[n // 2, n // 2] = 1.0
        f = ScalarField2D(nx=n, nz=n, dx=h, dz=h, x0=0.0, values=vals)
        out = convolve_halfplane(f, 0.05)  # 12 a = 0.6 >> grid extent
        assert any("edge" in w for w in out.warnings)


class TestApplyHelmholtz:
    def test_zero_length_is_identity_on_interior(self):
        f = gaussian_field(16, 0.1, 0.4)
        out = apply_helmholtz(f, 0.0)
        assert np.array_equal(out.values, f.values[1:-1, 1:-1])
        assert out.x0 == f.x0 + f.dx and out.z0 == f.z0 + f.dz

    def test_harmonic_field_is_annihilated(self):
        # e^{ikx} e^{-kz} is harmonic, so (1 - a^2 lap) leaves it alone
        k = 1.0
        a = 0.5
        h = 0.05
        n = 32
        xs = h * np.arange(n)
        grid_x, grid_z = np.meshgrid(xs, xs)
        vals = np.exp(1j * k * grid_x) * np.exp(-k * grid_z)
        f = ScalarField2D(nx=n, nz=n, dx=h, dz=h, x0=0.0, values=vals)
        out = apply_helmholtz(f, a)
        dev = np.max(np.abs(out.values - vals[1:-1, 1:-1]))
        assert dev < 1e-3  # discrete Laplacian leaves O(h^2)

    def test_gaussian_matches_analytic_operator(self):
        a = 0.05
        h = 0.02
        n = 64
        width = 0.3
        f = gaussian_field(n, h, width)
        xs = h * np.arange(n)
        grid_x, grid_z = np.meshgrid(xs, xs)
        center = xs[n // 2]
        r2 = (grid_x - center) ** 2 + (grid_z - center) ** 2
        lap = (4.0 * r2 / width ** 4 - 4.0 / width ** 2) * f.values
        analytic = f.values - a * a * lap
        out = apply_helmholtz(f, a)
        dev = np.max(np.abs(out.values - analytic[1:-1, 1:-1]))
        assert dev / np.max(np.abs(analytic)) < 1e-3

    def test_small_grid_rejected(self):
        f = ScalarField2D(nx=4, nz=4, dx=0.1, dz=0.1, x0=0.0,
                          values=np.zeros((4, 4), dtype=complex))
        with pytest.raises(ValueError):
            apply_helmholtz(f, 0.1)

    @pytest.mark.parametrize("a_nl", [-0.01, math.inf, math.nan])
    def test_length_must_be_finite_and_non_negative(self, a_nl):
        with pytest.raises(ValueError, match="a_nl"):
            apply_helmholtz(gaussian_field(16, 0.1, 0.4), a_nl)


class TestRoundtrip:
    def test_greens_function_roundtrip(self, roundtrip_result):
        assert roundtrip_result["error"] < 1e-3

    @pytest.mark.parametrize("a, h_ratio, want", [
        (1e-4, 0.5, 25),    # mnw kernel-check: 12 a/h is exactly 24
        (0.05, 0.25, 49),   # C3: 12 a/h = 48.00000000000001
        (1.0, 0.38, 32)])
    def test_margin_is_one_past_the_stencil_reach(self, a, h_ratio, want):
        # a checked node needs the convolution at its Laplacian neighbours,
        # and the one nearest the edge reaches m + 1 nodes out
        h = h_ratio * a
        _, margin, _ = roundtrip_error(gaussian_field(120, h, 3.0 * a), a)
        assert margin == _kernel_stencil(h, h, a).shape[1] // 2 + 1 == want


def _exact_trace_integral(r: complex, eps: float, eta: float) -> complex:
    """blayer_quadrature_form(r, eps, eta) in closed form.

    The bracket is A - B s with A = 1 - eps^2/2, B = eps/2 and s the
    distance from eta.  With E = e^{-eta/eps}, F = e^{-r eta}, p = r - 1/eps
    and q = r + 1/eps, the part above eta is F (A/q - B/q^2) and the part
    below is A (E - F)/p - B (eta E/p - (E - F)/p^2); no term overflows.
    Where |p eta| < 1/2 those differences cancel, and the part below is
    F eta (A phi1 - B eta phi2) with phi1, phi2 = int_0^1 (1, t) e^{p eta t}
    dt summed as series.
    """
    a_coef, b_coef = 1.0 - 0.5 * eps * eps, 0.5 * eps
    p, q = r - 1.0 / eps, r + 1.0 / eps
    e_eta, f_eta = math.exp(-eta / eps), cmath.exp(-r * eta)
    above = f_eta * (a_coef / q - b_coef / (q * q))
    z = p * eta
    if abs(z) < 0.5:
        phi1 = sum(z ** n / math.factorial(n + 1) for n in range(25))
        phi2 = sum(z ** n / ((n + 2) * math.factorial(n)) for n in range(25))
        below = f_eta * eta * (a_coef * phi1 - b_coef * eta * phi2)
    else:
        below = (a_coef * (e_eta - f_eta) / p
                 - b_coef * (eta * e_eta / p - (e_eta - f_eta) / (p * p)))
    return (above + below) / (2.0 * eps)


class TestApproxTraceIntegral:
    """The depth-smoothing trace integral, `blayer_quadrature_form`."""

    @pytest.mark.parametrize("eta", [0.0, 0.3, 1.0, 3.0])
    def test_constant_trace_closed_form(self, eta):
        eps = 0.1
        got = blayer_quadrature_form(0.0, eps, eta)
        want = _exact_trace_integral(0.0, eps, eta)
        assert got == pytest.approx(want, abs=1e-12)

    def test_surface_halving(self):
        # at the surface: (1 - eps^2)/2, the corrector takes eps^2/2
        eps = 0.2
        got = blayer_quadrature_form(0.0, eps, 0.0)
        assert got == pytest.approx(0.5 * (1.0 - eps * eps), abs=1e-12)

    @pytest.mark.parametrize("r", [0.4, 0.9])
    def test_exponential_trace_matches_closed_form(self, r):
        # same operator as the boundary-layer integral at unit carrier
        eps_values = (0.2, 0.1, 0.05)
        devs = []
        for eps in eps_values:
            got = blayer_quadrature_form(r, eps, 0.7)
            want = blayer_closed_form(r, r, eps, 0.7)
            devs.append(abs(got - want) / abs(want))
        assert fit_slope(eps_values, devs) >= 2.0

    def test_pointwise_recovery_as_eps_vanishes(self):
        r = 0.6
        eta = 2.0  # deep enough that the surface term does not interfere
        exact = math.exp(-r * eta)
        errs = [abs(blayer_quadrature_form(r, eps, eta) - exact)
                for eps in (0.2, 0.1, 0.05)]
        assert errs[0] > errs[1] > errs[2]

    def test_near_pole_exact_or_raises(self, seed):
        """Narrow or fast-oscillating profiles near the c4 = eps v pole:
        every result matches the exact integral, or the quadrature raises
        ConvergenceError; it never returns a wrong value silently."""
        rng = np.random.default_rng([seed, 7])
        for _ in range(24):
            r = 10.0 ** rng.uniform(1.0, math.log10(3e4)) * (
                1.0, cmath.exp(0.7j), 1j)[rng.integers(3)]
            eta = (0.0, 0.5, 2.0)[rng.integers(3)]
            eps = (0.05, 0.1, 0.2)[rng.integers(3)]
            try:
                got = blayer_quadrature_form(r, eps, eta)
            except ConvergenceError:
                continue
            want = _exact_trace_integral(r, eps, eta)
            assert abs(got - want) <= 1e-9 * abs(want) + 1e-13 / eps, \
                (r, eta, eps, got, want)

    def test_invalid_inputs(self):
        with pytest.raises(ValueError):
            blayer_quadrature_form(0.0, 0.0, 0.5)
        with pytest.raises(ValueError):
            blayer_quadrature_form(0.0, 0.1, -0.1)
        for eps, eta in ((math.nan, 0.5), (0.1, math.nan)):
            with pytest.raises(ValueError):
                blayer_quadrature_form(0.0, eps, eta)
        with pytest.raises(ValueError, match="overflows"):
            blayer_quadrature_form(0.0, 1e300, 0.5)


class TestBoundaryOperator:
    def test_exponential_with_carrier(self):
        # g = e^{-eta}: g(0) = 1, g'(0) = -1
        want = 1.0 + 0.1 - 0.5 * 0.1 ** 3
        assert boundary_operator(1.0, -1.0, 0.1) == pytest.approx(want, rel=1e-14)

    def test_growing_trace_rejected(self):
        with pytest.raises(ValueError, match="negative real part"):
            blayer_quadrature_form(-1.0, 0.1, 0.5)

    def test_derivative_from_decay(self):
        # g = amp e^{-decay eta}: g'(0) = -decay * amp
        decay, amp, eps = 0.7 + 0.4j, 2.0 - 0.5j, 0.1
        g1 = -decay * amp
        want = amp - eps * g1 + 0.5 * eps ** 3 * g1
        assert boundary_operator(amp, g1, eps) == pytest.approx(want, rel=1e-14)

    @pytest.mark.parametrize("r", [0.3, 0.8])
    def test_consistency_with_trace_integral(self, r):
        """Surface-operator identity behind the extra conditions.

        For tau = e^{i chi - r eta}, the smoothed trace of its differential-
        model source (1 - eps^2 (d_chi^2 + d_eta^2)) tau, evaluated at the
        surface, equals tau(0) - boundary_operator(tau)/2 through O(eps^3);
        the deviation must shrink at least like eps^4 (log-log slope >= 3).
        """
        eps_values = (0.2, 0.1, 0.05)
        devs = []
        for eps in eps_values:
            image = 1.0 - eps * eps * (r * r - 1.0)
            smoothed = image * blayer_quadrature_form(r, eps, 0.0)
            half_op = 0.5 * boundary_operator(1.0, -r, eps)
            devs.append(abs(half_op - (1.0 - smoothed)))
        assert fit_slope(eps_values, devs) >= 3.0
