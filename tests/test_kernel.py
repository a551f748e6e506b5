import math

import numpy as np
import pytest

from conftest import fit_slope
from mnwaves.kernel import (
    ScalarField2D,
    SurfaceTrace,
    apply_helmholtz,
    approx_trace_integral,
    boundary_operator,
    convolve_halfplane,
    field_from_csv,
    field_to_csv,
    gaussian_field,
    kernel_weight,
)
from mnwaves.specfun import integrate_2d_polar
from mnwaves.wavefield import blayer_closed_form

K0_AT_1 = 0.421024438240708


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

    def test_total_mass_is_one(self):
        a = 0.05
        mass = integrate_2d_polar(lambda r, th: kernel_weight(r, a), 40.0 * a)
        assert mass.real == pytest.approx(1.0, abs=1e-4)


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

    def test_csv_round_trip(self):
        rng = np.random.default_rng(7)
        vals = rng.normal(size=(5, 4)) + 1j * rng.normal(size=(5, 4))
        f = ScalarField2D(nx=4, nz=5, dx=0.25, dz=0.5, x0=-1.0, z0=0.0,
                          values=vals)
        g = field_from_csv(field_to_csv(f))
        assert g.nx == f.nx and g.nz == f.nz
        assert g.dx == f.dx and g.dz == f.dz and g.x0 == f.x0
        assert np.array_equal(g.values, f.values)
        # re-emission is byte identical
        assert field_to_csv(g) == field_to_csv(f)

    @pytest.mark.parametrize("axis", ["x", "z", "both"])
    def test_csv_nonuniform_grid_rejected(self, axis):
        # the first two nodes alone would give dx = dz = 1.0
        uneven, even = (0.0, 1.0, 2.5, 3.0), (0.0, 1.0, 2.0, 3.0)
        xs = uneven if axis in ("x", "both") else even
        zs = uneven if axis in ("z", "both") else even
        text = "x,z,re,im\n" + "".join(f"{x!r},{z!r},1.0,0.0\n"
                                       for z in zs for x in xs)
        with pytest.raises(ValueError, match="uniformly spaced"):
            field_from_csv(text)


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


class TestRoundtrip:
    def test_greens_function_roundtrip(self, roundtrip_result):
        assert roundtrip_result["error"] < 1e-3


class TestApproxTraceIntegral:
    @pytest.mark.parametrize("eta", [0.0, 0.3, 1.0, 3.0])
    def test_constant_trace_closed_form(self, eta):
        # pure exponential kernel: 1 - e^{-eta/eps}/2
        eps = 0.1
        trace = SurfaceTrace.constant(1.0, chi_wavenumber=0.0)
        got = approx_trace_integral(trace, eps, eta)
        assert got == pytest.approx(1.0 - 0.5 * math.exp(-eta / eps), abs=1e-12)

    def test_surface_halving(self):
        trace = SurfaceTrace.constant(1.0, chi_wavenumber=0.0)
        assert approx_trace_integral(trace, 0.2, 0.0) == pytest.approx(0.5, abs=1e-12)

    @pytest.mark.parametrize("r", [0.4, 0.9])
    def test_exponential_trace_matches_closed_form(self, r):
        # same operator as the boundary-layer integral at unit carrier
        eps_values = (0.2, 0.1, 0.05)
        devs = []
        for eps in eps_values:
            trace = SurfaceTrace.exponential(r, chi_wavenumber=1.0)
            got = approx_trace_integral(trace, eps, 0.7)
            want = blayer_closed_form(r, r, eps, 0.7)
            devs.append(abs(got - want) / abs(want))
        assert fit_slope(eps_values, devs) >= 2.0

    def test_pointwise_recovery_as_eps_vanishes(self):
        trace = SurfaceTrace.exponential(0.6, chi_wavenumber=0.0)
        eta = 2.0  # deep enough that the surface term does not interfere
        exact = trace.eval(eta)
        errs = [abs(approx_trace_integral(trace, eps, eta) - exact)
                for eps in (0.2, 0.1, 0.05)]
        assert errs[0] > errs[1] > errs[2]

    def test_invalid_inputs(self):
        trace = SurfaceTrace.constant(1.0)
        with pytest.raises(ValueError):
            approx_trace_integral(trace, 0.0, 0.5)
        with pytest.raises(ValueError):
            approx_trace_integral(trace, 0.1, -0.1)


class TestBoundaryOperator:
    def test_exponential_no_carrier(self):
        trace = SurfaceTrace.exponential(1.0, chi_wavenumber=0.0)
        assert boundary_operator(trace, 0.1) == pytest.approx(1.1, rel=1e-14)

    def test_exponential_with_carrier(self):
        trace = SurfaceTrace.exponential(1.0, chi_wavenumber=1.0)
        want = 1.0 + 0.1 - 0.5 * 0.1 ** 3
        assert boundary_operator(trace, 0.1) == pytest.approx(want, rel=1e-14)

    def test_needs_analytic_derivative(self):
        trace = SurfaceTrace(eval=lambda e: 1.0 + 0j, chi_wavenumber=1.0)
        with pytest.raises(ValueError):
            boundary_operator(trace, 0.1)

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
            tau = SurfaceTrace.exponential(r, chi_wavenumber=1.0)
            image_amp = 1.0 - eps * eps * (r * r - 1.0)
            image = SurfaceTrace.exponential(r, chi_wavenumber=1.0,
                                             amplitude=image_amp)
            smoothed = approx_trace_integral(image, eps, 0.0)
            half_op = 0.5 * boundary_operator(tau, eps)
            devs.append(abs(half_op - (tau.eval(0.0) - smoothed)))
        assert fit_slope(eps_values, devs) >= 3.0
