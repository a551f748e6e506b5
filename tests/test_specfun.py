import importlib.util
import math
import sys
from pathlib import Path

import numpy as np
import pytest

from mnwaves import _bessel_table as _table
from mnwaves.specfun import (
    ConvergenceError,
    DEFAULT_QUAD_SPEC,
    QuadratureSpec,
    _COEFFS,
    _INVERSE_CENTERS,
    _MAX_SUBDIVISIONS,
    _SMALL_X,
    bessel_k0,
    bessel_k1,
    integrate_1d,
    integrate_2d_polar,
)
from mnwaves.kernel import kernel_weight

# K0 values frozen from the integral-representation oracle below
K0_AT_1 = 0.421024438240708
K0_AT_HALF = 0.924419071227666


def k0_by_quadrature(x: float) -> float:
    """Independent oracle: K0(x) = int_0^inf exp(-x cosh t) dt."""
    return integrate_1d(lambda t: np.exp(-x * np.cosh(t)),
                        0.0, math.inf).real


class TestBesselK0:
    def test_frozen_values(self):
        assert bessel_k0(1.0) == pytest.approx(K0_AT_1, rel=1e-12)
        assert bessel_k0(0.5) == pytest.approx(K0_AT_HALF, rel=1e-12)

    @pytest.mark.parametrize("x", [1e-6, 0.05, 0.5, 1.0, 2.0, 5.0, 30.0])
    def test_against_integral_representation(self, x):
        assert bessel_k0(x) == pytest.approx(k0_by_quadrature(x), rel=1e-12)

    def test_domain_error_at_zero(self):
        with pytest.raises(ValueError):
            bessel_k0(0.0)
        with pytest.raises(ValueError):
            bessel_k0(-2.0)

    def test_underflow_far_out(self):
        assert bessel_k0(701.0) == 0.0

    def test_strictly_decreasing(self):
        xs = np.linspace(1e-3, 50.0, 200)
        vals = [bessel_k0(float(x)) for x in xs]
        assert all(a > b for a, b in zip(vals, vals[1:]))

    @pytest.mark.parametrize("x", [5.0, 8.0, 13.0, 21.0, 34.0])
    def test_asymptotic_envelope(self, x):
        # sqrt(pi/2x) e^{-x} (1 -+ 1/(8x)) brackets K0 for x >= 5
        envelope = math.sqrt(math.pi / (2.0 * x)) * math.exp(-x)
        value = bessel_k0(x)
        assert envelope * (1.0 - 1.0 / (8.0 * x)) <= value
        assert value <= envelope * (1.0 + 1.0 / (8.0 * x))

    @pytest.mark.parametrize("bessel", [bessel_k0, bessel_k1])
    def test_array_equals_scalar(self, bessel):
        rng = np.random.default_rng(20241018)
        xs = np.exp(rng.uniform(math.log(1e-6), math.log(800.0), 400))
        got = bessel(xs)
        assert got.shape == xs.shape
        assert (got == np.array([bessel(float(x)) for x in xs])).all()
        assert (got[xs > 700.0] == 0.0).all() and (got[xs <= 700.0] > 0.0).all()

    @pytest.mark.parametrize("bessel", [bessel_k0, bessel_k1])
    @pytest.mark.parametrize("bad", [0.0, -2.0, math.nan])
    def test_array_domain_error(self, bessel, bad):
        with pytest.raises(ValueError, match="requires x > 0"):
            bessel(np.array([0.5, bad, 2.0]))

    def test_scalar_input_returns_float(self):
        for x in (1.0, np.float64(1.0), np.array(1.0), 701.0):
            assert type(bessel_k0(x)) is float
            assert type(bessel_k1(x)) is float

    def test_k1_is_minus_k0_derivative(self):
        h = 1e-6
        x = 1.7
        fd = (bessel_k0(x + h) - bessel_k0(x - h)) / (2.0 * h)
        assert bessel_k1(x) == pytest.approx(-fd, rel=1e-8)


def load_generator():
    """tools/bessel_table.py, the script that writes the coefficient table."""
    path = Path(__file__).resolve().parent.parent / "tools" / "bessel_table.py"
    spec = importlib.util.spec_from_file_location("bessel_table", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


class TestBesselTable:
    """K0 and K1 from the coefficient table against mpmath at 50 digits."""

    @staticmethod
    def sample(seed) -> np.ndarray:
        # log-uniform over the whole normal range, every interval edge of
        # the table with the double below it, and the ends of each branch
        rng = np.random.default_rng(seed)
        tiny = sys.float_info.min
        draws = np.exp(rng.uniform(math.log(tiny), math.log(700.0), 120))
        edges = np.append(
            np.exp(_table.T_LO + _table.WIDTH * np.arange(_table.COUNT)),
            [_SMALL_X, 700.0])
        return np.concatenate([draws, [tiny], edges,
                               np.nextafter(edges, 0.0)])

    @pytest.mark.parametrize("order, bessel", [(0, bessel_k0), (1, bessel_k1)])
    def test_against_mpmath(self, order, bessel, seed):
        mpmath = pytest.importorskip("mpmath")
        xs = self.sample(seed)
        got = bessel(xs)
        assert (got == np.array([bessel(float(x)) for x in xs])).all()
        with mpmath.workdps(50):
            worst = max(abs(mpmath.mpf(float(value))
                            / mpmath.besselk(order, mpmath.mpf(float(x))) - 1)
                        for x, value in zip(xs, got))
        assert worst <= 1e-15

    @pytest.mark.parametrize("bessel", [bessel_k0, bessel_k1])
    def test_underflow_cut_is_exact(self, bessel):
        assert bessel(700.0) > 0.0
        assert bessel(math.nextafter(700.0, math.inf)) == 0.0
        assert bessel(math.inf) == 0.0

    def test_generator_reproduces_table(self):
        pytest.importorskip("mpmath")
        gen = load_generator()
        assert (gen.T_LO, gen.WIDTH, gen.COUNT, gen.DEGREE) == (
            _table.T_LO, _table.WIDTH, _table.COUNT, _table.DEGREE)
        assert _INVERSE_CENTERS.tolist() == [gen.inverse_center(i)
                                             for i in range(gen.COUNT)]
        # the first interval, one near x = 3e-4 and the last; intervals
        # near x = 30 cost mpmath seconds each
        for i in (0, 50, gen.COUNT - 1):
            for order in (0, 1):
                assert _COEFFS[order][:, i].tolist() == list(
                    gen.coefficients(order, i)), (order, i)


class TestQuadratureSpec:
    def test_defaults(self):
        assert DEFAULT_QUAD_SPEC.rel_tol == 1e-10

    def test_rejects_bad_tolerances(self):
        for bad in (0.0, -1.0, math.inf, math.nan):
            with pytest.raises(ValueError):
                QuadratureSpec(rel_tol=bad)


class TestIntegrate1D:
    def test_exponential_tail(self):
        assert integrate_1d(lambda t: np.exp(-t), 0.0, math.inf).real == \
            pytest.approx(1.0, rel=1e-12)

    def test_k0_identity(self):
        got = integrate_1d(lambda t: np.exp(-np.cosh(t)), 0.0, math.inf)
        assert got.real == pytest.approx(K0_AT_1, rel=1e-12)
        assert got.imag == 0.0

    def test_endpoint_singularity(self):
        got = integrate_1d(lambda t: t ** -0.5, 0.0, 1.0)
        assert got.real == pytest.approx(2.0, abs=1e-8)

    def test_complex_integrand(self):
        # int_0^inf e^{-(1+2i)t} dt = 1/(1+2i)
        got = integrate_1d(lambda t: np.exp(-(1.0 + 2.0j) * t), 0.0, math.inf)
        assert got == pytest.approx(1.0 / (1.0 + 2.0j), rel=1e-9)

    def test_deterministic_bitwise(self):
        runs = [integrate_1d(lambda t: np.exp(-np.cosh(t)), 0.0, math.inf)
                for _ in range(2)]
        assert runs[0] == runs[1]

    def test_convergence_failure_carries_estimate(self):
        # ~16 000 periods on [0, 1] outlast the subdivision budget
        with pytest.raises(ConvergenceError) as excinfo:
            integrate_1d(lambda t: np.cos(1e5 * t), 0.0, 1.0)
        err = excinfo.value
        assert err.error_bound > 0.0
        assert abs(err.estimate - math.sin(1e5) / 1e5) <= err.error_bound

    def test_empty_and_invalid_ranges(self):
        assert integrate_1d(lambda t: 1.0, 2.0, 2.0) == 0.0
        with pytest.raises(ValueError):
            integrate_1d(lambda t: 1.0, 3.0, 1.0)
        with pytest.raises(ValueError):
            integrate_1d(lambda t: 1.0, -math.inf, 1.0)
        with pytest.raises(ValueError):
            integrate_1d(lambda t: np.exp(-t), 0.0, -math.inf)
        for lo, hi in ((math.nan, 1.0), (0.0, math.nan)):
            with pytest.raises(ValueError):
                integrate_1d(lambda t: 1.0, lo, hi)

    def test_one_call_per_split(self):
        # an exhausted budget has evaluated 1 + 2 * budget panels: the first
        # panel's 31 nodes in one call, then both halves of each split
        # panel, 62 nodes, in one call
        calls = []

        def recording(t):
            calls.append(t)
            return np.cos(1e5 * t)

        with pytest.raises(ConvergenceError):
            integrate_1d(recording, 0.0, 1.0)
        assert len(calls) == 1 + _MAX_SUBDIVISIONS
        assert [t.shape for t in calls] == ([(31,)]
                                            + [(62,)] * _MAX_SUBDIVISIONS)
        for t in calls:
            assert isinstance(t, np.ndarray) and t.dtype == np.float64

    def test_constant_integrand(self):
        assert integrate_1d(lambda t: 2.5, 1.0, 3.0) == pytest.approx(5.0, rel=1e-14)
        assert integrate_1d(lambda t: 1j, 0.0, 2.0) == pytest.approx(2j, rel=1e-14)


class TestIntegrate2DPolar:
    def test_unit_disk_area(self):
        got = integrate_2d_polar(lambda r, th: 1.0, 1.0)
        assert got.real == pytest.approx(math.pi, rel=1e-10)

    def test_k0_total_mass(self):
        # int_0^inf K0(u) u du = 1, so the disk integral of K0 is ~2 pi
        got = integrate_2d_polar(lambda r, th: bessel_k0(r), 40.0)
        assert got.real == pytest.approx(2.0 * math.pi, rel=1e-8)

    def test_gaussian(self):
        got = integrate_2d_polar(lambda r, th: np.exp(-r * r), 10.0)
        assert got.real == pytest.approx(math.pi * (1.0 - math.exp(-100.0)),
                                         rel=1e-10)

    @pytest.mark.parametrize("rel_tol", [1e-10, 1e-8])
    @pytest.mark.parametrize("a", [0.05, 1e-4])
    @pytest.mark.parametrize("u", [0.5, 2.0, 10.0, 40.0])
    def test_kernel_disk_mass_closed_form(self, u, a, rel_tol):
        # the kernel's mass on the disk of radius u a is 1 - u K1(u)
        spec = QuadratureSpec(rel_tol=rel_tol)
        mass = integrate_2d_polar(lambda r, th: kernel_weight(r, a), u * a,
                                  spec)
        want = 1.0 - u * bessel_k1(u)
        assert abs(mass - want) <= rel_tol * want

    def test_whole_plane(self):
        gauss = integrate_2d_polar(lambda r, th: np.exp(-r * r), math.inf)
        assert abs(gauss - math.pi) <= 1e-10
        mass = integrate_2d_polar(lambda r, th: kernel_weight(r, 0.05),
                                  math.inf)
        assert abs(mass - 1.0) <= 1e-10

    def test_kernel_mass_work(self):
        # g gets the radii of one panel and theta = 0.0, and the disk mass
        # costs the g calls of one radial integral and no more
        calls = []
        a = 0.05

        def g(r, theta):
            calls.append((r, theta))
            return kernel_weight(r, a)

        mass = integrate_2d_polar(g, 40.0 * a)
        assert abs(mass - 1.0) <= 1e-8
        shapes = [r.shape for r, _ in calls]
        assert shapes == [(31,)] + [(62,)] * (len(calls) - 1)
        for r, theta in calls:
            assert r.dtype == np.float64
            assert type(theta) is float and theta == 0.0
        radial = []

        def f(r):
            radial.append(r)
            return kernel_weight(r, a) * r

        assert mass == 2.0 * math.pi * integrate_1d(f, 0.0, 40.0 * a)
        assert len(calls) == len(radial)

    def test_convergence_error(self):
        # the radial integrand g r is cos(1e5 r): the estimate is that of
        # the radial integral, sin(1e5)/1e5
        with pytest.raises(ConvergenceError) as excinfo:
            integrate_2d_polar(lambda r, th: np.cos(1e5 * r) / r, 1.0)
        err = excinfo.value
        assert type(err.estimate) is complex
        assert type(err.error_bound) is float and err.error_bound > 0.0
        assert abs(err.estimate - math.sin(1e5) / 1e5) <= err.error_bound
        assert "did not converge" in str(err)

    def test_rejects_bad_radius(self):
        with pytest.raises(ValueError):
            integrate_2d_polar(lambda r, th: 1.0, 0.0)
