import math

import numpy as np
import pytest

from mnwaves.asymptotic import bc_slope_study
from mnwaves.dispersion import (
    CutoffError,
    LeakyRegimeWarning,
    NoSurfaceModeError,
    amplitude_ratios,
    curve_from_csv,
    curve_to_csv,
    micropolar_velocity,
    secular_leading,
    solve_rayleigh,
    sweep,
)
from mnwaves.material import MaterialParams, derive_scales


def classical_rayleigh_oracle(c1_over_c2: float, lo=0.5, hi=0.9999,
                              tol=1e-12) -> float:
    """Bisection on the classical Rayleigh function 4 r10 r20 - (1+r20^2)^2.

    Independent of the library path: its own function, its own bisection.
    Returns v/c2.
    """
    def f(x: float) -> float:
        r10 = math.sqrt(1.0 - (x / c1_over_c2) ** 2)
        r20 = math.sqrt(1.0 - x * x)
        return 4.0 * r10 * r20 - (1.0 + (1.0 - x * x)) ** 2

    flo = f(lo)
    assert flo * f(hi) < 0.0
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if flo * f(mid) <= 0.0:
            hi = mid
        else:
            lo = mid
    return 0.5 * (lo + hi)


class TestSecularLeading:
    def test_trivial_root_at_rest(self, sample_material):
        assert secular_leading(sample_material, 0.0) == pytest.approx(0.0, abs=1e-14)

    def test_classical_reduction(self, poisson_material):
        # with d = 1 the function is the classical Rayleigh function
        sc = derive_scales(poisson_material)
        for frac in (0.2, 0.5, 0.8, 0.95):
            v = frac * sc.c2
            r10 = math.sqrt(1.0 - (v / sc.c1) ** 2)
            r20sq = 1.0 - (v / sc.c2) ** 2
            want = 4.0 * r10 * math.sqrt(r20sq) - (1.0 + r20sq) ** 2
            assert secular_leading(poisson_material, v) == pytest.approx(
                want, rel=1e-13)

    def test_leaky_regime_warns(self, sample_material):
        sc = derive_scales(sample_material)
        with pytest.warns(LeakyRegimeWarning):
            value = secular_leading(sample_material, 1.1 * sc.c2)
        assert math.isfinite(value)

    def test_negative_velocity_rejected(self, sample_material):
        with pytest.raises(ValueError):
            secular_leading(sample_material, -1.0)


class TestSolveRayleigh:
    def test_poisson_solid_against_oracle(self, poisson_material):
        sc = derive_scales(poisson_material)
        got = solve_rayleigh(poisson_material)
        want = classical_rayleigh_oracle(sc.c1 / sc.c2)
        assert got.v / sc.c2 == pytest.approx(0.9194, abs=1e-3)
        assert got.v / sc.c2 == pytest.approx(want, abs=1e-6)

    def test_micropolar_material_root_certificate(self, sample_material):
        sc = derive_scales(sample_material)
        tol = 1e-10
        point = solve_rayleigh(sample_material, tol)
        assert abs(secular_leading(sample_material, point.v)) < 1e-9
        below = secular_leading(sample_material, point.v - tol * sc.c2)
        above = secular_leading(sample_material, point.v + tol * sc.c2)
        assert below * above < 0.0

    def test_extreme_micropolarity_contract(self):
        # kappa >> mu shrinks d; the solver must not crash either way
        m = MaterialParams(lambda_lame=2e9, mu=1e7, kappa=1e9, alpha_mp=1.0,
                           beta_mp=1.0, gamma_mp=100.0, rho=2000.0,
                           j_inertia=1e-6, a_nl=0.0)
        try:
            point = solve_rayleigh(m)
            assert 0.0 < point.v < derive_scales(m).c2
        except NoSurfaceModeError:
            pass

    def test_bad_tolerance_rejected(self, sample_material):
        with pytest.raises(ValueError):
            solve_rayleigh(sample_material, tol=0.0)

    def test_surface_mode_across_material_space(self, seed):
        """Every valid material has its elastic root below c2.

        The secular function is positive just above v = 0 and equals -d^2 at
        c2, so a root always exists; from kappa/mu ~ 7.6 it lies above
        0.9999 c2 (the fixed kappa/mu = 16 draw guarantees one such case).
        Bisection to 1e-10 c2 leaves |secular| <= ~2e-10 / r20, and r20 at
        the root stays above ~1e-3 on this range: 1e-6 bounds it.
        """
        rng = np.random.default_rng(seed)
        log_kappa = rng.uniform(-4.0, math.log10(30.0), 40)
        ratios = [(1.0, 16.0)] + list(zip(rng.uniform(-0.95, 20.0, 40),
                                          10.0 ** log_kappa))
        for lam_mu, kappa_mu in ratios:
            m = MaterialParams(lambda_lame=float(lam_mu) * 1e9, mu=1e9,
                               kappa=float(kappa_mu) * 1e9, alpha_mp=1.0,
                               beta_mp=1.0, gamma_mp=100.0, rho=1000.0,
                               j_inertia=1e-6, a_nl=1e-4)
            point = solve_rayleigh(m)
            assert 0.0 < point.v < derive_scales(m).c2, (lam_mu, kappa_mu)
            assert abs(secular_leading(m, point.v)) < 1e-6, (lam_mu, kappa_mu)
            bc_slope_study(m, 2000.0)


class TestMicropolarVelocity:
    def test_high_frequency_limit(self, sample_material):
        sc = derive_scales(sample_material)
        v = micropolar_velocity(sample_material, 1e4 * sc.omega_cutoff)
        assert v == pytest.approx(sc.c4, rel=1e-7)

    def test_sqrt_two_point(self, sample_material):
        sc = derive_scales(sample_material)
        v = micropolar_velocity(sample_material,
                                math.sqrt(2.0) * sc.omega_cutoff)
        assert v == pytest.approx(math.sqrt(2.0) * sc.c4, rel=1e-12)

    def test_cutoff_raises(self, sample_material):
        sc = derive_scales(sample_material)
        with pytest.raises(CutoffError):
            micropolar_velocity(sample_material, sc.omega_cutoff)
        with pytest.raises(CutoffError):
            micropolar_velocity(sample_material, 0.5 * sc.omega_cutoff)

    def test_monotone_descent_to_c4(self, sample_material):
        sc = derive_scales(sample_material)
        omegas = np.geomspace(1.02 * sc.omega_cutoff, 50.0 * sc.omega_cutoff, 50)
        vs = [micropolar_velocity(sample_material, float(w)) for w in omegas]
        assert all(a > b for a, b in zip(vs, vs[1:]))
        assert all(v > sc.c4 for v in vs)


class TestAmplitudeRatios:
    def test_elastic_local_limit(self, sample_material):
        sc = derive_scales(sample_material)
        point = solve_rayleigh(sample_material)
        amp = amplitude_ratios(sample_material, point, 0.0)
        r10 = math.sqrt(1.0 - (point.v / sc.c1) ** 2)
        r20sq = 1.0 - (point.v / sc.c2) ** 2
        want = 1j * (r20sq + sc.d) / ((1.0 + sc.d) * r10)
        assert amp.P == pytest.approx(want, rel=1e-12)
        assert amp.Q == 1.0

    @pytest.mark.parametrize("eps", [0.0, 0.05, 0.2])
    def test_elastic_mode_never_rotates(self, sample_material, eps):
        point = solve_rayleigh(sample_material)
        assert amplitude_ratios(sample_material, point, eps).R == 0

    def test_micropolar_mode_rotates(self, sample_material):
        sc = derive_scales(sample_material)
        curve = sweep(sample_material, 1.5 * sc.omega_cutoff,
                      3.0 * sc.omega_cutoff, 3, "micropolar")
        point = curve.points[0]
        amp = amplitude_ratios(sample_material, point, 0.05)
        # R carries the secular expression, nonzero off the elastic root
        assert abs(amp.R) > 1e-3


class TestSweep:
    def test_two_point_sweep(self, sample_material):
        curve = sweep(sample_material, 1e5, 1e6, 2, "elastic")
        assert len(curve.points) == 2
        assert curve.points[0].omega < curve.points[1].omega

    def test_elastic_mode_nondispersive(self, sample_material):
        curve = sweep(sample_material, 1e5, 1e6, 7, "elastic")
        velocities = {p.v for p in curve.points}
        assert len(velocities) == 1
        assert all(p.admissible for p in curve.points)

    def test_elastic_sweep_flags_strong_nonlocality(self, sample_material):
        # at eps ~ 1 the shear branch turns evanescent and is flagged
        curve = sweep(sample_material, 1e5, 1e7, 7, "elastic")
        assert not curve.points[-1].admissible
        assert curve.points[-1].exponents.r2.real == 0.0

    def test_micropolar_flags_subcutoff(self, sample_material):
        sc = derive_scales(sample_material)
        curve = sweep(sample_material, 0.5 * sc.omega_cutoff,
                      4.0 * sc.omega_cutoff, 9, "micropolar")
        flags = [p.propagating for p in curve.points]
        assert not flags[0]
        assert flags[-1]
        vs = [p.v for p in curve.points if p.propagating]
        assert all(a > b for a, b in zip(vs, vs[1:]))  # descending to c4

    def test_fully_subcutoff_curve_is_empty(self, sample_material):
        sc = derive_scales(sample_material)
        curve = sweep(sample_material, 0.01 * sc.omega_cutoff,
                      0.5 * sc.omega_cutoff, 4, "micropolar")
        assert curve.propagating_count == 0

    def test_bad_ranges_rejected(self, sample_material):
        with pytest.raises(ValueError):
            sweep(sample_material, 10.0, 1.0, 4)
        with pytest.raises(ValueError):
            sweep(sample_material, 1.0, 10.0, 1)

    def test_deterministic(self, sample_material):
        a = sweep(sample_material, 1e5, 1e6, 5, "elastic")
        b = sweep(sample_material, 1e5, 1e6, 5, "elastic")
        assert curve_to_csv(a) == curve_to_csv(b)


class TestCurveCsv:
    def test_round_trip_identical_bytes(self, sample_material):
        sc = derive_scales(sample_material)
        curve = sweep(sample_material, 0.8 * sc.omega_cutoff,
                      3.0 * sc.omega_cutoff, 6, "micropolar")
        text = curve_to_csv(curve)
        rows = curve_from_csv(text)
        # re-emit from the parsed rows with the same float formatting
        lines = [text.split("\n")[0]]
        for row in rows:
            lines.append(
                f"{row['omega']!r},{row['k']!r},{row['v']!r},{row['mode']},"
                f"{row['r1']!r},{row['r2']!r},{row['r3_re']!r},{row['r3_im']!r},"
                f"{row['secular_residual']!r},{row['admissible']}")
        assert "\n".join(lines) + "\n" == text

    def test_header_enforced(self):
        with pytest.raises(ValueError):
            curve_from_csv("a,b,c\n1,2,3\n")


class TestCurveInvariants:
    def test_frequencies_must_increase(self, sample_material):
        from mnwaves.dispersion import DispersionCurve
        curve = sweep(sample_material, 1e5, 1e6, 3, "elastic")
        with pytest.raises(ValueError):
            DispersionCurve(points=tuple(reversed(curve.points)),
                            fingerprint=curve.fingerprint)

    def test_fingerprint_tracks_material(self, sample_material,
                                         poisson_material):
        a = sweep(sample_material, 1e5, 1e6, 2, "elastic")
        b = sweep(poisson_material, 1e5, 1e6, 2, "elastic")
        assert a.fingerprint != b.fingerprint
