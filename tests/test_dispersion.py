import cmath
import math
import warnings

import numpy as np
import pytest

from conftest import material_draws
from mnwaves import asymptotic, dispersion
from mnwaves.asymptotic import bc_slope_study, residual_report_json
from mnwaves.dispersion import (
    CutoffError,
    LeakyRegimeWarning,
    NoSurfaceModeError,
    bracketed_root,
    curve_to_csv,
    elastic_amplitudes,
    micropolar_amplitudes,
    micropolar_velocity,
    secular_leading,
    solve_rayleigh,
    sweep,
)
from mnwaves.material import MaterialParams, derive_scales


def plain_bisection(f, a, b, fa, width):
    """Midpoint of a sign-change bracket [a, b] of f (fa = f(a)) halved until
    at most width wide, and the number of evaluations of f.  Written apart
    from the library: the oracle's root loop and the reference that
    `bracketed_root` is checked against."""
    evals = 0
    while b - a > width:
        mid = 0.5 * (a + b)
        fm = f(mid)
        evals += 1
        if fm == 0.0:
            return mid, evals
        if (fm < 0.0) == (fa < 0.0):
            a, fa = mid, fm
        else:
            b = mid
    return 0.5 * (a + b), evals


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
    return plain_bisection(f, lo, hi, flo, tol)[0]


def numpy_scan_root(m):
    """`solve_rayleigh` as it was written on numpy arrays, the oracle of its
    scalar scan: the secular expression on all 513 grid points at once, the
    last sign change by flatnonzero, then the library root loop.  Returns v
    and the secular residual, or raises NoSurfaceModeError."""
    sc = derive_scales(m)
    grid = np.append(np.linspace(0.01 * sc.c2, 0.9999 * sc.c2, 512), sc.c2)
    r10_sq = 1.0 - (grid / sc.c1) ** 2
    r20_sq = 1.0 - (grid / sc.c2) ** 2
    vals = ((1.0 + sc.d) ** 2 * np.sqrt(r10_sq) * np.sqrt(r20_sq)
            - (r20_sq + sc.d) ** 2)
    hits = np.flatnonzero((vals[:-1] == 0.0) | (vals[:-1] * vals[1:] < 0.0))
    if hits.size == 0:
        raise NoSurfaceModeError("no sign change")
    i = hits[-1]
    v = bracketed_root(lambda u: secular_leading(m, u), float(grid[i]),
                       float(grid[i + 1]), float(vals[i]), float(vals[i + 1]),
                       1e-10 * sc.c2)
    return v, abs(secular_leading(m, v))


def scalar_scan_root(m, tol=1e-10):
    """The root search one `secular_leading` call per scan point: the
    bracket (grid[i], grid[i + 1]) of the largest sign change, and v."""
    sc = derive_scales(m)
    grid = [float(v) for v in np.linspace(0.01 * sc.c2, 0.9999 * sc.c2,
                                          512)] + [sc.c2]
    vals = [secular_leading(m, v) for v in grid]
    for i in range(len(grid) - 2, -1, -1):
        if vals[i] == 0.0:
            return (grid[i], grid[i + 1]), grid[i]
        if vals[i] * vals[i + 1] < 0.0:
            return (grid[i], grid[i + 1]), bracketed_root(
                lambda u: secular_leading(m, u), grid[i], grid[i + 1],
                vals[i], vals[i + 1], tol * sc.c2)
    raise AssertionError("no sign change")


@pytest.fixture
def root_solves(monkeypatch):
    """Record every call of the library root loop, from both of its callers,
    as (f, a, b, fa, fb, width, result, evaluations)."""
    calls = []
    loop = dispersion.bracketed_root

    def recording(f, a, b, fa, fb, width):
        evals = 0

        def counted(x):
            nonlocal evals
            evals += 1
            return f(x)

        x = loop(counted, a, b, fa, fb, width)
        calls.append((f, a, b, fa, fb, width, x, evals))
        return x

    monkeypatch.setattr(dispersion, "bracketed_root", recording)
    monkeypatch.setattr(asymptotic, "bracketed_root", recording)
    return calls


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

    def test_leaky_value_is_real_part(self, seed, sample_material):
        # Re[(1+d)^2 r10 r20 - (r20^2 + d)^2] with r20 = i sqrt((v/c2)^2 - 1)
        for m in [sample_material, *(m for _, m in material_draws(seed))]:
            sc = derive_scales(m)
            v = 1.1 * sc.c2
            r10 = cmath.sqrt(1.0 - (v / sc.c1) ** 2)
            r20 = 1j * math.sqrt((v / sc.c2) ** 2 - 1.0)
            r20sq = 1.0 - (v / sc.c2) ** 2
            want = ((1.0 + sc.d) ** 2 * r10 * r20 - (r20sq + sc.d) ** 2).real
            with pytest.warns(LeakyRegimeWarning):
                got = secular_leading(m, v)
            assert got == pytest.approx(want, rel=1e-12)

    def test_warns_only_above_c2(self, sample_material):
        sc = derive_scales(sample_material)
        with warnings.catch_warnings():
            warnings.simplefilter("error", LeakyRegimeWarning)
            assert secular_leading(sample_material, sc.c2) == -sc.d ** 2
        with pytest.warns(LeakyRegimeWarning):
            secular_leading(sample_material, math.nextafter(sc.c2, math.inf))

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
        tol = 1e-10   # the fixed root tolerance, relative to c2
        point = solve_rayleigh(sample_material)
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

    def test_surface_mode_across_material_space(self, seed):
        """Every valid material has its elastic root below c2.

        The secular function is positive just above v = 0 and equals -d^2 at
        c2, so a root always exists; from kappa/mu ~ 7.6 it lies above
        0.9999 c2 (the fixed kappa/mu = 16 draw guarantees one such case).
        A root within 1e-10 c2 leaves |secular| <= ~2e-10 / r20, and r20 at
        the root stays above ~1e-3 on this range: 1e-6 bounds it.
        """
        for ratios, m in material_draws(seed):
            point = solve_rayleigh(m)
            assert 0.0 < point.v < derive_scales(m).c2, ratios
            assert abs(secular_leading(m, point.v)) < 1e-6, ratios
            bc_slope_study(m, 2000.0, point.v)

    def test_array_scan_takes_the_scalar_bracket(self, seed, sample_material,
                                                 poisson_material,
                                                 study_material):
        """The numpy array scan, the oracle of `TestScanAgainstNumpyOracle`,
        may differ from the scalar one in the last bit (numpy squares by
        x*x, float ** 2 calls pow), but it picks the same bracket, so the
        library root loop returns the same v."""
        cases = [("sample", sample_material), ("poisson", poisson_material),
                 ("study", study_material), *material_draws(seed)]
        for name, m in cases:
            (a, b), want = scalar_scan_root(m)
            got, _ = numpy_scan_root(m)
            assert a <= got <= b and got == want, name

    def test_scan_takes_the_scalar_bracket(self, seed, sample_material,
                                           poisson_material, study_material):
        """The scan takes real roots with math.sqrt where `secular_leading`
        takes `_branch_sqrt`'s complex ones, but it picks the same bracket,
        so the library root loop returns the same v."""
        cases = [("sample", sample_material), ("poisson", poisson_material),
                 ("study", study_material), *material_draws(seed)]
        for name, m in cases:
            (a, b), want = scalar_scan_root(m)
            got = solve_rayleigh(m).v
            assert type(got) is float, name
            assert a <= got <= b and got == want, name


class TestScanAgainstNumpyOracle:
    """The scalar scan walks the oracle's grid from the top, so it must land
    on the oracle's bracket and return its root and residual bit for bit."""

    @staticmethod
    def draws(seed, n):
        """Materials over the four dimensionless groups: lambda/mu, kappa/mu
        (0, the classical limit d = 1, in one draw of 20), c4/c2 and
        a omega_c/c2, at absolute scales mu and rho that set the bits of
        c1, c2 and d.  Only the first two groups enter the root."""
        rng = np.random.default_rng(seed)
        groups = zip(rng.uniform(-0.95, 50.0, n),
                     np.where(rng.uniform(size=n) < 0.05, 0.0,
                              10.0 ** rng.uniform(-6.0, 3.0, n)),
                     10.0 ** rng.uniform(-2.0, 2.0, n),
                     10.0 ** rng.uniform(-4.0, 1.0, n),
                     10.0 ** rng.uniform(6.0, 11.0, n),
                     10.0 ** rng.uniform(2.0, 4.5, n))
        j = 1e-6
        for lam_mu, kappa_mu, c4_c2, a_wc_c2, mu, rho in groups:
            kappa = float(kappa_mu * mu)
            c2 = math.sqrt((mu + kappa) / rho)
            omega_c = math.sqrt(2.0 * kappa / (rho * j))
            yield (lam_mu, kappa_mu, c4_c2, a_wc_c2, mu, rho), MaterialParams(
                lambda_lame=float(lam_mu * mu), mu=float(mu), kappa=kappa,
                alpha_mp=1.0, beta_mp=1.0,
                gamma_mp=float(c4_c2 ** 2 * (mu + kappa) * j), rho=float(rho),
                j_inertia=j,
                a_nl=float(a_wc_c2 * c2 / omega_c) if kappa > 0 else 1e-4)

    def test_seeded_materials(self, seed):
        for groups, m in self.draws(seed, 3000):
            point = solve_rayleigh(m)
            assert (point.v, point.secular_residual) == numpy_scan_root(m), (
                groups)

    def test_scan_values_are_the_array_values(self, seed):
        # every point, not only the bracket the root loop is handed
        for groups, m in self.draws(seed + 1, 200):
            sc = derive_scales(m)
            grid = np.append(np.linspace(0.01 * sc.c2, 0.9999 * sc.c2, 512),
                             sc.c2)
            r20_sq = 1.0 - (grid / sc.c2) ** 2
            want = ((1.0 + sc.d) ** 2 * np.sqrt(1.0 - (grid / sc.c1) ** 2)
                    * np.sqrt(r20_sq) - (r20_sq + sc.d) ** 2)
            got = [dispersion._scan_secular(sc, u) for u in grid.tolist()]
            assert got == want.tolist(), groups

    def test_no_sign_change_raises(self, sample_material, monkeypatch):
        monkeypatch.setattr(dispersion, "_scan_secular", lambda sc, u: 1.0)
        with pytest.raises(NoSurfaceModeError, match="no elastic surface"):
            solve_rayleigh(sample_material)

    @pytest.mark.parametrize("i, zero", [(0, False), (5, True)])
    def test_bracket_low_on_the_grid(self, sample_material, monkeypatch,
                                     root_solves, i, zero):
        """A scan value u - cut: the walk from the top evaluates every point
        down to grid[i] and hands that bracket and its values to the root
        loop, which returns grid[i] itself where the value there is 0."""
        c2 = derive_scales(sample_material).c2
        grid = np.linspace(0.01 * c2, 0.9999 * c2, 512).tolist()
        cut = grid[i] if zero else 0.5 * (grid[i] + grid[i + 1])
        monkeypatch.setattr(dispersion, "_scan_secular",
                            lambda sc, u: u - cut)
        v = solve_rayleigh(sample_material).v
        _, a, b, fa, fb, *_ = root_solves[0]
        assert (a, b) == (grid[i], grid[i + 1])
        assert (fa, fb) == (grid[i] - cut, grid[i + 1] - cut)
        assert (v == grid[i]) is zero


class TestGeomspace:
    """`_geomspace` against numpy.geomspace."""

    @pytest.mark.parametrize("lo, hi, n", [(2e5, 2e6, 5), (3e5, 2e6, 6),
                                           (1e5, 1e6, 2), (1e5, 1e7, 7)])
    def test_golden_grids_are_numpy_bits(self, lo, hi, n):
        assert dispersion._geomspace(lo, hi, n) == np.geomspace(lo, hi, n).tolist()

    def test_seeded_grids(self, seed):
        """Exact ends; inside, 1e-13 relative.  An interior point is 10**y,
        so one ulp of y (numpy's vectorized log10 may round differently
        from the C library's) is up to about 70 ulps of the point."""
        rng = np.random.default_rng(seed)
        for _ in range(3000):
            lo = 10.0 ** rng.uniform(-3.0, 9.0)
            hi = lo * 10.0 ** rng.uniform(1e-6, 6.0)
            n = int(rng.integers(2, 200))
            got = dispersion._geomspace(lo, hi, n)
            want = np.geomspace(lo, hi, n)
            assert len(got) == n and type(got[1]) is float
            assert got[0] == want[0] == lo and got[-1] == want[-1] == hi
            np.testing.assert_allclose(got, want, rtol=1e-13, atol=0.0)


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
        amp = elastic_amplitudes(sample_material, point.v, 0.0)
        r10 = math.sqrt(1.0 - (point.v / sc.c1) ** 2)
        r20sq = 1.0 - (point.v / sc.c2) ** 2
        want = 1j * (r20sq + sc.d) / ((1.0 + sc.d) * r10)
        assert amp.P == pytest.approx(want, rel=1e-12)
        assert amp.Q == 1.0

    @pytest.mark.parametrize("eps", [0.0, 0.05, 0.2])
    def test_elastic_mode_never_rotates(self, sample_material, eps):
        v = solve_rayleigh(sample_material).v
        assert elastic_amplitudes(sample_material, v, eps).R == 0

    def test_micropolar_mode_rotates(self, sample_material):
        sc = derive_scales(sample_material)
        curve = sweep(sample_material, 1.5 * sc.omega_cutoff,
                      3.0 * sc.omega_cutoff, 3, "micropolar")
        point = curve.points[0]
        amp = micropolar_amplitudes(sample_material, point.v, point.omega,
                                    0.05)
        # R carries the secular expression, nonzero off the elastic root
        assert abs(amp.R) > 1e-3

    @pytest.mark.parametrize("eps", [0.0, 0.05, 0.2])
    def test_micropolar_amplitudes_match_docstring(self, seed, eps,
                                                   sample_material):
        # P = i (1+d) r20 (1 + (r10 - r20) c) / (r20^2 + d),
        # R = [(r20^2 + d)^2 - (1+d)^2 r10 r20] / (r20^2 + d)
        #     * (1 + (r30 - r20) c), c = eps - eps^2 r20; on the mode and off
        for m in [sample_material, *(m for _, m in material_draws(seed))]:
            sc = derive_scales(m)
            for omega in (1.5 * sc.omega_cutoff, 3.0 * sc.omega_cutoff):
                for v in (micropolar_velocity(m, omega), 0.5 * sc.c2):
                    r10 = cmath.sqrt(1.0 - (v / sc.c1) ** 2)
                    r20 = cmath.sqrt(1.0 - (v / sc.c2) ** 2)
                    r30 = cmath.sqrt(1.0 - (v / sc.c4) ** 2
                                     * (1.0 - (sc.omega_cutoff / omega) ** 2))
                    c = eps - eps * eps * r20
                    base = r20 * r20 + sc.d
                    want_p = (1j * (1.0 + sc.d) * r20 * (1.0 + (r10 - r20) * c)
                              / base)
                    want_r = ((base ** 2 - (1.0 + sc.d) ** 2 * r10 * r20)
                              / base * (1.0 + (r30 - r20) * c))
                    amp = micropolar_amplitudes(m, v, omega, eps)
                    assert amp.P == pytest.approx(want_p, rel=1e-12)
                    assert amp.R == pytest.approx(want_r, rel=1e-12)
                    assert amp.Q == 1.0

    @pytest.mark.parametrize("omega", [math.nan, math.inf, 0.0])
    def test_micropolar_needs_frequency(self, sample_material, omega):
        v = 0.5 * derive_scales(sample_material).c2
        with pytest.raises(ValueError,
                           match="omega must be positive and finite"):
            micropolar_amplitudes(sample_material, v, omega, 0.05)


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


def steep_flat_kinked(rng):
    """Monotone test functions with one sign change at r in (0, 1), named,
    in both orientations: high odd powers (flat at r), tanh(1e6 (x - r))
    (a step at double precision), a kinked piecewise-linear function whose
    slopes differ by up to 1e16, and jumps from -1 to +1 and from -inf to
    +inf (where the interpolated step is NaN)."""
    r = float(rng.uniform(0.0, 1.0))
    left, right = 10.0 ** rng.uniform(-8.0, 0.0, 2)
    cases = {
        "power3": lambda x: (x - r) ** 3,
        "power21": lambda x: (x - r) ** 21,
        "power51": lambda x: (x - r) ** 51,
        "tanh": lambda x: math.tanh(1e6 * (x - r)),
        "kink": lambda x: left * (x - r) if x < r else 1e8 * right * (x - r),
        "jump": lambda x: -1.0 if x < r else 1.0,
        "infinite": lambda x: -math.inf if x < r else math.inf,
    }
    for name, f in list(cases.items()):
        cases[name + "-"] = lambda x, f=f: -f(x)
    return r, cases


class TestBracketedRoot:
    def test_synthetic_functions(self, seed):
        """The result lies within width of the sign change (or is an exact
        zero of f, as where (x - r)^51 underflows), every step lies at
        least width/2 inside the current bracket, and the evaluations stay
        within 2n + 1, n those of plain bisection on the same bracket."""
        rng = np.random.default_rng(seed)
        for _ in range(40):
            r, cases = steep_flat_kinked(rng)
            a = r - float(rng.uniform(1e-3, 1.0))
            b = r + float(rng.uniform(1e-3, 1.0))
            width = (b - a) * 10.0 ** float(rng.uniform(-15.0, -1.0))
            for name, f in cases.items():
                steps = []

                def logged(x):
                    steps.append(x)
                    return f(x)

                fa, fb = f(a), f(b)
                x = bracketed_root(logged, a, b, fa, fb, width)
                label = (name, r, a, b, width)
                assert f(x) == 0.0 or abs(x - r) <= width, label
                # plain bisection's count on a function with no exact zero
                _, n = plain_bisection(lambda u: -1.0 if u < r else 1.0,
                                       a, b, -1.0, width)
                assert len(steps) <= 2 * n + 1, (label, len(steps), n)
                lo, hi, flo = a, b, fa
                for u in steps:
                    assert lo + 0.5 * width <= u <= hi - 0.5 * width, label
                    if (f(u) < 0.0) == (flo < 0.0):
                        lo, flo = u, f(u)
                    else:
                        hi = u

    def test_exact_zero_ends_the_search(self):
        calls = []

        def f(x):
            calls.append(x)
            return x - 0.5

        assert bracketed_root(f, 0.0, 1.0, -0.5, 0.5, 1e-12) == 0.5
        assert calls == [0.5]
        assert bracketed_root(f, 0.5, 1.0, 0.0, 0.5, 1e-12) == 0.5
        assert bracketed_root(f, 0.0, 0.5, -0.5, 0.0, 1e-12) == 0.5
        assert calls == [0.5]

    def test_same_signs_rejected(self):
        with pytest.raises(ValueError, match="sign"):
            bracketed_root(lambda x: x, 1.0, 2.0, 1.0, 2.0, 1e-6)

    def test_report_evaluation_budget(self, root_solves, sample_material):
        """One `mnw residuals` report (eps = 0.1) solves four roots: the
        classical one and three first-order ones.  Plain bisection took 151
        evaluations for them."""
        residual_report_json(sample_material, 0.1 / sample_material.a_nl,
                             0.1)
        assert len(root_solves) == 4
        assert sum(call[-1] for call in root_solves) <= 45

    def test_roots_agree_with_plain_bisection(self, seed, root_solves,
                                              sample_material,
                                              poisson_material,
                                              study_material):
        """Over the fixture materials and the sampled material space, every
        root of both callers lies within width of plain bisection's on the
        same bracket, in at most 20 evaluations."""
        cases = [sample_material, poisson_material, study_material,
                 *(m for _, m in material_draws(seed))]
        for m in cases:
            point = solve_rayleigh(m)
            bc_slope_study(m, 2000.0, point.v)
        assert len(root_solves) == 4 * len(cases)
        for f, a, b, fa, _, width, x, evals in root_solves:
            want, _ = plain_bisection(f, a, b, fa, width)
            assert abs(x - want) <= width, (a, b, x, want)
            assert evals <= 20, (a, b, evals)
