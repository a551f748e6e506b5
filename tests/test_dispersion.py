import cmath
import math
from fractions import Fraction

import numpy as np
import pytest

from conftest import material_draws
from mnwaves import asymptotic, dispersion
from mnwaves.asymptotic import bc_slope_study, residual_report_json
from mnwaves.dispersion import (
    CutoffError,
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
from mnwaves.wavefield import _branch_sqrt, _r10_squared, leading_exponents


def plain_bisection(f, a, b, fa, width):
    """Midpoint of a sign-change bracket [a, b] of f (fa = f(a)) halved until
    at most width wide, and the number of evaluations of f.  Written apart
    from the library: the oracle's root loop and the reference that
    `bracketed_root` is checked against.  With no double strictly inside
    the bracket it stops on adjacent doubles, as width 0 asks."""
    evals = 0
    while b - a > width:
        mid = 0.5 * (a + b)
        if not a < mid < b:
            break
        fm = f(mid)
        evals += 1
        if fm == 0.0:
            return mid, evals
        if (fm < 0.0) == (fa < 0.0):
            a, fa = mid, fm
        else:
            b = mid
    return 0.5 * (a + b), evals


def _poly_mul(*polys):
    """Product of polynomials given as coefficient lists, highest first."""
    out = [1]
    for p in polys:
        prod = [0] * (len(out) + len(p) - 1)
        for i, a in enumerate(out):
            for j, b in enumerate(p):
                prod[i + j] += a * b
        out = prod
    return out


def _poly_sub(p, r):
    r = [0] * (len(p) - len(r)) + list(r)
    return [a - b for a, b in zip(p, r)]


def _poly_rem(p, r):
    """Remainder of p divided by r, exact on Fractions."""
    p = list(p)
    while len(p) >= len(r):
        c = Fraction(p[0]) / r[0]
        p = [a - c * b for a, b in zip(p, list(r) + [0] * (len(p) - len(r)))]
        p.pop(0)
    while p and p[0] == 0:
        p.pop(0)
    return p


def _sturm_count(p, a, b):
    """Number of distinct real roots of p in (a, b], by Sturm's theorem."""
    chain = [p, [c * (len(p) - 1 - i) for i, c in enumerate(p[:-1])]]
    while len(chain[-1]) > 1:
        rem = _poly_rem(chain[-2], chain[-1])
        if not rem:
            break
        chain.append([-c for c in rem])

    def changes(x):
        vals = [sum(c * x ** (len(q) - 1 - i) for i, c in enumerate(q))
                for q in chain]
        signs = [v > 0 for v in vals if v != 0]
        return sum(s != t for s, t in zip(signs, signs[1:]))

    return changes(Fraction(a)) - changes(Fraction(b))


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

    def test_real_branch_on_zero_to_c2(self, seed):
        """On 0 <= v <= c2 the value is bit for bit the real part of the
        complex-branch evaluation (`_branch_sqrt` of each radicand), over
        seeded materials with and without kappa; it is -d^2 at c2 and a
        ValueError one double above."""
        rng = np.random.default_rng(seed)
        materials = [m for _, m in material_draws(seed)]
        materials += [MaterialParams(lambda_lame=lm * 1e9, mu=1e9,
                                     kappa=0.0, alpha_mp=1.0, beta_mp=1.0,
                                     gamma_mp=100.0, rho=1000.0,
                                     j_inertia=1e-6, a_nl=0.0)
                      for lm in rng.uniform(-0.95, 20.0, 10).tolist()]
        for m in materials:
            sc = derive_scales(m)
            for v in [0.0, sc.c2, *rng.uniform(0.0, sc.c2, 20).tolist()]:
                x = 1.0 - (v / sc.c2) ** 2
                want = dispersion._secular(sc.d,
                                           _branch_sqrt(_r10_squared(m, x)),
                                           _branch_sqrt(x), x).real
                assert secular_leading(m, v) == want, (m, v)
            assert secular_leading(m, sc.c2) == -sc.d ** 2
            with pytest.raises(ValueError, match="c2"):
                secular_leading(m, math.nextafter(sc.c2, math.inf))

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
        # the root is narrowed to adjacent doubles of x = 1 - (v/c2)^2; a
        # step of 1e-12 c2 either side of v moves the secular function by
        # 4.7e-12, far above its rounding near the root
        sc = derive_scales(sample_material)
        point = solve_rayleigh(sample_material)
        assert abs(secular_leading(sample_material, point.v)) < 1e-15
        below = secular_leading(sample_material, point.v - 1e-12 * sc.c2)
        above = secular_leading(sample_material, point.v + 1e-12 * sc.c2)
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
        The root is exact in x = r20^2 up to rounding; v = c2 sqrt(1 - x)
        and the r20^2 that `secular_leading` forms from it are each off by
        a few ulps, which the 1/(2 r20) slope of r20 in x amplifies, and
        r20 at the root stays above ~1e-3 on this range: 1e-12 bounds it
        (at most 6.3e-14 measured over seeds 0-49).
        """
        for ratios, m in material_draws(seed):
            point = solve_rayleigh(m)
            assert 0.0 < point.v < derive_scales(m).c2, ratios
            assert abs(secular_leading(m, point.v)) < 1e-12, ratios
            bc_slope_study(m, 2000.0)

    def test_no_sign_change_raises(self, sample_material, monkeypatch):
        # a fresh instance: the shared fixture may already keep its root
        monkeypatch.setattr(dispersion, "_secular", lambda *args: -1.0)
        with pytest.raises(NoSurfaceModeError, match="no elastic surface"):
            solve_rayleigh(sample_material.replace())

    @pytest.mark.parametrize("kappa_mu", [1.0, 16.0, 100.0, 482.0, 1000.0,
                                          5000.0, 1e5])
    def test_root_against_mpmath(self, sample_material, kappa_mu):
        """v within 2e-16 relative of a 60-digit root, found by bisection
        in x = r20^2 on the unrounded moduli, as kappa/mu drives the root to
        c2 (1 - v/c2 = 2e-12 at 5000).  r20 from the returned v keeps 1e-10
        up to kappa/mu = 100; beyond, re-deriving it from v cancels."""
        mpmath = pytest.importorskip("mpmath")
        mu = 2e9
        m = MaterialParams(
            lambda_lame=mu, mu=mu, kappa=kappa_mu * mu,
            alpha_mp=sample_material.alpha_mp, beta_mp=sample_material.beta_mp,
            gamma_mp=sample_material.gamma_mp, rho=sample_material.rho,
            j_inertia=sample_material.j_inertia, a_nl=sample_material.a_nl)
        point = solve_rayleigh(m)
        with mpmath.workdps(60):
            lam, mu_, kappa, rho = (mpmath.mpf(t) for t in
                                    (m.lambda_lame, m.mu, m.kappa, m.rho))
            d = mu_ / (mu_ + kappa)
            q = (mu_ + kappa) / (lam + 2 * mu_ + kappa)
            lo, hi = mpmath.mpf(0), mpmath.mpf(1) - mpmath.mpf("0.01") ** 2
            for _ in range(220):
                x = (lo + hi) / 2
                f = ((1 + d) ** 2 * mpmath.sqrt(1 - q * (1 - x))
                     * mpmath.sqrt(x) - (x + d) ** 2)
                lo, hi = (x, hi) if f < 0 else (lo, x)
            v = mpmath.sqrt((mu_ + kappa) / rho) * mpmath.sqrt(1 - lo)
            r20 = mpmath.sqrt(lo)
        assert abs(point.v - v) <= 2e-16 * v
        if kappa_mu <= 100.0:
            r20_got = leading_exponents(m, point.v)[1].real
            assert abs(r20_got - r20) <= 1e-10 * r20

    def test_root_read_from_x_where_v_rounds_to_c2(self, sample_material,
                                                   root_solves):
        """At kappa/mu = 1e6 the root x = r20^2 is positive but below half
        an ulp of 1, so v = c2 sqrt(1 - x) is c2 itself; the residual and
        admissibility come from x, where the mode decays."""
        mu = 2e9
        m = MaterialParams(
            lambda_lame=mu, mu=mu, kappa=1e6 * mu,
            alpha_mp=sample_material.alpha_mp, beta_mp=sample_material.beta_mp,
            gamma_mp=sample_material.gamma_mp, rho=sample_material.rho,
            j_inertia=sample_material.j_inertia, a_nl=sample_material.a_nl)
        point = solve_rayleigh(m)
        [(f, *_, x, _)] = root_solves
        assert 0.0 < x and point.v == derive_scales(m).c2
        assert point.admissible
        assert point.secular_residual == abs(f(x))

    def test_one_root_of_the_cubic_in_the_bracket(self, seed):
        """Squared, the relation is (1+d)^4 (1 - q (1 - x)) x = (x + d)^4,
        q = (c2/c1)^2; with its trivial root x = 1 (v = 0) divided out it
        is the cubic x^3 + (1+4d) x^2 + (1+4d+6d^2 - q (1+d)^4) x - d^4.
        On seeded (q, d), in exact rationals, the division leaves no
        remainder and Sturm's theorem counts one root in (0, 1), so the
        single bracket of `solve_rayleigh` holds the one sign change."""
        rng = np.random.default_rng(seed)
        lam_mu = rng.uniform(-0.99, 50.0, 1000)
        kappa_mu = np.where(rng.uniform(size=1000) < 0.05, 0.0,
                            10.0 ** rng.uniform(-6.0, 5.0, 1000))
        for lm, km in zip(lam_mu.tolist(), kappa_mu.tolist()):
            q = Fraction((1.0 + km) / (lm + 2.0 + km))
            d = Fraction(1.0 / (1.0 + km))
            cubic = [1, 1 + 4 * d, 1 + 4 * d + 6 * d ** 2 - q * (1 + d) ** 4,
                     -d ** 4]
            quartic = _poly_sub(_poly_mul([1, d], [1, d], [1, d], [1, d]),
                                _poly_mul([(1 + d) ** 4 * q,
                                           (1 + d) ** 4 * (1 - q)], [1, 0]))
            assert _poly_mul(cubic, [1, -1]) == quartic, (lm, km)
            assert _sturm_count(cubic, 0, 1) == 1, (lm, km)


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

    def test_cutoff_edge(self, seed, sample_material):
        """At omega_c and the first ulps above it, `micropolar_velocity`
        and `sweep` agree: both propagate with the same finite v, or the
        one raises `CutoffError` where the other holds a non-propagating
        row; nothing else is raised."""
        for m in [sample_material, *(m for _, m in material_draws(seed))]:
            omega = derive_scales(m).omega_cutoff
            with pytest.raises(CutoffError):
                micropolar_velocity(m, omega)
            for _ in range(5):
                row = sweep(m, omega, 2.0 * omega, 2, "micropolar").points[0]
                assert row.omega == omega
                try:
                    v = micropolar_velocity(m, omega)
                except CutoffError:
                    assert not row.propagating and not row.admissible
                else:
                    assert math.isfinite(v) and row.v == v, (m, omega)
                omega = math.nextafter(omega, math.inf)

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

    def test_csv_without_rotation_branch(self, poisson_material):
        # kappa = 0 has no branch 3: its r3 columns print nan, nan
        curve = sweep(poisson_material, 1e5, 1e6, 3, "elastic")
        rows = curve_to_csv(curve).splitlines()
        header = rows[0].split(",")
        cols = header.index("r3_re"), header.index("r3_im")
        assert len(rows) == 4
        for row in rows[1:]:
            fields = row.split(",")
            assert [fields[i] for i in cols] == ["nan", "nan"], row
            assert fields[header.index("r2_re")] != "nan", row

    def test_csv_prints_both_parts_of_every_exponent(self, sample_material):
        """Each exponent has an _re and an _im column; where non-locality
        turns r2 imaginary the row prints r2_re = 0.0 and the imaginary
        part, which a real-part column alone hid."""
        curve = sweep(sample_material, 1e5, 1e7, 7, "elastic")
        header, *rows = curve_to_csv(curve).splitlines()
        assert header == ("omega,k,v,mode,r1_re,r1_im,r2_re,r2_im,r3_re,"
                          "r3_im,secular_residual,admissible")
        for point, row in zip(curve.points, rows):
            fields = dict(zip(header.split(","), row.split(",")))
            de = point.exponents
            for name in ("r1", "r2", "r3"):
                r = getattr(de, name)
                assert fields[name + "_re"] == repr(r.real), row
                assert fields[name + "_im"] == repr(r.imag), row
        last = dict(zip(header.split(","), rows[-1].split(",")))
        assert last["r2_re"] == "0.0" and float(last["r2_im"]) > 0.0
        assert last["admissible"] == "false"

    def test_deterministic(self, sample_material):
        a = sweep(sample_material, 1e5, 1e6, 5, "elastic")
        b = sweep(sample_material, 1e5, 1e6, 5, "elastic")
        assert curve_to_csv(a) == curve_to_csv(b)


class TestElasticRowsAtTheRoot:
    # (kappa/mu, omega in rad/s) with lambda = mu and the sample gamma, j,
    # rho and a; whether the row is admissible
    TABLE = ((1e3, 1e5, False), (1e4, 1e3, False), (1e5, 1e3, False),
             (1e5, 1.0, True))

    @staticmethod
    def _check_rows(m, curve, x):
        """r2^2 = (x - eps^2 w)/(1 - eps^2 w), w = 1 - x, at the root's x,
        within 1e-12 relative; admissible exactly where Re r2 > 0."""
        w = 1.0 - x
        for point in curve.points:
            e2 = (m.a_nl * point.k) ** 2
            want = (x - e2 * w) / (1.0 - e2 * w)
            r2 = point.exponents.r2
            assert abs(r2 * r2 - want) <= 1e-12 * abs(want), (m, point)
            assert point.admissible == (r2.real > 0.0), (m, point)

    def test_rows_over_the_material_draws(self, root_solves):
        """Over `material_draws` seeds 0-2 and eps = a k from 1e-4 to 0.5,
        where r2 turns imaginary once eps^2 (1 - x) > x (Eringen's
        non-local shear dispersion), every elastic row carries the
        exponents of the root's own x."""
        for seed in range(3):
            for _, m in material_draws(seed):
                c2 = derive_scales(m).c2
                curve = sweep(m, 1e-4 * c2 / m.a_nl, 0.5 * c2 / m.a_nl, 9)
                [(*_, x, _)] = root_solves
                self._check_rows(m, curve, x)
                root_solves.clear()

    @pytest.mark.parametrize("kappa_mu, omega, admissible", TABLE)
    def test_rows_near_c2(self, sample_material, root_solves, kappa_mu,
                          omega, admissible):
        """Where x is 5e-10 to 5e-16, v = c2 sqrt(1 - x) keeps too few of
        its digits: at kappa/mu = 1e5 it gives back x = 6.7e-16, not 5.0e-16,
        and r2 with it.  The rows take x from the root instead."""
        m = sample_material.replace(lambda_lame=sample_material.mu,
                                    kappa=kappa_mu * sample_material.mu)
        curve = sweep(m, omega, 2.0 * omega, 2)
        [(*_, x, _)] = root_solves
        self._check_rows(m, curve, x)
        assert curve.points[0].admissible == admissible


class TestCurveInvariants:
    def test_frequencies_must_increase(self, sample_material):
        from mnwaves.dispersion import DispersionCurve
        curve = sweep(sample_material, 1e5, 1e6, 3, "elastic")
        with pytest.raises(ValueError):
            DispersionCurve(points=tuple(reversed(curve.points)))


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

    def test_adjacent_doubles_at_width_zero(self, seed):
        """With width 0 the result is an exact zero of f or lies on
        adjacent doubles where f changes sign, every step lies strictly
        inside the current bracket, and the evaluations stay within
        2n + 1, n those of plain bisection to adjacent doubles."""
        rng = np.random.default_rng(seed)
        for _ in range(40):
            r, cases = steep_flat_kinked(rng)
            a = r - float(rng.uniform(1e-3, 1.0))
            b = r + float(rng.uniform(1e-3, 1.0))
            for name, f in cases.items():
                steps = []

                def logged(x):
                    steps.append(x)
                    return f(x)

                fa, fb = f(a), f(b)
                x = bracketed_root(logged, a, b, fa, fb, 0.0)
                label = (name, r, a, b)
                fx = f(x)
                assert fx == 0.0 or any(
                    (f(y) < 0.0) != (fx < 0.0)
                    for y in (math.nextafter(x, -math.inf),
                              math.nextafter(x, math.inf))), label
                _, n = plain_bisection(lambda u: -1.0 if u < r else 1.0,
                                       a, b, -1.0, 0.0)
                assert len(steps) <= 2 * n + 1, (label, len(steps), n)
                lo, hi, flo = a, b, fa
                for u in steps:
                    assert lo < u < hi, label
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
        """One `mnw residuals` report (eps = 0.1) solves four roots, each
        to adjacent doubles in x = r20^2: the classical one, once, kept on
        the material for the report and its three first-order solves, and
        the three first-order ones.  They take 15 evaluations and 11, 11
        and 13 where plain bisection on the same brackets takes 52 and 53,
        53 and 54; each stays within the 2n + 1 of `bracketed_root`.  A
        second report on the same material solves no classical root."""
        m = sample_material.replace()   # a fresh instance keeps no root
        residual_report_json(m, 0.1 / m.a_nl, 0.1)
        assert len(root_solves) == 4
        assert [call[1:3] == (0.0, 1.0 - 0.01 ** 2)
                for call in root_solves] == [True, False, False, False]
        for f, a, b, fa, _, width, _, evals in root_solves:
            assert width == 0.0
            _, n = plain_bisection(f, a, b, fa, width)
            assert evals <= 2 * n + 1, (a, b, evals, n)
        residual_report_json(m, 0.1 / m.a_nl, 0.1)
        assert len(root_solves) == 7
        assert not any(call[1:3] == (0.0, 1.0 - 0.01 ** 2)
                       for call in root_solves[4:])

    def test_roots_agree_with_plain_bisection(self, seed, root_solves,
                                              sample_material,
                                              poisson_material,
                                              study_material):
        """Over the fixture materials and the sampled material space, every
        root, the elastic one and the first-order ones alike (width 0, in
        x = r20^2), sits, like plain bisection's on the same bracket, where
        the computed f changes sign; that happens only within f's rounding
        (a few ulps of its O(1) terms, ~2e-15) over its slope of the exact
        root, so the two agree within 2e-14 (1.9e-15 and 2.2e-15 measured
        over seeds 0-49).  The elastic root takes at most 30 evaluations
        (29 measured over the 12 300 solves of seeds 0-299, 14.5 on
        average); every root stays within the 2n + 1 of `bracketed_root`,
        n those of plain bisection (the first-order roots took 14.6 on
        average and at most 46 over seeds 0-49, where n is 44-70).  Each
        material solves its elastic root once; its three first-order
        solves reuse it."""
        # fresh instances, so that no root is kept from an earlier test
        cases = [sample_material.replace(), poisson_material.replace(),
                 study_material.replace(),
                 *(m for _, m in material_draws(seed))]
        for m in cases:
            solve_rayleigh(m)
            bc_slope_study(m, 2000.0)
        assert len(root_solves) == 4 * len(cases)
        assert sum(call[1:3] == (0.0, 1.0 - 0.01 ** 2)
                   for call in root_solves) == len(cases)
        for f, a, b, fa, _, width, x, evals in root_solves:
            assert width == 0.0
            want, n = plain_bisection(f, a, b, fa, width)
            assert abs(x - want) <= 2e-14, (a, b, x, want)
            assert evals <= 2 * n + 1, (a, b, evals, n)
            if (a, b) == (0.0, 1.0 - 0.01 ** 2):
                assert evals <= 30, (a, b, evals)
