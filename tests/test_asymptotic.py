import json
import math

import numpy as np
import pytest

from conftest import GOLDEN_DIR, fit_slope, material_draws
from mnwaves import asymptotic, dispersion
from mnwaves.asymptotic import (
    bc_residual_order,
    boundary_operator,
    bc_slope_study,
    equivalence_residual_elastic,
    equivalence_residual_micropolar,
    extra_bc_residual,
    first_order_elastic_solution,
    residual_report_json,
)
from mnwaves.dispersion import (
    bracketed_root,
    elastic_amplitudes,
    micropolar_velocity,
    secular_leading,
    solve_rayleigh,
)
from mnwaves.material import derive_scales
from mnwaves.wavefield import (
    Amplitudes,
    DecayExponents,
    ModeParams,
    ModeSolution,
    decay_exponents,
    stress_branch_coeffs,
)


def _surface_stress(sol: ModeSolution, comp: str) -> complex:
    """Dimensionless surface value of one stress row, summed over branches."""
    rows = stress_branch_coeffs(sol.m, sol.de, sol.mp.k)
    amps = (sol.amp.P, sol.amp.Q, sol.amp.R)
    return sum(c * a for c, a in zip(rows[comp], amps))


def _printed_mode(m, k: float, eps: float) -> ModeSolution:
    """Elastic mode with the closed-form amplitude ratios at the leading root."""
    root = solve_rayleigh(m)
    omega = root.v * k
    mp = ModeParams(k=k, omega=omega, v=root.v, eps=eps)
    de = decay_exponents(m, mp)
    amp = elastic_amplitudes(m, root.v, eps)
    return ModeSolution(m=m, mp=mp, amp=amp, de=de)


class TestEquivalenceElastic:
    def test_vanishes_at_rest(self, sample_material):
        # r10 = r20 = 1 collapses the bracket algebraically
        assert abs(equivalence_residual_elastic(sample_material, 0.0, 1.0)) \
            < 1e-12

    def test_nonzero_bracket_at_the_root(self, sample_material):
        # kappa/mu = 0.1 material at its elastic-mode root
        m = sample_material
        sc = derive_scales(m)
        root = solve_rayleigh(m)
        coeff = equivalence_residual_elastic(m, root.v, 1.0)
        r10 = math.sqrt(1.0 - (root.v / sc.c1) ** 2)
        bracket = coeff * 2.0 * (1.0 + sc.d) ** 2 * r10  # k = 1
        assert abs(bracket) > 1e-3

    @pytest.mark.parametrize("k", [1.0, 10.0])
    def test_cubic_wavenumber_scaling(self, sample_material, k):
        m = sample_material
        root = solve_rayleigh(m)
        base = equivalence_residual_elastic(m, root.v, 1.0)
        scaled = equivalence_residual_elastic(m, root.v, k)
        assert scaled == pytest.approx(k ** 3 * base, rel=1e-12)

    @pytest.mark.parametrize("k", [math.nan, math.inf, 0.0, -1.0])
    def test_needs_wavenumber(self, sample_material, k):
        v = solve_rayleigh(sample_material).v
        with pytest.raises(ValueError, match="k must be positive and finite"):
            equivalence_residual_elastic(sample_material, v, k)


class TestEquivalenceMicropolar:
    def test_vanishes_at_elastic_root(self, sample_material):
        m = sample_material
        root = solve_rayleigh(m)
        value = equivalence_residual_micropolar(m, root.v, 1.0)
        assert abs(value) < 1e-9

    def test_nonzero_at_micropolar_velocity(self, sample_material):
        m = sample_material
        sc = derive_scales(m)
        omega = 2.0 * sc.omega_cutoff
        v = micropolar_velocity(m, omega)
        k = omega / v
        value = equivalence_residual_micropolar(m, v, k)
        assert abs(value) > 1e-6 * k ** 3

    @pytest.mark.parametrize("k", [math.nan, math.inf, 0.0, -1.0])
    def test_needs_wavenumber(self, sample_material, k):
        v = 0.5 * derive_scales(sample_material).c2
        with pytest.raises(ValueError, match="k must be positive and finite"):
            equivalence_residual_micropolar(sample_material, v, k)

    def test_identity_with_secular_function(self, sample_material, seed):
        # same algebra, two code paths, twenty random velocities
        m = sample_material
        sc = derive_scales(m)
        rng = np.random.default_rng(seed)
        k = 137.0
        for v_frac in rng.uniform(0.05, 0.95, 20):
            v = float(v_frac) * sc.c2
            got = equivalence_residual_micropolar(m, v, k)
            r20sq = 1.0 - (v / sc.c2) ** 2
            want = k ** 3 * secular_leading(m, v) / (r20sq + sc.d)
            assert got.real == pytest.approx(want, rel=1e-12)
            assert got.imag == 0.0


class TestBcResidualOrder:
    def test_classical_solution_satisfies_classical_conditions(
            self, seed, poisson_material, sample_material):
        """At eps = 0 the elastic mode at its root meets the classical
        conditions across the material space.  The sigma33 row keeps what
        the root, exact in x = r20^2 up to rounding, leaves of the secular
        function once v is re-derived from x (at most 6.3e-14 over the
        draws of seeds 0-49, 2.2e-16 on the Poisson solid); Pi32 has no
        rotation branch and is exactly 0."""
        sol = _printed_mode(poisson_material, 100.0, 0.0)
        assert all(abs(c) < 1e-15 for c in bc_residual_order(sol, 0))
        for m in (sample_material, *(m for _, m in material_draws(seed))):
            triple = bc_residual_order(_printed_mode(m, 100.0, 0.0), 0)
            assert all(abs(c) < 1e-12 for c in triple), m
            assert triple[2] == 0, m

    def test_zero_amplitudes(self, sample_material):
        sol = _printed_mode(sample_material, 100.0, 0.0)
        zero = ModeSolution(m=sol.m, mp=sol.mp,
                            amp=Amplitudes(0.0, 0.0, 0.0), de=sol.de)
        assert bc_residual_order(zero, 0) == (0, 0, 0)
        assert bc_residual_order(zero, 2) == (0, 0, 0)

    def test_order_one_shifts_by_half_chi_derivative(self, sample_material):
        printed = _printed_mode(sample_material, 2000.0, 0.1)
        sol = ModeSolution(m=printed.m, mp=printed.mp,
                           amp=Amplitudes(printed.amp.P, 1.0, 0.3j),
                           de=printed.de)
        zero_order = bc_residual_order(sol, 0)
        first_order = bc_residual_order(sol, 1)
        half = 0.5 * sol.mp.eps * 1j
        couple_shift = half * _surface_stress(sol, "pi12")
        assert couple_shift != 0
        assert first_order[0] == (zero_order[0]
                                  - half * _surface_stress(sol, "sigma11"))
        assert first_order[1] == zero_order[1]
        assert first_order[2] == zero_order[2] - couple_shift

    def test_decoupled_limit_rejects_rotation(self, poisson_material):
        sol = _printed_mode(poisson_material, 100.0, 0.0)
        rotated = ModeSolution(m=sol.m, mp=sol.mp,
                               amp=Amplitudes(sol.amp.P, sol.amp.Q, 0.1),
                               de=sol.de)
        with pytest.raises(ValueError, match="R must vanish"):
            bc_residual_order(rotated, 2)

    def test_rejects_unknown_order(self, sample_material):
        sol = _printed_mode(sample_material, 100.0, 0.0)
        with pytest.raises(ValueError):
            bc_residual_order(sol, 3)


class TestExtraBc:
    def test_local_limit_is_bare_surface_value(self, sample_material):
        from mnwaves.wavefield import nonlocal_stresses
        sol = _printed_mode(sample_material, 2000.0, 0.0)
        pair = extra_bc_residual(sol)
        st = nonlocal_stresses(sol.amp, sol.de, sol.mp, sol.m, 0.0, 0.0)
        norm = sol.mp.k ** 2 * (sol.m.mu + sol.m.kappa)
        # at a = 0 the operator is the identity on the bare surface values
        assert pair[0] == pytest.approx(st.sigma11 / norm, rel=1e-12)
        assert pair[1] == st.pi12 == 0

    def test_second_component_vanishes_without_rotation(self, sample_material):
        sol = _printed_mode(sample_material, 2000.0, 0.1)
        assert extra_bc_residual(sol)[1] == 0

    def test_shrinks_with_eps(self, sample_material):
        eps_values = (0.2, 0.1, 0.05)
        mags = []
        for eps in eps_values:
            sol = _printed_mode(sample_material, 2000.0, eps)
            mags.append(abs(extra_bc_residual(sol)[0]))
        assert fit_slope(eps_values, mags) >= 1.0

    def test_operator_on_nonlocal_stresses(self, sample_material):
        """boundary_operator on tau11 and M12, the sigma11 and pi12 slots of
        `nonlocal_stresses` (R != 0):
        the surface value and the eta-slope by a second-order one-sided
        difference, per k^2 (mu+kappa) and per k (mu+kappa)."""
        from mnwaves.wavefield import nonlocal_stresses
        printed = _printed_mode(sample_material, 2000.0, 0.1)
        sol = ModeSolution(m=printed.m, mp=printed.mp,
                           amp=Amplitudes(printed.amp.P, 1.0, 0.3j),
                           de=printed.de)
        k, mk, eps = sol.mp.k, sol.m.mu + sol.m.kappa, sol.mp.eps
        h = 1e-6  # step in eta = k z
        states = [nonlocal_stresses(sol.amp, sol.de, sol.mp, sol.m, 0.0,
                                    n * h / k) for n in range(3)]
        got = extra_bc_residual(sol)
        for comp, norm, value in (("sigma11", k * k * mk, got[0]),
                                  ("pi12", k * mk, got[1])):
            f0, f1, f2 = (getattr(st, comp) / norm for st in states)
            slope = (-3.0 * f0 + 4.0 * f1 - f2) / (2.0 * h)
            want = boundary_operator(f0, slope, eps)
            assert want != 0
            assert value == pytest.approx(want, rel=1e-7), comp


class TestBcResidualRefined:
    def test_local_reduction_is_exact(self, sample_material):
        # a_nl = 0: refined and classical coincide on the same path
        sol = _printed_mode(sample_material, 2000.0, 0.0)
        classical = bc_residual_order(sol, 0)
        refined = bc_residual_order(sol, 2)
        assert all(a == b for a, b in zip(classical, refined))

    def test_linearity_in_amplitudes(self, sample_material):
        sol = _printed_mode(sample_material, 2000.0, 0.1)
        doubled = ModeSolution(
            m=sol.m, mp=sol.mp,
            amp=Amplitudes(2.0 * sol.amp.P, 2.0 * sol.amp.Q, 2.0 * sol.amp.R),
            de=sol.de)
        for op in (lambda s: bc_residual_order(s, 0),
                   lambda s: bc_residual_order(s, 1),
                   lambda s: bc_residual_order(s, 2),
                   extra_bc_residual):
            base = op(sol)
            twice = op(doubled)
            for a, b in zip(base, twice):
                assert b == pytest.approx(2.0 * a, rel=1e-14, abs=1e-300)

    def test_slope_hierarchy(self, study_material):
        """Classical conditions miss at O(eps); refined ones at O(eps^2)."""
        study = bc_slope_study(study_material, 2000.0)
        assert study["classical"] >= 0.9
        assert study["refined"] >= 1.8

    def test_refined_adds_exactly_order_eps_squared(self, sample_material):
        """With de and the amplitudes fixed (R != 0), order 2 differs from
        order 1 by eps^2 times an eps-free term on every row, the couple
        row included: order 1 carries all the O(eps) terms."""
        sc = derive_scales(sample_material)
        v = 0.3 * sc.c2
        omega = 3.0 * sc.omega_cutoff
        mp = ModeParams(k=omega / v, omega=omega, v=v, eps=0.1)
        de = decay_exponents(sample_material, mp)
        amp = Amplitudes(0.4 + 0.3j, 1.0, 0.2j)
        scaled = []
        for eps in (0.1, 0.05):
            sol = ModeSolution(m=sample_material, mp=mp.replace(eps=eps),
                               amp=amp, de=de)
            first = bc_residual_order(sol, 1)
            refined = bc_residual_order(sol, 2)
            scaled.append([(b - a) / eps ** 2 for a, b in zip(first, refined)])
        for coarse, fine in zip(*scaled):
            assert coarse != 0
            assert fine == pytest.approx(coarse, rel=1e-9)


class TestFirstOrderSolution:
    def test_satisfies_first_order_conditions_exactly(self, study_material):
        eps = 0.1
        sol = first_order_elastic_solution(study_material, 2000.0, eps)
        first = bc_residual_order(sol, 0)
        corrected = (_surface_stress(sol, "sigma31")
                     - 0.5 * eps * 1j * _surface_stress(sol, "sigma11"))
        assert abs(corrected) < 1e-10
        assert abs(first[1]) < 1e-12  # sigma33 row solved exactly
        assert first[2] == 0          # no rotation branch

    @pytest.mark.parametrize("eps", [0.2, 0.1, 0.05])
    def test_first_order_row_vanishes(self, study_material, eps):
        sol = first_order_elastic_solution(study_material, 2000.0, eps)
        assert abs(bc_residual_order(sol, 1)[0]) < 1e-10

    def test_eps_is_explicit_in_velocity(self, sample_material):
        """At a fixed solved state the order-1 sigma31 row is A + eps B, and
        -A/B at the corrected velocity gives back the eps it was solved at."""
        def row(sol, eps):
            return bc_residual_order(sol.replace(mp=sol.mp.replace(eps=eps)),
                                     1)[0]

        for eps in (0.2, 0.1, 0.05, 0.01):
            sol = first_order_elastic_solution(sample_material, 2000.0, eps)
            a, half, one = row(sol, 0.0), row(sol, 0.5), row(sol, 1.0)
            b = one - a
            assert abs(half - (a + 0.5 * b)) <= 1e-12 * abs(b)
            assert abs(-a / b - eps) <= 1e-9 * eps

    def test_velocity_shift_matches_first_order_theory(self,
                                                       sample_material):
        """The order-1 sigma31 row is A(v) + eps B(v) with A(v0) = 0 at the
        classical root, so (v(eps) - v0)/eps tends to -B(v0)/A'(v0) with a
        gap of order eps.  A and B are taken on the family the solver
        searches (R = 0, Q = 1, P from the sigma33 row), A' by a central
        difference."""
        m, k = sample_material, 2000.0
        v0 = solve_rayleigh(m).v

        def row(v, eps):
            mp = ModeParams(k=k, omega=v * k, v=v, eps=0.0)
            de = decay_exponents(m, mp)  # leading order, as the solver's
            c = stress_branch_coeffs(m, de, k)["sigma33"]
            sol = ModeSolution(m=m, mp=mp.replace(eps=eps), de=de,
                               amp=Amplitudes(-c[1] / c[0], 1.0, 0.0))
            return bc_residual_order(sol, 1)[0].real

        h = 1e-5 * v0
        slope = (row(v0 + h, 0.0) - row(v0 - h, 0.0)) / (2.0 * h)
        want = -(row(v0, 1.0) - row(v0, 0.0)) / slope
        gaps = []
        for eps in (1e-2, 1e-3, 1e-4):
            v = first_order_elastic_solution(m, k, eps).mp.v
            gaps.append(abs((v - v0) / eps - want) / abs(want))
        assert gaps[1] <= 2e-3, gaps
        assert gaps[0] > 5.0 * gaps[1] > 25.0 * gaps[2], gaps

    def test_velocity_shifts_from_classical_root(self, study_material):
        v0 = solve_rayleigh(study_material).v
        sol = first_order_elastic_solution(study_material, 2000.0, 0.2)
        assert sol.mp.v != pytest.approx(v0, rel=1e-6)

    @staticmethod
    def _record_brackets(monkeypatch) -> list:
        """Record each (a, b) that the first-order solve hands the root loop,
        and each x at which it evaluates the row, ends included."""
        log = []

        def recording_root(f, a, b, fa, fb):
            log.append((a, b))
            return bracketed_root(f, a, b, fa, fb)

        r10_squared = asymptotic._r10_squared

        def recording_r10_squared(m, x):
            log.append(x)
            return r10_squared(m, x)

        monkeypatch.setattr(asymptotic, "bracketed_root", recording_root)
        monkeypatch.setattr(asymptotic, "_r10_squared", recording_r10_squared)
        return log

    def test_no_search_beyond_the_bracket(self, poisson_material,
                                          monkeypatch):
        """The bracket is the x-image, x = 1 - (v/c2)^2, of
        [0.8 v0, min(1.1 v0, c2)], and the row is evaluated nowhere else.
        With lambda = 0 and kappa = 0, v0 = 0.874 c2, so neither end is
        c2; at eps = 1 the row keeps its sign there, and the solve raises
        after evaluating the two ends alone."""
        m = poisson_material.replace(lambda_lame=0.0)
        v0 = solve_rayleigh(m).v
        c2 = derive_scales(m).c2
        log = self._record_brackets(monkeypatch)
        sol = first_order_elastic_solution(m, 2000.0, 0.1)
        lo, hi = 1.0 - (1.1 * v0 / c2) ** 2, 1.0 - (0.8 * v0 / c2) ** 2
        assert 0.0 < lo and log[:3] == [lo, hi, (lo, hi)]
        assert all(lo < x < hi for x in log[3:])
        assert 0.8 * v0 < sol.mp.v < 1.1 * v0
        log.clear()
        with pytest.raises(ValueError, match="no first-order-corrected root"):
            first_order_elastic_solution(m, 2000.0, 1.0)
        assert log == [lo, hi]

    def test_bracket_reaches_c2(self, study_material, monkeypatch):
        # 1.1 v0 passes c2, so the bracket starts at x = 0 (v = c2)
        log = self._record_brackets(monkeypatch)
        v0 = solve_rayleigh(study_material).v
        c2 = derive_scales(study_material).c2
        sol = first_order_elastic_solution(study_material, 2000.0, 0.05)
        brackets = [entry for entry in log if isinstance(entry, tuple)]
        assert brackets == [(0.0, 1.0 - (0.8 * v0 / c2) ** 2)]
        assert 0.8 * v0 < sol.mp.v < c2

    def test_one_exponent_state_per_solve(self, study_material, monkeypatch):
        """Each step of the search builds only the P and Q columns from
        x; one exponent state is built, for the returned solution, at the
        root x itself: its r20 is sqrt(x) to the bit, not re-derived from
        v = c2 sqrt(1 - x)."""
        calls, roots = [], []
        exponents_at = asymptotic._decay_exponents_at

        def counted(*args):
            calls.append(args)
            return exponents_at(*args)

        def recording_root(f, a, b, fa, fb):
            roots.append(bracketed_root(f, a, b, fa, fb))
            return roots[-1]

        monkeypatch.setattr(asymptotic, "_decay_exponents_at", counted)
        monkeypatch.setattr(asymptotic, "bracketed_root", recording_root)
        sol = first_order_elastic_solution(study_material, 2000.0, 0.1)
        [x] = roots
        assert len(calls) == 1
        assert calls[0][1:] == (sol.mp.v, sol.mp.omega, 0.0, x)
        assert sol.de.r20 == math.sqrt(x)
        assert sol.de.r2 == sol.de.r20 and sol.de.r1 == sol.de.r10

    @pytest.mark.parametrize("eps", [0.2, 0.1, 0.05, 0.01])
    def test_row_is_the_generic_evaluator_to_the_bit(self, sample_material,
                                                     study_material, eps,
                                                     monkeypatch):
        """At every x the search evaluates, `_first_order_row` is the real
        part of `bc_residual_order(sol_x, 1)[0]` to the bit, sol_x the
        searched state at x: R = 0, Q = 1, P = i p from the sigma33 row,
        exponents at eps = 0."""
        materials = [sample_material, study_material]
        materials += [m for seed in (0, 1, 2) for _, m in material_draws(seed)]
        k, checked = 2000.0, 0
        for m in materials:
            log = self._record_brackets(monkeypatch)
            try:
                first_order_elastic_solution(m, k, eps)
            except (ValueError, dispersion.NoSurfaceModeError):
                pass
            monkeypatch.undo()
            for x in (entry for entry in log if not isinstance(entry, tuple)):
                row, p = asymptotic._first_order_row(m, eps, x)
                c2 = derive_scales(m).c2
                v = c2 * math.sqrt(1.0 - x)
                mp = ModeParams(k=k, omega=v * k, v=v, eps=0.0)
                de = asymptotic._decay_exponents_at(m, v, mp.omega, 0.0, x)
                c33 = stress_branch_coeffs(m, de, k)["sigma33"]
                want_p = (1j * c33[1] / c33[0]).real
                sol = ModeSolution(m=m, mp=mp.replace(eps=eps), de=de,
                                   amp=Amplitudes(1j * want_p, 1.0 + 0j, 0j))
                want = bc_residual_order(sol, 1)[0].real
                assert (row, p) == (want, want_p), (m, x)
                assert math.copysign(1.0, row) == math.copysign(1.0, want)
                checked += 1
        assert checked > 10 * len(materials)

    def test_eps_one_raises(self, study_material):
        # a search on [0.05 c2, c2] finds a sign change at 0.666 c2 here,
        # far from the classical 0.964 c2 (eps = 0.5 gives 0.917 c2)
        with pytest.raises(ValueError, match="no first-order-corrected root"):
            first_order_elastic_solution(study_material, 2000.0, 1.0)

    def test_no_sign_change_raises(self, study_material):
        # at eps = 2 the corrected row keeps one sign on both brackets
        with pytest.raises(ValueError, match="no first-order-corrected root"):
            first_order_elastic_solution(study_material, 2000.0, 2.0)


# eps = 0.2 4^-i for i = 0..8, down to 3.05e-6; local slopes are taken
# from eps = 0.05 (i = 2) down, past the approach to the asymptotic regime
FLOOR_EPS = tuple(0.2 * 4.0 ** -i for i in range(9))


def _refined_residuals(m, eps_values):
    """Largest |refined residual| of the first-order solution at each eps
    and k = 1e3, on the state that the solver returns."""
    out = []
    for eps in eps_values:
        sol = first_order_elastic_solution(m, 1e3, eps)
        out.append(max(abs(c) for c in bc_residual_order(sol, 2)))
    return out


def _local_slopes(eps_values, residuals):
    return [math.log(r0 / r1) / math.log(e0 / e1)
            for e0, e1, r0, r1 in zip(eps_values, eps_values[1:],
                                      residuals, residuals[1:])]


def _lambda_mu_material(sample, kappa_mu):
    """lambda = mu, kappa = kappa_mu mu, the sample gamma, j and rho."""
    return sample.replace(lambda_lame=sample.mu, kappa=kappa_mu * sample.mu)


class TestRefinedResidualFloor:
    """The refined conditions leave O(eps^2) on the first-order solution,
    down to a floor set by rounding, not by the solver's stop."""

    @pytest.mark.parametrize("kappa_mu, finest", [(30.0, 8), (482.0, 6)])
    def test_slope_two_down_to_small_eps(self, sample_material, kappa_mu,
                                         finest):
        # to 3.05e-6 at kappa/mu = 30 and 4.9e-5 at 482; a stop at 1e-13 c2
        # in v left floors of 5.9e-11 and 1.1e-8 there
        m = _lambda_mu_material(sample_material, kappa_mu)
        eps = FLOOR_EPS[2:finest + 1]
        slopes = _local_slopes(eps, _refined_residuals(m, eps))
        assert min(slopes) >= 1.9, slopes

    @pytest.mark.parametrize("kappa_mu", [482.0, 1e4, 1e5])
    def test_floor_at_large_kappa(self, sample_material, kappa_mu):
        """x = r20^2 is about d^3/2 here (d = mu/(mu + kappa)).  The state
        returned carries the solver's x into its exponents; re-deriving them
        from v = c2 sqrt(1 - x), which rounds 1 - x to a multiple of 2^-53,
        put x off by ~1e-16 and r20 by that over 2 sqrt(x), a floor of
        about 2^-53/(sqrt(2) d^1.5): 1.5e-12 at kappa/mu = 482, 1.0e-10 at
        1e4 and 5.5e-9 at 1e5 were measured at eps = 3.05e-6.  On the
        returned state every local slope from eps = 0.05 is at least 2.0,
        and the floor at 3.05e-6 is 1.5e-13, 3.3e-14 and 1.0e-14."""
        m = _lambda_mu_material(sample_material, kappa_mu)
        eps = FLOOR_EPS[2:]
        residuals = _refined_residuals(m, eps)
        assert residuals[-1] <= 1e-12, residuals
        slopes = _local_slopes(eps, residuals)
        assert min(slopes) >= 1.9, slopes

    def test_slope_two_over_the_material_draws(self):
        """Over `material_draws` of seeds 0-2 (123 materials, kappa/mu up
        to 30) every local slope from eps = 0.05 to 3.05e-6 is at least
        1.9 (1.94 the lowest)."""
        eps = FLOOR_EPS[2:]
        for seed in range(3):
            for ratios, m in material_draws(seed):
                slopes = _local_slopes(eps, _refined_residuals(m, eps))
                assert min(slopes) >= 1.9, (seed, ratios, slopes)


class TestReport:
    def test_report_structure_and_normalization(self, sample_material):
        m, k = sample_material, 2000.0
        payload = json.loads(residual_report_json(m, k, 0.1))
        assert payload["normalization"] == k ** 2 * (m.mu + m.kappa)
        for key, size in (("classical", 3), ("first_order", 3),
                          ("refined", 3), ("extra", 2), ("equivalence", 2)):
            assert len(payload[key]) == size, key

    def test_json_keys(self, sample_material):
        text = residual_report_json(sample_material, 2000.0, 0.1)
        payload = json.loads(text)
        for key in ("classical", "first_order", "refined", "extra",
                    "equivalence", "normalization", "slopes", "pde"):
            assert key in payload
        assert set(payload["slopes"]) == {"eps", "classical_residuals",
                                          "refined_residuals", "classical",
                                          "refined"}
        assert payload["pde"]["s_balance"]["re"] == pytest.approx(
            -payload["pde"]["s_printed"]["re"], rel=1e-10)


class TestBlayerConvergence:
    def test_grid_runs_no_adaptive_quadrature(self, sample_material,
                                              monkeypatch):
        """The 27 integrals of the default grid are exact: none goes through
        the adaptive `integrate_1d`."""
        from mnwaves import specfun
        calls = []
        adaptive = specfun.integrate_1d

        def counting(*args, **kwargs):
            calls.append(args)
            return adaptive(*args, **kwargs)

        monkeypatch.setattr(specfun, "integrate_1d", counting)
        payload = asymptotic.blayer_convergence(sample_material,
                                                asymptotic.SLOPE_EPS_GRID)
        assert len(payload["entries"]) == 27
        assert calls == []
        specfun.integrate_2d_polar(lambda r, theta: np.exp(-r), 1.0)
        assert len(calls) == 1  # the counter sees the library's own calls

    @pytest.mark.parametrize("material, branches",
                             [("sample_material", 3), ("poisson_material", 2)])
    def test_one_state_per_eps(self, material, branches, request,
                               monkeypatch):
        m = request.getfixturevalue(material)
        calls = []
        build = asymptotic.decay_exponents

        def counting(*args):
            calls.append(args)
            return build(*args)

        monkeypatch.setattr(asymptotic, "decay_exponents", counting)
        payload = asymptotic.blayer_convergence(m, asymptotic.SLOPE_EPS_GRID)
        assert [mp.eps for _, mp in calls] == list(asymptotic.SLOPE_EPS_GRID)
        assert {e["i"] for e in payload["entries"]} == set(
            range(1, branches + 1))

    def test_payload_keys(self, sample_material):
        payload = asymptotic.blayer_convergence(sample_material, (0.1,))
        assert set(payload) == {"state", "entries", "slopes"}
        assert set(payload["entries"][0]) == {"i", "eta", "eps", "closed",
                                              "quadrature", "deviation"}


def _golden_point_sets():
    """The eleven (eps, value) sets whose slopes the goldens print: the
    classical and refined residuals of residuals.json and the nine
    branch-depth deviation series of blayer.json."""
    study = json.loads((GOLDEN_DIR / "residuals.json").read_text())["slopes"]
    sets = {key: (study["eps"], study[f"{key}_residuals"])
            for key in ("classical", "refined")}
    blayer = json.loads((GOLDEN_DIR / "blayer.json").read_text())
    for e in blayer["entries"]:
        xs, ys = sets.setdefault(f"i={e['i']},eta={e['eta']!r}", ([], []))
        xs.append(e["eps"])
        ys.append(e["deviation"])
    return sets


class TestLogLogSlope:
    @pytest.mark.parametrize("key, points", sorted(_golden_point_sets().items()))
    def test_against_fifty_digit_fit(self, key, points):
        mpmath = pytest.importorskip("mpmath")
        xs, ys = points
        with mpmath.workdps(50):
            lx = [mpmath.log(x) for x in xs]
            ly = [mpmath.log(y) for y in ys]
            mx, my = sum(lx) / len(lx), sum(ly) / len(ly)
            want = (sum((x - mx) * (y - my) for x, y in zip(lx, ly))
                    / sum((x - mx) ** 2 for x in lx))
            assert abs(asymptotic._loglog_slope(xs, ys) - want) < 1e-14

    def test_golden_slopes_are_the_fits(self):
        study = json.loads((GOLDEN_DIR / "residuals.json").read_text())
        blayer = json.loads((GOLDEN_DIR / "blayer.json").read_text())
        printed = {**blayer["slopes"], "classical": study["slopes"]["classical"],
                   "refined": study["slopes"]["refined"]}
        assert {key: asymptotic._loglog_slope(*points) for key, points
                in _golden_point_sets().items()} == printed

    @pytest.mark.parametrize("xs, ys", [((0.2, 0.1), (1.0, 0.0)),
                                        ((0.0, 0.1), (1.0, 2.0)),
                                        ((0.2, 0.1), (1.0, math.nan))])
    def test_no_slope_without_positive_values(self, xs, ys):
        # NaN, as a fit on log 0 gives; the JSON writers then refuse it
        assert math.isnan(asymptotic._loglog_slope(xs, ys))
