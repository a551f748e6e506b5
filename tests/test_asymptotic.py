import json
import math
from dataclasses import replace

import numpy as np
import pytest

from conftest import fit_slope
from mnwaves import asymptotic
from mnwaves.asymptotic import (
    bc_residual_order,
    bc_residual_report,
    bc_slope_study,
    equivalence_residual_elastic,
    equivalence_residual_micropolar,
    extra_bc_residual,
    first_order_elastic_solution,
    residual_report_json,
)
from mnwaves.dispersion import (
    DispersionPoint,
    amplitude_ratios,
    bracketed_root,
    micropolar_velocity,
    secular_leading,
    solve_rayleigh,
)
from mnwaves.kernel import boundary_operator
from mnwaves.material import derive_scales
from mnwaves.wavefield import (
    Amplitudes,
    ModeParams,
    ModeSolution,
    decay_exponents,
    stress_branch_coeffs,
)


def _point_at(m, v: float, k: float, tag="elastic") -> DispersionPoint:
    omega = v * k
    mp = ModeParams(k=k, omega=omega, v=v, eps=m.a_nl * k)
    de = decay_exponents(m, mp)
    return DispersionPoint(omega=omega, k=k, v=v, mode_tag=tag, exponents=de,
                           secular_residual=abs(secular_leading(m, v)),
                           admissible=de.admissible)


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
    point = _point_at(m, root.v, k)
    amp = amplitude_ratios(m, point, eps)
    return ModeSolution(m=m, mp=mp, amp=amp, de=de)


class TestEquivalenceElastic:
    def test_vanishes_at_rest(self, sample_material):
        # r10 = r20 = 1 collapses the bracket algebraically
        point = DispersionPoint(omega=1.0, k=1.0, v=0.0, mode_tag="elastic",
                                exponents=None, secular_residual=0.0,
                                admissible=False)
        assert abs(equivalence_residual_elastic(sample_material, point)) \
            < 1e-12

    def test_nonzero_bracket_at_the_root(self, sample_material):
        # kappa/mu = 0.1 material at its elastic-mode root
        m = sample_material
        sc = derive_scales(m)
        root = solve_rayleigh(m)
        point = _point_at(m, root.v, 1.0)
        coeff = equivalence_residual_elastic(m, point)
        r10 = math.sqrt(1.0 - (root.v / sc.c1) ** 2)
        bracket = coeff * 2.0 * (1.0 + sc.d) ** 2 * r10  # k = 1
        assert abs(bracket) > 1e-3

    @pytest.mark.parametrize("k", [1.0, 10.0])
    def test_cubic_wavenumber_scaling(self, sample_material, k):
        m = sample_material
        root = solve_rayleigh(m)
        base = equivalence_residual_elastic(m, _point_at(m, root.v, 1.0))
        scaled = equivalence_residual_elastic(m, _point_at(m, root.v, k))
        assert scaled == pytest.approx(k ** 3 * base, rel=1e-12)

    def test_needs_wavenumber(self, sample_material):
        bare = solve_rayleigh(sample_material)  # k is NaN metadata
        with pytest.raises(ValueError):
            equivalence_residual_elastic(sample_material, bare)


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
            self, poisson_material):
        sol = _printed_mode(poisson_material, 100.0, 0.0)
        triple = bc_residual_order(sol, 0)
        assert all(abs(c) < 1e-9 for c in triple)

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
        assert pair[0] == pytest.approx(st.tau11 / norm, rel=1e-12)
        assert pair[1] == st.m12 == 0

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
        """boundary_operator on tau11 and M12 of `nonlocal_stresses` (R != 0):
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
        for comp, norm, value in (("tau11", k * k * mk, got[0]),
                                  ("m12", k * mk, got[1])):
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
        study = bc_slope_study(study_material, 2000.0,
                               solve_rayleigh(study_material).v)
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
            sol = ModeSolution(m=sample_material, mp=replace(mp, eps=eps),
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
        sol = first_order_elastic_solution(study_material, 2000.0, eps,
                                           solve_rayleigh(study_material).v)
        first = bc_residual_order(sol, 0)
        corrected = (_surface_stress(sol, "sigma31")
                     - 0.5 * eps * 1j * _surface_stress(sol, "sigma11"))
        assert abs(corrected) < 1e-10
        assert abs(first[1]) < 1e-12  # sigma33 row solved exactly
        assert first[2] == 0          # no rotation branch

    @pytest.mark.parametrize("eps", [0.2, 0.1, 0.05])
    def test_first_order_row_vanishes(self, study_material, eps):
        sol = first_order_elastic_solution(study_material, 2000.0, eps,
                                           solve_rayleigh(study_material).v)
        assert abs(bc_residual_order(sol, 1)[0]) < 1e-10

    def test_eps_is_explicit_in_velocity(self, sample_material):
        """At a fixed solved state the order-1 sigma31 row is A + eps B, and
        -A/B at the corrected velocity gives back the eps it was solved at."""
        v0 = solve_rayleigh(sample_material).v

        def row(sol, eps):
            return bc_residual_order(replace(sol, mp=replace(sol.mp, eps=eps)),
                                     1)[0]

        for eps in (0.2, 0.1, 0.05, 0.01):
            sol = first_order_elastic_solution(sample_material, 2000.0, eps, v0)
            a, half, one = row(sol, 0.0), row(sol, 0.5), row(sol, 1.0)
            b = one - a
            assert abs(half - (a + 0.5 * b)) <= 1e-12 * abs(b)
            assert abs(-a / b - eps) <= 1e-9 * eps

    def test_velocity_shifts_from_classical_root(self, study_material):
        v0 = solve_rayleigh(study_material).v
        sol = first_order_elastic_solution(study_material, 2000.0, 0.2, v0)
        assert sol.mp.v != pytest.approx(v0, rel=1e-6)

    def test_no_search_beyond_the_bracket(self, study_material):
        """From v0 = root/2 the root lies outside [0.8 v0, 1.1 v0], and no
        wider bracket is searched, so the solve raises."""
        v0 = solve_rayleigh(study_material).v
        near = first_order_elastic_solution(study_material, 2000.0, 0.1, v0)
        assert not 0.8 * 0.5 * v0 <= near.mp.v <= 1.1 * 0.5 * v0
        with pytest.raises(ValueError, match="no first-order-corrected root"):
            first_order_elastic_solution(study_material, 2000.0, 0.1, 0.5 * v0)

    def test_bracket_reaches_c2(self, study_material, monkeypatch):
        # the bracket top is min(1.1 v0, c2), not the scan grid's 0.9999 c2
        brackets = []

        def recording_root(f, a, b, fa, fb, width):
            brackets.append((a, b))
            return bracketed_root(f, a, b, fa, fb, width)

        monkeypatch.setattr(asymptotic, "bracketed_root", recording_root)
        v0 = solve_rayleigh(study_material).v
        c2 = derive_scales(study_material).c2
        sol = first_order_elastic_solution(study_material, 2000.0, 0.05, v0)
        assert brackets == [(0.8 * v0, c2)]
        assert 0.8 * v0 < sol.mp.v < c2

    def test_eps_one_raises(self, study_material):
        # a search on [0.05 c2, c2] finds a sign change at 0.666 c2 here,
        # far from the classical 0.964 c2 (eps = 0.5 gives 0.917 c2)
        v0 = solve_rayleigh(study_material).v
        with pytest.raises(ValueError, match="no first-order-corrected root"):
            first_order_elastic_solution(study_material, 2000.0, 1.0, v0)

    def test_no_sign_change_raises(self, study_material):
        # at eps = 2 the corrected row keeps one sign on both brackets
        v0 = solve_rayleigh(study_material).v
        with pytest.raises(ValueError, match="no first-order-corrected root"):
            first_order_elastic_solution(study_material, 2000.0, 2.0, v0)


class TestReport:
    def test_report_structure_and_normalization(self, sample_material):
        sol = _printed_mode(sample_material, 2000.0, 0.1)
        report = bc_residual_report(sol)
        m, mp = sol.m, sol.mp
        assert report.normalization == pytest.approx(
            mp.k ** 2 * (m.mu + m.kappa) * abs(sol.amp.Q))
        assert len(report.classical) == 3
        assert len(report.extra) == 2

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
