import cmath
import math
from dataclasses import replace

import numpy as np
import pytest

from conftest import fit_slope, make_mode_params
from mnwaves.dispersion import DispersionPoint, amplitude_ratios, solve_rayleigh
from mnwaves.material import derive_scales
from mnwaves.wavefield import (
    Amplitudes,
    ModeParams,
    blayer_closed_form,
    blayer_integral_closed,
    blayer_integral_quadrature,
    blayer_quadrature_form,
    decay_exponents,
    exact_shear_exponents,
    local_stresses,
    mode_fields,
    nonlocal_stresses,
    pde_residual,
    shear_balance_s,
    stress_branch_coeffs,
)


@pytest.fixture(scope="module")
def generic_state(sample_material):
    """Admissible micropolar state at v = 0.3 c2, omega = 3 omega_c."""
    sc = derive_scales(sample_material)
    v = 0.3 * sc.c2
    omega = 3.0 * sc.omega_cutoff
    return make_mode_params(sample_material, omega / v, omega)


class TestDecayExponents:
    def test_static_limit(self, sample_material):
        sc = derive_scales(sample_material)
        mp = ModeParams(k=1.0, omega=1e-6, v=1e-6, eps=0.0)
        de = decay_exponents(sample_material, mp)
        assert de.r1 == pytest.approx(1.0, abs=1e-10)
        assert de.r2 == pytest.approx(1.0, abs=1e-10)

    def test_half_shear_speed(self, sample_material):
        sc = derive_scales(sample_material)
        v = sc.c2 / 2.0
        mp = ModeParams(k=1.0, omega=v, v=v, eps=0.0)
        de = decay_exponents(sample_material, mp)
        assert de.r2 ** 2 == pytest.approx(0.75, rel=1e-14)
        assert de.r2 == pytest.approx(math.sqrt(0.75), rel=1e-14)

    def test_zero_eps_equals_leading_order(self, sample_material, generic_state):
        mp = ModeParams(k=generic_state.k, omega=generic_state.omega,
                        v=generic_state.v, eps=0.0)
        de = decay_exponents(sample_material, mp)
        assert abs(de.r1 - de.r10) <= 1e-14 * abs(de.r10)
        assert abs(de.r2 - de.r20) <= 1e-14 * abs(de.r20)
        assert abs(de.r3 - de.r30) <= 1e-14 * abs(de.r30)

    def test_decoupled_limit(self, poisson_material):
        mp = ModeParams(k=1.0, omega=500.0, v=500.0, eps=0.0)
        de = decay_exponents(poisson_material, mp)
        assert de.decoupled
        assert de.r3 is None and de.s is None

    def test_generic_sextuple_annihilates_own_equations(self, sample_material,
                                                        generic_state):
        de = decay_exponents(sample_material, generic_state)
        res_p = pde_residual(Amplitudes(1.0, 0.0, 0.0), de, generic_state,
                             sample_material)
        res_q = pde_residual(Amplitudes(0.0, 1.0, 0.0), de, generic_state,
                             sample_material)
        assert abs(res_p[0]) < 1e-12
        assert res_p[1] == 0 and res_p[2] == 0
        assert abs(res_q[1]) < 1e-12

    def test_branch_realness_in_subsonic_regime(self, sample_material):
        # Re(r1), Re(r2) > 0 across the physical velocity band
        sc = derive_scales(sample_material)
        omega = 3.0 * sc.omega_cutoff
        for v_frac in np.linspace(0.05, 0.95, 10):
            v = float(v_frac) * sc.c2
            for eps in (0.0, 0.1, 0.2, 0.29):
                mp = ModeParams(k=omega / v, omega=omega, v=v, eps=eps)
                de = decay_exponents(sample_material, mp)
                assert de.r1.real > 0
                assert de.r2.real > 0

    def test_branch_convention_on_negative_square(self, sample_material):
        sc = derive_scales(sample_material)
        v = 1.2 * sc.c2  # supersonic: r2^2 < 0, root must sit on Im > 0
        mp = ModeParams(k=1.0, omega=v, v=v, eps=0.0)
        de = decay_exponents(sample_material, mp)
        assert de.r2.real == 0.0
        assert de.r2.imag > 0.0


class TestDecoupledLimit:
    """kappa = 0 has no R branch: a nonzero R is an error everywhere."""

    @pytest.fixture
    def state(self, poisson_material):
        mp = ModeParams(k=2.0, omega=1000.0, v=500.0, eps=0.1)
        return mp, decay_exponents(poisson_material, mp)

    def test_nonzero_r_rejected(self, poisson_material, state):
        mp, de = state
        m = poisson_material
        amp = Amplitudes(0.5, 1.0, 0.1)
        for call in (lambda: mode_fields(amp, de, mp, 0.0, 0.1),
                     lambda: local_stresses(amp, de, mp, m, 0.0, 0.1),
                     lambda: nonlocal_stresses(amp, de, mp, m, 0.0, 0.1)):
            with pytest.raises(ValueError, match="R must vanish"):
                call()

    def test_two_coefficient_columns(self, poisson_material, state):
        mp, de = state
        rows = stress_branch_coeffs(poisson_material, de, mp.k)
        assert all(len(row) == 2 for row in rows.values())

    def test_no_third_boundary_layer_integral(self, state):
        _, de = state
        with pytest.raises(ValueError, match="absent"):
            blayer_integral_closed(3, de, 0.1, 0.0)


class TestExactShearOracle:
    def test_back_substitution(self, sample_material, generic_state):
        m = sample_material
        sc = derive_scales(m)
        roots = exact_shear_exponents(m, generic_state)
        k2 = generic_state.k ** 2
        w2 = generic_state.omega ** 2
        e2 = generic_state.eps ** 2
        tsj = 2.0 * sc.c3 ** 2 / m.j_inertia
        for root in (roots.first, roots.second):
            x = root.delta ** 2 - 1.0
            # independent transcription of the determinant
            m11 = sc.c2 ** 2 * k2 * x + w2 * (1.0 - e2 * x)
            m22 = sc.c4 ** 2 * k2 * x - tsj + w2 * (1.0 - e2 * x)
            m12m21 = -sc.c3 ** 2 * (sc.c3 ** 2 / m.j_inertia) * k2 * x
            det = m11 * m22 - m12m21
            scale = abs(m11 * m22) + abs(m12m21)
            assert abs(det) / scale < 1e-10

    def test_coupling_ratio_balances_first_equation(self, sample_material,
                                                    generic_state):
        m = sample_material
        sc = derive_scales(m)
        roots = exact_shear_exponents(m, generic_state)
        k2 = generic_state.k ** 2
        w2 = generic_state.omega ** 2
        e2 = generic_state.eps ** 2
        for root in (roots.first, roots.second):
            x = root.delta ** 2 - 1.0
            residual = (sc.c2 ** 2 * k2 * x + w2 * (1.0 - e2 * x)
                        + sc.c3 ** 2 * root.coupling)
            assert abs(residual) < 1e-8 * w2

    def test_decoupling_slope_in_kappa(self, sample_material):
        # one root collapses onto the shear exponent as kappa -> 0
        from dataclasses import replace
        sc = derive_scales(sample_material)
        v = 0.3 * sc.c2
        omega = 3.0 * sc.omega_cutoff
        kappas = [2e8 * 0.5 ** t for t in range(4)]
        devs, couplings = [], []
        for kappa in kappas:
            m = replace(sample_material, kappa=kappa)
            mp = make_mode_params(m, omega / v, omega)
            de = decay_exponents(m, mp)
            roots = exact_shear_exponents(m, mp)
            dev = min(abs(roots.first.delta ** 2 - de.r2 ** 2),
                      abs(roots.second.delta ** 2 - de.r2 ** 2))
            cpl = min(abs(roots.first.coupling), abs(roots.second.coupling))
            devs.append(dev)
            couplings.append(cpl)
        assert fit_slope(kappas, devs) >= 1.0
        assert couplings[-1] < couplings[0]

    def test_roots_ordered_and_not_degenerate(self, sample_material,
                                              generic_state):
        roots = exact_shear_exponents(sample_material, generic_state)
        assert not roots.degenerate
        key_first = (roots.first.delta ** 2).real
        key_second = (roots.second.delta ** 2).real
        assert key_first <= key_second

    def test_requires_micropolarity(self, poisson_material):
        mp = ModeParams(k=1.0, omega=500.0, v=500.0, eps=0.0)
        with pytest.raises(ValueError):
            exact_shear_exponents(poisson_material, mp)


class TestModeFields:
    def test_depth_decay(self, sample_material, generic_state):
        de = decay_exponents(sample_material, generic_state)
        amp = Amplitudes(1.0, 1.0, 0.0)
        k = generic_state.k
        deep = mode_fields(amp, de, generic_state, 0.0, 400.0 / k)
        assert all(abs(f) < 1e-100 for f in deep)

    def test_rotation_branch_decays_below_cutoff(self, sample_material):
        # below the cutoff the rotation exponent is real and > 1
        sc = derive_scales(sample_material)
        omega = 0.5 * sc.omega_cutoff
        v = 0.3 * sc.c2
        mp = ModeParams(k=omega / v, omega=omega, v=v, eps=0.0)
        de = decay_exponents(sample_material, mp)
        assert de.r3.imag == 0.0 and de.r3.real > 1.0
        amp = Amplitudes(0.0, 0.0, 1.0)
        deep = mode_fields(amp, de, mp, 0.0, 300.0 / mp.k)
        assert all(abs(f) < 1e-100 for f in deep)

    def test_no_rotation_without_third_branch(self, sample_material,
                                              generic_state):
        de = decay_exponents(sample_material, generic_state)
        amp = Amplitudes(0.5, 1.0, 0.0)
        _, _, phi2 = mode_fields(amp, de, generic_state, 0.3, 0.2)
        assert phi2 == 0

    def test_surface_origin_values(self, sample_material, generic_state):
        de = decay_exponents(sample_material, generic_state)
        amp = Amplitudes(0.3 + 0.1j, 1.0, 0.2 - 0.4j)
        phi, psi, phi2 = mode_fields(amp, de, generic_state, 0.0, 0.0)
        assert phi == amp.P
        assert psi == amp.Q + amp.R
        assert phi2 == de.s * generic_state.k ** 2 * amp.R


class TestLocalStresses:
    def test_classical_limit_is_symmetric(self, poisson_material):
        mp = ModeParams(k=2.0, omega=1000.0, v=500.0, eps=0.0)
        de = decay_exponents(poisson_material, mp)
        amp = Amplitudes(0.7 + 0.2j, 1.0, 0.0)
        st = local_stresses(amp, de, mp, poisson_material, 0.4, 0.3)
        assert st.sigma13 == st.sigma31

    def test_zero_amplitudes_zero_stress(self, sample_material, generic_state):
        de = decay_exponents(sample_material, generic_state)
        st = local_stresses(Amplitudes(0.0, 0.0, 0.0), de, generic_state,
                            sample_material, 0.1, 0.1)
        for name in ("sigma11", "sigma13", "sigma31", "sigma33", "pi12", "pi32"):
            assert getattr(st, name) == 0

    def test_matches_explicit_coefficient_block(self, sample_material,
                                                generic_state):
        """Kinematic evaluation against the transcribed stress block.

        The two routes are independent: one differentiates the potentials,
        the other multiplies the printed per-branch coefficients by the
        branch exponentials.
        """
        m = sample_material
        mp = generic_state
        de = decay_exponents(m, mp)
        amp = Amplitudes(0.3 + 0.2j, 1.0, 0.1 - 0.4j)
        x, z = 0.21, 0.13 / mp.k
        st = local_stresses(amp, de, mp, m, x, z)
        rows = stress_branch_coeffs(m, de, mp.k)
        carrier = cmath.exp(1j * mp.k * x)
        amps = (amp.P, amp.Q, amp.R)
        rs = (de.r1, de.r2, de.r3)
        mk = m.mu + m.kappa
        for comp, scale in (("sigma11", mp.k ** 2 * mk),
                            ("sigma13", mp.k ** 2 * mk),
                            ("sigma31", mp.k ** 2 * mk),
                            ("sigma33", mp.k ** 2 * mk),
                            ("pi12", mp.k * mk),
                            ("pi32", mp.k * mk)):
            want = sum(c * a * cmath.exp(-mp.k * r * z)
                       for c, a, r in zip(rows[comp], amps, rs))
            want *= carrier * scale
            assert getattr(st, comp) == pytest.approx(want, rel=1e-12)

    def test_asymmetry_signature(self, sample_material, generic_state, seed):
        """sigma13 - sigma31 = kappa (u3,x - u1,z) + 2 kappa Phi2."""
        m = sample_material
        mp = generic_state
        de = decay_exponents(m, mp)
        rng = np.random.default_rng(seed)
        for _ in range(10):
            amp = Amplitudes(*(rng.normal() + 1j * rng.normal()
                               for _ in range(3)))
            x = float(rng.uniform(0, 2.0 / mp.k))
            z = float(rng.uniform(0, 2.0 / mp.k))
            st = local_stresses(amp, de, mp, m, x, z)
            h = 1e-7 / mp.k
            up = local_stresses(amp, de, mp, m, x + h, z)
            dn = local_stresses(amp, de, mp, m, x - h, z)
            u3x = (up.u3 - dn.u3) / (2 * h)
            up = local_stresses(amp, de, mp, m, x, z + h)
            dn = local_stresses(amp, de, mp, m, x, z - h)
            u1z = (up.u1 - dn.u1) / (2 * h)
            want = m.kappa * (u3x - u1z) + 2.0 * m.kappa * st.phi2
            got = st.sigma13 - st.sigma31
            assert got == pytest.approx(want, rel=1e-5)  # fd-limited
        # the same identity holds analytically via the branch coefficients
        rows = stress_branch_coeffs(m, de, mp.k)
        amps = (1.0 + 0.5j, 1.0, 0.25j)
        d = m.mu / (m.mu + m.kappa)
        for b, r in enumerate((de.r1, de.r2, de.r3)):
            anti = rows["sigma13"][b] - rows["sigma31"][b]
            amp_obj = Amplitudes(*(a if i == b else 0.0
                                   for i, a in enumerate(amps)))
            st0 = local_stresses(amp_obj, de, mp, m, 0.0, 0.0)
            got = st0.sigma13 - st0.sigma31
            want = anti * amps[b] * mp.k ** 2 * (m.mu + m.kappa)
            assert got == pytest.approx(want, rel=1e-12)


class TestPdeResidual:
    def test_r_branch_reports_micropolar_coupling_defect(self, sample_material,
                                                         generic_state):
        de = decay_exponents(sample_material, generic_state)
        res = pde_residual(Amplitudes(0.0, 0.0, 1.0), de, generic_state,
                           sample_material)
        # the closed-form s does not balance the shear equation: the defect
        # equals c3^2 (s - s_balance) k^2 / omega^2 per unit R
        s_bal = shear_balance_s(sample_material, generic_state)
        sc = derive_scales(sample_material)
        k2 = generic_state.k ** 2
        w2 = generic_state.omega ** 2
        want = (sc.c3 ** 2 * (de.s - s_bal) * k2 / w2
                * cmath.exp(-de.r3))
        assert res[1] == pytest.approx(want, rel=1e-10)

    def test_balance_s_is_opposite_sign(self, sample_material, generic_state):
        de = decay_exponents(sample_material, generic_state)
        s_bal = shear_balance_s(sample_material, generic_state)
        assert s_bal == pytest.approx(-de.s, rel=1e-12)

    def test_zero_amplitudes(self, sample_material, generic_state):
        de = decay_exponents(sample_material, generic_state)
        assert pde_residual(Amplitudes(0, 0, 0), de, generic_state,
                            sample_material) == (0, 0, 0)

    def test_q_branch_rotation_defect_is_order_kappa(self, sample_material):
        from dataclasses import replace
        sc = derive_scales(sample_material)
        v = 0.3 * sc.c2
        omega = 3.0 * sc.omega_cutoff
        res3 = []
        kappas = [2e8 * 0.5 ** t for t in range(3)]
        for kappa in kappas:
            m = replace(sample_material, kappa=kappa)
            mp = make_mode_params(m, omega / v, omega)
            de = decay_exponents(m, mp)
            res = pde_residual(Amplitudes(0.0, 1.0, 0.0), de, mp, m)
            res3.append(abs(res[2]))
        # linear in kappa up to the drift of c2(kappa) in the normalization
        assert fit_slope(kappas, res3) >= 0.9


class TestBoundaryLayerIntegrals:
    def test_surface_value_closed_form(self):
        r, r0, eps = 0.8, 0.82, 0.1
        got = blayer_closed_form(r, r0, eps, 0.0)
        want = 0.5 * (1.0 - eps * r0 + eps * eps * (r0 * r0 - 1.0))
        assert got == pytest.approx(want, rel=1e-14)

    def test_boundary_term_vanishes_for_small_eps(self):
        r = 0.6
        got = blayer_closed_form(r, r, 1e-8, 1.3)
        assert got == pytest.approx(cmath.exp(-r * 1.3), rel=1e-12)

    def test_positivity_sampled(self):
        for r in (0.1, 0.3, 0.5, 0.7, 0.9):
            for eps in (0.05, 0.1, 0.2):
                for eta in (0.0, 0.1, 0.5, 1.0, 2.0, 5.0):
                    assert blayer_closed_form(r, r, eps, eta).real > 0.0

    def test_halving_with_corrector(self):
        # exact antiderivative: (1 - eps^2)/2
        eps = 0.1
        got = blayer_quadrature_form(0.0, eps, 0.0)
        assert got == pytest.approx(0.5 * (1.0 - eps * eps), abs=1e-11)

    def test_boundary_term_bound_at_five_layers(self, sample_material,
                                                generic_state):
        eps = 0.1
        de = decay_exponents(sample_material,
                             ModeParams(k=generic_state.k,
                                        omega=generic_state.omega,
                                        v=generic_state.v, eps=eps))
        eta = 5.0 * eps
        for i in (1, 2, 3):
            closed = blayer_integral_closed(i, de, eps, eta)
            r, r0 = ((de.r1, de.r10), (de.r2, de.r20), (de.r3, de.r30))[i - 1]
            main = (1.0 + eps * eps * (r0 * r0 - 1.0)) * cmath.exp(-r * eta)
            assert abs(closed - main) < 1.2 * math.exp(-5.0)
            assert abs(closed) > 0.0

    @pytest.mark.parametrize("i", [1, 2, 3])
    def test_quadrature_matches_closed_form(self, sample_material,
                                            generic_state, i):
        eps_values = (0.2, 0.1, 0.05)
        devs = []
        for eps in eps_values:
            mp = ModeParams(k=generic_state.k, omega=generic_state.omega,
                            v=generic_state.v, eps=eps)
            de = decay_exponents(sample_material, mp)
            closed = blayer_integral_closed(i, de, eps, 0.5)
            quad = blayer_integral_quadrature(i, de, eps, 0.5)
            devs.append(abs(quad - closed) / abs(closed))
        assert fit_slope(eps_values, devs) >= 2.0

    def test_branch_index_validation(self, sample_material, generic_state):
        de = decay_exponents(sample_material, generic_state)
        with pytest.raises(ValueError):
            blayer_integral_closed(4, de, 0.1, 0.0)


class TestNonlocalStresses:
    def test_couple_stresses_proportional_to_r(self, sample_material,
                                               generic_state):
        mp = replace(generic_state, eps=0.1)
        de = decay_exponents(sample_material, mp)
        st = nonlocal_stresses(Amplitudes(0.5, 1.0, 0.0), de, mp,
                               sample_material, 0.1, 0.1)
        assert st.m12 == 0 and st.m32 == 0

    def test_local_limit(self, sample_material, generic_state):
        mp = replace(generic_state, eps=1e-9)
        de = decay_exponents(sample_material, mp)
        amp = Amplitudes(0.4 + 0.3j, 1.0, 0.2j)
        z = 0.8 / mp.k
        nl = nonlocal_stresses(amp, de, mp, sample_material, 0.05, z)
        loc = local_stresses(amp, de, mp, sample_material, 0.05, z)
        for tau_name, sigma_name in (("tau11", "sigma11"), ("tau13", "sigma13"),
                                     ("tau31", "sigma31"), ("tau33", "sigma33"),
                                     ("m12", "pi12"), ("m32", "pi32")):
            assert getattr(nl, tau_name) == pytest.approx(
                getattr(loc, sigma_name), rel=1e-9)

    def test_elastic_mode_surface_tractions_vanish(self, sample_material):
        """At the dispersion root with the mode amplitude ratios, the
        non-local tractions vanish at the surface to the retained order.

        eps = 1e-5 puts the truncated O(eps^2) remainders far below the
        1e-8 acceptance threshold.
        """
        m = sample_material
        root = solve_rayleigh(m)
        eps = 1e-5
        k = 2000.0
        omega = root.v * k
        mp = ModeParams(k=k, omega=omega, v=root.v, eps=eps)
        de = decay_exponents(m, mp)
        point = DispersionPoint(omega=omega, k=k, v=root.v,
                                mode_tag="elastic", exponents=de,
                                secular_residual=0.0, admissible=True)
        amp = amplitude_ratios(m, point, eps)
        st = nonlocal_stresses(amp, de, mp, m, 0.0, 0.0)
        norm = k * k * (m.mu + m.kappa) * abs(amp.Q)
        assert abs(st.tau31) < 1e-8 * norm
        assert abs(st.tau33) < 1e-8 * norm
        assert abs(st.m32) == 0.0
