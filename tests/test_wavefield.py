import cmath
import math

import numpy as np
import pytest

from conftest import (exact_shear_exponents, fit_slope, make_mode_params,
                      material_draws)
from mnwaves.dispersion import elastic_amplitudes, solve_rayleigh
from mnwaves.material import derive_scales
from mnwaves.wavefield import (
    Amplitudes,
    DecayExponents,
    ModeParams,
    _blayer_closed,
    blayer_closed_form,
    blayer_integral_closed,
    blayer_integral_quadrature,
    blayer_quadrature_form,
    decay_exponents,
    local_stresses,
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

    def test_zero_eps_is_leading_order_to_the_bit(self, seed,
                                                  sample_material):
        """At eps = 0 the full radicands reduce to the leading-order ones
        in the same arithmetic, so r1 == r10 and r2 == r20 bitwise: over
        2000 seeded v in (0.01, 0.999) c2 on the sample material and 50 on
        each `material_draws` material.  The two forms in v that this
        replaces differed on 108 and 420 of the sample's 2000 at seed
        2024."""
        rng = np.random.default_rng(seed)
        cases = [(sample_material, 2000)]
        cases += [(m, 50) for _, m in material_draws(seed)]
        for m, n in cases:
            c2 = derive_scales(m).c2
            for frac in rng.uniform(0.01, 0.999, n).tolist():
                v = frac * c2
                de = decay_exponents(m, ModeParams(k=1.0, omega=v, v=v,
                                                   eps=0.0))
                assert de.r1 == de.r10 and de.r2 == de.r20, (m, v)

    def test_admissible_needs_p_and_q_to_decay(self):
        """Re r1 > 0 and Re r2 > 0; branch 3 is exempt (R = 0 on the
        elastic mode, r30 = 0 on the micropolar mode), so a purely
        imaginary r3 leaves a state admissible."""
        one = 1.0 + 0j
        assert DecayExponents(one, one, one, one, r3=2j, s=0j,
                              r30=0j).admissible
        assert DecayExponents(one, one, one, one).admissible
        assert not DecayExponents(one, 0.5j, one, one).admissible
        assert not DecayExponents(0.5j, one, one, one, r3=one, s=0j,
                                  r30=one).admissible

    def test_decoupled_limit(self, poisson_material):
        mp = ModeParams(k=1.0, omega=500.0, v=500.0, eps=0.0)
        de = decay_exponents(poisson_material, mp)
        assert de.decoupled
        assert de.r3 is None and de.s is None

    def test_decoupled_state_has_no_branch_3_degeneracy(self,
                                                        poisson_material):
        """kappa = 0 has no branch 3, so c4^2 = eps^2 v^2 is no degeneracy."""
        v = derive_scales(poisson_material).c4
        mp = ModeParams(k=1.0, omega=v, v=v, eps=1.0)
        assert v ** 2 - mp.eps * mp.eps * (v * v) == 0.0  # c4^2 - eps^2 v^2
        de = decay_exponents(poisson_material, mp)
        assert de.decoupled and de.admissible

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
        for call in (lambda: local_stresses(amp, de, mp, m, 0.0, 0.1),
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
        sc = derive_scales(sample_material)
        v = 0.3 * sc.c2
        omega = 3.0 * sc.omega_cutoff
        kappas = [2e8 * 0.5 ** t for t in range(4)]
        devs, couplings = [], []
        for kappa in kappas:
            m = sample_material.replace(kappa=kappa)
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


def _fields(st):
    """The displacements and microrotation of a `StressState`."""
    return st.u1, st.u3, st.phi2


class TestModeFields:
    def test_depth_decay(self, sample_material, generic_state):
        de = decay_exponents(sample_material, generic_state)
        amp = Amplitudes(1.0, 1.0, 0.0)
        k = generic_state.k
        deep = local_stresses(amp, de, generic_state, sample_material, 0.0,
                              400.0 / k)
        assert all(abs(f) < 1e-100 for f in _fields(deep))

    def test_rotation_branch_decays_below_cutoff(self, sample_material):
        # below the cutoff the rotation exponent is real and > 1
        sc = derive_scales(sample_material)
        omega = 0.5 * sc.omega_cutoff
        v = 0.3 * sc.c2
        mp = ModeParams(k=omega / v, omega=omega, v=v, eps=0.0)
        de = decay_exponents(sample_material, mp)
        assert de.r3.imag == 0.0 and de.r3.real > 1.0
        amp = Amplitudes(0.0, 0.0, 1.0)
        deep = local_stresses(amp, de, mp, sample_material, 0.0, 300.0 / mp.k)
        assert all(abs(f) < 1e-100 for f in _fields(deep))

    def test_no_rotation_without_third_branch(self, sample_material,
                                              generic_state):
        de = decay_exponents(sample_material, generic_state)
        amp = Amplitudes(0.5, 1.0, 0.0)
        st = local_stresses(amp, de, generic_state, sample_material, 0.3, 0.2)
        assert st.phi2 == 0

    def test_surface_origin_values(self, sample_material, generic_state):
        de = decay_exponents(sample_material, generic_state)
        amp = Amplitudes(0.3 + 0.1j, 1.0, 0.2 - 0.4j)
        k = generic_state.k
        u1, u3, phi2 = _fields(local_stresses(amp, de, generic_state,
                                              sample_material, 0.0, 0.0))
        # u1 = phi,x - psi,z and u3 = phi,z + psi,x, branch by branch
        assert u1 == pytest.approx(1j * k * amp.P + k * de.r2 * amp.Q
                                   + k * de.r3 * amp.R, rel=1e-14)
        assert u3 == pytest.approx(-k * de.r1 * amp.P
                                   + 1j * k * (amp.Q + amp.R), rel=1e-14)
        assert phi2 == de.s * k ** 2 * amp.R


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

    @pytest.mark.parametrize("case", ["generic", "decoupled",
                                      "below_cutoff"])
    def test_matches_explicit_coefficient_block(self, case, sample_material,
                                                poisson_material,
                                                generic_state):
        """Kinematic evaluation against the transcribed stress block.

        The two routes are independent: one differentiates the potentials,
        the other multiplies the printed per-branch coefficients by the
        branch exponentials.  The cases: the generic state (above the
        cutoff, r3 imaginary), the kappa = 0 limit (two columns, R = 0) and
        a state below the cutoff (r3 real and above 1).
        """
        m, mp = sample_material, generic_state
        amp = Amplitudes(0.3 + 0.2j, 1.0, 0.1 - 0.4j)
        if case == "decoupled":
            m = poisson_material
            mp = ModeParams(k=2.0, omega=1000.0, v=500.0, eps=0.1)
            amp = amp.replace(R=0.0)
        elif case == "below_cutoff":
            sc = derive_scales(m)
            omega, v = 0.5 * sc.omega_cutoff, 0.3 * sc.c2
            mp = make_mode_params(m, omega / v, omega)
        de = decay_exponents(m, mp)
        if case == "generic":
            assert de.r3.real == 0.0 and de.r3.imag > 0.0
        if case == "below_cutoff":
            assert de.r3.imag == 0.0 and de.r3.real > 1.0
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
        sc = derive_scales(sample_material)
        v = 0.3 * sc.c2
        omega = 3.0 * sc.omega_cutoff
        res3 = []
        kappas = [2e8 * 0.5 ** t for t in range(3)]
        for kappa in kappas:
            m = sample_material.replace(kappa=kappa)
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

    @pytest.mark.parametrize("eps", [0.0, 0.05, 0.2])
    @pytest.mark.parametrize("eta", [0.3, 1.0])
    def test_slope_matches_central_difference(self, eta, eps):
        r, r0, h = 0.8 + 0.1j, 0.82, 1e-5
        value, slope = _blayer_closed(r, r0, eps, eta)
        assert value == blayer_closed_form(r, r0, eps, eta)
        diff = (blayer_closed_form(r, r0, eps, eta + h)
                - blayer_closed_form(r, r0, eps, eta - h)) / (2.0 * h)
        assert slope == pytest.approx(diff, rel=1e-8)

    @pytest.mark.parametrize("eps", [0.0, 0.05, 0.2])
    def test_surface_slope_matches_one_sided_difference(self, eps):
        # second-order one-sided difference: the layer starts at eta = 0
        r, r0, h = 0.8 + 0.1j, 0.82, 1e-6
        f0, f1, f2 = (blayer_closed_form(r, r0, eps, n * h) for n in range(3))
        diff = (-3.0 * f0 + 4.0 * f1 - f2) / (2.0 * h)
        assert _blayer_closed(r, r0, eps, 0.0)[1] == pytest.approx(diff,
                                                                  rel=1e-7)

    def test_slope_past_the_underflow_cut(self):
        # eta/eps = 1000 > 745: the e^{-eta/eps} term is dropped from both
        r, r0, eps, eta, h = 0.8 + 0.1j, 0.82, 1e-3, 1.0, 1e-5
        diff = (blayer_closed_form(r, r0, eps, eta + h)
                - blayer_closed_form(r, r0, eps, eta - h)) / (2.0 * h)
        value, slope = _blayer_closed(r, r0, eps, eta)
        assert slope == -r * value
        assert slope == pytest.approx(diff, rel=1e-8)

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
        mp = generic_state.replace(eps=0.1)
        de = decay_exponents(sample_material, mp)
        st = nonlocal_stresses(Amplitudes(0.5, 1.0, 0.0), de, mp,
                               sample_material, 0.1, 0.1)
        assert st.pi12 == 0 and st.pi32 == 0

    def test_local_limit(self, sample_material, generic_state):
        mp = generic_state.replace(eps=1e-9)
        de = decay_exponents(sample_material, mp)
        amp = Amplitudes(0.4 + 0.3j, 1.0, 0.2j)
        z = 0.8 / mp.k
        nl = nonlocal_stresses(amp, de, mp, sample_material, 0.05, z)
        loc = local_stresses(amp, de, mp, sample_material, 0.05, z)
        assert (nl.u1, nl.u3, nl.phi2) == (loc.u1, loc.u3, loc.phi2)
        for name in ("sigma11", "sigma13", "sigma31", "sigma33", "pi12",
                     "pi32"):
            assert getattr(nl, name) == pytest.approx(getattr(loc, name),
                                                      rel=1e-9)

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
        amp = elastic_amplitudes(m, root.v, eps)
        st = nonlocal_stresses(amp, de, mp, m, 0.0, 0.0)
        norm = k * k * (m.mu + m.kappa) * abs(amp.Q)
        assert abs(st.sigma31) < 1e-8 * norm
        assert abs(st.sigma33) < 1e-8 * norm
        assert abs(st.pi32) == 0.0


class TestModeParamsBounds:
    """Infinite k, omega or eps, and v <= 0, are rejected where the state is
    built; accepted, they gave s = NaN and NaN PDE residuals later."""

    @pytest.mark.parametrize("k, omega, v, eps, match", [
        (1000.0, 1e6, 1000.0, math.inf, "eps"),
        (math.inf, 1.0, 0.0, 0.1, "k must be"),
        (1.0, math.inf, math.inf, 0.1, "omega must be"),
        (1e300, 1e-300, 0.0, 0.1, "v must be positive"),
    ])
    def test_rejected(self, k, omega, v, eps, match):
        with pytest.raises(ValueError, match=match):
            ModeParams(k=k, omega=omega, v=v, eps=eps)


class TestNanInputs:
    """NaN fails every guard instead of passing through as a NaN result."""

    def test_mode_params(self):
        with pytest.raises(ValueError, match="omega/k"):
            ModeParams(k=1.0, omega=1.0, v=math.nan, eps=0.1)
        with pytest.raises(ValueError, match="eps"):
            ModeParams(k=1.0, omega=1.0, v=1.0, eps=math.nan)

    def test_depth_of_fields_and_stresses(self, sample_material,
                                          generic_state):
        de = decay_exponents(sample_material, generic_state)
        amp = Amplitudes(1.0, 0.5j, 0.2)
        for stresses in (local_stresses, nonlocal_stresses):
            with pytest.raises(ValueError, match="half-space"):
                stresses(amp, de, generic_state, sample_material, 0.0,
                         math.nan)

    def test_blayer_closed_form(self):
        with pytest.raises(ValueError, match="eta must be >= 0"):
            blayer_closed_form(0.8, 0.8, 0.1, math.nan)
        with pytest.raises(ValueError, match="eps must be >= 0"):
            blayer_closed_form(0.8, 0.8, math.nan, 0.5)
