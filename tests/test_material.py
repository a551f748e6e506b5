import json
import math

import pytest

from mnwaves.material import (
    InvalidMaterialError,
    MaterialParams,
    derive_scales,
    load_material,
    material_from_json,
    validate,
)


def _mat(**overrides) -> MaterialParams:
    base = dict(lambda_lame=2e9, mu=2e9, kappa=2e8, alpha_mp=50.0,
                beta_mp=75.0, gamma_mp=100.0, rho=2000.0, j_inertia=1e-6,
                a_nl=1e-4)
    base.update(overrides)
    return MaterialParams(**base)


class TestValidate:
    def test_all_positive_sample_passes(self):
        outcome = validate(_mat())
        assert outcome.ok
        assert outcome.violations == ()

    def test_negative_rho_reports_the_bound(self):
        outcome = validate(_mat(rho=-1.0))
        assert not outcome.ok
        assert "rho > 0" in outcome.violations

    def test_kappa_zero_is_admitted(self):
        # classical elastic limit
        assert validate(_mat(kappa=0.0)).ok

    def test_negative_combination_rejected(self):
        outcome = validate(_mat(lambda_lame=-5e9))
        assert "lambda + 2*mu + kappa > 0" in outcome.violations

    def test_lambda_plus_mu_bound_agrees_with_derive_scales(self):
        # c1 > c2 needs lambda + mu > 0, which lambda + 2 mu + kappa > 0
        # does not imply when kappa > 0
        m = _mat(lambda_lame=-3e9, kappa=4e9)
        assert validate(m).violations == ("lambda + mu > 0",)
        with pytest.raises(InvalidMaterialError):
            derive_scales(m)

    def test_nonfinite_rejected(self):
        outcome = validate(_mat(gamma_mp=math.nan))
        assert not outcome.ok

    def test_couple_stress_constants_unconstrained(self):
        # alpha, beta carry no positivity bounds
        assert validate(_mat(alpha_mp=-3.0, beta_mp=0.0)).ok

    def test_violation_texts(self):
        # the exact strings, in order: mnw validate prints them
        assert validate(MaterialParams(*[math.nan] * 9)).violations == (
            "lambda finite", "mu finite", "kappa finite", "alpha finite",
            "beta finite", "gamma finite", "rho finite", "j finite",
            "a finite")
        for i, key in enumerate(("lambda", "mu", "kappa", "alpha", "beta",
                                 "gamma", "rho", "j", "a")):
            values = [1.0] * 9
            values[i] = -math.inf
            assert validate(MaterialParams(*values)).violations == (
                f"{key} finite",)
        everything = MaterialParams(-1.0, 0.0, -1.0, 0.0, 0.0, 0.0, 0.0,
                                    0.0, -1.0)
        assert validate(everything).violations == (
            "rho > 0", "mu > 0", "kappa >= 0", "gamma > 0", "j > 0",
            "a >= 0", "lambda + 2*mu + kappa > 0", "lambda + mu > 0")


class TestDeriveScales:
    def test_classical_closed_forms(self):
        m = _mat(lambda_lame=1e9, mu=1e9, kappa=0.0, rho=1000.0)
        sc = derive_scales(m)
        assert sc.c2 == pytest.approx(1000.0, rel=1e-15)
        assert sc.c1 == pytest.approx(math.sqrt(3.0) * 1000.0, rel=1e-12)
        assert sc.c3 == 0.0
        assert sc.d == 1.0

    def test_kappa_equal_mu_halves_d(self):
        assert derive_scales(_mat(kappa=2e9)).d == pytest.approx(0.5)

    def test_generic_material_all_scales(self):
        # cross-check against independent arithmetic on the definitions
        m = _mat()
        sc = derive_scales(m)
        assert sc.c1 == pytest.approx(((m.lambda_lame + 2 * m.mu + m.kappa)
                                       / m.rho) ** 0.5, rel=1e-14)
        assert sc.c2 == pytest.approx(((m.mu + m.kappa) / m.rho) ** 0.5,
                                      rel=1e-14)
        assert sc.c3 == pytest.approx((m.kappa / m.rho) ** 0.5, rel=1e-14)
        assert sc.c4 == pytest.approx((m.gamma_mp / (m.rho * m.j_inertia)) ** 0.5,
                                      rel=1e-14)
        assert sc.d == pytest.approx(m.mu / (m.mu + m.kappa), rel=1e-15)
        assert sc.c1 > sc.c2 > 0

    def test_invalid_material_rejected(self):
        with pytest.raises(InvalidMaterialError):
            derive_scales(_mat(rho=-1.0))

    def test_validated_once_per_instance(self, monkeypatch):
        from mnwaves import material
        calls = []

        def counting_validate(m):
            calls.append(m)
            return validate(m)

        monkeypatch.setattr(material, "validate", counting_validate)
        m = _mat()
        assert derive_scales(m) is derive_scales(m) is derive_scales(m)
        assert len(calls) == 1
        bad = _mat(rho=-1.0)
        for _ in range(2):
            with pytest.raises(InvalidMaterialError):
                derive_scales(bad)
        assert len(calls) == 3

    @pytest.mark.parametrize("first", [0.0, -0.0])
    def test_signed_zero_kappa_keeps_its_own_c3(self, first):
        # the two materials compare equal, so a value-keyed cache would
        # hand the second one the first one's c3
        a, b = _mat(kappa=first), _mat(kappa=-first)
        assert a == b
        for m in (a, b):
            c3 = derive_scales(m).c3
            assert c3 == 0.0
            assert math.copysign(1.0, c3) == math.copysign(1.0, m.kappa)

    @pytest.mark.parametrize("t", [2.0, 10.0])
    def test_scale_covariance(self, t):
        # multiplying the force moduli and the density by t leaves the force
        # speeds and d alone; c4 needs the couple modulus gamma scaled too
        m = _mat()
        scaled = _mat(lambda_lame=t * m.lambda_lame, mu=t * m.mu,
                      kappa=t * m.kappa, rho=t * m.rho)
        sc, sct = derive_scales(m), derive_scales(scaled)
        for name in ("c1", "c2", "c3", "d"):
            assert getattr(sct, name) == pytest.approx(getattr(sc, name),
                                                       rel=1e-12)
        full = _mat(lambda_lame=t * m.lambda_lame, mu=t * m.mu,
                    kappa=t * m.kappa, gamma_mp=t * m.gamma_mp, rho=t * m.rho)
        assert derive_scales(full).c4 == pytest.approx(sc.c4, rel=1e-12)

    def test_cutoff_identity(self):
        m = _mat()
        sc = derive_scales(m)
        assert sc.omega_cutoff ** 2 * m.j_inertia * m.rho == pytest.approx(
            2.0 * m.kappa, rel=1e-12)


class TestConfigFile:
    GOOD = {
        "lambda": 2e9, "mu": 2e9, "kappa": 2e8, "alpha": 50.0, "beta": 75.0,
        "gamma": 100.0, "rho": 2000.0, "j": 1e-6, "a": 1e-4,
    }

    def test_round_trip(self):
        m = material_from_json(json.dumps(self.GOOD))
        assert m.lambda_lame == 2e9
        assert m.j_inertia == 1e-6
        assert m.a_nl == 1e-4

    def test_unknown_key_rejected(self):
        bad = dict(self.GOOD, nu=0.25)
        with pytest.raises(InvalidMaterialError, match="unknown"):
            material_from_json(json.dumps(bad))

    def test_missing_key_rejected(self):
        bad = dict(self.GOOD)
        del bad["rho"]
        with pytest.raises(InvalidMaterialError, match="missing"):
            material_from_json(json.dumps(bad))

    def test_non_numeric_value_rejected(self):
        bad = dict(self.GOOD, mu="2e9")
        with pytest.raises(InvalidMaterialError, match="number"):
            material_from_json(json.dumps(bad))

    def test_oversized_integer_names_the_key(self):
        # written out in full, 10**400 parses to an int no float can hold
        bad = dict(self.GOOD, mu=10 ** 400)
        with pytest.raises(InvalidMaterialError, match="'mu'"):
            material_from_json(json.dumps(bad))

    @pytest.mark.parametrize("sign", ["", "-"])
    def test_integer_past_digit_limit_names_the_key(self, sign):
        # int() refuses more than 4300 digits; the key must still be named
        text = json.dumps(dict(self.GOOD, mu=0)).replace(
            '"mu": 0', f'"mu": {sign}1{"0" * 5000}')
        with pytest.raises(InvalidMaterialError,
                           match="'mu' is too large for a float"):
            material_from_json(text)

    def test_non_object_rejected(self):
        with pytest.raises(InvalidMaterialError):
            material_from_json("[1, 2, 3]")

    def test_garbage_rejected(self):
        with pytest.raises(InvalidMaterialError):
            material_from_json("{not json")

    def test_non_utf8_file_rejected(self, tmp_path):
        path = tmp_path / "binary.json"
        path.write_bytes(b'{"mu": \xff}')
        with pytest.raises(InvalidMaterialError,
                           match="not UTF-8 text .* at byte 7"):
            load_material(path)
