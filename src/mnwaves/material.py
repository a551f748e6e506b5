"""Physical constants of the micropolar non-local solid and derived scales.

A material is described by nine SI constants: the Lame/micropolar moduli
(lambda, mu, kappa), the couple-stress constants (alpha, beta, gamma), the
mass density rho, the microinertia j and the non-locality length a.  From
these the four wave speeds

    c1 = sqrt((lambda + 2 mu + kappa) / rho)   dilatational
    c2 = sqrt((mu + kappa) / rho)              shear
    c3 = sqrt(kappa / rho)                     micropolar coupling
    c4 = sqrt(gamma / (rho j))                 microrotational

follow, together with d = mu/(mu+kappa) and the cutoff frequency
omega_c = sqrt(2 kappa / (rho j)) below which the microrotational surface
mode cannot propagate.

The reference length is the inverse wavenumber, lambda_ref = 1/k, so the
non-locality parameter in dimensionless form is eps = a*k.
"""

from __future__ import annotations

import json
import math
from functools import cached_property
from pathlib import Path

from ._record import Record, setfield


class InvalidMaterialError(ValueError):
    """Raised when an operation requires a material that fails validation."""


# in the field order of MaterialParams
_CONFIG_KEYS = ("lambda", "mu", "kappa", "alpha", "beta", "gamma", "rho", "j", "a")


class MaterialParams(Record):
    """The nine physical constants, all in SI units."""

    def __init__(self,
                 lambda_lame: float,  # Pa
                 mu: float,           # Pa
                 kappa: float,        # Pa
                 alpha_mp: float,     # N, couple-stress constant (validated, unused in plane strain)
                 beta_mp: float,      # N, couple-stress constant (validated, unused in plane strain)
                 gamma_mp: float,     # N
                 rho: float,          # kg/m^3
                 j_inertia: float,    # m^2
                 a_nl: float):        # m, non-locality length
        setfield(self, "lambda_lame", lambda_lame)
        setfield(self, "mu", mu)
        setfield(self, "kappa", kappa)
        setfield(self, "alpha_mp", alpha_mp)
        setfield(self, "beta_mp", beta_mp)
        setfield(self, "gamma_mp", gamma_mp)
        setfield(self, "rho", rho)
        setfield(self, "j_inertia", j_inertia)
        setfield(self, "a_nl", a_nl)

    @cached_property
    def _scales(self) -> DerivedScales:
        # per instance, not per value: kappa = 0.0 and -0.0 compare equal but
        # give c3 = 0.0 and -0.0; an invalid material raises, caching nothing
        outcome = validate(self)
        if not outcome.ok:
            raise InvalidMaterialError("invalid material: "
                                       + "; ".join(outcome.violations))
        return DerivedScales(
            c1=math.sqrt((self.lambda_lame + 2.0 * self.mu + self.kappa) / self.rho),
            c2=math.sqrt((self.mu + self.kappa) / self.rho),
            c3=math.sqrt(self.kappa / self.rho),
            c4=math.sqrt(self.gamma_mp / (self.rho * self.j_inertia)),
            d=self.mu / (self.mu + self.kappa),
            omega_cutoff=math.sqrt(2.0 * self.kappa / (self.rho * self.j_inertia)),
        )


class DerivedScales(Record):
    def __init__(self,
                 c1: float,             # m/s
                 c2: float,             # m/s
                 c3: float,             # m/s
                 c4: float,             # m/s
                 d: float,              # mu / (mu + kappa)
                 omega_cutoff: float):  # rad/s
        if not (c1 > c2 > 0.0):
            raise InvalidMaterialError(
                f"derived speeds violate c1 > c2 > 0 (c1={c1}, c2={c2})"
            )
        if not (0.0 < d <= 1.0):
            raise InvalidMaterialError(f"d out of (0, 1]: {d}")
        setfield(self, "c1", c1)
        setfield(self, "c2", c2)
        setfield(self, "c3", c3)
        setfield(self, "c4", c4)
        setfield(self, "d", d)
        setfield(self, "omega_cutoff", omega_cutoff)


class ValidationOutcome(Record):
    def __init__(self, ok: bool, violations: tuple[str, ...]):
        setfield(self, "ok", ok)
        setfield(self, "violations", violations)


def validate(m: MaterialParams) -> ValidationOutcome:
    """Check the material invariants; diagnostic, never raises."""
    violations = [f"{key} finite"
                  for key, value in zip(_CONFIG_KEYS, m._values())
                  if not math.isfinite(value)]
    if violations:
        return ValidationOutcome(False, tuple(violations))
    if not m.rho > 0:
        violations.append("rho > 0")
    if not m.mu > 0:
        violations.append("mu > 0")
    if not m.kappa >= 0:
        violations.append("kappa >= 0")
    if not m.gamma_mp > 0:
        violations.append("gamma > 0")
    if not m.j_inertia > 0:
        violations.append("j > 0")
    if not m.a_nl >= 0:
        violations.append("a >= 0")
    if not m.lambda_lame + 2.0 * m.mu + m.kappa > 0:
        violations.append("lambda + 2*mu + kappa > 0")
    if not m.lambda_lame + m.mu > 0:  # c1 > c2, which derive_scales requires
        violations.append("lambda + mu > 0")
    return ValidationOutcome(not violations, tuple(violations))


def derive_scales(m: MaterialParams) -> DerivedScales:
    """Wave speeds, stress ratio d and cutoff frequency, validated and
    derived once per material instance."""
    return m._scales


def _json_int(literal: str) -> int:
    """A JSON integer literal as an int.  Past Python's int-to-string digit
    limit (4300 digits by default) int() raises ValueError; such an integer
    is beyond any float, so 2**1024, which no float holds either, stands in
    and material_from_json reports the key as too large for a float."""
    try:
        return int(literal)
    except ValueError:
        return 1 << 1024


def material_from_json(text: str) -> MaterialParams:
    """Parse the material config: a JSON object with exactly the keys
    {"lambda","mu","kappa","alpha","beta","gamma","rho","j","a"}."""
    try:
        obj = json.loads(text, parse_int=_json_int)
    except json.JSONDecodeError as exc:
        raise InvalidMaterialError(f"material config is not valid JSON: {exc}") from exc
    if not isinstance(obj, dict):
        raise InvalidMaterialError("material config must be a JSON object")
    unknown = sorted(set(obj) - set(_CONFIG_KEYS))
    if unknown:
        raise InvalidMaterialError(f"unknown material keys: {', '.join(unknown)}")
    missing = [key for key in _CONFIG_KEYS if key not in obj]
    if missing:
        raise InvalidMaterialError(f"missing material keys: {', '.join(missing)}")
    values = []
    for key in _CONFIG_KEYS:
        if isinstance(obj[key], bool) or not isinstance(obj[key], (int, float)):
            raise InvalidMaterialError(f"material key {key!r} must be a number")
        try:
            values.append(float(obj[key]))
        except OverflowError:
            raise InvalidMaterialError(
                f"material key {key!r} is too large for a float") from None
    return MaterialParams(*values)


def load_material(path: str | Path) -> MaterialParams:
    try:
        text = Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise InvalidMaterialError(f"material config is not UTF-8 text "
                                   f"({exc.reason} at byte {exc.start})") from exc
    return material_from_json(text)
