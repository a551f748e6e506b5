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

import hashlib
import json
import math
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path


class InvalidMaterialError(ValueError):
    """Raised when an operation requires a material that fails validation."""


_CONFIG_KEYS = ("lambda", "mu", "kappa", "alpha", "beta", "gamma", "rho", "j", "a")


@dataclass(frozen=True)
class MaterialParams:
    """The nine physical constants, all in SI units."""

    lambda_lame: float  # Pa
    mu: float           # Pa
    kappa: float        # Pa
    alpha_mp: float     # N, couple-stress constant (validated, unused in plane strain)
    beta_mp: float      # N, couple-stress constant (validated, unused in plane strain)
    gamma_mp: float     # N
    rho: float          # kg/m^3
    j_inertia: float    # m^2
    a_nl: float         # m, non-locality length

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


@dataclass(frozen=True)
class DerivedScales:
    c1: float            # m/s
    c2: float            # m/s
    c3: float            # m/s
    c4: float            # m/s
    d: float             # mu / (mu + kappa)
    omega_cutoff: float  # rad/s

    def __post_init__(self):
        if not (self.c1 > self.c2 > 0.0):
            raise InvalidMaterialError(
                f"derived speeds violate c1 > c2 > 0 (c1={self.c1}, c2={self.c2})"
            )
        if not (0.0 < self.d <= 1.0):
            raise InvalidMaterialError(f"d out of (0, 1]: {self.d}")


@dataclass(frozen=True)
class Dimensionless:
    """Dimensionless groups at a given wavenumber k (lambda_ref = 1/k)."""

    eps: float         # a * k
    alpha1: float      # c1 / c2
    alpha2: float      # c3 / c2
    alpha3: float      # c4 / c2
    J: float           # j / lambda_ref^2 = j * k^2
    lambda_ref: float  # 1/k, m


@dataclass(frozen=True)
class ValidationOutcome:
    ok: bool
    violations: tuple[str, ...]


def validate(m: MaterialParams) -> ValidationOutcome:
    """Check the material invariants; diagnostic, never raises."""
    violations = []
    fields = (
        ("lambda", m.lambda_lame), ("mu", m.mu), ("kappa", m.kappa),
        ("alpha", m.alpha_mp), ("beta", m.beta_mp), ("gamma", m.gamma_mp),
        ("rho", m.rho), ("j", m.j_inertia), ("a", m.a_nl),
    )
    for name, value in fields:
        if not math.isfinite(value):
            violations.append(f"{name} finite")
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


def dimensionless_params(m: MaterialParams, k: float) -> Dimensionless:
    """Dimensionless groups for wavenumber k > 0."""
    if not k > 0:
        raise ValueError(f"wavenumber must be positive, got {k}")
    s = derive_scales(m)
    return Dimensionless(
        eps=m.a_nl * k,
        alpha1=s.c1 / s.c2,
        alpha2=s.c3 / s.c2,
        alpha3=s.c4 / s.c2,
        J=m.j_inertia * k * k,
        lambda_ref=1.0 / k,
    )


def material_from_json(text: str) -> MaterialParams:
    """Parse the material config: a JSON object with exactly the keys
    {"lambda","mu","kappa","alpha","beta","gamma","rho","j","a"}."""
    try:
        obj = json.loads(text)
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
    for key in _CONFIG_KEYS:
        if isinstance(obj[key], bool) or not isinstance(obj[key], (int, float)):
            raise InvalidMaterialError(f"material key {key!r} must be a number")
    return MaterialParams(
        lambda_lame=float(obj["lambda"]),
        mu=float(obj["mu"]),
        kappa=float(obj["kappa"]),
        alpha_mp=float(obj["alpha"]),
        beta_mp=float(obj["beta"]),
        gamma_mp=float(obj["gamma"]),
        rho=float(obj["rho"]),
        j_inertia=float(obj["j"]),
        a_nl=float(obj["a"]),
    )


def load_material(path: str | Path) -> MaterialParams:
    return material_from_json(Path(path).read_text(encoding="utf-8"))


def material_fingerprint(m: MaterialParams) -> str:
    """Stable hash of the nine constants, used to tag dispersion curves."""
    payload = ",".join(
        repr(v) for v in (
            m.lambda_lame, m.mu, m.kappa, m.alpha_mp, m.beta_mp,
            m.gamma_mp, m.rho, m.j_inertia, m.a_nl,
        )
    )
    return hashlib.sha256(payload.encode("ascii")).hexdigest()[:16]
