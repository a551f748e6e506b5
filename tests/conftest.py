import cmath
import math
import os
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import pytest

from mnwaves.kernel import gaussian_field, roundtrip_error
from mnwaves.material import MaterialParams, derive_scales
from mnwaves.wavefield import ModeParams, _branch_sqrt

DATA_DIR = Path(__file__).parent / "data"
GOLDEN_DIR = Path(__file__).parent / "golden"
SRC_DIR = Path(__file__).resolve().parent.parent / "src"


def subprocess_env() -> dict[str, str]:
    """This environment with src/ first on PYTHONPATH, so that a child
    `python -m mnwaves.cli` runs this checkout without an install."""
    paths = [str(SRC_DIR), os.environ.get("PYTHONPATH", "")]
    return {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, paths))}


def pytest_addoption(parser):
    parser.addoption("--seed", type=int, default=2024,
                     help="seed for the sampled property tests")


@pytest.fixture(scope="session")
def seed(request) -> int:
    return request.config.getoption("--seed")


@pytest.fixture(scope="session")
def sample_material() -> MaterialParams:
    """Micropolar solid with kappa/mu = 0.1; matches data/sample_material.json."""
    return MaterialParams(
        lambda_lame=2e9, mu=2e9, kappa=2e8,
        alpha_mp=50.0, beta_mp=75.0, gamma_mp=100.0,
        rho=2000.0, j_inertia=1e-6, a_nl=1e-4,
    )


@pytest.fixture(scope="session")
def poisson_material() -> MaterialParams:
    """Classical limit: kappa = 0, lambda = mu, so c1^2 = 3 c2^2."""
    return MaterialParams(
        lambda_lame=1e9, mu=1e9, kappa=0.0,
        alpha_mp=1.0, beta_mp=1.0, gamma_mp=100.0,
        rho=1000.0, j_inertia=1e-6, a_nl=0.0,
    )


@pytest.fixture(scope="session")
def study_material() -> MaterialParams:
    """Material for the boundary-condition slope studies (kappa/mu = 0.4).

    Near kappa/mu ~ 0.1-0.2 the second-order coefficient of the first
    refined surface row passes close to a zero, which contaminates slope
    fits on the coarse eps grid; at 0.4 it is well conditioned.
    """
    return MaterialParams(
        lambda_lame=2e9, mu=2e9, kappa=8e8,
        alpha_mp=50.0, beta_mp=75.0, gamma_mp=100.0,
        rho=2000.0, j_inertia=1e-6, a_nl=1e-4,
    )


@pytest.fixture(scope="session")
def sample_material_path() -> Path:
    return DATA_DIR / "sample_material.json"


@pytest.fixture(scope="session")
def roundtrip_result():
    """apply_helmholtz(convolve(f)) vs f for an interior Gaussian.

    Computed once per session (it is the expensive kernel check) and shared
    by the kernel unit tests and the acceptance suite.  Grid spacing a/4
    keeps the cell-sampling error of the discrete convolution below the
    1e-3 target; the Gaussian support stays more than 12 a from every edge.
    """
    a = 0.05
    _, margin, err = roundtrip_error(gaussian_field(192, a / 4.0, 0.3), a)
    return {"error": err, "margin_nodes": margin}


def fit_slope(eps_values, deviations) -> float:
    """Least-squares slope of log(deviation) against log(eps)."""
    return float(np.polyfit(np.log(np.asarray(eps_values, dtype=float)),
                            np.log(np.asarray(deviations, dtype=float)), 1)[0])


def material_draws(seed):
    """(lambda/mu, kappa/mu) and the material: kappa/mu = 16 (root above
    0.9999 c2), then 40 draws over the valid material space."""
    rng = np.random.default_rng(seed)
    log_kappa = rng.uniform(-4.0, math.log10(30.0), 40)
    ratios = [(1.0, 16.0)] + list(zip(rng.uniform(-0.95, 20.0, 40),
                                      10.0 ** log_kappa))
    for lam_mu, kappa_mu in ratios:
        yield (lam_mu, kappa_mu), MaterialParams(
            lambda_lame=float(lam_mu) * 1e9, mu=1e9,
            kappa=float(kappa_mu) * 1e9, alpha_mp=1.0, beta_mp=1.0,
            gamma_mp=100.0, rho=1000.0, j_inertia=1e-6, a_nl=1e-4)


def make_mode_params(m: MaterialParams, k: float, omega: float) -> ModeParams:
    """Mode state at (k, omega) with v = omega/k and eps = a*k."""
    return ModeParams(k=k, omega=omega, v=omega / k, eps=m.a_nl * k)


@dataclass(frozen=True)
class ShearRoot:
    delta: complex     # depth exponent, Re >= 0 branch
    coupling: complex  # microrotation-to-shear amplitude ratio C/B


@dataclass(frozen=True)
class ShearRoots:
    first: ShearRoot
    second: ShearRoot
    degenerate: bool


def exact_shear_exponents(m: MaterialParams, mp: ModeParams) -> ShearRoots:
    """Both roots of the coupled psi-Phi2 system, without approximation.

    Substituting psi = B e^{ikx - k delta z}, Phi2 = C e^{ikx - k delta z}
    into the coupled pair yields a quadratic in X = delta^2 - 1:

        [c2^2 k^2 X + w^2 (1 - eps^2 X)] B + c3^2 C            = 0
        -(c3^2/j) k^2 X B + [c4^2 k^2 X - 2 c3^2/j
                             + w^2 (1 - eps^2 X)] C            = 0

    whose determinant this solves exactly; it is the oracle against which
    the closed-form r2, r3 are measured.
    """
    if not m.kappa > 0:
        raise ValueError("exact_shear_exponents requires kappa > 0")
    sc = derive_scales(m)
    k2 = mp.k * mp.k
    w2 = mp.omega * mp.omega
    e2 = mp.eps * mp.eps
    c22, c32, c42 = sc.c2 ** 2, sc.c3 ** 2, sc.c4 ** 2
    tsj = 2.0 * c32 / m.j_inertia
    qa = (c22 * k2 - e2 * w2) * (c42 * k2 - e2 * w2)
    qb = ((c22 * k2 - e2 * w2) * (w2 - tsj)
          + (c42 * k2 - e2 * w2) * w2
          + (c32 * c32 / m.j_inertia) * k2)
    qc = w2 * (w2 - tsj)
    disc = complex(qb) ** 2 - 4.0 * complex(qa) * complex(qc)
    scale = abs(qb) ** 2 + 4.0 * abs(qa) * abs(qc)
    degenerate = abs(disc) <= 1e-12 * scale
    sq = cmath.sqrt(disc)
    roots = sorted(((-qb + sq) / (2.0 * qa), (-qb - sq) / (2.0 * qa)),
                   key=lambda x: (x.real, x.imag))
    out = []
    for x in roots:
        delta = _branch_sqrt(1.0 + x)
        coupling = -(c22 * k2 * x + w2 * (1.0 - e2 * x)) / c32
        out.append(ShearRoot(delta=delta, coupling=coupling))
    return ShearRoots(first=out[0], second=out[1], degenerate=degenerate)

