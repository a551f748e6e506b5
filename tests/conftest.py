import os
from pathlib import Path

import numpy as np
import pytest

from mnwaves.kernel import gaussian_field, roundtrip_error
from mnwaves.material import MaterialParams
from mnwaves.wavefield import ModeParams

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


def make_mode_params(m: MaterialParams, k: float, omega: float) -> ModeParams:
    """Mode state at (k, omega) with v = omega/k and eps = a*k."""
    return ModeParams(k=k, omega=omega, v=omega / k, eps=m.a_nl * k)
