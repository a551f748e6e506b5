"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines as they execute.  Measured values (including the boundary-condition
slope study) are archived to acceptance_report.json at the repository root,
as {"provenance": {...}, "criteria": [...]}: the provenance names the
package, Python, numpy and scipy versions, the dispatched CPU features numpy
runs with and the sha256 of the sample material file, so the file changes
only when one of those does.  The features matter: numpy's SIMD kernels for
arctan2 and exp round differently at each level, which moves C3's error in
its last digits.
"""

import hashlib
import json
import math
import platform
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import scipy

import mnwaves
from conftest import (DATA_DIR, GOLDEN_DIR, exact_shear_exponents, fit_slope,
                      make_mode_params, subprocess_env)
from test_dispersion import classical_rayleigh_oracle

from mnwaves.asymptotic import (
    SLOPE_EPS_GRID,
    bc_residual_order,
    bc_slope_study,
    blayer_convergence,
    boundary_operator,
    equivalence_residual_elastic,
    equivalence_residual_micropolar,
)
from mnwaves.dispersion import (
    CutoffError,
    elastic_amplitudes,
    micropolar_velocity,
    secular_leading,
    solve_rayleigh,
)
from mnwaves.kernel import kernel_weight
from mnwaves.material import derive_scales
from mnwaves.specfun import integrate_2d_polar
from mnwaves.wavefield import (
    Amplitudes,
    ModeParams,
    ModeSolution,
    blayer_quadrature_form,
    decay_exponents,
    pde_residual,
)

REPORT_PATH = Path(__file__).resolve().parent.parent / "acceptance_report.json"
RESULTS: list[dict] = []


def record(criterion: str, passed: bool, detail: dict) -> None:
    status = "PASS" if passed else "FAIL"
    print(f"[{status}] {criterion}")
    RESULTS.append({"criterion": criterion, "status": status, **detail})


def numpy_cpu_dispatch() -> list[str]:
    """The dispatch targets numpy's build offers that this CPU enables
    (NPY_DISABLE_CPU_FEATURES can turn them off)."""
    from numpy._core._multiarray_umath import (__cpu_dispatch__,
                                               __cpu_features__)
    return [f for f in __cpu_dispatch__ if __cpu_features__.get(f)]


def provenance() -> dict:
    material = (DATA_DIR / "sample_material.json").read_bytes()
    return {"mnwaves": mnwaves.__version__,
            "python": platform.python_version(),
            "numpy": np.__version__,
            "numpy_cpu_dispatch": numpy_cpu_dispatch(),
            "scipy": scipy.__version__,
            "sample_material_sha256": hashlib.sha256(material).hexdigest()}


@pytest.fixture(scope="module", autouse=True)
def archive_report():
    yield
    report = {"provenance": provenance(), "criteria": RESULTS}
    REPORT_PATH.write_text(json.dumps(report, indent=2) + "\n",
                           encoding="utf-8")
    print(f"\nacceptance report written to {REPORT_PATH}")


def test_c01_classical_rayleigh_limit(poisson_material):
    sc = derive_scales(poisson_material)
    got = solve_rayleigh(poisson_material).v / sc.c2
    want = classical_rayleigh_oracle(sc.c1 / sc.c2)
    passed = abs(got - 0.9194) <= 1e-3 and abs(got - want) <= 1e-6
    record("C1 classical Rayleigh limit (v/c2 = 0.9194 +- 1e-3, "
           "matches bisection oracle)", passed,
           {"v_over_c2": got, "oracle": want})
    assert passed, (got, want)


def test_c02_kernel_normalization():
    a = 0.05
    mass = integrate_2d_polar(lambda r, th: kernel_weight(r, a), 40.0 * a).real
    passed = abs(mass - 1.0) <= 1e-4
    record("C2 kernel normalization (disk mass = 1 +- 1e-4)", passed,
           {"mass": mass})
    assert passed, mass


def test_c03_greens_function_roundtrip(roundtrip_result):
    err = roundtrip_result["error"]
    passed = err < 1e-3
    record("C3 Green's-function roundtrip (rel Linf < 1e-3)", passed,
           {"rel_linf": err, "margin_nodes": roundtrip_result["margin_nodes"]})
    assert passed, err


def test_c04_boundary_layer_convergence(sample_material):
    slopes = blayer_convergence(sample_material, SLOPE_EPS_GRID)["slopes"]
    passed = all(s >= 2.0 for s in slopes.values())
    record("C4 boundary-layer integral convergence (slope >= 2 per branch "
           "and depth)", passed, {"slopes": slopes})
    assert passed, slopes


def test_c05_boundary_operator_identity():
    eps_values = (0.2, 0.1, 0.05)
    slopes = {}
    for r in (0.3, 0.8):
        devs = []
        for eps in eps_values:
            image = 1.0 - eps * eps * (r * r - 1.0)
            smoothed = image * blayer_quadrature_form(r, eps, 0.0)
            half_op = 0.5 * boundary_operator(1.0, -r, eps)
            devs.append(abs(half_op - (1.0 - smoothed)))
        slopes[f"r={r}"] = fit_slope(eps_values, devs)
    passed = all(s >= 3.0 for s in slopes.values())
    record("C5 boundary operator identity (deviation slope >= 3)", passed,
           {"slopes": slopes})
    assert passed, slopes


def test_c06_failure_of_equivalence(sample_material, seed):
    m = sample_material  # kappa/mu = 0.1
    sc = derive_scales(m)
    root = solve_rayleigh(m)
    coeff = equivalence_residual_elastic(m, root.v, 1.0)
    r10 = math.sqrt(1.0 - (root.v / sc.c1) ** 2)
    bracket = abs(coeff * 2.0 * (1.0 + sc.d) ** 2 * r10)

    omega = 2.0 * sc.omega_cutoff
    v_mp = micropolar_velocity(m, omega)
    k_mp = omega / v_mp
    mp_value = abs(equivalence_residual_micropolar(m, v_mp, k_mp))

    rng = np.random.default_rng(seed)
    k = 137.0
    identity_rel = 0.0
    for v_frac in rng.uniform(0.05, 0.95, 20):
        v = float(v_frac) * sc.c2
        got = equivalence_residual_micropolar(m, v, k)
        r20sq = 1.0 - (v / sc.c2) ** 2
        want = k ** 3 * secular_leading(m, v) / (r20sq + sc.d)
        identity_rel = max(identity_rel, abs(got.real - want) / abs(want))

    passed = (bracket > 1e-3 and mp_value > 1e-6 * k_mp ** 3
              and identity_rel < 1e-12)
    record("C6 failure of equivalence (elastic bracket > 1e-3, micropolar "
           "value > 1e-6 k^3, secular identity to 1e-12)", passed,
           {"bracket": bracket, "micropolar_value": mp_value,
            "micropolar_threshold": 1e-6 * k_mp ** 3,
            "identity_rel": identity_rel})
    assert passed, (bracket, mp_value, identity_rel)


def test_c07_micropolar_cutoff(sample_material):
    m = sample_material
    sc = derive_scales(m)
    cutoff_ok = True
    for omega in (0.3 * sc.omega_cutoff, sc.omega_cutoff):
        try:
            micropolar_velocity(m, omega)
            cutoff_ok = False
        except CutoffError:
            pass
    v_sqrt2 = micropolar_velocity(m, math.sqrt(2.0) * sc.omega_cutoff)
    sqrt2_rel = abs(v_sqrt2 - math.sqrt(2.0) * sc.c4) / (math.sqrt(2.0) * sc.c4)
    omegas = np.geomspace(1.02 * sc.omega_cutoff, 100.0 * sc.omega_cutoff, 50)
    vs = [micropolar_velocity(m, float(w)) for w in omegas]
    monotone = all(a > b for a, b in zip(vs, vs[1:])) and all(v > sc.c4
                                                             for v in vs)
    passed = cutoff_ok and sqrt2_rel <= 1e-12 and monotone
    record("C7 micropolar cutoff (error below cutoff, v(sqrt2 w_c) = sqrt2 c4 "
           "to 1e-12, monotone descent to c4)", passed,
           {"sqrt2_rel": sqrt2_rel, "monotone": monotone,
            "cutoff_errors": cutoff_ok})
    assert passed


def test_c08_refined_bc_reduction_and_hierarchy(sample_material,
                                                study_material):
    # reduction: a_nl = 0 makes refined identical to classical, bitwise
    m = sample_material
    root = solve_rayleigh(m)
    k = 2000.0
    mp = ModeParams(k=k, omega=root.v * k, v=root.v, eps=0.0)
    de = decay_exponents(m, mp)
    amp = elastic_amplitudes(m, root.v, 0.0)
    sol = ModeSolution(m=m, mp=mp, amp=amp, de=de)
    classical = bc_residual_order(sol, 0)
    refined = bc_residual_order(sol, 2)
    reduction = all(a == b for a, b in zip(classical, refined))

    # hierarchy: slopes on the first-order-corrected solutions
    study = bc_slope_study(study_material, k)
    passed = (reduction and study["classical"] >= 0.9
              and study["refined"] >= 1.8)
    record("C8 refined-BC reduction (bitwise at a = 0) and hierarchy "
           "(classical slope >= 0.9, refined slope >= 1.8)", passed,
           {"bitwise_reduction": reduction,
            "slope_study_material": "kappa/mu = 0.4, lambda = mu",
            "slopes": {"classical": study["classical"],
                       "refined": study["refined"]},
            "eps_grid": study["eps"],
            "classical_residuals": study["classical_residuals"],
            "refined_residuals": study["refined_residuals"]})
    assert passed, study


def test_c09_pde_residual_certificate(sample_material):
    m = sample_material
    sc = derive_scales(m)
    v = 0.3 * sc.c2
    omega = 3.0 * sc.omega_cutoff
    mp = make_mode_params(m, omega / v, omega)
    de = decay_exponents(m, mp)
    res_p = pde_residual(Amplitudes(1.0, 0.0, 0.0), de, mp, m)
    res_q = pde_residual(Amplitudes(0.0, 1.0, 0.0), de, mp, m)
    branch_ok = abs(res_p[0]) < 1e-12 and abs(res_q[1]) < 1e-12

    kappas = [2e8 * 0.5 ** t for t in range(4)]
    devs = []
    for kappa in kappas:
        mt = m.replace(kappa=kappa)
        mpt = make_mode_params(mt, omega / v, omega)
        det = decay_exponents(mt, mpt)
        roots = exact_shear_exponents(mt, mpt)
        devs.append(min(abs(roots.first.delta ** 2 - det.r3 ** 2),
                        abs(roots.second.delta ** 2 - det.r3 ** 2)))
    slope = fit_slope(kappas, devs)
    passed = branch_ok and slope >= 1.0
    record("C9 PDE residual certificate (dilatational/shear residuals < 1e-12; "
           "R-branch vs oracle at least linear in kappa)", passed,
           {"res_p1": abs(res_p[0]), "res_q2": abs(res_q[1]),
            "kappa_slope": slope,
            "oracle_deviations": devs})
    assert passed, (res_p, res_q, slope)


def test_c10_cli_determinism():
    sample = str(DATA_DIR / "sample_material.json")
    cases = {
        "speeds.txt": ["speeds", "--material", sample],
        "dispersion_elastic.csv": ["dispersion", "--material", sample,
                                   "--mode", "elastic", "--omega-min", "2e5",
                                   "--omega-max", "2e6", "--num", "5"],
        "dispersion_micropolar.csv": ["dispersion", "--material", sample,
                                      "--mode", "micropolar", "--omega-min",
                                      "3e5", "--omega-max", "2e6",
                                      "--num", "6"],
        "residuals.json": ["residuals", "--material", sample],
    }
    mismatches = []
    for golden_name, args in cases.items():
        proc = subprocess.run([sys.executable, "-m", "mnwaves.cli", *args],
                              capture_output=True, env=subprocess_env())
        golden = (GOLDEN_DIR / golden_name).read_bytes()
        if proc.returncode != 0 or proc.stdout != golden:
            mismatches.append(golden_name)
    passed = not mismatches
    record("C10 CLI determinism (golden-file byte equality for speeds, both "
           "dispersion modes, residuals)", passed,
           {"mismatches": mismatches})
    assert passed, mismatches
