"""The three workloads: inputs made from the seed, operations and checks.

A workload yields rounds of operations; every run attempts whole rounds, so
the share of failed operations is the same in every run. An operation is a
pair of callables: `run()` calls mnwaves and is the only timed part, and
`check(result)` returns a list of problems found in its outputs.

mnwaves is reached only through module attributes (`dispersion.sweep`, not
a name imported from it), so that the tracer's wrappers are the ones called.
"""

from __future__ import annotations

import cmath
import json
import math
import os
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable

import numpy as np

import oracles

SAMPLE_MATERIAL = {
    "lambda": 2e9, "mu": 2e9, "kappa": 2e8, "alpha": 50.0, "beta": 75.0,
    "gamma": 100.0, "rho": 2000.0, "j": 1e-6, "a": 1e-4,
}
# kappa/mu = 16 with lambda = mu: the surface mode lies near 0.99999 c2,
# above the bracket solve_rayleigh searches, so the call fails. Fixed, not
# drawn from the seed, so that the failed share is the same in every run.
PAST_CAP_MATERIAL = dict(SAMPLE_MATERIAL, kappa=16.0 * 2e9)
# Seeded materials must keep their root clear of the solver's bracket cap.
ACCEPT_BELOW = 0.9998
# Where eps v nears c4 at the blayer state, r3 grows without bound. There the
# program's quadrature fails (ConvergenceError from |r3| near 3000, values
# off by more than the check's tolerance from |r3| near 1300), and r3 is so
# ill-conditioned that the 1e-12 exponent check cannot hold from |r3| near
# 670. Such materials fail on some seeds only, so they are drawn again.
MAX_BLAYER_EXPONENT = 300.0

STUDY_MATERIALS_PER_ROUND = 19   # plus PAST_CAP_MATERIAL: 1 in 20 fails
SWEEP_POINTS = 64
RESIDUAL_EPS = 0.1
BLAYER_EPS = (0.2, 0.1, 0.05)
BLAYER_ETA = (0.0, 0.5, 2.0)

KERNEL_A = 1e-4
MASS_TOL = 1e-8
# (name, h/a or None for a fresh draw from `fresh`, Gaussian width range
# in units of a). Listed by cost; the middle class sets latency_p50_ms.
KERNEL_CLASSES = (
    ("a/2", 0.5, None, (4.0, 4.5)),
    ("fresh-coarse", None, (0.36, 0.40), (4.0, 4.5)),
    ("a/3", 1.0 / 3.0, None, (4.0, 4.5)),
    ("fresh-fine", None, (0.27, 0.29), (5.0, 5.5)),
    ("a/4", 0.25, None, (6.0, 6.5)),
)
CENTRE_JITTER = 0.5   # in units of a
EDGE_DECAY = 3.8      # widths from the centre to the grid edge: e^-14.4 < 1e-6

CLI_COMMANDS = ("validate", "speeds", "dispersion-elastic",
                "dispersion-micropolar", "residuals", "blayer", "kernel-check")
CLI_SEEDED_MATERIALS = 3
CLI_DISPERSION_POINTS = 40
CLI_TIMEOUT_S = 120


@dataclass
class Operation:
    kind: str
    run: Callable[[], Any]
    check: Callable[[Any], list]
    expect_failure: Callable[[BaseException], bool] = lambda exc: False
    h_ratio: float | None = None   # grid spacing / a of a kernel-field op
    macs: int = 0                  # nonzero stencil taps x output cells


def close(got: float, want: float, rel: float) -> bool:
    return abs(got - want) <= rel * abs(want)


def draw_material(rng: np.random.Generator) -> dict:
    """A material config with lambda/mu in (-0.95, 20) and kappa/mu
    log-uniform in (1e-4, 30), the space `validate` accepts."""
    mu = 10.0 ** rng.uniform(9.0, 11.0)
    return {
        "lambda": rng.uniform(-0.95, 20.0) * mu,
        "mu": mu,
        "kappa": math.exp(rng.uniform(math.log(1e-4), math.log(30.0))) * mu,
        "alpha": 50.0,
        "beta": 75.0,
        "gamma": 10.0 ** rng.uniform(1.0, 3.0),
        "rho": rng.uniform(1000.0, 8000.0),
        "j": 10.0 ** rng.uniform(-7.0, -5.0),
        "a": 10.0 ** rng.uniform(-5.0, -3.0),
    }


def draw_surface_material(rng: np.random.Generator) -> tuple[dict, int, int]:
    """A drawn material whose surface mode lies below ACCEPT_BELOW * c2 and
    whose blayer exponents stay within MAX_BLAYER_EXPONENT, and the numbers
    of draws rejected for each of the two reasons."""
    past_cap = near_pole = 0
    while True:
        p = draw_material(rng)
        sp = oracles.speeds(p)
        if not oracles.secular(sp, ACCEPT_BELOW * sp["c2"]) < 0.0:
            past_cap += 1
            continue
        v, omega, _ = blayer_state(sp)
        if max(abs(r) for eps in BLAYER_EPS
               for r in exponents(p, sp, v, omega, eps)) > MAX_BLAYER_EXPONENT:
            near_pole += 1
            continue
        return p, past_cap, near_pole


def to_params(p: dict):
    from mnwaves import material
    return material.material_from_json(json.dumps(p))


def branch_sqrt(z: complex) -> complex:
    w = cmath.sqrt(z)
    if w.real < 0.0 or (w.real == 0.0 and w.imag < 0.0):
        w = -w
    return w


def exponents(p: dict, sp: dict, v: float, omega: float, eps: float):
    """(r1, r2, r3) of a mode state, from the README's exponent formulas."""
    e2v2 = (eps * v) ** 2
    micro = 1.0 - 2.0 * sp["c3"] ** 2 / (p["j"] * omega ** 2)
    return (branch_sqrt(1.0 - v * v / (sp["c1"] ** 2 - e2v2)),
            branch_sqrt(1.0 - v * v / (sp["c2"] ** 2 - e2v2)),
            branch_sqrt(1.0 - v * v / (sp["c4"] ** 2 - e2v2) * micro))


def blayer_state(sp: dict) -> tuple[float, float, float]:
    """(v, omega, k) at which `mnw blayer` evaluates its grid."""
    v = 0.3 * sp["c2"]
    omega = 3.0 * sp["omega_c"]
    return v, omega, omega / v


def check_blayer(p: dict, sp: dict, values: list) -> list:
    """values: (branch, eta, eps, quadrature) entries on the blayer grid."""
    problems = []
    v, omega, _ = blayer_state(sp)
    for i, eta, eps, quad in values:
        r = exponents(p, sp, v, omega, eps)[i - 1]
        want = oracles.trace_integral(r, eps, eta)
        # the program's quadrature stops at an absolute error of 1e-14 per
        # integral, which the 1/(2 eps) prefactor scales up
        if not abs(quad - want) <= 1e-8 * abs(want) + 1e-13 / eps:
            problems.append(f"blayer i={i} eta={eta} eps={eps}: {quad} "
                            f"vs quad {want}")
    return problems


# ---------------------------------------------------------------- material

class MaterialStudy:
    name = "material-study"

    def __init__(self, seed: int):
        self.rng = np.random.default_rng([seed, 1])
        self.rejected = 0
        self.rejected_near_pole = 0

    def inputs(self) -> dict:
        p, past_cap, near_pole = draw_surface_material(self.rng)
        self.rejected += past_cap
        self.rejected_near_pole += near_pole
        return self._with_probes(p)

    def _with_probes(self, p: dict) -> dict:
        return {"p": p, "v_probe": self.rng.uniform(0.05, 0.95)}

    def round(self) -> list[Operation]:
        ops = [self.operation(self.inputs())
               for _ in range(STUDY_MATERIALS_PER_ROUND)]
        ops.append(self.operation(self._with_probes(PAST_CAP_MATERIAL)))
        return ops

    def warm_up(self) -> Operation:
        return self.operation(self.inputs())

    def operation(self, inp: dict) -> Operation:
        from mnwaves import asymptotic, dispersion, material, wavefield
        p = inp["p"]
        m = to_params(p)
        sp = oracles.speeds(p)
        omega_lo = 1e-3 * sp["c2"] / p["a"]
        omega_hi = 1e-1 * sp["c2"] / p["a"]
        k = RESIDUAL_EPS / p["a"]
        v_probe = inp["v_probe"] * sp["c2"]
        bv, bomega, bk = blayer_state(sp)

        def run():
            scales = material.derive_scales(m)
            root = dispersion.solve_rayleigh(m)
            elastic = dispersion.sweep(m, omega_lo, omega_hi, SWEEP_POINTS,
                                       "elastic")
            micro = dispersion.sweep(m, 0.5 * scales.omega_cutoff,
                                     4.0 * scales.omega_cutoff, SWEEP_POINTS,
                                     "micropolar")
            report = asymptotic.residual_report_json(m, k, RESIDUAL_EPS)
            probe = asymptotic.equivalence_residual_micropolar(m, v_probe, k)
            blayer = []
            for i in (1, 2, 3):
                for eta in BLAYER_ETA:
                    for eps in BLAYER_EPS:
                        mp = wavefield.ModeParams(k=bk, omega=bomega, v=bv,
                                                  eps=eps)
                        de = wavefield.decay_exponents(m, mp)
                        blayer.append((i, eta, eps, de,
                                       wavefield.blayer_integral_quadrature(
                                           i, de, eps, eta)))
            return scales, root, elastic, micro, report, probe, blayer

        def check(result) -> list:
            scales, root, elastic, micro, report, probe, blayer = result
            problems = []
            for key, got in (("c1", scales.c1), ("c2", scales.c2),
                             ("c3", scales.c3), ("c4", scales.c4),
                             ("d", scales.d), ("omega_c", scales.omega_cutoff)):
                if not close(got, sp[key], 1e-12):
                    problems.append(f"derive_scales {key} = {got}, want {sp[key]}")
            want_v = oracles.rayleigh_root(sp)
            c2 = sp["c2"]
            if not (0.0 < root.v < c2 and abs(root.v - want_v) <= 1e-8 * c2):
                problems.append(f"solve_rayleigh v = {root.v}, root {want_v}")
            problems += check_elastic_rows(elastic.points, want_v, c2,
                                           omega_lo, omega_hi)
            problems += check_micropolar_rows(micro.points, sp)
            rep = json.loads(report)
            eq_mp = rep["equivalence"][1]
            want_eq = oracles.micropolar_equivalence(sp, root.v, k)
            scale = oracles.micropolar_equivalence_scale(sp, root.v, k)
            if not (abs(eq_mp["re"] - want_eq) <= 1e-12 * scale
                    and eq_mp["im"] == 0.0):
                problems.append(f"micropolar equivalence {eq_mp} vs {want_eq}")
            want_probe = oracles.micropolar_equivalence(sp, v_probe, k)
            scale = oracles.micropolar_equivalence_scale(sp, v_probe, k)
            if not abs(probe - want_probe) <= 1e-12 * scale:
                problems.append(f"equivalence at {v_probe}: {probe} "
                                f"vs {want_probe}")
            problems += check_report_finite(rep)
            for i, eta, eps, de, _ in blayer:
                want_r = exponents(p, sp, bv, bomega, eps)
                got_r = (de.r1, de.r2, de.r3)
                if not all(abs(g - w) <= 1e-12 * abs(w) + 1e-300
                           for g, w in zip(got_r, want_r)):
                    problems.append(f"decay exponents {got_r} vs {want_r}")
                    break
            problems += check_blayer(p, sp, [(i, eta, eps, q)
                                             for i, eta, eps, _, q in blayer])
            return problems

        def expect_failure(exc: BaseException) -> bool:
            return (isinstance(exc, dispersion.NoSurfaceModeError)
                    and oracles.rayleigh_root(sp)
                    > oracles.SOLVER_CAP * sp["c2"])

        return Operation("study", run, check, expect_failure)


def check_elastic_rows(points, want_v, c2, omega_lo, omega_hi) -> list:
    problems = []
    if len(points) != SWEEP_POINTS:
        problems.append(f"elastic sweep has {len(points)} rows")
    if not (close(points[0].omega, omega_lo, 1e-12)
            and close(points[-1].omega, omega_hi, 1e-12)):
        problems.append("elastic sweep does not span the requested range")
    for pt in points:
        if not (abs(pt.v - want_v) <= 1e-8 * c2
                and close(pt.k, pt.omega / pt.v, 1e-12)):
            problems.append(f"elastic row at omega={pt.omega}: v={pt.v}")
            break
    return problems


def check_micropolar_rows(points, sp: dict) -> list:
    problems = []
    if len(points) != SWEEP_POINTS:
        problems.append(f"micropolar sweep has {len(points)} rows")
    for pt in points:
        if pt.omega <= sp["omega_c"]:
            ok = math.isnan(pt.v) and not pt.admissible
        else:
            ok = close(pt.v, oracles.micropolar_velocity(sp, pt.omega), 1e-12)
        if not ok:
            problems.append(f"micropolar row at omega={pt.omega}: v={pt.v}, "
                            f"admissible={pt.admissible}")
            break
    return problems


def check_report_finite(rep: dict) -> list:
    keys = ("classical", "first_order", "refined", "extra", "equivalence",
            "normalization", "slopes", "pde")
    if set(rep) != set(keys):
        return [f"residual report keys {sorted(rep)}"]
    numbers = []

    def walk(x):
        if isinstance(x, dict):
            for value in x.values():
                walk(value)
        elif isinstance(x, list):
            for value in x:
                walk(value)
        elif isinstance(x, (int, float)):
            numbers.append(float(x))

    walk(rep)
    if not all(math.isfinite(x) for x in numbers):
        return ["residual report has non-finite numbers"]
    return []


# ------------------------------------------------------------------ kernel

class KernelField:
    name = "kernel-field"

    def __init__(self, seed: int):
        self.rng = np.random.default_rng([seed, 2])

    def round(self) -> list[Operation]:
        return [self.operation(cls) for cls in KERNEL_CLASSES]

    def warm_up(self) -> Operation:
        return self.operation(KERNEL_CLASSES[0])

    def operation(self, cls) -> Operation:
        from mnwaves import kernel, specfun
        label, h_ratio, fresh, widths = cls
        rng = self.rng
        a = KERNEL_A
        if h_ratio is None:
            h_ratio = rng.uniform(*fresh)
        h = h_ratio * a
        width = rng.uniform(*widths) * a
        half = EDGE_DECAY * widths[1] + CENTRE_JITTER + 0.5
        n = math.ceil(2.0 * half / h_ratio)
        centre = (0.5 * (n - 1) * h
                  + rng.uniform(-CENTRE_JITTER, CENTRE_JITTER, size=2) * a)
        xs = h * np.arange(n)
        gx, gz = np.meshgrid(xs, xs)
        f = (np.exp(-((gx - centre[0]) ** 2 + (gz - centre[1]) ** 2)
                    / width ** 2)
             * np.exp(1j * rng.uniform(0.0, 2.0 * math.pi)))
        field = kernel.ScalarField2D(nx=n, nz=n, dx=h, dz=h, x0=0.0, values=f)
        u = rng.uniform(10.0, 40.0)
        mass_spec = specfun.QuadratureSpec(rel_tol=MASS_TOL)
        margin = math.ceil(12.0 * a / h)
        lo, hi = margin, n - 1 - margin

        def run():
            convolved = kernel.convolve_halfplane(field, a)
            back = kernel.apply_helmholtz(convolved, a)
            mass = specfun.integrate_2d_polar(
                lambda r, theta: kernel.kernel_weight(r, a), u * a, mass_spec)
            return back, mass

        def check(result) -> list:
            back, mass = result
            problems = []
            want = oracles.disk_mass(u)
            if not abs(mass.real - want) <= 10.0 * MASS_TOL:
                problems.append(f"disk mass at u={u}: {mass} vs {want}")
            if back.values.shape != (n - 2, n - 2) or hi - lo < 8:
                problems.append(f"{label}: interior too small or bad shape")
                return problems
            err = float(np.max(np.abs(back.values[lo - 1:hi, lo - 1:hi]
                                      - f[lo:hi + 1, lo:hi + 1])))
            bound = oracles.roundtrip_bound(h, width, a)
            if not err <= bound:
                problems.append(f"{label} h/a={h_ratio}: roundtrip error "
                                f"{err} above bound {bound}")
            return problems

        return Operation("field-" + label, run, check, h_ratio=h_ratio,
                         macs=oracles.stencil_taps(h, a) * n * n)


# --------------------------------------------------------------------- cli

def cli_env(root: Path) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(root / "src")
    return env


def run_cli(root: Path, argv: list[str], workdir: Path,
            rusage: list) -> tuple[int, str, str]:
    """Runs `mnw argv` as a fresh process; appends its peak RSS (KiB)."""
    code = "import sys; from mnwaves.cli import main; sys.argv[0] = 'mnw'; main()"
    out_path, err_path = workdir / "stdout.txt", workdir / "stderr.txt"
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        proc = subprocess.Popen([sys.executable, "-c", code, *argv],
                                stdout=out, stderr=err, cwd=workdir,
                                env=cli_env(root))
        deadline = time.monotonic() + CLI_TIMEOUT_S
        while True:
            pid, status, usage = os.wait4(proc.pid, os.WNOHANG)
            if pid:
                break
            if time.monotonic() > deadline:
                proc.kill()
                pid, status, usage = os.wait4(proc.pid, 0)
                break
            time.sleep(0.001)
        proc.returncode = os.waitstatus_to_exitcode(status)
    rusage.append(usage.ru_maxrss)
    return (proc.returncode, out_path.read_text(encoding="utf-8"),
            err_path.read_text(encoding="utf-8"))


class CliSession:
    name = "cli-session"

    def __init__(self, seed: int, root: Path, workdir: Path):
        rng = np.random.default_rng([seed, 3])
        self.root = root
        self.workdir = workdir
        self.rss_kib: list[int] = []
        self.round_index = 0
        # the material files are the session's inputs: (file name, config)
        workdir.mkdir(parents=True, exist_ok=True)
        configs = [SAMPLE_MATERIAL] + [draw_surface_material(rng)[0]
                                       for _ in range(CLI_SEEDED_MATERIALS)]
        self.materials = []
        for index, p in enumerate(configs):
            path = workdir / f"material{index}.json"
            path.write_text(json.dumps(p), encoding="utf-8")
            self.materials.append((path.name, p))

    def warm_up(self) -> Operation:
        return self.operation("validate", *self.materials[0])

    def round(self) -> list[Operation]:
        path, p = self.materials[self.round_index % len(self.materials)]
        self.round_index += 1
        return [self.operation(cmd, path, p) for cmd in CLI_COMMANDS]

    def operation(self, command: str, path: str, p: dict) -> Operation:
        sp = oracles.speeds(p)
        n = CLI_DISPERSION_POINTS
        if command == "validate":
            argv = ["validate", path]
        elif command == "dispersion-elastic":
            lo, hi = 1e-3 * sp["c2"] / p["a"], 1e-1 * sp["c2"] / p["a"]
            argv = ["dispersion", "--material", path, "--mode", "elastic",
                    "--omega-min", repr(lo), "--omega-max", repr(hi),
                    "--num", str(n)]
        elif command == "dispersion-micropolar":
            lo, hi = 0.5 * sp["omega_c"], 4.0 * sp["omega_c"]
            argv = ["dispersion", "--material", path, "--mode", "micropolar",
                    "--omega-min", repr(lo), "--omega-max", repr(hi),
                    "--num", str(n)]
        else:
            argv = [command, "--material", path]

        def run():
            return run_cli(self.root, argv, self.workdir, self.rss_kib)

        def check(result) -> list:
            code, out, err = result
            if code != 0:
                return [f"mnw {' '.join(argv)} exited {code}: {err[-300:]}"]
            try:
                return check_cli_output(command, out, p, sp)
            except (ValueError, KeyError, IndexError, TypeError) as exc:
                return [f"mnw {command} output does not parse: {exc!r}"]

        return Operation(command, run, check)


def check_cli_output(command: str, out: str, p: dict, sp: dict) -> list:
    if command == "validate":
        return [] if out == "OK\n" else [f"validate printed {out!r}"]
    if command == "speeds":
        got = dict(line.split(" = ") for line in out.strip().split("\n"))
        return [f"speeds {key} = {got[key]}, want {sp[key]}"
                for key in ("c1", "c2", "c3", "c4", "d", "omega_c")
                if not close(float(got[key]), sp[key], 1e-12)]
    if command.startswith("dispersion"):
        lines = out.strip().split("\n")
        header = lines[0].split(",")
        rows = [dict(zip(header, line.split(","))) for line in lines[1:]]
        if len(rows) != CLI_DISPERSION_POINTS:
            return [f"{command} printed {len(rows)} rows"]
        problems = []
        if command == "dispersion-elastic":
            want_v = oracles.rayleigh_root(sp)
            if not all(abs(float(r["v"]) - want_v) <= 1e-8 * sp["c2"]
                       for r in rows):
                problems.append(f"{command} v differs from root {want_v}")
        else:
            for r in rows:
                omega, v = float(r["omega"]), float(r["v"])
                if omega <= sp["omega_c"]:
                    ok = math.isnan(v) and r["admissible"] == "false"
                else:
                    ok = close(v, oracles.micropolar_velocity(sp, omega), 1e-12)
                if not ok:
                    problems.append(f"{command} row omega={omega}: v={v}")
                    break
        return problems
    if command == "residuals":
        rep = json.loads(out)
        problems = check_report_finite(rep)
        v = oracles.rayleigh_root(sp)
        k = RESIDUAL_EPS / p["a"]
        # the report is taken at the program's root, which only has to lie
        # within 1e-8 c2 of the oracle's: the residual must lie between the
        # formula's values at the two ends of that interval
        eq = rep["equivalence"][1]["re"]
        ends = [oracles.micropolar_equivalence(sp, v + dv, k)
                for dv in (-1e-8 * sp["c2"], 1e-8 * sp["c2"])]
        slack = 1e-12 * oracles.micropolar_equivalence_scale(sp, v, k)
        if not min(ends) - slack <= eq <= max(ends) + slack:
            problems.append(f"residuals micropolar equivalence {eq} "
                            f"outside {ends}")
        return problems
    if command == "blayer":
        rep = json.loads(out)
        values, problems = [], []
        for e in rep["entries"]:
            closed = complex(e["closed"]["re"], e["closed"]["im"])
            quad = complex(e["quadrature"]["re"], e["quadrature"]["im"])
            if not close(e["deviation"], abs(quad - closed) / abs(closed), 1e-12):
                problems.append(f"blayer deviation inconsistent: {e}")
            values.append((e["i"], e["eta"], e["eps"], quad))
        if len(values) != 27:
            problems.append(f"blayer printed {len(values)} entries")
        return problems + check_blayer(p, sp, values)
    if command == "kernel-check":
        rep = json.loads(out)
        grid = rep["grid"]
        a = grid["a"]
        problems = []
        if not abs(rep["kernel_mass"] - oracles.disk_mass(40.0)) <= 1e-7:
            problems.append(f"kernel mass {rep['kernel_mass']}")
        bound = oracles.roundtrip_bound(grid["spacing"], grid["gaussian_width"], a)
        if not rep["roundtrip_rel_linf"] <= bound:
            problems.append(f"kernel roundtrip {rep['roundtrip_rel_linf']} "
                            f"above bound {bound}")
        return problems
    raise ValueError(f"unknown command {command}")
