import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from conftest import DATA_DIR, GOLDEN_DIR, subprocess_env
from mnwaves import cli
from mnwaves.kernel import gaussian_field, roundtrip_error
from mnwaves.material import derive_scales, load_material

SAMPLE = str(DATA_DIR / "sample_material.json")


def run_cli(args, capsys) -> tuple[int, str, str]:
    code = cli.run(args)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def material_file(tmp_path, **changes) -> str:
    """The sample material with some config keys changed, as a file."""
    payload = json.loads(Path(SAMPLE).read_text())
    payload.update(changes)
    path = tmp_path / "material.json"
    path.write_text(json.dumps(payload))
    return str(path)


class TestValidate:
    def test_good_material(self, capsys):
        code, out, _ = run_cli(["validate", SAMPLE], capsys)
        assert code == 0
        assert out == "OK\n"

    def test_bad_invariant(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        text = Path(SAMPLE).read_text().replace("2000.0", "-2000.0")
        bad.write_text(text)
        code, out, _ = run_cli(["validate", str(bad)], capsys)
        assert code == 1
        assert "rho > 0" in out

    def test_lambda_plus_mu_bound(self, tmp_path, capsys):
        path = material_file(tmp_path, **{"lambda": -3e9, "kappa": 4e9})
        code, out, _ = run_cli(["validate", path], capsys)
        assert code == 1
        assert "lambda + mu > 0" in out

    def test_unknown_key(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        payload = json.loads(Path(SAMPLE).read_text())
        payload["extra"] = 1.0
        bad.write_text(json.dumps(payload))
        code, _, err = run_cli(["validate", str(bad)], capsys)
        assert code == 1
        assert "unknown" in err

    def test_oversized_integer(self, tmp_path, capsys):
        path = material_file(tmp_path, mu=10 ** 400)
        code, out, err = run_cli(["validate", path], capsys)
        assert code == 1
        assert out == ""
        assert "'mu'" in err

    def test_integer_past_digit_limit(self, tmp_path, capsys):
        # json.dumps cannot write it: 5001 digits pass int's str limit
        path = Path(material_file(tmp_path, mu=0))
        path.write_text(path.read_text().replace('"mu": 0',
                                                 '"mu": 1' + "0" * 5000))
        code, out, err = run_cli(["validate", str(path)], capsys)
        assert code == 1
        assert out == ""
        assert err == "material key 'mu' is too large for a float\n"

    def test_missing_file(self, capsys):
        code, _, err = run_cli(["validate", "/nonexistent.json"], capsys)
        assert code == 1


class TestSpeeds:
    def test_matches_library_bytes(self, capsys):
        code, out, _ = run_cli(["speeds", "--material", SAMPLE], capsys)
        assert code == 0
        sc = derive_scales(load_material(SAMPLE))
        want = (f"c1 = {sc.c1!r}\nc2 = {sc.c2!r}\nc3 = {sc.c3!r}\n"
                f"c4 = {sc.c4!r}\nd = {sc.d!r}\nomega_c = {sc.omega_cutoff!r}\n")
        assert out == want

    def test_golden(self, capsys):
        code, out, _ = run_cli(["speeds", "--material", SAMPLE], capsys)
        assert code == 0
        assert out == (GOLDEN_DIR / "speeds.txt").read_text()


class TestDispersionCommand:
    def test_elastic_golden(self, capsys):
        code, out, _ = run_cli(
            ["dispersion", "--material", SAMPLE, "--mode", "elastic",
             "--omega-min", "2e5", "--omega-max", "2e6", "--num", "5"], capsys)
        assert code == 0
        assert out == (GOLDEN_DIR / "dispersion_elastic.csv").read_text()

    def test_micropolar_golden(self, capsys):
        code, out, _ = run_cli(
            ["dispersion", "--material", SAMPLE, "--mode", "micropolar",
             "--omega-min", "3e5", "--omega-max", "2e6", "--num", "6"], capsys)
        assert code == 0
        assert out == (GOLDEN_DIR / "dispersion_micropolar.csv").read_text()

    def test_repeated_runs_identical(self, capsys):
        args = ["dispersion", "--material", SAMPLE, "--mode", "elastic",
                "--omega-min", "2e5", "--omega-max", "2e6", "--num", "5"]
        _, first, _ = run_cli(args, capsys)
        _, second, _ = run_cli(args, capsys)
        assert first == second

    def test_below_cutoff_range_is_infeasible(self, capsys):
        code, _, err = run_cli(
            ["dispersion", "--material", SAMPLE, "--mode", "micropolar",
             "--omega-min", "1e3", "--omega-max", "1e4", "--num", "3"], capsys)
        assert code == 2
        assert "cutoff" in err

    def test_bad_range_rejected(self, capsys):
        code, _, err = run_cli(
            ["dispersion", "--material", SAMPLE, "--omega-min", "10",
             "--omega-max", "1", "--num", "3"], capsys)
        assert code == 1

    def test_plot_script(self, tmp_path, capsys):
        out_csv = tmp_path / "curve.csv"
        code, _, _ = run_cli(
            ["dispersion", "--material", SAMPLE, "--mode", "elastic",
             "--omega-min", "2e5", "--omega-max", "2e6", "--num", "3",
             "--out", str(out_csv), "--emit-plot-script"], capsys)
        assert code == 0
        script = (tmp_path / "curve.csv.gp").read_text()
        assert '"curve.csv"' in script  # relative reference
        assert out_csv.exists()

    def test_plot_script_needs_out(self, capsys):
        code, _, err = run_cli(
            ["dispersion", "--material", SAMPLE, "--omega-min", "2e5",
             "--omega-max", "2e6", "--emit-plot-script"], capsys)
        assert code == 1


class TestResidualsCommand:
    def test_golden(self, capsys):
        code, out, _ = run_cli(["residuals", "--material", SAMPLE], capsys)
        assert code == 0
        assert out == (GOLDEN_DIR / "residuals.json").read_text()

    def test_json_shape(self, capsys):
        _, out, _ = run_cli(["residuals", "--material", SAMPLE, "--eps", "0.05"],
                            capsys)
        payload = json.loads(out)
        assert set(payload) >= {"classical", "first_order", "refined", "extra",
                                "equivalence", "normalization", "slopes", "pde"}
        assert len(payload["classical"]) == 3
        assert len(payload["extra"]) == 2
        assert payload["slopes"]["classical"] > 0.9

    def test_eps_requires_nonlocal_material(self, tmp_path, capsys):
        payload = json.loads(Path(SAMPLE).read_text())
        payload["a"] = 0.0
        local = tmp_path / "local.json"
        local.write_text(json.dumps(payload))
        code, _, err = run_cli(
            ["residuals", "--material", str(local), "--eps", "0.1"], capsys)
        assert code == 1
        # without --eps the local material is fine (eps = 0 report)
        code, out, _ = run_cli(["residuals", "--material", str(local)], capsys)
        assert code == 0
        assert json.loads(out)["equivalence"][0]["re"] != 0.0


    def test_non_finite_value_is_bad_input(self, tmp_path, capsys):
        # gamma k^2/(mu+kappa) overflows on this valid material, so the
        # couple rows hold NaN: the report refuses to print them
        path = material_file(tmp_path, gamma=1e200, a=1e-60)
        assert run_cli(["validate", path], capsys)[0] == 0
        code, out, err = run_cli(["residuals", "--material", path], capsys)
        assert code == 1
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1, err


def _reject_constant(name):
    raise ValueError(f"non-standard JSON constant {name}")


class TestStrictJson:
    """No JSON the package writes holds NaN, Infinity or -Infinity."""

    @pytest.mark.parametrize("name", sorted(
        path.name for path in GOLDEN_DIR.glob("*.json")))
    def test_golden(self, name):
        json.loads((GOLDEN_DIR / name).read_text(),
                   parse_constant=_reject_constant)

    @pytest.mark.parametrize("command", ["residuals", "blayer",
                                         "kernel-check"])
    def test_live_output(self, command, capsys):
        code, out, _ = run_cli([command, "--material", SAMPLE], capsys)
        assert code == 0
        json.loads(out, parse_constant=_reject_constant)


class TestBlayerCommand:
    def test_golden(self, capsys):
        code, out, _ = run_cli(["blayer", "--material", SAMPLE], capsys)
        assert code == 0
        assert out == (GOLDEN_DIR / "blayer.json").read_text()

    def test_default_grid_with_slopes(self, capsys):
        code, out, _ = run_cli(["blayer", "--material", SAMPLE], capsys)
        assert code == 0
        payload = json.loads(out)
        assert payload["slopes"] is not None
        assert all(s >= 2.0 for s in payload["slopes"].values())
        assert len(payload["entries"]) == 3 * 3 * 3

    def test_single_eps(self, capsys):
        code, out, _ = run_cli(
            ["blayer", "--material", SAMPLE, "--eps", "0.1"], capsys)
        assert code == 0
        payload = json.loads(out)
        assert payload["slopes"] is None
        assert all(entry["eps"] == 0.1 for entry in payload["entries"])


class TestEpsRegimeWarning:
    @pytest.mark.parametrize("command", ["residuals", "blayer"])
    @pytest.mark.parametrize("eps", [None, "0.3", "50"])
    def test_warns_only_above_regime(self, command, eps, capsys):
        extra = [] if eps is None else ["--eps", eps]
        code, out, err = run_cli([command, "--material", SAMPLE, *extra],
                                 capsys)
        assert code == 0
        m = load_material(SAMPLE)
        eps_value = 0.1 if eps is None else float(eps)
        if command == "residuals":
            want = cli.asymptotic.residual_report_json(
                m, eps_value / m.a_nl, eps_value)
        else:
            grid = cli.asymptotic.SLOPE_EPS_GRID if eps is None else (
                eps_value,)
            want = json.dumps(cli.asymptotic.blayer_convergence(m, grid),
                              indent=2)
        assert out == want + "\n"
        if eps == "50":
            assert err.startswith("warning: eps = 50.0 ")
            assert err.count("\n") == 1
        else:
            assert err == ""


class TestKernelCheckCommand:
    def test_runs_and_reports(self, tmp_path, capsys):
        out_csv = tmp_path / "field.csv"
        code, out, _ = run_cli(
            ["kernel-check", "--material", SAMPLE, "--out", str(out_csv)],
            capsys)
        assert code == 0
        payload = json.loads(out)
        assert payload["mass_error"] < 1e-4
        assert payload["roundtrip_rel_linf"] < 5e-3
        text = out_csv.read_text()
        assert text.startswith("x,z,re,im\n")
        x, z, re, im = np.loadtxt(out_csv, delimiter=",", skiprows=1,
                                  unpack=True)
        grid = payload["grid"]
        field, _, _ = roundtrip_error(
            gaussian_field(grid["n"], grid["spacing"], grid["gaussian_width"]),
            grid["a"])
        assert (x == np.tile(field.xs, field.nz)).all()
        assert (z == np.repeat(field.zs, field.nx)).all()
        assert (re == field.values.real.ravel()).all()
        assert (im == field.values.imag.ravel()).all()

    def test_golden(self, capsys):
        code, out, _ = run_cli(["kernel-check", "--material", SAMPLE], capsys)
        assert code == 0
        assert out == (GOLDEN_DIR / "kernel_check.json").read_text()

    def test_tiny_length_is_bad_input(self, tmp_path, capsys):
        # a valid material whose 2 pi a^2 is subnormal: the kernel weight
        # would be inf or nan, so the command rejects it up front
        path = material_file(tmp_path, a=1e-160)
        assert run_cli(["validate", path], capsys)[0] == 0
        code, out, err = run_cli(["kernel-check", "--material", path], capsys)
        assert code == 1
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1, err
        assert "a_nl" in err

    def test_local_material_is_infeasible(self, tmp_path, capsys):
        payload = json.loads(Path(SAMPLE).read_text())
        payload["a"] = 0.0
        local = tmp_path / "local.json"
        local.write_text(json.dumps(payload))
        code, _, err = run_cli(["kernel-check", "--material", str(local)],
                               capsys)
        assert code == 2

    def test_material_without_scales_is_bad_input(self, tmp_path, capsys):
        # kernel-check never derives scales, so validation alone rejects it
        path = material_file(tmp_path, **{"lambda": -3e9, "kappa": 4e9})
        code, _, err = run_cli(["kernel-check", "--material", path], capsys)
        assert code == 1
        assert "lambda + mu > 0" in err


class TestArgumentHandling:
    def test_unknown_command(self, capsys):
        assert run_cli(["frobnicate"], capsys)[0] == 1

    @pytest.mark.parametrize("args", [
        ["dispersion", "--omega-min", "1e5", "--omega-max", "1e6", "--num", "1"],
        ["dispersion", "--omega-min", "1e5", "--omega-max", "inf"],
        ["residuals", "--eps", "inf"],
        ["blayer", "--eps", "inf"],
        ["residuals", "--eps", "1e300"],
        ["residuals", "--eps", "1e-300"],
        ["dispersion", "--omega-min", "1e-300", "--omega-max", "1e300",
         "--num", "3"],
        ["dispersion", "--omega-min", "2e5", "--omega-max", "2e6",
         "--tol", "1e300"],
        ["dispersion", "--omega-min", "2e5", "--omega-max", "2e6",
         "--tol", "1e-2"],
        ["dispersion", "--mode", "micropolar", "--omega-min", "2e5",
         "--omega-max", "2e6", "--tol", "0"],
        ["blayer", "--eps", "1e300"],
    ], ids=["dispersion-num-1", "dispersion-omega-inf", "residuals-eps-inf",
            "blayer-eps-inf", "residuals-eps-overflow",
            "residuals-eps-underflow", "dispersion-omega-extremes",
            "dispersion-tol-huge", "dispersion-tol-above-scan-step",
            "dispersion-micropolar-tol-0", "blayer-eps-overflow"])
    def test_bad_numbers_are_bad_input(self, args, capsys, recwarn):
        code, out, err = run_cli([*args, "--material", SAMPLE], capsys)
        assert code == 1
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1
        assert not recwarn.list

    def test_library_value_error_is_bad_input(self, capsys, monkeypatch):
        def reject(*args):
            raise ValueError("rejected by the library")

        monkeypatch.setattr(cli.asymptotic, "residual_report_json", reject)
        code, _, err = run_cli(["residuals", "--material", SAMPLE], capsys)
        assert code == 1
        assert err == "error: rejected by the library\n"

    def test_missing_material_flag(self, capsys):
        assert run_cli(["speeds"], capsys)[0] == 1

    def test_scipy_loads_only_for_kernel_check(self, tmp_path):
        """import mnwaves, validate and speeds leave numpy unloaded, and every
        command but kernel-check leaves scipy unloaded.  One child process
        runs the commands in turn and prints, per library, the first step
        after which it is in sys.modules."""
        script = """\
import contextlib, io, json, sys
import mnwaves
from mnwaves import cli
material, csv = sys.argv[1:]
steps = {
    "validate": ["validate", material],
    "speeds": ["speeds"],
    "dispersion elastic": ["dispersion", "--omega-min", "2e5",
                           "--omega-max", "2e6", "--num", "5"],
    "dispersion micropolar": ["dispersion", "--mode", "micropolar",
                              "--omega-min", "3e5", "--omega-max", "2e6",
                              "--num", "6"],
    "residuals": ["residuals"],
    "blayer": ["blayer"],
    "kernel-check": ["kernel-check", "--out", csv],
}
first = {lib: "import mnwaves" if lib in sys.modules else None
         for lib in ("numpy", "scipy")}
for name, args in steps.items():
    if name != "validate":
        args += ["--material", material]
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.run(args) == 0, name
    for lib in first:
        if first[lib] is None and lib in sys.modules:
            first[lib] = name
print(json.dumps(first))
"""
        proc = subprocess.run(
            [sys.executable, "-c", script, SAMPLE, str(tmp_path / "f.csv")],
            capture_output=True, text=True, env=subprocess_env())
        assert proc.returncode == 0, proc.stderr
        first = json.loads(proc.stdout)
        # the scalar inputs need only `material`
        assert first["numpy"] not in ("import mnwaves", "validate", "speeds")
        # kernel-check evaluates K0 and K1, so it alone pays for scipy
        assert first["scipy"] == "kernel-check"

    @pytest.mark.parametrize("unbuffered", [False, True])
    def test_closed_stdout_is_one_error_line(self, unbuffered):
        # the read end of the pipe is closed before the child starts, so
        # its first write or its final flush always meets a broken pipe
        read_end, write_end = os.pipe()
        os.close(read_end)
        env = subprocess_env()
        env.pop("PYTHONUNBUFFERED", None)
        if unbuffered:
            env["PYTHONUNBUFFERED"] = "1"
        try:
            proc = subprocess.run([sys.executable, "-m", "mnwaves.cli",
                                   "validate", SAMPLE], stdout=write_end,
                                  stderr=subprocess.PIPE, text=True, env=env)
        finally:
            os.close(write_end)
        assert proc.returncode == 1
        assert proc.stderr.startswith("error: ")
        assert proc.stderr.count("\n") == 1, proc.stderr

    def test_entry_point_subprocess(self):
        # the installed console script behaves like cli.run
        proc = subprocess.run([sys.executable, "-m", "mnwaves.cli",
                               "validate", SAMPLE],
                              capture_output=True, text=True,
                              env=subprocess_env())
        assert proc.returncode == 0
        assert proc.stdout == "OK\n"
