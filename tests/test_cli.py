import json
import subprocess
import sys
from pathlib import Path

import pytest

from conftest import DATA_DIR, GOLDEN_DIR, subprocess_env
from mnwaves import cli
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

    def test_emitted_csv_reparses_unchanged(self, capsys):
        from mnwaves.dispersion import curve_from_csv
        code, out, _ = run_cli(
            ["dispersion", "--material", SAMPLE, "--mode", "micropolar",
             "--omega-min", "3e5", "--omega-max", "2e6", "--num", "6"], capsys)
        rows = curve_from_csv(out)
        header = out.split("\n", 1)[0]
        lines = [header]
        for row in rows:
            lines.append(
                f"{row['omega']!r},{row['k']!r},{row['v']!r},{row['mode']},"
                f"{row['r1']!r},{row['r2']!r},{row['r3_re']!r},"
                f"{row['r3_im']!r},{row['secular_residual']!r},"
                f"{row['admissible']}")
        assert "\n".join(lines) + "\n" == out

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


class TestBlayerCommand:
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

    def test_quad_tol_env_is_recorded(self, capsys, monkeypatch):
        monkeypatch.setenv("MNW_QUAD_TOL", "1e-8")
        code, out, _ = run_cli(
            ["blayer", "--material", SAMPLE, "--eps", "0.1"], capsys)
        assert code == 0
        assert json.loads(out)["rel_tol"] == 1e-8

    def test_quad_tol_env_validation(self, capsys, monkeypatch):
        monkeypatch.setenv("MNW_QUAD_TOL", "banana")
        code, _, err = run_cli(
            ["blayer", "--material", SAMPLE, "--eps", "0.1"], capsys)
        assert code == 1


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
        from mnwaves.kernel import field_from_csv
        field = field_from_csv(out_csv.read_text())
        assert field.nx == payload["grid"]["n"]

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
    ], ids=["dispersion-num-1", "dispersion-omega-inf", "residuals-eps-inf",
            "blayer-eps-inf", "residuals-eps-overflow",
            "residuals-eps-underflow", "dispersion-omega-extremes"])
    def test_bad_numbers_are_bad_input(self, args, capsys):
        code, out, err = run_cli([*args, "--material", SAMPLE], capsys)
        assert code == 1
        assert out == ""
        assert err.startswith("error: ")

    def test_library_value_error_is_bad_input(self, capsys, monkeypatch):
        def reject(*args):
            raise ValueError("rejected by the library")

        monkeypatch.setattr(cli.asymptotic, "residual_report_json", reject)
        code, _, err = run_cli(["residuals", "--material", SAMPLE], capsys)
        assert code == 1
        assert err == "error: rejected by the library\n"

    def test_missing_material_flag(self, capsys):
        assert run_cli(["speeds"], capsys)[0] == 1

    def test_entry_point_subprocess(self):
        # the installed console script behaves like cli.run
        proc = subprocess.run([sys.executable, "-m", "mnwaves.cli",
                               "validate", SAMPLE],
                              capture_output=True, text=True,
                              env=subprocess_env())
        assert proc.returncode == 0
        assert proc.stdout == "OK\n"
