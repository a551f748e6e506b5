"""Command-line front end.

Commands:
    validate PATH          check a material config, print OK or violations
    speeds                 derived wave speeds and cutoff frequency
    dispersion             sweep a mode over a frequency range, emit CSV
    residuals              surface-condition residual report (JSON)
    blayer                 boundary-layer integral convergence report (JSON)
    kernel-check           kernel normalization and roundtrip self-check

Exit codes: 0 success, 1 malformed input or config (kernel-check also
takes a only in [2.98e-154, 3.95e152]), an unreadable or unwritable file,
or a closed stdout, 2 physical infeasibility (below cutoff, no surface
mode, a = 0 for kernel-check).  Every failure is one "error:" line on
stderr, printed by `run` alone: the handlers raise.  validate's INVALID
listing is output, though it exits 1.  All numeric output uses shortest
round-trip floats, so repeated runs produce identical bytes.  residuals
and blayer print a warning to stderr when eps exceeds 0.3, outside the
a*k << 1 regime.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from pathlib import Path

from . import asymptotic, dispersion, kernel, material, specfun

_EXIT_OK = 0
_EXIT_BAD_INPUT = 1
_EXIT_INFEASIBLE = 2


class _UsageError(Exception):
    """A request the command refuses; code is the exit code `run` returns."""

    def __init__(self, message: str, code: int = _EXIT_BAD_INPUT):
        super().__init__(message)
        self.code = code


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse would exit(2); the contract says 1
        raise _UsageError(message)


def _finite_float(text: str) -> float:
    """argparse type of the numeric options: inf and nan are bad input."""
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid float value: {text!r}")
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"not a finite number: {text!r}")
    return value


def _build_parser() -> _Parser:
    parser = _Parser(prog="mnw", description=__doc__,
                     formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)

    p_val = sub.add_parser("validate", help="validate a material config file")
    p_val.add_argument("path", help="material JSON file")

    def common(p):
        p.add_argument("--material", required=True, help="material JSON file")
        p.add_argument("--out", help="write output to this file instead of stdout")

    p_speed = sub.add_parser("speeds", help="derived scales of a material")
    common(p_speed)

    p_disp = sub.add_parser("dispersion", help="frequency sweep of one mode")
    common(p_disp)
    p_disp.add_argument("--mode", choices=("elastic", "micropolar"),
                        default="elastic")
    p_disp.add_argument("--omega-min", type=_finite_float, required=True)
    p_disp.add_argument("--omega-max", type=_finite_float, required=True)
    p_disp.add_argument("--num", type=int, default=50)
    p_disp.add_argument("--emit-plot-script", action="store_true",
                        help="write a gnuplot script next to --out")

    p_res = sub.add_parser("residuals", help="surface-condition residual report")
    common(p_res)
    p_res.add_argument("--eps", type=_finite_float,
                       help="dimensionless non-locality a*k (default 0.1; "
                            "fixes k = eps/a)")

    p_bl = sub.add_parser("blayer", help="boundary-layer integral convergence")
    common(p_bl)
    p_bl.add_argument("--eps", type=_finite_float,
                      help="single eps instead of the default grid")

    p_kc = sub.add_parser("kernel-check", help="kernel normalization and "
                                               "roundtrip self-check")
    common(p_kc)
    return parser


def _load_material(path: str) -> material.MaterialParams:
    m = material.load_material(path)
    material.derive_scales(m)   # raises InvalidMaterialError for a bad one
    return m


def _emit(text: str, out: str | None) -> None:
    if out is None:
        sys.stdout.write(text)
    else:
        Path(out).write_text(text, encoding="utf-8")


def _cmd_validate(args) -> int:
    outcome = material.validate(material.load_material(args.path))
    if outcome.ok:
        print("OK")
        return _EXIT_OK
    print("INVALID")
    for violation in outcome.violations:
        print(f"  violated: {violation}")
    return _EXIT_BAD_INPUT


def _cmd_speeds(args) -> int:
    m = _load_material(args.material)
    sc = material.derive_scales(m)
    lines = [
        f"c1 = {sc.c1!r}",
        f"c2 = {sc.c2!r}",
        f"c3 = {sc.c3!r}",
        f"c4 = {sc.c4!r}",
        f"d = {sc.d!r}",
        f"omega_c = {sc.omega_cutoff!r}",
    ]
    _emit("\n".join(lines) + "\n", args.out)
    return _EXIT_OK


_PLOT_TEMPLATE = """\
# gnuplot script for a dispersion curve
set datafile separator ","
set key autotitle columnhead
set logscale x
set xlabel "omega [rad/s]"
set ylabel "phase velocity [m/s]"
plot "{csv}" using 1:3 with linespoints title "v(omega)"
"""


def _cmd_dispersion(args) -> int:
    m = _load_material(args.material)
    if args.emit_plot_script and args.out is None:
        raise _UsageError("--emit-plot-script needs --out to reference the CSV")
    curve = dispersion.sweep(m, args.omega_min, args.omega_max, args.num,
                             args.mode)
    if curve.propagating_count == 0:
        sc = material.derive_scales(m)
        raise _UsageError(f"entire range is at or below the cutoff "
                          f"{sc.omega_cutoff!r}; the micropolar mode does not "
                          "propagate", _EXIT_INFEASIBLE)
    _emit(dispersion.curve_to_csv(curve), args.out)
    if args.emit_plot_script:
        out_path = Path(args.out)
        script = _PLOT_TEMPLATE.format(csv=out_path.name)
        out_path.with_suffix(out_path.suffix + ".gp").write_text(
            script, encoding="utf-8")
    return _EXIT_OK


def _residual_wavenumber(m: material.MaterialParams,
                         eps_arg: float | None) -> tuple[float, float]:
    """(k, eps) for the residual report: k = eps / a, defaulting eps to 0.1.

    A strictly local material (a = 0) only admits eps = 0; the reference
    wavenumber is then 1.
    """
    if m.a_nl == 0.0:
        if eps_arg is not None and eps_arg != 0.0:
            raise _UsageError("--eps must be 0 for a material with a = 0")
        return 1.0, 0.0
    eps = 0.1 if eps_arg is None else eps_arg
    if not eps > 0:
        raise _UsageError("--eps must be positive for a non-local material")
    return eps / m.a_nl, eps


_EPS_REGIME_MAX = 0.3   # above it, a*k << 1 (the expansion's regime) fails


def _warn_eps_regime(eps: float) -> None:
    """One stderr line when eps leaves the asymptotic regime; called after
    the report is computed, so a rejected input still gets one error line."""
    if eps > _EPS_REGIME_MAX:
        print(f"warning: eps = {eps!r} is above {_EPS_REGIME_MAX!r}, outside "
              "the a*k << 1 regime of the expansion", file=sys.stderr)


def _cmd_residuals(args) -> int:
    m = _load_material(args.material)
    k, eps = _residual_wavenumber(m, args.eps)
    report = asymptotic.residual_report_json(m, k, eps)
    _warn_eps_regime(eps)
    _emit(report + "\n", args.out)
    return _EXIT_OK


def _cmd_blayer(args) -> int:
    m = _load_material(args.material)
    eps_grid = asymptotic.SLOPE_EPS_GRID if args.eps is None else (args.eps,)
    if any(not e > 0 for e in eps_grid):
        raise _UsageError("--eps must be positive")
    payload = asymptotic.blayer_convergence(m, eps_grid)
    _warn_eps_regime(max(eps_grid))
    _emit(json.dumps(payload, indent=2, allow_nan=False) + "\n", args.out)
    return _EXIT_OK


# kernel-check's 96 x 96 grid at spacing a/2 squares lengths from the
# spacing, a^2/4, up to a corner's distance from the centre, 2 (24 a)^2.  On
# this range of a all of them are normal floats, so the Gaussian and the
# Helmholtz stencil neither overflow nor lose digits, and the check prints
# the same numbers for every a
_KERNEL_CHECK_A = (2.0 * math.sqrt(sys.float_info.min),
                   math.sqrt(sys.float_info.max / 1152.0))


def _cmd_kernel_check(args) -> int:
    m = _load_material(args.material)
    if m.a_nl <= 0:
        raise _UsageError("kernel checks need a non-local material (a > 0)",
                          _EXIT_INFEASIBLE)
    a = m.a_nl
    lo, hi = _KERNEL_CHECK_A
    if not lo <= a <= hi:
        raise _UsageError(f"a_nl = {a!r} is outside kernel-check's range "
                          f"[{lo!r}, {hi!r}]")
    mass = specfun.integrate_2d_polar(
        lambda r, theta: kernel.kernel_weight(r, a), 40.0 * a,
        specfun.QuadratureSpec(rel_tol=1e-8)).real

    n = 96
    h = 0.5 * a
    width = 5.0 * a
    convolved, _, rel = kernel.roundtrip_error(
        kernel.gaussian_field(n, h, width), a)
    payload = {
        "kernel_mass": mass,
        "mass_error": abs(mass - 1.0),
        "roundtrip_rel_linf": rel,
        "grid": {"n": n, "spacing": h, "a": a, "gaussian_width": width},
        "warnings": list(convolved.warnings),
    }
    # the CSV first, so a failed write leaves stdout empty
    if args.out is not None:
        Path(args.out).write_text(kernel.field_to_csv(convolved),
                                  encoding="utf-8")
    print(json.dumps(payload, indent=2, allow_nan=False))
    return _EXIT_OK


_HANDLERS = {
    "validate": _cmd_validate,
    "speeds": _cmd_speeds,
    "dispersion": _cmd_dispersion,
    "residuals": _cmd_residuals,
    "blayer": _cmd_blayer,
    "kernel-check": _cmd_kernel_check,
}


def run(argv: list[str]) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        return _HANDLERS[args.command](args)
    except BrokenPipeError:
        raise   # main reports a closed stdout
    # naming a module in a clause runs it: the first clause needs only
    # `material`, the second runs the numpy-free `dispersion`
    except (_UsageError, material.InvalidMaterialError, OSError) as exc:
        code, message = getattr(exc, "code", _EXIT_BAD_INPUT), str(exc)
    except (dispersion.CutoffError, dispersion.NoSurfaceModeError) as exc:
        code, message = _EXIT_INFEASIBLE, str(exc)
    except (ValueError, ArithmeticError) as exc:
        # ValueError covers any input the library rejects after parsing
        # (CutoffError, also one, is caught above); ArithmeticError covers
        # finite inputs so extreme that the arithmetic overflows or divides
        # by zero
        code, message = _EXIT_BAD_INPUT, str(exc)
    print(f"error: {message}", file=sys.stderr)
    return code


def main() -> None:
    try:
        code = run(sys.argv[1:])
        sys.stdout.flush()
    except BrokenPipeError:
        # stdout is closed: point it at devnull so the exit flush is quiet
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        print("error: stdout was closed before the output was written",
              file=sys.stderr)
        code = _EXIT_BAD_INPUT
    sys.exit(code)


if __name__ == "__main__":
    main()
