"""Benchmark for mnwaves, run from the root of a checkout:

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads (see README.md): cli-session, material-study, kernel-field.
One client drives the program in a closed loop, one operation at a time,
for whole rounds of operations until S seconds have passed, and checks
every output. The last line of stdout is one JSON object with `correct`,
`attempted`, `failed` and `metrics`: the end-to-end metrics with
--trace 0, the per-layer metrics of a traced run with --trace 1. The line
before it holds the raw (not host-corrected) figures of the run.
"""

from __future__ import annotations

import argparse
import bisect
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
WORKLOADS = ("cli-session", "material-study", "kernel-field")
REF_EVERY_S = 0.25       # program time between two reference computations
# Parts of the host reference (hostref.py) that track each workload's own
# work: see "Host correction" in README.md for the measurements.
REFERENCE_PARTS = {
    "cli-session": ("process",),
    "material-study": ("scalar", "objects"),
    "kernel-field": ("scalar", "objects", "arrays"),
}
SETUP_PARTS = ("scalar", "objects", "arrays")
SETUP_PROBES = 5
IMPORTTIME_RUNS = 3
CHILD_TIMEOUT_S = 120

CLI_LAYERS = {
    "cli.validate_ms": ("validate",),
    "cli.speeds_ms": ("speeds",),
    "cli.dispersion_ms": ("dispersion-elastic", "dispersion-micropolar"),
    "cli.residuals_ms": ("residuals",),
    "cli.blayer_ms": ("blayer",),
    "cli.kernel_check_ms": ("kernel-check",),
}
# (metric, traced function, what): "calls" and "macs" are per operation over
# the first round, which every run completes; "self_ms" is per operation
# over the whole run.
CALL_LAYERS = (
    ("material.derive_scales.calls", "material.derive_scales", "calls"),
    ("material.derive_scales.self_ms", "material.derive_scales", "self_ms"),
    ("dispersion.secular_leading.calls", "dispersion.secular_leading", "calls"),
    ("dispersion.solve_rayleigh.self_ms", "dispersion.solve_rayleigh", "self_ms"),
    ("dispersion.sweep.self_ms", "dispersion.sweep", "self_ms"),
    ("wavefield.decay_exponents.calls", "wavefield.decay_exponents", "calls"),
    ("wavefield.decay_exponents.self_ms", "wavefield.decay_exponents", "self_ms"),
    ("wavefield.blayer_quadrature_form.self_ms",
     "wavefield.blayer_quadrature_form", "self_ms"),
    ("asymptotic.residual_report_json.self_ms",
     "asymptotic.residual_report_json", "self_ms"),
    ("asymptotic.first_order_elastic_solution.self_ms",
     "asymptotic.first_order_elastic_solution", "self_ms"),
    ("specfun.integrate_1d.calls", "specfun.integrate_1d", "calls"),
    ("specfun.integrate_1d.self_ms", "specfun.integrate_1d", "self_ms"),
    ("specfun.integrate_2d_polar.self_ms", "specfun.integrate_2d_polar", "self_ms"),
    ("kernel.kernel_weight.calls", "kernel.kernel_weight", "calls"),
    ("kernel.convolve_halfplane.self_ms", "kernel.convolve_halfplane", "self_ms"),
    ("kernel.apply_helmholtz.self_ms", "kernel.apply_helmholtz", "self_ms"),
)


def fail(message: str) -> None:
    print(f"bench: {message}", file=sys.stderr)
    sys.exit(2)


def require_sources() -> Path:
    package = ROOT / "src" / "mnwaves"
    if not (package / "__init__.py").is_file():
        fail(f"no mnwaves sources under {ROOT / 'src'}")
    return package


def import_program():
    """Imports mnwaves from this checkout's src/, never an installed copy."""
    package = require_sources()
    sys.path.insert(0, str(ROOT / "src"))
    import mnwaves
    if Path(mnwaves.__file__).resolve().parent != package.resolve():
        fail(f"imported mnwaves from {mnwaves.__file__}, not this checkout")
    return mnwaves


def make_workload(name: str, seed: int, workdir: Path):
    import workloads
    if name == "material-study":
        return workloads.MaterialStudy(seed)
    if name == "kernel-field":
        return workloads.KernelField(seed)
    return workloads.CliSession(seed, ROOT, workdir)


def setup_probe(args) -> None:
    """Child process: times import, input generation and one warm-up op."""
    workdir = OUT / f"probe-{os.getpid()}"
    if args.workload == "cli-session":
        # the mnw child imports the program; the benchmark's own imports
        # (numpy among them) are not part of its set-up
        require_sources()
        import workloads  # noqa: F401
        t0 = time.perf_counter()
    else:
        t0 = time.perf_counter()
        import_program()
    try:
        wl = make_workload(args.workload, args.seed, workdir)
        wl.warm_up().run()
        setup_s = time.perf_counter() - t0
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    import hostref
    hostref.timed(SETUP_PARTS)   # the first call pays for allocations
    refs = [hostref.timed(SETUP_PARTS) for _ in range(3)]
    print(json.dumps({"setup_s": setup_s, "ref_ms": statistics.median(refs)}))


def run_child(argv: list[str], env=None) -> subprocess.CompletedProcess:
    try:
        return subprocess.run(argv, capture_output=True, text=True, env=env,
                              timeout=CHILD_TIMEOUT_S, cwd=ROOT)
    except subprocess.TimeoutExpired:
        fail(f"child timed out: {argv}")


def measure_setup(args) -> list[dict]:
    """SETUP_PROBES set-up probes, each with its own reference times."""
    probes = []
    for _ in range(SETUP_PROBES):
        proc = run_child([sys.executable, str(HERE / "run.py"),
                          "--workload", args.workload, "--seed", str(args.seed),
                          "--setup-probe"])
        if proc.returncode != 0:
            fail(f"set-up probe failed:\n{proc.stderr}")
        probes.append(json.loads(proc.stdout.strip().split("\n")[-1]))
    return probes


def import_times() -> dict:
    """Cumulative import time of mnwaves and scipy.special, in ms (median of
    IMPORTTIME_RUNS `python -X importtime` runs in the mnw environment)."""
    import workloads
    samples = {"mnwaves": [], "scipy.special": []}
    for _ in range(IMPORTTIME_RUNS):
        proc = run_child([sys.executable, "-X", "importtime", "-c",
                          "import mnwaves"], env=workloads.cli_env(ROOT))
        if proc.returncode != 0:
            fail(f"import of mnwaves failed:\n{proc.stderr}")
        found = {}
        for line in proc.stderr.splitlines():
            parts = line.split("|")
            if line.startswith("import time:") and len(parts) == 3:
                name = parts[2].strip()
                if name in samples and parts[1].strip().isdigit():
                    found[name] = int(parts[1]) / 1e3
        for name in samples:
            samples[name].append(found.get(name, 0.0))
    return {name: statistics.median(values) for name, values in samples.items()}


def corrected_durations(records, refs, nominal_ms: float) -> list[float]:
    """Each op's time scaled by NOMINAL / the mean of the reference
    measurements just before and just after it."""
    ref_times = [t for t, _ in refs]
    out = []
    for t0, dur, _, _ in records:
        before = bisect.bisect_right(ref_times, t0) - 1
        after = bisect.bisect_left(ref_times, t0 + dur)
        local = 0.5 * (refs[before][1] + refs[after][1])
        out.append(dur * nominal_ms / local)
    return out


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args()
    sys.path.insert(0, str(HERE))
    if args.setup_probe:
        setup_probe(args)
        return

    if args.workload == "cli-session":
        require_sources()
    else:
        import_program()
    probes = measure_setup(args)
    workdir = OUT / f"run-{args.workload}-{args.seed}-{os.getpid()}"
    try:
        measure(args, probes, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def measure(args, probes, workdir: Path) -> None:
    import hostref
    from tracer import Tracer

    parts = REFERENCE_PARTS[args.workload]
    nominal = hostref.nominal(parts)

    def reference() -> float:
        return hostref.timed(parts)

    setup_raw = [p["setup_s"] for p in probes]
    setup_corr = [p["setup_s"] * hostref.nominal(SETUP_PARTS) / p["ref_ms"]
                  for p in probes]
    wl = make_workload(args.workload, args.seed, workdir)
    problems = []
    warm = wl.warm_up()
    problems += warm.check(warm.run())

    # cli-session calls mnwaves only in child processes: nothing to wrap here
    tracer = (Tracer() if args.trace and args.workload != "cli-session"
              else None)
    if tracer:
        tracer.install()
    refs = [(time.perf_counter(), reference())]
    records = []          # (start, duration_s, ok, kind)
    first_round = None    # (ops, calls by function, macs)
    macs = 0
    h_seen = {warm.h_ratio}
    h_repeats = 0
    since_ref = 0.0
    loop_start = time.perf_counter()
    while True:
        ops = wl.round()
        for op in ops:
            if tracer:
                tracer.begin_op(len(records))
            if op.h_ratio is not None:
                h_repeats += op.h_ratio in h_seen
                h_seen.add(op.h_ratio)
            macs += op.macs
            t0 = time.perf_counter()
            try:
                result = op.run()
            except Exception as exc:   # every failure is counted and reported
                dur = time.perf_counter() - t0
                records.append((t0, dur, False, op.kind))
                if not op.expect_failure(exc):
                    problems.append(f"{op.kind} raised: "
                                    + "".join(traceback.format_exception_only(exc)))
            else:
                dur = time.perf_counter() - t0
                records.append((t0, dur, True, op.kind))
                problems += op.check(result)
            since_ref += dur
            if since_ref >= REF_EVERY_S:
                refs.append((time.perf_counter(), reference()))
                since_ref = 0.0
        if first_round is None:
            first_round = (len(records), dict(tracer.calls) if tracer else {},
                           macs)
        if time.perf_counter() - loop_start >= args.seconds:
            break
    refs.append((time.perf_counter(), reference()))
    if tracer:
        tracer.uninstall()

    attempted = len(records)
    failed = sum(1 for r in records if not r[2])
    corrected = corrected_durations(records, refs, nominal)
    ok_raw = [r[1] for r in records if r[2]]
    ok_corr = [c for c, r in zip(corrected, records) if r[2]]
    completed = attempted - failed
    if args.workload == "cli-session":
        rss_mb = max(wl.rss_kib) / 1024.0
    else:
        rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    ref_ms = [ms for _, ms in refs]
    info = {
        "raw": {
            "throughput_ops_s": completed / sum(r[1] for r in records),
            "latency_p50_ms": statistics.median(ok_raw) * 1e3,
            "setup_s": statistics.median(setup_raw),
        },
        "host": {"ref_ms_median": statistics.median(ref_ms),
                 "ref_samples": len(ref_ms), "nominal_ms": nominal,
                 "run_factor": nominal / statistics.fmean(ref_ms)},
        "setup_probes": probes,
        "rounds_ops": [attempted // first_round[0], first_round[0]],
        "loop_s": time.perf_counter() - loop_start,
    }
    if hasattr(wl, "rejected"):
        info["draws_rejected_past_cap"] = wl.rejected
        info["draws_rejected_near_pole"] = wl.rejected_near_pole
    if args.workload == "kernel-field":
        info["h_repeat_share"] = h_repeats / attempted

    throughput = completed / sum(corrected)
    if args.trace:
        info["traced_throughput_ops_s"] = throughput
        metrics = layer_metrics(records, tracer, first_round, ref_ms)
        if tracer:
            trace_path = OUT / f"trace-{args.workload}-seed{args.seed}.json"
            tracer.write(trace_path)
            info["trace_file"] = str(trace_path.relative_to(ROOT))
    else:
        metrics = {
            "throughput_ops_s": {"value": throughput, "unit": "1/s"},
            "latency_p50_ms": {"value": statistics.median(ok_corr) * 1e3,
                               "unit": "ms"},
            "peak_rss_mb": {"value": rss_mb, "unit": "MB"},
            "setup_s": {"value": statistics.median(setup_corr), "unit": "s"},
        }
    for problem in problems[:20]:
        print(f"bench: check failed: {problem}", file=sys.stderr)
    print(json.dumps(info))
    print(json.dumps({"correct": not problems, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))


def layer_metrics(records, tracer, first_round, ref_ms) -> dict:
    metrics = {}
    imports = import_times()
    metrics["import.mnwaves_ms"] = {"value": imports["mnwaves"], "unit": "ms"}
    metrics["import.scipy_special_ms"] = {"value": imports["scipy.special"],
                                          "unit": "ms"}
    for name, kinds in CLI_LAYERS.items():
        times = [r[1] * 1e3 for r in records if r[3] in kinds and r[2]]
        metrics[name] = {"value": statistics.median(times) if times else 0.0,
                         "unit": "ms"}
    round_ops, round_calls, round_macs = first_round
    attempted = len(records)
    self_s = tracer.self_s if tracer else {}
    for metric, func, what in CALL_LAYERS:
        if what == "calls":
            metrics[metric] = {"value": round_calls.get(func, 0) / round_ops,
                               "unit": "count"}
        else:
            metrics[metric] = {"value": self_s.get(func, 0.0) * 1e3 / attempted,
                               "unit": "ms"}
    metrics["kernel.convolve_halfplane.macs"] = {"value": round_macs / round_ops,
                                                 "unit": "count"}
    metrics["host.ref_ms"] = {"value": statistics.median(ref_ms), "unit": "ms"}
    return metrics


if __name__ == "__main__":
    main()
