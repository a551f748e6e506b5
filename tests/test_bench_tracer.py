"""The benchmark wraps and calls mnwaves functions by "module.name": the
tracer (bench/tracer.py) lists the ones it times, and the workloads
(bench/workloads.py) reach the library only through module attributes.  A
rename in the library must not leave either pointing at nothing, and a
change of a contract must not break the calls the workloads make."""

import ast
import importlib
import json
import runpy
import subprocess
import sys
from pathlib import Path

from conftest import subprocess_env

BENCH = Path(__file__).resolve().parent.parent / "bench"
TRACER = BENCH / "tracer.py"
WORKLOADS = BENCH / "workloads.py"


def _assert_resolves(qualified: str) -> None:
    module_name, name = qualified.split(".")
    module = importlib.import_module("mnwaves." + module_name)
    assert callable(getattr(module, name, None)), qualified


def test_traced_names_resolve():
    traced = runpy.run_path(str(TRACER))["TRACED"]  # source only, no .pyc
    assert traced
    for qualified in traced:
        _assert_resolves(qualified)


def test_workload_names_resolve():
    """Every `module.name` the workloads reach on an mnwaves module, found
    in the source of workloads.py (`from mnwaves import module`)."""
    tree = ast.parse(WORKLOADS.read_text())
    modules = {alias.asname or alias.name
               for node in ast.walk(tree)
               if isinstance(node, ast.ImportFrom) and node.module == "mnwaves"
               for alias in node.names}
    reached = {f"{node.value.id}.{node.attr}"
               for node in ast.walk(tree)
               if isinstance(node, ast.Attribute)
               and isinstance(node.value, ast.Name)
               and node.value.id in modules}
    assert reached
    for qualified in sorted(reached):
        _assert_resolves(qualified)


def test_workload_operations_pass_their_checks(monkeypatch):
    """One round of kernel-field (5 operations) and one material-study
    operation, run in-process: each must pass the workload's own check.
    No bytecode is written into bench/."""
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    monkeypatch.syspath_prepend(str(BENCH))
    workloads = importlib.import_module("workloads")
    ops = workloads.KernelField(1).round() + [
        workloads.MaterialStudy(1).warm_up()]
    assert len(ops) == 6
    for op in ops:
        assert op.check(op.run()) == [], op.kind


def test_tracer_wraps_every_name_after_a_bare_import():
    """kernel-field imports only `mnwaves`, `kernel` and `specfun` before the
    tracer is installed, and the library modules run on first use.
    `Tracer.install` reads every traced module from sys.modules, so each must
    be there and must end up wrapped; `uninstall` puts the originals back.
    Runs in a child, where no test has run a module yet."""
    script = f"""\
import json, sys
import mnwaves
from mnwaves import kernel, specfun
sys.path.insert(0, {str(BENCH)!r})
from tracer import TRACED, Tracer

def owners():
    return {{q: getattr(sys.modules["mnwaves." + q.split(".")[0]],
                       q.split(".")[1]).__module__ for q in TRACED}}

tracer = Tracer()
tracer.install()
wrapped = owners()
mnwaves.kernel_weight(1.0, 1.0)   # resolves through kernel's binding
counted = tracer.calls["kernel.kernel_weight"]
tracer.uninstall()
print(json.dumps([wrapped, owners(), counted]))
"""
    proc = subprocess.run([sys.executable, "-B", "-c", script],
                          capture_output=True, text=True,
                          env=subprocess_env())
    assert proc.returncode == 0, proc.stderr
    wrapped, restored, counted = json.loads(proc.stdout)
    assert wrapped == {q: "tracer" for q in wrapped}
    assert restored == {q: "mnwaves." + q.split(".")[0] for q in restored}
    assert len(wrapped) == len(runpy.run_path(str(TRACER))["TRACED"])
    assert counted == 1
