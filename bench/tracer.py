"""Per-layer tracing of mnwaves from the outside.

`Tracer.install` replaces each traced public function at every module
binding of its name (the defining module, the package namespace and every
module that did `from .x import name`), so cross-module calls are caught as
well as the benchmark's own. The wrappers keep everything in memory:

- per function, the call count and the self time (duration minus the time
  of traced calls made inside it);
- for the functions in SPANNED, one span per call: name, start, end and the
  span that caused it. The HOT functions are called thousands of times per
  operation, so they are counted and timed but leave no span of their own;
  their time is charged to the enclosing span as child time.

`write` dumps the spans and totals as JSON when the run ends.
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path

HOT = (
    "material.derive_scales",
    "dispersion.secular_leading",
    "wavefield.decay_exponents",
    "specfun.integrate_1d",
    "kernel.kernel_weight",
)
SPANNED = (
    "dispersion.solve_rayleigh",
    "dispersion.sweep",
    "wavefield.blayer_quadrature_form",
    "asymptotic.residual_report_json",
    "asymptotic.first_order_elastic_solution",
    "specfun.integrate_2d_polar",
    "kernel.convolve_halfplane",
    "kernel.apply_helmholtz",
)
TRACED = HOT + SPANNED


class Tracer:
    def __init__(self):
        self.calls = {name: 0 for name in TRACED}
        self.self_s = {name: 0.0 for name in TRACED}
        self.spans: list[tuple] = []   # (name, start, end, parent, op)
        self._child_s = [0.0]          # child time of each open frame
        self._open_spans = [-1]        # index of each open span
        self._op = -1
        self._restore: list[tuple] = []

    def install(self) -> None:
        for qualified in TRACED:
            module_name, func_name = qualified.split(".")
            original = getattr(sys.modules["mnwaves." + module_name], func_name)
            wrapper = self._wrap(qualified, original,
                                 spanned=qualified in SPANNED)
            for mod_name, module in list(sys.modules.items()):
                if mod_name != "mnwaves" and not mod_name.startswith("mnwaves."):
                    continue
                for attr, value in list(vars(module).items()):
                    if value is original:
                        self._restore.append((module, attr, original))
                        setattr(module, attr, wrapper)

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._restore):
            setattr(module, attr, original)
        self._restore.clear()

    def begin_op(self, index: int) -> None:
        """Attribute the spans that follow to operation `index`."""
        self._op = index

    def _wrap(self, name, fn, spanned):
        calls, self_s = self.calls, self.self_s
        child_s, open_spans, spans = self._child_s, self._open_spans, self.spans
        clock = time.perf_counter

        if not spanned:
            def hot(*args, **kwargs):
                child_s.append(0.0)
                t0 = clock()
                try:
                    return fn(*args, **kwargs)
                finally:
                    dur = clock() - t0
                    inner = child_s.pop()
                    child_s[-1] += dur
                    calls[name] += 1
                    self_s[name] += dur - inner
            return hot

        def spanned_call(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            child_s.append(0.0)
            parent = open_spans[-1]
            open_spans.append(index)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = clock()
                open_spans.pop()
                inner = child_s.pop()
                child_s[-1] += t1 - t0
                calls[name] += 1
                self_s[name] += t1 - t0 - inner
                spans[index] = (name, t0, t1, parent, self._op)
        return spanned_call

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        payload = {
            "totals": {name: {"calls": self.calls[name],
                              "self_ms": self.self_s[name] * 1e3}
                       for name in TRACED},
            "span_fields": ["name", "start_s", "end_s", "parent", "op"],
            "spans": self.spans,
        }
        path.write_text(json.dumps(payload), encoding="utf-8")
