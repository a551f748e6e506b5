"""Fixed reference computation that measures the host's current speed.

The host this benchmark was tuned on changes speed in phases of 5-25 s, and
CPU time tracks wall time there, so neither clock alone gives repeatable
figures. The benchmark therefore runs this fixed work between operations
and scales every end-to-end time by nominal / measured reference time: a
time reported by the benchmark is the time the operation would have taken
at the speed the host had when NOMINAL_MS was recorded.

The work does not touch mnwaves. Its parts mirror the kinds of work the
program does, and each workload is corrected by the parts that match its
own work (see run.py and README.md):

- scalar: float arithmetic with `math` calls, like the secular scan and the
  quadrature rules;
- objects: building small frozen dataclasses and dicts with complex
  arithmetic, like material scales, mode states and reports;
- arrays: a shift-and-accumulate loop over complex numpy arrays, like the
  kernel convolution;
- process: starting and ending a fresh interpreter that runs nothing, like
  the start of every `mnw` command.
"""

from __future__ import annotations

import cmath
import math
import subprocess
import sys
import time
from dataclasses import dataclass

import numpy as np

# Median time of each part on the tuning host (2 CPUs, Python 3.11.7,
# numpy 2.4.6); see README.md.
NOMINAL_MS = {"scalar": 2.0, "objects": 7.0, "arrays": 9.0, "process": 60.0}

_SCALAR_STEPS = 20000
_OBJECT_STEPS = 4000
_GRID = np.linspace(-2.0, 2.0, 144)
_FIELD = np.exp(-_GRID[:, None] ** 2 - _GRID[None, :] ** 2).astype(complex)
_TAPS = [(j, i, 1.0 / (1.0 + j * j + i * i)) for j in range(17)
         for i in range(17)]


@dataclass(frozen=True)
class _State:
    a: float
    b: float
    c: complex


def _scalar() -> None:
    x, acc = 0.3, 0.0
    for _ in range(_SCALAR_STEPS):
        x = 3.9 * x * (1.0 - x)
        acc += math.sqrt(x + 1.0)


def _objects() -> None:
    acc = 0j
    for i in range(_OBJECT_STEPS):
        state = _State(a=i * 0.5, b=math.sqrt(i + 1.0), c=complex(i, 1.0))
        row = {"a": state.a, "b": state.b}
        z = cmath.sqrt(state.c - row["a"]) * (1.0 + row["b"])
        acc += z if z.real > 0 else -z


def _arrays() -> None:
    out = np.zeros((128, 128), dtype=complex)
    for j, i, w in _TAPS:
        out += w * _FIELD[j:j + 128, i:i + 128]


def _process() -> None:
    subprocess.run([sys.executable, "-c", "pass"], check=True, timeout=60)


_PARTS = {"scalar": _scalar, "objects": _objects, "arrays": _arrays,
          "process": _process}


def timed(parts: tuple[str, ...]) -> float:
    """Wall time of the given parts of the reference, in ms."""
    t0 = time.perf_counter()
    for name in parts:
        _PARTS[name]()
    return (time.perf_counter() - t0) * 1e3


def nominal(parts: tuple[str, ...]) -> float:
    return sum(NOMINAL_MS[name] for name in parts)
