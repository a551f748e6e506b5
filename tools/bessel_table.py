"""Write src/mnwaves/_bessel_table.py, the coefficient table behind
`specfun.bessel_k0` and `specfun.bessel_k1`.

Run from the root of a checkout (needs mpmath, about a minute):

    python3 tools/bessel_table.py

The table cuts 1e-9 <= x <= 700 into COUNT intervals of width WIDTH in
ln x, the first starting at T_LO.  Interval i has a centre x_i, stored as
the double 1/x_i, and on it e^x K_nu(x) is a polynomial of degree DEGREE
in s = ln(x / x_i), |s| <= WIDTH/2: the Chebyshev interpolant of the
function at 50 significant digits, in the monomial basis, rounded to
doubles.  Below 1e-9 the leading terms of the series at 0 are exact to
double precision, and past 700 K_nu underflows, so neither needs a table.
"""

from __future__ import annotations

import sys
from pathlib import Path

import mpmath

T_LO = -20.75   # ln x where the table starts, below ln 1e-9 = -20.72
WIDTH = 0.25    # interval width in ln x
COUNT = 110     # intervals: they end at ln x = 6.75, past ln 700 = 6.55
DEGREE = 9
DIGITS = 50
MARGIN = 1e-9   # fit past each end: the index comes from a rounded ln x

OUT = (Path(__file__).resolve().parent.parent
       / "src" / "mnwaves" / "_bessel_table.py")


def inverse_center(i: int) -> float:
    """1/x_i, x_i = exp(T_LO + (i + 1/2) WIDTH), as a double."""
    with mpmath.workdps(DIGITS):
        return float(mpmath.exp(-(T_LO + (i + 0.5) * WIDTH)))


def coefficients(order: int, i: int) -> tuple[float, ...]:
    """Coefficients c_0 .. c_DEGREE of e^x K_order(x) = sum c_k s^k on
    interval i, s = ln(x * inverse_center(i))."""
    with mpmath.workdps(DIGITS):
        inv = mpmath.mpf(inverse_center(i))

        def f(s):
            x = mpmath.exp(s) / inv
            return mpmath.exp(x) * mpmath.besselk(order, x)

        half = mpmath.mpf(WIDTH) / 2 + MARGIN
        poly = mpmath.chebyfit(f, [-half, half], DEGREE + 1)
        return tuple(float(c) for c in reversed(poly))


def render() -> str:
    lines = [
        '"""e^x K0(x) and e^x K1(x) as polynomials in s = ln(x / x_i) on the',
        "intervals of ln x that `specfun` evaluates: written by",
        'tools/bessel_table.py, which documents the layout; do not edit."""',
        "",
        f"T_LO = {T_LO!r}",
        f"WIDTH = {WIDTH!r}",
        f"COUNT = {COUNT!r}",
        f"DEGREE = {DEGREE!r}",
        "",
        "# 1/x_i, one per interval",
        'INVERSE_CENTERS = """',
    ]
    lines += [repr(inverse_center(i)) for i in range(COUNT)]
    lines.append('"""')
    for order in (0, 1):
        lines += ["",
                  f"# c_0 .. c_{DEGREE} of e^x K{order}(x), one interval "
                  "per line",
                  f'K{order} = """']
        lines += [" ".join(repr(c) for c in coefficients(order, i))
                  for i in range(COUNT)]
        lines.append('"""')
    return "\n".join(lines) + "\n"


if __name__ == "__main__":
    OUT.write_text(render(), encoding="utf-8")
    print(f"wrote {OUT}", file=sys.stderr)
