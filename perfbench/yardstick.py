"""A fixed pure-Python yardstick for the host's current speed.

The host this benchmark runs on is shared, and its speed drifts by a
third over minutes: every pure-Python loop, the program's and any other,
slows and speeds up together.  ``run.py`` runs the yardstick between
instances and scales each instance's latency by how long the yardstick
took around it, so the scaled times follow the program, not the host.

The yardstick is benchmark code only.  It calls nothing in the program,
so no change to the program can make it faster or slower; it runs with
the garbage collector off, so the objects the program keeps alive do not
lengthen it.  Its four parts, about a quarter of the time each, mimic
the kinds of work the program does: products of big-integer polynomials
modulo x^N - a and a prime, small field elements as objects with tuple
coordinates, Fraction arithmetic, and a plain integer loop.  On a shared
two-core host the mix tracked the program's speed better than any one
part alone.
"""

from __future__ import annotations

import gc
from fractions import Fraction
from time import perf_counter

# Seconds one yardstick takes on the host the benchmark was sized on, in
# its usual state.  Scaled times are seconds on a host that runs the
# yardstick in exactly this long.
NOMINAL_S = 0.1

_PRIME = (1 << 127) - 1
_N = 32


def _big_polynomials() -> None:
    f = [(7 ** (i + 40) + i) % _PRIME for i in range(_N)]
    g = list(f)
    for _ in range(75):
        h = [0] * (2 * _N)
        for i, fi in enumerate(f):
            for j, gj in enumerate(g):
                h[i + j] += fi * gj
        g = [(h[k] + 3 * h[k + _N]) % _PRIME for k in range(_N)]  # x^N = 3


class _Element:
    """An element of F_7[t]/(t^4 - 3)."""

    __slots__ = ("c",)

    def __init__(self, c: tuple) -> None:
        self.c = tuple(x % 7 for x in c)

    def __add__(self, other: "_Element") -> "_Element":
        return _Element(tuple(x + y for x, y in zip(self.c, other.c)))

    def __mul__(self, other: "_Element") -> "_Element":
        h = [0] * 7
        for i, x in enumerate(self.c):
            if x:
                for j, y in enumerate(other.c):
                    h[i + j] += x * y
        return _Element((h[0] + 3 * h[4], h[1] + 3 * h[5], h[2] + 3 * h[6], h[3]))


def _field_elements() -> None:
    # Twisted convolutions of a 16-vector of field elements with itself.
    x = [_Element((i % 7, (3 * i) % 7, 1, i % 2)) for i in range(16)]
    a = _Element((2, 1, 0, 0))
    for _ in range(8):
        out = [_Element((0, 0, 0, 0))] * 16
        for i, xi in enumerate(x):
            for j, xj in enumerate(x):
                k = i + j
                if k < 16:
                    out[k] = out[k] + xi * xj
                else:
                    out[k - 16] = out[k - 16] + a * (xi * xj)
        x = out


def _fractions() -> None:
    s = Fraction(0)
    for i in range(1, 2000):
        s += Fraction(i * i + 1, 3 * i + 2) * Fraction(2, i + 7)
        if i % 50 == 0:  # keep the numbers from growing without end
            s = Fraction(s.numerator % 10**40, s.denominator % 10**40 + 1)


def _integers() -> None:
    s = 0
    for i in range(200_000):
        s += i * i % 7


def measure() -> float:
    """Seconds one yardstick takes now."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = perf_counter()
        _big_polynomials()
        _field_elements()
        _fractions()
        _integers()
        return perf_counter() - start
    finally:
        if enabled:
            gc.enable()
