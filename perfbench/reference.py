"""A fixed reference load that gauges the machine's speed during a run.

On a shared VM the same work takes up to 1.6x longer in some minutes than
in others, and runs of any length from 15 to 60 s inherit that drift. The
benchmark times this load in slices between queries and scales its
end-to-end times by slowdown(), how much slower than NOMINAL_S the load
ran, so that the figures of two runs compare the program and not the
minute they ran in. The load does the kinds of work loopsoup does without
calling loopsoup, so a change to loopsoup cannot move it: exact rational
arithmetic in dicts (signature), float dynamic programming over adjacency
lists (soup, spectra) and small symmetric eigensolves (fourier).
"""

from __future__ import annotations

import statistics
import time
from fractions import Fraction

import numpy as np

# Bound now, so that the traced run's wrapper of numpy.linalg.eigvalsh
# does not slow the load.
_eigvalsh = np.linalg.eigvalsh

# Seconds one load() takes on a 2-vCPU Intel Xeon VM (Python 3.11, numpy
# 2.4, OpenBLAS 0.3.31) in its faster minutes. Only the scale of the
# reported times depends on it.
NOMINAL_S = 0.0075
# Loads per timed slice: about 40 ms, long enough that a slice is not
# dominated by the caches the previous query left behind.
SLICE_LOADS = 5

_MATRICES = []
for _n in (16, 32, 64, 96, 128, 160):
    _a = np.cos(np.outer(np.arange(_n), np.arange(_n)) * 0.37) / _n
    _MATRICES.append(_a + _a.T)
_ADJ = [[(v + d) % 240 for d in (1, 7, 239, 233)] for v in range(240)]


def _rational_algebra() -> int:
    """Tensor powers of a rational series truncated at degree 4."""
    series = {(): Fraction(1)}
    for letter in (1, 2, -1, -2, 3, 1, -3, 2):
        term = {(letter,): Fraction(1, 2), (letter, letter): Fraction(1, 8)}
        out: dict = {}
        for word, c in series.items():
            for tail, d in term.items():
                w = word + tail
                if len(w) <= 4:
                    out[w] = out.get(w, Fraction(0)) + c * d
            out[word] = out.get(word, Fraction(0)) + c
        series = out
    return len(series)


def _walk_counts() -> float:
    """Weighted closed-walk counts up to length 30 on a fixed graph."""
    p = [1.0] + [0.0] * 239
    total = 0.0
    for _ in range(30):
        q = [0.0] * 240
        for v, mass in enumerate(p):
            if mass:
                share = 0.24 * mass
                for u in _ADJ[v]:
                    q[u] += share
        p = q
        total += p[0]
    return total


def load() -> None:
    _rational_algebra()
    _walk_counts()
    for a in _MATRICES:
        _eigvalsh(a)


def time_slice() -> float:
    """Seconds per load over one slice of SLICE_LOADS loads."""
    t0 = time.perf_counter()
    for _ in range(SLICE_LOADS):
        load()
    return (time.perf_counter() - t0) / SLICE_LOADS


def slowdown(slices: list[float]) -> float:
    """How many times longer than NOMINAL_S the load took, by the median
    of the timed slices."""
    return statistics.median(slices) / NOMINAL_S
