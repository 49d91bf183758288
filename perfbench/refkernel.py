"""Fixed reference kernel that normalises the benchmark's wall times.

The kernel mixes the same kinds of work the package does: exact
``Fraction`` arithmetic in small nested loops (like the exact layer's cup
products), a float/complex loop (like the holonomy and phase code) and a
small numpy step (like the theta-rank SVD).  It imports nothing from
``latmirror``, so a change to the package cannot change the kernel; the
kernel only tracks how fast the host runs Python at that moment.
"""

from __future__ import annotations

import cmath
import math
import time
from fractions import Fraction

import numpy as np

_FRACTION_ROUNDS = 1200
_COMPLEX_STEPS = 36000
_MATRIX_SIZE = 160


def _fraction_part() -> Fraction:
    acc = Fraction(0)
    vec = tuple(Fraction(i - 3, 2 + i % 3) for i in range(6))
    for n in range(_FRACTION_ROUNDS):
        c = Fraction(n % 11 - 5, 1 + n % 7)
        scaled = tuple(c * x for x in vec)
        acc += sum((x * y for x, y in zip(scaled, vec)), Fraction(0)) / (1 + n % 5)
    return acc


def _complex_part() -> float:
    total = 0j
    for n in range(_COMPLEX_STEPS):
        t = n / _COMPLEX_STEPS
        total += cmath.exp(2j * math.pi * 7.0 * t) * (1.0 - t)
    return abs(total)


def _numpy_part() -> float:
    xs = np.arange(_MATRIX_SIZE, dtype=float) / _MATRIX_SIZE
    modes = np.exp(2j * np.pi * np.outer(np.arange(_MATRIX_SIZE), xs))
    sigma = np.linalg.svd(modes + np.eye(_MATRIX_SIZE), compute_uv=False)
    return float(sigma[0])


def reference_kernel() -> tuple:
    """One kernel call; returns its results so the work cannot be skipped."""
    return _fraction_part(), _complex_part(), _numpy_part()


def reference_seconds() -> float:
    """Wall time of one kernel call."""
    start = time.perf_counter()
    reference_kernel()
    return time.perf_counter() - start
