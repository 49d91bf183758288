"""Closed-form oracles the benchmark checks the package against.

Nothing here imports ``latmirror``.  Classes are plain tuples: a threefold
class is ``(u0, (u1...), (u2...), u3)`` with divisor coordinates in
``u1`` and curve coordinates (dual basis) in ``u2``; a K3 class is
``(r, (c1...), ch2)``.  The cubic is the nested ``D[a][b][c]`` list and
``c2`` the vector of second-Chern pairings against the divisor basis.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np


def nest_cubic(flat, k: int) -> list:
    """Row-major flat ``k**3`` list (as in fixture files) to ``D[a][b][c]``."""
    if len(flat) != k ** 3:
        raise ValueError(f"need {k ** 3} cubic entries, got {len(flat)}")
    return [[[flat[(a * k + b) * k + c] for c in range(k)] for b in range(k)] for a in range(k)]


def contract(cubic, a, b) -> tuple:
    """Curve class a.b: component d is sum_ij a_i D_ijd b_j."""
    k = len(cubic)
    return tuple(
        sum((Fraction(a[i]) * cubic[i][j][d] * b[j] for i in range(k) for j in range(k)), Fraction(0))
        for d in range(k)
    )


def _dot(a, b) -> Fraction:
    return sum((Fraction(x) * y for x, y in zip(a, b)), Fraction(0))


def line_bundle_ch(cubic, L) -> tuple:
    """ch(O(L)) = (1, L, L^2/2, L^3/6)."""
    sq = contract(cubic, L, L)
    return (
        Fraction(1),
        tuple(Fraction(x) for x in L),
        tuple(x / 2 for x in sq),
        _dot(sq, L) / 6,
    )


def chi_line_bundle(cubic, c2, L) -> Fraction:
    """chi(O(L)) = L^3/6 + c2.L/12; an integer on a genuine threefold."""
    return _dot(contract(cubic, L, L), L) / 6 + _dot(L, c2) / 12


def mirror_preimage(u, c2) -> tuple:
    """w = u * sqrt(td)^-1 = (u0, u1, u2 - u0 c2/24, u3 - u1.c2/24)."""
    u0, u1, u2, u3 = u
    return (
        Fraction(u0),
        tuple(Fraction(x) for x in u1),
        tuple(Fraction(x) - Fraction(u0) * c / 24 for x, c in zip(u2, c2)),
        Fraction(u3) - _dot(u1, c2) / 24,
    )


def euler_form3(u, v, c2) -> Fraction:
    """chi(u, v) = u0v3 - u3v0 - u1.v2 + u2.v1 + (u0v1 - v0u1).c2/12."""
    u0, u1, u2, u3 = u
    v0, v1, v2, v3 = v
    twist = tuple(Fraction(u0) * y - Fraction(v0) * x for x, y in zip(u1, v1))
    return (
        Fraction(u0) * v3 - Fraction(u3) * v0 - _dot(u1, v2) + _dot(u2, v1)
        + _dot(twist, c2) / 12
    )


def gram_pair(gram, a, b) -> Fraction:
    k = len(gram)
    return sum((Fraction(a[i]) * gram[i][j] * b[j] for i in range(k) for j in range(k)), Fraction(0))


def k3_mukai(ch) -> tuple:
    """Mukai vector (r, c1, ch2 + r) of K3 Chern data (r, c1, ch2)."""
    r, c1, ch2 = ch
    return (Fraction(r), tuple(Fraction(x) for x in c1), Fraction(ch2) + r)


def k3_mirror_sphere(gram, L) -> tuple:
    """Mirror sphere (s, L, e) = (1, L, -L^2/2) of a divisor class."""
    return (Fraction(1), tuple(Fraction(x) for x in L), -gram_pair(gram, L, L) / 2)


def k3_sphere_square(gram, sphere) -> Fraction:
    """Square in H + Pic with [s]^2 = -2, [s].[e] = 1, [e]^2 = 0; -2 for a sphere."""
    s, pic, e = sphere
    return -2 * s * s + 2 * s * e + gram_pair(gram, pic, pic)


def reflect(gram, x, delta) -> tuple:
    """x + (x.delta) delta."""
    c = gram_pair(gram, x, delta)
    return tuple(Fraction(a) + c * d for a, d in zip(x, delta))


def walk_faults(gram, roots, x, vector, applied) -> list:
    """What is wrong with a chamber walk from x that ended at ``vector``.

    The end point must pair nonnegatively with every root, must be x
    reflected in the applied roots in order, and must keep x's square.
    """
    faults = []
    if any(gram_pair(gram, vector, r) < 0 for r in roots):
        faults.append("end point outside the chamber")
    replay = tuple(Fraction(a) for a in x)
    for i in applied:
        replay = reflect(gram, replay, roots[i])
    if replay != tuple(vector):
        faults.append("end point is not x reflected in the applied roots")
    if gram_pair(gram, vector, vector) != gram_pair(gram, x, x):
        faults.append("square not preserved")
    return faults


def clebsch_gordan(a: int, b: int) -> dict:
    """sl2 rule: F_a (x) F_b = sum_{j < min(a, b)} F_{a+b-1-2j}."""
    out: dict = {}
    for j in range(min(a, b)):
        out[a + b - 1 - 2 * j] = out.get(a + b - 1 - 2 * j, 0) + 1
    return out


def atiyah_product(x: dict, y: dict) -> dict:
    """Product of formal sums {index: multiplicity}, zero terms dropped."""
    out: dict = {}
    for ia, ma in x.items():
        for ib, mb in y.items():
            for idx, m in clebsch_gordan(ia, ib).items():
                out[idx] = out.get(idx, 0) + ma * mb * m
    return {i: m for i, m in sorted(out.items()) if m != 0}


def holonomy(level, t):
    """exp(2 pi i k t), elementwise."""
    return np.exp(2j * np.pi * np.asarray(level, dtype=float) * np.asarray(t, dtype=float))


def winding_count(phases) -> float:
    """Turns swept by a sequence of unit phases, by unwrapped angle."""
    angles = np.unwrap(np.angle(np.asarray(phases, dtype=complex)))
    return float((angles[-1] - angles[0]) / (2.0 * math.pi))


def phase_spread(phases) -> float:
    """Largest distance of a phase from the first; 0 for a constant phase."""
    phases = np.asarray(phases, dtype=complex)
    return float(np.max(np.abs(phases - phases[0])))
