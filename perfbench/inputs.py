"""Seeded inputs for the long-lived workloads, as plain Python data.

Nothing here imports ``latmirror``: the package receives only these
generated values.  Every size below is fixed, and only values depend on
the seed, so every seed asks for the same amount of work per pass.
"""

from __future__ import annotations

import math
import random
from fractions import Fraction

# exact-construct: classes built per pass
THREEFOLDS = (("quintic", 1), ("bicubic", 2), ("p1x4_2222", 4))
K3S = (("k3_quartic", 1), ("k3_elliptic", 2), ("k3_reflective", 3))
K3_WITH_ROOTS = ("k3_elliptic", "k3_reflective")
LINE_BUNDLES = 144      # per threefold: line_bundle_ch, chi_bundle3, mirror_cy3
GENERIC_CLASSES = 144   # per threefold: GradedVector, mirror_cy3
EULER_PAIRS = 24        # per threefold: Euler form of two built Chern characters
K3_CLASSES = 144        # per K3: mukai2 and mirror_k3
WALKS = 144             # per K3 with roots: walk_to_chamber
ATIYAH_PRODUCTS = 240
ATIYAH_TENSORS = 240

# torus-numeric
BS_LEVELS = (8, 32, 64, 128)
THETA_LEVELS = (2, 4, 8, 12, 16)
THETA_TAUS_PER_LEVEL = 2
# k * Im(tau) stays at or below 20 for the cases that must succeed: the
# rows of the theta matrix are not normalised, and from k * Im(tau) of
# about 25 upward true singular values fall under RANK_RTOL.
THETA_IM_RANGE = (0.6, 1.25)
HOLONOMY_POINTS = 400
HOLONOMY_MAX_LEVEL = 128
SEGMENTS = 4
SEGMENT_SAMPLES = 1024
CIRCLES = 2
CIRCLE_SAMPLES = 4096


def _nonzero_tuple(rng: random.Random, k: int, bound: int) -> tuple:
    while True:
        v = tuple(rng.randint(-bound, bound) for _ in range(k))
        if any(v):
            return v


def _tuple(rng: random.Random, k: int, bound: int) -> tuple:
    return tuple(rng.randint(-bound, bound) for _ in range(k))


def _atiyah_element(rng: random.Random) -> dict:
    indices = rng.sample(range(1, 9), rng.randint(1, 3))
    return {i: rng.choice((-3, -2, -1, 1, 2, 3)) for i in sorted(indices)}


def exact_inputs(seed: int) -> dict:
    """Divisors, classes and Atiyah elements for one exact-construct pass."""
    rng = random.Random(seed)
    threefolds = {}
    for label, k in THREEFOLDS:
        threefolds[label] = {
            "line_bundles": [_nonzero_tuple(rng, k, 5) for _ in range(LINE_BUNDLES)],
            "classes": [
                (
                    rng.randint(-9, 9),
                    _tuple(rng, k, 9),
                    tuple(Fraction(rng.randint(-19, 19), 2) for _ in range(k)),
                    Fraction(rng.randint(-59, 59), 6),
                )
                for _ in range(GENERIC_CLASSES)
            ],
            "euler_pairs": [
                (rng.randrange(LINE_BUNDLES), rng.randrange(LINE_BUNDLES))
                for _ in range(EULER_PAIRS)
            ],
        }
    k3s = {}
    for label, k in K3S:
        k3s[label] = {
            "chern": [
                (rng.randint(-3, 3), _tuple(rng, k, 9), Fraction(rng.randint(-19, 19), 2))
                for _ in range(K3_CLASSES)
            ],
            "divisors": [_tuple(rng, k, 9) for _ in range(K3_CLASSES)],
            "walks": [_tuple(rng, k, 9) for _ in range(WALKS)] if label in K3_WITH_ROOTS else [],
        }
    return {
        "threefolds": threefolds,
        "k3s": k3s,
        "atiyah_products": [
            (_atiyah_element(rng), _atiyah_element(rng)) for _ in range(ATIYAH_PRODUCTS)
        ],
        "atiyah_tensors": [
            (rng.randint(1, 12), rng.randint(1, 12)) for _ in range(ATIYAH_TENSORS)
        ],
    }


def _tau(rng: random.Random, im_low: float, im_high: float) -> complex:
    return complex(rng.uniform(-0.5, 0.5), rng.uniform(im_low, im_high))


def _segment(rng: random.Random) -> tuple:
    x0, y0 = rng.random(), rng.random()
    while True:
        dx, dy = rng.randint(-4, 4), rng.randint(-4, 4)
        if (dx, dy) != (0, 0):
            break
    n = SEGMENT_SAMPLES
    return tuple((x0 + dx * i / (n - 1), y0 + dy * i / (n - 1)) for i in range(n))


def _circle(rng: random.Random) -> tuple:
    cx, cy = rng.random(), rng.random()
    radius = rng.uniform(0.05, 0.5)
    n = CIRCLE_SAMPLES
    return tuple(
        (
            cx + radius * math.cos(2.0 * math.pi * i / (n - 1)),
            cy + radius * math.sin(2.0 * math.pi * i / (n - 1)),
        )
        for i in range(n)
    )


def torus_inputs(seed: int) -> dict:
    """Levels, moduli, fibre heights and sampled cycles for one torus-numeric pass."""
    rng = random.Random(seed)
    return {
        "bs": [(_tau(rng, 0.5, 2.0), k) for k in BS_LEVELS],
        "theta": [
            (_tau(rng, *THETA_IM_RANGE), k)
            for k in THETA_LEVELS
            for _ in range(THETA_TAUS_PER_LEVEL)
        ],
        "holonomy": [
            (_tau(rng, 0.5, 2.0), rng.randint(1, HOLONOMY_MAX_LEVEL), rng.random())
            for _ in range(HOLONOMY_POINTS)
        ],
        "segments": [_segment(rng) for _ in range(SEGMENTS)],
        "circles": [_circle(rng) for _ in range(CIRCLES)],
    }
