"""Independent oracles the tests freeze results against.

Nothing here imports the package under test; any agreement between these
functions and the library is evidence, not tautology.
"""

from __future__ import annotations

import cmath
import math

import numpy as np

# Draw each class (r, d) as the closed geodesic {(x0 + r t, y0 + d t)} on
# the unit-square torus.  The second line is offset by (1/7, 1/11): one can
# check that no line of slope (r, d) with |r|, |d| <= 5 passes through both
# (0, 0) and (1/7, 1/11), so parallel representatives never coincide and
# every crossing is transverse.
_OFFSET_NUM = (11, 7)  # (1/7, 1/11) scaled by 77


def torus_line_intersections(c1, c2, box: int = 11) -> int:
    """Count intersection points of two primitive geodesics, brute force.

    Clears denominators by 77 and enumerates all integer translates
    (m, n) of the unit square, solving the 2x2 linear system exactly in
    integers.  Each admissible translate is one intersection point.
    """
    r1, d1 = c1
    r2, d2 = c2
    det = r2 * d1 - r1 * d2
    if det == 0:
        # parallel; coincidence would need 11*d1 - 7*r1 = 0 mod 77
        if (11 * d1 - 7 * r1) % 77 == 0:
            raise ValueError("offset points lie on a common line; pick new offsets")
        return 0
    ms = np.arange(-box, box + 1, dtype=np.int64)
    ns = np.arange(-box, box + 1, dtype=np.int64)
    A = _OFFSET_NUM[0] + 77 * ms[:, None] + 0 * ns[None, :]
    B = _OFFSET_NUM[1] + 0 * ms[:, None] + 77 * ns[None, :]
    # r1*T - r2*U = A, d1*T - d2*U = B with T = 77 t, U = 77 u
    T_num = -d2 * A + r2 * B
    U_num = -d1 * A + r1 * B
    lim = 77 * det
    if det > 0:
        good = (T_num >= 0) & (T_num < lim) & (U_num >= 0) & (U_num < lim)
    else:
        good = (T_num <= 0) & (T_num > lim) & (U_num <= 0) & (U_num > lim)
    return int(np.count_nonzero(good))


def primitive_classes(bound: int = 5):
    """All nonzero (r, d) with |r|, |d| <= bound and gcd = 1."""
    from math import gcd

    out = []
    for r in range(-bound, bound + 1):
        for d in range(-bound, bound + 1):
            if (r, d) != (0, 0) and gcd(abs(r), abs(d)) == 1:
                out.append((r, d))
    return out


# --- sl2 character polynomials, as Laurent coefficient dicts ---------------

def sl2_char(r: int) -> dict[int, int]:
    """chi_r(q) = q^(r-1) + q^(r-3) + ... + q^(1-r)."""
    if r < 1:
        raise ValueError("index must be >= 1")
    return {e: 1 for e in range(1 - r, r, 2)}


def char_mul(p: dict[int, int], q: dict[int, int]) -> dict[int, int]:
    out: dict[int, int] = {}
    for ea, ca in p.items():
        for eb, cb in q.items():
            out[ea + eb] = out.get(ea + eb, 0) + ca * cb
    return {e: c for e, c in out.items() if c}


def char_decompose(p: dict[int, int]) -> tuple[tuple[int, int], ...]:
    """Greedy top-exponent decomposition into irreducible characters.

    Returns ((r, multiplicity), ...) sorted by r; raises if the input is
    not a nonnegative combination (which would falsify the ring claim).
    """
    work = dict(p)
    found: dict[int, int] = {}
    while work:
        top = max(work)
        mult = work[top]
        if mult < 0:
            raise ValueError(f"negative multiplicity at exponent {top}")
        r = top + 1
        found[r] = mult
        for e in range(1 - r, r, 2):
            c = work.get(e, 0) - mult
            if c:
                work[e] = c
            else:
                work.pop(e, None)
    return tuple(sorted(found.items()))


def tensor_decompose_oracle(a: int, b: int) -> tuple[tuple[int, int], ...]:
    return char_decompose(char_mul(sl2_char(a), sl2_char(b)))


# --- the (2,2,2,2) hypersurface in (P^1)^4, a Picard-rank-4 threefold -------

def p1x4_2222() -> tuple[list[int], list[int]]:
    """Flat row-major cubic tensor and c2 vector of the (2,2,2,2) threefold.

    J_a J_b J_c = 2 for distinct a, b, c (a (2,2,2,2) hypersurface meets
    three distinct hyperplane pullbacks in two points) and 0 otherwise,
    because J_a^2 = 0 on P^1; c2 . J_a = 24 for every a.
    """
    cubic = [
        2 if len({a, b, c}) == 3 else 0
        for a in range(4) for b in range(4) for c in range(4)
    ]
    return cubic, [24] * 4


# --- Bohr-Sommerfeld fibre search, one bracket and one height at a time -----

def bs_fibres_scalar(holonomy, level: int, tol: float = 1e-9) -> list[float]:
    """Trivial-holonomy heights in [0, 1) by per-bracket scalar bisection.

    ``holonomy(t)`` returns the complex holonomy of the fibre at one height.
    Brackets are the steps of the offset grid (i + 1/2)/(8k) where the
    wrapped angle goes from negative to positive by less than pi; each is
    bisected on its own, on the sign of the angle, until it is at most
    tol/4 wide, and its midpoint is the root.  t = 0 is always a root.
    """
    grid = [(i + 0.5) / (8 * level) for i in range(8 * level)]
    angles = [cmath.phase(holonomy(t)) for t in grid]
    roots = [0.0]
    for i in range(len(grid) - 1):
        fa, fb = angles[i], angles[i + 1]
        if fa < 0.0 < fb and (fb - fa) < math.pi:
            a, b = grid[i], grid[i + 1]
            while (b - a) > tol * 0.25:
                mid = 0.5 * (a + b)
                if cmath.phase(holonomy(mid)) < 0.0:
                    a = mid
                else:
                    b = mid
            roots.append(0.5 * (a + b))
    return roots


# --- level-k theta series, one lattice term at a time -----------------------

def theta_matrix_scalar(tau: complex, level: int, samples: int, y: float = 0.3) -> list[list[complex]]:
    """Level-k theta series at z = j/samples + y tau, one unit-norm row per c.

    Row c sums exp(i pi tau m^2/k + 2 pi i m z) over the m = c mod k, each
    term one ``cmath.exp``.  The real part of an exponent, a concave
    quadratic in m, peaks at m = -k y and falls by 40 at a distance
    w = sqrt(40 k / (pi Im tau)) from it; the sum runs over |m| <= |k y| +
    w + k, which reaches past w on both sides.  Before the exponential each
    row subtracts the largest real part of its exponents, and afterwards it
    is scaled to unit norm.
    """
    reach = math.ceil(abs(level * y) + math.sqrt(40 * level / (math.pi * tau.imag))) + level
    rows = []
    for c in range(level):
        ms = [m for m in range(-reach, reach + 1) if m % level == c]
        shift = max((1j * math.pi * tau * m * m / level + 2j * math.pi * m * (y * tau)).real for m in ms)
        row = []
        for j in range(samples):
            z = j / samples + y * tau
            row.append(sum(cmath.exp(1j * math.pi * tau * m * m / level + 2j * math.pi * m * z - shift) for m in ms))
        norm = math.sqrt(sum(abs(v) ** 2 for v in row))
        rows.append([v / norm for v in row])
    return rows


# --- reflection walk into the chamber, one class at a time -----------------

def walk_to_chamber_scalar(gram, roots, x, max_steps: int = 64):
    """Reflect x in its first root of negative pairing until there is none.

    Integer Gram matrix and integer classes; x -> x + (x.d) d for a root d
    of square -2.  Returns (end point, steps, applied root indices), or
    None when a negative pairing remains after ``max_steps`` reflections.
    """
    def pair(a, b):
        return sum(a[i] * gram[i][j] * b[j] for i in range(len(a)) for j in range(len(b)))

    x = tuple(x)
    applied = []
    while True:
        bad = next((i for i, d in enumerate(roots) if pair(x, d) < 0), None)
        if bad is None:
            return x, len(applied), tuple(applied)
        if len(applied) == max_steps:
            return None
        d = roots[bad]
        c = pair(x, d)
        x = tuple(xi + c * di for xi, di in zip(x, d))
        applied.append(bad)


# --- phase map, one tangent and one phase at a time -------------------------

def phase_map_scalar(curve, error) -> np.ndarray:
    """Squared unit tangent direction at every sample, one sample at a time.

    ``curve`` has the ``points`` (an (n, 2) array), ``orientation`` and
    ``is_closed`` of a sampled cycle; the samples are read back as Python
    floats, so every step below is plain float arithmetic.  Tangents are central differences (cyclic on a closed
    curve, one-sided 3-point stencils at the ends of an open one); each
    phase is the Python complex (tx + i ty)^2 / (tx^2 + ty^2).  A tangent
    of squared length below 1e-30 raises ``error``.
    """
    pts = curve.points.tolist()
    if curve.orientation == -1:
        pts = pts[::-1]
    closed = curve.is_closed
    if closed:
        core = pts[:-1]
        n = len(core)
        tangents = [
            (
                core[(i + 1) % n][0] - core[(i - 1) % n][0],
                core[(i + 1) % n][1] - core[(i - 1) % n][1],
            )
            for i in range(n)
        ]
    else:
        n = len(pts)
        tangents = [None] * n
        tangents[0] = (
            -3 * pts[0][0] + 4 * pts[1][0] - pts[2][0],
            -3 * pts[0][1] + 4 * pts[1][1] - pts[2][1],
        )
        tangents[-1] = (
            3 * pts[-1][0] - 4 * pts[-2][0] + pts[-3][0],
            3 * pts[-1][1] - 4 * pts[-2][1] + pts[-3][1],
        )
        for i in range(1, n - 1):
            tangents[i] = (
                pts[i + 1][0] - pts[i - 1][0],
                pts[i + 1][1] - pts[i - 1][1],
            )
    phases = []
    for tx, ty in tangents:
        norm_sq = tx * tx + ty * ty
        if norm_sq < 1e-30:
            raise error("degenerate tangent: repeated curve samples")
        z = complex(tx, ty)
        phases.append((z * z) / norm_sq)
    if closed:
        phases.append(phases[0])
    return np.asarray(phases, dtype=complex)
