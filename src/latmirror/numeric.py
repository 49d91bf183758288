"""Numerical verification layer on flat torus models (floats live here only).

The exact modules predict integers: k marked fibres at level k, rank-k
spaces of level-k theta series, locally constant phase maps on straight
cycles.  This module rebuilds those numbers from analysis on the flat
torus C / (Z + tau Z) with total area normalized to 1.  The marked-fibre
count, the theta rank and the phase maps are two-route checks.

Holonomy of the level-k connection around the fibre at height t is
exp(2 pi i * A(t)) where A(t) = k*t is the symplectic area swept by the
fibre family between heights 0 and t.  In the translation-invariant gauge
the level-k density is the constant k, so the area has this one closed
form and no second route; the holonomy is trivial exactly at the k
heights j/k.  Heights are checked where they enter: `holonomy_character`
takes one height, a Python float or int in [0, 1], and exponentiates it
with ``cmath`` (its holonomy is a built-in complex); the fibre search makes
its own heights inside (0, 1), checks none, and evaluates them with numpy
elementwise, to the same bits.  Marked (trivial-holonomy) fibres are found
for any number of models in one search: sign-change bracketing on the
concatenated fixed grids of every level, evaluated in one batched call,
then bisection of the brackets still wider than the stopping width, all
together, on the sign of the holonomy's imaginary part, which is the sign
of its argument at every midpoint, so every root is the one a
bracket-by-bracket bisection gives.
Theta series of level k are truncated q-expansions; their numerical rank
over a deterministic sample grid is decided by singular values.  The N
sample points are x = j/N, so each Fourier phase exp(2 pi i m x) is
looked up among the N-th roots of unity rather than computed; each row
is still shifted and scaled to unit norm.  A level-k series is
quasi-periodic, theta_c(z + 1/g) = exp(2 pi i c/g) theta_c(z) for every g
dividing k, so with g = gcd(k, N) the lattice is summed on the first N/g
samples only and the rest are those sums times roots of unity.  A sampled
cycle holds its samples as one read-only (n, 2) float array, converted
from the given rows in one flat pass.  Its phase map is the squared unit
tangent direction (the determinant map of the Lagrangian Grassmannian of
the flat plane): constant exactly on straight segments, winding twice
around a full circle.  It is computed over the whole sample array at
once, rounded as the per-sample complex formula is, bit for bit.

Tolerance hierarchy (loosening as conditioning worsens):

    QUADRATURE_TOL = 1e-11   holonomy at a marked fibre j/k vs 1
    ROOT_TOL       = 1e-9    marked-fibre positions
    RANK_RTOL      = 1e-8    relative singular-value cutoff

ROOT_TOL, MAX_ROOT_TOL (the widest tolerance the fibre search takes) and
ConsistencyError are defined in `shared`, where the command line and the
manifest read them without importing numpy.

Summation orders are fixed (no reductions over unordered collections), so
repeated runs give bit-identical floats.
"""

from __future__ import annotations

import cmath
import math
from itertools import chain
from typing import Sequence

import numpy as np

from .shared import MAX_ROOT_TOL, ROOT_TOL, ConsistencyError, ReadOnly

QUADRATURE_TOL = 1e-11
RANK_RTOL = 1e-8

# Positions must sit within ROOT_TOL of j/k; bisection stops at a bracket
# a quarter of that wide so the midpoint has margin to spare.
_BISECT_FACTOR = 0.25

# Every term a truncated theta series drops is smaller than this.
_THETA_TAIL = 1e-14

# The fibre search indexes its grid of 8 k points per level k in int64.
_INT64_MAX = 2**63 - 1


class TorusModel(ReadOnly):
    """Flat torus C/(Z + tau Z), unit total area, prequantum level k."""

    _fields = ("tau", "level")

    def __init__(self, tau: complex, level: int):
        if type(tau) is not complex:
            tau = complex(tau)
        if not (math.isfinite(tau.real) and math.isfinite(tau.imag)):
            raise ValueError(f"tau must be finite, got {tau}")
        if not tau.imag > 0:
            raise ValueError(f"tau must lie in the upper half plane, got {tau}")
        if not isinstance(level, int) or type(level) is bool or level < 1:
            # a numpy integer level is stored as an int; a bool is refused
            if not isinstance(level, np.integer) or level < 1:
                raise ValueError(f"level must be a positive integer, got {level}")
            level = int(level)
        self.__dict__.update(tau=tau, level=level)


def _check_heights(t: float) -> None:
    """Raise ``ValueError`` unless t is one Python float or int in [0, 1].

    A bool is not a height, nor is a numpy scalar or array.  NaN lies
    outside [0, 1].
    """
    if type(t) is not float and type(t) is not int:
        raise ValueError(f"fibre height must be a float or an int, got {type(t).__name__}")
    if not 0.0 <= t <= 1.0:
        raise ValueError(f"fibre height must lie in [0, 1], got {t}")


def _swept_area(level: int | np.ndarray, t: float | np.ndarray) -> float | np.ndarray:
    """Symplectic area k*t swept between heights 0 and t, elementwise.

    ``level`` is an int, or an int array of the shape of ``t``.  Nothing is
    checked here: the public entry point checks the height it is given
    with `_check_heights`, and the fibre search evaluates only heights in
    (0, 1) by construction.
    """
    return level * t


def _holonomy(level: int | np.ndarray, t: float | np.ndarray) -> complex | np.ndarray:
    """exp(2 pi i k t), with the level k and height t as in `_swept_area`.

    A Python float or int height gives a built-in complex from
    ``cmath.exp``; anything else goes through ``np.exp`` elementwise.  The
    two give the same bits at every height.  The heights are not checked.
    """
    if isinstance(t, (float, int)):
        return cmath.exp(2j * math.pi * _swept_area(level, t))
    return np.exp(2j * math.pi * _swept_area(level, t))


def holonomy_character(model: TorusModel, t: float) -> complex:
    """Holonomy exp(2 pi i k t) of the fibre at height t, a built-in complex.

    ``t`` is one height, a Python float or int; a height outside [0, 1],
    or of any other type, raises ``ValueError``.
    """
    _check_heights(t)
    return _holonomy(model.level, t)


def find_bs_fibres(model: TorusModel, tol: float = ROOT_TOL) -> list[float]:
    """Locate all fibre heights in [0, 1) with trivial holonomy.

    The one-level case of :func:`find_bs_fibres_batch`: exactly k positions
    must emerge at level k, the first of them t = 0; any other count raises,
    naming the level.
    """
    roots = find_bs_fibres_batch([model], tol)[0]
    if len(roots) != model.level:
        raise ConsistencyError(f"level {model.level} model produced {len(roots)} trivial-holonomy fibres")
    return roots


def find_bs_fibres_batch(models: Sequence[TorusModel], tol: float = ROOT_TOL) -> list[list[float]]:
    """The trivial-holonomy fibre heights of every model, in one search.

    t = 0 is a root by construction (zero swept area).  The rest are
    bracketed on the offset grid (i + 1/2)/(8k) of each model, which never
    lands on a root.  The grids of all models are concatenated, so one
    batched holonomy call gives the wrapped angle at every grid point; a
    bracket is a step within one model's grid from negative to positive
    angle by less than pi.  The brackets still wider than tol/4 are then
    bisected together on the sign of the angle, read as the sign of the
    holonomy's imaginary part: every midpoint lies in (0, 1), where that
    part is never -0.0, and off -0.0 atan2(y, x) < 0 exactly when y < 0.
    Each bracket leaves the live set in the round its width reaches tol/4,
    so a bracket stops exactly where a bisection of it alone would, and
    every root is the one a one-model search gives.  The roots of every
    model are returned, however many there are; a model of level k should
    have exactly k.  No height is range-checked here: the grid points and
    every midpoint lie in (0, 1) by construction, and only the public
    entry point `holonomy_character` runs `_check_heights`.  Levels whose
    grids together pass 2^63 - 1 points raise ``ValueError``, naming the
    largest level, before numpy sees them.
    """
    if not 0.0 < tol <= MAX_ROOT_TOL:
        raise ValueError(f"tolerance must lie in (0, {MAX_ROOT_TOL}], got {tol}")
    levels = [m.level for m in models]
    # checked once, on Python ints: numpy would refuse or wrap a larger grid
    if 8 * sum(levels) > _INT64_MAX:
        raise ValueError(
            f"level {max(levels)} is too large for the fibre search: "
            f"its grid of {8 * sum(levels)} points does not fit in int64"
        )
    levels = np.array(levels, dtype=np.int64)
    sizes = 8 * levels
    owner = np.repeat(np.arange(len(levels)), sizes)  # the model of each grid point
    offsets = np.arange(len(owner)) - np.repeat(np.cumsum(sizes) - sizes, sizes)
    grid = (offsets + 0.5) / sizes[owner]
    angles = np.angle(_holonomy(levels[owner], grid))
    fa, fb = angles[:-1], angles[1:]
    bracket = (owner[:-1] == owner[1:]) & (fa < 0.0) & (0.0 < fb) & ((fb - fa) < math.pi)
    a, b = grid[:-1][bracket], grid[1:][bracket]
    bracket_owner = owner[:-1][bracket]
    level = levels[bracket_owner]
    live = np.arange(len(a))  # the bracket that each entry of a, b and level stands for
    centres = np.empty(len(a))
    while n_wide := np.count_nonzero(wide := (b - a) > tol * _BISECT_FACTOR):
        if n_wide < len(a):  # retire the brackets that reached the stopping width
            done = ~wide
            centres[live[done]] = 0.5 * (a[done] + b[done])
            live, a, b, level = live[wide], a[wide], b[wide], level[wide]
        mid = 0.5 * (a + b)
        below = _holonomy(level, mid).imag < 0.0
        np.copyto(a, mid, where=below)
        np.copyto(b, mid, where=~below)
    centres[live] = 0.5 * (a + b)
    mids = centres.tolist()  # grouped by model, in grid order
    found = []
    for n in np.bincount(bracket_owner, minlength=len(levels)).tolist():
        found.append([0.0] + mids[:n])
        del mids[:n]
    return found


def _sample_array(samples) -> np.ndarray:
    """The samples as a new (n, 2) float64 array, each entry read as numpy reads it.

    The samples and each of their rows must be lists, tuples or arrays (a
    string row is one number to ``np.array(samples, dtype=float)``, not two
    characters), and every row must hold two entries.  The entries are then
    converted in one flat pass, which skips numpy's discovery of the nested
    shape.
    """
    numbers = "curve samples must form an (n, 2) array of numbers"
    try:
        if not all(issubclass(t, (list, tuple, np.ndarray)) for t in {type(samples), *map(type, samples)}):
            raise ValueError(numbers)
        widths = set(map(len, samples))
    except TypeError:
        raise ValueError(numbers) from None
    if widths - {2}:
        raise ValueError(f"curve samples must form an (n, 2) array, got rows of length {sorted(widths)}")
    try:
        flat = np.fromiter(chain.from_iterable(samples), float, count=2 * len(samples))
    except (TypeError, ValueError, OverflowError):
        raise ValueError(numbers) from None
    return flat.reshape(-1, 2)


class ParamCurve(ReadOnly):
    """Sampled cycle on the torus cover; >= 16 samples, orientation +-1.

    ``points`` is one read-only float64 array of shape (n, 2), copied from
    the samples given.  Closure (first = last within 1e-12) is detected,
    not required: straight rational-slope segments are legitimate probes
    and cannot close up in cover coordinates.  Bad input raises
    ``ValueError`` whose message starts with "curve samples must form an
    (n, 2) array", "curve samples must be finite numbers", "need at least
    16 samples" or "orientation must be".  Two curves are equal only if
    they are one object.
    """

    _fields = ("points", "orientation")
    __eq__ = object.__eq__
    __hash__ = object.__hash__

    def __init__(self, points: np.ndarray, orientation: int = 1):
        pts = _sample_array(points)
        if not np.isfinite(pts).all():  # NaN also stands in for None
            raise ValueError("curve samples must be finite numbers")
        if len(pts) < 16:
            raise ValueError(f"need at least 16 samples, got {len(pts)}")
        if orientation not in (1, -1):
            raise ValueError("orientation must be +1 or -1")
        pts.setflags(write=False)
        self.__dict__.update(points=pts, orientation=orientation)

    @property
    def is_closed(self) -> bool:
        return math.hypot(*(self.points[-1] - self.points[0])) < 1e-12


def segment_curve(start, direction, span: float = 1.0, n: int = 64) -> ParamCurve:
    """Straight segment from start along direction, n samples."""
    x0, y0 = start
    dx, dy = direction
    pts = [
        (x0 + dx * span * i / (n - 1), y0 + dy * span * i / (n - 1))
        for i in range(n)
    ]
    return ParamCurve(pts)


def arc_curve(center, radius: float, turns: float = 1.0, n: int = 128) -> ParamCurve:
    """Circular arc; turns = 1.0 is a full circle (closed sample list)."""
    cx, cy = center
    pts = [
        (
            cx + radius * math.cos(2.0 * math.pi * turns * i / (n - 1)),
            cy + radius * math.sin(2.0 * math.pi * turns * i / (n - 1)),
        )
        for i in range(n)
    ]
    return ParamCurve(pts)


def _end_tangents(pts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Tangents at the first and last sample of an open curve.

    One-sided 3-point stencils keep the endpoint direction second order,
    else the winding of an open arc is biased by one sample.
    """
    return -3 * pts[0] + 4 * pts[1] - pts[2], 3 * pts[-1] - 4 * pts[-2] + pts[-3]


def phase_map_curve(model: TorusModel, curve: ParamCurve) -> np.ndarray:
    """Squared unit tangent direction at every sample of the curve.

    This is the determinant map of the Lagrangian Grassmannian of the flat
    plane: invariant under reversal of the tangent, constant exactly on
    straight segments, winding twice per full turn of the tangent.
    Degenerate (repeated-sample) tangents raise.

    The tangents are central differences over the whole sample array (the
    samples are cyclic on a closed curve, whose last phase repeats its
    first).  Each phase is (tx + i ty)^2 / |t|^2, rounded as Python
    divides a complex number by a float, so that a zero imaginary part
    keeps the sign, and the angle the branch, of the scalar formula.
    """
    pts = curve.points[:: curve.orientation]
    closed = curve.is_closed
    if closed:
        core = pts[:-1]
        tangents = np.roll(core, -1, axis=0) - np.roll(core, 1, axis=0)
        tangents = np.concatenate([tangents, tangents[:1]])
    else:
        tangents = np.empty_like(pts)
        tangents[1:-1] = pts[2:] - pts[:-2]
        tangents[0], tangents[-1] = _end_tangents(pts)
    tx, ty = tangents.T
    norm_sq = tx * tx + ty * ty
    if (norm_sq < 1e-30).any():
        raise ConsistencyError("degenerate tangent: repeated curve samples")
    zr, zi = tx * tx - ty * ty, tx * ty + ty * tx
    phases = np.empty(len(tangents), dtype=complex)
    phases.real = (zr + zi * 0.0) / norm_sq
    phases.imag = (zi - zr * 0.0) / norm_sq
    return phases


def winding_number(phases: Sequence[complex]) -> float:
    """Total angle swept by a phase sequence, in full turns."""
    angles = np.unwrap(np.angle(np.asarray(phases, dtype=complex)))
    return float((angles[-1] - angles[0]) / (2.0 * math.pi))


def _theta_truncation(level: int, im_tau: float) -> int:
    """Smallest safe index bound N for level-k theta truncation.

    Terms are q^(m^2/(2k)) e^(2 pi i m z) with z = x + y*tau, 0 <= y < 1,
    so |term| = exp(-(pi*im_tau/k) * (m^2 + 2*k*y*m)) and for |m| >= N
    every term is bounded by exp(-(pi*im_tau/k) * N * (N - 2k)).  Choose
    N = 2k + ceil(sqrt(k * ln(1/tail) / (pi * im_tau))) + 1 with tail =
    ``_THETA_TAIL``, which makes that bound smaller than the tail.
    """
    slack = math.sqrt(level * math.log(1.0 / _THETA_TAIL) / (math.pi * im_tau))
    return 2 * level + math.ceil(slack) + 1


def theta_matrix(model: TorusModel, samples: int) -> np.ndarray:
    """Level-k theta series sampled on a horizontal line, one unit row each.

    Row c is the lattice sum over m = c mod k of exp(i pi tau m^2/k +
    2 pi i m z), on the modes m = c + k q with |q| <= ceil(n/k), where n
    is ``_theta_truncation``: a (k x J) grid of modes that reaches past
    +-n in every row.  The exponents of one row span a range that grows
    like k Im(tau), so the row's largest real part is subtracted before
    ``np.exp`` (no overflow) and the row is scaled to unit norm (no row
    swamps the others).  Both are per-row scalings, which leave the rank
    unchanged.  Every sample z = x + y tau has the same imaginary part, so
    the real part of an exponent depends on m alone and the exponential
    splits into a weight per m times the phase exp(2 pi i m x).  The
    samples are x = j/N for N = ``samples``, so that phase is the N-th root
    of unity number (m j mod N): the N roots are computed once and looked
    up.

    Row c is quasi-periodic: every m = c mod k is c mod g for each g
    dividing k, so theta_c(z + 1/g) = exp(2 pi i c/g) theta_c(z).  With
    g = gcd(k, N) and P = N/g, the lattice is summed only at the first P
    samples, and sample j = qP + r is that sum at r times zeta^(c q), where
    zeta = exp(2 pi i/g) is root number P.  When g = 1 every sample is summed.

    The weights hold about 2n entries and their phases about 2n P.  The
    k x N result is the largest array and is allocated first, so a level
    too large for memory (about 10^5 at N = 4k) raises ``MemoryError``
    before anything is computed.
    """
    k = model.level
    tau = model.tau
    g = math.gcd(k, samples)
    period = samples // g
    rows = np.empty((k, g, period), dtype=complex)
    reach = -(-_theta_truncation(k, tau.imag) // k)
    y = 0.3  # generic horizontal line in the fundamental domain
    ms = np.arange(k)[:, None] + k * np.arange(-reach, reach + 1)
    exponent = 1j * math.pi * tau * ms * ms / k + 2j * math.pi * ms * (y * tau)
    weights = np.exp(exponent - exponent.real.max(axis=1, keepdims=True))
    js = np.arange(samples)
    roots = np.exp(2j * math.pi * js / samples)
    first = (weights[:, None, :] @ roots[(ms[:, :, None] * js[:period]) % samples])[:, 0]
    turns = roots[np.multiply.outer(np.arange(k), js[::period]) % samples]
    rows = np.multiply(turns[:, :, None], first[:, None, :], out=rows).reshape(k, samples)
    return rows / np.linalg.norm(rows, axis=1, keepdims=True)


def theta_basis_rank(model: TorusModel) -> int:
    """Numerical rank of the k level-k theta series on 4k sample points.

    Characteristic c in {0, ..., k-1} contributes the lattice sum over
    m = c mod k; distinct characteristics use disjoint Fourier modes, so
    the exact rank is k.  The numerical rank (singular values above
    RANK_RTOL relative to the largest) must reproduce it; a deficient
    matrix raises.
    """
    k = model.level
    sigma = np.linalg.svd(theta_matrix(model, 4 * k), compute_uv=False)
    rank = int(np.sum(sigma > RANK_RTOL * sigma[0]))
    if rank < k:
        raise ConsistencyError(f"theta matrix rank {rank} < level {k}")
    return rank
