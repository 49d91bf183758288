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
heights j/k.  Heights may be floats or arrays, and levels ints or int
arrays, evaluated elementwise.  Marked (trivial-holonomy) fibres are found
for any number of models in one search: sign-change bracketing on the
concatenated fixed grids of every level, evaluated in one batched call,
then bisection of all brackets together on the sign of the holonomy
argument, each until its own width reaches the stopping width, so every
root is the one a bracket-by-bracket bisection gives.  Theta series of
level k are truncated q-expansions; their numerical rank over a
deterministic sample grid is decided by singular values.  A sampled cycle
holds its samples as one read-only (n, 2) float array.  Its phase map is
the squared unit tangent direction (the determinant map of the Lagrangian
Grassmannian of the flat plane): constant exactly on straight segments,
winding twice around a full circle.  It is computed over the whole sample
array at once, rounded as the per-sample complex formula is, bit for bit.

Tolerance hierarchy (loosening as conditioning worsens):

    QUADRATURE_TOL = 1e-11   holonomy at a marked fibre j/k vs 1
    ROOT_TOL       = 1e-9    marked-fibre positions
    RANK_RTOL      = 1e-8    relative singular-value cutoff

ROOT_TOL and ConsistencyError are defined in `shared`, where the command
line reads them without importing numpy.

Summation orders are fixed (no reductions over unordered collections), so
repeated runs give bit-identical floats.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .shared import ROOT_TOL, ConsistencyError

QUADRATURE_TOL = 1e-11
RANK_RTOL = 1e-8

# Positions must sit within ROOT_TOL of j/k; bisection stops at a bracket
# a quarter of that wide so the midpoint has margin to spare.
_BISECT_FACTOR = 0.25


@dataclass(frozen=True)
class TorusModel:
    """Flat torus C/(Z + tau Z), unit total area, prequantum level k."""

    tau: complex
    level: int

    def __post_init__(self):
        tau = complex(self.tau)
        object.__setattr__(self, "tau", tau)
        if not (math.isfinite(tau.real) and math.isfinite(tau.imag)):
            raise ValueError(f"tau must be finite, got {tau}")
        if not tau.imag > 0:
            raise ValueError(f"tau must lie in the upper half plane, got {tau}")
        if not isinstance(self.level, int) or self.level < 1:
            raise ValueError(f"level must be a positive integer, got {self.level}")


def _swept_area(level: int | np.ndarray, t: float | np.ndarray) -> float | np.ndarray:
    """Symplectic area k*t swept between heights 0 and t, elementwise.

    ``level`` is an int, or an int array of the shape of ``t``; ``t`` is a
    float or an array.
    """
    outside = np.logical_not((t >= 0.0) & (t <= 1.0))  # NaN is outside
    if np.count_nonzero(outside):
        bad = t if np.ndim(t) == 0 else t[outside][0]
        raise ValueError(f"fibre height must lie in [0, 1], got {bad}")
    return level * t


def _holonomy(level: int | np.ndarray, t: float | np.ndarray) -> complex | np.ndarray:
    """exp(2 pi i k t) elementwise, with the level k as in `_swept_area`."""
    return np.exp(2j * math.pi * _swept_area(level, t))


def holonomy_character(model: TorusModel, t: float | np.ndarray) -> complex | np.ndarray:
    """Holonomy exp(2 pi i k t) of the fibre at height t, elementwise on arrays."""
    return _holonomy(model.level, t)


def special_coordinates(model: TorusModel, t: float) -> float:
    """Flat coordinate exp(-2 pi * sweptarea(t)); strictly decreasing in t."""
    return math.exp(-2.0 * math.pi * _swept_area(model.level, t))


def find_bs_fibres(model: TorusModel, tol: float = ROOT_TOL) -> list[float]:
    """Locate all fibre heights in [0, 1) with trivial holonomy.

    The one-level case of :func:`find_bs_fibres_batch`: exactly k positions
    must emerge at level k, the first of them t = 0; any other count raises.
    """
    return find_bs_fibres_batch([model], tol)[0]


def find_bs_fibres_batch(models: Sequence[TorusModel], tol: float = ROOT_TOL) -> list[list[float]]:
    """The trivial-holonomy fibre heights of every model, in one search.

    t = 0 is a root by construction (zero swept area).  The rest are
    bracketed on the offset grid (i + 1/2)/(8k) of each model, which never
    lands on a root.  The grids of all models are concatenated, so one
    batched holonomy call gives the wrapped angle at every grid point; a
    bracket is a step within one model's grid from negative to positive
    angle by less than pi.  All brackets are then bisected together on the
    sign of the angle; each halves until its own width is at most tol/4,
    so a bracket stops exactly where a bisection of it alone would, and
    every root is the one a one-model search gives.  Exactly k positions
    must emerge for a model of level k; any other count raises, naming the
    level.
    """
    if not 0.0 < tol <= 1e-6:
        raise ValueError(f"tolerance must lie in (0, 1e-6], got {tol}")
    levels = np.array([m.level for m in models], dtype=np.int64)
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
    while (wide := (b - a) > tol * _BISECT_FACTOR).any():
        aw, bw = a[wide], b[wide]
        mid = 0.5 * (aw + bw)
        below = np.angle(_holonomy(level[wide], mid)) < 0.0
        a[wide] = np.where(below, mid, aw)
        b[wide] = np.where(below, bw, mid)
    mids = (0.5 * (a + b)).tolist()  # grouped by model, in grid order
    found = []
    for k, n in zip(levels.tolist(), np.bincount(bracket_owner, minlength=len(levels)).tolist()):
        roots = [0.0] + mids[:n]
        del mids[:n]
        if len(roots) != k:
            raise ConsistencyError(f"level {k} model produced {len(roots)} trivial-holonomy fibres")
        found.append(roots)
    return found


@dataclass(frozen=True, eq=False)
class ParamCurve:
    """Sampled cycle on the torus cover; >= 16 samples, orientation +-1.

    ``points`` is one read-only float64 array of shape (n, 2), copied from
    the samples given.  Closure (first = last within 1e-12) is detected,
    not required: straight rational-slope segments are legitimate probes
    and cannot close up in cover coordinates.
    """

    points: np.ndarray
    orientation: int = 1

    def __post_init__(self):
        try:
            pts = np.array(self.points, dtype=float)
        except (TypeError, ValueError, OverflowError):
            raise ValueError("curve samples must form an (n, 2) array of numbers") from None
        if pts.ndim != 2 or pts.shape[1] != 2:
            raise ValueError(f"curve samples must form an (n, 2) array, got shape {pts.shape}")
        if not np.isfinite(pts).all():  # NaN also stands in for None
            raise ValueError("curve samples must be finite numbers")
        if len(pts) < 16:
            raise ValueError(f"need at least 16 samples, got {len(pts)}")
        if self.orientation not in (1, -1):
            raise ValueError("orientation must be +1 or -1")
        pts.setflags(write=False)
        object.__setattr__(self, "points", pts)

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


def _theta_truncation(level: int, im_tau: float, tail: float = 1e-14) -> int:
    """Smallest safe index bound N for level-k theta truncation.

    Terms are q^(m^2/(2k)) e^(2 pi i m z) with z = x + y*tau, 0 <= y < 1,
    so |term| = exp(-(pi*im_tau/k) * (m^2 + 2*k*y*m)) and for |m| >= N
    every term is bounded by exp(-(pi*im_tau/k) * N * (N - 2k)).  Choose
    N = 2k + ceil(sqrt(k * ln(1/tail) / (pi * im_tau))) + 1, which makes
    that bound smaller than ``tail``.
    """
    slack = math.sqrt(level * math.log(1.0 / tail) / (math.pi * im_tau))
    return 2 * level + math.ceil(slack) + 1


def theta_matrix(model: TorusModel, samples: int) -> np.ndarray:
    """Level-k theta series sampled on a horizontal line, one unit row each.

    Row c is the lattice sum over m = c mod k of exp(i pi tau m^2/k +
    2 pi i m z).  The exponents of one row span a range that grows like
    k Im(tau), so the row's largest real part is subtracted before
    ``np.exp`` (no overflow) and the row is scaled to unit norm (no row
    swamps the others).  Both are per-row scalings, which leave the rank
    unchanged.  Every sample z = x + y tau has the same imaginary part, so
    the real part of an exponent depends on m alone and the exponential
    splits into a weight per m times the phase exp(2 pi i m x).
    """
    k = model.level
    tau = model.tau
    n_max = _theta_truncation(k, tau.imag)
    xs = np.arange(samples, dtype=float) / samples
    y = 0.3  # generic horizontal line in the fundamental domain
    ms = np.arange(-n_max, n_max + 1)
    chars = ms % k
    exponent = 1j * math.pi * tau * ms * ms / k + 2j * math.pi * ms * (y * tau)
    shift = np.full(k, -np.inf)
    np.maximum.at(shift, chars, exponent.real)
    weights = np.zeros((k, ms.size), dtype=complex)
    weights[chars, np.arange(ms.size)] = np.exp(exponent - shift[chars])
    rows = weights @ np.exp(2j * math.pi * np.outer(ms, xs))
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
