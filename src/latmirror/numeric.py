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
heights j/k.  Heights may be floats or arrays and are evaluated
elementwise.  Marked (trivial-holonomy) fibres are found by sign-change
bracketing on a fixed grid, evaluated in one batched call, then by
bisecting all brackets together on the sign of the holonomy argument,
each until its own width reaches the stopping width, so every root is the
one a bracket-by-bracket bisection gives.  Theta series of level k are
truncated q-expansions; their numerical rank over a deterministic sample
grid is decided by singular values.  The phase map of a sampled cycle is
the squared unit tangent direction (the determinant map of the Lagrangian
Grassmannian of the flat plane): constant exactly on straight segments,
winding twice around a full circle.

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


def _swept_area(model: TorusModel, t: float | np.ndarray) -> float | np.ndarray:
    """Symplectic area k*t swept between heights 0 and t (a float or an array)."""
    outside = np.logical_not((t >= 0.0) & (t <= 1.0))  # NaN is outside
    if np.count_nonzero(outside):
        bad = t if np.ndim(t) == 0 else t[outside][0]
        raise ValueError(f"fibre height must lie in [0, 1], got {bad}")
    return model.level * t


def holonomy_character(model: TorusModel, t: float | np.ndarray) -> complex | np.ndarray:
    """Holonomy exp(2 pi i k t) of the fibre at height t, elementwise on arrays."""
    return np.exp(2j * math.pi * _swept_area(model, t))


def special_coordinates(model: TorusModel, t: float) -> float:
    """Flat coordinate exp(-2 pi * sweptarea(t)); strictly decreasing in t."""
    return math.exp(-2.0 * math.pi * _swept_area(model, t))


def find_bs_fibres(model: TorusModel, tol: float = ROOT_TOL) -> list[float]:
    """Locate all fibre heights in [0, 1) with trivial holonomy.

    t = 0 is a root by construction (zero swept area).  The rest are
    bracketed on the offset grid (i + 1/2)/(8k), which never lands on a
    root: one batched holonomy call gives the wrapped angle at every grid
    point, and a bracket is a step from negative to positive angle by less
    than pi.  All brackets are then bisected together on the sign of the
    angle; each halves until its own width is at most tol/4, so a bracket
    stops exactly where a bisection of it alone would.  Exactly k
    positions must emerge at level k; any other count raises.
    """
    if not 0.0 < tol <= 1e-6:
        raise ValueError(f"tolerance must lie in (0, 1e-6], got {tol}")
    k = model.level
    grid = (np.arange(8 * k) + 0.5) / (8 * k)
    angles = np.angle(holonomy_character(model, grid))
    fa, fb = angles[:-1], angles[1:]
    bracket = (fa < 0.0) & (0.0 < fb) & ((fb - fa) < math.pi)
    a, b = grid[:-1][bracket], grid[1:][bracket]
    while (wide := (b - a) > tol * _BISECT_FACTOR).any():
        mid = 0.5 * (a[wide] + b[wide])
        below = np.angle(holonomy_character(model, mid)) < 0.0
        a[wide] = np.where(below, mid, a[wide])
        b[wide] = np.where(below, b[wide], mid)
    roots = [0.0] + (0.5 * (a + b)).tolist()
    if len(roots) != k:
        raise ConsistencyError(
            f"level {k} model produced {len(roots)} trivial-holonomy fibres",
            payload={"roots": roots},
        )
    return roots


@dataclass(frozen=True)
class ParamCurve:
    """Sampled cycle on the torus cover; >= 16 samples, orientation +-1.

    Closure (first = last within 1e-12) is detected, not required: straight
    rational-slope segments are legitimate probes and cannot close up in
    cover coordinates.
    """

    points: tuple
    orientation: int = 1

    def __post_init__(self):
        pts = tuple((float(x), float(y)) for x, y in self.points)
        if len(pts) < 16:
            raise ValueError(f"need at least 16 samples, got {len(pts)}")
        if self.orientation not in (1, -1):
            raise ValueError("orientation must be +1 or -1")
        object.__setattr__(self, "points", pts)

    @property
    def is_closed(self) -> bool:
        (x0, y0), (x1, y1) = self.points[0], self.points[-1]
        return math.hypot(x1 - x0, y1 - y0) < 1e-12


def segment_curve(start, direction, span: float = 1.0, n: int = 64) -> ParamCurve:
    """Straight segment from start along direction, n samples."""
    x0, y0 = start
    dx, dy = direction
    pts = [
        (x0 + dx * span * i / (n - 1), y0 + dy * span * i / (n - 1))
        for i in range(n)
    ]
    return ParamCurve(tuple(pts))


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
    return ParamCurve(tuple(pts))


def phase_map_curve(model: TorusModel, curve: ParamCurve) -> np.ndarray:
    """Squared unit tangent direction at every sample of the curve.

    This is the determinant map of the Lagrangian Grassmannian of the flat
    plane: invariant under reversal of the tangent, constant exactly on
    straight segments, winding twice per full turn of the tangent.
    Degenerate (repeated-sample) tangents raise.
    """
    pts = list(curve.points)
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
        # one-sided 3-point stencils keep the endpoint direction second
        # order, else the winding of an open arc is biased by one sample
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
            raise ConsistencyError("degenerate tangent: repeated curve samples")
        z = complex(tx, ty)
        phases.append((z * z) / norm_sq)
    if closed:
        phases.append(phases[0])
    return np.asarray(phases, dtype=complex)


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


def theta_basis_rank(model: TorusModel, samples: int | None = None) -> int:
    """Numerical rank of the k level-k theta series on a sample grid.

    Characteristic c in {0, ..., k-1} contributes the lattice sum over
    m = c mod k; distinct characteristics use disjoint Fourier modes, so
    the exact rank is k.  The numerical rank (singular values above
    RANK_RTOL relative to the largest) must reproduce it; a deficient
    matrix raises with the singular values attached.
    """
    k = model.level
    if samples is None:
        samples = 4 * k
    if samples < 4 * k:
        raise ValueError(f"need at least {4 * k} samples for level {k}")
    matrix = theta_matrix(model, samples)
    sigma = np.linalg.svd(matrix, compute_uv=False)
    rank = int(np.sum(sigma > RANK_RTOL * sigma[0]))
    if rank < k:
        raise ConsistencyError(
            f"theta matrix rank {rank} < level {k}",
            payload={"singular_values": sigma.tolist()},
        )
    return rank
