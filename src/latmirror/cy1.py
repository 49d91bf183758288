"""Rank/degree lattice of an elliptic curve and its torus-fibration mirror.

A bundle class is a pair (rank, degree); its support slope is the reduced
fraction degree/rank, with (0, 1) standing for the infinite slope of the
fibre direction.  On the mirror side a cycle class a*[s0] + b*[e'] records
multisection and fibre coefficients of a closed geodesic on the flat torus;
two such cycles meet in |d1*r2 - d2*r1| points and pair skewly with
[s0].[e'] = 1.  The fibrewise tensor product of multisections is

    (r1, d1) (.) (r2, d2) = (r1*r2, r1*d2 + r2*d1),

defined only for honest multisections (positive [s0] coefficient).  The
indecomposable flat-unipotent bundles F_r on the curve multiply like
irreducible sl2 representations of dimension r:

    F_a (x) F_b = sum_{j=0}^{min(a,b)-1} F_{a+b-1-2j},

with F_1 the unit.  Level-k quantization marks the k rational fibre
positions j/k, matching the k-dimensional space of level-k theta series.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd
from typing import NamedTuple

from .core import GradedVector, LatticeError, _as_int


@dataclass(frozen=True)
class Slope:
    """Reduced support slope: gcd(r, d) = 1, r >= 0, infinity = (0, 1)."""

    r: int
    d: int

    def __post_init__(self):
        if self.r < 0:
            raise LatticeError("slope stored with r < 0; use reduce_slope")
        if self.r == 0 and self.d != 1:
            raise LatticeError("infinite slope is normalized to (0, 1)")
        if gcd(abs(self.r), abs(self.d)) != 1:
            raise LatticeError(f"slope ({self.r}, {self.d}) is not reduced")

    @property
    def is_infinite(self) -> bool:
        return self.r == 0

    def __str__(self) -> str:
        if self.is_infinite:
            return "inf"
        return str(self.d) if self.r == 1 else f"{self.d}/{self.r}"


@dataclass(frozen=True)
class BundleClass1:
    """Topological type (rank, degree) of a bundle on the curve."""

    rank: int
    deg: int

    def __post_init__(self):
        if type(self.rank) is not int or type(self.deg) is not int:
            object.__setattr__(self, "rank", _as_int(self.rank))
            object.__setattr__(self, "deg", _as_int(self.deg))
        if self.rank < 0:
            raise LatticeError("rank must be nonnegative")


class CycleClass1(NamedTuple):
    """Integer cycle class a*[s0] + b*[e'] on the mirror torus."""

    s0: int
    e: int


def reduce_slope(r: int, d: int) -> Slope:
    """Reduce (r, d) to the canonical slope representative."""
    if r == 0 and d == 0:
        raise LatticeError("zero class has no slope")
    g = gcd(abs(r), abs(d))
    r, d = r // g, d // g
    if r < 0 or (r == 0 and d < 0):
        r, d = -r, -d
    return Slope(r, d)


def _coordinates(c: CycleClass1) -> tuple[int, int]:
    """(s0, e) of a cycle class as ints: the record checks nothing, so this does."""
    s0, e = c
    if type(s0) is not int or type(e) is not int:
        s0, e = _as_int(s0), _as_int(e)
    return s0, e


def intersection_count(a: CycleClass1, b: CycleClass1) -> int:
    """Geometric intersection number |d1*r2 - d2*r1| of two cycle classes."""
    (r1, d1), (r2, d2) = _coordinates(a), _coordinates(b)
    if (r1, d1) == (0, 0) or (r2, d2) == (0, 0):
        raise LatticeError("intersection count needs nonzero classes")
    return abs(d1 * r2 - d2 * r1)


def cycle_pairing(a: CycleClass1, b: CycleClass1) -> int:
    """Skew pairing with [s0].[e'] = 1: a.s0*b.e - a.e*b.s0."""
    (r1, d1), (r2, d2) = _coordinates(a), _coordinates(b)
    return r1 * d2 - d1 * r2


def gft_class(E: BundleClass1) -> CycleClass1:
    """Cycle class of the fibrewise Fourier transform: rank*[s0] + deg*[e']."""
    if E.rank == 0 and E.deg == 0:
        raise LatticeError("zero class has no transform")
    return CycleClass1(E.rank, E.deg)


def odot(a: CycleClass1, b: CycleClass1) -> CycleClass1:
    """Fibrewise product of multisection classes.

    Requires honest multisections (s0 coefficient >= 1); fibre components
    have no well-defined fibrewise product.
    """
    (r1, d1), (r2, d2) = _coordinates(a), _coordinates(b)
    if r1 < 1 or r2 < 1:
        raise LatticeError("fibrewise product needs s0 coefficients >= 1")
    return CycleClass1(r1 * r2, r1 * d2 + r2 * d1)


def decompose_primitive(c: CycleClass1) -> tuple[Slope, int]:
    """Write a nonzero cycle class as (primitive slope, multiplicity)."""
    r, d = _coordinates(c)
    if (r, d) == (0, 0):
        raise LatticeError("zero class has no primitive decomposition")
    return reduce_slope(r, d), gcd(abs(r), abs(d))


@dataclass(frozen=True)
class AtiyahElement:
    """Formal integer combination of the indecomposables F_r (r >= 1).

    The constructor checks and sorts the terms.  A product adds the
    Clebsch-Gordan indices of every pair of terms into one dict and builds
    one element from it.
    """

    terms: tuple  # sorted ((index, multiplicity), ...), zeros dropped

    def __post_init__(self):
        clean = []
        for idx, mult in self.terms:
            if type(idx) is not int or type(mult) is not int:
                idx, mult = _as_int(idx), _as_int(mult)
            if idx < 1:
                raise LatticeError("indecomposable index must be >= 1")
            if mult != 0:
                clean.append((idx, mult))
        clean.sort()
        object.__setattr__(self, "terms", tuple(clean))

    @classmethod
    def basis(cls, r: int) -> "AtiyahElement":
        return cls(((r, 1),))

    @classmethod
    def from_dict(cls, d: dict) -> "AtiyahElement":
        return cls(tuple(d.items()))

    def as_dict(self) -> dict:
        return dict(self.terms)

    def dimension(self) -> int:
        # rank of the underlying bundle: rank F_r = r
        return sum(idx * mult for idx, mult in self.terms)

    def __add__(self, other: "AtiyahElement") -> "AtiyahElement":
        out = self.as_dict()
        for idx, mult in other.terms:
            out[idx] = out.get(idx, 0) + mult
        return AtiyahElement.from_dict(out)

    def __mul__(self, other: "AtiyahElement") -> "AtiyahElement":
        out: dict = {}
        for ia, ma in self.terms:
            for ib, mb in other.terms:
                mult = ma * mb
                for idx in _clebsch_gordan(ia, ib):
                    out[idx] = out.get(idx, 0) + mult
        return AtiyahElement.from_dict(out)


def _clebsch_gordan(a: int, b: int) -> range:
    """The indices a + b - 1 - 2j, j = 0..min(a, b) - 1, of F_a (x) F_b."""
    return range(a + b - 1, abs(a - b), -2)


def atiyah_tensor(a: int, b: int) -> AtiyahElement:
    """Decompose F_a (x) F_b, Clebsch-Gordan style.

    F_a (x) F_b = sum_{j=0}^{min(a,b)-1} F_{a+b-1-2j}; ranks add up to a*b.
    """
    if a < 1 or b < 1:
        raise LatticeError("indecomposable indices must be >= 1")
    return AtiyahElement(tuple((idx, 1) for idx in _clebsch_gordan(a, b)))


def mirror_cy1(u: GradedVector) -> CycleClass1:
    """Mirror map on H^0 + H^2: u0*[C] + u1*[pt] goes to u0*[s0] + u1*[e']."""
    if u.dim != 1:
        raise LatticeError("mirror_cy1 needs a dim-1 graded vector")
    if u.den != 1:
        raise LatticeError("mirror_cy1 needs integer coefficients")
    return CycleClass1(*u.nums)


def bs_points(k: int) -> list[Fraction]:
    """Level-k quantization marks the fibre positions j/k, j = 0..k-1."""
    if k < 1:
        raise LatticeError("level must be a positive integer")
    return [Fraction(j, k) for j in range(k)]
