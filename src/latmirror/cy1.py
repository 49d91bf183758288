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

from fractions import Fraction
from math import gcd
from operator import itemgetter
from typing import NamedTuple

from .core import GradedVector, LatticeError, _as_int
from .shared import ReadOnly


class Slope(ReadOnly):
    """Reduced support slope: gcd(r, d) = 1, r >= 0, infinity = (0, 1)."""

    _fields = ("r", "d")

    def __init__(self, r: int, d: int):
        if type(r) is not int or type(d) is not int:
            r, d = _as_int(r), _as_int(d)
        if r < 0:
            raise LatticeError("slope stored with r < 0; use reduce_slope")
        if r == 0 and d != 1:
            raise LatticeError("infinite slope is normalized to (0, 1)")
        if gcd(abs(r), abs(d)) != 1:
            raise LatticeError(f"slope ({r}, {d}) is not reduced")
        self.__dict__.update(r=r, d=d)

    @property
    def is_infinite(self) -> bool:
        return self.r == 0

    def __str__(self) -> str:
        if self.is_infinite:
            return "inf"
        return str(self.d) if self.r == 1 else f"{self.d}/{self.r}"


class BundleClass1(ReadOnly):
    """Topological type (rank, degree) of a bundle on the curve."""

    _fields = ("rank", "deg")

    def __init__(self, rank: int, deg: int):
        if type(rank) is not int or type(deg) is not int:
            rank, deg = _as_int(rank), _as_int(deg)
        if rank < 0:
            raise LatticeError("rank must be nonnegative")
        self.__dict__.update(rank=rank, deg=deg)


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
    """Geometric intersection number |d1*r2 - d2*r1|: the size of :func:`cycle_pairing`."""
    n = cycle_pairing(a, b)
    # a zero class pairs to 0 with every class
    if n == 0 and (0, 0) in (_coordinates(a), _coordinates(b)):
        raise LatticeError("intersection count needs nonzero classes")
    return abs(n)


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
    return reduce_slope(r, d), gcd(abs(r), abs(d))


class AtiyahElement(ReadOnly):
    """Formal integer combination of the indecomposables F_r (r >= 1).

    The constructor checks and sorts the terms.  A product adds the
    multiplicities of the Clebsch-Gordan indices of every pair of terms into
    one list indexed by the index, so its terms come out in index order, and
    builds one element from it through :meth:`_of_terms`.  That list is as
    long as the product's largest index, so its cost grows with the indices
    as well as with the number of terms.
    """

    # terms: sorted ((index, multiplicity), ...), zeros dropped
    _fields = ("terms",)

    def __init__(self, terms: tuple):
        clean = []
        for idx, mult in terms:
            if type(idx) is not int or type(mult) is not int:
                idx, mult = _as_int(idx), _as_int(mult)
            if idx < 1:
                raise LatticeError("indecomposable index must be >= 1")
            if mult != 0:
                clean.append((idx, mult))
        clean.sort()
        self.__dict__["terms"] = tuple(clean)

    @classmethod
    def _of_terms(cls, terms) -> "AtiyahElement":
        """The element of int (index, multiplicity) pairs with increasing indices >= 1.

        The one way in for elements this module computes: it only drops
        zero multiplicities, skipping the checks and the sort of the
        constructor, which is the one path for foreign terms.
        """
        self = object.__new__(cls)
        self.__dict__["terms"] = tuple(filter(itemgetter(1), terms))
        return self

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

    def __mul__(self, other: "AtiyahElement") -> "AtiyahElement":
        if not (self.terms and other.terms):
            return AtiyahElement._of_terms(())
        # out[idx] is the multiplicity of F_idx; the largest index is
        # a + b - 1 for the largest indices a and b of the two factors
        out = [0] * (self.terms[-1][0] + other.terms[-1][0])
        for ia, ma in self.terms:
            for ib, mb in other.terms:
                mult = ma * mb
                for idx in _clebsch_gordan(ia, ib):
                    out[idx] += mult
        # out[0] stays 0, so _of_terms drops it with every cancelled index
        return AtiyahElement._of_terms(enumerate(out))


def _clebsch_gordan(a: int, b: int) -> range:
    """The indices a + b - 1 - 2j, j = 0..min(a, b) - 1, of F_a (x) F_b,
    in increasing order: |a - b| + 1, |a - b| + 3, ..., a + b - 1."""
    return range(abs(a - b) + 1, a + b, 2)


def atiyah_tensor(a: int, b: int) -> AtiyahElement:
    """Decompose F_a (x) F_b, Clebsch-Gordan style.

    F_a (x) F_b = sum_{j=0}^{min(a,b)-1} F_{a+b-1-2j}; ranks add up to a*b.
    """
    a, b = _as_int(a), _as_int(b)
    if a < 1 or b < 1:
        raise LatticeError("indecomposable indices must be >= 1")
    return AtiyahElement._of_terms((idx, 1) for idx in _clebsch_gordan(a, b))


def mirror_cy1(u: GradedVector) -> CycleClass1:
    """Mirror map on H^0 + H^2: u0*[C] + u1*[pt] goes to u0*[s0] + u1*[e']."""
    if u.dim != 1:
        raise LatticeError("mirror_cy1 needs a dim-1 graded vector")
    if u.den != 1:
        raise LatticeError("mirror_cy1 needs integer coefficients")
    return CycleClass1(*u.nums)


def bs_points(k: int) -> list[Fraction]:
    """Level-k quantization marks the fibre positions j/k, j = 0..k-1.

    The level is read as `Slope` reads its entries: an int or an
    integer-valued string, not a float or a bool.
    """
    if type(k) is not int:
        k = _as_int(k)
    if k < 1:
        raise LatticeError("level must be a positive integer")
    return [Fraction(j, k) for j in range(k)]
