"""Exact arithmetic for graded even-cohomology lattices.

A compact complex n-fold (n = 1, 2, 3) with torsion-free even cohomology
has a graded ring

    A = H^0 + H^2 + ... + H^{2n}

whose ends are one-dimensional (generated by the fundamental class and the
point class) and whose intermediate graded pieces are free lattices.  A
:class:`GradedVector` stores one element of A as blocks ``u_0, ..., u_n``:
scalars at the ends, integer-or-rational coordinate tuples in between.  A
:class:`RingDescriptor` carries the multiplication data: for n = 2 the Gram
matrix of the Picard block, for n = 3 the symmetric triple-intersection
tensor together with the pairing of the second Chern class against divisors.
Degree-4 coordinates on a threefold are taken in the basis dual to the
divisor basis, so divisor-times-curve contraction is the plain dot product.

A class is stored in one form: its flat coordinates ``(u_0, u_1..., ...,
u_n)`` of length 2 + (n-1)k, laid out by :func:`blocks_of`, as integer
numerators ``nums`` over one positive denominator ``den`` in lowest terms
(the matwise form of a rational matrix).  ``blocks`` is a view of them as
``fractions.Fraction`` entries, built on first use.  Equality and hashing
use ``(dim, nums, den)``.  Floats are rejected so that every pipeline is
bit-reproducible: the public constructor takes the blocks, and each
middle block, as a list or tuple, and coerces and checks every entry
once; the classes this module computes (``cup``, ``star``, ``scale``,
``+``, ``todd_multiply``) work on the numerators and enter through one
numerator constructor that reduces by the gcd.  On top of the cup product
the module exposes the symmetric top-degree pairing ``pair_sym``, the
degree involution ``star`` (sign flip on blocks of degree 2 mod 4, the
Chern-character image of dualisation), the Todd-twisted Euler pairing
``pair_exotic`` (symmetric for n = 2, skew for n = 1 and 3) and
``todd_multiply``, the product with td, sqrt(td) or sqrt(td)^-1: the Mukai
vector ``ch * sqrt(td)`` is ``todd_multiply(ch, ring, "sqrt_td")``.
:func:`as_fraction` reads an entry, a ``"p/q"`` string included, and
:func:`format_rational` writes one.

The two pairings and the three Todd products are written out in closed
form, one branch per dimension, on the numerators of the flat
coordinates; ``cup`` stays the general product and their definition.
Every contraction runs on Python ints (no overflow, no floats): the
Picard Gram matrix through :func:`apply_form` and :func:`pair_form`, and
the cubic tensor as the descriptor's k planes.  Plane d is the flat
row-major form (a, b) -> D[a][b][d] of k^2 ints, so one ``_dot`` of a
plane with the outer product of two divisor vectors gives their
contraction against divisor d.

Todd data is closed-form in every supported dimension:

    n = 1:  td = (1, 0)           sqrt(td) = (1, 0)
    n = 2:  td = (1, 0, 2)        sqrt(td) = (1, 0, 1)
    n = 3:  td = (1, 0, c2/12, 0) sqrt(td) = (1, 0, c2/24, 0)

with ``cup(sqrt_td, sqrt_td) == td`` holding exactly.
"""

from __future__ import annotations

import re
from fractions import Fraction
from functools import cached_property
from math import gcd, lcm
from operator import mul
from typing import NamedTuple, Sequence, Union

from .shared import ReadOnly

RationalLike = Union[int, str, Fraction]

_RATIONAL_RE = re.compile(r"[+-]?\d+(/\d+)?")


class LatticeError(ValueError):
    """Base class for structural errors in exact-lattice data."""


class ShapeError(LatticeError):
    """Dimension or block-arity mismatch between vectors and descriptors."""


def _as_int(x) -> int:
    """Strict integer coercion: ints and integer-valued strings only."""
    if not isinstance(x, bool) and isinstance(x, (int, str)):
        try:
            return int(x)
        except ValueError:
            pass
    raise LatticeError(f"integer lattice datum expected, got {x!r}")


def _int_array(x, depth: int, message: str):
    """Nested tuples of ints from ``depth`` levels of sequences.

    Entries go through :func:`_as_int`.  Anything but a list or tuple where
    a sequence belongs (a string, a JSON object, a number), or a list or
    tuple where an entry belongs, raises ``ShapeError(message)``.
    """
    if depth == 0:
        if isinstance(x, (list, tuple)):
            raise ShapeError(message)
        return _as_int(x)
    if not isinstance(x, (list, tuple)):
        raise ShapeError(message)
    return tuple(_int_array(y, depth - 1, message) for y in x)


def as_fraction(x: RationalLike) -> Fraction:
    """Coerce an entry to an exact rational.

    Accepts int, Fraction and strings like ``"5"`` or ``"-3/4"``.  Floats
    are rejected: exactness is a module invariant, and a float that looks
    like 1/3 is not 1/3.
    """
    if type(x) is Fraction:
        return x
    if isinstance(x, bool):
        raise LatticeError("booleans are not lattice entries")
    if isinstance(x, float):
        raise LatticeError(f"float {x!r} rejected: entries must be exact rationals")
    if isinstance(x, (int, Fraction)):
        return Fraction(x)
    if isinstance(x, str):
        text = x.strip()
        if not _RATIONAL_RE.fullmatch(text):
            raise LatticeError(f"malformed rational {x!r}; want 'p' or 'p/q'")
        try:
            return Fraction(text)
        except ZeroDivisionError as exc:
            raise LatticeError(f"zero denominator in {x!r}") from exc
    raise TypeError(f"cannot interpret {x!r} as an exact rational")


def format_rational(x: Fraction) -> str:
    """Serialize a rational as ``"p/q"`` (or ``"p"`` when q = 1)."""
    return str(Fraction(x))


def blocks_of(dim: int, flat: Sequence) -> tuple:
    """The blocks of a class from its flat coordinates: the one flat layout.

    ``flat`` is ``(u_0, u_1..., ..., u_n)``: the rank, then the dim - 1
    middle blocks of k coordinates each, then the top.  The entries may be
    anything (int numerators, Fractions, formatted strings); ends come back
    as they are, middle blocks as tuples.
    """
    k = (len(flat) - 2) // (dim - 1) if dim > 1 else 0
    mids = tuple(tuple(flat[1 + i * k: 1 + (i + 1) * k]) for i in range(dim - 1))
    return (flat[0], *mids, flat[-1])


class GradedVector(ReadOnly):
    """One element of the even-cohomology ring.

    Stored as flat integer numerators ``nums`` (laid out by
    :func:`blocks_of`) over one positive denominator ``den``, in lowest
    terms.  ``blocks[i]`` is the degree-2i component: a Fraction for i = 0
    and i = dim, a tuple of Fractions in between.
    """

    _fields = ("dim", "nums", "den")

    def __init__(self, dim: int, blocks: tuple):
        if type(dim) is not int or dim not in (1, 2, 3):
            raise ShapeError(f"dim must be 1, 2 or 3, got {dim}")
        if not isinstance(blocks, (list, tuple)):
            raise ShapeError("blocks must be a list or tuple")
        if len(blocks) != dim + 1:
            raise ShapeError(f"dim {dim} needs {dim + 1} blocks, got {len(blocks)}")
        # one pass: an int is kept as it is, a Fraction is read through its
        # numerator and denominator, anything else goes through as_fraction
        # first; an entry of denominator 1 is kept as its int, any other
        # stays a Fraction and leaves its denominator in dens
        entries, dens, arities = [], [], set()
        for i, block in enumerate(blocks):
            if i == 0 or i == dim:
                block = (block,)
            elif not isinstance(block, (list, tuple)):
                raise ShapeError("intermediate block must be a coordinate sequence")
            else:
                start = len(entries)
            for x in block:
                if type(x) is not int:
                    if type(x) is not Fraction:
                        x = as_fraction(x)
                    q = x.denominator
                    if q == 1:
                        x = x.numerator
                    else:
                        dens.append(q)
                entries.append(x)
            if 0 < i < dim:
                arities.add(len(entries) - start)
        if len(arities) > 1:
            raise ShapeError("intermediate blocks differ in arity")
        # over the least common denominator of reduced entries, the
        # numerators and the denominator share no factor
        den = 1
        if dens:
            den = lcm(*dens)
            entries = [
                x * den if type(x) is int else x.numerator * (den // x.denominator)
                for x in entries
            ]
        self.__dict__.update(dim=dim, nums=tuple(entries), den=den)

    @classmethod
    def _of_numerators(cls, dim: int, nums: Sequence[int], den: int = 1) -> "GradedVector":
        """The class with flat coordinates ``nums / den`` (den > 0), reduced.

        The one way in for classes this module computes: it skips the
        checks and coercion of the public constructor, which is the one
        path for foreign input.
        """
        g = gcd(den, *nums)
        if g != 1:
            nums, den = [x // g for x in nums], den // g
        self = object.__new__(cls)
        self.__dict__.update(dim=dim, nums=tuple(nums), den=den)
        return self

    @cached_property
    def blocks(self) -> tuple:
        den = self.den
        return blocks_of(self.dim, [Fraction(x, den) for x in self.nums])

    def __repr__(self):
        return f"GradedVector(dim={self.dim!r}, blocks={self.blocks!r})"

    @classmethod
    def unit(cls, dim: int, picard_rank: int) -> "GradedVector":
        return cls._of_numerators(dim, [1] + [0] * (1 + (dim - 1) * picard_rank))

    @classmethod
    def point(cls, dim: int, picard_rank: int) -> "GradedVector":
        return cls._of_numerators(dim, [0] * (1 + (dim - 1) * picard_rank) + [1])

    @classmethod
    def basis(cls, dim: int, picard_rank: int) -> tuple:
        """The classes e_0, e_1, ... whose flat coordinates are the unit vectors."""
        size = 2 + (dim - 1) * picard_rank
        return tuple(
            cls._of_numerators(dim, [int(i == j) for j in range(size)]) for i in range(size)
        )

    def scale(self, c: RationalLike) -> "GradedVector":
        c = as_fraction(c)
        nums = [c.numerator * x for x in self.nums]
        return GradedVector._of_numerators(self.dim, nums, c.denominator * self.den)

    def __add__(self, other: "GradedVector") -> "GradedVector":
        if not isinstance(other, GradedVector) or other.dim != self.dim:
            raise ShapeError("can only add graded vectors of equal dimension")
        if len(other.nums) != len(self.nums):
            raise ShapeError("intermediate blocks differ in arity")
        den = lcm(self.den, other.den)
        a, b = den // self.den, den // other.den
        nums = [a * x + b * y for x, y in zip(self.nums, other.nums)]
        return GradedVector._of_numerators(self.dim, nums, den)

    def __neg__(self) -> "GradedVector":
        return GradedVector._of_numerators(self.dim, [-x for x in self.nums], self.den)

    def __sub__(self, other: "GradedVector") -> "GradedVector":
        return self + (-other)

    def to_payload(self) -> dict:
        """JSON-ready dict with rationals as strings."""
        text = [format_rational(Fraction(x, self.den)) for x in self.nums]
        blocks = [b if isinstance(b, str) else list(b) for b in blocks_of(self.dim, text)]
        return {"dim": self.dim, "blocks": blocks}


def _check_symmetric(matrix, noun: str = "Gram matrix") -> None:
    k = len(matrix)
    for row in matrix:
        if len(row) != k:
            raise ShapeError(f"{noun} must be square")
    for i in range(k):
        for j in range(k):
            if matrix[i][j] != matrix[j][i]:
                raise ShapeError(f"{noun} must be symmetric")


class RingDescriptor(ReadOnly):
    """Multiplication data for one even-cohomology ring.

    dim 1: no parameters (picard_rank is 0; both blocks are scalars).
    dim 2: ``gram`` is the symmetric integer Gram matrix of the Picard
           block; its diagonal must be even (the lattice of an algebraic
           surface with vanishing odd Chern data is even).
    dim 3: ``cubic`` is the totally symmetric triple-intersection tensor
           D[a][b][c] on divisors, given as the flat row-major list of its
           k^3 entries, and ``c2`` the integer vector of
           second-Chern-class pairings against the divisor basis.

    The stored ``gram``, ``cubic`` and ``c2`` are tuples of Python ints,
    checked for shape and symmetry here: every pairing and product runs
    on them.  ``cubic`` is stored as k planes of k^2 ints: plane d is the
    flat row-major form (a, b) -> D[a][b][d].
    """

    _fields = ("dim", "picard_rank", "gram", "cubic", "c2")

    def __init__(
        self,
        dim: int,
        picard_rank: int,
        gram: tuple | None = None,
        cubic: tuple | None = None,
        c2: tuple | None = None,
    ):
        dim, k = _as_int(dim), _as_int(picard_rank)
        if dim not in (1, 2, 3):
            raise ShapeError(f"dim must be 1, 2 or 3, got {dim}")
        if dim == 1:
            if k != 0:
                raise ShapeError("dim-1 rings have no intermediate block")
            if gram is not None or cubic is not None or c2 is not None:
                raise ShapeError("dim-1 rings carry no Gram/cubic/c2 data")
        elif k < 1:
            raise ShapeError("picard_rank must be >= 1 for dim 2 and 3")
        elif dim == 2:
            if gram is None:
                raise ShapeError("dim-2 ring needs a Gram matrix")
            if cubic is not None or c2 is not None:
                raise ShapeError("dim-2 rings carry no cubic/c2 data")
            gram = _int_array(gram, 2, "Gram matrix must be square")
            if len(gram) != k:
                raise ShapeError("Gram size must equal picard_rank")
            _check_symmetric(gram)
            for i in range(k):
                if gram[i][i] % 2 != 0:
                    raise ShapeError(
                        f"Gram diagonal entry {gram[i][i]} is odd; "
                        "surface lattices here are even"
                    )
        else:
            if cubic is None or c2 is None:
                raise ShapeError("dim-3 ring needs cubic and c2 data")
            if gram is not None:
                raise ShapeError("dim-3 rings carry no Gram matrix")
            shape = "cubic tensor must be picard_rank^3"
            flat = _int_array(cubic, 1, shape)
            if len(flat) != k ** 3:
                raise ShapeError(shape)
            # row-major: D[a][b][c] is the entry (a k + b) k + c
            for a in range(k):
                for b in range(k):
                    for c in range(k):
                        v = flat[(a * k + b) * k + c]
                        if not (
                            v == flat[(a * k + c) * k + b] == flat[(b * k + a) * k + c]
                            == flat[(b * k + c) * k + a] == flat[(c * k + a) * k + b]
                            == flat[(c * k + b) * k + a]
                        ):
                            raise ShapeError("cubic tensor must be totally symmetric")
            # by that symmetry, plane d, (a, b) -> D[a][b][d] = D[d][a][b], is
            # the run of k^2 entries from d k^2
            cubic = tuple(flat[d * k * k:(d + 1) * k * k] for d in range(k))
            length = "c2 vector length must equal picard_rank"
            c2 = _int_array(c2, 1, length)
            if len(c2) != k:
                raise ShapeError(length)
        self.__dict__.update(dim=dim, picard_rank=k, gram=gram, cubic=cubic, c2=c2)

    @classmethod
    def elliptic(cls) -> "RingDescriptor":
        return cls(dim=1, picard_rank=0)

    def _divisors(self, vectors: Sequence[Sequence]) -> list:
        """The one way in for foreign divisor coordinates: a list or tuple of lists
        or tuples of ``picard_rank`` entries, ints kept, the rest through
        :func:`as_fraction`."""
        k, out = self.picard_rank, []
        # vectors that are not a sequence fail as one vector that is not
        for v in vectors if isinstance(vectors, (list, tuple)) else [None]:
            if not isinstance(v, (list, tuple)) or len(v) != k:
                raise ShapeError("divisor coordinates must match picard_rank")
            out.append([x if type(x) is int else as_fraction(x) for x in v])
        return out

    def _integer_divisor(self, L: Sequence) -> tuple:
        """Integer coordinates of one foreign divisor class.

        The checks of :meth:`_divisors`, then integrality, in one pass:
        every entry is coerced before a fractional one is refused.
        """
        if not isinstance(L, (list, tuple)) or len(L) != self.picard_rank:
            raise ShapeError("divisor coordinates must match picard_rank")
        out, fractional = [], False
        for x in L:
            if type(x) is not int:
                x = as_fraction(x)
                fractional = fractional or x.denominator != 1
                x = x.numerator
            out.append(x)
        if fractional:
            raise LatticeError("divisor class must be integral")
        return tuple(out)

    def pic_pair(self, a: Sequence, b: Sequence) -> Fraction:
        """Gram pairing of two divisor-block coordinate vectors (dim 2).

        An entry point: it coerces both vectors.  Callers holding integer
        coordinates pair through :func:`pair_form` on ``gram`` directly.
        """
        if self.dim != 2:
            raise ShapeError("pic_pair needs a dim-2 descriptor")
        return Fraction(pair_form(self.gram, *self._divisors([a, b])))

    @cached_property
    def todd(self) -> "ToddData":
        """Closed-form Todd data, built on first access."""
        return todd_data(self)


class ToddData(NamedTuple):
    """Todd class, its positive square root and that root's inverse."""

    td: GradedVector
    sqrt_td: GradedVector
    sqrt_td_inv: GradedVector


def todd_data(ring: RingDescriptor) -> ToddData:
    """Closed-form Todd data; ``cup(sqrt_td, sqrt_td) == td`` exactly.

    The inverse of (1, 0, a, 0) is (1, 0, -a, 0): a^2 has degree 8.
    """
    if ring.dim == 1:
        one = GradedVector(1, (1, 0))
        return ToddData(td=one, sqrt_td=one, sqrt_td_inv=one)
    k = ring.picard_rank
    zero = (0,) * k
    if ring.dim == 2:
        return ToddData(
            td=GradedVector(2, (1, zero, 2)),
            sqrt_td=GradedVector(2, (1, zero, 1)),
            sqrt_td_inv=GradedVector(2, (1, zero, -1)),
        )
    twelfth = tuple(Fraction(c, 12) for c in ring.c2)
    twentyfourth = tuple(Fraction(c, 24) for c in ring.c2)
    return ToddData(
        td=GradedVector(3, (1, zero, twelfth, 0)),
        sqrt_td=GradedVector(3, (1, zero, twentyfourth, 0)),
        sqrt_td_inv=GradedVector(3, (1, zero, tuple(-x for x in twentyfourth), 0)),
    )


def _check_compatible(u: GradedVector, ring: RingDescriptor) -> None:
    if u.dim != ring.dim:
        raise ShapeError(f"vector dim {u.dim} != ring dim {ring.dim}")
    arity = (len(u.nums) - 2) // (u.dim - 1) if u.dim > 1 else 0
    if arity != ring.picard_rank:
        raise ShapeError(f"block 1 arity {arity} != picard_rank {ring.picard_rank}")


def _dot(xs: Sequence, ys: Sequence):
    return sum(map(mul, xs, ys))


def apply_form(matrix: Sequence[Sequence[int]], xs: Sequence) -> list:
    """The coordinates of ``matrix x``: a square integer matrix applied to a list."""
    return [_dot(row, xs) for row in matrix]


def pair_form(matrix: Sequence[Sequence[int]], xs: Sequence, ys: Sequence):
    """``x^T matrix y``: two coordinate lists paired through a square integer matrix.

    The cubic's planes are flat, not matrices: plane d pairs x and y as
    ``_dot(plane, [a * b for a in x for b in y])``, one outer product
    serving every plane.
    """
    return _dot(xs, apply_form(matrix, ys))


def cup(u: GradedVector, v: GradedVector, ring: RingDescriptor) -> GradedVector:
    """Cup product, truncated above degree 2*dim.

    Everything lives in even degree, so the product is commutative; the
    descriptor supplies the only nontrivial contractions (Gram matrix for
    surfaces, cubic tensor and divisor/curve duality for threefolds).  It
    runs on the numerators and multiplies the denominators.
    """
    _check_compatible(u, ring)
    _check_compatible(v, ring)
    n = ring.dim
    ub, vb = blocks_of(n, u.nums), blocks_of(n, v.nums)
    u0, v0 = ub[0], vb[0]
    if n == 1:
        nums = (u0 * v0, u0 * vb[1] + ub[1] * v0)
    elif n == 2:
        (_, u1, u2), (_, v1, v2) = ub, vb
        w1 = [u0 * y + v0 * x for x, y in zip(u1, v1)]
        w2 = u0 * v2 + u2 * v0 + pair_form(ring.gram, u1, v1)
        nums = (u0 * v0, *w1, w2)
    else:
        (_, u1, u2, u3), (_, v1, v2, v3) = ub, vb
        w1 = [u0 * y + v0 * x for x, y in zip(u1, v1)]
        outer = [x * y for x in u1 for y in v1]
        w2 = [
            u0 * y + v0 * x + _dot(plane, outer)
            for x, y, plane in zip(u2, v2, ring.cubic)
        ]
        w3 = u0 * v3 + u3 * v0 + _dot(u1, v2) + _dot(u2, v1)
        nums = (u0 * v0, *w1, *w2, w3)
    return GradedVector._of_numerators(n, nums, u.den * v.den)


def star(u: GradedVector) -> GradedVector:
    """Sign flip on blocks of degree 2 mod 4: (u0, -u1, u2, -u3).

    This is the Chern-character image of dualisation and an involution.
    """
    nums = []
    for i, block in enumerate(blocks_of(u.dim, u.nums)):
        entries = block if 0 < i < u.dim else (block,)
        nums += [-x for x in entries] if i % 2 else entries
    return GradedVector._of_numerators(u.dim, nums, u.den)


def pair_sym(u: GradedVector, v: GradedVector, ring: RingDescriptor) -> Fraction:
    """Top-degree component of the cup product (the Poincare pairing)."""
    _check_compatible(u, ring)
    _check_compatible(v, ring)
    n = ring.dim
    ub, vb = blocks_of(n, u.nums), blocks_of(n, v.nums)
    top = ub[0] * vb[n] + ub[n] * vb[0]
    if n == 2:
        top += pair_form(ring.gram, ub[1], vb[1])
    elif n == 3:
        top += _dot(ub[1], vb[2]) + _dot(ub[2], vb[1])
    return Fraction(top, u.den * v.den)


def pair_exotic(u: GradedVector, v: GradedVector, ring: RingDescriptor) -> Fraction:
    """Todd-twisted Euler pairing: top block of ``star(u) * v * td``.

    On Chern characters this computes chi(Hom(E1, E2)).  It is symmetric
    for dim 2 and skew for dim 1 and 3 (so every vector pairs to zero with
    itself on a threefold: that is the unobstructed-deformation statement).
    In closed form, with G the Gram matrix:

        n = 1:  u0 v1 - u1 v0
        n = 2:  u0 v2 + u2 v0 + 2 u0 v0 - u1.G.v1
        n = 3:  u0 v3 - u3 v0 - u1.v2 + u2.v1 + (u0 (v1.c2) - v0 (u1.c2)) / 12
    """
    _check_compatible(u, ring)
    _check_compatible(v, ring)
    n = ring.dim
    ub, vb = blocks_of(n, u.nums), blocks_of(n, v.nums)
    u0, v0 = ub[0], vb[0]
    den = u.den * v.den
    if n == 1:
        return Fraction(u0 * vb[1] - ub[1] * v0, den)
    if n == 2:
        top = u0 * vb[2] + ub[2] * v0 + 2 * u0 * v0 - pair_form(ring.gram, ub[1], vb[1])
        return Fraction(top, den)
    (_, u1, u2, u3), (_, v1, v2, v3) = ub, vb
    c2 = ring.c2
    top = 12 * (u0 * v3 - u3 * v0 - _dot(u1, v2) + _dot(u2, v1))
    return Fraction(top + u0 * _dot(v1, c2) - v0 * _dot(u1, c2), 12 * den)


# td, sqrt(td) and sqrt(td)^-1 are 1 + w t, with t the point class on a K3
# and c2/24 on a threefold; on the curve all three are 1
_TODD_WEIGHTS = {"td": 2, "sqrt_td": 1, "sqrt_td_inv": -1}


def todd_multiply(u: GradedVector, ring: RingDescriptor, factor: str) -> GradedVector:
    """``cup(u, getattr(ring.todd, factor), ring)``, in closed form.

    ``factor`` names a :class:`ToddData` field: "td", "sqrt_td" or
    "sqrt_td_inv", the factor 1 + w t with w = 2, 1 or -1.  On a K3 the
    product adds w u0 to the top block; on a threefold it adds w u0 c2/24
    to the curve block and w (u1.c2)/24 to the top.  The threefold product
    is built as one list: every numerator times 24, then w u0 c2 added to
    the curve slots and w (u1.c2) to the top, over 24 times the
    denominator, and reduced once by :meth:`GradedVector._of_numerators`.
    """
    _check_compatible(u, ring)
    w = _TODD_WEIGHTS[factor]
    if ring.dim == 1:
        return u
    nums = u.nums
    if ring.dim == 2:
        return GradedVector._of_numerators(2, (*nums[:-1], nums[-1] + w * nums[0]), u.den)
    # flat: u0 | u1 = nums[1:k+1] | u2 = nums[k+1:-1] | u3, the product over 24 den
    k, c2 = ring.picard_rank, ring.c2
    out = [24 * x for x in nums]
    wu0 = w * nums[0]
    for j, c in enumerate(c2, k + 1):
        out[j] += wu0 * c
    out[-1] += w * _dot(nums[1:k + 1], c2)
    return GradedVector._of_numerators(3, out, 24 * u.den)


def isometry_failures(classes, images, pairing, image_pairing, names=None) -> list:
    """One text "(a, b): image pairing != pairing" per ordered pair of classes
    whose images pair differently; class i is named "e<i>" or ``names[i]``."""
    names = names or [f"e{i}" for i in range(len(classes))]
    failures = []
    for a, u, mu in zip(names, classes, images):
        for b, v, mv in zip(names, classes, images):
            lhs, rhs = image_pairing(mu, mv), pairing(u, v)
            if lhs != rhs:
                failures.append(f"({a}, {b}): {lhs} != {rhs}")
    return failures
