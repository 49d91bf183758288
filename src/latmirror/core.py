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
bit-reproducible: the public constructor coerces and checks every entry
once; the classes this module computes (``cup``, ``star``, ``scale``,
``+``, ``todd_multiply``) work on the numerators and enter through one
numerator constructor that reduces by the gcd.  On top of the cup product
the module exposes the symmetric top-degree pairing ``pair_sym``, the
degree involution ``star`` (sign flip on blocks of degree 2 mod 4, the
Chern-character image of dualisation), the Todd-twisted Euler pairing
``pair_exotic`` (symmetric for n = 2, skew for n = 1 and 3), the Mukai
vector ``ch * sqrt(td)`` and ``todd_multiply``, the product with td,
sqrt(td) or sqrt(td)^-1.

The two pairings and the three Todd products are bilinear or linear in the
flat coordinates, so each ring compiles them once, on first use, into an
:class:`IntegerMatrix`: a sparse matrix of Python ints over one common
denominator, built by evaluating the ``cup`` definition on basis vectors.
The Picard Gram matrix and the cubic tensor are compiled the same way.
Every pairing and product runs on one kernel,
:meth:`IntegerMatrix.apply_columns` and :meth:`IntegerMatrix.pair_columns`,
on the coordinates of one vector as Python ints (no overflow, no floats).
``cup`` stays the general product and the definition the matrices are
built from.

Todd data is closed-form in every supported dimension:

    n = 1:  td = (1, 0)           sqrt(td) = (1, 0)
    n = 2:  td = (1, 0, 2)        sqrt(td) = (1, 0, 1)
    n = 3:  td = (1, 0, c2/12, 0) sqrt(td) = (1, 0, c2/24, 0)

with ``cup(sqrt_td, sqrt_td) == td`` holding exactly.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from math import gcd, lcm
from typing import NamedTuple, Sequence, Union

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


def parse_rational(s: RationalLike) -> Fraction:
    """Inverse of :func:`format_rational`; also accepts ints and Fractions."""
    return as_fraction(s)


def _entry(x) -> int | Fraction:
    """One coerced entry: ints pass as they are, the rest through as_fraction."""
    return x if type(x) is int else as_fraction(x)


def blocks_of(dim: int, flat: Sequence) -> tuple:
    """The blocks of a class from its flat coordinates: the one flat layout.

    ``flat`` is ``(u_0, u_1..., ..., u_n)``: the rank, then the dim - 1
    middle blocks of k coordinates each, then the top.  The entries may be
    anything (ints, Fractions, numpy arrays of a batch); ends come back as
    they are, middle blocks as tuples.
    """
    k = (len(flat) - 2) // (dim - 1) if dim > 1 else 0
    mids = tuple(tuple(flat[1 + i * k: 1 + (i + 1) * k]) for i in range(dim - 1))
    return (flat[0], *mids, flat[-1])


@dataclass(frozen=True, init=False, repr=False)
class GradedVector:
    """One element of the even-cohomology ring.

    Stored as flat integer numerators ``nums`` (laid out by
    :func:`blocks_of`) over one positive denominator ``den``, in lowest
    terms.  ``blocks[i]`` is the degree-2i component: a Fraction for i = 0
    and i = dim, a tuple of Fractions in between.
    """

    dim: int
    nums: tuple
    den: int

    def __init__(self, dim: int, blocks: tuple):
        if dim not in (1, 2, 3):
            raise ShapeError(f"dim must be 1, 2 or 3, got {dim}")
        if len(blocks) != dim + 1:
            raise ShapeError(f"dim {dim} needs {dim + 1} blocks, got {len(blocks)}")
        entries, arities = [], set()
        for i, block in enumerate(blocks):
            if i == 0 or i == dim:
                entries.append(_entry(block))
            elif isinstance(block, (int, str, Fraction)):
                raise ShapeError("intermediate block must be a coordinate sequence")
            else:
                coerced = [_entry(x) for x in block]
                arities.add(len(coerced))
                entries += coerced
        if len(arities) > 1:
            raise ShapeError("intermediate blocks differ in arity")
        # over the least common denominator of reduced entries, the
        # numerators and the denominator share no factor
        den = lcm(*(x.denominator for x in entries))
        nums = tuple(x.numerator * (den // x.denominator) for x in entries)
        self.__dict__.update(dim=dim, nums=nums, den=den)

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
    def zero(cls, dim: int, picard_rank: int) -> "GradedVector":
        return cls._of_numerators(dim, [0] * (2 + (dim - 1) * picard_rank))

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

    def with_block(self, i: int, value) -> "GradedVector":
        blocks = list(self.blocks)
        blocks[i] = value
        return GradedVector(self.dim, tuple(blocks))

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

    @classmethod
    def from_payload(cls, payload: dict) -> "GradedVector":
        return cls(_as_int(payload["dim"]), tuple(payload["blocks"]))


def _check_symmetric(matrix, noun: str = "Gram matrix") -> None:
    k = len(matrix)
    for row in matrix:
        if len(row) != k:
            raise ShapeError(f"{noun} must be square")
    for i in range(k):
        for j in range(k):
            if matrix[i][j] != matrix[j][i]:
                raise ShapeError(f"{noun} must be symmetric")


@dataclass(frozen=True)
class RingDescriptor:
    """Multiplication data for one even-cohomology ring.

    dim 1: no parameters (picard_rank is 0; both blocks are scalars).
    dim 2: ``gram`` is the symmetric integer Gram matrix of the Picard
           block; its diagonal must be even (the lattice of an algebraic
           surface with vanishing odd Chern data is even).
    dim 3: ``cubic`` is the totally symmetric triple-intersection tensor
           D[a][b][c] on divisors and ``c2`` the integer vector of
           second-Chern-class pairings against the divisor basis.
    """

    dim: int
    picard_rank: int
    gram: tuple | None = None
    cubic: tuple | None = None
    c2: tuple | None = None

    def __post_init__(self):
        object.__setattr__(self, "dim", _as_int(self.dim))
        object.__setattr__(self, "picard_rank", _as_int(self.picard_rank))
        if self.dim not in (1, 2, 3):
            raise ShapeError(f"dim must be 1, 2 or 3, got {self.dim}")
        k = self.picard_rank
        if self.dim == 1:
            if k != 0:
                raise ShapeError("dim-1 rings have no intermediate block")
            if self.gram is not None or self.cubic is not None or self.c2 is not None:
                raise ShapeError("dim-1 rings carry no Gram/cubic/c2 data")
            return
        if k < 1:
            raise ShapeError("picard_rank must be >= 1 for dim 2 and 3")
        if self.dim == 2:
            if self.gram is None:
                raise ShapeError("dim-2 ring needs a Gram matrix")
            if self.cubic is not None or self.c2 is not None:
                raise ShapeError("dim-2 rings carry no cubic/c2 data")
            gram = tuple(tuple(_as_int(x) for x in row) for row in self.gram)
            if len(gram) != k:
                raise ShapeError("Gram size must equal picard_rank")
            _check_symmetric(gram)
            for i in range(k):
                if gram[i][i] % 2 != 0:
                    raise ShapeError(
                        f"Gram diagonal entry {gram[i][i]} is odd; "
                        "surface lattices here are even"
                    )
            object.__setattr__(self, "gram", gram)
            return
        # dim == 3
        if self.cubic is None or self.c2 is None:
            raise ShapeError("dim-3 ring needs cubic and c2 data")
        if self.gram is not None:
            raise ShapeError("dim-3 rings carry no Gram matrix")
        cubic = self.cubic
        if len(cubic) and not isinstance(cubic[0], (tuple, list)):
            # flattened row-major (a, b, c) form, as in fixture files
            if len(cubic) != k ** 3:
                raise ShapeError("flattened cubic must have picard_rank^3 entries")
            flat = [_as_int(x) for x in cubic]
            cubic = tuple(
                tuple(
                    tuple(flat[(a * k + b) * k + c] for c in range(k))
                    for b in range(k)
                )
                for a in range(k)
            )
        else:
            cubic = tuple(
                tuple(tuple(_as_int(x) for x in row) for row in plane) for plane in cubic
            )
        if len(cubic) != k or any(
            len(plane) != k or any(len(row) != k for row in plane) for plane in cubic
        ):
            raise ShapeError("cubic tensor must be picard_rank^3")
        for a in range(k):
            for b in range(k):
                for c in range(k):
                    v = cubic[a][b][c]
                    if not (
                        v == cubic[a][c][b] == cubic[b][a][c]
                        == cubic[b][c][a] == cubic[c][a][b] == cubic[c][b][a]
                    ):
                        raise ShapeError("cubic tensor must be totally symmetric")
        c2 = tuple(_as_int(x) for x in self.c2)
        if len(c2) != k:
            raise ShapeError("c2 vector length must equal picard_rank")
        object.__setattr__(self, "cubic", cubic)
        object.__setattr__(self, "c2", c2)

    @classmethod
    def elliptic(cls) -> "RingDescriptor":
        return cls(dim=1, picard_rank=0)

    def _divisors(self, *vectors: Sequence) -> list:
        """The one way in for foreign divisor coordinates: :func:`_entry`, length checked."""
        k = self.picard_rank
        out = [[_entry(x) for x in v] for v in vectors]
        for v in out:
            if len(v) != k:
                raise ShapeError("divisor coordinates must match picard_rank")
        return out

    def _integer_divisor(self, L: Sequence) -> tuple:
        """Integer coordinates of one foreign divisor class, via :meth:`_divisors`."""
        (out,) = self._divisors(L)
        if any(x.denominator != 1 for x in out):
            raise LatticeError("divisor class must be integral")
        return tuple(x.numerator for x in out)

    def pic_pair(self, a: Sequence, b: Sequence) -> Fraction:
        """Gram pairing of two divisor-block coordinate vectors (dim 2).

        An entry point: it coerces both vectors.  Callers holding integer
        coordinates pair on ``_gram_form`` directly.
        """
        if self.dim != 2:
            raise ShapeError("pic_pair needs a dim-2 descriptor")
        # the Gram matrix is integral: its compiled form has denominator 1
        return Fraction(self._gram_form.pair_columns(*self._divisors(a, b)))

    def cubic_contract(self, a: Sequence, b: Sequence) -> tuple:
        """Divisor-times-divisor product in dual-basis curve coordinates.

        An entry point, like :meth:`pic_pair`; callers holding integer
        coordinates contract on ``_cubic_forms`` directly.
        """
        if self.dim != 3:
            raise ShapeError("cubic_contract needs a dim-3 descriptor")
        a, b = self._divisors(a, b)
        return tuple(Fraction(m.pair_columns(a, b)) for m in self._cubic_forms)

    @cached_property
    def todd(self) -> "ToddData":
        """Closed-form Todd data, built on first access."""
        return todd_data(self)

    @cached_property
    def _gram_form(self) -> "IntegerMatrix":
        """The Picard Gram matrix compiled for :meth:`pic_pair`, built on first use."""
        return IntegerMatrix.from_rationals(self.gram)

    @cached_property
    def _cubic_forms(self) -> tuple:
        """One compiled form per curve coordinate d: (a, b) -> sum D[a][b][d] a b."""
        k = range(self.picard_rank)
        cubic = self.cubic
        return tuple(
            IntegerMatrix.from_rationals([[cubic[a][b][d] for b in k] for a in k]) for d in k
        )

    @cached_property
    def _forms(self) -> "_RingForms":
        """Compiled pairings and Todd products, built on first use."""
        return _compile_forms(self)

    def to_payload(self) -> dict:
        if self.dim == 1:
            return {"dim": 1, "picard_rank": 0}
        if self.dim == 2:
            return {
                "dim": 2,
                "picard_rank": self.picard_rank,
                "gram": [list(row) for row in self.gram],
            }
        k = self.picard_rank
        flat = [
            self.cubic[a][b][c]
            for a in range(k) for b in range(k) for c in range(k)
        ]
        return {"dim": 3, "picard_rank": k, "cubic": flat, "c2": list(self.c2)}

    @classmethod
    def from_payload(cls, payload: dict) -> "RingDescriptor":
        known = {"dim", "picard_rank", "gram", "cubic", "c2"}
        unknown = set(payload) - known
        if unknown:
            raise ShapeError(f"unknown ring descriptor keys: {sorted(unknown)}")
        return cls(
            dim=payload["dim"],
            picard_rank=payload.get("picard_rank", 0),
            gram=payload.get("gram"),
            cubic=payload.get("cubic"),
            c2=payload.get("c2"),
        )


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
        w2 = u0 * v2 + u2 * v0 + ring._gram_form.pair_columns(u1, v1)
        nums = (u0 * v0, *w1, w2)
    else:
        (_, u1, u2, u3), (_, v1, v2, v3) = ub, vb
        w1 = [u0 * y + v0 * x for x, y in zip(u1, v1)]
        w2 = [
            u0 * y + v0 * x + m.pair_columns(u1, v1)
            for x, y, m in zip(u2, v2, ring._cubic_forms)
        ]
        w3 = u0 * v3 + u3 * v0 + sum(x * y for x, y in zip(u1, v2)) + sum(
            x * y for x, y in zip(u2, v1)
        )
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


class IntegerMatrix(NamedTuple):
    """Exact square rational matrix: sparse integer rows over one denominator.

    ``rows[i]`` lists the pairs ``(j, m_ij)`` with nonzero integer m_ij; the
    matrix is ``m / den``.  :meth:`pair_columns` and :meth:`apply_columns`
    are its one kernel: they take the integer numerators of one vector's
    coordinates and return integer numerators over ``den`` (times the
    inputs' denominators).
    """

    rows: tuple
    den: int

    @classmethod
    def from_rationals(cls, matrix: Sequence[Sequence[Fraction]]) -> "IntegerMatrix":
        den = lcm(*(x.denominator for row in matrix for x in row))
        rows = tuple(
            tuple((j, int(x * den)) for j, x in enumerate(row) if x) for row in matrix
        )
        return cls(rows=rows, den=den)

    def to_rationals(self) -> list:
        """Dense matrix of Fractions."""
        n = len(self.rows)
        out = [[Fraction(0)] * n for _ in range(n)]
        for i, row in enumerate(self.rows):
            for j, m in row:
                out[i][j] = Fraction(m, self.den)
        return out

    def apply_columns(self, xs: Sequence) -> list:
        """Integer numerators over ``den`` of m x, for integer coordinates x."""
        return [sum(m * xs[j] for j, m in row) for row in self.rows]

    def pair_columns(self, xs: Sequence, ys: Sequence):
        """Integer numerators over ``den`` of x^T m y, for integer coordinates."""
        return sum(x * y for x, y in zip(xs, self.apply_columns(ys)))


class _RingForms(NamedTuple):
    """Compiled pairings and products of one ring; see :func:`_compile_forms`."""

    sym: IntegerMatrix
    exotic: IntegerMatrix
    products: dict  # ToddData field name -> matrix of the product with it


def _compile_forms(ring: RingDescriptor) -> _RingForms:
    """Evaluate the ``cup`` definitions on basis vectors, once per ring.

    pair_sym(u, v)    = top block of u * v
    product with c    = u * c, column j being the flat coordinates of e_j * c
    pair_exotic(u, v) = top block of star(u) * v * td = pair_sym(star(u), v * td),
                        so its entry (i, j) is pair_sym(e_i, e_j * td) times
                        the sign of star on coordinate i
    """
    basis = GradedVector.basis(ring.dim, ring.picard_rank)
    sym = IntegerMatrix.from_rationals(
        [[Fraction(w.nums[-1], w.den) for w in (cup(a, b, ring) for b in basis)] for a in basis]
    )
    columns = {
        name: [cup(e, getattr(ring.todd, name), ring) for e in basis] for name in ToddData._fields
    }
    signs = [star(e).nums[i] for i, e in enumerate(basis)]
    exotic = [  # column j
        [s * Fraction(x, sym.den * w.den) for s, x in zip(signs, sym.apply_columns(w.nums))]
        for w in columns["td"]
    ]
    return _RingForms(
        sym=sym,
        exotic=IntegerMatrix.from_rationals(list(zip(*exotic))),
        products={
            name: IntegerMatrix.from_rationals(
                [[Fraction(w.nums[i], w.den) for w in cols] for i in range(len(basis))]
            )
            for name, cols in columns.items()
        },
    )


def _pair(m: IntegerMatrix, u: GradedVector, v: GradedVector) -> Fraction:
    return Fraction(m.pair_columns(u.nums, v.nums), u.den * v.den * m.den)


def pair_sym(u: GradedVector, v: GradedVector, ring: RingDescriptor) -> Fraction:
    """Top-degree component of the cup product (the Poincare pairing)."""
    _check_compatible(u, ring)
    _check_compatible(v, ring)
    return _pair(ring._forms.sym, u, v)


def pair_exotic(u: GradedVector, v: GradedVector, ring: RingDescriptor) -> Fraction:
    """Todd-twisted Euler pairing: top block of ``star(u) * v * td``.

    On Chern characters this computes chi(Hom(E1, E2)).  It is symmetric
    for dim 2 and skew for dim 1 and 3 (so every vector pairs to zero with
    itself on a threefold: that is the unobstructed-deformation statement).
    """
    _check_compatible(u, ring)
    _check_compatible(v, ring)
    return _pair(ring._forms.exotic, u, v)


def todd_multiply(u: GradedVector, ring: RingDescriptor, factor: str) -> GradedVector:
    """``cup(u, getattr(ring.todd, factor), ring)``.

    ``factor`` names a :class:`ToddData` field: "td", "sqrt_td" or
    "sqrt_td_inv".
    """
    _check_compatible(u, ring)
    m = ring._forms.products[factor]
    return GradedVector._of_numerators(ring.dim, m.apply_columns(u.nums), u.den * m.den)


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


def mukai_vector(ch: GradedVector, ring: RingDescriptor) -> GradedVector:
    """Mukai vector ``ch * sqrt(td)`` with the positive square root."""
    return todd_multiply(ch, ring, "sqrt_td")
