"""K3 lattice calculus: Mukai vectors, mirror classes, quantization counts.

Chern data of a sheaf on a K3 enters as a dim-2 graded vector
(rank, c1, ch2); its Mukai vector :func:`mukai2` is ch * sqrt(td) =
(rank, c1, ch2 + rank).  The Euler pairing chi(Hom(E1, E2)) is the Poincare
pairing of the dualised Mukai vector of E1 against that of E2.  As
star(sqrt td) = sqrt td on a K3, that is the Todd-twisted pairing
:func:`core.pair_exotic` of the Chern characters, the one Euler pairing of
every dimension, so this module defines none of its own; a simple sheaf
moves in a moduli space of dimension 2 - chi(Hom(E, E)).

The mirror of a polarising class L is the sphere class [s] + L - L^2/2 [e]
in the lattice spanned by a section [s] ([s]^2 = -2), a fibre [e]
([e]^2 = 0, [e].[s] = 1) and the Picard block; the Picard coordinates of
the image carry an imaginary-unit marker that is bookkeeping, never a
number.  The fibrewise Fourier transform of L projects to
[s0] - L^2/2 [e'] plus a transcendental summand that pairs to zero with
everything algebraic; its support slope is -L^2/2.  Level counting is the
content of :func:`verify_quantization_k3`: h^0(L) = L^2/2 + 2 sections
against (-[s0]) . ([s0] - L^2/2 [e']) = 2 + L^2/2 marked fibres, the
latter through :func:`core.pair_form` on ``H_GRAM``, as the mirror pairs.

Spheres of square -2 act on the Picard block by x -> x + (x.delta) delta;
the bounded chamber walk repeatedly applies reflections until a target
class pairs nonnegatively with every supplied root (Vinberg's walk into a
fundamental chamber).  Divisor coordinates enter through
``RingDescriptor._divisors`` and ``_integer_divisor``.  The Gram lattice
is even, so L^2, the mirror and transform coefficients and both counts
are Python ints.  :func:`check_main_condition` certifies a hyperbolic
summand candidate (e, s) by e^2 = 0, s^2 = -2, e.s = 1 and orthogonality
of the declared complement, and reports every check.

``K3Descriptor`` checks its input in its constructor and is read-only
after it; the mirror, transform, count, walk and main-condition results
only carry values and are ``NamedTuple``s.
"""

from __future__ import annotations

from fractions import Fraction
from operator import mul
from typing import NamedTuple, Sequence

from .core import (
    GradedVector,
    LatticeError,
    RingDescriptor,
    ShapeError,
    _as_int,
    _check_symmetric,
    _int_array,
    apply_form,
    as_fraction,
    pair_exotic,
    pair_form,
    todd_multiply,
)
from .shared import ReadOnly

# Euler characteristic of every K3 surface; an elliptic fibration with only
# nodal fibres has exactly this many singular fibres.
EULER_K3 = 24

# Section/fibre Gram block of the mirror lattice: [s]^2 = -2, [s].[e] = 1,
# [e]^2 = 0.
H_GRAM = ((-2, 1), (1, 0))


class K3Descriptor(ReadOnly):
    """A K3 Picard lattice plus optional root and fibration metadata.

    ``root_axes`` holds, for each declared root, the pair (root, Gram
    applied to the root), two tuples, built and square-checked here once by
    :func:`_minus2_axes`, the one (-2)-root check; a walk on the
    descriptor's own roots reads it instead of checking them again.  It
    is left out of equality, the hash and the repr.
    """

    _fields = ("ring", "label", "roots", "singular_fibres")

    def __init__(
        self,
        ring: RingDescriptor,
        label: str = "k3",
        roots: tuple = (),
        singular_fibres: int | None = None,
    ):
        if ring.dim != 2:
            raise ShapeError("K3Descriptor needs a dim-2 ring")
        roots = _int_array(roots, 2, "roots must be a sequence of divisor coordinate vectors")
        # the root check reads the ring
        self.__dict__.update(ring=ring, label=label, roots=roots)
        self.__dict__["root_axes"] = tuple(_minus2_axes(roots, self))
        if singular_fibres is not None:
            singular_fibres = _as_int(singular_fibres)
            if singular_fibres != EULER_K3:
                raise LatticeError(
                    f"elliptic K3 fibration must have {EULER_K3} singular fibres "
                    f"(Euler characteristic), got {singular_fibres}"
                )
        self.__dict__["singular_fibres"] = singular_fibres


def mukai2(ch: GradedVector, X: K3Descriptor) -> GradedVector:
    """Mukai vector ch * sqrt(td) = (rank, c1, ch2 + rank) of a Chern-data vector."""
    return todd_multiply(ch, X.ring, "sqrt_td")


def moduli_dim2(ch: GradedVector, X: K3Descriptor) -> int:
    """Expected moduli dimension 2 - chi(Hom(E, E))."""
    val = 2 - pair_exotic(ch, ch, X.ring)
    if val.denominator != 1:
        raise LatticeError(f"moduli dimension {val} is not an integer")
    return int(val)


def _square(L: tuple, X: K3Descriptor) -> int:
    """L^2 of integer coordinates, as from ``RingDescriptor._integer_divisor``."""
    return pair_form(X.ring.gram, L, L)


class MirrorClassK3(NamedTuple):
    """Sphere class [s] + L - L^2/2 [e].

    In the period normalization the Picard block is multiplied by the
    imaginary unit.  That is a choice of basis, not a coefficient, so it is
    not stored and pairings stay exact integers.
    """

    s: int
    pic: tuple
    e: int


def mirror_k3(L: Sequence, X: K3Descriptor) -> MirrorClassK3:
    """Mirror image [s] + L - (L^2/2) [e] of an integral divisor class."""
    L = X.ring._integer_divisor(L)
    l2 = _square(L, X)
    if l2 % 2:
        raise LatticeError(f"L^2 = {l2} is not even; not a divisor class here")
    return MirrorClassK3(s=1, pic=L, e=-(l2 // 2))


def mirror_pairing_k3(a: MirrorClassK3, b: MirrorClassK3, X: K3Descriptor) -> int:
    """Full mirror-lattice pairing: hyperbolic block plus Picard block."""
    k = X.ring.picard_rank
    if len(a.pic) != k or len(b.pic) != k:
        raise ShapeError("divisor coordinates must match picard_rank")
    return pair_form(H_GRAM, (a.s, a.e), (b.s, b.e)) + pair_form(X.ring.gram, a.pic, b.pic)


class GftClassK3(NamedTuple):
    """Algebraic shadow [s0] - (L^2/2) [e'] of the transformed bundle.

    The transform also carries a transcendental 2-cycle summand omega'; it
    pairs to zero with every algebraic class, so it is not stored.
    """

    s0: int
    e: int

    @property
    def slope(self) -> Fraction:
        # support slope of the multisection: e-coefficient over s0-coefficient
        return Fraction(self.e, self.s0)


def gft_class_k3(L: Sequence, X: K3Descriptor) -> GftClassK3:
    """Transform class of a polarising bundle; needs L^2 > 0 and even."""
    L = X.ring._integer_divisor(L)
    l2 = _square(L, X)
    if l2 <= 0:
        raise LatticeError(f"need a polarising class with L^2 > 0, got {l2}")
    if l2 % 2:
        raise LatticeError(f"L^2 = {l2} is not even")
    return GftClassK3(s0=1, e=-(l2 // 2))


def _counting_square(L: Sequence, X: K3Descriptor) -> int:
    """L^2 of a foreign divisor class, checked to lie in the counting range."""
    l2 = _square(X.ring._integer_divisor(L), X)
    if l2 < -2:
        raise LatticeError(f"L^2 = {l2} < -2 is outside the counting range")
    return l2


# L^2 is even in the even Gram lattice, so L^2 // 2 is L^2/2 exactly.
def _sections(l2: int) -> int:
    return l2 // 2 + 2


def _marked_fibres(l2: int) -> int:
    """Marked-fibre count (-[s0]) . ([s0] - L^2/2 [e']).

    Expanded through the hyperbolic Gram block, not through Riemann-Roch,
    so the quantization identity is a genuine cross-check.  The reversed
    section orientation makes the count positive.
    """
    return pair_form(H_GRAM, (-1, 0), (1, -(l2 // 2)))


class QuantizationReportK3(NamedTuple):
    label: str
    l2: int
    h0: int
    bs_count: int
    ok: bool


def verify_quantization_k3(L: Sequence, X: K3Descriptor) -> QuantizationReportK3:
    """Compare h0 = L^2/2 + 2 (Riemann-Roch) with :func:`_marked_fibres` for one class."""
    l2 = _counting_square(L, X)
    h = _sections(l2)
    n = _marked_fibres(l2)
    return QuantizationReportK3(label=X.label, l2=l2, h0=h, bs_count=n, ok=(h == n))


def _reflect_columns(xs: Sequence, delta: Sequence, X: K3Descriptor) -> list:
    """Coordinates of x + (x.delta) delta, one entry per coordinate.

    ``xs`` and ``delta`` are exact coordinates (ints or Fractions); their
    pairing through the integer Gram matrix is the reflection coefficient.
    """
    coeff = pair_form(X.ring.gram, xs, delta)
    return [x + coeff * d for x, d in zip(xs, delta)]


def _minus2_axes(roots: Sequence[Sequence], X: K3Descriptor) -> list:
    """(root, Gram applied to the root) for each root, as two tuples, checked
    to have square -2."""
    axes = []
    for d in X.ring._divisors(roots):
        gram_d = apply_form(X.ring.gram, d)
        if sum(map(mul, d, gram_d)) != -2:
            raise LatticeError("reflection axis must have square -2")
        axes.append((tuple(d), tuple(gram_d)))
    return axes


_INT = frozenset({int})


def _walk_axes(roots: Sequence[Sequence], X: K3Descriptor) -> Sequence:
    """``X.root_axes`` when ``roots`` equal ``X.roots`` as tuples of ints, else
    :func:`_minus2_axes` of the foreign roots."""
    if type(roots) is tuple:
        # the types before the values: an entry that only compares equal to
        # an int (a float, a bool) is foreign input, refused by _minus2_axes
        for r in roots:
            if type(r) is not tuple or set(map(type, r)) - _INT:
                break
        else:
            if roots == X.roots:
                return X.root_axes
    return _minus2_axes(roots, X)


def reflect_minus2(x: Sequence, delta: Sequence, X: K3Descriptor) -> tuple:
    """Reflection x + (x.delta) delta in a sphere class of square -2."""
    ((delta, _),) = _minus2_axes([delta], X)
    (x,) = X.ring._divisors([x])
    return tuple(map(Fraction, _reflect_columns(x, delta, X)))


class WalkResult(NamedTuple):
    vector: tuple
    steps: int
    applied: tuple  # indices into the supplied root list, in order


MAX_WALK_STEPS = 64


def walk_batch(points: Sequence[Sequence], roots: Sequence[Sequence], X: K3Descriptor) -> list:
    """:func:`walk_to_chamber` for each of several classes.

    Each root comes with the Gram matrix applied to it, so a point pairs
    with a root as a dot product.  On the descriptor's own roots these
    pairs are ``X.root_axes``, checked when ``X`` was built; foreign roots
    are checked to have square -2 and Gram-applied once per call.  Each
    point then walks on its own: it reflects in its first root with a
    negative pairing until it has none.  The first point that still has
    one after ``MAX_WALK_STEPS`` reflections raises a
    :class:`LatticeError` that names its starting class.

    Returns one pair (end point, indices of the applied roots) per point.
    """
    axes = _walk_axes(roots, X)
    walks = []
    for start in X.ring._divisors(points):
        x, applied = start, []
        while True:
            for j, (d, gram_d) in enumerate(axes):
                coeff = sum(map(mul, x, gram_d))
                if coeff < 0:
                    break
            else:
                break
            if len(applied) == MAX_WALK_STEPS:
                raise LatticeError(
                    f"no chamber reached within {MAX_WALK_STEPS} reflections from "
                    f"({', '.join(map(str, start))})"
                )
            x = [a + coeff * b for a, b in zip(x, d)]
            applied.append(j)
        walks.append((tuple(x), tuple(applied)))
    return walks


def walk_to_chamber(x: Sequence, roots: Sequence[Sequence], X: K3Descriptor) -> WalkResult:
    """Reflect until x pairs nonnegatively with every root (bounded).

    Applies, at each step, the first root with negative pairing.  This is
    :func:`walk_batch` on one point, so it raises as that does: for a root
    whose square is not -2, and when no chamber is reached within
    ``MAX_WALK_STEPS`` reflections.
    """
    ((end, applied),) = walk_batch([x], roots, X)
    return WalkResult(vector=tuple(map(Fraction, end)), steps=len(applied), applied=applied)


class MainConditionReport(NamedTuple):
    checks: tuple  # ((name, ok, detail), ...)
    passed: bool


def check_main_condition(
    gram: Sequence[Sequence[int]],
    e: Sequence,
    s: Sequence,
    complement: Sequence[Sequence] = (),
) -> MainConditionReport:
    """Certify a fibre/section pair inside an ambient lattice.

    Checks e^2 = 0, s^2 = -2, e.s = 1, and that every declared complement
    vector is orthogonal to both e and s.  Reports all checks rather than
    stopping at the first failure.
    """
    gram = _int_array(gram, 2, "ambient Gram must be square")
    _check_symmetric(gram, "ambient Gram")

    def pair(a, b) -> Fraction:
        a = [as_fraction(x) for x in a]
        b = [as_fraction(x) for x in b]
        if len(a) != len(gram) or len(b) != len(gram):
            raise ShapeError("vector length must match the ambient Gram size")
        return pair_form(gram, a, b)

    checks = []
    ee = pair(e, e)
    checks.append(("e.e == 0", ee == 0, f"e.e = {ee}"))
    ss = pair(s, s)
    checks.append(("s.s == -2", ss == -2, f"s.s = {ss}"))
    es = pair(e, s)
    checks.append(("e.s == 1", es == 1, f"e.s = {es}"))
    for idx, c in enumerate(complement):
        ce = pair(c, e)
        cs = pair(c, s)
        checks.append(
            (
                f"complement[{idx}] orthogonal",
                ce == 0 and cs == 0,
                f"c.e = {ce}, c.s = {cs}",
            )
        )
    return MainConditionReport(
        checks=tuple(checks), passed=all(ok for _, ok, _ in checks)
    )
