"""K3 lattice calculus: Mukai vectors, mirror classes, quantization counts.

Chern data of a sheaf on a K3 enters as a dim-2 graded vector
(rank, c1, ch2); its Mukai vector is ch * sqrt(td) = (rank, c1, ch2 + rank).
The Euler pairing chi(Hom(E1, E2)) is the Poincare pairing of the dualised
Mukai vector of E1 against that of E2.  As star(sqrt td) = sqrt td on a K3,
that is the Todd-twisted pairing :func:`core.pair_exotic` of the Chern
characters, the one Euler pairing of every dimension; a simple sheaf moves
in a moduli space of dimension 2 - chi(Hom(E, E)).

The mirror of a polarising class L is the sphere class [s] + L - L^2/2 [e]
in the lattice spanned by a section [s] ([s]^2 = -2), a fibre [e]
([e]^2 = 0, [e].[s] = 1) and the Picard block; the Picard coordinates of
the image carry an imaginary-unit marker that is bookkeeping, never a
number.  The fibrewise Fourier transform of L projects to
[s0] - L^2/2 [e'] plus a transcendental summand that pairs to zero with
everything algebraic; its support slope is -L^2/2.  Level counting is the
content of the quantization check: h^0(L) = L^2/2 + 2 sections against
(-[s0]) . ([s0] - L^2/2 [e']) = 2 + L^2/2 marked fibres, computed from two
independent expansions.

Spheres of square -2 act on the Picard block by x -> x + (x.delta) delta;
the bounded chamber walk repeatedly applies reflections until a target
class pairs nonnegatively with every supplied root (Vinberg's walk into a
fundamental chamber).  Divisor coordinates enter through
``RingDescriptor._divisors`` and ``_integer_divisor``.  The Gram lattice
is even, so L^2, the mirror and transform coefficients and both counts
are Python ints.  :func:`check_main_condition` certifies a hyperbolic
summand candidate (e, s) by e^2 = 0, s^2 = -2, e.s = 1 and orthogonality
of the declared complement, and reports every check.

``K3Descriptor`` checks its input and is a dataclass; the mirror,
transform, count, walk and main-condition results only carry values and
are ``NamedTuple``s.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from operator import mul
from typing import NamedTuple, Sequence

from .core import (
    GradedVector,
    LatticeError,
    RingDescriptor,
    ShapeError,
    ToddData,
    _as_int,
    _check_symmetric,
    _int_array,
    apply_form,
    as_fraction,
    mukai_vector,
    pair_exotic,
    pair_form,
)

# Euler characteristic of every K3 surface; an elliptic fibration with only
# nodal fibres has exactly this many singular fibres.
EULER_K3 = 24

# Section/fibre Gram block of the mirror lattice: [s]^2 = -2, [s].[e] = 1,
# [e]^2 = 0.
H_GRAM = ((-2, 1), (1, 0))


@dataclass(frozen=True)
class K3Descriptor:
    """A K3 Picard lattice plus optional root and fibration metadata.

    ``root_axes`` holds, for each declared root, the pair (root, Gram
    applied to the root), built and square-checked here once; a walk on
    the descriptor's own roots reads it instead of checking them again.
    """

    ring: RingDescriptor
    label: str = "k3"
    roots: tuple = ()
    singular_fibres: int | None = None
    root_axes: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.ring.dim != 2:
            raise ShapeError("K3Descriptor needs a dim-2 ring")
        roots = _int_array(self.roots, 2, "roots must be a sequence of divisor coordinate vectors")
        axes = []
        for r in roots:
            if len(r) != self.ring.picard_rank:
                raise ShapeError("divisor coordinates must match picard_rank")
            gram_r = tuple(apply_form(self.ring.gram, r))
            if sum(map(mul, r, gram_r)) != -2:
                raise LatticeError(f"declared root {r} has square != -2")
            axes.append((r, gram_r))
        object.__setattr__(self, "roots", roots)
        object.__setattr__(self, "root_axes", tuple(axes))
        if self.singular_fibres is not None:
            count = _as_int(self.singular_fibres)
            if count != EULER_K3:
                raise LatticeError(
                    f"elliptic K3 fibration must have {EULER_K3} singular fibres "
                    f"(Euler characteristic), got {count}"
                )
            object.__setattr__(self, "singular_fibres", count)

    @property
    def todd(self) -> ToddData:
        return self.ring.todd


def mukai2(ch: GradedVector, X: K3Descriptor) -> GradedVector:
    """Mukai vector (rank, c1, ch2 + rank) of a Chern-data vector."""
    return mukai_vector(ch, X.ring)


def euler_pairing2(ch1: GradedVector, ch2: GradedVector, X: K3Descriptor) -> Fraction:
    """chi(Hom(E1, E2)): the Todd-twisted pairing :func:`core.pair_exotic`."""
    return pair_exotic(ch1, ch2, X.ring)


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
    h = (
        a.s * b.s * H_GRAM[0][0]
        + a.s * b.e * H_GRAM[0][1]
        + a.e * b.s * H_GRAM[1][0]
        + a.e * b.e * H_GRAM[1][1]
    )
    return h + pair_form(X.ring.gram, a.pic, b.pic)


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
    v1 = (-1, 0)            # -[s0]
    v2 = (1, -(l2 // 2))    # [s0] - L^2/2 [e']
    return sum(v1[i] * H_GRAM[i][j] * v2[j] for i in range(2) for j in range(2))


def h0_k3(L: Sequence, X: K3Descriptor) -> int:
    """Section count L^2/2 + 2 from Riemann-Roch with vanishing."""
    return _sections(_counting_square(L, X))


def bs_count_k3(L: Sequence, X: K3Descriptor) -> int:
    """Marked-fibre count (-[s0]) . ([s0] - L^2/2 [e']).

    Expanded through the hyperbolic Gram block, not through Riemann-Roch,
    so the quantization identity is a genuine cross-check.  The reversed
    section orientation makes the count positive.
    """
    return _marked_fibres(_counting_square(L, X))


class QuantizationReportK3(NamedTuple):
    label: str
    l2: int
    h0: int
    bs_count: int
    ok: bool


def verify_quantization_k3(L: Sequence, X: K3Descriptor) -> QuantizationReportK3:
    """Compare section count and marked-fibre count for one class."""
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
    """(root, Gram applied to the root) for each root, checked to have square -2."""
    axes = []
    for d in X.ring._divisors(roots):
        gram_d = apply_form(X.ring.gram, d)
        if sum(map(mul, d, gram_d)) != -2:
            raise LatticeError("reflection axis must have square -2")
        axes.append((d, gram_d))
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
