"""K3 lattice calculus: Mukai vectors, mirror classes, quantization counts.

Chern data of a sheaf on a K3 enters as a dim-2 graded vector
(rank, c1, ch2); its Mukai vector is ch * sqrt(td) = (rank, c1, ch2 + rank).
The Euler pairing chi(Hom(E1, E2)) is the Poincare pairing of the dualised
Mukai vector of E1 against that of E2, and a simple sheaf moves in a moduli
space of dimension 2 - chi(Hom(E, E)).

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
fundamental chamber), for a whole batch of classes at once.  A hyperbolic
summand candidate (e, s) is certified by e^2 = 0, s^2 = -2, e.s = 1 and
orthogonality of the declared complement.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .core import (
    GradedVector,
    IntegerMatrix,
    LatticeError,
    RingDescriptor,
    ShapeError,
    ToddData,
    _as_int,
    _check_symmetric,
    _entry,
    as_fraction,
    mukai_vector,
    pair_sym,
    star,
)

# Euler characteristic of every K3 surface; an elliptic fibration with only
# nodal fibres has exactly this many singular fibres.
EULER_K3 = 24

# Section/fibre Gram block of the mirror lattice: [s]^2 = -2, [s].[e] = 1,
# [e]^2 = 0.
H_GRAM = ((-2, 1), (1, 0))


@dataclass(frozen=True)
class K3Descriptor:
    """A K3 Picard lattice plus optional root and fibration metadata."""

    ring: RingDescriptor
    label: str = "k3"
    roots: tuple = ()
    singular_fibres: int | None = None

    def __post_init__(self):
        if self.ring.dim != 2:
            raise ShapeError("K3Descriptor needs a dim-2 ring")
        roots = tuple(tuple(_as_int(x) for x in r) for r in self.roots)
        for r in roots:
            if len(r) != self.ring.picard_rank:
                raise ShapeError("divisor coordinates must match picard_rank")
            if self.ring._gram_form.pair_columns(r, r) != -2:
                raise LatticeError(f"declared root {r} has square != -2")
        object.__setattr__(self, "roots", roots)
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
    """chi(Hom(E1, E2)) as the Poincare pairing of Mukai vectors."""
    m1 = mukai2(ch1, X)
    m2 = mukai2(ch2, X)
    return pair_sym(star(m1), m2, X.ring)


def moduli_dim2(ch: GradedVector, X: K3Descriptor) -> int:
    """Expected moduli dimension 2 - chi(Hom(E, E*dual-twisted))."""
    m = mukai2(ch, X)
    val = 2 - pair_sym(m, star(m), X.ring)
    if val.denominator != 1:
        raise LatticeError(f"moduli dimension {val} is not an integer")
    return int(val)


def _integer_divisor(L: Sequence, X: K3Descriptor) -> tuple:
    """Integer coordinates of a foreign divisor class, checked against the ring."""
    (out,) = X.ring._divisors(L)
    if any(x.denominator != 1 for x in out):
        raise LatticeError("divisor class must be integral")
    return tuple(int(x) for x in out)


def _square(L: tuple, X: K3Descriptor) -> Fraction:
    """L^2 of integer coordinates, as from :func:`_integer_divisor`."""
    return Fraction(X.ring._gram_form.pair_columns(L, L))


@dataclass(frozen=True)
class MirrorClassK3:
    """Sphere class [s] + L - L^2/2 [e]; Picard block tagged imaginary.

    ``pic_imaginary`` records that the middle block is multiplied by the
    imaginary unit in the period normalization.  It is a flag on the basis
    choice, not a coefficient, so pairings stay exact integers.
    """

    s: Fraction
    pic: tuple
    e: Fraction
    pic_imaginary: bool = True


def mirror_k3(L: Sequence, X: K3Descriptor) -> MirrorClassK3:
    """Mirror image [s] + L - (L^2/2) [e] of an integral divisor class."""
    L = _integer_divisor(L, X)
    l2 = _square(L, X)
    if l2.denominator != 1 or int(l2) % 2 != 0:
        raise LatticeError(f"L^2 = {l2} is not even; not a divisor class here")
    return MirrorClassK3(
        s=Fraction(1),
        pic=tuple(Fraction(x) for x in L),
        e=-l2 / 2,
    )


def mirror_k3_columns(ls: Sequence, X: K3Descriptor) -> MirrorClassK3:
    """:func:`mirror_k3` of a whole batch of integral classes at once.

    ``ls[c]`` is a numpy object array holding coordinate c of every class.
    Returns the images as one :class:`MirrorClassK3` whose ``pic`` and
    ``e`` fields are integer arrays.  The first class (in array order)
    with odd L^2 raises the :class:`LatticeError` of :func:`mirror_k3`.
    """
    l2 = X.ring._gram_form.pair_columns(ls, ls)
    odd = l2 % 2 != 0
    if odd.any():
        first = int(odd.argmax())
        mirror_k3([int(x.flat[first]) for x in ls], X)
        raise RuntimeError("batch and per-class mirror maps disagree on parity")
    return MirrorClassK3(s=1, pic=tuple(ls), e=-(l2 // 2))


def mirror_pairing_k3(a: MirrorClassK3, b: MirrorClassK3, X: K3Descriptor) -> Fraction:
    """Full mirror-lattice pairing: hyperbolic block plus Picard block.

    The formula is elementwise, so classes whose fields are arrays (as from
    :func:`mirror_k3_columns`) pair to an array, one value per pair.
    """
    k = X.ring.picard_rank
    if len(a.pic) != k or len(b.pic) != k:
        raise ShapeError("divisor coordinates must match picard_rank")
    h = (
        a.s * b.s * H_GRAM[0][0]
        + a.s * b.e * H_GRAM[0][1]
        + a.e * b.s * H_GRAM[1][0]
        + a.e * b.e * H_GRAM[1][1]
    )
    # the Gram matrix is integral: its compiled form has denominator 1
    return h + X.ring._gram_form.pair_columns(a.pic, b.pic)


@dataclass(frozen=True)
class GftClassK3:
    """Algebraic shadow [s0] - (L^2/2) [e'] of the transformed bundle.

    The transform also carries a transcendental 2-cycle summand; it pairs
    to zero with every algebraic class, so it is kept as an opaque tag.
    """

    s0: Fraction
    e: Fraction
    transcendental_tag: str = "omega'"

    @property
    def slope(self) -> Fraction:
        # support slope of the multisection: e-coefficient over s0-coefficient
        return self.e / self.s0


def gft_class_k3(L: Sequence, X: K3Descriptor) -> GftClassK3:
    """Transform class of a polarising bundle; needs L^2 > 0 and even."""
    L = _integer_divisor(L, X)
    l2 = _square(L, X)
    if l2 <= 0:
        raise LatticeError(f"need a polarising class with L^2 > 0, got {l2}")
    if int(l2) % 2 != 0:
        raise LatticeError(f"L^2 = {l2} is not even")
    return GftClassK3(s0=Fraction(1), e=-l2 / 2)


def _counting_square(L: Sequence, X: K3Descriptor) -> Fraction:
    """L^2 of a foreign divisor class, checked to lie in the counting range."""
    l2 = _square(_integer_divisor(L, X), X)
    if l2 < -2:
        raise LatticeError(f"L^2 = {l2} < -2 is outside the counting range")
    return l2


def _sections(l2: Fraction) -> Fraction:
    return l2 / 2 + 2


def _marked_fibres(l2: Fraction) -> Fraction:
    v1 = (Fraction(-1), Fraction(0))            # -[s0]
    v2 = (Fraction(1), -l2 / 2)                 # [s0] - L^2/2 [e']
    return sum(
        (v1[i] * H_GRAM[i][j] * v2[j] for i in range(2) for j in range(2)),
        Fraction(0),
    )


def h0_k3(L: Sequence, X: K3Descriptor) -> Fraction:
    """Section count L^2/2 + 2 from Riemann-Roch with vanishing."""
    return _sections(_counting_square(L, X))


def bs_count_k3(L: Sequence, X: K3Descriptor) -> Fraction:
    """Marked-fibre count (-[s0]) . ([s0] - L^2/2 [e']).

    Expanded through the hyperbolic Gram block, not through Riemann-Roch,
    so the quantization identity is a genuine cross-check.  The reversed
    section orientation makes the count positive.
    """
    return _marked_fibres(_counting_square(L, X))


@dataclass(frozen=True)
class QuantizationReportK3:
    label: str
    l2: Fraction
    h0: Fraction
    bs_count: Fraction
    ok: bool


def verify_quantization_k3(L: Sequence, X: K3Descriptor) -> QuantizationReportK3:
    """Compare section count and marked-fibre count for one class."""
    l2 = _counting_square(L, X)
    h = _sections(l2)
    n = _marked_fibres(l2)
    return QuantizationReportK3(label=X.label, l2=l2, h0=h, bs_count=n, ok=(h == n))


def _reflect_columns(xs: Sequence, delta: Sequence, X: K3Descriptor) -> list:
    """Coordinates of x + (x.delta) delta, one entry per coordinate.

    ``xs[c]`` and ``delta[c]`` are exact numbers, or numpy object arrays
    holding coordinate c of a batch, as in :meth:`IntegerMatrix.pair_columns`.
    The Gram matrix is integral, so its compiled form has denominator 1 and
    the pairing is the reflection coefficient itself.
    """
    coeff = X.ring._gram_form.pair_columns(xs, delta)
    return [x + coeff * d for x, d in zip(xs, delta)]


def reflect_minus2(x: Sequence, delta: Sequence, X: K3Descriptor) -> tuple:
    """Reflection x + (x.delta) delta in a sphere class of square -2."""
    (delta,) = X.ring._divisors(delta)
    if X.ring._gram_form.pair_columns(delta, delta) != -2:
        raise LatticeError("reflection axis must have square -2")
    (x,) = X.ring._divisors(x)
    return tuple(_reflect_columns(x, delta, X))


@dataclass(frozen=True)
class WalkResult:
    vector: tuple
    steps: int
    applied: tuple  # indices into the supplied root list, in order


MAX_WALK_STEPS = 64


def walk_batch(
    xs,
    roots: Sequence[Sequence],
    X: K3Descriptor,
    max_steps: int = MAX_WALK_STEPS,
) -> tuple:
    """:func:`walk_to_chamber` for a whole batch of classes at once.

    ``xs`` is an (n, k) numpy object array of exact coordinates.  Every
    root's square is checked once, up front.  At each step all samples
    still walking are paired with all roots in one product with the
    compiled Gram matrix; a sample with no negative pairing leaves the
    batch, and every other one reflects in its first root with a negative
    pairing.  If samples still have one after ``max_steps`` reflections,
    the first of them in sample order raises a :class:`LatticeError` that
    names its starting class.

    Returns the end points, laid out as ``xs``, and the walk history: one
    pair (sample indices, root indices) of arrays per step.
    """
    import numpy as np

    k = X.ring.picard_rank
    gram = X.ring._gram_form
    root_rows = [[_entry(x) for x in d] for d in roots]
    for d in root_rows:
        if len(d) != k:
            raise ShapeError("divisor coordinates must match picard_rank")
        if gram.pair_columns(d, d) != -2:
            raise LatticeError("reflection axis must have square -2")
    if xs.ndim != 2 or xs.shape[1] != k:
        raise ShapeError("divisor coordinates must match picard_rank")
    root_rows = np.array(root_rows, dtype=object).reshape(-1, k)
    # column j is the Gram matrix applied to root j, so x @ gram_roots pairs
    # x with every root; the denominator of the integral Gram form is 1
    gram_roots = np.array([gram.apply_columns(d) for d in root_rows], dtype=object)
    gram_roots = gram_roots.reshape(-1, k).T
    ends = xs.copy()
    live = np.arange(len(xs))
    walking_x = xs
    history = []
    for step in range(max_steps + 1):
        pairing = walking_x @ gram_roots
        negative = pairing < 0
        walking = negative.any(axis=1)
        if not walking.all():
            ends[live[~walking]] = walking_x[~walking]
            live, walking_x = live[walking], walking_x[walking]
            negative, pairing = negative[walking], pairing[walking]
        if not len(live):
            break
        if step == max_steps:
            start = ", ".join(map(str, xs[live[0]]))
            raise LatticeError(
                f"no chamber reached within {max_steps} reflections from ({start})"
            )
        first = negative.argmax(axis=1)
        coeff = pairing[np.arange(len(live)), first]
        walking_x = walking_x + coeff[:, None] * root_rows[first]
        history.append((live, first))
    return ends, history


def walk_to_chamber(
    x: Sequence,
    roots: Sequence[Sequence],
    X: K3Descriptor,
    max_steps: int = MAX_WALK_STEPS,
) -> WalkResult:
    """Reflect until x pairs nonnegatively with every root (bounded).

    Applies, at each step, the first root with negative pairing.  This is
    the masked batch walk :func:`walk_batch` on a batch of one, so it
    raises as that does: for a root whose square is not -2, and when no
    chamber is reached within ``max_steps`` reflections.
    """
    import numpy as np

    xs = np.array([[_entry(v) for v in x]], dtype=object)
    ends, history = walk_batch(xs, roots, X, max_steps)
    return WalkResult(
        vector=tuple(map(Fraction, ends[0])),
        steps=len(history),
        applied=tuple(int(first[0]) for _, first in history),
    )


@dataclass(frozen=True)
class MainConditionReport:
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
    gram = tuple(tuple(_as_int(x) for x in row) for row in gram)
    _check_symmetric(gram, "ambient Gram")
    form = IntegerMatrix.from_rationals(gram)

    def pair(a, b) -> Fraction:
        a = [as_fraction(x) for x in a]
        b = [as_fraction(x) for x in b]
        if len(a) != len(gram) or len(b) != len(gram):
            raise ShapeError("vector length must match the ambient Gram size")
        return form.pair_columns(a, b)

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


@dataclass(frozen=True)
class HyperbolicDecomposition:
    """A certified fibre/section pair; construction re-runs the checks."""

    gram: tuple
    e: tuple
    s: tuple
    complement: tuple = ()

    def __post_init__(self):
        report = check_main_condition(self.gram, self.e, self.s, self.complement)
        if not report.passed:
            failed = [name for name, ok, _ in report.checks if not ok]
            raise LatticeError(f"hyperbolic pair checks failed: {failed}")
