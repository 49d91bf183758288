"""Calabi-Yau threefold lattice: Riemann-Roch, skew Euler form, mirror map.

A threefold here has vanishing first Chern class, so its Todd class is
(1, 0, c2/12, 0) and the holomorphic Euler characteristic of a bundle is
the top block of ch * td; for the structure sheaf that is 0.  The Euler
pairing chi(E1^ (x) E2) is the Todd-twisted skew form, which annihilates
the diagonal: the virtual deformation dimension of any class is 0.

The mirror of a class u (in Mukai normalization) lives in the middle
cohomology of the mirror fibration.  Writing w = u * sqrt(td)^{-1}, the
image is

    w0 [s0] + w3 [e'] + psi1(w1) + psi2(w2)

with [s0] the zero-section class, [e'] the fibre class and psi1/psi2 the
transported divisor/curve blocks.  The middle-cohomology form is skew with
[s0].[e'] = 1 and psi-blocks dual to each other; orientations are fixed so
the transported pairing of Chern characters reproduces the Euler form
exactly.  The image is stored as w itself: :class:`MirrorClass3` is the
dim-3 graded vector w with its blocks named s0, psi1, psi2 and e, and
:func:`mirror_pairing3` pairs two images on their numerators.  The span
of the fundamental class, the second Chern class and the point class is
closed under everything above and both restricted forms degenerate
exactly along the second Chern class.

Only flat fibrewise pairings are modeled.
"""

from __future__ import annotations

import warnings
from fractions import Fraction
from typing import Sequence

from .core import (
    GradedVector,
    LatticeError,
    RingDescriptor,
    ShapeError,
    ToddData,
    _dot,
    blocks_of,
    isometry_failures,
    pair_exotic,
    pair_sym,
    todd_multiply,
)
from .shared import ReadOnly


class NonIntegralEulerWarning(UserWarning):
    """Euler characteristic came out non-integral: not a genuine bundle."""


class CY3Descriptor(ReadOnly):
    """Triple-intersection data of a threefold with trivial canonical class."""

    _fields = ("ring", "label")

    def __init__(self, ring: RingDescriptor, label: str = "cy3"):
        if ring.dim != 3:
            raise ShapeError("CY3Descriptor needs a dim-3 ring")
        self.__dict__.update(ring=ring, label=label)

    @property
    def todd(self) -> ToddData:
        return self.ring.todd

    @property
    def k_vector(self) -> GradedVector:
        """Second Chern class as a degree-4 vector in curve coordinates."""
        k = self.ring.picard_rank
        return GradedVector(3, (0, (0,) * k, tuple(self.ring.c2), 0))


def line_bundle_ch(L: Sequence, X: CY3Descriptor) -> GradedVector:
    """Chern character (1, L, L^2/2, L^3/6) of an integral divisor class."""
    L = X.ring._integer_divisor(L)
    outer = [x * y for x in L for y in L]
    square = [_dot(plane, outer) for plane in X.ring.cubic]
    # (1, L, L^2/2, L^3/6) over the denominator 6, as one list
    nums = [6]
    nums += [6 * x for x in L]
    nums += [3 * x for x in square]
    nums.append(_dot(square, L))
    return GradedVector._of_numerators(3, nums, 6)


def chi_bundle3(ch: GradedVector, X: CY3Descriptor) -> Fraction:
    """Holomorphic Euler characteristic: top block of ch * td.

    Read as the last numerator of :func:`core.todd_multiply` over its
    denominator; the whole product is built and reduced.  Non-integral output
    is legal input-wise but cannot come from a bundle, so it is flagged
    with :class:`NonIntegralEulerWarning`.
    """
    w = todd_multiply(ch, X.ring, "td")
    return _flag_nonintegral(Fraction(w.nums[-1], w.den))


def _flag_nonintegral(chi: Fraction) -> Fraction:
    """``chi``, after a :class:`NonIntegralEulerWarning` at the caller's caller
    if it is not an integer."""
    if chi.denominator != 1:
        warnings.warn(
            f"chi = {chi} is not an integer; input is not a bundle class",
            NonIntegralEulerWarning,
            stacklevel=3,
        )
    return chi


def euler_pairing3(ch1: GradedVector, ch2: GradedVector, X: CY3Descriptor) -> Fraction:
    """Skew Euler pairing chi(E1^ (x) E2) of two Chern characters."""
    return pair_exotic(ch1, ch2, X.ring)


class MirrorClass3(GradedVector):
    """Middle-cohomology class on the mirror: section, fibre, psi blocks.

    The dim-3 graded vector with blocks (s0, psi1, psi2, e), so storage,
    reduction, equality, hashing and input checks are those of
    :class:`GradedVector`; the four names read its ``blocks`` view.
    """

    def __init__(self, s0, e, psi1, psi2):
        GradedVector.__init__(self, 3, (s0, psi1, psi2, e))

    s0 = property(lambda self: self.blocks[0])
    psi1 = property(lambda self: self.blocks[1])
    psi2 = property(lambda self: self.blocks[2])
    e = property(lambda self: self.blocks[3])

    def __repr__(self):
        return (
            f"MirrorClass3(s0={self.s0!r}, e={self.e!r}, "
            f"psi1={self.psi1!r}, psi2={self.psi2!r})"
        )


def mirror_cy3(u: GradedVector, X: CY3Descriptor) -> MirrorClass3:
    """Mirror image of a Mukai-normalized class: the preimage w = u *
    sqrt(td)^{-1} itself, its blocks read as (s0, psi1, psi2, e).

    w must have integral rank and divisor blocks (the lattice-level
    constraints), checked on its numerators; curve and top blocks may be
    rational, as honest Chern data is.
    """
    if u.dim != 3:
        raise ShapeError("mirror_cy3 needs a dim-3 graded vector")
    w = todd_multiply(u, X.ring, "sqrt_td_inv")
    nums, den = w.nums, w.den
    if nums[0] % den:
        raise LatticeError(f"preimage rank {w.blocks[0]} is not integral")
    if any(x % den for x in nums[1:X.ring.picard_rank + 1]):
        raise LatticeError(f"preimage divisor block {w.blocks[1]} is not integral")
    return MirrorClass3._of_numerators(3, nums, den)


def mirror_pairing3(a: MirrorClass3, b: MirrorClass3) -> Fraction:
    """Skew middle-cohomology pairing, on the numerators.

    [s0].[e'] = 1 and the psi blocks are dual to each other with the
    orientation psi2 . psi1 = +1 (the sign that transports the Euler form
    without correction terms).
    """
    if len(a.nums) != len(b.nums):
        raise ShapeError("psi blocks of both classes must have one length")
    a0, a1, a2, a3 = blocks_of(3, a.nums)
    b0, b1, b2, b3 = blocks_of(3, b.nums)
    return Fraction(a0 * b3 - a3 * b0 - _dot(a1, b2) + _dot(a2, b1), a.den * b.den)


def isometry_certificate3(X: CY3Descriptor) -> tuple:
    """The mirror isometry on every pair of basis classes: the mirror
    pairing of the images of the Mukai vectors u * td against the Euler
    pairing :func:`core.pair_exotic` of u and v.

    Both sides are bilinear in the flat coordinates of u and v, so
    agreement on the n^2 pairs (e_i, e_j) of :meth:`GradedVector.basis`
    proves the isometry for every pair of classes.  Both pairings run on
    the numerators of the classes.  Returns the number of pairs and the
    failures of :func:`core.isometry_failures`, each giving the two
    numbers of that function's report.
    """
    basis = GradedVector.basis(3, X.ring.picard_rank)
    images = [mirror_cy3(todd_multiply(e, X.ring, "td"), X) for e in basis]
    failures = isometry_failures(
        basis, images, lambda u, v: pair_exotic(u, v, X.ring), mirror_pairing3
    )
    return len(basis) ** 2, failures


def gft_s0_intersection3(L: Sequence, X: CY3Descriptor) -> Fraction:
    """Intersection of the transformed bundle class with the zero section.

    Equals chi(O(L)); this number is simultaneously the marked-fibre count
    and the support slope of the transform.  Computed as (2 L^3 + c2.L)/12
    from the cubic planes and ``c2``, not through the Todd product of
    :func:`chi_bundle3`; a non-integral value warns as that does.
    """
    L = X.ring._integer_divisor(L)
    outer = [x * y for x in L for y in L]
    cube = _dot([_dot(plane, outer) for plane in X.ring.cubic], L)
    return _flag_nonintegral(Fraction(2 * cube + _dot(X.ring.c2, L), 12))


class Rank3Sublattice(ReadOnly):
    """Read-only restriction of both forms to <[X], c2, [pt]>.

    Both restricted Gram matrices are degenerate and the second Chern
    class generates the kernel; that is asserted at construction.
    """

    _fields = ("basis_labels", "gram_sym", "gram_exotic")

    def __init__(self, basis_labels: tuple, gram_sym: tuple, gram_exotic: tuple):
        for gram in (gram_sym, gram_exotic):
            mid_row = gram[1]
            mid_col = tuple(row[1] for row in gram)
            if any(x != 0 for x in mid_row) or any(x != 0 for x in mid_col):
                raise RuntimeError(
                    "second Chern class is not in the kernel of the "
                    "restricted form; implementation bug"
                )
        self.__dict__.update(
            basis_labels=basis_labels, gram_sym=gram_sym, gram_exotic=gram_exotic
        )


def canonical_rank3_sublattice(X: CY3Descriptor) -> Rank3Sublattice:
    """Restrict both pairings to the span of [X], c2 and [pt]."""
    k = X.ring.picard_rank
    basis = (
        GradedVector.unit(3, k),
        X.k_vector,
        GradedVector.point(3, k),
    )
    gram_sym = tuple(
        tuple(pair_sym(a, b, X.ring) for b in basis) for a in basis
    )
    gram_exotic = tuple(
        tuple(pair_exotic(a, b, X.ring) for b in basis) for a in basis
    )
    return Rank3Sublattice(
        basis_labels=("[X]", "c2", "[pt]"),
        gram_sym=gram_sym,
        gram_exotic=gram_exotic,
    )
