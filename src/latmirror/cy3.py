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
exactly.  The span of the fundamental class, the second Chern class and
the point class is closed under everything above and both restricted forms
degenerate exactly along the second Chern class.

Only flat fibrewise pairings are modeled.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from typing import NamedTuple, Sequence

from .core import (
    GradedVector,
    LatticeError,
    RingDescriptor,
    ShapeError,
    ToddData,
    isometry_failures,
    pair_exotic,
    pair_form,
    pair_sym,
    todd_multiply,
)


class NonIntegralEulerWarning(UserWarning):
    """Euler characteristic came out non-integral: not a genuine bundle."""


@dataclass(frozen=True)
class CY3Descriptor:
    """Triple-intersection data of a threefold with trivial canonical class."""

    ring: RingDescriptor
    label: str = "cy3"

    def __post_init__(self):
        if self.ring.dim != 3:
            raise ShapeError("CY3Descriptor needs a dim-3 ring")

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
    square = [pair_form(plane, L, L) for plane in X.ring.cubic]
    cube = sum(x * y for x, y in zip(square, L))
    # (1, L, L^2/2, L^3/6) over the denominator 6
    nums = (6, *(6 * x for x in L), *(3 * x for x in square), cube)
    return GradedVector._of_numerators(3, nums, 6)


def chi_bundle3(ch: GradedVector, X: CY3Descriptor) -> Fraction:
    """Holomorphic Euler characteristic: top block of ch * td.

    Read as the last numerator of :func:`core.todd_multiply` over its
    denominator, without building the other blocks.  Non-integral output
    is legal input-wise but cannot come from a bundle, so it is flagged
    with :class:`NonIntegralEulerWarning`.
    """
    w = todd_multiply(ch, X.ring, "td")
    val = Fraction(w.nums[-1], w.den)
    if val.denominator != 1:
        warnings.warn(
            f"chi = {val} is not an integer; input is not a bundle class",
            NonIntegralEulerWarning,
            stacklevel=2,
        )
    return val


def euler_pairing3(ch1: GradedVector, ch2: GradedVector, X: CY3Descriptor) -> Fraction:
    """Skew Euler pairing chi(E1^ (x) E2) of two Chern characters."""
    return pair_exotic(ch1, ch2, X.ring)


def vdim3(ch: GradedVector, X: CY3Descriptor) -> int:
    """Virtual deformation dimension; identically 0 by skewness.

    The self-pairing is recomputed and asserted: a nonzero value cannot
    come from any input, only from a broken form implementation.
    """
    self_pair = euler_pairing3(ch, ch, X)
    if self_pair != 0:
        raise RuntimeError(
            f"skew form returned nonzero self-pairing {self_pair}; "
            "the pairing implementation is inconsistent"
        )
    return 0


class MirrorClass3(NamedTuple):
    """Middle-cohomology class on the mirror: section, fibre, psi blocks."""

    s0: Fraction
    e: Fraction
    psi1: tuple
    psi2: tuple


def mirror_cy3(u: GradedVector, X: CY3Descriptor) -> MirrorClass3:
    """Mirror image of a Mukai-normalized class.

    The preimage w = u * sqrt(td)^{-1} must have integral rank and divisor
    blocks (the lattice-level constraints); curve and top blocks may be
    rational, as honest Chern data is.
    """
    if u.dim != 3:
        raise ShapeError("mirror_cy3 needs a dim-3 graded vector")
    s0, psi1, psi2, e = todd_multiply(u, X.ring, "sqrt_td_inv").blocks
    if s0.denominator != 1:
        raise LatticeError(f"preimage rank {s0} is not integral")
    if any(x.denominator != 1 for x in psi1):
        raise LatticeError(f"preimage divisor block {psi1} is not integral")
    return MirrorClass3(s0=s0, e=e, psi1=psi1, psi2=psi2)


def mirror_pairing3(a: MirrorClass3, b: MirrorClass3) -> Fraction:
    """Skew middle-cohomology pairing.

    [s0].[e'] = 1 and the psi blocks are dual to each other with the
    orientation psi2 . psi1 = +1 (the sign that transports the Euler form
    without correction terms).
    """
    dot12 = sum(x * y for x, y in zip(a.psi1, b.psi2))
    dot21 = sum(x * y for x, y in zip(a.psi2, b.psi1))
    return a.s0 * b.e - a.e * b.s0 - dot12 + dot21


class IsometryReport3(NamedTuple):
    lhs: Fraction
    rhs: Fraction
    ok: bool


def mirror_isometry_check3(
    u: GradedVector, v: GradedVector, X: CY3Descriptor
) -> IsometryReport3:
    """Verify that mirroring is an isometry onto its image.

    Chern characters u, v are carried to the mirror via their Mukai
    normalization (multiplication by td composed with the mirror map);
    the mirror-side skew pairing must equal the Euler pairing exactly.
    """
    mu = mirror_cy3(todd_multiply(u, X.ring, "td"), X)
    mv = mirror_cy3(todd_multiply(v, X.ring, "td"), X)
    lhs = mirror_pairing3(mu, mv)
    rhs = euler_pairing3(u, v, X)
    return IsometryReport3(lhs=lhs, rhs=rhs, ok=(lhs == rhs))


def isometry_certificate3(X: CY3Descriptor) -> tuple:
    """:func:`mirror_isometry_check3` on every pair of basis classes.

    Both sides are bilinear in the flat coordinates of u and v, so
    agreement on the n^2 pairs (e_i, e_j) of :meth:`GradedVector.basis`
    proves the isometry for every pair of classes.  Returns the number of
    pairs and the failures of :func:`core.isometry_failures`.
    """
    basis = GradedVector.basis(3, X.ring.picard_rank)
    images = [mirror_cy3(todd_multiply(e, X.ring, "td"), X) for e in basis]
    # the skew form is bilinear: pair the images times one common
    # denominator d, in integers, and divide by d^2; pairing the Fraction
    # images instead costs about 2 ms more in a fresh `latmirror verify`
    d = lcm(*(x.denominator for m in images for x in (m.s0, m.e, *m.psi1, *m.psi2)))
    scaled = [
        MirrorClass3(
            s0=int(m.s0 * d),
            e=int(m.e * d),
            psi1=tuple(int(x * d) for x in m.psi1),
            psi2=tuple(int(x * d) for x in m.psi2),
        )
        for m in images
    ]
    failures = isometry_failures(
        basis,
        scaled,
        lambda u, v: pair_exotic(u, v, X.ring),
        lambda a, b: Fraction(mirror_pairing3(a, b), d * d),
    )
    return len(basis) ** 2, failures


def gft_s0_intersection3(L: Sequence, X: CY3Descriptor) -> Fraction:
    """Intersection of the transformed bundle class with the zero section.

    Equals chi(O(L)); this number is simultaneously the marked-fibre count
    and the support slope of the transform.
    """
    return chi_bundle3(line_bundle_ch(L, X), X)


@dataclass(frozen=True)
class Rank3Sublattice:
    """Read-only restriction of both forms to <[X], c2, [pt]>.

    Both restricted Gram matrices are degenerate and the second Chern
    class generates the kernel; that is asserted at construction.
    """

    basis_labels: tuple
    gram_sym: tuple
    gram_exotic: tuple

    def __post_init__(self):
        for gram in (self.gram_sym, self.gram_exotic):
            mid_row = gram[1]
            mid_col = tuple(row[1] for row in gram)
            if any(x != 0 for x in mid_row) or any(x != 0 for x in mid_col):
                raise RuntimeError(
                    "second Chern class is not in the kernel of the "
                    "restricted form; implementation bug"
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
