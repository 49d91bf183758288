"""Threefold lattice engine: skew Euler form, chi, mirror map, sublattice."""

import json
import random
import warnings
from fractions import Fraction

import pytest

from latmirror import (
    CY3Descriptor,
    GradedVector,
    LatticeError,
    MirrorClass3,
    NonIntegralEulerWarning,
    RingDescriptor,
    canonical_rank3_sublattice,
    chi_bundle3,
    cup,
    euler_pairing3,
    gft_s0_intersection3,
    load_cy3_fixture,
    line_bundle_ch,
    mirror_cy3,
    mirror_isometry_check3,
    mirror_pairing3,
    todd_data,
    vdim3,
)
from latmirror import parse_manifest, run_verify
from latmirror.cli import main
from latmirror.core import pair_exotic, todd_multiply
from latmirror.cy3 import isometry_certificate3

from mutants import add_unit_entry
from oracles import p1x4_2222

O3 = GradedVector(3, (1, (0,), (0,), 0))


def p1x4():
    cubic, c2 = p1x4_2222()
    return CY3Descriptor(
        ring=RingDescriptor(dim=3, picard_rank=4, cubic=cubic, c2=c2), label="p1x4"
    )


def rand_ch(rng, k, lo=-9, hi=9):
    return GradedVector(
        3,
        (
            rng.randint(lo, hi),
            tuple(rng.randint(lo, hi) for _ in range(k)),
            tuple(rng.randint(lo, hi) for _ in range(k)),
            rng.randint(lo, hi),
        ),
    )


# ----------------------------------------------------------------- chi ----

def test_chi_structure_sheaf_is_zero(quintic, bicubic):
    assert chi_bundle3(O3, quintic) == 0
    o2 = GradedVector(3, (1, (0, 0), (0, 0), 0))
    assert chi_bundle3(o2, bicubic) == 0


def test_chi_quintic_hand_expansion(quintic):
    # chi(O(kH)) = k^3 H^3/6 + k (H.c2)/12 with H^3 = 5, H.c2 = 50
    for k, expected in ((1, 5), (2, 15), (3, 35)):
        pieces = Fraction(5 * k**3, 6) + Fraction(50 * k, 12)
        assert pieces == expected
        got = chi_bundle3(line_bundle_ch((k,), quintic), quintic)
        assert got == expected


def test_chi_quintic_rational_pieces(quintic):
    assert chi_bundle3(line_bundle_ch((1,), quintic), quintic) == Fraction(5, 6) + Fraction(50, 12)
    assert chi_bundle3(line_bundle_ch((3,), quintic), quintic) == Fraction(135, 6) + Fraction(150, 12)


def test_chi_bicubic_hand_expansion(bicubic):
    # triple form 9ab(a+b) from the two hyperplane pullbacks; c2.H_i = 36
    for (a, b), expected in (
        ((1, 0), 3),
        ((0, 1), 3),
        ((1, 1), 9),
        ((2, 1), 18),
        ((2, 2), 36),
    ):
        pieces = Fraction(9 * a * b * (a + b), 6) + Fraction(36 * (a + b), 12)
        assert pieces == expected
        assert chi_bundle3(line_bundle_ch((a, b), bicubic), bicubic) == expected


def test_line_bundle_ch_closed_form(quintic, bicubic):
    # (1, L, L^2/2, L^3/6) from the raw tensor, with D_abc summed by hand
    cases = (
        (quintic, [5], ((1,), (-2,), (3,))),
        (bicubic, [0, 3, 3, 3, 3, 3, 3, 0], ((1, 0), (2, -1), (-3, 4))),
        (p1x4(), p1x4_2222()[0], ((1, 0, 0, 0), (1, 1, 1, 1), (1, -2, 3, 1), (-5, 4, 0, 2))),
    )
    for X, flat, divisors in cases:
        k = X.ring.picard_rank
        for L in divisors:
            square = [
                sum(flat[(a * k + b) * k + d] * L[a] * L[b] for a in range(k) for b in range(k))
                for d in range(k)
            ]
            cube = sum(x * y for x, y in zip(square, L))
            want = (1, L, tuple(Fraction(x, 2) for x in square), Fraction(cube, 6))
            assert line_bundle_ch(L, X).blocks == want, (X.label, L)
    # on the (2,2,2,2) threefold L^3 = 12 (L1 L2 L3 + L1 L2 L4 + L1 L3 L4 + L2 L3 L4)
    assert line_bundle_ch((1, 1, 1, 1), p1x4()).blocks[3] == 8


def test_chi_nonintegral_warns(quintic):
    odd = GradedVector(3, (1, (0,), (0,), Fraction(1, 4)))
    with pytest.warns(NonIntegralEulerWarning):
        val = chi_bundle3(odd, quintic)
    assert val == Fraction(1, 4)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        chi_bundle3(line_bundle_ch((2,), quintic), quintic)  # integral: no warning


def test_chi_is_the_top_block_of_the_todd_product(quintic, bicubic):
    rng = random.Random(71)
    halves = [Fraction(n, 2) for n in range(-4, 5)]
    sixths = [Fraction(n, 6) for n in range(-7, 8)]
    integral = set()
    for X in (quintic, bicubic, p1x4()):
        k = X.ring.picard_rank
        for _ in range(150):
            ch = GradedVector(
                3,
                (
                    rng.randint(-3, 3),
                    tuple(rng.randint(-4, 4) for _ in range(k)),
                    tuple(rng.choice(halves) for _ in range(k)),
                    rng.choice(sixths),
                ),
            )
            want = todd_multiply(ch, X.ring, "td").blocks[3]
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                got = chi_bundle3(ch, X)
            assert (got, type(got)) == (want, Fraction), (X.label, ch)
            assert [w.category for w in caught] == [NonIntegralEulerWarning] * (
                want.denominator != 1
            )
            integral.add(want.denominator == 1)
    assert integral == {True, False}


# ------------------------------------------------------------ pairing -----

def test_euler_pairing3_example(quintic):
    assert euler_pairing3(O3, line_bundle_ch((1,), quintic), quintic) == 5


def test_euler_pairing3_skew(quintic, bicubic):
    rng = random.Random(61)
    for X in (quintic, bicubic):
        k = X.ring.picard_rank
        for _ in range(1000):
            u = rand_ch(rng, k)
            v = rand_ch(rng, k)
            assert euler_pairing3(u, u, X) == 0
            assert euler_pairing3(u, v, X) == -euler_pairing3(v, u, X)


def test_euler_pairing3_additive(quintic):
    rng = random.Random(67)
    for _ in range(200):
        u = rand_ch(rng, 1)
        v = rand_ch(rng, 1)
        w = rand_ch(rng, 1)
        assert euler_pairing3(u, v + w, quintic) == euler_pairing3(
            u, v, quintic
        ) + euler_pairing3(u, w, quintic)


def test_vdim3(quintic):
    assert vdim3(O3, quintic) == 0
    assert vdim3(line_bundle_ch((1,), quintic), quintic) == 0
    rng = random.Random(71)
    for _ in range(200):
        assert vdim3(rand_ch(rng, 1), quintic) == 0


# ------------------------------------------------------------- mirror -----

def test_mirror_cy3_unit(quintic):
    m = mirror_cy3(quintic.todd.sqrt_td, quintic)
    assert (m.s0, m.e, m.psi1, m.psi2) == (1, 0, (0,), (0,))


def test_mirror_cy3_point(quintic):
    m = mirror_cy3(GradedVector(3, (0, (0,), (0,), 1)), quintic)
    assert (m.s0, m.e, m.psi1, m.psi2) == (0, 1, (0,), (0,))


def test_mirror_cy3_line_bundle(quintic):
    u = cup(line_bundle_ch((1,), quintic), quintic.todd.sqrt_td, quintic.ring)
    m = mirror_cy3(u, quintic)
    # psi blocks carry ch(O(H)) verbatim; e carries ch3 = H^3/6
    assert m.s0 == 1
    assert m.psi1 == (1,)
    assert m.psi2 == (Fraction(5, 2),)
    assert m.e == Fraction(5, 6)


def test_mirror_cy3_rejects_nonintegral_preimage(quintic):
    with pytest.raises(LatticeError):
        mirror_cy3(GradedVector(3, (Fraction(1, 2), (0,), (0,), 0)), quintic)
    with pytest.raises(LatticeError):
        mirror_cy3(GradedVector(3, (1, (Fraction(1, 3),), (0,), 0)), quintic)


def test_mirror_cy3_h_prime_closure(quintic, bicubic):
    # sqrt(td) * (a [X] + b [pt]) lands on a [s0] + b [e'] exactly
    rng = random.Random(73)
    for X in (quintic, bicubic):
        k = X.ring.picard_rank
        zero = (0,) * k
        for _ in range(200):
            a, b = rng.randint(-40, 40), rng.randint(-40, 40)
            u = cup(
                X.todd.sqrt_td,
                GradedVector(3, (a, zero, zero, b)),
                X.ring,
            )
            m = mirror_cy3(u, X)
            assert (m.s0, m.e) == (a, b)
            assert all(x == 0 for x in m.psi1)
            assert all(x == 0 for x in m.psi2)


def test_mirror_isometry_trivial_and_example(quintic):
    rep = mirror_isometry_check3(O3, O3, quintic)
    assert rep.ok and rep.lhs == rep.rhs == 0
    rep = mirror_isometry_check3(O3, line_bundle_ch((1,), quintic), quintic)
    assert rep.ok and rep.lhs == rep.rhs == 5


def test_mirror_isometry_random(quintic, bicubic):
    rng = random.Random(79)
    for X in (quintic, bicubic):
        k = X.ring.picard_rank
        for _ in range(1000):
            rep = mirror_isometry_check3(rand_ch(rng, k), rand_ch(rng, k), X)
            assert rep.ok, (X.label, rep.lhs, rep.rhs)


def test_mirror_pairing3_normalization(quintic):
    # [s0].[e'] = 1 and the psi duality signs
    s0 = MirrorClass3(1, 0, (0,), (0,))
    e = MirrorClass3(0, 1, (0,), (0,))
    assert mirror_pairing3(s0, e) == 1
    assert mirror_pairing3(e, s0) == -1
    p1 = MirrorClass3(0, 0, (1,), (0,))
    p2 = MirrorClass3(0, 0, (0,), (1,))
    assert mirror_pairing3(p1, p2) == -1
    assert mirror_pairing3(p2, p1) == 1
    assert mirror_pairing3(p1, p1) == 0


# ---------------------------------------------------------- GFT corollary -

def test_gft_s0_intersection3(quintic):
    assert gft_s0_intersection3((0,), quintic) == 0
    assert gft_s0_intersection3((1,), quintic) == 5
    assert gft_s0_intersection3((3,), quintic) == 35


def test_gft_s0_matches_chi_on_positive_classes(quintic, bicubic):
    for L in ((1,), (2,), (3,), (7,)):
        assert gft_s0_intersection3(L, quintic) == chi_bundle3(
            line_bundle_ch(L, quintic), quintic
        )
    for L in ((1, 0), (1, 1), (2, 1), (3, 2)):
        assert gft_s0_intersection3(L, bicubic) == chi_bundle3(
            line_bundle_ch(L, bicubic), bicubic
        )


# ---------------------------------------------------------- sublattice ----

def test_rank3_sublattice_forms(quintic, bicubic):
    for X in (quintic, bicubic):
        sub = canonical_rank3_sublattice(X)
        assert sub.basis_labels == ("[X]", "c2", "[pt]")
        assert sub.gram_sym == ((0, 0, 1), (0, 0, 0), (1, 0, 0))
        assert sub.gram_exotic == ((0, 0, 1), (0, 0, 0), (-1, 0, 0))


def test_sqrt_td_inverse_is_inverse(quintic, bicubic):
    for X in (quintic, bicubic):
        prod = cup(X.todd.sqrt_td, X.todd.sqrt_td_inv, X.ring)
        k = X.ring.picard_rank
        assert prod == GradedVector(3, (1, (0,) * k, (0,) * k, 0))


def test_mirror_map_is_an_isometry_on_a_basis(quintic, bicubic):
    # M^T J M = G_euler exactly, with M the flat matrix of u -> mirror_cy3(u * td),
    # J the Gram matrix of the hand-written mirror_pairing3 and G_euler the
    # Gram matrix of pair_exotic on the basis: the isometry for all inputs,
    # not samples
    for X in (quintic, bicubic, p1x4()):
        k = X.ring.picard_rank
        basis = GradedVector.basis(3, k)

        def mirror_class(flat):
            return MirrorClass3(flat[0], flat[-1], tuple(flat[1:1 + k]), tuple(flat[1 + k:-1]))

        J = [[mirror_pairing3(mirror_class(a.nums), mirror_class(b.nums)) for b in basis]
             for a in basis]
        # column j is the flat image of e_j under sqrt(td)^-1 * td
        images = [todd_multiply(todd_multiply(e, X.ring, "td"), X.ring, "sqrt_td_inv")
                  for e in basis]
        M = [[Fraction(w.nums[i], w.den) for w in images] for i in range(len(basis))]
        Mt = [list(col) for col in zip(*M)]
        G = [[pair_exotic(a, b, X.ring) for b in basis] for a in basis]
        assert matmul(matmul(Mt, J), M) == G, X.label


def matmul(a, b):
    return [[sum(x * y for x, y in zip(row, col)) for col in zip(*b)] for row in a]


def test_isometry_certificate_holds_on_every_basis_pair(quintic, bicubic):
    for X in (quintic, bicubic, p1x4()):
        n = 2 * X.ring.picard_rank + 2
        assert isometry_certificate3(X) == (n * n, []), X.label


@pytest.mark.parametrize("factor", ["td", "sqrt_td_inv"])
def test_corrupted_todd_product_fails_the_mirror_isometry(monkeypatch, tmp_path, capsys, factor):
    # one more top-degree entry: the image's fibre coordinate e gains the
    # first divisor coordinate, an integral change the skew form sees
    add_unit_entry(monkeypatch, factor, -1, 1)
    manifest = tmp_path / "m.json"
    manifest.write_text(json.dumps({
        "version": "1",
        "fixtures": ["quintic.json", "bicubic.json"],
        "suites": [{"name": "cy3-mirror-isometry", "params": {}}],
    }))
    report = {r.suite: r for r in run_verify(parse_manifest(manifest)).reports}[
        "cy3-mirror-isometry"
    ]
    assert report.status == "fail"
    for label in ("quintic", "bicubic"):
        X = load_cy3_fixture(label)
        basis = GradedVector.basis(3, X.ring.picard_rank)
        failures = []
        for i, u in enumerate(basis):
            for j, v in enumerate(basis):
                rep = mirror_isometry_check3(u, v, X)
                if not rep.ok:
                    failures.append(f"(e{i}, e{j}): {rep.lhs} != {rep.rhs}")
        check = next(
            c for c in report.checks if c.name == f"{label}: mirror map is an isometry"
        )
        assert failures
        assert check.got == f"{len(failures)}/{len(basis) ** 2} failed; first: {failures[0]}"
        # the command runs the same certificate
        assert main(["cy3", "verify-isometry", "--fixture", label]) == 1
        assert capsys.readouterr().out == (
            f"all {len(basis) ** 2} basis pairs on {label}: "
            f"{len(failures)} FAILURES; first: {failures[0]}\n"
        )


def test_descriptor_requires_dim3(k3_quartic):
    from latmirror import ShapeError

    with pytest.raises(ShapeError):
        CY3Descriptor(ring=k3_quartic.ring)
