"""Exact graded arithmetic: products, pairings, duality, Todd data."""

import json
import random
from dataclasses import fields
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from latmirror import (
    GradedVector,
    LatticeError,
    RingDescriptor,
    ShapeError,
    cup,
    format_rational,
    mukai_vector,
    pair_exotic,
    pair_sym,
    parse_rational,
    star,
    todd_data,
)
from latmirror.core import ToddData, as_fraction, todd_multiply

from oracles import p1x4_2222

ELLIPTIC = RingDescriptor.elliptic()
K3_4 = RingDescriptor(dim=2, picard_rank=1, gram=((4,),))
K3_H = RingDescriptor(dim=2, picard_rank=2, gram=((-2, 1), (1, 0)))
QUINTIC = RingDescriptor(dim=3, picard_rank=1, cubic=(5,), c2=(50,))
BICUBIC = RingDescriptor(dim=3, picard_rank=2, cubic=(0, 3, 3, 3, 3, 3, 3, 0), c2=(36, 36))
P1X4 = RingDescriptor(dim=3, picard_rank=4, cubic=p1x4_2222()[0], c2=p1x4_2222()[1])
RINGS = (ELLIPTIC, K3_4, K3_H, QUINTIC, BICUBIC, P1X4)


def gv(ring, *blocks):
    return GradedVector(ring.dim, blocks)


def random_vector(ring, rng, denom=1):
    def scalar():
        return Fraction(rng.randint(-9, 9), rng.randint(1, denom))

    blocks = [scalar()]
    for _ in range(ring.dim - 1):
        blocks.append(tuple(scalar() for _ in range(ring.picard_rank)))
    blocks.append(scalar())
    return GradedVector(ring.dim, tuple(blocks))


# --------------------------------------------------------------- cup ------

def test_cup_unit_elliptic():
    for d in (-3, 0, 7):
        out = cup(gv(ELLIPTIC, 1, 0), gv(ELLIPTIC, 1, d), ELLIPTIC)
        assert out.blocks == (1, d)


def test_cup_divisor_square_k3():
    H = gv(K3_4, 0, (1,), 0)
    assert cup(H, H, K3_4).blocks == (0, (0,), 4)


def test_cup_divisor_cube_quintic(quintic):
    H = GradedVector(3, (0, (1,), (0,), 0))
    HH = cup(H, H, quintic.ring)
    assert cup(HH, H, quintic.ring).blocks[3] == 5


def test_cup_shape_mismatch():
    with pytest.raises((LatticeError, ShapeError)):
        cup(gv(ELLIPTIC, 1, 0), gv(K3_4, 1, (0,), 0), K3_4)


# ---------------------------------------------------------- pair_sym ------

def test_pair_sym_unit_point_k3():
    assert pair_sym(gv(K3_4, 1, (0,), 0), gv(K3_4, 0, (0,), 1), K3_4) == 1


def test_pair_sym_no_top_term_elliptic():
    assert pair_sym(gv(ELLIPTIC, 1, 0), gv(ELLIPTIC, 1, 0), ELLIPTIC) == 0


def test_pair_sym_degree_six_cross_terms_quintic(quintic):
    u = GradedVector(3, (1, (1,), (0,), 0))
    assert pair_sym(u, u, quintic.ring) == 0


# -------------------------------------------------------------- star ------

def test_star_elliptic_pattern():
    assert star(gv(ELLIPTIC, 1, 5)).blocks == (1, -5)


def test_star_k3_fixes_even_blocks():
    assert star(gv(K3_4, 1, (0,), -1)).blocks == (1, (0,), -1)


@given(st.integers(-50, 50), st.integers(-50, 50), st.integers(-50, 50))
def test_star_involution(a, b, c):
    u = gv(K3_4, a, (b,), c)
    assert star(star(u)) == u


def test_star_isometry_sign():
    # pair_sym(star u, star v) = (-1)^dim * pair_sym(u, v)
    rng = random.Random(7)
    for ring, sign in ((ELLIPTIC, -1), (K3_4, 1), (K3_H, 1)):
        for _ in range(1000):
            u = random_vector(ring, rng, denom=4)
            v = random_vector(ring, rng, denom=4)
            assert pair_sym(star(u), star(v), ring) == sign * pair_sym(u, v, ring)


def test_star_isometry_sign_dim3(quintic, bicubic):
    rng = random.Random(11)
    for X in (quintic, bicubic):
        for _ in range(1000):
            u = random_vector(X.ring, rng, denom=4)
            v = random_vector(X.ring, rng, denom=4)
            assert pair_sym(star(u), star(v), X.ring) == -pair_sym(u, v, X.ring)


# ------------------------------------------------------- pair_exotic ------

def test_pair_exotic_elliptic_formula():
    rng = random.Random(3)
    for _ in range(500):
        r1, d1, r2, d2 = (rng.randint(-20, 20) for _ in range(4))
        got = pair_exotic(gv(ELLIPTIC, r1, d1), gv(ELLIPTIC, r2, d2), ELLIPTIC)
        assert got == r1 * d2 - d1 * r2


def test_pair_exotic_k3_structure_sheaf():
    # chi(O, O) = chi(O_S) = 2; the pairing eats Chern characters, so the
    # input is ch(O) = (1,0,0), not its Mukai vector
    u = gv(K3_4, 1, (0,), 0)
    assert pair_exotic(u, u, K3_4) == 2


def test_pair_exotic_symmetry_by_dimension(quintic):
    rng = random.Random(5)
    for ring, sign in ((ELLIPTIC, -1), (K3_4, 1), (K3_H, 1), (quintic.ring, -1)):
        for _ in range(400):
            u = random_vector(ring, rng, denom=3)
            v = random_vector(ring, rng, denom=3)
            assert pair_exotic(u, v, ring) == sign * pair_exotic(v, u, ring)


def test_pair_exotic_dim3_isotropic(quintic, bicubic):
    rng = random.Random(13)
    for X in (quintic, bicubic):
        for _ in range(1000):
            u = random_vector(X.ring, rng, denom=6)
            assert pair_exotic(u, u, X.ring) == 0


# ------------------------------------------------------------- mukai ------

def test_mukai_structure_sheaf_k3():
    assert mukai_vector(gv(K3_4, 1, (0,), 0), K3_4).blocks == (1, (0,), 1)


def test_mukai_elliptic_identity():
    assert mukai_vector(gv(ELLIPTIC, 1, 0), ELLIPTIC).blocks == (1, 0)


def test_mukai_quintic_structure_sheaf(quintic):
    m = mukai_vector(GradedVector(3, (1, (0,), (0,), 0)), quintic.ring)
    assert m.blocks == (1, (0,), (Fraction(25, 12),), 0)  # 50/24 on the c2 block


# --------------------------------------------------------- todd data ------

def test_sqrt_td_squares_to_td(quintic, bicubic, k3_quartic, k3_elliptic):
    rings = [
        ELLIPTIC,
        k3_quartic.ring,
        k3_elliptic.ring,
        quintic.ring,
        bicubic.ring,
    ]
    for ring in rings:
        T = todd_data(ring)
        assert cup(T.sqrt_td, T.sqrt_td, ring) == T.td


def test_todd_closed_forms(quintic):
    assert todd_data(ELLIPTIC).td.blocks == (1, 0)
    assert todd_data(K3_4).td.blocks == (1, (0,), 2)
    assert todd_data(K3_4).sqrt_td.blocks == (1, (0,), 1)
    T = todd_data(quintic.ring)
    assert T.td.blocks == (1, (0,), (Fraction(50, 12),), 0)
    assert T.sqrt_td.blocks == (1, (0,), (Fraction(50, 24),), 0)


# ---------------------------------------------------- compiled forms ------

# entries in (1/2)Z and (1/6)Z, the denominators of honest Chern data
halves_sixths = st.builds(
    Fraction, st.integers(-60, 60), st.sampled_from((1, 2, 6))
)


@st.composite
def ring_and_vectors(draw):
    ring = draw(st.sampled_from(RINGS))

    def vector():
        mids = [
            tuple(draw(halves_sixths) for _ in range(ring.picard_rank))
            for _ in range(ring.dim - 1)
        ]
        return GradedVector(ring.dim, (draw(halves_sixths), *mids, draw(halves_sixths)))

    return ring, vector(), vector()


@settings(max_examples=300, deadline=None)
@given(ring_and_vectors())
def test_compiled_forms_equal_cup_route(case):
    ring, u, v = case
    n = ring.dim
    assert pair_sym(u, v, ring) == cup(u, v, ring).blocks[n]
    td = todd_data(ring)
    assert pair_exotic(u, v, ring) == cup(cup(star(u), v, ring), td.td, ring).blocks[n]
    for f in ("td", "sqrt_td", "sqrt_td_inv"):
        assert todd_multiply(u, ring, f) == cup(u, getattr(td, f), ring)
    assert mukai_vector(u, ring) == cup(u, td.sqrt_td, ring)


def transpose(m):
    return [list(col) for col in zip(*m)]


def test_compiled_gram_basis_identities():
    for ring in RINGS:
        sym = ring._forms.sym.to_rationals()
        exotic = ring._forms.exotic.to_rationals()
        assert sym == transpose(sym)
        if ring.dim == 2:
            assert exotic == transpose(exotic)
        else:  # G + G^T = 0 on a basis: skew on every pair, zero on the diagonal
            assert all(
                x + y == 0 for row, col in zip(exotic, transpose(exotic)) for x, y in zip(row, col)
            )


def test_compiled_forms_are_integral_over_one_denominator():
    for ring in RINGS:
        forms = ring._forms
        for m in (forms.sym, forms.exotic, *forms.products.values()):
            assert m.den >= 1 and all(
                type(x) is int and x != 0 for row in m.rows for _, x in row
            )
    # c2/12 on the quintic is 25/6; the c2/24 products need 12
    assert QUINTIC._forms.exotic.den == 6
    assert QUINTIC._forms.products["sqrt_td"].den == 12


def test_compiled_forms_are_cached_on_the_ring():
    ring = RingDescriptor(dim=3, picard_rank=1, cubic=(5,), c2=(50,))
    assert ring._forms is ring._forms
    assert ring.todd is ring.todd
    assert ring == QUINTIC  # cached attributes are not part of equality


def test_todd_inverse_and_descriptor_cache(quintic, k3_quartic):
    assert [f.name for f in fields(ToddData)] == ["td", "sqrt_td", "sqrt_td_inv"]
    for ring in RINGS:
        T = todd_data(ring)
        unit = GradedVector.unit(ring.dim, ring.picard_rank)
        assert cup(T.sqrt_td, T.sqrt_td_inv, ring) == unit
    for X in (quintic, k3_quartic):
        assert X.todd is X.todd is X.ring.todd


def test_as_fraction_returns_fraction_unchanged():
    x = Fraction(7, 3)
    assert as_fraction(x) is x
    assert as_fraction(4) == Fraction(4) and type(as_fraction(4)) is Fraction


def test_cubic_contract_rational_entries():
    a = (Fraction(1, 2), Fraction(-3, 2), "1/3", 2)
    b = (Fraction(5, 6), 1, Fraction(-1, 4), "0")
    want = tuple(
        sum(Fraction(a[i]) * P1X4.cubic[i][j][d] * Fraction(b[j]) for i in range(4) for j in range(4))
        for d in range(4)
    )
    assert P1X4.cubic_contract(a, b) == want


def test_pic_pair_equals_hand_sum(k3_reflective):
    ring = k3_reflective.ring
    k = ring.picard_rank
    rng = random.Random(31)
    for _ in range(200):
        a = [Fraction(rng.randint(-20, 20), rng.choice((1, 2, 3))) for _ in range(k)]
        b = [str(rng.randint(-20, 20)) for _ in range(k)]
        want = sum(a[i] * ring.gram[i][j] * Fraction(b[j]) for i in range(k) for j in range(k))
        assert ring.pic_pair(a, b) == want
    with pytest.raises(ShapeError):
        ring.pic_pair([1] * (k + 1), [1] * k)
    with pytest.raises(LatticeError):
        ring.pic_pair([0.5] * k, [1] * k)
    with pytest.raises(ShapeError):
        QUINTIC.pic_pair([1], [1])


def test_columns_kernel_equals_dense_fraction_products():
    rng = random.Random(41)
    for ring in RINGS:
        forms = ring._forms
        size = 2 + (ring.dim - 1) * ring.picard_rank
        xs = [[rng.randint(-40, 40) for _ in range(size)] for _ in range(50)]
        ys = [[rng.randint(-40, 40) for _ in range(size)] for _ in range(50)]
        cols_x = np.array(xs, dtype=object).T
        cols_y = np.array(ys, dtype=object).T
        for m in (forms.sym, forms.exotic, *forms.products.values()):
            dense = m.to_rationals()
            paired = m.pair_columns(cols_x, cols_y)
            applied = m.apply_columns(cols_x)
            for i, (x, y) in enumerate(zip(xs, ys)):
                mx, my = ([sum(a * b for a, b in zip(row, z)) for row in dense] for z in (x, y))
                assert type(paired[i]) is int
                assert Fraction(paired[i], m.den) == sum(a * b for a, b in zip(x, my))
                assert [Fraction(c[i], m.den) for c in applied] == mx
            # one vector of plain ints is a batch of one
            assert m.pair_columns(xs[0], ys[0]) == paired[0]
            assert m.apply_columns(xs[0]) == [c[0] for c in applied]


def test_module_results_are_fractions_in_shape():
    # cup, star, scale, +, - and todd_multiply wrap their blocks without the
    # public constructor's coercion; they must come out exactly as it would
    rng = random.Random(43)
    for ring in RINGS:
        for _ in range(20):
            u = random_vector(ring, rng, denom=6)
            v = random_vector(ring, rng, denom=6)
            results = [cup(u, v, ring), star(u), u.scale("-5/3"), u + v, u - v, -u]
            results += [todd_multiply(u, ring, f.name) for f in fields(ToddData)]
            for w in results:
                assert GradedVector(w.dim, w.blocks) == w
                assert type(w.blocks) is tuple
                for i, block in enumerate(w.blocks):
                    entries = (block,) if i in (0, w.dim) else block
                    assert type(block) is (Fraction if i in (0, w.dim) else tuple)
                    assert all(type(x) is Fraction for x in entries)


def test_spellings_of_one_class_are_one_value():
    spellings = [
        GradedVector(2, ("2/4", (Fraction(1, 2), "-0"), 3)),
        GradedVector(2, (Fraction(1, 2), ["1/2", 0], "6/2")),
        GradedVector(2, ("+3/6", ("4/8", Fraction(0, 7)), Fraction(-9, -3))),
        GradedVector(2, (1, (1, 0), 6)).scale("1/2"),
        GradedVector(2, ("1/6", ("1/3", "1/4"), 1)) + GradedVector(2, ("1/3", ("1/6", "-1/4"), 2)),
    ]
    want_blocks = (Fraction(1, 2), (Fraction(1, 2), Fraction(0)), Fraction(3))
    for u in spellings:
        assert u == spellings[0] and hash(u) == hash(spellings[0])
        assert (u.nums, u.den) == ((1, 1, 0, 6), 2)  # lowest terms, positive denominator
        assert u.blocks == want_blocks
        assert all(type(x) is Fraction for x in (u.blocks[0], *u.blocks[1], u.blocks[2]))
    assert len(set(spellings)) == 1
    # an integral class has denominator 1; zero is (0, ..., 0) over 1
    assert (spellings[0].scale(2).nums, spellings[0].scale(2).den) == ((1, 1, 0, 6), 1)
    zero = GradedVector(1, ("-0", "0/5"))
    assert (zero.nums, zero.den) == ((0, 0), 1) and zero == GradedVector(1, (0, 0))
    assert GradedVector(1, (1, 2)) != GradedVector(1, ("1/2", 1))
    assert GradedVector(1, (1, 0)) != GradedVector(2, (1, (), 0))
    with pytest.raises(AttributeError):
        spellings[0].den = 4


def test_public_constructors_still_coerce_and_reject():
    u = GradedVector(2, (1, ["1/2", Fraction(3)], "-2"))
    assert u.blocks == (Fraction(1), (Fraction(1, 2), Fraction(3)), Fraction(-2))
    for bad in (0.5, True, "1.5", "x/2"):
        with pytest.raises(LatticeError):
            GradedVector(2, (bad, (0, 0), 0))
        with pytest.raises(LatticeError):
            u.with_block(2, bad)
        with pytest.raises(LatticeError):
            GradedVector.from_payload({"dim": 2, "blocks": [0, [bad, 0], 0]})
    with pytest.raises(LatticeError):
        u.scale(0.5)


# ------------------------------------------------------ ring algebra ------

small_rationals = st.fractions(
    min_value=-6, max_value=6, max_denominator=4
)


@st.composite
def k3_vectors(draw):
    return gv(
        K3_H,
        draw(small_rationals),
        (draw(small_rationals), draw(small_rationals)),
        draw(small_rationals),
    )


@settings(max_examples=200)
@given(k3_vectors(), k3_vectors(), k3_vectors())
def test_cup_associative_and_commutative(u, v, w):
    assert cup(u, v, K3_H) == cup(v, u, K3_H)
    assert cup(cup(u, v, K3_H), w, K3_H) == cup(u, cup(v, w, K3_H), K3_H)


def test_cup_associative_dim3(quintic, bicubic):
    rng = random.Random(17)
    for X in (quintic, bicubic):
        for _ in range(300):
            u = random_vector(X.ring, rng, denom=3)
            v = random_vector(X.ring, rng, denom=3)
            w = random_vector(X.ring, rng, denom=3)
            assert cup(u, v, X.ring) == cup(v, u, X.ring)
            assert cup(cup(u, v, X.ring), w, X.ring) == cup(
                u, cup(v, w, X.ring), X.ring
            )


# ----------------------------------------------------------- exactness ----

def test_floats_rejected():
    with pytest.raises(LatticeError):
        GradedVector(1, (1.5, 0))
    with pytest.raises(LatticeError):
        GradedVector(2, (1, (0.25,), 0))
    with pytest.raises(LatticeError):
        RingDescriptor(dim=2, picard_rank=1, gram=((4.0,),))


def test_bools_rejected():
    with pytest.raises(LatticeError):
        GradedVector(1, (True, 0))


def test_odd_gram_diagonal_rejected():
    with pytest.raises(LatticeError):
        RingDescriptor(dim=2, picard_rank=1, gram=((3,),))


def test_asymmetric_gram_rejected():
    with pytest.raises(LatticeError):
        RingDescriptor(dim=2, picard_rank=2, gram=((0, 1), (2, 0)))


def test_cubic_symmetry_enforced():
    bad = [0, 1, 2, 2, 1, 2, 2, 0]  # D_001 = 1 but D_010 = 2
    with pytest.raises(LatticeError):
        RingDescriptor(dim=3, picard_rank=2, cubic=bad, c2=(0, 0))


def test_rational_strings_round_trip():
    for f in (Fraction(0), Fraction(-7, 3), Fraction(22), Fraction(5, 2)):
        assert parse_rational(format_rational(f)) == f
    assert parse_rational("25/12") == Fraction(25, 12)
    assert format_rational(Fraction(4, 2)) == "2"
    with pytest.raises(LatticeError):
        parse_rational("1.5")


def test_graded_vector_payload_round_trip(quintic):
    u = GradedVector(
        3, (Fraction(1), (Fraction(-5, 3),), (Fraction(7, 2),), Fraction(0))
    )
    again = GradedVector.from_payload(u.to_payload())
    assert again == u
    text = json.dumps(u.to_payload())
    assert GradedVector.from_payload(json.loads(text)) == u


def test_ring_descriptor_json_round_trip(quintic, k3_elliptic):
    for ring in (ELLIPTIC, K3_H, quintic.ring):
        through_text = json.loads(json.dumps(ring.to_payload()))
        assert RingDescriptor.from_payload(through_text) == ring
    with pytest.raises(LatticeError):
        RingDescriptor.from_payload(
            {"dim": 2, "picard_rank": 1, "gram": [[4]], "foo": 1}
        )


def test_bit_identical_reruns(quintic):
    def pipeline():
        rng = random.Random(23)
        acc = []
        for _ in range(50):
            u = random_vector(quintic.ring, rng, denom=6)
            v = random_vector(quintic.ring, rng, denom=6)
            acc.append(pair_exotic(u, v, quintic.ring))
            acc.append(cup(u, v, quintic.ring))
        return acc

    assert pipeline() == pipeline()
