"""Exact graded arithmetic: products, pairings, duality, Todd data."""

import json
import random
from fractions import Fraction
from math import lcm
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import latmirror
from latmirror import (
    GradedVector,
    LatticeError,
    RingDescriptor,
    ShapeError,
    cup,
    format_rational,
    load_cy3_fixture,
    mukai_vector,
    pair_exotic,
    pair_sym,
    parse_rational,
    star,
    todd_data,
)
from latmirror.core import ToddData, _dot, apply_form, as_fraction, pair_form, todd_multiply

from oracles import p1p1p2_223, p1x4_2222

ELLIPTIC = RingDescriptor.elliptic()
K3_4 = RingDescriptor(dim=2, picard_rank=1, gram=((4,),))
K3_H = RingDescriptor(dim=2, picard_rank=2, gram=((-2, 1), (1, 0)))
K3_R = RingDescriptor(dim=2, picard_rank=3, gram=((0, 1, 0), (1, -2, 0), (0, 0, -2)))
# the flat row-major cubic of each threefold ring below, by Picard rank
FLAT_CUBICS = {1: (5,), 2: (0, 3, 3, 3, 3, 3, 3, 0), 3: p1p1p2_223()[0], 4: p1x4_2222()[0]}
QUINTIC = RingDescriptor(dim=3, picard_rank=1, cubic=FLAT_CUBICS[1], c2=(50,))
BICUBIC = RingDescriptor(dim=3, picard_rank=2, cubic=FLAT_CUBICS[2], c2=(36, 36))
P1P1P2 = RingDescriptor(dim=3, picard_rank=3, cubic=FLAT_CUBICS[3], c2=p1p1p2_223()[1])
P1X4 = RingDescriptor(dim=3, picard_rank=4, cubic=FLAT_CUBICS[4], c2=p1x4_2222()[1])
# Picard ranks 0 to 4
RINGS = (ELLIPTIC, K3_4, K3_H, K3_R, QUINTIC, BICUBIC, P1P1P2, P1X4)


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


# ------------------------------------------------------ closed forms ------

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
def test_closed_forms_equal_cup_route(case):
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
    # the Gram matrices of both pairings on the basis classes
    for ring in RINGS:
        basis = GradedVector.basis(ring.dim, ring.picard_rank)
        sym = [[pair_sym(a, b, ring) for b in basis] for a in basis]
        exotic = [[pair_exotic(a, b, ring) for b in basis] for a in basis]
        assert sym == transpose(sym)
        if ring.dim == 2:
            assert exotic == transpose(exotic)
        else:  # G + G^T = 0 on a basis: skew on every pair, zero on the diagonal
            assert all(
                x + y == 0 for row, col in zip(exotic, transpose(exotic)) for x, y in zip(row, col)
            )


def test_todd_inverse_and_descriptor_cache(quintic):
    assert ToddData._fields == ("td", "sqrt_td", "sqrt_td_inv")
    for ring in RINGS:
        T = todd_data(ring)
        unit = GradedVector.unit(ring.dim, ring.picard_rank)
        assert cup(T.sqrt_td, T.sqrt_td_inv, ring) == unit
    assert quintic.todd is quintic.todd is quintic.ring.todd
    ring = RingDescriptor(dim=3, picard_rank=1, cubic=(5,), c2=(50,))
    assert ring.todd is ring.todd
    assert ring == QUINTIC  # the cached Todd data is not part of equality


def test_as_fraction_returns_fraction_unchanged():
    x = Fraction(7, 3)
    assert as_fraction(x) is x
    assert as_fraction(4) == Fraction(4) and type(as_fraction(4)) is Fraction


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
    # apply_form and pair_form on the Gram matrices, and each cubic plane
    # dotted with an outer product, against sums of Fraction products
    # written out by index (on a threefold from the flat row-major input)
    rng = random.Random(41)
    for ring in RINGS[1:]:
        k = ring.picard_rank
        for _ in range(50):
            x = [rng.randint(-40, 40) for _ in range(k)]
            y = [Fraction(rng.randint(-40, 40), rng.choice((1, 2, 6))) for _ in range(k)]
            if ring.dim == 2:
                m = ring.gram
                applied = apply_form(m, x)
                assert all(type(c) is int for c in applied)
                assert applied == [sum(m[i][j] * x[j] for j in range(k)) for i in range(k)]
                paired = pair_form(m, x, y)
                assert paired == sum(x[i] * m[i][j] * y[j] for i in range(k) for j in range(k))
                assert type(pair_form(m, x, x)) is int
                continue
            flat = FLAT_CUBICS[k]
            assert len(ring.cubic) == k
            for d, plane in enumerate(ring.cubic):
                paired = _dot(plane, [a * b for a in x for b in y])
                assert paired == sum(
                    x[i] * flat[(i * k + j) * k + d] * y[j] for i in range(k) for j in range(k)
                )
                assert type(_dot(plane, [a * b for a in x for b in x])) is int


def test_cubic_planes_hold_the_tensor_under_every_index_order():
    # plane d entry a k + b is D[a][b][d] = D[a][d][b] = ... for all six orders
    cases = [(P1P1P2, FLAT_CUBICS[3]), (P1X4, FLAT_CUBICS[4])]
    for name in ("quintic", "bicubic"):
        raw = json.loads((Path(latmirror.__file__).parent / "fixtures" / f"{name}.json").read_text())
        cases.append((load_cy3_fixture(name).ring, raw["cubic"]))
    for ring, flat in cases:
        k = ring.picard_rank

        def D(a, b, c):
            return flat[(a * k + b) * k + c]

        assert len(ring.cubic) == k
        for d, plane in enumerate(ring.cubic):
            assert type(plane) is tuple and len(plane) == k * k
            assert all(type(x) is int for x in plane)
            for a in range(k):
                for b in range(k):
                    orders = {D(a, b, d), D(a, d, b), D(b, a, d), D(b, d, a), D(d, a, b), D(d, b, a)}
                    assert orders == {plane[a * k + b]}, (k, a, b, d)


def test_module_results_are_fractions_in_shape():
    # cup, star, scale, +, - and todd_multiply wrap their blocks without the
    # public constructor's coercion; they must come out exactly as it would
    rng = random.Random(43)
    for ring in RINGS:
        for _ in range(20):
            u = random_vector(ring, rng, denom=6)
            v = random_vector(ring, rng, denom=6)
            results = [cup(u, v, ring), star(u), u.scale("-5/3"), u + v, u - v, -u]
            results += [todd_multiply(u, ring, name) for name in ToddData._fields]
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
    # a signed denominator was a bare ValueError from Fraction()
    for bad in (0.5, True, "1.5", "x/2", "1/-2", "1/+2"):
        with pytest.raises(LatticeError):
            GradedVector(2, (bad, (0, 0), 0))
        with pytest.raises(LatticeError):
            GradedVector(2, (0, [bad, 0], 0))
    with pytest.raises(LatticeError):
        u.scale(0.5)
    # True and 1.0 compare equal to 1; they used to build a class whose payload
    # said "dim": true, or whose blocks raised a bare TypeError
    for dim in (True, 1.0, False, 3.0, "3", None):
        with pytest.raises(ShapeError) as caught:
            GradedVector(dim, (1, 2))
        assert str(caught.value) == f"dim must be 1, 2 or 3, got {dim}"
    # the blocks, and each middle block, are a list or tuple: a dict, bytes,
    # a set or a generator was read by iterating it, a scalar was a bare TypeError
    for middle in ({1: 2}, b"\x01\x02", {1, 2}, (x for x in (1, 2)), 0.5, "12", 7, None):
        with pytest.raises(ShapeError, match="^intermediate block must be a coordinate sequence$"):
            GradedVector(2, (1, middle, 3))
    for blocks in (5, "12", {1: 0, 2: 0}, {1, 2}, b"\x01\x02", (x for x in (1, 2)), None):
        with pytest.raises(ShapeError, match="^blocks must be a list or tuple$"):
            GradedVector(1, blocks)
    assert GradedVector(2, [1, [0], 3]) == GradedVector(2, (1, (0,), 3))


def coerced_by_rule(dim, blocks):
    """What the public constructor gives for ``blocks``, by its stated rule.

    The Fraction blocks, or the (class, message) of the first check that
    fails: the blocks a list or tuple, the block count, then each block in
    order (an end is one entry, a middle block a list or tuple of entries,
    each through as_fraction), then the arities of the middle blocks.
    """
    try:
        if not isinstance(blocks, (list, tuple)):
            raise ShapeError("blocks must be a list or tuple")
        if len(blocks) != dim + 1:
            raise ShapeError(f"dim {dim} needs {dim + 1} blocks, got {len(blocks)}")
        out = []
        for i, block in enumerate(blocks):
            if i in (0, dim):
                out.append(as_fraction(block))
            elif not isinstance(block, (list, tuple)):
                raise ShapeError("intermediate block must be a coordinate sequence")
            else:
                out.append(tuple(as_fraction(x) for x in block))
        if len({len(b) for b in out[1:-1]}) > 1:
            raise ShapeError("intermediate blocks differ in arity")
    except (LatticeError, TypeError) as exc:
        return type(exc), str(exc)
    return tuple(out)


ENTRIES = st.integers(0, 7).flatmap(
    # one entry in eight is refused, so that most classes reach the later checks
    lambda n: (
        st.floats(-2, 2) | st.booleans() | st.sampled_from(["1/0", "1.5", "x", "1/-2", ""])
        if n == 0 else
        st.integers(-30, 30)
        | st.builds(Fraction, st.integers(-30, 30), st.integers(1, 12))
        | st.sampled_from(["3", "-4/6", " 5/10 ", "+2"])
    )
)


@st.composite
def raw_classes(draw):
    dim = draw(st.sampled_from((1, 2, 3)))
    arity = draw(st.integers(0, 3))
    blocks = [draw(ENTRIES)]
    for _ in range(dim - 1):
        if draw(st.integers(0, 9)) == 0:  # a scalar where a sequence belongs
            blocks.append(draw(ENTRIES))
        else:  # now and then one entry more or fewer than the other blocks
            n = arity + draw(st.sampled_from((0, 0, 0, 0, 1, -1)))
            seq = [draw(ENTRIES) for _ in range(max(n, 0))]
            blocks.append(draw(st.sampled_from((list, tuple)))(seq))
    blocks.append(draw(ENTRIES))
    if draw(st.integers(0, 19)) == 0:
        blocks.pop()
    return dim, tuple(blocks)


@settings(max_examples=400)
@given(raw_classes())
# each check in turn is the first to fail: arity after a later bad entry,
# a scalar middle block after a bad rank, the count before anything
@example((3, (1, (1, 2), (3,), 0.5)))
@example((3, (0.5, 7, (3,), 1)))
@example((2, (1, [True], "x")))
@example((3, (1.5, (1,), 0)))
# a middle block or the blocks that are not a list or tuple, however iterable
@example((2, (1, 0.5, 3)))
@example((2, (1, {1: 2}, 3)))
@example((2, (1, b"\x01\x02", 3)))
@example((2, (1, {1, 2}, 3)))
@example((2, (1, (x for x in (1, 2)), 3)))
@example((3, (1, "12", (3, 4), 0)))
@example((1, 5))
@example((1, "12"))
@example((1, {1: 0, 2: 0}))
@example((1, (x for x in (1, 2))))
def test_public_constructor_coerces_by_its_rule(case):
    dim, blocks = case
    want = coerced_by_rule(dim, blocks)
    if isinstance(want[0], type):
        with pytest.raises(want[0]) as caught:
            GradedVector(dim, blocks)
        assert (type(caught.value), str(caught.value)) == want
        return
    u = GradedVector(dim, blocks)
    assert u == GradedVector(dim, want) and u.blocks == want
    entries = [want[0], *(x for b in want[1:-1] for x in b), want[-1]]
    den = lcm(*(x.denominator for x in entries))
    assert (u.nums, u.den) == (tuple(int(x * den) for x in entries), den)


class Half(Fraction):
    """A Fraction subclass: not a Fraction by ``type``, so it goes through as_fraction."""


def integer_spellings(n):
    return (n, Fraction(n), str(n), f" {n} ", Half(n))


@pytest.mark.parametrize("dim, ints", [
    (1, (3, -2)),
    (2, (1, (0, -4), 7)),
    (3, (-2, (1, 0, 5), (6, -9, 0), 4)),
])
def test_integer_entries_give_one_class_whatever_their_type(dim, ints):
    # an int, Fraction(n, 1), an integer string and a Fraction subclass are
    # one entry: the same numerators, all Python ints, over 1
    def spelled(which):
        return tuple(
            tuple(integer_spellings(x)[which] for x in block) if isinstance(block, tuple)
            else integer_spellings(block)[which]
            for block in ints
        )

    flat = [ints[0], *(x for block in ints[1:-1] for x in block), ints[-1]]
    reference = GradedVector(dim, ints)
    assert (reference.nums, reference.den) == (tuple(flat), 1)
    for which in range(len(integer_spellings(0))):
        u = GradedVector(dim, spelled(which))
        assert (u.nums, u.den) == (reference.nums, 1)
        assert all(type(x) is int for x in u.nums)
        assert u == reference and hash(u) == hash(reference)


def test_mixed_entries_give_the_numerators_of_the_as_fraction_route():
    # ints, Fractions of denominator 1 and not, p/q strings and a Fraction
    # subclass in one class: the numerators over the least common
    # denominator of the entries read one at a time through as_fraction
    rng = random.Random(31)
    kinds = (
        lambda p, q: p,
        lambda p, q: Fraction(p, q),
        lambda p, q: Fraction(p * q, q),
        lambda p, q: f"{p}/{q}",
        lambda p, q: Half(p, q),
    )
    for _ in range(300):
        k = rng.randint(1, 3)
        entries = [rng.choice(kinds)(rng.randint(-12, 12), rng.randint(1, 12)) for _ in range(2 + 2 * k)]
        blocks = (entries[0], tuple(entries[1:1 + k]), tuple(entries[1 + k:-1]), entries[-1])
        exact = [as_fraction(x) for x in entries]
        den = lcm(*(x.denominator for x in exact))
        u = GradedVector(3, blocks)
        assert (u.nums, u.den) == (tuple(x.numerator * (den // x.denominator) for x in exact), den)
        assert all(type(x) is int for x in u.nums)
        assert u == GradedVector(3, tuple(
            tuple(map(as_fraction, b)) if isinstance(b, tuple) else as_fraction(b) for b in blocks
        ))


# ------------------------------------------------------ ring algebra ------

# every p/q with q <= 4 and |p/q| <= 6: the values st.fractions(-6, 6,
# max_denominator=4) draws, sampled from a list because building Fractions
# inside Hypothesis cost most of this file's run time
small_rationals = st.sampled_from(
    sorted({Fraction(p, q) for q in range(1, 5) for p in range(-6 * q, 6 * q + 1)})
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


def test_malformed_gram_and_cubic_are_shape_errors():
    # a bare TypeError from iterating an int; the string row read as digits
    for gram in (4, (4,), ["0"]):
        with pytest.raises(ShapeError, match="^Gram matrix must be square$"):
            RingDescriptor(dim=2, picard_rank=1, gram=gram)
    # the cubic is only the flat row-major list: nested or of another length, it is refused
    for cubic in (5, [[5]], [[[5]]], [[[[5]]]], [[[5], 5]], [], [5, 5]):
        with pytest.raises(ShapeError, match=r"^cubic tensor must be picard_rank\^3$"):
            RingDescriptor(dim=3, picard_rank=1, cubic=cubic, c2=(50,))
    with pytest.raises(ShapeError, match=r"^cubic tensor must be picard_rank\^3$"):
        RingDescriptor(dim=3, picard_rank=2, cubic=[[[0, 3], [3, 3]], [[3, 3], [3, 0]]], c2=(36, 36))
    with pytest.raises(ShapeError, match="^c2 vector length must equal picard_rank$"):
        RingDescriptor(dim=3, picard_rank=1, cubic=(5,), c2=50)
    assert RingDescriptor(dim=2, picard_rank=1, gram=[[4]]) == K3_4
    assert RingDescriptor(dim=3, picard_rank=1, cubic=["5"], c2=["50"]) == QUINTIC


def test_rational_strings_round_trip():
    for f in (Fraction(0), Fraction(-7, 3), Fraction(22), Fraction(5, 2)):
        assert parse_rational(format_rational(f)) == f
    assert parse_rational("25/12") == Fraction(25, 12)
    assert format_rational(Fraction(4, 2)) == "2"
    with pytest.raises(LatticeError):
        parse_rational("1.5")


def test_graded_vector_payload_round_trip(quintic):
    # the JSON form `cy2 mukai --json` prints; its blocks read back through the constructor
    u = GradedVector(
        3, (Fraction(1), (Fraction(-5, 3),), (Fraction(7, 2),), Fraction(0))
    )
    payload = u.to_payload()
    assert json.dumps(payload) == '{"dim": 3, "blocks": ["1", ["-5/3"], ["7/2"], "0"]}'
    assert GradedVector(payload["dim"], tuple(payload["blocks"])) == u


def test_basis_classes_are_the_unit_coordinate_vectors():
    assert GradedVector.basis(1, 0) == (GradedVector(1, (1, 0)), GradedVector(1, (0, 1)))
    basis = GradedVector.basis(3, 2)
    assert len(basis) == 6
    assert [u.nums for u in basis] == [tuple(int(i == j) for j in range(6)) for i in range(6)]
    assert basis[2].blocks == (0, (0, 1), (0, 0), 0)


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
