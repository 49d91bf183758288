"""K3 lattice engine: Mukai vectors, section counting, reflections."""

import random
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st
from oracles import walk_to_chamber_scalar

from latmirror import (
    EULER_K3,
    GradedVector,
    K3Descriptor,
    LatticeError,
    RingDescriptor,
    ShapeError,
    check_main_condition,
    gft_class_k3,
    line_bundle_ch,
    mirror_k3,
    mirror_pairing_k3,
    moduli_dim2,
    mukai2,
    pair_exotic,
    pair_sym,
    reflect_minus2,
    star,
    verify_quantization_k3,
    walk_to_chamber,
)
from latmirror import cy2
from latmirror.cy2 import walk_batch

QUARTIC = K3Descriptor(ring=RingDescriptor(dim=2, picard_rank=1, gram=((4,),)))
DEGREE2 = K3Descriptor(ring=RingDescriptor(dim=2, picard_rank=1, gram=((2,),)))


def rank1_k3(l2: int) -> K3Descriptor:
    return K3Descriptor(ring=RingDescriptor(dim=2, picard_rank=1, gram=((l2,),)))


def ch_line(L, X) -> GradedVector:
    half_sq = Fraction(X.ring.pic_pair(L, L), 2)
    return GradedVector(2, (1, tuple(L), half_sq))


# ------------------------------------------------------------- Mukai ------

def test_mukai2_examples():
    assert mukai2(GradedVector(2, (1, (0,), 0)), QUARTIC).blocks == (1, (0,), 1)
    assert mukai2(GradedVector(2, (0, (0,), 1)), QUARTIC).blocks == (0, (0,), 1)
    assert mukai2(GradedVector(2, (2, (1,), -1)), QUARTIC).blocks == (2, (1,), 1)


# the K3 Euler pairing chi(Hom(E1, E2)) is core.pair_exotic on the ring

def test_euler_pairing2_examples():
    o = GradedVector(2, (1, (0,), 0))
    assert pair_exotic(o, o, QUARTIC.ring) == 2
    e = GradedVector(2, (1, (1,), 0))  # m(e) = (1, H, 1), m(e*) = (1, -H, 1)
    assert pair_exotic(e, e, DEGREE2.ring) == 0
    line = ch_line((1,), DEGREE2)
    assert pair_exotic(line, line, DEGREE2.ring) == 2  # chi(Hom(L, L)) = chi(O)


def test_euler_pairing2_symmetric():
    rng = random.Random(19)
    for _ in range(500):
        u = GradedVector(
            2, (rng.randint(-9, 9), (rng.randint(-9, 9),), rng.randint(-9, 9))
        )
        v = GradedVector(
            2, (rng.randint(-9, 9), (rng.randint(-9, 9),), rng.randint(-9, 9))
        )
        assert pair_exotic(u, v, QUARTIC.ring) == pair_exotic(v, u, QUARTIC.ring)


def test_euler_pairing2_self_even():
    # K3 lattice evenness: chi(E, E) is even for integral input
    rng = random.Random(29)
    for _ in range(500):
        u = GradedVector(
            2, (rng.randint(-9, 9), (rng.randint(-9, 9),), rng.randint(-9, 9))
        )
        assert pair_exotic(u, u, QUARTIC.ring) % 2 == 0


def test_moduli_dim2_examples():
    assert moduli_dim2(GradedVector(2, (1, (0,), 0)), QUARTIC) == 0
    assert moduli_dim2(GradedVector(2, (1, (1,), 0)), DEGREE2) == 2
    assert moduli_dim2(GradedVector(2, (2, (0,), -2)), QUARTIC) == 2


@pytest.mark.parametrize("name", ["k3_quartic", "k3_elliptic", "k3_reflective"])
def test_k3_euler_pairings_equal_the_mukai_route(name, request):
    # the reference: chi(Hom(E1, E2)) as the Poincare pairing of the dualised
    # Mukai vector of E1 against that of E2
    X = request.getfixturevalue(name)
    k = X.ring.picard_rank
    rng = random.Random(61)

    def draw():
        # c1 in thirds makes some self-pairings non-integral
        c1 = tuple(Fraction(rng.randint(-19, 19), 3) for _ in range(k))
        return GradedVector(2, (rng.randint(-9, 9), c1, Fraction(rng.randint(-19, 19), 2)))

    integral = 0
    for _ in range(200):
        u, v = draw(), draw()
        mu, mv = mukai2(u, X), mukai2(v, X)
        assert pair_exotic(u, v, X.ring) == pair_sym(star(mu), mv, X.ring), (u, v)
        want = 2 - pair_sym(mu, star(mu), X.ring)
        if want.denominator == 1:
            integral += 1
            assert moduli_dim2(u, X) == want, u
        else:
            with pytest.raises(LatticeError, match="is not an integer"):
                moduli_dim2(u, X)
    assert 0 < integral < 200


# ------------------------------------------------------------ mirror ------

def test_mirror_k3_examples():
    m0 = mirror_k3((0,), QUARTIC)
    assert (m0.s, m0.pic, m0.e) == (1, (0,), 0)
    m4 = mirror_k3((1,), QUARTIC)
    assert (m4.s, m4.pic, m4.e) == (1, (1,), -2)
    m2 = mirror_k3((1,), DEGREE2)
    assert (m2.s, m2.pic, m2.e) == (1, (1,), -1)


def test_mirror_k3_rejects_bad_input():
    with pytest.raises(LatticeError):
        mirror_k3(("1/2",), QUARTIC)


@pytest.mark.parametrize(
    "fn", [mirror_k3, gft_class_k3, verify_quantization_k3]
)
def test_divisor_functions_check_the_picard_rank(fn, k3_elliptic):
    # a longer class must not pair on its first coordinates only, nor a
    # shorter one index past its end
    for L, X in (((1, 2), QUARTIC), ((), QUARTIC), ((1,), k3_elliptic), ((1, 2, 3), k3_elliptic)):
        with pytest.raises(ShapeError, match="divisor coordinates must match picard_rank"):
            fn(L, X)


@pytest.mark.parametrize(
    "fn, name",
    [
        (mirror_k3, "k3_quartic"),
        (gft_class_k3, "k3_quartic"),
        (verify_quantization_k3, "k3_quartic"),
        (line_bundle_ch, "quintic"),
    ],
)
def test_divisor_functions_share_one_way_in(fn, name, request):
    X = request.getfixturevalue(name)
    assert fn((2,), X) == fn(("2",), X) == fn((Fraction(4, 2),), X)
    for bad in (0.5, True):
        with pytest.raises(LatticeError):
            fn((bad,), X)
    with pytest.raises(LatticeError, match="divisor class must be integral"):
        fn(("1/2",), X)


def test_divisor_entries_are_all_read_before_integrality(bicubic, k3_elliptic):
    # a fractional entry is refused only once every entry has been coerced,
    # and the coordinates that pass are ints
    for fn, X in ((line_bundle_ch, bicubic), (mirror_k3, k3_elliptic)):
        with pytest.raises(LatticeError, match="^float 0.5 rejected"):
            fn(("1/2", 0.5), X)
        with pytest.raises(TypeError, match="^cannot interpret None"):
            fn((Fraction(1, 2), None), X)
        with pytest.raises(LatticeError, match="^divisor class must be integral$"):
            fn(("1/2", "4/2"), X)
    assert mirror_k3((Fraction(4, 2), "-3"), k3_elliptic).pic == (2, -3)
    assert all(type(x) is int for x in mirror_k3((Fraction(4, 2), "-3"), k3_elliptic).pic)


def test_mirror_images_are_minus2_spheres():
    for l2 in range(0, 42, 2):
        X = rank1_k3(l2)
        m = mirror_k3((1,), X)
        assert mirror_pairing_k3(m, m, X) == -2


def test_mirror_pairing_transport(k3_reflective):
    # H-block pairing of mirrors = -(exotic pairing of Chern characters)
    rng = random.Random(43)
    for X in (QUARTIC, DEGREE2, k3_reflective):
        k = X.ring.picard_rank
        for _ in range(400):
            L1 = tuple(rng.randint(-6, 6) for _ in range(k))
            L2 = tuple(rng.randint(-6, 6) for _ in range(k))
            lhs = mirror_pairing_k3(mirror_k3(L1, X), mirror_k3(L2, X), X)
            rhs = pair_exotic(ch_line(L1, X), ch_line(L2, X), X.ring)
            assert lhs == -rhs, (X.label, L1, L2)


def test_k3_values_are_ints(k3_elliptic):
    m = mirror_k3((1, 3), k3_elliptic)  # L^2 = 4
    assert (m.s, m.pic, m.e) == (1, (1, 3), -2)
    assert all(type(v) is int for v in (m.s, *m.pic, m.e, mirror_pairing_k3(m, m, k3_elliptic)))
    g = gft_class_k3((1, 3), k3_elliptic)
    assert all(type(v) is int for v in (g.s0, g.e))
    assert type(g.slope) is Fraction
    rep = verify_quantization_k3((1, 3), k3_elliptic)
    assert all(type(v) is int for v in (rep.l2, rep.h0, rep.bs_count))


def test_mirror_k3_names_an_odd_square():
    # an odd Gram entry, forced past the ring's checks, makes odd squares
    X = K3Descriptor(ring=RingDescriptor(dim=2, picard_rank=1, gram=((2,),)))
    object.__setattr__(X.ring, "gram", ((3,),))
    assert mirror_k3((2,), X).e == -6
    with pytest.raises(LatticeError) as err:
        mirror_k3((3,), X)
    assert str(err.value) == "L^2 = 27 is not even; not a divisor class here"


# --------------------------------------------------------------- GFT ------

def test_gft_class_k3_examples():
    g2 = gft_class_k3((1,), DEGREE2)
    assert (g2.s0, g2.e, g2.slope) == (1, -1, -1)
    g4 = gft_class_k3((1,), QUARTIC)
    assert (g4.s0, g4.e, g4.slope) == (1, -2, -2)


def test_gft_class_k3_tensor_square():
    for l2 in (2, 4, 6, 10):
        X = rank1_k3(l2)
        doubled = gft_class_k3((2,), X)  # (2L)^2 = 4 l2
        assert doubled.e == -2 * l2


def test_gft_class_k3_rejects_nonpositive_or_odd():
    with pytest.raises(LatticeError):
        gft_class_k3((0,), QUARTIC)
    X = K3Descriptor(ring=RingDescriptor(dim=2, picard_rank=1, gram=((-2,),)))
    with pytest.raises(LatticeError):
        gft_class_k3((1,), X)


# ------------------------------------------------- section counting -------

def test_h0_and_bs_examples():
    for X, count in ((DEGREE2, 3), (QUARTIC, 4), (rank1_k3(0), 2)):
        rep = verify_quantization_k3((1,), X)
        assert (rep.h0, rep.bs_count) == (count, count)


def test_theorem_sections_equal_marked_fibres():
    """Independent expansions agree for every even square in 0..40."""
    for l2 in range(0, 42, 2):
        X = rank1_k3(l2)
        rep = verify_quantization_k3((1,), X)
        assert rep.ok
        assert rep.h0 == rep.bs_count == l2 // 2 + 2
        # second independent check inside the test: the H-block pairing
        # (-s0) . (s0 - (l2/2) e) with s0^2 = -2, s0.e = 1
        assert rep.bs_count == 2 + Fraction(l2, 2)


def test_quantization_l2_20():
    rep = verify_quantization_k3((1,), rank1_k3(20))
    assert rep.ok and rep.h0 == 12


# -------------------------------------------------------- reflections -----

def test_reflect_examples(k3_reflective):
    X = k3_reflective
    delta = (0, 1, 0)
    assert reflect_minus2(delta, delta, X) == (0, -1, 0)
    fixed = (1, 0, 0)  # pairs to ... check orthogonality first
    if X.ring.pic_pair(fixed, delta) == 0:
        assert reflect_minus2(fixed, delta, X) == tuple(
            Fraction(v) for v in fixed
        )


def test_reflect_unit_pairing_preserves_square():
    X = k3_reflective_local = K3Descriptor(
        ring=RingDescriptor(dim=2, picard_rank=2, gram=((-2, 1), (1, 0)))
    )
    delta = (1, 0)
    x = (0, 1)  # x.delta = 1
    assert X.ring.pic_pair(x, delta) == 1
    y = reflect_minus2(x, delta, X)
    assert y == (1, 1)
    assert X.ring.pic_pair(y, y) == X.ring.pic_pair(x, x)


def test_reflect_rejects_non_root(k3_reflective):
    with pytest.raises(LatticeError):
        reflect_minus2((1, 0, 0), (1, 0, 0), k3_reflective)


@given(st.tuples(*[st.integers(-8, 8)] * 3), st.sampled_from([(0, 1, 0), (0, 0, 1)]))
def test_reflect_involution_and_isometry(x, delta):
    X = K3Descriptor(
        ring=RingDescriptor(
            dim=2, picard_rank=3, gram=((0, 1, 0), (1, -2, 0), (0, 0, -2))
        )
    )
    y = reflect_minus2(x, delta, X)
    assert reflect_minus2(y, delta, X) == tuple(Fraction(v) for v in x)
    assert X.ring.pic_pair(y, y) == X.ring.pic_pair(x, x)


def test_walk_reaches_nonnegative_chamber(k3_reflective):
    X = k3_reflective
    rng = random.Random(53)
    for _ in range(200):
        x = tuple(rng.randint(-10, 10) for _ in range(3))
        res = walk_to_chamber(x, X.roots, X)
        assert res.steps <= 64
        for d in X.roots:
            assert X.ring.pic_pair(res.vector, d) >= 0
        # each recorded reflection really was applied, in order
        check = tuple(Fraction(v) for v in x)
        for i in res.applied:
            check = reflect_minus2(check, X.roots[i], X)
        assert check == res.vector


def test_walk_step_cap(k3_reflective):
    X = k3_reflective
    delta = (0, 1, 0)
    neg = (0, -1, 0)
    # delta and -delta disagree forever; the walk must give up at the cap
    with pytest.raises(LatticeError):
        walk_to_chamber((1, 1, 0), (delta, neg), X)


def test_batched_walk_equals_the_per_sample_oracle(k3_reflective, k3_elliptic):
    rng = random.Random(59)
    for X in (k3_reflective, k3_elliptic):
        k = X.ring.picard_rank
        xs = [tuple(rng.randint(-20, 20) for _ in range(k)) for _ in range(500)]
        want = [walk_to_chamber_scalar(X.ring.gram, X.roots, x) for x in xs]
        got = walk_batch(xs, X.roots, X)
        assert [(end, len(applied), applied) for end, applied in got] == want
        assert all(type(v) is int for end, _ in got for v in end)
        assert any(steps > 0 for _, steps, _ in want)
        for x, (end, steps, applied) in zip(xs[:50], want):
            res = walk_to_chamber(x, X.roots, X)
            assert res.vector == tuple(map(Fraction, end))
            assert (res.steps, res.applied) == (steps, applied)
            assert all(type(v) is Fraction for v in res.vector)


def test_batched_walk_names_the_first_sample_to_reach_the_cap(k3_reflective):
    X = k3_reflective
    roots = ((0, 1, 0), (0, -1, 0))  # disagree forever on any x with x.delta != 0
    xs = [(2, 1, 3), (1, 1, 0), (0, 0, 5), (3, 1, 0), (4, 2, 1)]
    capped = [walk_to_chamber_scalar(X.ring.gram, roots, x) is None for x in xs]
    assert capped == [False, True, False, True, False]
    with pytest.raises(LatticeError) as err:
        walk_batch(xs, roots, X)
    assert str(err.value) == "no chamber reached within 64 reflections from (1, 1, 0)"
    with pytest.raises(LatticeError) as err:
        walk_batch(xs[2:], roots, X)
    assert str(err.value).endswith("from (3, 1, 0)")
    # every root's square is checked before any sample walks
    with pytest.raises(LatticeError, match="reflection axis must have square -2"):
        walk_batch(xs, ((0, 1, 0), (1, 0, 0)), X)
    with pytest.raises(ShapeError, match="divisor coordinates must match picard_rank"):
        walk_batch([(1, 2, 3), (1, 2)], X.roots, X)


def test_walk_on_the_descriptors_own_roots_skips_the_root_set_up(
    monkeypatch, k3_reflective, k3_elliptic
):
    checked = []
    original = cy2._minus2_axes

    def counting(roots, X):
        checked.append(roots)
        return original(roots, X)

    monkeypatch.setattr(cy2, "_minus2_axes", counting)
    rng = random.Random(61)
    for X in (k3_reflective, k3_elliptic):
        k = X.ring.picard_rank
        xs = [tuple(rng.randint(-20, 20) for _ in range(k)) for _ in range(200)]
        own = X.roots
        equal = tuple(tuple(r) for r in own)
        as_lists = [list(r) for r in own]
        foreign = [list(r) for r in own[::-1]]
        for roots, reads_own in ((own, True), (equal, True), (as_lists, False), (foreign, False)):
            checked.clear()
            want = [walk_to_chamber_scalar(X.ring.gram, roots, x) for x in xs]
            got = walk_batch(xs, roots, X)
            assert [(end, len(applied), applied) for end, applied in got] == want
            for x, (end, steps, applied) in zip(xs[:40], want):
                res = walk_to_chamber(x, roots, X)
                assert res == (tuple(map(Fraction, end)), steps, applied)
            assert (checked == []) is reads_own, roots
        assert any(steps for _, steps, _ in want)


def test_walk_checks_every_root_it_was_not_built_with(k3_reflective):
    X = k3_reflective
    square = "^reflection axis must have square -2$"
    for roots in ([[1, 0, 0]], X.roots + ((1, 0, 0),), [list(X.roots[0]), [0, 1, 1]]):
        with pytest.raises(LatticeError, match=square):
            walk_batch([(1, 2, 3)], roots, X)
        with pytest.raises(LatticeError, match=square):
            walk_to_chamber((1, 2, 3), roots, X)
    # equal in value to the declared roots, but not integers: refused as before
    for bad in (0.0, False):
        roots = ((bad, 1, 0), (0, 0, 1))
        assert roots == X.roots
        with pytest.raises(LatticeError, match="^(float|booleans)"):
            walk_to_chamber((1, 2, 3), roots, X)


# ------------------------------------------------------ main condition ----

def test_main_condition_examples():
    rep = check_main_condition(((0, 1), (1, -2)), (1, 0), (0, 1))
    assert rep.passed
    bad = check_main_condition(((2, 1), (1, -2)), (1, 0), (0, 1))
    assert not bad.passed
    assert bad.checks[0][1] is False  # e.e == 0 violated first
    orth = check_main_condition(
        ((0, 1, 0), (1, -2, 0), (0, 0, -2)), (1, 0, 0), (0, 1, 0),
        complement=((0, 0, 1),),
    )
    assert orth.passed
    touching = check_main_condition(
        ((0, 1, 0), (1, -2, 0), (0, 0, -2)), (1, 0, 0), (0, 1, 0),
        complement=((0, 1, 1),),
    )
    assert not touching.passed


def test_main_condition_rejects_non_integer_and_malformed_grams():
    # a float Gram matrix used to be truncated to the hyperbolic plane and pass
    with pytest.raises(LatticeError, match="integer lattice datum expected, got 1.9"):
        check_main_condition([[0, 1.9], [1.9, -2]], (1, 0), (0, 1))
    with pytest.raises(LatticeError, match="^ambient Gram must be square$"):
        check_main_condition([[0, 1], [1]], (1, 0), (0, 1))
    with pytest.raises(LatticeError, match="^ambient Gram must be symmetric$"):
        check_main_condition([[0, 1], [2, -2]], (1, 0), (0, 1))


# ------------------------------------------------------------ fixtures ----

def test_fixture_fibration_bookkeeping(k3_elliptic):
    assert k3_elliptic.singular_fibres == EULER_K3
    with pytest.raises(LatticeError):
        K3Descriptor(
            ring=RingDescriptor(dim=2, picard_rank=1, gram=((4,),)),
            singular_fibres=23,
        )


def test_roots_and_fibre_count_must_be_integers():
    ring = RingDescriptor(dim=2, picard_rank=2, gram=((-2, 1), (1, 0)))
    # bare int() made this root (1, 0), a valid one
    with pytest.raises(LatticeError, match="integer lattice datum expected, got 1.4"):
        K3Descriptor(ring=ring, roots=((1.4, 0.2),))
    for bad in ("1/2", True):
        with pytest.raises(LatticeError):
            K3Descriptor(ring=ring, roots=((bad, 0),))
    with pytest.raises(LatticeError, match="got 24.9"):
        K3Descriptor(ring=ring, singular_fibres=24.9)
    assert K3Descriptor(ring=ring, roots=(("1", "0"),), singular_fibres="24") == K3Descriptor(
        ring=ring, roots=((1, 0),), singular_fibres=24
    )


def test_fixture_roots_validated():
    # the one (-2)-root check, with the text foreign roots get
    ring = RingDescriptor(dim=2, picard_rank=1, gram=((4,),))
    with pytest.raises(LatticeError, match="^reflection axis must have square -2$"):
        K3Descriptor(ring=ring, roots=((1,),))
    with pytest.raises(ShapeError, match="^divisor coordinates must match picard_rank$"):
        K3Descriptor(ring=ring, roots=((1, 0),))


def test_roots_of_the_wrong_nesting_are_shape_errors(k3_reflective):
    # each raised a bare TypeError ("'int' object is not iterable")
    X = k3_reflective
    for roots in (5, [5]):
        with pytest.raises(ShapeError, match="^roots must be a sequence of divisor"):
            K3Descriptor(ring=X.ring, roots=roots)
        with pytest.raises(ShapeError, match="^divisor coordinates must match picard_rank$"):
            walk_to_chamber((1, 2, 3), roots, X)
    with pytest.raises(ShapeError, match="^divisor coordinates must match picard_rank$"):
        reflect_minus2((1, 2, 3), 5, X)
    with pytest.raises(ShapeError, match="^divisor coordinates must match picard_rank$"):
        reflect_minus2(5, (0, 1, 0), X)


# ---------------------------------------------------------- refusals ------

def odd_square_transform():
    # an odd Gram entry, forced past the ring's checks, makes odd squares
    X = K3Descriptor(ring=RingDescriptor(dim=2, picard_rank=1, gram=((2,),)))
    object.__setattr__(X.ring, "gram", ((3,),))
    gft_class_k3((3,), X)


def short_picard_block():
    mirror_pairing_k3(cy2.MirrorClassK3(s=1, pic=(1, 2), e=0), mirror_k3((1,), QUARTIC), QUARTIC)


# each refusal's exception type and full message
CY2_REFUSALS = [
    (lambda: K3Descriptor(ring=RingDescriptor(dim=3, picard_rank=1, cubic=(5,), c2=(50,))),
     ShapeError, "K3Descriptor needs a dim-2 ring"),
    (short_picard_block, ShapeError, "divisor coordinates must match picard_rank"),
    (odd_square_transform, LatticeError, "L^2 = 27 is not even"),
    (lambda: verify_quantization_k3((1,), rank1_k3(-4)), LatticeError,
     "L^2 = -4 < -2 is outside the counting range"),
    (lambda: check_main_condition(((0, 1), (1, -2)), (1, 0, 0), (0, 1)), ShapeError,
     "vector length must match the ambient Gram size"),
]


@pytest.mark.parametrize("call, exc, message", CY2_REFUSALS)
def test_cy2_refusals_are_pinned(call, exc, message):
    with pytest.raises(exc) as err:
        call()
    assert (type(err.value), str(err.value)) == (exc, message)
