"""Elliptic-curve lattice calculus against two independent oracles."""

import itertools
import random
import re
import time

import pytest
from hypothesis import given
from hypothesis import strategies as st

from latmirror import (
    AtiyahElement,
    BundleClass1,
    CycleClass1,
    GradedVector,
    LatticeError,
    RingDescriptor,
    atiyah_tensor,
    bs_points,
    cycle_pairing,
    decompose_primitive,
    gft_class,
    intersection_count,
    mirror_cy1,
    odot,
    pair_exotic,
)
from latmirror.cy1 import Slope, reduce_slope

from oracles import (
    primitive_classes,
    sl2_char,
    char_mul,
    char_decompose,
    tensor_decompose_oracle,
    torus_line_intersections,
)

ELLIPTIC = RingDescriptor.elliptic()


def test_reduce_slope_examples():
    assert reduce_slope(2, 4) == Slope(1, 2)
    assert reduce_slope(0, -3) == Slope(0, 1)
    assert reduce_slope(-3, 6) == Slope(1, -2)
    with pytest.raises(LatticeError):
        reduce_slope(0, 0)


def test_intersection_examples():
    assert intersection_count(CycleClass1(1, 0), CycleClass1(0, 1)) == 1
    assert intersection_count(CycleClass1(3, 2), CycleClass1(3, 2)) == 0
    assert intersection_count(CycleClass1(1, 2), CycleClass1(2, 1)) == 3
    with pytest.raises(LatticeError):
        intersection_count(CycleClass1(0, 0), CycleClass1(1, 1))


def test_intersection_formula_vs_torus_oracle():
    """|d1 r2 - d2 r1| against brute-force crossing counts on the torus."""
    classes = primitive_classes(5)
    assert len(classes) > 60
    for c1 in classes:
        for c2 in classes:
            formula = intersection_count(CycleClass1(*c1), CycleClass1(*c2))
            assert formula == torus_line_intersections(c1, c2), (c1, c2)


def test_gft_examples():
    assert gft_class(BundleClass1(1, 0)) == CycleClass1(1, 0)
    assert gft_class(BundleClass1(1, 7)) == CycleClass1(1, 7)
    assert gft_class(BundleClass1(2, 3)) == CycleClass1(2, 3)
    with pytest.raises(LatticeError):
        gft_class(BundleClass1(0, 0))


def test_odot_examples():
    assert odot(CycleClass1(1, 1), CycleClass1(1, 1)) == CycleClass1(1, 2)
    assert odot(CycleClass1(1, 0), CycleClass1(4, -7)) == CycleClass1(4, -7)
    assert odot(CycleClass1(2, 1), CycleClass1(3, 1)) == CycleClass1(6, 5)
    with pytest.raises(LatticeError):
        odot(CycleClass1(0, 1), CycleClass1(1, 1))


@given(st.integers(1, 40), st.integers(-40, 40), st.integers(1, 40), st.integers(-40, 40))
def test_gft_is_odot_homomorphism(r1, d1, r2, d2):
    tensored = BundleClass1(r1 * r2, r1 * d2 + r2 * d1)
    lhs = gft_class(tensored)
    rhs = odot(gft_class(BundleClass1(r1, d1)), gft_class(BundleClass1(r2, d2)))
    assert lhs == rhs


def test_decompose_examples():
    assert decompose_primitive(CycleClass1(2, 4)) == (Slope(1, 2), 2)
    assert decompose_primitive(CycleClass1(1, 9)) == (Slope(1, 9), 1)
    assert decompose_primitive(CycleClass1(6, 5)) == (Slope(6, 5), 1)
    # the unit classes next to zero decompose; the refusal is reduce_slope's
    assert decompose_primitive(CycleClass1(1, 0)) == (Slope(1, 0), 1)
    assert decompose_primitive(CycleClass1(0, -1)) == (Slope(0, 1), 1)
    with pytest.raises(LatticeError, match="^zero class has no slope$"):
        decompose_primitive(CycleClass1(0, 0))


def test_rank_zero_bundle_class_is_accepted():
    assert gft_class(BundleClass1(0, 1)) == CycleClass1(0, 1)
    with pytest.raises(LatticeError, match="^rank must be nonnegative$"):
        BundleClass1(-1, 1)


def test_atiyah_dimension_weights_each_index_by_its_multiplicity():
    assert AtiyahElement.from_dict({2: 3, 5: -2}).dimension() == -4


@given(st.integers(-9, 9), st.integers(-9, 9), st.integers(1, 12))
def test_decompose_scaling(r, d, g):
    if (r, d) == (0, 0):
        return
    slope, mult = decompose_primitive(CycleClass1(g * r, g * d))
    base_slope, base_mult = decompose_primitive(CycleClass1(r, d))
    assert slope == base_slope
    assert mult == g * base_mult


# ------------------------------------------------------------ Atiyah ------

def test_atiyah_examples():
    assert atiyah_tensor(1, 5).terms == ((5, 1),)
    assert atiyah_tensor(2, 2).terms == ((1, 1), (3, 1))
    assert atiyah_tensor(2, 3).terms == ((2, 1), (4, 1))
    with pytest.raises(LatticeError):
        atiyah_tensor(0, 3)


def test_atiyah_and_bundle_entries_must_be_integers():
    # int() used to truncate these: F_2, multiplicity 1, a float cycle class
    with pytest.raises(LatticeError, match="^integer lattice datum expected, got 2.5$"):
        AtiyahElement(((2.5, 1),))
    with pytest.raises(LatticeError, match="got 1.9$"):
        AtiyahElement.from_dict({3: 1.9})
    with pytest.raises(LatticeError, match="got 1.5$"):
        BundleClass1(1.5, 2.5)
    with pytest.raises(LatticeError, match="got 2.5$"):
        BundleClass1(1, 2.5)
    for bad in ("1/2", True, None):
        with pytest.raises(LatticeError):
            AtiyahElement(((bad, 1),))
        with pytest.raises(LatticeError):
            BundleClass1(bad, 0)
    assert AtiyahElement((("2", "3"),)) == AtiyahElement(((2, 3),))
    assert BundleClass1("2", "-3") == BundleClass1(2, -3)
    assert type(gft_class(BundleClass1("2", "3")).e) is int


def test_slope_entries_coerce_as_bundle_entries_do():
    # "1" and 1.0 raised a bare TypeError from gcd, and True was stored
    with pytest.raises(LatticeError, match="got 1.0$"):
        Slope(1.0, 2)
    with pytest.raises(LatticeError, match="got 2.5$"):
        Slope(1, 2.5)
    for bad in ("1/2", True, None):
        with pytest.raises(LatticeError, match="^integer lattice datum expected"):
            Slope(bad, 0)
        with pytest.raises(LatticeError, match="^integer lattice datum expected"):
            Slope(1, bad)
    assert Slope("1", "-2") == Slope(1, -2)
    assert type(Slope("1", 2).r) is int


def test_atiyah_tensor_indices_must_be_integers():
    # True used to give F_2 (as F_1 (x) F_2); 2.0 and "x" a bare TypeError
    for bad in (True, 2.0, "x", None, "1/2"):
        for args in ((bad, 2), (2, bad)):
            with pytest.raises(LatticeError, match=f"^integer lattice datum expected, got {re.escape(repr(bad))}$"):
                atiyah_tensor(*args)
    assert atiyah_tensor("3", "2") == atiyah_tensor(3, 2)
    assert all(type(x) is int for term in atiyah_tensor("3", "2").terms for x in term)


def test_cycle_class_coordinates_must_be_integers():
    # a float used to pass straight through: 1.5 intersections, a float
    # product, and a bare TypeError from gcd
    for bad in (1.5, 2.0, True, None, "1/2"):
        for call in (
            lambda: intersection_count(CycleClass1(bad, 0), CycleClass1(0, 1)),
            lambda: cycle_pairing(CycleClass1(1, 0), CycleClass1(0, bad)),
            lambda: odot(CycleClass1(1, bad), CycleClass1(2, 1)),
            lambda: decompose_primitive(CycleClass1(bad, 4)),
        ):
            with pytest.raises(LatticeError, match="^integer lattice datum expected, got "):
                call()
    assert intersection_count(CycleClass1("1", 0), CycleClass1(0, "-1")) == 1
    assert odot(CycleClass1("1", "2"), CycleClass1(2, 1)) == CycleClass1(2, 5)
    assert type(odot(CycleClass1("1", "2"), CycleClass1(2, 1)).e) is int


def test_atiyah_against_character_oracle():
    start = time.perf_counter()
    for a in range(1, 9):
        for b in range(1, 9):
            got = atiyah_tensor(a, b).terms
            assert got == tensor_decompose_oracle(a, b), (a, b)
            assert atiyah_tensor(a, b).dimension() == a * b
    assert time.perf_counter() - start < 1.0


def test_atiyah_ring_laws():
    rng = random.Random(41)
    for _ in range(60):
        a, b, c = (rng.randint(1, 8) for _ in range(3))
        A, B, C = (AtiyahElement.basis(i) for i in (a, b, c))
        assert A * B == B * A == atiyah_tensor(a, b)
        assert (A * B) * C == A * (B * C), (a, b, c)


def test_atiyah_product_of_formal_sums_agrees_with_the_character_oracle():
    # a product of formal sums is the sum over pairs of terms of the
    # characters' decomposition, scaled by both multiplicities; where terms
    # cancel, as F_2 (F_1 - F_3) = F_2 - (F_2 + F_4) = -F_4, the product is
    # still the element of the summed dict: sorted, no zero multiplicity
    got = AtiyahElement.basis(2) * AtiyahElement.from_dict({1: 1, 3: -1})
    assert got == AtiyahElement.from_dict({2: 0, 4: -1}) and got.terms == ((4, -1),)
    rng = random.Random(43)
    cancelled = 0
    for _ in range(200):
        sums = [
            {rng.randint(1, 8): rng.choice((-3, -2, -1, 1, 2, 3)) for _ in range(rng.randint(1, 3))}
            for _ in range(2)
        ]
        want: dict = {}
        for ia, ma in sums[0].items():
            for ib, mb in sums[1].items():
                for idx, mult in tensor_decompose_oracle(ia, ib):
                    want[idx] = want.get(idx, 0) + ma * mb * mult
        cancelled += 0 in want.values()
        got = AtiyahElement.from_dict(sums[0]) * AtiyahElement.from_dict(sums[1])
        assert got.as_dict() == {idx: m for idx, m in want.items() if m}, sums
        assert list(got.terms) == sorted(got.terms)
        assert got == AtiyahElement.from_dict(want) and hash(got) == hash(AtiyahElement.from_dict(want))
    assert cancelled >= 10


def oracle_product(x: dict, y: dict) -> dict:
    """{index: multiplicity} of the product of two formal sums, zeros kept:
    the oracle's decomposition of each pair of terms, scaled by both
    multiplicities and summed."""
    out: dict = {}
    for ia, ma in x.items():
        for ib, mb in y.items():
            for idx, mult in tensor_decompose_oracle(ia, ib):
                out[idx] = out.get(idx, 0) + ma * mb * mult
    return out


def test_index_list_product_equals_the_character_oracle_on_every_pair_of_small_sums():
    # the empty sum, every c F_i and every c F_i + d F_j (i < j <= 4, c and d
    # in {-1, 1, 2}) times every other: 67^2 products.  Each is the oracle's
    # sum in increasing index order with its zeros dropped; in F_2 (F_1 - F_3)
    # = -F_4 and its like a multiplicity cancels to zero
    coeffs = (-1, 1, 2)
    sums = [{}]
    sums += [{i: c} for i in range(1, 5) for c in coeffs]
    sums += [
        {i: c, j: d}
        for i, j in itertools.combinations(range(1, 5), 2)
        for c in coeffs for d in coeffs
    ]
    cancelled = 0
    for x, y in itertools.product(sums, repeat=2):
        want = oracle_product(x, y)
        cancelled += 0 in want.values()
        got = AtiyahElement.from_dict(x) * AtiyahElement.from_dict(y)
        assert got.terms == tuple(sorted((i, m) for i, m in want.items() if m)), (x, y)
        assert all(type(i) is int and type(m) is int for i, m in got.terms)
        assert got == AtiyahElement.from_dict(want) and hash(got) == hash(AtiyahElement.from_dict(want))
    assert len(sums) == 67 and cancelled == 728
    # sparse sums far apart in index, and the unit on either side
    for x, y in (({1: 1, 40: -2}, {3: 1}), ({25: 1, 2: -1}, {30: 2, 1: 1}), ({1: 1}, {17: -3})):
        want = oracle_product(x, y)
        got = AtiyahElement.from_dict(x) * AtiyahElement.from_dict(y)
        assert got.terms == tuple(sorted((i, m) for i, m in want.items() if m)), (x, y)
        assert got == AtiyahElement.from_dict(y) * AtiyahElement.from_dict(x)


def test_atiyah_oracle_agrees_with_symmetric_power_recursion():
    # cross-check the oracle itself: chi_a * chi_b expanded two ways
    for a in range(1, 9):
        for b in range(1, 9):
            product = char_mul(sl2_char(a), sl2_char(b))
            total = sum(r * m for r, m in char_decompose(product))
            assert total == a * b


# ---------------------------------------------------------- mirror --------

def test_mirror_examples():
    assert mirror_cy1(GradedVector(1, (1, 0))) == CycleClass1(1, 0)
    assert mirror_cy1(GradedVector(1, (0, 1))) == CycleClass1(0, 1)
    assert mirror_cy1(GradedVector(1, (2, -1))) == CycleClass1(2, -1)
    with pytest.raises(LatticeError):
        mirror_cy1(GradedVector(1, ("1/2", 0)))


def test_mirror_isometry_random_pairs():
    rng = random.Random(97)
    for _ in range(1000):
        u = GradedVector(1, (rng.randint(-30, 30), rng.randint(-30, 30)))
        v = GradedVector(1, (rng.randint(-30, 30), rng.randint(-30, 30)))
        lhs = cycle_pairing(mirror_cy1(u), mirror_cy1(v))
        assert lhs == pair_exotic(u, v, ELLIPTIC)


# ---------------------------------------------------------- BS points -----

def test_bs_points_examples():
    from fractions import Fraction

    assert bs_points(1) == [Fraction(0)]
    assert bs_points(3) == [Fraction(0), Fraction(1, 3), Fraction(2, 3)]
    assert bs_points("3") == bs_points(3)  # an integer string, as the classes read it
    for k in range(1, 51):
        pts = bs_points(k)
        assert len(pts) == k
        assert pts == sorted(pts)
        assert all(0 <= p < 1 and p.denominator <= k for p in pts)
    with pytest.raises(LatticeError):
        bs_points(0)


@pytest.mark.parametrize("level", [2.0, 2.5, True, False, None, "x", "1/2", [3]])
def test_bs_points_refuse_a_level_that_is_not_an_integer(level):
    # a float or a string was a bare TypeError from range(); True was read as level 1
    with pytest.raises(LatticeError, match=r"^integer lattice datum expected, got "):
        bs_points(level)


def test_quantization_equality_cy1():
    s0 = CycleClass1(1, 0)
    for k in range(1, 51):
        cycle = gft_class(BundleClass1(1, k))
        assert intersection_count(cycle, s0) == k == len(bs_points(k))
