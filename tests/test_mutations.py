"""Each suite fails when one target it checks is broken.

One row per suite: a monkeypatch that breaks exactly one target, and a
reference for what the suite must then report.  For a certificate the
reference checks the same basis classes or grid points one at a time
through the per-vector functions; for an exhaustive sweep, the walk of
``k3-reflections`` included, it enumerates the same finite set; for a
fixed list of checks it derives the broken values by hand from the
mutation.  Under the patch the suite must report ``fail`` (not
``error``), and every check the reference names must read exactly as
the reference says.  A few mutants outside the rows break a second
target of a suite that already has one.
"""

import itertools
import json
from fractions import Fraction
from typing import Callable, NamedTuple

import pytest

from latmirror import core, cy1, cy2, cy3, load_fixture, numeric, parse_manifest, run_verify
from latmirror.core import GradedVector, RingDescriptor
from latmirror.report import summary_check
from latmirror.suites import EXPECTED_CHI, SUITES
from mutants import add_unit_entry
from oracles import bs_fibres_scalar, tensor_decompose_oracle


class Row(NamedTuple):
    suite: str
    fixtures: tuple  # fixture files the suite reads
    mutate: Callable  # (monkeypatch) -> None
    reference: Callable  # (params, fixtures) -> {check name: its `got` text}


# ------------------------------------------------------------ mutations ----

def drop_odot_cross_term(monkeypatch):
    # (r1, d1) (.) (r2, d2) loses the r2 d1 of its fibre coefficient
    monkeypatch.setattr(cy1, "odot", lambda a, b: cy1.CycleClass1(a.s0 * b.s0, a.s0 * b.e))


def drop_lowest_atiyah_summand(monkeypatch):
    # every pair of terms loses its lowest Clebsch-Gordan index F_{|a-b|+1},
    # so F_1 (x) F_b is zero; atiyah_tensor, the pair table, is untouched
    def product(self, other):
        out = {}
        for ia, ma in self.terms:
            for ib, mb in other.terms:
                for idx in range(ia + ib - 1, abs(ia - ib) + 1, -2):
                    out[idx] = out.get(idx, 0) + ma * mb
        return cy1.AtiyahElement.from_dict(out)

    monkeypatch.setattr(cy1.AtiyahElement, "__mul__", product)


def drop_lowest_pair_summand(monkeypatch):
    # the pair table loses F_{|a-b|+1} from every F_a (x) F_b, so its rank
    # is a b - |a - b| - 1; the sum stays symmetric in (a, b)
    tensor = cy1.atiyah_tensor

    def dropped(a, b):
        return cy1.AtiyahElement(tensor(a, b).terms[1:])

    monkeypatch.setattr(cy1, "atiyah_tensor", dropped)


def copies_of_the_larger_factor(monkeypatch):
    # for a < b the pair table reads F_a (x) F_b as a copies of F_b: the rank
    # a b is kept, but F_2 (x) F_3 = 2 F_3 while F_3 (x) F_2 = F_2 + F_4
    tensor = cy1.atiyah_tensor

    def asymmetric(a, b):
        return cy1.AtiyahElement(((b, a),)) if a < b else tensor(a, b)

    monkeypatch.setattr(cy1, "atiyah_tensor", asymmetric)


def flip_cycle_pairing_sign(monkeypatch):
    monkeypatch.setattr(cy1, "cycle_pairing", lambda a, b: a.s0 * b.e + a.e * b.s0)


def double_reflection_coefficient(monkeypatch):
    reflect = cy2._reflect_columns

    def doubled(xs, delta, X):
        # x + 2 (x.delta) delta
        return [2 * y - x for x, y in zip(xs, reflect(xs, delta, X))]

    monkeypatch.setattr(cy2, "_reflect_columns", doubled)


def record_the_first_root(monkeypatch):
    # the walk reflects as before but records root 0 for every reflection
    walk = cy2.walk_batch

    def misrecorded(points, roots, X):
        return [(end, (0,) * len(applied)) for end, applied in walk(points, roots, X)]

    monkeypatch.setattr(cy2, "walk_batch", misrecorded)


def map_the_walk_ends(scale):
    """A mutation: the walk records its roots as before but ends at scale * end."""

    def mutate(monkeypatch):
        walk = cy2.walk_batch

        def rescaled(points, roots, X):
            walks = walk(points, roots, X)
            return [(tuple(scale * a for a in end), applied) for end, applied in walks]

        monkeypatch.setattr(cy2, "walk_batch", rescaled)

    return mutate


def flip_fibre_coefficient(monkeypatch):
    # the marked-fibre expansion reads [s0] + L^2/2 [e'] for [s0] - L^2/2 [e']
    marked = cy2._marked_fibres
    monkeypatch.setattr(cy2, "_marked_fibres", lambda l2: marked(-l2))


def drop_orthogonality_check(monkeypatch):
    # the fibre/section pair is certified without its declared complement
    check = cy2.check_main_condition
    monkeypatch.setattr(
        cy2, "check_main_condition", lambda gram, e, s, complement=(): check(gram, e, s)
    )


def break_h_gram(monkeypatch):
    monkeypatch.setattr(cy2, "H_GRAM", ((-2, 1), (1, 1)))  # [e]^2 = 1


def corrupt_exotic_form(monkeypatch):
    # G[0][0] = 1: [X] pairs to 1 with itself, so G + G^T is not zero
    add_unit_entry(monkeypatch, "exotic", 0, 0)


def corrupt_sqrt_td_product(monkeypatch):
    # the point coordinate gains the rank coordinate: an integral change
    # the mirror map carries to the fibre coefficient
    add_unit_entry(monkeypatch, "sqrt_td", -1, 0)


def corrupt_td_product(monkeypatch):
    # chi, the top coordinate of ch * td, gains the rank coordinate
    add_unit_entry(monkeypatch, "td", -1, 0)


def corrupt_sym_form(monkeypatch):
    # [X].[X] = 1: the rank row and column, outside those of c2, so the
    # sublattice still degenerates along c2 and the suite fails, not errors
    add_unit_entry(monkeypatch, "sym", 0, 0)


def scale_holonomy_level(monkeypatch):
    # the swept area, and so the holonomy, uses the level k * (1 + 1e-6)
    swept_area = numeric._swept_area
    monkeypatch.setattr(numeric, "_swept_area", lambda m, t: swept_area(m, t) * (1.0 + 1e-6))


def first_order_end_tangents(monkeypatch):
    # the chords from the end samples replace the one-sided 3-point stencils
    monkeypatch.setattr(numeric, "_end_tangents", lambda pts: (pts[1] - pts[0], pts[-1] - pts[-2]))


# ----------------------------------------------------------- references ----

def summaries(sweep):
    """A reference from a per-sample sweep: {check name: (total, failures)}."""

    def reference(params, fixtures):
        want = sweep(params, fixtures)
        assert any(failures for _, failures in want.values())
        return {
            name: summary_check(name, total, failures).got
            for name, (total, failures) in want.items()
        }

    return reference


def basis_pairs(basis):
    """(name, u, v) for every ordered pair of basis classes, as the suites order them."""
    named = [(f"e{i}", u) for i, u in enumerate(basis)]
    return [(f"({a}, {b})", u, v) for (a, u), (b, v) in itertools.product(named, repeat=2)]


def grid(k, r):
    return list(itertools.product(range(-r, r + 1), repeat=k))


def cy1_isometry_reference(params, fixtures):
    ring = RingDescriptor.elliptic()
    pairs = basis_pairs(GradedVector.basis(1, 0))
    failures = []
    for name, u, v in pairs:
        lhs = cy1.cycle_pairing(cy1.mirror_cy1(u), cy1.mirror_cy1(v))
        rhs = core.pair_exotic(u, v, ring)
        if lhs != rhs:
            failures.append(f"{name}: {lhs} != {rhs}")
    return {"mirror pairing equals Euler pairing on the curve": (len(pairs), failures)}


def cy1_quantization_reference(params, fixtures):
    # the Euler form gains u0 v0, so chi(O, L^k) reads k + 1; the
    # intersection count does not use it
    return {
        f"level {k}: transform meets section in k points, L^k has k sections":
            f"intersections={k}, sections={k + 1}"
        for k in range(1, params["k_max"] + 1)
    }


def cy1_gft_reference(params, fixtures):
    # the tensor class by hand against the patched odot: the dropped term
    # r2 d1 is nonzero exactly when d1 = 1, on half of the 16 points
    values = list(itertools.product((1, 2), (0, 1)))
    failures = []
    for (r1, d1), (r2, d2) in itertools.product(values, repeat=2):
        want = cy1.CycleClass1(r1 * r2, r1 * d2 + r2 * d1)
        if cy1.odot(cy1.CycleClass1(r1, d1), cy1.CycleClass1(r2, d2)) != want:
            failures.append(f"(r1,d1)=({r1},{d1}) (r2,d2)=({r2},{d2})")
    assert len(failures) == 8
    return {"transform of a tensor product is the fibrewise product": (16, failures)}


def cy1_atiyah_reference(params, fixtures):
    # the pair products from the sl2 character oracle, the outer products
    # through the patched one; the unit times the sample loses every term
    top = params["max_index"]
    indices = range(1, top + 1)
    basis = cy1.AtiyahElement.basis

    def pair(a, b):
        return cy1.AtiyahElement(tensor_decompose_oracle(a, b))

    failures = [
        f"({a},{b},{c})"
        for a, b, c in itertools.product(indices, repeat=3)
        if pair(a, b) * basis(c) != basis(a) * pair(b, c)
    ]
    assert failures
    name = "indecomposable product is associative"
    return {
        name: summary_check(name, top ** 3, failures).got,
        "F_1 is the unit": "()",
    }


def k3_reflections_reference(params, fixtures):
    X = fixtures[params["fixture"]]
    k = X.ring.picard_rank
    basis = [tuple(int(i == j) for j in range(k)) for i in range(k)]
    invol, isome = [], []
    for delta in X.roots:
        for i, x in enumerate(basis):
            if cy2.reflect_minus2(cy2.reflect_minus2(x, delta, X), delta, X) != x:
                invol.append(f"delta={delta} e{i}")
        for name, x, y in basis_pairs(basis):
            rx, ry = cy2.reflect_minus2(x, delta, X), cy2.reflect_minus2(y, delta, X)
            lhs, rhs = X.ring.pic_pair(rx, ry), X.ring.pic_pair(x, y)
            if lhs != rhs:
                isome.append(f"delta={delta} {name}: {lhs} != {rhs}")
    # each walk from the box, its recorded roots replayed one reflection
    # at a time through reflect_minus2
    starts = grid(k, 2)
    walk = []
    for x in starts:
        result = cy2.walk_to_chamber(x, X.roots, X)
        end = tuple(map(int, result.vector))
        replay = x
        for j in result.applied:
            replay = tuple(map(int, cy2.reflect_minus2(replay, X.roots[j], X)))
        wrong = []
        if replay != end:
            wrong.append(f"replay {replay} != end {end}")
        if X.ring.pic_pair(end, end) != X.ring.pic_pair(x, x):
            wrong.append(f"square {X.ring.pic_pair(end, end)} != {X.ring.pic_pair(x, x)}")
        if any(X.ring.pic_pair(end, d) < 0 for d in X.roots):
            wrong.append("stopped outside the chamber")
        if wrong:
            walk.append(f"x={x}: {'; '.join(wrong)}")
    m = len(X.roots)
    return {
        "reflection is an involution": (m * k, invol),
        "reflection preserves the Gram pairing": (m * k * k, isome),
        "bounded walk reaches the nonnegative chamber": (len(starts), walk),
    }


def k3_quantization_reference(params, fixtures):
    # the count becomes 2 - L^2/2 against 2 + L^2/2 sections; the mirror is untouched
    return {
        f"L^2 = {l2}: sections match marked fibres": f"h0={2 + l2 // 2}, count={2 - l2 // 2}, square=-2"
        for l2 in range(0, params["l2_max"] + 1, 2)
    }


def k3_main_condition_reference(params, fixtures):
    # only the case whose complement meets the fibre needed the dropped check
    return {"main condition: complement vector meeting the fibre": "pass"}


def k3_transport_reference(params, fixtures):
    X = fixtures[params["fixture"]]
    k = X.ring.picard_rank
    failures, spheres = [], []
    for L1, L2 in itertools.product(grid(k, 1), repeat=2):
        ch1, ch2 = (
            GradedVector(2, (1, L, Fraction(X.ring.pic_pair(L, L), 2))) for L in (L1, L2)
        )
        lhs = cy2.mirror_pairing_k3(cy2.mirror_k3(L1, X), cy2.mirror_k3(L2, X), X)
        rhs = -core.pair_exotic(ch1, ch2, X.ring)
        if lhs != rhs:
            failures.append(f"({L1}, {L2}): {lhs} != {rhs}")
    for L in grid(k, 2):
        m = cy2.mirror_k3(L, X)
        square = cy2.mirror_pairing_k3(m, m, X)
        if square != -2:
            spheres.append(f"L={L}: {square}")
    return {
        "mirror pairing transports the Euler pairing (orientation-reversed)": (
            3 ** (2 * k), failures,
        ),
        "every mirror image is a (-2)-sphere class": (5 ** k, spheres),
    }


def cy3_skew_reference(params, fixtures):
    out = {}
    for label in params["fixtures"]:
        X = fixtures[label]
        basis = GradedVector.basis(3, X.ring.picard_rank)
        n = len(basis)
        diag = []
        for i, j in itertools.combinations_with_replacement(range(n), 2):
            w = basis[i] + basis[j]
            square = core.pair_exotic(w, w, X.ring)
            if square != 0:
                diag.append(f"e{i} + e{j}: {square}")
        anti = []
        for i, j in itertools.product(range(n), repeat=2):
            forward = core.pair_exotic(basis[i], basis[j], X.ring)
            backward = core.pair_exotic(basis[j], basis[i], X.ring)
            if forward + backward != 0:
                anti.append(f"(e{i}, e{j}): {-backward} != {forward}")
        out[f"{label}: self-pairing vanishes (virtual dimension 0)"] = (n * (n + 1) // 2, diag)
        out[f"{label}: Euler pairing is antisymmetric"] = (n * n, anti)
    return out


def cy3_closure_reference(params, fixtures):
    out = {}
    for label in params["fixtures"]:
        X = fixtures[label]
        k = X.ring.picard_rank
        zero = (0,) * k
        closure = []
        for name, u, want in (
            ("[X]", GradedVector.unit(3, k), cy3.MirrorClass3(1, 0, zero, zero)),
            ("[pt]", GradedVector.point(3, k), cy3.MirrorClass3(0, 1, zero, zero)),
        ):
            mir = cy3.mirror_cy3(core.todd_multiply(u, X.ring, "sqrt_td"), X)
            if mir != want:
                closure.append(f"{name}: {mir}")
        name = f"{label}: sqrt(td)-span of [X],[pt] maps onto section/fibre lattice"
        out[name] = (2, closure)
    return out


def cy3_quantization_reference(params, fixtures):
    # every class below has rank 1, so every chi is one more than the truth
    out = {}
    for label in params["fixtures"]:
        out[f"{label}: structure sheaf has chi 0"] = "1"
        for L, chi in EXPECTED_CHI[label]:
            out[f"{label}: O({L}) section count = transform slope"] = (
                f"slope={chi + 1}, chi={chi + 1}"
            )
    return out


def cy3_sublattice_reference(params, fixtures):
    sym = tuple(tuple(map(Fraction, row)) for row in ((1, 0, 1), (0, 0, 0), (1, 0, 0)))
    skew = tuple(tuple(map(Fraction, row)) for row in ((0, 0, 1), (0, 0, 0), (-1, 0, 0)))
    return {
        f"{label}: rank-3 span degenerates along c2": f"sym {sym}; skew {skew}"
        for label in params["fixtures"]
    }


def quant_holonomy_reference(params, fixtures):
    marks = [(k, j) for k in range(1, params["k_max"] + 1) for j in range(k)]
    failures = []
    for k, j in marks:
        got = numeric.holonomy_character(numeric.TorusModel(tau=1j, level=k), j / k)
        if abs(got - 1.0) > numeric.QUADRATURE_TOL:
            failures.append(f"k={k} t={Fraction(j, k)}: |holonomy - 1|={abs(got - 1.0):.2e}")
    return {"holonomy is trivial at the exact marked fibres j/k": (len(marks), failures)}


def quant_bs_reference(params, fixtures):
    # every level but 1 moves its fibres j/k to j/(k (1 + 1e-6)), far past
    # the tolerance; the roots come from the per-bracket scalar search
    tau = complex(*params["tau"])
    out = {}
    for k in range(1, params["k_max"] + 1):
        m = numeric.TorusModel(tau=tau, level=k)
        roots = bs_fibres_scalar(lambda t: numeric.holonomy_character(m, t), k, params["tol"])
        err = max(abs(t - j / k) for j, t in enumerate(roots))
        assert (err > params["tol"]) == (k > 1), k
        if k > 1:
            out[f"level {k}: marked fibres sit at j/k"] = f"{k} fibres, max deviation {err:.2e}"
    return out


def quant_phase_reference(params, fixtures):
    # an end chord of an arc of n samples turns by half a step, pi / (2 (n - 1)),
    # against the tangent; the half-turn tangent sweeps pi - pi / 1023, and
    # the det map, its square, winds 1 - 1/1023.  Segments are their own
    # chords, and the full circle is closed, with no ends.
    return {"half-turn arc: det map winds once": f"winding {1 - 1 / 1023:.9f}"}


THREEFOLDS = ("quintic.json", "bicubic.json")

ROWS = [
    Row("cy1-mirror-isometry", (), flip_cycle_pairing_sign, summaries(cy1_isometry_reference)),
    Row("cy1-quantization", (), corrupt_exotic_form, cy1_quantization_reference),
    Row("cy1-gft-homomorphism", (), drop_odot_cross_term, summaries(cy1_gft_reference)),
    Row("cy1-atiyah", (), drop_lowest_atiyah_summand, cy1_atiyah_reference),
    Row("k3-quantization", ("k3_elliptic.json",), flip_fibre_coefficient,
        k3_quantization_reference),
    Row("k3-main-condition", (), drop_orthogonality_check, k3_main_condition_reference),
    Row("k3-reflections", ("k3_reflective.json",), double_reflection_coefficient,
        summaries(k3_reflections_reference)),
    Row("k3-mirror-transport", ("k3_quartic.json",), break_h_gram,
        summaries(k3_transport_reference)),
    Row("cy3-skew", THREEFOLDS, corrupt_exotic_form, summaries(cy3_skew_reference)),
    Row("cy3-mirror-isometry", THREEFOLDS, corrupt_sqrt_td_product,
        summaries(cy3_closure_reference)),
    Row("cy3-quantization", THREEFOLDS, corrupt_td_product, cy3_quantization_reference),
    Row("cy3-sublattice", THREEFOLDS, corrupt_sym_form, cy3_sublattice_reference),
    Row("quant-holonomy", (), scale_holonomy_level, summaries(quant_holonomy_reference)),
    Row("quant-bs", (), scale_holonomy_level, quant_bs_reference),
    Row("quant-phase", (), first_order_end_tangents, quant_phase_reference),
]


def test_every_suite_but_the_theta_rank_has_a_row():
    # quant-theta-rank cannot fail: its theta rows are orthogonal for every
    # lattice weight, so no broken target shows; every other suite has a row
    suites = [row.suite for row in ROWS]
    assert len(suites) == len(set(suites))
    assert set(suites) == set(SUITES) - {"quant-theta-rank"}


@pytest.mark.parametrize("row", ROWS, ids=[row.suite for row in ROWS])
def test_broken_target_fails_the_suite(row, monkeypatch, tmp_path):
    row.mutate(monkeypatch)
    manifest = tmp_path / "m.json"
    manifest.write_text(json.dumps({
        "version": "1",
        "fixtures": list(row.fixtures),
        "suites": [{"name": row.suite, "params": {}}],
    }))
    report = {r.suite: r for r in run_verify(parse_manifest(manifest)).reports}[row.suite]
    assert report.status == "fail"
    # the references call the patched forms, as the run did
    fixtures = {fx.label: fx for fx in map(load_fixture, row.fixtures)}
    want = row.reference(SUITES[row.suite].defaults, fixtures)
    got = {c.name: c.got for c in report.checks}
    for name, text in want.items():
        assert got[name] == text, name
    # every check that fails is one the reference accounts for
    assert {c.name for c in report.checks if not c.ok} <= set(want)


def test_corrupted_exotic_form_fails_the_mirror_isometry(monkeypatch, tmp_path):
    # the certificate pairs the basis by the Euler form on one side: G[0][0] = 1
    # while the skew image form pairs [X] sqrt(td) to 0 with itself
    corrupt_exotic_form(monkeypatch)
    manifest = tmp_path / "m.json"
    manifest.write_text(json.dumps({
        "version": "1",
        "fixtures": list(THREEFOLDS),
        "suites": [{"name": "cy3-mirror-isometry", "params": {}}],
    }))
    report = {r.suite: r for r in run_verify(parse_manifest(manifest)).reports}[
        "cy3-mirror-isometry"
    ]
    assert report.status == "fail"
    for label in ("quintic", "bicubic"):
        check = next(c for c in report.checks if c.name == f"{label}: mirror map is an isometry")
        assert not check.ok
        assert "; first: (e0, e0): 0 != 1" in check.got, check.got


def cy1_pair_table_reference(params, fixtures):
    # the pair check and the associativity check from the patched table, the
    # rank by its definition and commutativity as equality of the two orders;
    # the unit check runs on the product alone, which no table mutant breaks
    top = params["max_index"]
    indices = range(1, top + 1)
    table = {(a, b): cy1.atiyah_tensor(a, b) for a, b in itertools.product(indices, repeat=2)}
    pair_failures = []
    for (a, b), product in table.items():
        rank = sum(idx * mult for idx, mult in product.terms)
        if rank != a * b:
            pair_failures.append(f"F_{a}xF_{b} dim {rank}")
        if product.terms != table[b, a].terms:
            pair_failures.append(f"F_{a}xF_{b} not commutative")
    basis = cy1.AtiyahElement.basis
    assoc_failures = [
        f"({a},{b},{c})"
        for a, b, c in itertools.product(indices, repeat=3)
        if table[a, b] * basis(c) != basis(a) * table[b, c]
    ]
    pair = f"indecomposable products: rank multiplicative, commutative (a,b <= {top})"
    assoc = "indecomposable product is associative"
    return pair_failures, {
        pair: summary_check(pair, top * top, pair_failures).got,
        assoc: summary_check(assoc, top ** 3, assoc_failures).got,
    }


@pytest.mark.parametrize(
    "mutate, kind, count",
    [
        # every one of the 64 pairs loses a summand of rank |a - b| + 1 >= 1
        (drop_lowest_pair_summand, " dim ", 64),
        # both orders of each of the 21 pairs 2 <= a < b <= 8; F_1 (x) F_b
        # is F_b either way
        (copies_of_the_larger_factor, "not commutative", 42),
    ],
    ids=["dropped-summand", "asymmetric"],
)
def test_a_broken_pair_table_fails_the_atiyah_pair_check(mutate, kind, count, monkeypatch, tmp_path):
    # the row of cy1-atiyah breaks the product; these break the pair table,
    # which only the rank and commutativity check reads on its own
    mutate(monkeypatch)
    manifest = tmp_path / "m.json"
    manifest.write_text(json.dumps({
        "version": "1",
        "fixtures": [],
        "suites": [{"name": "cy1-atiyah", "params": {}}],
    }))
    report = {r.suite: r for r in run_verify(parse_manifest(manifest)).reports}["cy1-atiyah"]
    assert report.status == "fail"
    pair_failures, want = cy1_pair_table_reference(SUITES["cy1-atiyah"].defaults, {})
    assert len(pair_failures) == count and all(kind in f for f in pair_failures)
    got = {c.name: c for c in report.checks}
    for name, text in want.items():
        assert got[name].got == text, name
    pair = next(iter(want))
    assert not got[pair].ok
    assert {c.name for c in report.checks if not c.ok} <= set(want)
    assert got["F_1 is the unit"].ok


def walk_check_failures(mutate, monkeypatch, tmp_path):
    """The walk check of k3-reflections under a mutation, and its reference.

    The walk check must be the only one that fails, and read as the
    reference's failure list summarised.  Returns that list and the check's
    ``got`` text.
    """
    mutate(monkeypatch)
    manifest = tmp_path / "m.json"
    manifest.write_text(json.dumps({
        "version": "1",
        "fixtures": ["k3_reflective.json"],
        "suites": [{"name": "k3-reflections", "params": {}}],
    }))
    report = {r.suite: r for r in run_verify(parse_manifest(manifest)).reports}["k3-reflections"]
    assert report.status == "fail"
    name = "bounded walk reaches the nonnegative chamber"
    (failed,) = [c for c in report.checks if not c.ok]
    assert failed.name == name
    fixtures = {"k3-reflective": load_fixture("k3_reflective.json")}
    total, failures = k3_reflections_reference(SUITES["k3-reflections"].defaults, fixtures)[name]
    assert failed.got == summary_check(name, total, failures).got
    return failures, failed.got


def test_a_misrecorded_walk_fails_the_walk_check(monkeypatch, tmp_path):
    # the walk still ends in the chamber with the start's square, so only
    # the replay sees the wrong indices: on k3-reflective the roots (0, 1, 0)
    # and (0, 0, 1) are orthogonal, and a start reflects in the second root
    # exactly when x.(0, 0, 1) = -2 x_2 < 0; those 50 of the 125 starts fail
    failures, got = walk_check_failures(record_the_first_root, monkeypatch, tmp_path)
    assert [f.split(":")[0] for f in failures] == [f"x={x}" for x in grid(3, 2) if x[2] > 0]
    assert got == "50/125 failed; first: x=(-2, -2, 1): replay (-2, 0, 1) != end (-2, -2, -1)"


@pytest.mark.parametrize(
    "scale, first, item, count",
    [
        # a doubled end is still in the chamber but has four times the
        # square, so the square check fails except at the 12 ends of square 0
        (2, "x=(-2, -2, -2): replay (-2, -2, -2) != end (-4, -4, -4); square -32 != -8",
         "; square ", 112),
        # a negated end keeps the square but pairs negatively with a root,
        # except at the 2 ends orthogonal to every root
        (-1, "x=(-2, -2, -2): replay (-2, -2, -2) != end (2, 2, 2); stopped outside the chamber",
         "; stopped outside the chamber", 122),
    ],
    ids=["doubled", "negated"],
)
def test_a_walk_that_ends_elsewhere_fails_the_square_or_chamber_check(
    scale, first, item, count, monkeypatch, tmp_path
):
    # the recorded roots replay to the true end, so every start but the
    # origin, whose end is 0 either way, fails the replay
    failures, got = walk_check_failures(map_the_walk_ends(scale), monkeypatch, tmp_path)
    assert [f.split(":")[0] for f in failures] == [f"x={x}" for x in grid(3, 2) if any(x)]
    assert got == f"124/125 failed; first: {first}"
    assert sum(item in f for f in failures) == count
    assert sum(f.count("; ") for f in failures) == count  # no other comparison fails
