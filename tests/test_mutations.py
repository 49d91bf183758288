"""Each suite fails when one target it checks is broken.

One row per suite: a monkeypatch that breaks exactly one target, and a
reference for what the suite must then report.  For a certificate the
reference checks the same basis classes or grid points one at a time
through the per-vector functions; for a seeded sweep it redraws the
suite's samples; for a fixed list of checks it derives the broken values
by hand from the mutation.  Under the patch the
suite must report ``fail`` (not ``error``), and every check the reference
names must read exactly as the reference says.
"""

import itertools
import json
import math
import random
from fractions import Fraction
from typing import Callable, NamedTuple

import pytest

from latmirror import core, cy1, cy2, cy3, load_fixture, numeric, parse_manifest, run_verify
from latmirror.core import GradedVector, RingDescriptor
from latmirror.report import summary_check
from latmirror.suites import EXPECTED_CHI, SUITES
from mutants import add_unit_entry
from oracles import bs_fibres_scalar


class Row(NamedTuple):
    suite: str
    fixtures: tuple  # fixture files the suite reads
    mutate: Callable  # (monkeypatch) -> None
    reference: Callable  # (params, fixtures) -> {check name: its `got` text}


# ------------------------------------------------------------ mutations ----

def flip_cycle_pairing_sign(monkeypatch):
    monkeypatch.setattr(cy1, "cycle_pairing", lambda a, b: a.s0 * b.e + a.e * b.s0)


def double_reflection_coefficient(monkeypatch):
    reflect = cy2._reflect_columns

    def doubled(xs, delta, X):
        # x + 2 (x.delta) delta
        return [2 * y - x for x, y in zip(xs, reflect(xs, delta, X))]

    monkeypatch.setattr(cy2, "_reflect_columns", doubled)


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
    n = params["samples"]
    draws = random.Random(params["seed"]).choices(range(-9, 10), k=n * k)
    walk = []
    for i in range(n):
        x = tuple(draws[i * k:(i + 1) * k])
        end = cy2.walk_to_chamber(x, X.roots, X).vector
        if any(X.ring.pic_pair(end, d) < 0 for d in X.roots):
            walk.append(f"x={x} stopped outside the chamber")
    m = len(X.roots)
    return {
        "reflection is an involution": (m * k, invol),
        "reflection preserves the Gram pairing": (m * k * k, isome),
        "bounded walk reaches the nonnegative chamber": (n, walk),
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
    rng = random.Random(params["seed"])
    failures = []
    for _ in range(params["samples"]):
        k = rng.randint(1, params["k_max"])
        j = math.floor(rng.random() * k)
        got = numeric.holonomy_character(numeric.TorusModel(tau=1j, level=k), j / k)
        if abs(got - 1.0) > numeric.QUADRATURE_TOL:
            failures.append(f"k={k} t={Fraction(j, k)}: |holonomy - 1|={abs(got - 1.0):.2e}")
    return {"holonomy is trivial at the exact marked fibres j/k": (params["samples"], failures)}


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
