"""Each suite fails when one target it checks is broken.

One row per suite: a monkeypatch that breaks exactly one target, and a
reference for what the suite must then report.  For a batched sweep the
reference redraws the suite's seeded samples and checks them one at a
time through the per-vector functions; for a fixed list of checks it
derives the broken values by hand from the mutation.  Under the patch the
suite must report ``fail`` (not ``error``), and every check the reference
names must read exactly as the reference says.
"""

import json
import random
from fractions import Fraction
from typing import Callable, NamedTuple

import pytest

from latmirror import core, cy1, cy2, cy3, load_fixture, parse_manifest, run_verify
from latmirror.core import GradedVector, RingDescriptor, pair_exotic, todd_multiply
from latmirror.report import summary_check
from latmirror.suites import EXPECTED_CHI, SUITES


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


def break_h_gram(monkeypatch):
    monkeypatch.setattr(cy2, "H_GRAM", ((-2, 1), (1, 1)))  # [e]^2 = 1


def add_unit_entry(monkeypatch, form, row, col):
    """Add 1 to entry (row, col) of one compiled form of every ring compiled next.

    ``form`` is "sym", "exotic" or a Todd product name.  The entry is
    integral: its numerator is the form's denominator.
    """
    compile_forms = core._compile_forms

    def corrupted(ring):
        forms = compile_forms(ring)
        m = forms.products[form] if form in forms.products else getattr(forms, form)
        rows = list(m.rows)
        rows[row] = ((col, m.den), *rows[row])
        m = m._replace(rows=tuple(rows))
        if form in forms.products:
            return forms._replace(products={**forms.products, form: m})
        return forms._replace(**{form: m})

    monkeypatch.setattr(core, "_compile_forms", corrupted)


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


def cy1_isometry_reference(params, fixtures):
    rng = random.Random(params["seed"])
    ring = RingDescriptor.elliptic()
    bound = params["bound"]
    failures = []
    for _ in range(params["samples"]):
        u = GradedVector(1, (rng.randint(-bound, bound), rng.randint(-bound, bound)))
        v = GradedVector(1, (rng.randint(-bound, bound), rng.randint(-bound, bound)))
        lhs = cy1.cycle_pairing(cy1.mirror_cy1(u), cy1.mirror_cy1(v))
        rhs = pair_exotic(u, v, ring)
        if lhs != rhs:
            failures.append(f"u={u.blocks} v={v.blocks}: {lhs} != {rhs}")
    return {"mirror pairing equals Euler pairing on the curve": (params["samples"], failures)}


def k3_reflections_reference(params, fixtures):
    X = fixtures[params["fixture"]]
    rng = random.Random(params["seed"])
    k = X.ring.picard_rank
    invol, isome, walk = [], [], []
    for _ in range(params["samples"]):
        x = tuple(rng.randint(-9, 9) for _ in range(k))
        y = tuple(rng.randint(-9, 9) for _ in range(k))
        delta = X.roots[rng.randrange(len(X.roots))]
        rx = cy2.reflect_minus2(x, delta, X)
        if cy2.reflect_minus2(rx, delta, X) != tuple(map(Fraction, x)):
            invol.append(f"x={x} delta={delta}")
        if X.ring.pic_pair(rx, cy2.reflect_minus2(y, delta, X)) != X.ring.pic_pair(x, y):
            isome.append(f"x={x} y={y} delta={delta}")
        end = cy2.walk_to_chamber(x, X.roots, X).vector
        if any(X.ring.pic_pair(end, d) < 0 for d in X.roots):
            walk.append(f"x={x} stopped outside the chamber")
    n = params["samples"]
    return {
        "reflection is an involution": (n, invol),
        "reflection preserves the Gram pairing": (n, isome),
        "bounded walk reaches the nonnegative chamber": (n, walk),
    }


def k3_transport_reference(params, fixtures):
    X = fixtures[params["fixture"]]
    rng = random.Random(params["seed"])
    k = X.ring.picard_rank
    bound = params["bound"]
    failures, spheres = [], []
    for _ in range(params["samples"]):
        L1 = tuple(rng.randint(-bound, bound) for _ in range(k))
        L2 = tuple(rng.randint(-bound, bound) for _ in range(k))
        ch1, ch2 = (
            GradedVector(2, (1, L, Fraction(X.ring.pic_pair(L, L), 2))) for L in (L1, L2)
        )
        m1, m2 = cy2.mirror_k3(L1, X), cy2.mirror_k3(L2, X)
        lhs = cy2.mirror_pairing_k3(m1, m2, X)
        rhs = -pair_exotic(ch1, ch2, X.ring)
        if lhs != rhs:
            failures.append(f"L1={L1} L2={L2}: {lhs} != {rhs}")
        if cy2.mirror_pairing_k3(m1, m1, X) != -2:
            spheres.append(f"L={L1}")
    n = params["samples"]
    return {
        "mirror pairing transports the Euler pairing (orientation-reversed)": (n, failures),
        "every mirror image is a (-2)-sphere class": (n, spheres),
    }


def cy3_closure_reference(params, fixtures):
    out = {}
    for label in params["fixtures"]:
        X = fixtures[label]
        k = X.ring.picard_rank
        rng = random.Random(params["seed"])
        for _ in range(params["samples"] * 2 * (2 * k + 2)):  # the isometry's pairs
            rng.randint(-params["bound"], params["bound"])
        closure = []
        for _ in range(100):
            a, b = rng.randint(-20, 20), rng.randint(-20, 20)
            u = todd_multiply(GradedVector(3, (a, (0,) * k, (0,) * k, b)), X.ring, "sqrt_td")
            mir = cy3.mirror_cy3(u, X)
            if mir != cy3.MirrorClass3(a, b, (0,) * k, (0,) * k):
                closure.append(f"a={a} b={b}: {mir}")
        name = f"{label}: sqrt(td)-span of [X],[pt] maps onto section/fibre lattice"
        out[name] = (100, closure)
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


THREEFOLDS = ("quintic.json", "bicubic.json")

ROWS = [
    Row("cy1-mirror-isometry", (), flip_cycle_pairing_sign, summaries(cy1_isometry_reference)),
    Row("k3-reflections", ("k3_reflective.json",), double_reflection_coefficient,
        summaries(k3_reflections_reference)),
    Row("k3-mirror-transport", ("k3_quartic.json",), break_h_gram,
        summaries(k3_transport_reference)),
    Row("cy3-mirror-isometry", THREEFOLDS, corrupt_sqrt_td_product,
        summaries(cy3_closure_reference)),
    Row("cy3-quantization", THREEFOLDS, corrupt_td_product, cy3_quantization_reference),
    Row("cy3-sublattice", THREEFOLDS, corrupt_sym_form, cy3_sublattice_reference),
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
    # fresh descriptors compile their forms under the patch, as the run's did
    fixtures = {fx.label: fx for fx in map(load_fixture, row.fixtures)}
    want = row.reference(SUITES[row.suite].defaults, fixtures)
    got = {c.name: c.got for c in report.checks}
    for name, text in want.items():
        assert got[name] == text, name
