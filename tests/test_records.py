"""The value records and checking classes: read-only, hashable by value.

Records that only carry values are ``NamedTuple``s.  Failure texts in
reports and in the benchmark's fault messages embed their reprs, so the
repr keeps the ``Name(field=value, ...)`` text, and ``Check.to_json``
keeps its key order.  ``MirrorClass3`` is the ``GradedVector`` the mirror
map computes; it keeps the read-only fields, value equality, hash and
repr of the record it was.  The ten classes that check their input
derive from ``shared.ReadOnly``: no attribute can be set or deleted, two
are equal when they are of one class with equal fields, and the hash is
that of the tuple of fields.  ``ParamCurve`` alone compares by identity,
and ``K3Descriptor.root_axes`` is kept out of equality, hash and repr;
it holds tuples only, so it cannot be changed in place either.
"""

from fractions import Fraction
from pathlib import Path

import pytest

from latmirror import (
    AtiyahElement,
    CycleClass1,
    GradedVector,
    RingDescriptor,
    cy1,
    cy2,
    cy3,
    line_bundle_ch,
    load_k3_fixture,
    manifest,
    mirror_cy3,
    numeric,
    report,
    suites,
    todd_data,
)


def _check():
    return report.Check(name="n", ok=False, inputs="i", expected="e", got="g", tol="t")


def _records(k3_reflective):
    X = k3_reflective
    return {
        "ToddData": lambda: todd_data(RingDescriptor.elliptic()),
        "CycleClass1": lambda: CycleClass1(2, -3),
        "MirrorClassK3": lambda: cy2.mirror_k3((2, 1, 0), X),
        "GftClassK3": lambda: cy2.gft_class_k3((2, 1, 0), X),
        "QuantizationReportK3": lambda: cy2.verify_quantization_k3((2, 1, 0), X),
        "WalkResult": lambda: cy2.walk_to_chamber((1, 3, 4), X.roots, X),
        "MainConditionReport": lambda: cy2.check_main_condition(((0, 1), (1, -2)), (1, 0), (0, 1)),
        "SuiteSpec": lambda: manifest.SuiteSpec("cy1-atiyah", {"seed": 1}),
        "Manifest": lambda: manifest.Manifest("1", ("a",), (), Path("x"), ()),
        "VerifyResult": lambda: manifest.VerifyResult((report.SuiteReport("s", "fail"),), False),
        "Check": _check,
        "SuiteReport": lambda: report.SuiteReport("s", "pass", (_check(),), 0.5),
        "SuiteDef": lambda: suites.SUITES["cy1-atiyah"],
    }


# a dict field makes these two unhashable
UNHASHABLE = {"SuiteSpec", "SuiteDef"}

# reports and benchmark fault messages print these
LITERAL_REPRS = {
    "WalkResult": (
        "WalkResult(vector=(Fraction(1, 1), Fraction(-2, 1), Fraction(-4, 1)), "
        "steps=2, applied=(0, 1))"
    ),
    "QuantizationReportK3": (
        "QuantizationReportK3(label='k3-reflective', l2=2, h0=3, bs_count=3, ok=True)"
    ),
    "Check": "Check(name='n', ok=False, inputs='i', expected='e', got='g', tol='t')",
}


def test_thirteen_records_are_read_only_values(k3_reflective):
    records = _records(k3_reflective)
    assert len(records) == 13
    for name, make in records.items():
        a, b = make(), make()
        assert type(a).__name__ == name
        assert isinstance(a, tuple), name
        assert a == b, name
        if name not in UNHASHABLE:
            assert hash(a) == hash(b), name
        for attr in (a._fields[0], "extra"):
            with pytest.raises(AttributeError):
                setattr(a, attr, None)
        fields = ", ".join(f"{f}={getattr(a, f)!r}" for f in a._fields)
        assert repr(a) == f"{name}({fields})"
        if name in LITERAL_REPRS:
            assert repr(a) == LITERAL_REPRS[name]


def test_mirror_class3_is_a_read_only_value(quintic):
    a, b = (mirror_cy3(line_bundle_ch((1,), quintic), quintic) for _ in range(2))
    assert isinstance(a, GradedVector) and a.dim == 3
    assert a == b and hash(a) == hash(b)
    assert a == cy3.MirrorClass3(1, Fraction(-5, 4), (1,), (Fraction(5, 12),))
    assert a != cy3.MirrorClass3(1, Fraction(-5, 4), (1,), (0,))
    assert (a.s0, a.e, a.psi1, a.psi2) == (1, Fraction(-5, 4), (1,), (Fraction(5, 12),))
    for attr in ("s0", "e", "psi1", "psi2", "nums", "extra"):
        with pytest.raises(AttributeError):
            setattr(a, attr, None)
    # suite failure texts print it with str
    assert repr(a) == str(a) == (
        "MirrorClass3(s0=Fraction(1, 1), e=Fraction(-5, 4), psi1=(Fraction(1, 1),), "
        "psi2=(Fraction(5, 12),))"
    )


def test_record_properties_and_json_keep_their_shape():
    check = report.Check("n", True)
    assert list(check.to_json()) == ["name", "ok", "inputs", "expected", "got", "tol"]
    assert check.to_json() == {
        "name": "n", "ok": True, "inputs": "", "expected": "", "got": "", "tol": "",
    }
    rep = report.SuiteReport("s", "fail", (check,))
    assert rep.to_json() == {
        "suite": "s", "status": "fail", "duration_s": 0.0, "checks": [check.to_json()],
    }
    assert not rep.passed
    result = manifest.VerifyResult((rep,), False)
    assert result.exit_code == 1
    assert result.to_json()["suites"] == {"total": 1, "failed": 1}
    assert cy2.GftClassK3(s0=2, e=-3).slope == Fraction(-3, 2)


def _classes(k3_reflective, quintic):
    """name -> (factory, fields) of the ten classes that check their input.

    ``fields`` are the stored names that equality, hashing and (unless the
    class prints itself) the repr read, in order.
    """
    X, Q = k3_reflective, quintic
    vector = ("dim", "nums", "den")
    return {
        "GradedVector": (lambda: GradedVector(2, (1, ("1/2",), 3)), vector),
        "RingDescriptor": (
            lambda: RingDescriptor(2, 1, ((4,),)),
            ("dim", "picard_rank", "gram", "cubic", "c2"),
        ),
        "Slope": (lambda: cy1.Slope(1, 2), ("r", "d")),
        "AtiyahElement": (lambda: AtiyahElement(((2, 1),)), ("terms",)),
        "K3Descriptor": (
            lambda: cy2.K3Descriptor(X.ring, X.label, X.roots, X.singular_fibres),
            ("ring", "label", "roots", "singular_fibres"),
        ),
        "CY3Descriptor": (lambda: cy3.CY3Descriptor(Q.ring, Q.label), ("ring", "label")),
        "MirrorClass3": (lambda: cy3.MirrorClass3(1, Fraction(-5, 4), (1,), (0,)), vector),
        "Rank3Sublattice": (
            lambda: cy3.canonical_rank3_sublattice(Q),
            ("basis_labels", "gram_sym", "gram_exotic"),
        ),
        "TorusModel": (lambda: numeric.TorusModel(1j, 3), ("tau", "level")),
        "ParamCurve": (lambda: numeric.segment_curve((0, 0), (1, 1)), ("points", "orientation")),
    }


# each prints itself; ParamCurve compares and hashes by identity
OWN_REPR = {"GradedVector", "MirrorClass3"}

CLASS_REPRS = {
    "TorusModel": "TorusModel(tau=1j, level=3)",
    "Slope": "Slope(r=1, d=2)",
    "AtiyahElement": "AtiyahElement(terms=((2, 1),))",
    "K3Descriptor": (
        "K3Descriptor(ring=RingDescriptor(dim=2, picard_rank=3, "
        "gram=((0, 1, 0), (1, -2, 0), (0, 0, -2)), cubic=None, c2=None), "
        "label='k3-reflective', roots=((0, 1, 0), (0, 0, 1)), singular_fibres=24)"
    ),
}


def test_ten_validating_classes_are_read_only_values(k3_reflective, quintic):
    classes = _classes(k3_reflective, quintic)
    assert len(classes) == 10
    for name, (make, fields) in classes.items():
        a, b = make(), make()
        assert type(a).__name__ == name
        assert a is not b
        for attr in (fields[0], "extra"):
            with pytest.raises(AttributeError):
                setattr(a, attr, None)
            with pytest.raises(AttributeError):
                delattr(a, attr)
        values = tuple(getattr(a, f) for f in fields)
        if name == "ParamCurve":
            assert a != b and not a == b, name
            assert a == a and hash(a) == object.__hash__(a)
        else:
            assert a == b and not a != b, name
            assert hash(a) == hash(b) == hash(values), name
            assert a != values, name
        if name not in OWN_REPR:
            text = ", ".join(f"{f}={v!r}" for f, v in zip(fields, values))
            assert repr(a) == f"{name}({text})", name
        if name in CLASS_REPRS:
            assert repr(a) == CLASS_REPRS[name]
    # root_axes is stored but left out of the repr, and of equality and
    # hashing: it repeats the roots, with the Gram matrix applied
    X = k3_reflective
    assert [list(d) for d, _ in X.root_axes] == [list(r) for r in X.roots]
    assert "root_axes" not in repr(X) and hash(X) == hash(classes["K3Descriptor"][0]())


def test_root_axes_cannot_be_changed_in_place():
    # a fresh descriptor: the session fixtures are shared, and a change
    # to one would reach every later walk on it
    X = load_k3_fixture("k3_reflective")
    assert X.root_axes == (((0, 1, 0), (1, -2, 0)), ((0, 0, 1), (0, 0, -2)))
    with pytest.raises(TypeError):
        X.root_axes[0][1][1] = 5
    with pytest.raises(TypeError):
        X.root_axes[1][0][2] = 0
    # walks on the descriptor's own roots, which read root_axes: the ends
    # and the indices of the applied roots
    walks = {
        (1, 3, 4): ((1, -2, -4), (0, 1)),
        (0, 0, 5): ((0, 0, -5), (1,)),
        (2, -3, 1): ((2, -3, -1), (1,)),
        (-1, -1, -1): ((-1, -1, -1), ()),
    }
    assert cy2.walk_batch(list(walks), X.roots, X) == list(walks.values())
    res = cy2.walk_to_chamber((1, 3, 4), X.roots, X)
    assert (res.vector, res.applied) == ((1, -2, -4), (0, 1))


def test_classes_compare_only_with_their_own_class():
    assert numeric.TorusModel(1j, 3) != (1j, 3)
    assert numeric.TorusModel(1j, 3) == numeric.TorusModel(complex(0, 1), 3)
    w = cy3.MirrorClass3(1, Fraction(-5, 4), (1,), (0,))
    v = GradedVector(3, (1, (1,), (0,), Fraction(-5, 4)))
    assert (w.dim, w.nums, w.den) == (v.dim, v.nums, v.den)
    assert w != v and v != w and not w == v
    assert cy1.Slope(1, 2) != cy1.CycleClass1(1, 2) and cy1.Slope(1, 2) != (1, 2)


def test_keyword_construction_keeps_its_defaults(k3_reflective, quintic):
    ring = RingDescriptor(dim=1, picard_rank=0)
    assert repr(ring) == "RingDescriptor(dim=1, picard_rank=0, gram=None, cubic=None, c2=None)"
    assert ring == RingDescriptor.elliptic()
    X = cy2.K3Descriptor(ring=k3_reflective.ring)
    assert (X.label, X.roots, X.singular_fibres, X.root_axes) == ("k3", (), None, ())
    assert cy3.CY3Descriptor(ring=quintic.ring).label == "cy3"
    assert GradedVector(dim=1, blocks=(1, 2)) == GradedVector(1, (1, 2))
    assert cy3.MirrorClass3(s0=1, e=0, psi1=(1,), psi2=(0,)) == cy3.MirrorClass3(1, 0, (1,), (0,))
    assert cy1.Slope(r=0, d=1).is_infinite
    assert AtiyahElement(terms=((1, 0), (3, 2), (2, 1))).terms == ((2, 1), (3, 2))
    sub = cy3.canonical_rank3_sublattice(quintic)
    assert cy3.Rank3Sublattice(
        basis_labels=sub.basis_labels, gram_sym=sub.gram_sym, gram_exotic=sub.gram_exotic
    ) == sub
    assert numeric.TorusModel(tau=1j, level=3) == numeric.TorusModel(1j, 3)
    curve = numeric.ParamCurve(points=[(i / 16, 0.0) for i in range(16)])
    assert curve.orientation == 1 and curve.points.shape == (16, 2)


def test_blocks_and_todd_are_cached():
    v = GradedVector(2, (1, (2,), "1/2"))
    assert v.blocks is v.blocks
    assert v.blocks == (1, (2,), Fraction(1, 2))
    ring = RingDescriptor(2, 1, ((2,),))
    assert ring.todd is ring.todd
