"""The value records: read-only, hashable by value, printed as before.

Records that only carry values are ``NamedTuple``s.  Failure texts in
reports and in the benchmark's fault messages embed their reprs, so the
repr keeps the ``Name(field=value, ...)`` text, and ``Check.to_json``
keeps its key order.  ``MirrorClass3`` is the ``GradedVector`` the mirror
map computes; it keeps the read-only fields, value equality, hash and
repr of the record it was.
"""

from fractions import Fraction
from pathlib import Path

import pytest

from latmirror import (
    CycleClass1,
    GradedVector,
    RingDescriptor,
    cy2,
    cy3,
    line_bundle_ch,
    manifest,
    mirror_cy3,
    report,
    suites,
    todd_data,
)


def _check():
    return report.Check(name="n", ok=False, inputs="i", expected="e", got="g", tol="t")


def _records(k3_reflective, quintic):
    X, Q = k3_reflective, quintic
    u = GradedVector(3, (1, (0,), (0,), 0))
    v = GradedVector(3, (0, (1,), (0,), 0))
    return {
        "ToddData": lambda: todd_data(RingDescriptor.elliptic()),
        "CycleClass1": lambda: CycleClass1(2, -3),
        "MirrorClassK3": lambda: cy2.mirror_k3((2, 1, 0), X),
        "GftClassK3": lambda: cy2.gft_class_k3((2, 1, 0), X),
        "QuantizationReportK3": lambda: cy2.verify_quantization_k3((2, 1, 0), X),
        "WalkResult": lambda: cy2.walk_to_chamber((1, 3, 4), X.roots, X),
        "MainConditionReport": lambda: cy2.check_main_condition(((0, 1), (1, -2)), (1, 0), (0, 1)),
        "IsometryReport3": lambda: cy3.mirror_isometry_check3(u, v, Q),
        "SuiteSpec": lambda: manifest.SuiteSpec("cy1-atiyah", {"seed": 1}),
        "Manifest": lambda: manifest.Manifest("1", ("a",), (), Path("x"), ()),
        "VerifyResult": lambda: manifest.VerifyResult((report.SuiteReport("s", "fail"),), False),
        "Check": _check,
        "SuiteReport": lambda: report.SuiteReport("s", "pass", (_check(),), 0.5),
        "SuiteDef": lambda: suites.SUITES["cy1-atiyah"],
    }


# a dict field makes these unhashable, as it did the frozen dataclasses
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


def test_fourteen_records_are_read_only_values(k3_reflective, quintic):
    records = _records(k3_reflective, quintic)
    assert len(records) == 14
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
