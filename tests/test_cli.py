"""Manifest handling, the verify orchestration, and the CLI surface."""

import copy
import io
import json
import math
import warnings
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from latmirror import (
    DEFAULT_MANIFEST,
    FixtureError,
    ManifestError,
    load_cy3_fixture,
    load_fixture,
    parse_manifest,
    resolve_fixture,
    run_verify,
)
from latmirror.cli import main
from latmirror.commands import _fmt_blocks, _parse_blocks
from latmirror.core import LatticeError, format_rational, parse_rational
from latmirror.fixtures import fixture_from_payload
from latmirror.suites import SUITES

GOOD_MANIFEST = {
    "version": "1",
    "fixtures": ["quintic.json", "bicubic.json"],
    "suites": [
        {"name": "cy3-sublattice", "params": {}},
        {"name": "cy1-quantization", "params": {"k_max": 10}},
    ],
}


def write_manifest(tmp_path, payload, name="m.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return path


# ----------------------------------------------------------- manifests ----

def test_manifest_round_trip(tmp_path):
    m = parse_manifest(write_manifest(tmp_path, GOOD_MANIFEST))
    assert m.version == "1"
    assert m.fixtures == ("quintic.json", "bicubic.json")
    assert [s.name for s in m.suites] == ["cy3-sublattice", "cy1-quantization"]
    assert m.suites[1].params == {"k_max": 10}


@pytest.mark.parametrize(
    "mutate",
    [
        lambda p: p.update(extra=1),
        lambda p: p.update(version="2"),
        lambda p: p.pop("version"),
        lambda p: p["suites"].append({"name": "no-such-suite"}),
        lambda p: p["suites"].append({"name": "cy3-skew", "params": {"bogus": 1}}),
        lambda p: p["suites"].append({"name": "cy3-skew", "typo": 1}),
        lambda p: p["suites"].append("cy3-skew"),
        lambda p: p["suites"].append({"name": "cy3-skew", "params": 5}),  # was a TypeError
        lambda p: p["fixtures"].append("no_such_fixture.json"),
        # a traceback with exit 1: an int is not iterable, a list not hashable
        lambda p: p.update(fixtures=5),
        lambda p: p.update(suites=5),
        lambda p: p["suites"].append({"name": ["x"]}),
        # loaded the quintic, looked for a fixture 'q', looked for 'None'
        lambda p: p.update(fixtures={"quintic.json": 1}),
        lambda p: p.update(fixtures="quintic.json"),
        lambda p: p.update(fixtures=[None]),
    ],
)
def test_manifest_rejects_static_garbage(tmp_path, mutate):
    payload = copy.deepcopy(GOOD_MANIFEST)
    mutate(payload)
    with pytest.raises(ManifestError):
        parse_manifest(write_manifest(tmp_path, payload))


@pytest.mark.parametrize("value", [0, -5, 1.5, True])
@pytest.mark.parametrize(
    "suite, key",
    [
        ("cy1-quantization", "k_max"),
        ("cy1-atiyah", "max_index"),
        ("cy1-atiyah", "triples"),
        ("k3-reflections", "samples"),
        ("cy1-gft-homomorphism", "samples"),
        ("quant-holonomy", "samples"),
    ],
)
def test_manifest_rejects_a_count_that_is_not_positive(tmp_path, capsys, suite, key, value):
    # a count of 0 or -5 reported "all 0 ok"; 1.5 and true were taken as counts
    payload = {"version": "1", "suites": [{"name": suite, "params": {key: value}}]}
    path = write_manifest(tmp_path, payload)
    with pytest.raises(ManifestError, match=f"parameter '{key}' must be a positive integer"):
        parse_manifest(path)
    code, out, err = run_cli(capsys, "verify", "--manifest", str(path))
    assert (code, out, len(err.splitlines())) == (2, "", 1)


@pytest.mark.parametrize(
    "key, value, ok",
    [
        ("l2_max", 0, True), ("l2_max", -5, False), ("l2_max", 1.5, False),
        ("l2_max", True, False),
        ("tol", 1e-6, True), ("tol", 1e-9, True), ("tol", 2e-6, False), ("tol", 1.5, False),
        ("tol", 0, False), ("tol", -5, False), ("tol", True, False),
        ("tol", math.inf, False), ("tol", math.nan, False),
    ],
)
def test_manifest_checks_l2_max_and_tol(tmp_path, key, value, ok):
    suite = "k3-quantization" if key == "l2_max" else "quant-bs"
    payload = {"version": "1", "suites": [{"name": suite, "params": {key: value}}]}
    path = write_manifest(tmp_path, payload)
    if ok:
        assert parse_manifest(path).suites[0].params == {key: value}
    else:
        with pytest.raises(ManifestError, match=f"parameter '{key}' must be"):
            parse_manifest(path)


@pytest.mark.parametrize(
    "suite, key, value",
    [("cy3-skew", "fixtures", []), ("cy3-sublattice", "fixtures", "quintic"),
     ("quant-theta-rank", "taus", [])],
)
def test_manifest_rejects_an_empty_list_of_cases(tmp_path, suite, key, value):
    # an empty list ran no check, and the suite passed
    payload = {"version": "1", "suites": [{"name": suite, "params": {key: value}}]}
    with pytest.raises(ManifestError, match=f"parameter '{key}' must be a non-empty list"):
        parse_manifest(write_manifest(tmp_path, payload))


def assert_usage_error(tmp_path, capsys, suite, params, match):
    """The manifest exits 2 with one line; each of these once crashed its suite (exit 1)."""
    path = write_manifest(tmp_path, {"version": "1", "suites": [{"name": suite, "params": params}]})
    with pytest.raises(ManifestError, match=match):
        parse_manifest(path)
    code, out, err = run_cli(capsys, "verify", "--manifest", str(path))
    assert (code, out, len(err.splitlines())) == (2, "", 1)


def test_manifest_rejects_a_tau_below_the_real_axis(tmp_path, capsys):
    # was "suite crashed: ValueError: tau must lie in the upper half plane"
    match = r"parameter 'tau' must be \[re, im\]: two finite numbers with im > 0, got \[0.0, -1.0\]"
    assert_usage_error(tmp_path, capsys, "quant-bs", {"tau": [0.0, -1.0]}, match)
    for bad in ([0, 0], [1, 2, 3], [True, 1], ["0", 1], 1, [math.nan, 1], [10**400, 1]):
        assert_usage_error(tmp_path, capsys, "quant-bs", {"tau": bad}, "parameter 'tau' must be")


def test_manifest_rejects_a_taus_entry_of_three_numbers(tmp_path, capsys):
    # was "suite crashed: TypeError: complex() takes at most 2 arguments (3 given)"
    match = r"parameter 'taus' must be a non-empty list of \[re, im\], each two finite numbers"
    assert_usage_error(tmp_path, capsys, "quant-theta-rank", {"taus": [[0, 1, 2]]}, match)
    assert_usage_error(tmp_path, capsys, "quant-theta-rank", {"taus": [[0, 1], [0, -2]]}, match)


def test_manifest_rejects_a_seed_that_is_not_an_integer(tmp_path, capsys):
    # was a TypeError from random.Random, reported as a crashed suite
    match = r"parameter 'seed' must be an integer, got \[1\]"
    assert_usage_error(tmp_path, capsys, "cy1-atiyah", {"seed": [1]}, match)
    for bad in (True, 1.0, "1"):
        assert_usage_error(tmp_path, capsys, "k3-reflections", {"seed": bad}, "'seed' must be")


def test_manifest_rejects_fixture_parameters_that_are_not_names(tmp_path, capsys):
    # was "suite crashed: TypeError: unhashable type: 'list'"
    match = r"parameter 'fixture' must be a string, got \['x'\]"
    assert_usage_error(tmp_path, capsys, "k3-reflections", {"fixture": ["x"]}, match)
    match = r"parameter 'fixtures' must be a non-empty list of strings, got \['quintic', 5\]"
    assert_usage_error(tmp_path, capsys, "cy3-skew", {"fixtures": ["quintic", 5]}, match)


def test_manifest_accepts_well_formed_tau_taus_and_seed(tmp_path):
    suites = [
        {"name": "quant-bs", "params": {"tau": [0, 2]}},
        {"name": "quant-theta-rank", "params": {"taus": [[0.5, 1.5], [-1, 0.25]]}},
        {"name": "k3-reflections", "params": {"seed": -3}},
    ]
    m = parse_manifest(write_manifest(tmp_path, {"version": "1", "suites": suites}))
    # the seed of the former k3-reflections sweep is checked, then dropped
    assert [s.params for s in m.suites] == [s["params"] for s in suites[:2]] + [{}]


@pytest.mark.parametrize(
    "suite, key",
    [
        ("cy1-mirror-isometry", "samples"),
        ("k3-mirror-transport", "seed"),
        ("cy3-skew", "bound"),
        ("cy3-mirror-isometry", "samples"),
        ("cy1-gft-homomorphism", "bound"),
        ("cy1-atiyah", "seed"),
        ("quant-holonomy", "seed"),
        ("k3-reflections", "seed"),
        ("k3-reflections", "samples"),
    ],
)
def test_manifest_drops_the_parameters_of_the_former_sweeps(tmp_path, suite, key):
    # the certificates and exhaustive sweeps take no sample parameters;
    # older manifests still parse.  cy1-atiyah counted triples, not samples
    count = "triples" if suite == "cy1-atiyah" else "samples"
    payload = {"version": "1", "suites": [{"name": suite, "params": {key: 10}}]}
    assert parse_manifest(write_manifest(tmp_path, payload)).suites[0].params == {}
    payload["suites"][0]["params"] = {count: 0}
    with pytest.raises(ManifestError, match=f"parameter '{count}' must be a positive integer"):
        parse_manifest(write_manifest(tmp_path, payload))
    payload["suites"][0]["params"] = {"draws": 10}
    with pytest.raises(ManifestError, match="does not take parameters \\['draws'\\]"):
        parse_manifest(write_manifest(tmp_path, payload))


def test_manifest_rejects_non_json(tmp_path):
    path = tmp_path / "m.json"
    path.write_text("{not json")
    with pytest.raises(ManifestError):
        parse_manifest(path)
    with pytest.raises(ManifestError):
        parse_manifest(tmp_path / "absent.json")


def test_manifest_with_a_non_json_fixture_is_one_usage_line(tmp_path, capsys):
    (tmp_path / "broken.json").write_text("{not json")
    path = write_manifest(tmp_path, {**GOOD_MANIFEST, "fixtures": ["broken.json"]})
    with pytest.raises(ManifestError, match=f"^fixture {tmp_path / 'broken.json'} is not valid JSON: "):
        parse_manifest(path)
    code, out, err = run_cli(capsys, "verify", "--manifest", str(path))
    assert (code, out) == (2, "")
    assert err.startswith("error: fixture ") and err.count("\n") == 1


def test_manifest_with_a_fixture_that_is_not_utf8_is_a_manifest_error(tmp_path):
    # was a bare UnicodeDecodeError
    (tmp_path / "latin1.json").write_bytes(b'{"label": "\xe9"}')
    path = write_manifest(tmp_path, {**GOOD_MANIFEST, "fixtures": ["latin1.json"]})
    with pytest.raises(ManifestError, match="is not valid JSON: 'utf-8' codec can't decode"):
        parse_manifest(path)


def test_manifest_base_dir_resolution(tmp_path):
    # fixtures can live next to the manifest rather than in the package
    src = resolve_fixture("quintic.json")
    (tmp_path / "local.json").write_text(src.read_text())
    payload = {"version": "1", "fixtures": ["local.json"], "suites": []}
    m = parse_manifest(write_manifest(tmp_path, payload))
    assert m.fixtures == ("local.json",)


# -------------------------------------------------------------- verify ----

GOLDEN = Path(__file__).parent / "data" / "verify_default.golden.json"


@pytest.fixture(scope="module")
def default_result():
    return run_verify(parse_manifest(DEFAULT_MANIFEST))


def test_verify_default_manifest_passes(default_result):
    result = default_result
    assert result.passed
    assert result.exit_code == 0
    assert {r.suite for r in result.reports} >= {"fixtures", "cy3-skew", "quant-bs"}


def test_verify_default_report_equals_the_golden_file(default_result):
    # the default report, durations aside, rendered as `latmirror verify --json` renders it
    doc = default_result.to_json()
    for rep in doc["reports"]:
        rep.pop("duration_s")
    assert json.dumps(doc, indent=2, sort_keys=True) + "\n" == GOLDEN.read_text()


def test_verify_reports_corrupted_fixture_and_keeps_going(tmp_path):
    bad = json.loads(resolve_fixture("k3_quartic.json").read_text())
    bad["gram"] = [[3]]  # odd diagonal entry: semantically invalid
    (tmp_path / "bad_k3.json").write_text(json.dumps(bad))
    payload = {
        "version": "1",
        "fixtures": ["bad_k3.json"],
        "suites": [{"name": "cy1-quantization", "params": {"k_max": 5}}],
    }
    result = run_verify(parse_manifest(write_manifest(tmp_path, payload)))
    by_name = {r.suite: r for r in result.reports}
    assert not by_name["fixtures"].passed
    assert by_name["cy1-quantization"].passed  # run continued past the failure
    assert not result.passed
    assert result.exit_code == 1


def test_verify_reports_a_crashed_suite_and_keeps_going(capsys, monkeypatch):
    # a runner that raises is reported as an error with one check naming the
    # exception; every other suite of the default manifest reports as always
    def crash(params, fixtures):
        raise RuntimeError("pair table exhausted")

    monkeypatch.setitem(SUITES, "cy1-atiyah", SUITES["cy1-atiyah"]._replace(run=crash))
    code, out, err = run_cli(capsys, "verify", "--json")
    assert (code, err) == (1, "")
    doc = json.loads(out)
    reports = {r.pop("suite"): r for r in doc["reports"]}
    crashed = reports.pop("cy1-atiyah")
    assert crashed["status"] == "error"
    assert [(c["name"], c["ok"], c["got"]) for c in crashed["checks"]] == [
        ("suite crashed", False, "RuntimeError: pair table exhausted")
    ]
    golden = json.loads(GOLDEN.read_text())
    want = {r.pop("suite"): r for r in golden["reports"]}
    del want["cy1-atiyah"]
    for report in reports.values():
        report.pop("duration_s")
    assert reports == want
    assert (doc["passed"], doc["suites"]) == (False, {"total": 17, "failed": 1})
    code, out, err = run_cli(capsys, "verify")
    lines = out.splitlines()
    assert (code, err, lines[-1]) == (1, "", "result: FAIL")
    assert lines[0].startswith("ERROR cy1-atiyah                 1 checks, 1 failed  (")
    assert lines[1] == "      FAIL suite crashed: got RuntimeError: pair table exhausted"
    assert sum(line.startswith("PASS  ") for line in lines) == 16


def test_verify_records_a_non_integer_picard_rank_as_a_failed_load(tmp_path):
    # infinity crashed the run with an OverflowError; 1.9 and true loaded as rank 1
    quintic = json.loads(resolve_fixture("quintic.json").read_text())
    ranks = {"inf.json": math.inf, "float.json": 1.9, "bool.json": True}
    for name, rank in ranks.items():
        (tmp_path / name).write_text(json.dumps({**quintic, "picard_rank": rank}))
    payload = {"version": "1", "fixtures": list(ranks), "suites": []}
    result = run_verify(parse_manifest(write_manifest(tmp_path, payload)))
    checks = result.reports[0].checks
    assert [c.ok for c in checks] == [False] * 3
    assert [c.got for c in checks] == [
        f"{tmp_path / name}: integer lattice datum expected, got {rank!r}"
        for name, rank in ranks.items()
    ]
    assert result.exit_code == 1


def test_verify_json_report_is_deterministic(tmp_path):
    def strip_durations(doc):
        for rep in doc["reports"]:
            rep.pop("duration_s")
        return doc

    m = parse_manifest(write_manifest(tmp_path, GOOD_MANIFEST))
    a = strip_durations(run_verify(m).to_json())
    b = strip_durations(run_verify(m).to_json())
    assert a == b
    assert a["passed"] is True
    assert a["suites"] == {"total": 3, "failed": 0}


def test_k3_quantization_refuses_another_gram(tmp_path):
    # its classes (1, L^2/2 + 1) have square L^2 in the section/fibre Gram only
    (tmp_path / "hyp.json").write_text(json.dumps({"label": "k3-hyp", "gram": [[0, 1], [1, 0]]}))
    payload = {
        "version": "1",
        "fixtures": ["hyp.json"],
        "suites": [{"name": "k3-quantization", "params": {"fixture": "k3-hyp", "l2_max": 4}}],
    }
    result = run_verify(parse_manifest(write_manifest(tmp_path, payload)))
    rep = {r.suite: r for r in result.reports}["k3-quantization"]
    assert rep.status == "error"
    assert [c.name for c in rep.checks] == ["suite preconditions"]
    assert "((-2, 1), (1, 0))" in rep.checks[0].got
    assert result.exit_code == 1


def test_verify_missing_suite_fixture_is_error_not_crash(tmp_path):
    # a suite whose fixture set lacks any threefold reports, not raises
    payload = {
        "version": "1",
        "fixtures": ["k3_quartic.json"],
        "suites": [{"name": "cy3-skew", "params": {}}],
    }
    result = run_verify(parse_manifest(write_manifest(tmp_path, payload)))
    by_name = {r.suite: r for r in result.reports}
    assert by_name["cy3-skew"].status == "error"
    assert not result.passed


def test_verify_builds_fixtures_from_the_parse(tmp_path):
    # parse_manifest reads each fixture once; run_verify does not read it again
    (tmp_path / "local.json").write_text(resolve_fixture("quintic.json").read_text())
    (tmp_path / "arr.json").write_text("[1, 2]")
    payload = {"version": "1", "fixtures": ["local.json", "arr.json"], "suites": []}
    m = parse_manifest(write_manifest(tmp_path, payload))
    (tmp_path / "local.json").unlink()
    (tmp_path / "arr.json").unlink()
    result = run_verify(m)
    checks = result.reports[0].checks
    assert [c.ok for c in checks] == [True, False]
    assert checks[0].got == "label 'quintic'"
    assert checks[1].got == f"fixture {tmp_path / 'arr.json'} must be a JSON object"
    assert result.exit_code == 1


# ------------------------------------------------------------ fixtures ----

def test_fixture_unknown_keys_rejected(tmp_path):
    doc = json.loads(resolve_fixture("quintic.json").read_text())
    doc["surprise"] = 1
    p = tmp_path / "q.json"
    p.write_text(json.dumps(doc))
    with pytest.raises(FixtureError):
        load_fixture(str(p))


def test_fixture_env_dir_override(tmp_path, monkeypatch):
    doc = json.loads(resolve_fixture("quintic.json").read_text())
    doc["label"] = "env-quintic"
    (tmp_path / "quintic.json").write_text(json.dumps(doc))
    monkeypatch.setenv("LATMIRROR_FIXTURE_DIR", str(tmp_path))
    assert load_cy3_fixture("quintic").label == "env-quintic"
    # names absent from the override still fall through to the package
    assert load_cy3_fixture("bicubic").label == "bicubic"


def test_fixture_wrong_shape_rejected(tmp_path):
    (tmp_path / "odd.json").write_text(json.dumps({"label": "x"}))
    with pytest.raises(FixtureError):
        load_fixture(str(tmp_path / "odd.json"))
    (tmp_path / "arr.json").write_text("[1, 2]")
    with pytest.raises(FixtureError):
        load_fixture(str(tmp_path / "arr.json"))


# ----------------------------------------------------------- CLI smoke ----

def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_cli_cy1_paths(capsys):
    code, out, _ = run_cli(capsys, "cy1", "intersect", "--a", "1,0", "--b", "0,1")
    assert (code, out.strip()) == (0, "1")
    code, out, _ = run_cli(capsys, "cy1", "atiyah", "--a", "2", "--b", "2", "--json")
    assert code == 0
    assert json.loads(out) == {"terms": {"F_1": 1, "F_3": 1}, "dimension": 4}
    code, out, _ = run_cli(capsys, "cy1", "bs", "--level", "4")
    assert (code, out.split()) == (0, ["0", "1/4", "1/2", "3/4"])


def test_cli_cy2_paths(capsys):
    code, out, _ = run_cli(capsys, "cy2", "verify", "--l2-range", "2..8")
    assert code == 0
    assert out.strip().endswith("result: PASS")
    code, out, _ = run_cli(capsys, "cy2", "gft", "--l2", "6", "--json")
    assert code == 0
    assert json.loads(out)["e"] == "-3"  # -L^2/2
    code, _, _ = run_cli(
        capsys, "cy2", "check-H", "--gram", "0,1;1,-2", "--e", "1,0", "--s", "0,1"
    )
    assert code == 0
    code, _, _ = run_cli(
        capsys, "cy2", "check-H", "--gram", "2,0;0,2", "--e", "1,0", "--s", "0,1"
    )
    assert code == 1  # e is not isotropic: check failure, not usage error
    for gram, noun in (("0,1;1", "square"), ("0,1;2,-2", "symmetric")):
        code, out, err = run_cli(
            capsys, "cy2", "check-H", "--gram", gram, "--e", "1,0", "--s", "0,1"
        )
        assert (code, out, err) == (2, "", f"error: ambient Gram must be {noun}\n")


def test_cli_cy3_paths(capsys):
    # ch(O(H)) on the quintic; the middle blocks use the dual pairing
    code, out, _ = run_cli(capsys, "cy3", "chi", "--bundle", "1:1:5/2:5/6")
    assert (code, out.strip()) == (0, "5")
    code, out, _ = run_cli(capsys, "cy3", "verify-isometry", "--json")
    assert code == 0
    assert json.loads(out) == {"fixture": "quintic", "pairs": 16, "failures": 0, "passed": True}
    code, out, _ = run_cli(capsys, "cy3", "verify-isometry", "--fixture", "bicubic")
    assert (code, out) == (0, "all 36 basis pairs on bicubic: isometric\n")


@pytest.mark.parametrize(
    "argv, text, doc",
    [
        # on the quartic L = 2H has L^2 = 16 and h0 = L^2/2 + 2 = 10 sections,
        # one per marked fibre
        (("cy2", "quantize", "--divisor", "2"),
         "L^2=16: h0=10, marked fibres=10 -> ok",
         {"bs_count": "10", "fixture": "k3-quartic", "h0": "10", "l2": "16", "ok": True}),
        # v = ch sqrt(td) = (2, H, 1) has v^2 = 4 - 2*2*1 = 0: dimension v^2 + 2
        (("cy2", "moduli", "--ch", "2:1:-1"), "2", {"dimension": 2}),
        # on k3-elliptic (1, (1, 0), 0): v = (1, s, 1), v^2 = -2 - 2 = -4
        (("cy2", "moduli", "--ch", "1:1,0:0", "--fixture", "k3_elliptic"), "-2", {"dimension": -2}),
        # chi(O(H)) on the quintic: H^3/6 + c2.H/12 = 5/6 + 50/12
        (("cy3", "slope", "--divisor", "1"), "5", {"chi": "5"}),
        # chi(O(J1)) on the bicubic: J1^3 = 0, c2.J1 = 36
        (("cy3", "slope", "--divisor", "1,0", "--fixture", "bicubic"), "3", {"chi": "3"}),
    ],
    ids=["cy2-quantize", "cy2-moduli", "cy2-moduli-elliptic", "cy3-slope", "cy3-slope-bicubic"],
)
def test_cli_success_paths_print_their_text_and_json(capsys, argv, text, doc):
    assert run_cli(capsys, *argv) == (0, text + "\n", "")
    assert run_cli(capsys, *argv, "--json") == (0, json.dumps(doc, indent=2, sort_keys=True) + "\n", "")


@pytest.mark.parametrize(
    "level",
    [
        # one past int64: numpy could not read the level (a traceback, exit 1)
        2**63,
        # int64's largest: 8 k wrapped to a negative grid size
        2**63 - 1,
        # the least level whose 8 k grid points pass int64
        2**60,
    ],
    ids=["past-int64", "int64-max", "grid-past-int64"],
)
def test_cli_quant_bs_refuses_a_level_whose_grid_overflows_int64(capsys, level):
    line = (
        f"error: level {level} is too large for the fibre search: "
        f"its grid of {8 * level} points does not fit in int64\n"
    )
    for flags in ((), ("--json",)):
        assert run_cli(capsys, "quant", "bs", "--level", str(level), *flags) == (2, "", line)


def test_cli_quant_paths(capsys, tmp_path):
    code, out, _ = run_cli(capsys, "quant", "bs", "--level", "3")
    assert code == 0
    assert len(out.split()) == 3
    code, out, _ = run_cli(capsys, "quant", "theta-rank", "--level", "5")
    assert (code, out.strip()) == (0, "5")
    # exp(2 pi i * 3/4) = -i, its real part the rounding of cos(3 pi / 2)
    holonomy = ("quant", "holonomy", "--level", "3", "--height")
    assert run_cli(capsys, *holonomy, "0.25") == (0, "-0.000000000000000 -1.000000000000000i\n", "")
    code, out, _ = run_cli(capsys, *holonomy, "0.25", "--json")
    assert (code, json.loads(out)) == (0, {"holonomy": [-1.8369701987210297e-16, -1.0]})
    for height in ("1.5", "nan"):
        line = f"error: fibre height must lie in [0, 1], got {float(height)}\n"
        assert run_cli(capsys, *holonomy, height) == (2, "", line), height

    pts = [[i / 63, 2 * i / 63] for i in range(64)]
    curve = tmp_path / "seg.json"
    curve.write_text(json.dumps(pts))
    code, out, _ = run_cli(capsys, "quant", "phase", "--curve", str(curve), "--json")
    assert code == 0
    doc = json.loads(out)
    assert doc["deviation"] < 1e-12 and abs(doc["winding"]) < 1e-9


@pytest.mark.parametrize(
    "exc, line",
    [
        (MemoryError("Unable to allocate 596. GiB for an array"),
         "error: out of memory: Unable to allocate 596. GiB for an array\n"),
        (MemoryError(), "error: out of memory\n"),
    ],
    ids=["numpy-text", "bare"],
)
def test_cli_out_of_memory_exits_2_on_one_line(capsys, monkeypatch, exc, line):
    # `quant theta-rank --level 100000` ended in a traceback from numpy's
    # _ArrayMemoryError; the stand-in raises without allocating anything
    from latmirror import numeric

    def too_large(model):
        raise exc

    monkeypatch.setattr(numeric, "theta_basis_rank", too_large)
    code, out, err = run_cli(capsys, "quant", "theta-rank", "--level", "100000")
    assert (code, out, err) == (2, "", line)


def test_cli_exit_code_1_on_numeric_disagreement(capsys, tmp_path):
    curve = tmp_path / "degenerate.json"
    curve.write_text(json.dumps([[0.25, 0.25]] * 20))
    code, _, err = run_cli(capsys, "quant", "phase", "--curve", str(curve))
    assert code == 1
    assert "check failed" in err


@pytest.mark.parametrize(
    "row",
    [[True, 0.5], [0.25, 0.5, 0.75], [0.25]],
    ids=["boolean", "three-numbers", "ragged"],
)
def test_cli_quant_phase_refuses_a_malformed_sample(capsys, tmp_path, row):
    # a row of booleans was read as 1 and 0: the curve wound 0 and exited 0
    pts = [[i / 63, 2 * i / 63] for i in range(64)]
    pts[7] = row
    curve = tmp_path / "curve.json"
    curve.write_text(json.dumps(pts))
    code, out, err = run_cli(capsys, "quant", "phase", "--curve", str(curve))
    assert (code, out) == (2, "")
    assert err == "error: curve file must hold a JSON list of [x, y] number pairs\n"


def test_cli_exit_code_2_paths(capsys, tmp_path):
    # a curve of non-pairs was an uncaught TypeError; an object was unpacked as keys
    (tmp_path / "ints.json").write_text("[1,2,3]")
    (tmp_path / "object.json").write_text('{"x": 1}')
    cases = [
        ("cy1", "intersect", "--a", "1,0", "--b", "1"),  # malformed pair
        ("cy3", "chi", "--bundle", "1:1:1/2"),  # wrong block count
        ("cy3", "chi", "--bundle", "1:1:1/2:1/6", "--fixture", "nope"),
        ("quant", "bs", "--level", "3", "--tol", "0.5"),  # tol precondition
        ("verify", "--manifest", str(tmp_path / "absent.json")),
        ("quant", "phase", "--curve", str(tmp_path / "absent.json")),
        ("quant", "phase", "--curve", str(tmp_path / "ints.json")),
        ("quant", "phase", "--curve", str(tmp_path / "object.json")),
        # verifications of nothing: each printed a pass and exited 0
        ("cy2", "verify", "--l2-range", "2..-4"),
    ]
    for argv in cases:
        code, _, err = run_cli(capsys, *argv)
        assert code == 2, argv
        assert len(err.splitlines()) == 1 and err.startswith("error: "), argv
    # argparse handles unknown verbs, and the sample flags verify-isometry dropped
    for argv in (
        ("cy1", "no-such-verb"),
        ("cy3", "verify-isometry", "--samples", "40"),
        ("cy3", "verify-isometry", "--seed", "5"),
    ):
        with pytest.raises(SystemExit) as exc:
            main(list(argv))
        assert exc.value.code == 2, argv


@pytest.mark.parametrize(
    "flag, value, argv",
    [
        ("--a", "-1,2", ("cy1", "intersect", "--b", "0,1")),  # pair
        ("--x", "-2,5,7", ("cy2", "reflect", "--delta", "0,0,1")),  # tuple
        ("--ch2", "-1:2,1/3:-4,5/6:7/12",  # blocks
         ("cy3", "rr", "--ch1", "1:1,0:0,3/2:1/2", "--fixture", "bicubic")),
        ("--gram", "-2,1;1,0", ("cy2", "check-H", "--e", "0,1", "--s", "1,0")),  # gram rows
    ],
)
def test_cli_value_starting_with_minus_is_a_value(capsys, flag, value, argv):
    # argparse took these for options ("expected one argument") unless written flag=value
    want = run_cli(capsys, *argv, f"{flag}={value}")
    assert want[0] == 0
    assert run_cli(capsys, *argv, flag, value) == want


@pytest.mark.parametrize(
    "argv, text",
    [
        (("cy1", "intersect", "--a", "1/2,0", "--b", "0,1"), "1/2,0"),
        (("cy2", "mirror", "--divisor", "1/2"), "1/2"),
        (("cy2", "reflect", "--x", "1,2,x", "--delta", "0,0,1"), "1,2,x"),
        (("cy3", "slope", "--divisor", "1.5"), "1.5"),
    ],
)
def test_cli_integer_flag_names_its_input(capsys, argv, text):
    # a rational or a decimal in an integer flag printed Python's int() text
    code, out, err = run_cli(capsys, *argv)
    assert (code, out) == (2, "")
    assert err == f"error: malformed integers {text!r}; want comma-separated integers\n"


def test_cli_signed_denominator_exits_2(capsys):
    code, out, err = run_cli(capsys, "cy2", "mukai", "--ch=1:1/-2:0")
    assert (code, out, err) == (2, "", "error: malformed rational '1/-2'; want 'p' or 'p/q'\n")


def test_cli_non_integral_chi_warns_on_one_line(capsys):
    code, out, err = run_cli(
        capsys, "cy3", "chi", "--bundle", "1:2,1:9,15/2:33/2", "--fixture", "bicubic"
    )
    assert (code, out) == (0, "51/2\n")
    assert err == "warning: chi = 51/2 is not an integer; input is not a bundle class\n"


@pytest.mark.parametrize(
    "argv",
    [
        # NaN real part: was two RuntimeWarnings, then an SVD error
        ("quant", "theta-rank", "--level", "4", "--tau", "nan,1"),
    ],
)
def test_cli_non_finite_tau_exits_2(capsys, argv):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run_cli(capsys, *argv)
    assert code == 2
    assert out == ""
    assert len(err.splitlines()) == 1 and err.startswith("error: tau must be finite")


@pytest.mark.parametrize(
    "argv",
    [
        ("quant", "bs", "--level", "3", "--tau", "0,2"),
        ("quant", "holonomy", "--level", "3", "--height", "0.5", "--tau", "0,1"),
    ],
)
def test_cli_fibre_verbs_take_no_tau(capsys, argv):
    # the fibres and the holonomy depend on the level alone; the flag changed nothing
    with pytest.raises(SystemExit) as exc:
        main(list(argv))
    out, err = capsys.readouterr()
    assert (exc.value.code, out) == (2, "")
    assert "unrecognized arguments: --tau" in err


@pytest.mark.parametrize(
    "payload, argv",
    [
        # threefold without picard_rank: was an uncaught KeyError
        ({"label": "q", "cubic": [5], "c2": [50]}, ("cy3", "chi", "--bundle", "1:1:0:0")),
        # K3 fibration that is not an object: was an uncaught TypeError
        ({"label": "k", "gram": [[4]], "fibration": 5}, ("cy2", "mukai", "--ch", "1:0:0")),
        # float root and fibre count: were truncated to the root (1, 0) and 24
        (
            {"label": "k", "gram": [[-2, 1], [1, 0]], "roots": [[1.4, 0.2]],
             "fibration": {"singular_fibres": 24.9}},
            ("cy2", "mukai", "--ch", "1:0,0:0"),
        ),
        ({"label": "k", "gram": [[4]], "fibration": {"singular_fibres": 24.9}},
         ("cy2", "mukai", "--ch", "1:0:0")),
        ({"label": "k", "gram": [[-2, 1], [1, 0]], "roots": [["1/2", 0]]},
         ("cy2", "mukai", "--ch", "1:0,0:0")),
        # fibration declaring no count: was loaded as if it had no fibration
        ({"label": "k", "gram": [[4]], "fibration": {"singular_fibres": None}},
         ("cy2", "mukai", "--ch", "1:0:0")),
        # a JSON object where a list belongs: its keys were read as the entries,
        # so these loaded as c2 = (50,), the Gram matrix [[4]] and the root (1, 0)
        ({"label": "q", "picard_rank": 1, "cubic": [5], "c2": {"50": 0}},
         ("cy3", "chi", "--bundle", "1:1:0:0")),
        ({"label": "k", "gram": [{"4": 0}]}, ("cy2", "mukai", "--ch", "1:0:0")),
        ({"label": "k", "gram": [[-2, 1], [1, 0]], "roots": [{"1": 0, "0": 1}]},
         ("cy2", "mukai", "--ch", "1:0,0:0")),
        # a label that is not a string: was loaded under its str()
        ({"label": ["x"], "gram": [[4]]}, ("cy2", "mukai", "--ch", "1:0:0")),
        ({"label": 5, "picard_rank": 1, "cubic": [5], "c2": [50]},
         ("cy3", "chi", "--bundle", "1:1:0:0")),
        # infinite picard_rank was an uncaught OverflowError; 1.9 and true loaded as 1
        *(
            ({"label": "q", "picard_rank": rank, "cubic": [5], "c2": [50]},
             ("cy3", "chi", "--bundle", "1:1:0:0"))
            for rank in (math.inf, 1.9, True)
        ),
    ],
)
def test_cli_malformed_fixture_exits_2(capsys, tmp_path, payload, argv):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(payload))
    with pytest.raises(FixtureError):
        load_fixture(str(path))
    code, out, err = run_cli(capsys, *argv, "--fixture", str(path))
    assert code == 2
    assert out == ""
    assert len(err.splitlines()) == 1 and err.startswith("error: ")


@pytest.mark.parametrize(
    "payload",
    [
        {"label": 5, "gram": [[4]]},
        {"label": None, "gram": [[4]]},
        {"label": ["x"], "picard_rank": 1, "cubic": [5], "c2": [50]},
    ],
)
def test_fixture_label_must_be_a_string(tmp_path, payload):
    path = tmp_path / "labelled.json"
    path.write_text(json.dumps(payload))
    with pytest.raises(FixtureError) as err:
        load_fixture(str(path))
    assert str(err.value).startswith(f"{path}: label must be a string, got ")
    del payload["label"]
    path.write_text(json.dumps(payload))
    assert load_fixture(str(path)).label in ("k3", "cy3")


DEEP = "[" * 100000 + "]" * 100000
NOT_NAMES = "fixtures must be a JSON list of file names"


@pytest.mark.parametrize(
    "argv, text, message",
    [
        # each was a RecursionError traceback, exit 1
        (("cy2", "mukai", "--ch", "1:0:0", "--fixture"), DEEP, "is nested too deeply"),
        (("verify", "--manifest"), DEEP, "is nested too deeply"),
        (("quant", "phase", "--curve"), DEEP, "is nested too deeply"),
        # each was a traceback, exit 1, or ran the wrong fixtures
        (("verify", "--manifest"), '{"version": "1", "fixtures": 5}', NOT_NAMES),
        (("verify", "--manifest"), '{"version": "1", "suites": 5}', "suites must be a JSON list"),
        (("verify", "--manifest"), '{"version": "1", "suites": [{"name": ["x"]}]}',
         "unknown suite ['x']"),
        (("verify", "--manifest"), '{"version": "1", "fixtures": {"quintic.json": 1}}', NOT_NAMES),
        (("verify", "--manifest"), '{"version": "1", "fixtures": "quintic.json"}', NOT_NAMES),
        (("verify", "--manifest"), '{"version": "1", "fixtures": [null]}', NOT_NAMES),
    ],
    ids=["fixture-deep", "manifest-deep", "curve-deep", "fixtures-int", "suites-int",
         "name-list", "fixtures-object", "fixtures-string", "fixtures-null"],
)
def test_cli_input_file_of_the_wrong_shape_exits_2(capsys, tmp_path, argv, text, message):
    path = tmp_path / "input.json"
    path.write_text(text)
    code, out, err = run_cli(capsys, *argv, str(path))
    assert (code, out, len(err.splitlines())) == (2, "", 1)
    assert err.startswith("error: ") and message in err


def test_cli_theta_rank_level_32(capsys):
    code, out, _ = run_cli(capsys, "quant", "theta-rank", "--level", "32")
    assert (code, out.strip()) == (0, "32")


def test_cli_verify_default_pass(capsys):
    code, out, _ = run_cli(capsys, "verify")
    assert code == 0
    assert out.strip().endswith("result: PASS")


def test_cli_verify_json_failure_report(capsys, tmp_path):
    bad = json.loads(resolve_fixture("k3_quartic.json").read_text())
    bad["gram"] = [[3]]
    (tmp_path / "bad.json").write_text(json.dumps(bad))
    m = write_manifest(
        tmp_path, {"version": "1", "fixtures": ["bad.json"], "suites": []}
    )
    code, out, _ = run_cli(capsys, "verify", "--manifest", str(m), "--json")
    assert code == 1
    doc = json.loads(out)
    assert doc["passed"] is False
    assert doc["suites"]["failed"] == 1


# --------------------------------------------------- exact CLI golden ----

EXACT_GOLDEN = Path(__file__).parent / "data" / "cli_exact.golden.json"

# exact commands whose --json output renders graded-vector blocks and exact
# rationals; `p/q` entries, ranks 1 to 3, and inputs that exit 2
EXACT_COMMANDS = [
    ("cy1", "mirror", "--vector", "3:-2"),
    ("cy1", "mirror", "--vector", "1/2:1"),
    ("cy2", "mukai", "--ch", "1:0:0"),
    ("cy2", "mukai", "--ch", "2:1/2,-1:-3/4", "--fixture", "k3_elliptic"),
    ("cy2", "mukai", "--ch", "1:0.5:0"),
    ("cy2", "rr", "--ch1", "1:0:0", "--ch2", "1:1:2"),
    ("cy2", "rr", "--ch1", "1:1/2,1:0", "--ch2", "3:-1,2/3:5/6", "--fixture", "k3_elliptic"),
    ("cy2", "mirror", "--divisor", "3"),
    ("cy2", "mirror", "--divisor", "1,2", "--fixture", "k3_elliptic"),
    # divisors longer and shorter than the Picard rank exit 2
    ("cy2", "mirror", "--divisor", "1,2"),
    ("cy2", "mirror", "--divisor", "1", "--fixture", "k3_elliptic"),
    ("cy2", "quantize", "--divisor", "1,2"),
    ("cy2", "quantize", "--divisor", "1", "--fixture", "k3_elliptic"),
    ("cy2", "gft", "--divisor", "1,2,3", "--fixture", "k3_elliptic"),
    ("cy2", "gft", "--divisor", "1", "--fixture", "k3_elliptic"),
    ("cy2", "reflect", "--x", "1,3,4", "--delta", "0,1,0"),
    ("cy2", "reflect", "--x", "2,-5,7", "--delta", "0,0,1"),
    ("cy2", "reflect", "--x", "1,3,4", "--delta", "1,0,0"),
    ("cy3", "chi", "--bundle", "1:1:5/2:5/6"),
    ("cy3", "chi", "--bundle", "1:1,1:9/2,9/2:3", "--fixture", "bicubic"),
    ("cy3", "rr", "--ch1", "1:1:5/2:5/6", "--ch2", "2:-1:3/2:-1/6"),
    ("cy3", "rr", "--ch1", "1:1,0:0,3/2:1/2", "--ch2", "1:-2,1/3:-4,5/6:7/12",
     "--fixture", "bicubic"),
    ("cy3", "mirror", "--vector", "1:0:25/12:0"),
    ("cy3", "mirror", "--vector", "2:1,-1:3/2,-5/6:7/4", "--fixture", "bicubic"),
    ("cy3", "mirror", "--vector", "1:1/2:0:0"),
    ("cy3", "mirror", "--vector", "1/3:0:0:0"),
    ("cy3", "sublattice"),
    ("cy3", "sublattice", "--fixture", "bicubic"),
]

# commands whose text output (no --json) is pinned as well
TEXT_COMMANDS = [
    ("cy3", "mirror", "--vector", "1:0:25/12:0"),
    ("cy3", "mirror", "--vector", "2:1,-1:3/2,-5/6:7/4", "--fixture", "bicubic"),
    ("cy3", "mirror", "--vector", "1:1/2:0:0"),
    ("cy3", "mirror", "--vector", "1/3:0:0:0"),
    ("cy1", "intersect", "--a", "2,3", "--b", "-1,4"),
    ("cy1", "gft", "--rank", "4", "--deg", "-6"),
    ("cy1", "gft", "--rank", "1", "--deg", "3"),
    ("cy1", "odot", "--a", "2,3", "--b", "1,-2"),
    ("cy1", "decompose", "--cycle", "6,-4"),
    ("cy1", "decompose", "--cycle", "0,-5"),
    ("cy1", "decompose", "--cycle", "0,0"),
    ("cy1", "atiyah", "--a", "3", "--b", "2"),
    ("cy1", "bs", "--level", "3"),
    ("cy1", "mirror", "--vector", "3:-2"),
]


def exact_cli_record() -> list:
    """Exit code, stdout and stderr of every exact command: each of
    EXACT_COMMANDS run with --json, then each of TEXT_COMMANDS as it is
    (its entry marked ``"text": true``)."""
    runs = [(argv, [*argv, "--json"], {}) for argv in EXACT_COMMANDS]
    runs += [(argv, list(argv), {"text": True}) for argv in TEXT_COMMANDS]
    record = []
    for argv, args, mark in runs:
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            code = main(args)
        record.append({
            "argv": list(argv), **mark,
            "exit": code, "stdout": out.getvalue(), "stderr": err.getvalue(),
        })
    return record


def test_exact_cli_output_equals_the_golden_file():
    assert exact_cli_record() == json.loads(EXACT_GOLDEN.read_text())


# ------------------------------------------------- input payload fuzz ----

PARAMS = sorted({key for suite in SUITES.values() for key in suite.defaults})
LEAVES = (
    st.none() | st.booleans() | st.integers(-3, 3) | st.integers() | st.floats()
    | st.text(max_size=3)
    | st.sampled_from(["1", "24", "quintic.json", "k3-reflective", *sorted(SUITES)])
)
KEYS = st.text(max_size=3) | st.sampled_from(
    ["label", "gram", "roots", "fibration", "singular_fibres", "picard_rank", "cubic", "c2",
     "version", "fixtures", "suites", "name", "params", *PARAMS]
)
# JSON values whose objects mostly use the keys the readers know
JSON = st.recursive(
    LEAVES,
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(KEYS, inner, max_size=5),
    max_leaves=12,
)
SUITE_ENTRIES = st.fixed_dictionaries(
    {"name": st.sampled_from(sorted(SUITES)) | JSON},
    optional={"params": st.dictionaries(st.sampled_from(PARAMS) | KEYS, JSON, max_size=3) | JSON},
)
MANIFESTS = JSON | st.fixed_dictionaries(
    {"version": st.just("1") | JSON},
    optional={
        "fixtures": st.lists(LEAVES, max_size=3) | JSON,
        "suites": st.lists(SUITE_ENTRIES | JSON, max_size=3) | JSON,
    },
)


@settings(max_examples=120, deadline=None)
@given(payload=JSON)
def test_fixture_payload_loads_or_raises_fixture_error(payload):
    try:
        fixture_from_payload(payload, Path("fuzz.json"))
    except FixtureError as exc:
        assert "\n" not in str(exc)


@pytest.fixture(scope="module")
def fuzz_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


@settings(max_examples=60, deadline=None)
@given(payload=MANIFESTS)
def test_manifest_payload_parses_or_raises_manifest_error(fuzz_dir, payload):
    path = write_manifest(fuzz_dir, payload)
    try:
        parse_manifest(path)
    except ManifestError:
        err = io.StringIO()
        with redirect_stdout(io.StringIO()), redirect_stderr(err):
            assert main(["verify", "--manifest", str(path)]) == 2
        assert len(err.getvalue().splitlines()) == 1


# ---------------------------------------------------- CLI syntax fuzz ----

# one command per dimension that reads a graded vector from its flag
BLOCK_COMMANDS = {
    1: ("cy1", "mirror", "--vector={}"),
    2: ("cy2", "mukai", "--fixture", "k3_reflective", "--ch={}"),
    3: ("cy3", "chi", "--fixture", "bicubic", "--bundle={}"),
}


# "p" or "p/q": p signed or not, q from 1 to 999, or 0 once in ten
RATIONAL_TEXT = st.builds(
    "{}{}{}".format,
    st.sampled_from(["", "+", "-"]),
    st.integers(0, 999),
    st.just("") | st.integers(0, 9).flatmap(
        lambda tenth: st.just("/0") if tenth == 9 else st.integers(1, 999).map("/{}".format)
    ),
)


@st.composite
def block_texts(draw):
    """(dim, text), each malformation about once in ten: any characters in
    place of the whole text or of a coordinate, another number of blocks,
    another arity of a middle block."""
    def once_in_ten():
        return draw(st.integers(0, 9)) == 9

    dim = draw(st.sampled_from(sorted(BLOCK_COMMANDS)))
    if once_in_ten():
        return dim, draw(st.text(max_size=8))
    n_blocks = draw(st.integers(1, 5)) if once_in_ten() else dim + 1
    arity = draw(st.integers(1, 3))
    blocks = []
    for i in range(n_blocks):
        size = 1 if i in (0, n_blocks - 1) else arity
        if once_in_ten():
            size = draw(st.integers(1, 3))
        coordinates = [
            draw(st.text(max_size=3) if once_in_ten() else RATIONAL_TEXT) for _ in range(size)
        ]
        blocks.append(",".join(coordinates))
    return dim, ":".join(blocks)


@settings(max_examples=100, deadline=None)
@given(case=block_texts())
def test_block_syntax_loads_or_exits_2_on_one_line(case):
    dim, text = case
    try:
        vector = _parse_blocks(text, dim)
    except LatticeError:
        vector = None
    else:
        assert _parse_blocks(_fmt_blocks(vector), dim) == vector
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main([arg.format(text) for arg in BLOCK_COMMANDS[dim]])
    # a vector that loads may still be refused by the command (a rational
    # mirror_cy1 input, an arity other than the fixture's Picard rank)
    assert code == 2 if vector is None else code in (0, 2)
    assert len(err.getvalue().splitlines()) <= 1
    if code == 2:
        assert out.getvalue() == "" and err.getvalue().startswith("error: ")


@settings(max_examples=200, deadline=None)
@given(q=st.fractions())
def test_rational_text_round_trips(q):
    text = format_rational(q)
    assert parse_rational(text) == q and type(parse_rational(text)) is Fraction
    assert parse_rational(f" {text} ") == q
