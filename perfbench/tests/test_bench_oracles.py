"""The closed-form oracles agree with the package, and catch a broken target."""

import json
import random
import warnings
from fractions import Fraction

import numpy as np
import pytest

import latmirror as lm
from latmirror.numeric import ROOT_TOL

import closed_forms as cf
import reportcheck
import workloads

ROOT = workloads.BENCH_FIXTURES.parents[1]


def threefold(label):
    raw = workloads.fixture_data(label)
    k = raw["picard_rank"]
    return workloads.load_descriptor(label), cf.nest_cubic(raw["cubic"], k), tuple(raw["c2"])


def descriptor(cubic, c2):
    k = len(c2)
    flat = [cubic[a][b][c] for a in range(k) for b in range(k) for c in range(k)]
    ring = lm.RingDescriptor(dim=3, picard_rank=k, cubic=tuple(flat), c2=tuple(c2))
    return lm.CY3Descriptor(ring=ring)


def perturbed(cubic, a, b, c, delta=1):
    """The cubic with D_abc and its symmetric copies moved by delta."""
    out = [[list(row) for row in plane] for plane in cubic]
    for i, j, m in {(a, b, c), (a, c, b), (b, a, c), (b, c, a), (c, a, b), (c, b, a)}:
        out[i][j][m] += delta
    return out


def classes(k, n=20, seed=5):
    rng = random.Random(seed)
    return [
        (rng.randint(-9, 9), tuple(rng.randint(-9, 9) for _ in range(k)),
         tuple(Fraction(rng.randint(-19, 19), 2) for _ in range(k)), Fraction(rng.randint(-59, 59), 6))
        for _ in range(n)
    ]


# each class meets the perturbed entry D_0,k-1,k-1 below
LINE_BUNDLES = {"quintic": [(1,), (2,), (-3,)], "bicubic": [(1, 1), (2, -1), (3, 3)],
                "p1x4_2222": [(1, 0, 0, 1), (1, 1, 1, 1), (2, -1, 3, 1)]}


@pytest.mark.parametrize("label", sorted(LINE_BUNDLES))
def test_line_chain_matches_and_catches_perturbed_cubic(label):
    X, cubic, c2 = threefold(label)
    k = len(c2)
    broken = descriptor(perturbed(cubic, 0, k - 1, k - 1), c2)
    for L in LINE_BUNDLES[label]:
        want = workloads.expect_line_chain(cubic, c2, L)
        assert workloads.check_line_chain(want, workloads._line_chain(L, X)) is None
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", lm.NonIntegralEulerWarning)
            bad = workloads._line_chain(L, broken)
        assert workloads.check_line_chain(want, bad) is not None


def test_rank4_fixture_closed_forms():
    _, cubic, c2 = threefold("p1x4_2222")
    # (2,2,2,2) hypersurface in (P^1)^4: J_a J_b J_c = 2 for distinct a, b, c
    assert cf.contract(cubic, (1, 0, 0, 0), (0, 1, 0, 0)) == (0, 0, 2, 2)
    assert cf.chi_line_bundle(cubic, c2, (1, 0, 0, 0)) == 2     # h0(O(1,0,0,0))
    assert cf.chi_line_bundle(cubic, c2, (1, 1, 1, 1)) == 16    # 8 + 8


def test_chi_is_integral_and_catches_wrong_c2():
    X, cubic, c2 = threefold("quintic")
    assert [cf.chi_line_bundle(cubic, c2, (n,)) for n in (1, 2, 3)] == [5, 15, 35]
    wrong = (c2[0] - 1,)
    assert cf.chi_line_bundle(cubic, wrong, (1,)).denominator != 1
    want = workloads.expect_line_chain(cubic, c2, (1,))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", lm.NonIntegralEulerWarning)
        bad = workloads._line_chain((1,), descriptor(cubic, wrong))
    assert workloads.check_line_chain(want, bad) is not None
    # an oracle fed the wrong c2 is caught by the integrality test as well
    bad_want = workloads.expect_line_chain(cubic, wrong, (1,))
    assert workloads.check_line_chain(bad_want, bad) is not None


@pytest.mark.parametrize("label", sorted(LINE_BUNDLES))
def test_mirror_preimage_matches_and_catches_wrong_c2(label):
    X, cubic, c2 = threefold(label)
    broken = descriptor(cubic, tuple(c + 24 for c in c2))
    caught = 0
    for blocks in classes(len(c2)):
        want = cf.mirror_preimage(blocks, c2)
        assert workloads.check_mirror(want, workloads._mirror_of_class(blocks, X)) is None
        caught += workloads.check_mirror(want, workloads._mirror_of_class(blocks, broken)) is not None
    assert caught > 0


@pytest.mark.parametrize("label", sorted(LINE_BUNDLES))
def test_euler_form_matches_and_catches_wrong_c2(label):
    X, cubic, c2 = threefold(label)
    broken = descriptor(cubic, tuple(c + 12 for c in c2))
    pairs = list(zip(classes(len(c2), seed=1), classes(len(c2), seed=2)))
    caught = 0
    for u, v in pairs:
        gu, gv = lm.GradedVector(3, u), lm.GradedVector(3, v)
        assert cf.euler_form3(u, v, c2) == lm.euler_pairing3(gu, gv, X) == -cf.euler_form3(v, u, c2)
        caught += cf.euler_form3(u, v, c2) != lm.euler_pairing3(gu, gv, broken)
    assert caught > 0


def test_euler_pair_check_catches_perturbed_cubic():
    X, cubic, c2 = threefold("bicubic")
    line_bundles = [(1, 0), (2, -1), (0, 3)]
    pairs = [(0, 1), (1, 2), (2, 0)]
    check = workloads.euler_pair_check(0, pairs, line_bundles, c2, cubic)
    good = [workloads._line_chain(L, X) for L in line_bundles]
    assert check(good) == []
    broken = descriptor(perturbed(cubic, 0, 1, 1), c2)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", lm.NonIntegralEulerWarning)
        bad = [workloads._line_chain(L, broken) for L in line_bundles]
    assert check(bad)


@pytest.mark.parametrize("label", ["k3_quartic", "k3_elliptic", "k3_reflective"])
def test_k3_mukai_and_mirror_sphere(label):
    X = workloads.load_descriptor(label)
    gram = workloads.fixture_data(label)["gram"]
    k = len(gram)
    rng = random.Random(3)
    for _ in range(20):
        blocks = (rng.randint(-3, 3), tuple(rng.randint(-9, 9) for _ in range(k)), Fraction(rng.randint(-9, 9), 2))
        assert workloads.check_mukai(cf.k3_mukai(blocks), workloads._mukai_of(blocks, X)) is None
        L = tuple(rng.randint(-9, 9) for _ in range(k))
        sphere = cf.k3_mirror_sphere(gram, L)
        assert cf.k3_sphere_square(gram, sphere) == -2
        out = lm.mirror_k3(L, X)
        assert workloads.check_sphere(gram, sphere, out) is None
        # a class of the wrong square is caught even when it is what was expected
        wrong = type(out)(s=out.s, pic=out.pic, e=out.e + 1)
        wrong_want = (wrong.s, wrong.pic, wrong.e)
        assert workloads.check_sphere(gram, wrong_want, wrong) is not None
    mukai = workloads._mukai_of((2, (1,) * k, Fraction(1, 2)), X)
    assert workloads.check_mukai((2, (1,) * k, Fraction(1, 2)), mukai) is not None


def test_walk_check_catches_root_of_wrong_square():
    X = workloads.load_descriptor("k3_reflective")
    raw = workloads.fixture_data("k3_reflective")
    gram, roots = raw["gram"], [tuple(r) for r in raw["roots"]]
    x = (1, 3, 4)
    out = lm.walk_to_chamber(x, roots, X)
    assert out.steps > 0
    assert cf.walk_faults(gram, roots, x, out.vector, out.applied) == []
    bad_root = (0, 1, 1)
    assert cf.gram_pair(gram, bad_root, bad_root) == -4
    moved = cf.reflect(gram, x, bad_root)
    assert cf.walk_faults(gram, roots, x, moved, (0,))
    assert cf.walk_faults(gram, [*roots[:1], bad_root], x, moved, (1,))


def test_clebsch_gordan_matches_and_catches_broken_product():
    for a in range(1, 9):
        for b in range(1, 9):
            want = cf.clebsch_gordan(a, b)
            assert sum(i * m for i, m in want.items()) == a * b
            assert workloads.check_atiyah(want, lm.atiyah_tensor(a, b)) is None
    x, y = {2: 3, 5: -1}, {1: 2, 4: 1}
    want = cf.atiyah_product(x, y)
    assert workloads.check_atiyah(want, workloads._atiyah_mul(x, y)) is None
    short = dict(list(lm.atiyah_tensor(4, 3).as_dict().items())[1:])
    assert workloads.check_atiyah(cf.clebsch_gordan(4, 3), lm.AtiyahElement.from_dict(short)) is not None


def test_holonomy_oracle_catches_wrong_level():
    rng = random.Random(9)
    for _ in range(50):
        tau, k, t = complex(rng.uniform(-0.5, 0.5), rng.uniform(0.5, 2)), rng.randint(1, 128), rng.random()
        out = workloads._holonomy(tau, k, t)
        assert workloads.check_holonomy(k, t, complex(cf.holonomy(k, t)), out) is None
    k, t = 64, 0.7123
    assert workloads.check_holonomy(k, t, complex(cf.holonomy(k * (1 + 1e-9), t)), workloads._holonomy(1j, k, t))


def test_winding_and_segment_checks():
    data = workloads.inputs.torus_inputs(4)
    circle = workloads._phases(data["circles"][0])
    segment = workloads._phases(data["segments"][0])
    assert abs(cf.winding_count(circle) - 2) < 1e-9
    assert workloads.check_circle(circle) is None
    assert workloads.check_segment(segment) is None
    assert workloads.check_segment(circle) is not None
    # a phase that turns with the point, not with the squared tangent, winds once
    z = np.array([complex(x, y) for x, y in data["circles"][0]])
    once = (z - z[:-1].mean()) / abs(z - z[:-1].mean())
    assert abs(cf.winding_count(once) - 1) < 1e-9
    assert workloads.check_circle(once) is not None


def test_bs_check_catches_moved_or_missing_fibre():
    found = workloads._bs_fibres(1j, 16)
    assert workloads.check_bs(16, found) is None
    assert workloads.check_bs(16, found[:-1]) is not None
    assert workloads.check_bs(16, [found[0], found[1] + 2 * ROOT_TOL, *found[2:]]) is not None


def test_theta_rank_fault_is_the_named_one():
    with pytest.raises(lm.ConsistencyError):
        workloads._theta_rank(*workloads.KNOWN_FAULT_THETA)
    for tau, k in workloads.inputs.torus_inputs(1)["theta"]:
        assert k * tau.imag <= 20
        assert workloads.check_rank(k, workloads._theta_rank(tau, k)) is None


def test_verify_report_checks():
    counts = reportcheck.expected_check_counts(reportcheck.shipped_manifest(ROOT))
    assert counts["cy1-quantization"] == 50 and counts["quant-bs"] == 32
    assert len(counts) == 17
    code, report = workloads.verify_pass()
    assert reportcheck.verify_faults(code, report, counts) == []
    failing = {**report, "reports": [{**r, "status": "fail"} if r["suite"] == "quant-bs" else r
                                     for r in report["reports"]]}
    assert reportcheck.verify_faults(code, failing, counts)
    short = {**report, "reports": [{**r, "checks": r["checks"][1:]} if r["suite"] == "quant-bs" else r
                                   for r in report["reports"]]}
    assert reportcheck.verify_faults(code, short, counts)


def test_check_counts_follow_the_manifests_params(tmp_path):
    for name, params in reportcheck.DEFAULTS.items():
        defaults = lm.suites.SUITES[name].defaults
        assert json.loads(json.dumps(params)) == {k: defaults[k] for k in params}
    manifest = {
        "version": "1",
        "fixtures": ["quintic.json", "bicubic.json"],
        "suites": [
            {"name": "cy3-skew", "params": {"samples": 5, "fixtures": ["bicubic"]}},
            {"name": "cy3-quantization", "params": {"fixtures": ["bicubic"]}},
            {"name": "cy3-sublattice", "params": {}},
            {"name": "quant-theta-rank", "params": {"k_max": 3, "taus": [[0.0, 1.0]]}},
        ],
    }
    path = tmp_path / "manifest.json"
    path.write_text(json.dumps(manifest))
    counts = reportcheck.expected_check_counts(manifest)
    assert counts == {"cy3-skew": 2, "cy3-quantization": 6, "cy3-sublattice": 2,
                      "quant-theta-rank": 3, "fixtures": 2}
    report = json.loads(json.dumps(lm.run_verify(lm.parse_manifest(path)).to_json()))
    assert reportcheck.verify_faults(0, report, counts) == []
