"""Floating-point verification layer on the flat torus."""

import cmath
import json
import math
import random
import re
import runpy
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from latmirror import (
    ParamCurve,
    TorusModel,
    arc_curve,
    bs_points,
    find_bs_fibres,
    holonomy_character,
    phase_map_curve,
    segment_curve,
    theta_basis_rank,
    winding_number,
)
from latmirror import numeric, parse_manifest, run_verify
from latmirror.numeric import QUADRATURE_TOL, ConsistencyError, find_bs_fibres_batch

from oracles import bs_fibres_scalar, phase_map_scalar, theta_matrix_scalar

TAU_I = 1j
INPUTS = Path(__file__).resolve().parents[1] / "perfbench" / "inputs.py"


def model(k, tau=TAU_I):
    return TorusModel(tau=tau, level=k)


# ----------------------------------------------------------- holonomy -----

def test_holonomy_empty_disc():
    assert holonomy_character(model(3), 0.0) == pytest.approx(1.0, abs=1e-12)


def test_holonomy_examples():
    assert holonomy_character(model(3), 1 / 3) == pytest.approx(1.0, abs=1e-9)
    # the unit-circle value i sits at k*t = 1/4
    assert holonomy_character(model(1), 1 / 4) == pytest.approx(1j, abs=1e-9)
    assert holonomy_character(model(2), 1 / 8) == pytest.approx(1j, abs=1e-9)


def test_holonomy_quadrature_vs_closed_form():
    rng = random.Random(101)
    for _ in range(100):
        k = rng.randint(1, 12)
        t = rng.random()
        m = model(k, tau=complex(rng.uniform(-0.5, 0.5), rng.uniform(0.5, 2.0)))
        got = holonomy_character(m, t)
        want = cmath.exp(2j * math.pi * k * t)  # independent of module internals
        assert abs(got - want) < QUADRATURE_TOL


def exact_holonomy(k, t):
    """exp(2 pi i k t) with k t reduced mod 1 exactly: a float t is p/q, q a power of 2."""
    p, q = t.as_integer_ratio()
    return cmath.exp(2j * math.pi * ((k * p) % q / q))


def test_holonomy_refuses_levels_whose_float_phase_can_miss_the_tolerance():
    assert numeric.MAX_HOLONOMY_LEVEL == 7167
    # at the bound, every height stays within QUADRATURE_TOL of the exact value
    rng = random.Random(107)
    k = numeric.MAX_HOLONOMY_LEVEL
    heights = [rng.random() for _ in range(2000)] + [0.5, 1 / 3, math.nextafter(1.0, 0.0)]
    worst = max(abs(holonomy_character(model(k), t) - exact_holonomy(k, t)) for t in heights)
    assert worst <= QUADRATURE_TOL
    # above it the level is refused; far above it the float phase misses:
    # exp(2 pi i (10^12 + 1) / 2) is -1, the float route is off by 2.6e-4
    for k in (numeric.MAX_HOLONOMY_LEVEL + 1, 10**12 + 1):
        with pytest.raises(ValueError) as err:
            holonomy_character(model(k), 0.5)
        assert str(err.value) == (
            f"level {k} is too large for the holonomy: "
            "above level 7167 its float phase can miss 1e-11"
        )
    assert abs(numeric._holonomy(10**12 + 1, 0.5) - exact_holonomy(10**12 + 1, 0.5)) > 1e-4


def test_holonomy_unit_modulus():
    rng = random.Random(103)
    for _ in range(50):
        val = holonomy_character(model(rng.randint(1, 8)), rng.random())
        assert abs(abs(val) - 1.0) < 1e-11


def test_holonomy_batch_equals_scalar_calls():
    # the fibre search's array route, elementwise, against the public entry
    ts = np.concatenate(([0.0, 1.0], np.random.default_rng(29).random(300)))
    for k in (1, 7, 32, 128):
        m = model(k)
        batch = numeric._holonomy(k, ts)
        assert batch.shape == ts.shape
        assert batch.tolist() == [holonomy_character(m, t) for t in ts.tolist()]


def test_swept_area_range_check():
    with pytest.raises(ValueError, match=r"must lie in \[0, 1\], got nan"):
        holonomy_character(model(2), math.nan)
    with pytest.raises(ValueError, match=r"must lie in \[0, 1\], got -0\.25"):
        holonomy_character(model(2), -0.25)


def bits(z):
    return complex(z).real.hex(), complex(z).imag.hex()


def test_scalar_heights_give_the_array_route_bitwise():
    # a Python float or int height goes through cmath, the fibre search's
    # heights through numpy: the two give the same bits
    heights = (0, 1, -0.0, 0.0, 1.0, 0.3, 1 / 3, math.nextafter(1.0, 0.0))
    for k in (1, 3, 128):
        m = model(k)
        for t in heights:
            got = holonomy_character(m, t)
            assert type(got) is complex, t
            assert bits(got) == bits(numeric._holonomy(k, np.array([float(t)]))[0]), (k, t)


def test_scalar_heights_outside_the_range_raise_one_line():
    for t, text in (
        (math.nextafter(1.0, 2.0), "1.0000000000000002"),
        (math.nextafter(0.0, -1.0), "-5e-324"),
        (math.inf, "inf"),
        (-math.inf, "-inf"),
        (math.nan, "nan"),
        (2, "2"),
        (-1, "-1"),
    ):
        with pytest.raises(ValueError) as caught:
            holonomy_character(model(3), t)
        assert str(caught.value) == f"fibre height must lie in [0, 1], got {text}", t


def test_heights_that_are_not_real_numbers_or_arrays_raise_one_line():
    # one height a call: an array, a numpy scalar or a bool is refused by
    # its type, as a bool level is by TorusModel (True read as height 1)
    for t, name in (
        ([0.3], "list"),
        ((0.3, 0.5), "tuple"),
        ("0.3", "str"),
        (None, "NoneType"),
        (True, "bool"),
        (False, "bool"),
        (0.3 + 0j, "complex"),
        (np.float64(0.3), "float64"),
        (np.float32(0.25), "float32"),
        (np.int64(1), "int64"),
        (np.bool_(True), "bool"),
        (np.complex128(0.3 + 0.5j), "complex128"),
        (np.array(0.3), "ndarray"),
        (np.array([0.3, 0.5]), "ndarray"),
        (np.array([1.5]), "ndarray"),
    ):
        with pytest.raises(ValueError) as caught:
            holonomy_character(model(3), t)
        assert str(caught.value) == f"fibre height must be a float or an int, got {name}", t


def test_holonomy_at_the_benchmark_points_equals_the_array_route():
    points = runpy.run_path(str(INPUTS))["torus_inputs"](1)["holonomy"]
    assert len(points) == 400
    for tau, k, t in points:
        m = model(k, tau=tau)
        got = holonomy_character(m, t)
        assert type(got) is complex
        assert bits(got) == bits(numeric._holonomy(k, np.array([t]))[0]), (tau, k, t)


def test_bs_fibres_at_the_benchmark_levels_equal_the_scalar_reference():
    cases = runpy.run_path(str(INPUTS))["torus_inputs"](1)["bs"]
    assert [k for _, k in cases] == [8, 32, 64, 128]
    for tau, k in cases:
        m = model(k, tau=tau)
        assert find_bs_fibres(m) == bs_fibres_scalar(lambda t: holonomy_character(m, t), k), (tau, k)


def perturb_level(monkeypatch, rel=1e-6):
    """Scale the level inside holonomy_character: k becomes k * (1 + rel)."""
    swept_area = numeric._swept_area
    monkeypatch.setattr(numeric, "_swept_area", lambda m, t: swept_area(m, t) * (1.0 + rel))


def test_perturbed_level_normalisation_fails_the_numeric_suites(monkeypatch, tmp_path):
    perturb_level(monkeypatch)
    manifest = tmp_path / "m.json"
    manifest.write_text(json.dumps({
        "version": "1",
        "fixtures": [],
        "suites": [
            {"name": "quant-bs", "params": {"k_max": 4}},
            {"name": "quant-holonomy", "params": {"k_max": 4}},
        ],
    }))
    reports = {r.suite: r for r in run_verify(parse_manifest(manifest)).reports}
    assert reports["quant-bs"].status == "fail"
    assert reports["quant-holonomy"].status == "fail"


# ------------------------------------------------------------- BS search --

def test_bs_fibres_examples():
    assert find_bs_fibres(model(1)) == [0.0]
    got = find_bs_fibres(model(3))
    for g, want in zip(got, (0.0, 1 / 3, 2 / 3)):
        assert abs(g - want) < 1e-9
    got12 = find_bs_fibres(model(12))
    assert len(got12) == 12
    for j, g in enumerate(got12):
        assert abs(g - j / 12) < 1e-9


def test_bs_fibres_match_exact_oracle_up_to_32():
    for k in range(1, 33):
        got = find_bs_fibres(model(k))
        exact = [float(p) for p in bs_points(k)]
        assert len(got) == k
        assert max(abs(g - e) for g, e in zip(got, exact)) < 1e-9


def test_bs_fibres_other_tau():
    got = find_bs_fibres(model(5, tau=complex(0.3, 1.7)))
    assert len(got) == 5
    assert max(abs(g - j / 5) for j, g in enumerate(got)) < 1e-9


def test_bs_fibres_equal_scalar_reference_bitwise():
    cases = [(TAU_I, k) for k in range(1, 33)]
    cases += [(complex(-0.2, 0.8), k) for k in (64, 128)]
    for tau, k in cases:
        m = model(k, tau=tau)
        want = bs_fibres_scalar(lambda t: holonomy_character(m, t), k)
        assert find_bs_fibres(m) == want, (tau, k)


def test_bs_batch_equals_scalar_reference_bitwise():
    # one batch over every level, and a mixed batch off the imaginary axis
    for tau, levels in ((TAU_I, range(1, 33)), (complex(0.2, 1.3), (8, 32, 64, 128))):
        models = [model(k, tau=tau) for k in levels]
        got = find_bs_fibres_batch(models)
        assert len(got) == len(models)
        for m, roots in zip(models, got):
            want = bs_fibres_scalar(lambda t: holonomy_character(m, t), m.level)
            assert roots == want, (tau, m.level)


def test_bs_batch_equals_the_per_level_calls():
    models = [model(5), model(3, tau=complex(-0.4, 0.9)), model(5), model(1), model(17)]
    assert find_bs_fibres_batch(models) == [find_bs_fibres(m) for m in models]
    assert find_bs_fibres_batch([]) == []


def test_fibre_search_checks_no_heights_and_evaluates_every_midpoint(monkeypatch):
    # heights are checked at the public entry points only; the search makes
    # its own inside (0, 1), and each of them still goes through _swept_area,
    # the one formula the level mutants patch
    checked, sizes = [], []
    check, swept_area = numeric._check_heights, numeric._swept_area
    monkeypatch.setattr(numeric, "_check_heights", lambda t: checked.append(t) or check(t))
    monkeypatch.setattr(numeric, "_swept_area", lambda k, t: sizes.append(np.size(t)) or swept_area(k, t))
    models = [model(k, tau=complex(0.2, 1.3)) for k in (1, 3, 8, 32, 64)]
    got = find_bs_fibres_batch(models)
    assert checked == []
    # one call on the grids, then one per bisection round on the live
    # brackets: as many evaluations as the brackets' scalar bisections make
    assert sizes[0] == sum(8 * m.level for m in models)
    assert sizes[1:] == sorted(sizes[1:], reverse=True) and min(sizes[1:]) > 0
    midpoints = 0
    for m, roots in zip(models, got):
        calls = []

        def holonomy(t, m=m):
            calls.append(t)
            return cmath.exp(2j * math.pi * (m.level * t))

        assert bs_fibres_scalar(holonomy, m.level) == roots
        midpoints += len(calls) - 8 * m.level
    assert sum(sizes[1:]) == midpoints
    sizes.clear()
    holonomy_character(models[0], 0.5)
    assert checked == [0.5] and sizes == [1]


def scale_level_4_area(monkeypatch):
    # the holonomy of level 4 winds as if the level were 6: six fibres
    swept_area = numeric._swept_area
    monkeypatch.setattr(
        numeric, "_swept_area", lambda k, t: swept_area(k, t) * np.where(k == 4, 1.5, 1.0)
    )


def test_bs_wrong_count_names_the_level(monkeypatch):
    scale_level_4_area(monkeypatch)
    assert find_bs_fibres(model(3)) == bs_fibres_scalar(lambda t: holonomy_character(model(3), t), 3)
    with pytest.raises(ConsistencyError, match="^level 4 model produced 6 trivial-holonomy fibres$"):
        find_bs_fibres(model(4))
    # the batch returns every model's roots, a wrong count included
    got = find_bs_fibres_batch([model(3), model(4), model(5)])
    assert [len(roots) for roots in got] == [3, 6, 5]
    assert got[1] == bs_fibres_scalar(lambda t: holonomy_character(model(4), t), 4)


def test_quant_bs_fails_only_the_level_with_a_wrong_count(monkeypatch, tmp_path):
    manifest = tmp_path / "m.json"
    manifest.write_text(json.dumps({
        "version": "1",
        "fixtures": [],
        "suites": [{"name": "quant-bs", "params": {"k_max": 6}}],
    }))

    def run():
        report = {r.suite: r for r in run_verify(parse_manifest(manifest)).reports}["quant-bs"]
        return report.status, {c.name.split(":")[0]: c for c in report.checks}

    scale_level_4_area(monkeypatch)
    status, checks = run()
    assert status == "fail"
    assert {name: c.ok for name, c in checks.items()} == {f"level {k}": k != 4 for k in range(1, 7)}
    assert checks["level 4"].got.startswith("6 fibres, ")
    # the count alone: level 3 loses its last root, and the two left sit at j/3
    monkeypatch.undo()
    batch = numeric.find_bs_fibres_batch
    monkeypatch.setattr(
        numeric, "find_bs_fibres_batch",
        lambda models: [r[:-1] if m.level == 3 else r for m, r in zip(models, batch(models))],
    )
    status, checks = run()
    assert status == "fail"
    assert {name: c.ok for name, c in checks.items()} == {f"level {k}": k != 3 for k in range(1, 7)}
    count, deviation = re.fullmatch(r"(\d+) fibres, max deviation (\S+)", checks["level 3"].got).groups()
    assert int(count) == 2 and float(deviation) <= numeric.ROOT_TOL


def test_bs_deterministic():
    a = find_bs_fibres(model(7))
    b = find_bs_fibres(model(7))
    assert a == b  # bitwise: fixed grids, fixed bisection order


# ------------------------------------------------------------- phase ------

def test_phase_constant_on_rational_segments():
    m = model(1)
    for r, d in ((1, 1), (3, 2), (1, 4), (5, 1)):
        phases = phase_map_curve(m, segment_curve((0.1, 0.2), (r, d), n=64))
        assert float(np.std(phases)) < 1e-12
        want = cmath.exp(2j * math.atan2(d, r))  # squared unit tangent
        assert abs(phases[0] - want) < 1e-12


def test_phase_slope_two_thirds_value():
    phases = phase_map_curve(model(1), segment_curve((0.0, 0.0), (3, 2), n=32))
    assert abs(phases[7] - cmath.exp(2j * math.atan2(2, 3))) < 1e-12


def test_phase_full_circle_winds_twice():
    phases = phase_map_curve(model(1), arc_curve((0.5, 0.5), 0.1, turns=1.0, n=256))
    assert float(np.std(phases)) > 0.1
    assert winding_number(phases) == pytest.approx(2.0, abs=1e-6)


def test_phase_half_arc_winds_once():
    phases = phase_map_curve(model(1), arc_curve((0.5, 0.5), 0.1, turns=0.5, n=1024))
    assert winding_number(phases) == pytest.approx(1.0, abs=1e-6)


def test_phase_reversal_invariance():
    fwd = phase_map_curve(model(1), segment_curve((0.0, 0.0), (2, 1), n=64))
    rev = phase_map_curve(
        model(1), ParamCurve(segment_curve((0.0, 0.0), (2, 1), n=64).points, orientation=-1)
    )
    assert abs(fwd[0] - rev[0]) < 1e-12  # det map is tangent-sign blind


def test_phase_degenerate_samples_raise():
    from latmirror import ConsistencyError

    pts = tuple((0.1, 0.2) for _ in range(20))
    with pytest.raises(ConsistencyError):
        phase_map_curve(model(1), ParamCurve(pts))


def _phase_probe_curves():
    """The quant-phase curves, axis-parallel segments, arcs and seeded random curves."""
    curves = [segment_curve((0.1, 0.2), d, n=64) for d in ((1, 1), (2, 3), (1, 4), (5, 1))]
    curves += [
        arc_curve((0.5, 0.5), 0.2, turns=1.0, n=256),
        arc_curve((0.5, 0.5), 0.2, turns=0.5, n=1024),
    ]
    # tangents parallel to an axis: the sign of a zero imaginary part decides
    # whether an end phase reads angle pi or -pi
    curves += [
        segment_curve((0.3, 0.7), d, span=0.5, n=32) for d in ((1, 0), (0, 1), (-1, 0), (0, -1))
    ]
    curves += [
        arc_curve((0.5, 0.5), 0.2, turns=t, n=n)
        for t in (0.25, 0.5, 1.0, 1.5, 2.0)
        for n in (16, 64, 256, 1024)
    ]
    rng = random.Random(31)
    for n in (16, 100, 333):
        pts = [(rng.uniform(-1.0, 1.0), rng.uniform(-1.0, 1.0)) for _ in range(n)]
        curves += [ParamCurve(pts), ParamCurve(pts + pts[:1])]
    return curves + [ParamCurve(c.points, orientation=-1) for c in curves]


def test_phase_map_is_bitwise_the_per_sample_reference():
    curves = _phase_probe_curves()
    assert {c.is_closed for c in curves} == {True, False}
    for curve in curves:
        want = phase_map_scalar(curve, ConsistencyError)
        got = phase_map_curve(model(1), curve)
        assert got.dtype == want.dtype and got.shape == want.shape
        assert got.tobytes() == want.tobytes()
    # a fold back on itself has a zero central difference at the turn
    folded = [(i / 20, 0.0) for i in range(11)] + [(i / 20, 0.0) for i in range(9, -1, -1)]
    for pts in (((0.1, 0.2),) * 20, folded, folded[:16]):
        with pytest.raises(ConsistencyError) as want:
            phase_map_scalar(ParamCurve(pts), ConsistencyError)
        with pytest.raises(ConsistencyError) as got:
            phase_map_curve(model(1), ParamCurve(pts))
        assert str(got.value) == str(want.value)


def test_param_curve_validation():
    with pytest.raises(ValueError):
        ParamCurve(((0.0, 0.0), (1.0, 1.0)))
    with pytest.raises(ValueError):
        ParamCurve(tuple((i / 20, 0.0) for i in range(20)), orientation=2)
    for bad in (
        [i / 20 for i in range(20)],  # 1-D
        [(i / 20, 0.0, 1.0) for i in range(20)],  # three columns
        [(i / 20, 0.0) for i in range(19)] + [(1.0,)],  # ragged
        [(i / 20, "y") for i in range(20)],
        5,  # not a sequence at all
    ):
        with pytest.raises(ValueError, match=r"^curve samples must form an \(n, 2\) array"):
            ParamCurve(bad)
    for bad in (None, math.nan, math.inf):
        with pytest.raises(ValueError, match="^curve samples must be finite numbers$"):
            ParamCurve([(i / 20, 0.0) for i in range(19)] + [(0.5, bad)])


CURVE_ERRORS = (
    "curve samples must form an (n, 2) array",
    "curve samples must be finite numbers",
    "need at least 16 samples",
)
NUMBERS = st.one_of(st.floats(), st.integers(), st.booleans())
ENTRIES = st.one_of(
    NUMBERS,
    NUMBERS.map(str),
    st.none(),
    st.just(10**400),  # too large for a float
    st.text(max_size=3),
)
ROWS = st.one_of(st.lists(ENTRIES, max_size=3), ENTRIES)  # any width, or a scalar


@st.composite
def curve_samples(draw):
    # a clean list of n rows (or n numbers), then a few entries and rows
    # replaced: few draws per example keep the test fast
    n = draw(st.one_of(st.integers(15, 20), st.integers(0, 20)))
    width = draw(st.sampled_from([2, 2, 2, 3, None]))  # None: a 1-D list
    samples = [i / 7 if width is None else [i, i / 7, -i][:width] for i in range(n)]
    if n and width:
        for _ in range(draw(st.integers(0, 3))):
            entry = draw(st.one_of(NUMBERS, NUMBERS.map(str), ENTRIES))  # mostly numbers
            samples[draw(st.integers(0, n - 1))][draw(st.integers(0, width - 1))] = entry
    if n and draw(st.integers(0, 3)) == 0:
        samples[draw(st.integers(0, n - 1))] = draw(ROWS)
    return samples


@settings(max_examples=150, deadline=None)
@given(curve_samples())
# numpy reads a string row as one number and a dict row as one object
@example(["12"] * 16)
@example([{0: 1, 2: 3}] * 16)
@example([])
@example(np.arange(40.0).reshape(20, 2))
@example(np.ones((20, 2, 1)))
def test_param_curve_reads_samples_as_numpy_does(samples):
    # accepted samples are bitwise numpy's reading of them; the rest raise
    # a ValueError with one of the documented messages, never anything else
    try:
        want = np.array(samples, dtype=float)
    except (TypeError, ValueError, OverflowError):
        want = None
    if want is not None and want.ndim == 2 and want.shape[1] == 2 and len(want) >= 16 and np.isfinite(want).all():
        assert ParamCurve(samples).points.tobytes() == want.tobytes()
    else:
        with pytest.raises(ValueError) as err:
            ParamCurve(samples)
        assert str(err.value).startswith(CURVE_ERRORS), err.value


def test_param_curve_holds_one_read_only_array():
    for samples in (np.arange(40).reshape(20, 2), np.arange(40.0).reshape(20, 2)):
        curve = ParamCurve(samples)
        assert curve.points.dtype == np.float64 and curve.points.shape == (20, 2)
        assert not curve.points.flags.writeable
        with pytest.raises(ValueError):
            curve.points[0, 0] = 5.0
        # a copy: changing the input leaves the curve as it was
        assert not np.shares_memory(curve.points, samples)
        samples[0, 0] = 99
        assert curve.points[0].tolist() == [0.0, 1.0]


# ------------------------------------------------------------- theta ------

def test_theta_rank_examples():
    assert theta_basis_rank(model(1)) == 1
    assert theta_basis_rank(model(4)) == 4


def test_theta_rank_three_tau_values():
    for tau in (1j, 0.5 + 1j, 2j):
        for k in range(1, 9):
            assert theta_basis_rank(model(k, tau=tau)) == k == len(bs_points(k))


def test_theta_rank_large_level_times_im_tau():
    # k * Im(tau) well past 25: unnormalised rows lost rank, then overflowed
    assert theta_basis_rank(model(32)) == 32
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert theta_basis_rank(model(64, tau=3j)) == 64


def test_theta_matrix_equals_the_lattice_sum_oracle():
    # the torus-numeric theta cases of seed 1 and two at large k Im(tau),
    # where g = gcd(k, N) = k, then the other regimes of the quasi-period:
    # N coprime to k (g = 1), 1 < g < k, and fewer samples than the level
    cases = [(tau, k, 4 * k) for tau, k in runpy.run_path(str(INPUTS))["torus_inputs"](1)["theta"]]
    cases += [(1j, 32, 128), (3j, 64, 256), (complex(0.3, 0.8), 5, 23)]
    cases += [(complex(-0.2, 1.1), 6, 21), (complex(0.4, 0.7), 12, 8)]
    for tau, k, samples in cases:
        got = numeric.theta_matrix(model(k, tau=tau), samples)
        want = np.array(theta_matrix_scalar(tau, k, samples))
        assert got.shape == want.shape == (k, samples)
        assert np.abs(got - want).max() <= 1e-12, (tau, k, samples)


def test_theta_rank_duplicated_characteristic_raises(monkeypatch):
    build = numeric.theta_matrix

    def duplicated(m, samples):
        matrix = build(m, samples)
        matrix[1] = matrix[0]
        return matrix

    monkeypatch.setattr(numeric, "theta_matrix", duplicated)
    with pytest.raises(ConsistencyError):
        theta_basis_rank(model(8))


# ------------------------------------------------------------- model ------

def test_torus_model_validation():
    with pytest.raises(ValueError):
        TorusModel(tau=1.0 + 0j, level=1)
    with pytest.raises(ValueError):
        TorusModel(tau=-1j, level=1)
    with pytest.raises(ValueError):
        TorusModel(tau=1j, level=0)
    with pytest.raises(ValueError):
        TorusModel(tau=1j, level=1.5)  # type: ignore[arg-type]
    for tau in (complex(math.nan, 1.0), complex(0.0, math.inf), complex(math.inf, 1.0)):
        with pytest.raises(ValueError, match="finite"):
            TorusModel(tau=tau, level=1)
    # a bool is an int to isinstance; True used to pass and then fail in numpy
    for level in (True, False, np.bool_(True), np.int64(0), np.int32(-2), np.float64(3.0)):
        with pytest.raises(ValueError) as caught:
            TorusModel(tau=1j, level=level)
        assert str(caught.value) == f"level must be a positive integer, got {level}"
    # tau is stored as a built-in complex, however it is given
    for tau in (1j, np.complex128(0.5 + 1j), "0.5+1j"):
        m = TorusModel(tau=tau, level=2)
        assert type(m.tau) is complex and m.tau == complex(tau)


def test_numpy_integer_levels_are_stored_as_ints():
    # a level read from a numpy array was refused as "got 3"
    for level in (np.int64(3), np.int32(3), np.uint8(3)):
        m = TorusModel(tau=1j, level=level)
        assert type(m.level) is int and m == TorusModel(tau=1j, level=3)
        assert find_bs_fibres(m) == find_bs_fibres(model(3))
        assert theta_basis_rank(m) == 3
    # a built-in int is stored as given, not converted
    big = 10 ** 20 + 1
    assert TorusModel(tau=1j, level=big).level is big


def test_winding_number_synthetic():
    n = 256
    seq = [cmath.exp(2j * math.pi * 3 * i / n) for i in range(n + 1)]
    assert winding_number(seq) == pytest.approx(3.0, abs=1e-9)
