"""Floating-point verification layer on the flat torus."""

import cmath
import json
import math
import random
import warnings

import numpy as np
import pytest

from latmirror import (
    ParamCurve,
    TorusModel,
    arc_curve,
    bs_points,
    find_bs_fibres,
    holonomy_character,
    phase_map_curve,
    segment_curve,
    special_coordinates,
    theta_basis_rank,
    winding_number,
)
from latmirror import numeric, parse_manifest, run_verify
from latmirror.numeric import QUADRATURE_TOL, ConsistencyError

from oracles import bs_fibres_scalar

TAU_I = 1j


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


def test_holonomy_unit_modulus():
    rng = random.Random(103)
    for _ in range(50):
        val = holonomy_character(model(rng.randint(1, 8)), rng.random())
        assert abs(abs(val) - 1.0) < 1e-11


def test_holonomy_batch_equals_scalar_calls():
    ts = np.concatenate(([0.0, 1.0], np.random.default_rng(29).random(300)))
    for k in (1, 7, 32, 128):
        m = model(k)
        batch = holonomy_character(m, ts)
        assert batch.shape == ts.shape
        assert batch.tolist() == [complex(holonomy_character(m, float(t))) for t in ts]


def test_swept_area_range_check():
    with pytest.raises(ValueError, match=r"must lie in \[0, 1\], got nan"):
        holonomy_character(model(2), math.nan)
    with pytest.raises(ValueError, match=r"got 1\.5"):
        holonomy_character(model(2), np.array([0.5, 1.5, math.nan]))
    with pytest.raises(ValueError):
        special_coordinates(model(2), -0.25)


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
            {"name": "quant-holonomy", "params": {"samples": 20}},
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


def test_bs_tol_validation():
    with pytest.raises(ValueError):
        find_bs_fibres(model(2), tol=0.0)
    with pytest.raises(ValueError):
        find_bs_fibres(model(2), tol=1e-3)


def test_bs_deterministic():
    a = find_bs_fibres(model(7))
    b = find_bs_fibres(model(7))
    assert a == b  # bitwise: fixed grids, fixed bisection order


# ------------------------------------------------------ special coords ----

def test_special_coordinates_examples():
    assert special_coordinates(model(1), 0.0) == pytest.approx(1.0, abs=1e-12)
    assert special_coordinates(model(1), 0.5) == pytest.approx(
        math.exp(-math.pi), rel=1e-12
    )
    assert special_coordinates(model(1), 0.2) > special_coordinates(model(1), 0.7)


def test_special_coordinates_strictly_decreasing():
    m = model(3)
    vals = [special_coordinates(m, t) for t in np.linspace(0.0, 0.99, 34)]
    assert all(a > b for a, b in zip(vals, vals[1:]))


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


def test_param_curve_validation():
    with pytest.raises(ValueError):
        ParamCurve(((0.0, 0.0), (1.0, 1.0)))
    with pytest.raises(ValueError):
        ParamCurve(tuple((i / 20, 0.0) for i in range(20)), orientation=2)


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


def test_theta_rank_duplicated_characteristic_raises(monkeypatch):
    build = numeric.theta_matrix

    def duplicated(m, samples):
        matrix = build(m, samples)
        matrix[1] = matrix[0]
        return matrix

    monkeypatch.setattr(numeric, "theta_matrix", duplicated)
    with pytest.raises(ConsistencyError):
        theta_basis_rank(model(8))


def test_theta_rank_samples_precondition():
    with pytest.raises(ValueError):
        theta_basis_rank(model(4), samples=15)
    assert theta_basis_rank(model(4), samples=64) == 4


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


def test_winding_number_synthetic():
    n = 256
    seq = [cmath.exp(2j * math.pi * 3 * i / n) for i in range(n + 1)]
    assert winding_number(seq) == pytest.approx(3.0, abs=1e-9)
