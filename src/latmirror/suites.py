"""Verification suites orchestrated by ``latmirror verify``.

Each suite recomputes one family of identities through two independent
routes and records per-check evidence.  Random sweeps are seeded from the
manifest, so a verify run is deterministic end to end.

Five suites prove exact identities between polynomials in the integer
coordinates of the classes on a finite set instead of sampling them.  A
bilinear identity holds once it holds on every pair of basis classes
e_i, e_j (:meth:`GradedVector.basis`).  A polynomial of degree at most d
in each variable that vanishes on d + 1 points per variable is zero
(Alon, "Combinatorial Nullstellensatz", 1999, Lemma 2.1), so degree 2
needs the grid {-1, 0, 1}^k and degree 4 the grid {-2, ..., 2}^k:

- ``cy1-mirror-isometry``: the Euler form :func:`core.pair_exotic` against
  :func:`cy1.cycle_pairing` of the :func:`cy1.mirror_cy1` images, on all
  basis pairs;
- ``k3-reflections``: for each declared root, the involution on the basis
  and the isometry of the Gram pairing on all basis pairs, through
  ``cy2._reflect_columns`` (the kernel of :func:`cy2.reflect_minus2`);
  its seeded walk (:func:`cy2.walk_batch`) is not polynomial;
- ``k3-mirror-transport``: the Euler form of (1, L, L^2/2)
  against :func:`cy2.mirror_pairing_k3` of the :func:`cy2.mirror_k3`
  images, on {-1, 0, 1}^k for each of L1 and L2; the (-2)-sphere square,
  of degree 4, on {-2, ..., 2}^k;
- ``cy3-skew``: the Euler form is minus its transpose on all
  basis pairs; the self-pairing vanishes on every e_i + e_j, i <= j,
  which determines a quadratic form;
- ``cy3-mirror-isometry``: :func:`cy3.isometry_certificate3`, and the
  images of [X] sqrt(td) and [pt] sqrt(td), which span the image of the
  sqrt(td)-span of [X] and [pt].

Each check's ``inputs`` says what it covers; a failure names the basis
pair or grid point (:func:`core.isometry_failures`).  No mirror map here
can raise: a loaded K3 fixture has an even Gram lattice, and the preimage
of td u is u sqrt(td), whose rank and divisor block are those of u.  The
hand-written forms pair the images exactly: the K3 images in ints, the
others in Fractions.
"""

from __future__ import annotations

import itertools
import math
import random
from functools import partial
from operator import mul
from typing import Callable, NamedTuple

import numpy as np

from . import cy1, cy2, cy3, numeric
from .core import (
    GradedVector,
    RingDescriptor,
    apply_form,
    isometry_failures,
    pair_exotic,
    pair_form,
    todd_multiply,
)
from .report import Check, summary_check


class SuiteInputError(RuntimeError):
    """A suite could not run (missing fixture or bad parameter)."""


class SuiteDef(NamedTuple):
    name: str
    defaults: dict
    run: Callable


def _get_fixture(fixtures: dict, label: str, kind):
    fx = fixtures.get(label)
    if fx is None:
        raise SuiteInputError(f"fixture {label!r} is not loaded")
    if not isinstance(fx, kind):
        raise SuiteInputError(f"fixture {label!r} has the wrong geometry type")
    return fx


def _grid(k: int, r: int) -> list:
    """Every integer point of {-r, ..., r}^k."""
    return list(itertools.product(range(-r, r + 1), repeat=k))


# ---------------------------------------------------------------- cy1 ----

def _run_cy1_quantization(params, fixtures):
    checks = []
    s0 = cy1.CycleClass1(1, 0)
    for k in range(1, params["k_max"] + 1):
        count = cy1.intersection_count(cy1.gft_class(cy1.BundleClass1(1, k)), s0)
        marked = len(cy1.bs_points(k))
        checks.append(
            Check(
                name=f"level {k}: transform meets section in k points, k marked fibres",
                ok=(count == k == marked),
                inputs=f"k={k}",
                expected=str(k),
                got=f"intersections={count}, marked={marked}",
            )
        )
    return checks


def _run_cy1_mirror_isometry(params, fixtures):
    ring = RingDescriptor.elliptic()
    basis = GradedVector.basis(1, 0)
    failures = isometry_failures(
        basis,
        [cy1.mirror_cy1(e) for e in basis],
        lambda u, v: pair_exotic(u, v, ring),
        cy1.cycle_pairing,
    )
    n = len(basis) ** 2
    return [
        summary_check(
            "mirror pairing equals Euler pairing on the curve",
            n,
            failures,
            inputs=f"all {n} basis pairs",
        )
    ]


def _run_cy1_gft_homomorphism(params, fixtures):
    rng = random.Random(params["seed"])
    failures = []
    for _ in range(params["samples"]):
        r1, d1 = rng.randint(1, params["bound"]), rng.randint(-params["bound"], params["bound"])
        r2, d2 = rng.randint(1, params["bound"]), rng.randint(-params["bound"], params["bound"])
        tensor = cy1.BundleClass1(r1 * r2, r1 * d2 + r2 * d1)
        lhs = cy1.gft_class(tensor)
        rhs = cy1.odot(
            cy1.gft_class(cy1.BundleClass1(r1, d1)),
            cy1.gft_class(cy1.BundleClass1(r2, d2)),
        )
        if lhs != rhs:
            failures.append(f"(r1,d1)=({r1},{d1}) (r2,d2)=({r2},{d2})")
    return [
        summary_check(
            "transform of a tensor product is the fibrewise product",
            params["samples"],
            failures,
            inputs=f"seed={params['seed']}, bound={params['bound']}",
        )
    ]


def _run_cy1_atiyah(params, fixtures):
    checks = []
    top = params["max_index"]
    bad_pairs = []
    for a in range(1, top + 1):
        for b in range(1, top + 1):
            product = cy1.atiyah_tensor(a, b)
            if product.dimension() != a * b:
                bad_pairs.append(f"F_{a}xF_{b} dim {product.dimension()}")
            if product != cy1.atiyah_tensor(b, a):
                bad_pairs.append(f"F_{a}xF_{b} not commutative")
    checks.append(
        summary_check(
            f"indecomposable products: rank multiplicative, commutative (a,b <= {top})",
            total=top * top,
            failures=bad_pairs,
        )
    )
    rng = random.Random(params["seed"])
    assoc_failures = []
    for _ in range(params["triples"]):
        a, b, c = (rng.randint(1, top) for _ in range(3))
        ea, eb, ec = (cy1.AtiyahElement.basis(i) for i in (a, b, c))
        if (ea * eb) * ec != ea * (eb * ec):
            assoc_failures.append(f"({a},{b},{c})")
    checks.append(
        summary_check(
            "indecomposable product is associative",
            params["triples"],
            assoc_failures,
            inputs=f"seed={params['seed']}, indices <= {top}",
        )
    )
    unit = cy1.AtiyahElement.basis(1)
    sample = cy1.AtiyahElement.from_dict({2: 3, 5: 1})
    checks.append(
        Check(
            name="F_1 is the unit",
            ok=(unit * sample == sample and sample * unit == sample),
            expected=str(sample.terms),
            got=str((unit * sample).terms),
        )
    )
    return checks


# ---------------------------------------------------------------- cy2 ----

def _run_k3_quantization(params, fixtures):
    X = _get_fixture(fixtures, params["fixture"], cy2.K3Descriptor)
    if X.ring.gram != cy2.H_GRAM:
        raise SuiteInputError(
            f"fixture {X.label} has Gram {X.ring.gram}; the classes (1, L^2/2 + 1) "
            f"need the section/fibre Gram {cy2.H_GRAM}"
        )
    checks = []
    for l2 in range(0, params["l2_max"] + 1, 2):
        L = (1, l2 // 2 + 1)  # realizes L^2 = l2 in the section/fibre Gram
        rep = cy2.verify_quantization_k3(L, X)
        mirror = cy2.mirror_k3(L, X)
        sphere = cy2.mirror_pairing_k3(mirror, mirror, X)
        expected = l2 // 2 + 2
        checks.append(
            Check(
                name=f"L^2 = {l2}: sections match marked fibres",
                ok=(rep.ok and rep.h0 == expected and sphere == -2),
                inputs=f"L={L} in {X.label}",
                expected=f"h0 = count = {expected}, mirror sphere square -2",
                got=f"h0={rep.h0}, count={rep.bs_count}, square={sphere}",
            )
        )
    return checks


def _run_k3_reflections(params, fixtures):
    X = _get_fixture(fixtures, params["fixture"], cy2.K3Descriptor)
    if not X.roots:
        raise SuiteInputError(f"fixture {X.label} declares no roots")
    k = X.ring.picard_rank
    # integer coordinates through the kernel of reflect_minus2, paired
    # through the Gram matrix
    basis = [[int(i == j) for j in range(k)] for i in range(k)]
    gram_pair = partial(pair_form, X.ring.gram)
    invol, isome = [], []
    for delta in X.roots:
        images = [cy2._reflect_columns(e, delta, X) for e in basis]
        invol += [
            f"delta={delta} e{i}"
            for i, (e, r) in enumerate(zip(basis, images))
            if cy2._reflect_columns(r, delta, X) != e
        ]
        failures = isometry_failures(basis, images, gram_pair, gram_pair)
        isome += [f"delta={delta} {f}" for f in failures]
    rng = random.Random(params["seed"])
    n = params["samples"]
    draws = rng.choices(range(-9, 10), k=n * k)
    xs = [tuple(draws[i:i + k]) for i in range(0, n * k, k)]
    # every end point against every root, the Gram matrix applied to each root once
    gram_roots = [apply_form(X.ring.gram, d) for d in X.roots]
    walk = [
        f"x={x} stopped outside the chamber"
        for x, (end, _) in zip(xs, cy2.walk_batch(xs, X.roots, X))
        if any(sum(map(mul, end, g)) < 0 for g in gram_roots)
    ]
    note = f"fixture={X.label}"
    m = len(X.roots)
    return [
        summary_check(
            "reflection is an involution", m * k, invol,
            inputs=f"each of {m} roots on all {k} basis vectors, {note}",
        ),
        summary_check(
            "reflection preserves the Gram pairing", m * k * k, isome,
            inputs=f"each of {m} roots on all {k * k} basis pairs, {note}",
        ),
        summary_check(
            "bounded walk reaches the nonnegative chamber", n, walk,
            inputs=f"seed={params['seed']}, {note}",
        ),
    ]


def _run_k3_mirror_transport(params, fixtures):
    X = _get_fixture(fixtures, params["fixture"], cy2.K3Descriptor)
    k = X.ring.picard_rank
    # the images pair by the hand-written mirror form, the Chern characters
    # (1, L, L^2/2) by the Euler form, orientation-reversed
    ls = _grid(k, 1)
    chs = [GradedVector(2, (1, L, X.ring.pic_pair(L, L) / 2)) for L in ls]
    failures = isometry_failures(
        chs,
        [cy2.mirror_k3(L, X) for L in ls],
        lambda u, v: -pair_exotic(u, v, X.ring),
        lambda a, b: cy2.mirror_pairing_k3(a, b, X),
        names=ls,
    )
    spheres = []
    for L in _grid(k, 2):
        m = cy2.mirror_k3(L, X)
        square = cy2.mirror_pairing_k3(m, m, X)
        if square != -2:
            spheres.append(f"L={L}: {square}")
    n = len(ls) ** 2
    return [
        summary_check(
            "mirror pairing transports the Euler pairing (orientation-reversed)",
            n, failures, inputs=f"all {n} pairs (L1, L2) in {{-1, 0, 1}}^{k}, fixture={X.label}",
        ),
        summary_check(
            "every mirror image is a (-2)-sphere class", 5 ** k, spheres,
            inputs=f"all {5 ** k} L in {{-2, ..., 2}}^{k}, fixture={X.label}",
        ),
    ]


def _run_k3_main_condition(params, fixtures):
    cases = [
        (
            "standard hyperbolic pair",
            ([[0, 1], [1, -2]], (1, 0), (0, 1), ()),
            True,
        ),
        (
            "complement vector meeting the fibre",
            ([[0, 1, 1], [1, -2, 0], [1, 0, 4]], (1, 0, 0), (0, 1, 0), ((0, 0, 1),)),
            False,
        ),
        (
            "orthogonal complement",
            ([[0, 1, 0], [1, -2, 0], [0, 0, 4]], (1, 0, 0), (0, 1, 0), ((0, 0, 1),)),
            True,
        ),
    ]
    checks = []
    for label, (gram, e, s, comp), expect_pass in cases:
        report = cy2.check_main_condition(gram, e, s, comp)
        checks.append(
            Check(
                name=f"main condition: {label}",
                ok=(report.passed == expect_pass),
                inputs=f"e={e}, s={s}, complement={comp}",
                expected="pass" if expect_pass else "fail",
                got="pass" if report.passed else "fail",
            )
        )
    return checks


# ---------------------------------------------------------------- cy3 ----

def _run_cy3_skew(params, fixtures):
    checks = []
    for label in params["fixtures"]:
        X = _get_fixture(fixtures, label, cy3.CY3Descriptor)
        basis = GradedVector.basis(3, X.ring.picard_rank)
        n = len(basis)
        g = [[pair_exotic(u, v, X.ring) for v in basis] for u in basis]
        # a quadratic form is zero once it vanishes on every e_i + e_j, i <= j
        diag = []
        for i, j in itertools.combinations_with_replacement(range(n), 2):
            w = basis[i] + basis[j]
            square = pair_exotic(w, w, X.ring)
            if square != 0:
                diag.append(f"e{i} + e{j}: {square}")
        anti = isometry_failures(range(n), range(n), lambda i, j: g[i][j], lambda i, j: -g[j][i])
        sums = n * (n + 1) // 2
        checks.append(summary_check(
            f"{label}: self-pairing vanishes (virtual dimension 0)", sums, diag,
            inputs=f"all {sums} classes e_i + e_j, i <= j, fixture={label}"))
        checks.append(summary_check(
            f"{label}: Euler pairing is antisymmetric", n * n, anti,
            inputs=f"all {n * n} basis pairs, fixture={label}"))
    return checks


def _run_cy3_mirror_isometry(params, fixtures):
    checks = []
    for label in params["fixtures"]:
        X = _get_fixture(fixtures, label, cy3.CY3Descriptor)
        k = X.ring.picard_rank
        pairs, failures = cy3.isometry_certificate3(X)
        # a [X] + b [pt] times sqrt(td) must map back onto a [s0] + b [e']
        zero = (0,) * k
        span = (
            ("[X]", GradedVector.unit(3, k), cy3.MirrorClass3(1, 0, zero, zero)),
            ("[pt]", GradedVector.point(3, k), cy3.MirrorClass3(0, 1, zero, zero)),
        )
        closure = []
        for name, u, want in span:
            image = cy3.mirror_cy3(todd_multiply(u, X.ring, "sqrt_td"), X)
            if image != want:
                closure.append(f"{name}: {image}")
        checks.append(summary_check(
            f"{label}: mirror map is an isometry", pairs, failures,
            inputs=f"all {pairs} basis pairs, fixture={label}"))
        checks.append(summary_check(
            f"{label}: sqrt(td)-span of [X],[pt] maps onto section/fibre lattice",
            2, closure, inputs=f"[X] and [pt], fixture={label}"))
    return checks


# chi values computed by hand from the cubic and c2 data, frozen here.
EXPECTED_CHI = {
    "quintic": (((1,), 5), ((2,), 15), ((3,), 35)),
    "bicubic": (((1, 0), 3), ((0, 1), 3), ((1, 1), 9), ((2, 1), 18), ((2, 2), 36)),
}


def _run_cy3_quantization(params, fixtures):
    checks = []
    for label in params["fixtures"]:
        X = _get_fixture(fixtures, label, cy3.CY3Descriptor)
        k = X.ring.picard_rank
        chi_triv = cy3.chi_bundle3(GradedVector.unit(3, k), X)
        checks.append(
            Check(
                name=f"{label}: structure sheaf has chi 0",
                ok=(chi_triv == 0),
                expected="0",
                got=str(chi_triv),
            )
        )
        for L, expected in EXPECTED_CHI.get(label, ()):
            slope = cy3.gft_s0_intersection3(L, X)
            chi = cy3.chi_bundle3(cy3.line_bundle_ch(L, X), X)
            checks.append(
                Check(
                    name=f"{label}: O({L}) section count = transform slope",
                    ok=(slope == chi == expected),
                    inputs=f"L={L}",
                    expected=str(expected),
                    got=f"slope={slope}, chi={chi}",
                )
            )
    return checks


def _run_cy3_sublattice(params, fixtures):
    checks = []
    for label in params["fixtures"]:
        X = _get_fixture(fixtures, label, cy3.CY3Descriptor)
        sub = cy3.canonical_rank3_sublattice(X)
        sym_ok = sub.gram_sym == ((0, 0, 1), (0, 0, 0), (1, 0, 0))
        exo_ok = sub.gram_exotic == ((0, 0, 1), (0, 0, 0), (-1, 0, 0))
        checks.append(
            Check(
                name=f"{label}: rank-3 span degenerates along c2",
                ok=(sym_ok and exo_ok),
                expected="sym [[0,0,1],[0,0,0],[1,0,0]]; skew [[0,0,1],[0,0,0],[-1,0,0]]",
                got=f"sym {sub.gram_sym}; skew {sub.gram_exotic}",
            )
        )
    return checks


# -------------------------------------------------------------- quant ----

def _run_quant_bs(params, fixtures):
    checks = []
    tau = complex(*params["tau"])
    levels = range(1, params["k_max"] + 1)
    models = [numeric.TorusModel(tau=tau, level=k) for k in levels]
    for k, found in zip(levels, numeric.find_bs_fibres_batch(models, tol=params["tol"])):
        exact = [float(p) for p in cy1.bs_points(k)]
        err = max(abs(a - b) for a, b in zip(found, exact)) if found else math.inf
        checks.append(
            Check(
                name=f"level {k}: marked fibres sit at j/k",
                ok=(len(found) == k and err <= params["tol"]),
                inputs=f"tau={tau}",
                expected=f"{k} fibres at multiples of 1/{k}",
                got=f"{len(found)} fibres, max deviation {err:.2e}",
                tol=f"{params['tol']:.0e}",
            )
        )
    return checks


def _run_quant_holonomy(params, fixtures):
    rng = random.Random(params["seed"])
    failures = []
    for _ in range(params["samples"]):
        k = rng.randint(1, params["k_max"])
        j = math.floor(rng.random() * k)
        mark = cy1.bs_points(k)[j]
        got = numeric.holonomy_character(numeric.TorusModel(tau=1j, level=k), float(mark))
        if abs(got - 1.0) > numeric.QUADRATURE_TOL:
            failures.append(f"k={k} t={mark}: |holonomy - 1|={abs(got - 1.0):.2e}")
    return [
        summary_check(
            "holonomy is trivial at the exact marked fibres j/k",
            params["samples"],
            failures,
            inputs=f"seed={params['seed']}, k <= {params['k_max']}",
            tol=f"{numeric.QUADRATURE_TOL:.0e}",
        )
    ]


def _run_quant_theta_rank(params, fixtures):
    checks = []
    for re_im in params["taus"]:
        tau = complex(*re_im)
        for k in range(1, params["k_max"] + 1):
            model = numeric.TorusModel(tau=tau, level=k)
            rank = numeric.theta_basis_rank(model)
            marked = len(cy1.bs_points(k))
            checks.append(
                Check(
                    name=f"tau={tau}, level {k}: theta rank equals marked-fibre count",
                    ok=(rank == k == marked),
                    expected=str(k),
                    got=f"rank={rank}, marked={marked}",
                    tol=f"{numeric.RANK_RTOL:.0e} (relative sigma)",
                )
            )
    return checks


def _run_quant_phase(params, fixtures):
    model = numeric.TorusModel(tau=1j, level=1)
    checks = []
    for r, d in ((1, 1), (2, 3), (1, 4), (5, 1)):
        curve = numeric.segment_curve((0.1, 0.2), (r, d), span=1.0, n=64)
        phases = numeric.phase_map_curve(model, curve)
        spread = float(np.std(phases))
        checks.append(
            Check(
                name=f"straight segment of slope {d}/{r} has constant phase",
                ok=(spread < 1e-12),
                inputs=f"direction=({r},{d})",
                expected="deviation < 1e-12",
                got=f"deviation {spread:.2e}",
                tol="1e-12",
            )
        )
    circle = numeric.arc_curve((0.5, 0.5), 0.2, turns=1.0, n=256)
    phases = numeric.phase_map_curve(model, circle)
    w = numeric.winding_number(phases)
    checks.append(
        Check(
            name="full circle: non-constant phase, two full turns of the det map",
            ok=(float(np.std(phases)) > 0.1 and abs(w - 2.0) < 1e-6),
            expected="winding 2",
            got=f"winding {w:.9f}",
            tol="1e-6",
        )
    )
    # endpoint stencils are second order, so the winding of an open arc
    # converges like n^-3; 1024 samples puts the error near 5e-9
    half = numeric.arc_curve((0.5, 0.5), 0.2, turns=0.5, n=1024)
    w_half = numeric.winding_number(numeric.phase_map_curve(model, half))
    checks.append(
        Check(
            name="half-turn arc: det map winds once",
            ok=(abs(w_half - 1.0) < 1e-6),
            expected="winding 1",
            got=f"winding {w_half:.9f}",
            tol="1e-6",
        )
    )
    return checks


CY3_FIXTURE_DEFAULT = ["quintic", "bicubic"]

SUITES = {
    s.name: s
    for s in (
        SuiteDef("cy1-quantization", {"k_max": 50}, _run_cy1_quantization),
        SuiteDef("cy1-mirror-isometry", {}, _run_cy1_mirror_isometry),
        SuiteDef(
            "cy1-gft-homomorphism",
            {"samples": 300, "seed": 11, "bound": 30},
            _run_cy1_gft_homomorphism,
        ),
        SuiteDef(
            "cy1-atiyah",
            {"max_index": 8, "triples": 120, "seed": 3},
            _run_cy1_atiyah,
        ),
        SuiteDef(
            "k3-quantization",
            {"l2_max": 40, "fixture": "k3-elliptic"},
            _run_k3_quantization,
        ),
        SuiteDef(
            "k3-reflections",
            {"samples": 240, "seed": 5, "fixture": "k3-reflective"},
            _run_k3_reflections,
        ),
        SuiteDef(
            "k3-mirror-transport",
            {"fixture": "k3-quartic"},
            _run_k3_mirror_transport,
        ),
        SuiteDef("k3-main-condition", {}, _run_k3_main_condition),
        SuiteDef(
            "cy3-skew",
            {"fixtures": CY3_FIXTURE_DEFAULT},
            _run_cy3_skew,
        ),
        SuiteDef(
            "cy3-mirror-isometry",
            {"fixtures": CY3_FIXTURE_DEFAULT},
            _run_cy3_mirror_isometry,
        ),
        SuiteDef(
            "cy3-quantization",
            {"fixtures": CY3_FIXTURE_DEFAULT},
            _run_cy3_quantization,
        ),
        SuiteDef(
            "cy3-sublattice",
            {"fixtures": CY3_FIXTURE_DEFAULT},
            _run_cy3_sublattice,
        ),
        SuiteDef(
            "quant-bs",
            {"k_max": 32, "tol": numeric.ROOT_TOL, "tau": [0.0, 1.0]},
            _run_quant_bs,
        ),
        SuiteDef(
            "quant-holonomy",
            {"samples": 100, "seed": 23, "k_max": 12},
            _run_quant_holonomy,
        ),
        SuiteDef(
            "quant-theta-rank",
            {"k_max": 8, "taus": [[0.0, 1.0], [0.5, 1.0], [0.0, 2.0]]},
            _run_quant_theta_rank,
        ),
        SuiteDef("quant-phase", {}, _run_quant_phase),
    )
}
