"""Verification suites orchestrated by ``latmirror verify``.

Each suite recomputes one family of identities through two independent
routes and records per-check evidence.  Random sweeps are seeded from the
manifest, so a verify run is deterministic end to end.

The seeded sweeps below draw all their samples first, with the same
``random.Random`` calls in the same order as one sample at a time would,
and then evaluate them as one batch in exact Python-int arithmetic on
numpy object arrays, on the ring's compiled forms
(:meth:`IntegerMatrix.pair_columns`, :meth:`IntegerMatrix.apply_columns`):

- ``cy1-mirror-isometry``: the compiled Euler form against the
  hand-written skew form :func:`cy1.cycle_pairing` of the images;
- ``k3-reflections``: involution and isometry of the reflections
  (``cy2._reflect_columns``, the kernel of :func:`cy2.reflect_minus2`),
  and the end points of one masked walk (:func:`cy2.walk_batch`) paired
  with every root again;
- ``k3-mirror-transport``: the compiled Euler form of the Chern characters
  against the hand-written mirror form :func:`cy2.mirror_pairing_k3` of
  the images from :func:`cy2.mirror_k3_columns`;
- ``cy3-skew``: the compiled Euler form, against zero and against itself
  transposed;
- ``cy3-mirror-isometry``: the compiled Euler form against the
  hand-written skew form :func:`cy3.mirror_pairing3` of the images from
  :func:`cy3.mirror_cy3_columns`, and the closure of the sqrt(td)-span of
  [X] and [pt] through the compiled sqrt(td) product and the same mirror
  map.

``k3-quantization`` mirrors its fixed list of classes as one batch too.
The u and the v classes of a sweep are mapped as two batches.  No mirror
map in these sweeps can raise: a loaded K3 fixture has an even Gram
lattice, so every L^2 is even, and the preimage of td u is u sqrt(td),
whose rank and divisor block are those of u.  The hand-written forms work
elementwise on the arrays; none is folded into a compiled form.  A failing
sample's detail is rendered from the values the batch already holds, as
Fractions over the batch's denominator, so a report reads the same as one
made sample by sample through the per-vector functions
(:func:`cy1.mirror_cy1`, :func:`cy2.mirror_k3`,
:func:`cy3.mirror_isometry_check3`, :func:`cy3.mirror_cy3`), which the
tests keep as references.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

import numpy as np

from . import cy1, cy2, cy3, numeric
from .core import GradedVector, RingDescriptor
from .report import Check, summary_check


class SuiteInputError(RuntimeError):
    """A suite could not run (missing fixture or bad parameter)."""


@dataclass(frozen=True)
class SuiteDef:
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


def _blocks(dim: int, nums) -> tuple:
    """The Fraction blocks of one sampled class from its integer coordinates."""
    return GradedVector._of_numerators(dim, nums).blocks


def _rand_tuple(rng: random.Random, k: int, bound: int) -> tuple:
    return tuple(rng.randint(-bound, bound) for _ in range(k))


def _rand_pairs(rng: random.Random, size: int, bound: int, samples: int) -> tuple:
    """Seeded pairs (u, v) of integer vectors: the u and the v columns.

    Each is an object array of shape (size, samples); row j is coordinate j
    and column i is sample i.  One ``randint`` per coordinate, drawn u then
    v, pair after pair.
    """
    draws = [
        rng.randint(-bound, bound) for _ in range(samples) for _ in range(2 * size)
    ]
    pairs = np.array(draws, dtype=object).reshape(-1, 2, size)
    return pairs[:, 0].T, pairs[:, 1].T


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
    rng = random.Random(params["seed"])
    ring = RingDescriptor.elliptic()
    us, vs = _rand_pairs(rng, 2, params["bound"], params["samples"])
    # images pair by the hand-written skew form, classes by the compiled Euler form
    lhs = cy1.cycle_pairing(cy1.CycleClass1(*us), cy1.CycleClass1(*vs))
    exotic = ring._forms.exotic
    rhs = exotic.pair_columns(us, vs)
    failures = [
        f"u={_blocks(1, us[:, i])} v={_blocks(1, vs[:, i])}: "
        f"{lhs[i]} != {Fraction(rhs[i], exotic.den)}"
        for i in np.flatnonzero(lhs * exotic.den != rhs)
    ]
    return [
        summary_check(
            "mirror pairing equals Euler pairing on the curve",
            params["samples"],
            failures,
            inputs=f"seed={params['seed']}, bound={params['bound']}",
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
    l2s = range(0, params["l2_max"] + 1, 2)
    ls = [(1, l2 // 2 + 1) for l2 in l2s]  # realizes L^2 = l2 in the section/fibre Gram
    # every class is counted (and its coordinates checked) before any is mirrored
    reps = [cy2.verify_quantization_k3(L, X) for L in ls]
    if not ls:
        return []  # nothing to count or mirror
    mirrors = cy2.mirror_k3_columns(np.array(ls, dtype=object).T, X)
    spheres = cy2.mirror_pairing_k3(mirrors, mirrors, X)
    checks = []
    for l2, L, rep, sphere in zip(l2s, ls, reps, spheres):
        expected = Fraction(l2, 2) + 2
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
    rng = random.Random(params["seed"])
    k = X.ring.picard_rank
    n = params["samples"]
    xs, ys, picks = [], [], []
    for _ in range(n):
        xs.append(_rand_tuple(rng, k, 9))
        ys.append(_rand_tuple(rng, k, 9))
        picks.append(rng.randrange(len(X.roots)))
    x_rows = np.array(xs, dtype=object).reshape(n, k)
    x_cols = x_rows.T
    y_cols = np.array(ys, dtype=object).reshape(n, k).T
    roots = np.array(X.roots, dtype=object)
    deltas = roots[picks].T
    gram = X.ring._gram_form
    rx = cy2._reflect_columns(x_cols, deltas, X)
    rrx = cy2._reflect_columns(rx, deltas, X)
    ry = cy2._reflect_columns(y_cols, deltas, X)
    not_invol = np.any(np.array(rrx, dtype=object) != x_cols, axis=0)
    not_isome = gram.pair_columns(rx, ry) != gram.pair_columns(x_cols, y_cols)
    ends, _ = cy2.walk_batch(x_rows, X.roots, X)
    # every end point against every root: (samples, 1) by (1, roots)
    outside = gram.pair_columns(ends.T[:, :, None], roots.T[:, None, :]) < 0
    invol = [f"x={xs[i]} delta={X.roots[picks[i]]}" for i in np.flatnonzero(not_invol)]
    isome = [
        f"x={xs[i]} y={ys[i]} delta={X.roots[picks[i]]}" for i in np.flatnonzero(not_isome)
    ]
    walk = [
        f"x={xs[i]} stopped outside the chamber" for i in np.flatnonzero(outside.any(axis=1))
    ]
    seed_note = f"seed={params['seed']}, fixture={X.label}"
    return [
        summary_check("reflection is an involution", n, invol, inputs=seed_note),
        summary_check("reflection preserves the Gram pairing", n, isome, inputs=seed_note),
        summary_check("bounded walk reaches the nonnegative chamber", n, walk, inputs=seed_note),
    ]


def _run_k3_mirror_transport(params, fixtures):
    X = _get_fixture(fixtures, params["fixture"], cy2.K3Descriptor)
    rng = random.Random(params["seed"])
    k = X.ring.picard_rank
    n = params["samples"]
    us, vs = _rand_pairs(rng, k, params["bound"], n)
    # images pair by the hand-written mirror form, Chern characters by the
    # compiled Euler form
    m1, m2 = cy2.mirror_k3_columns(us, X), cy2.mirror_k3_columns(vs, X)
    lhs = cy2.mirror_pairing_k3(m1, m2, X)
    sphere = cy2.mirror_pairing_k3(m1, m1, X)
    # Chern characters (1, L, L^2/2); every square is even past the mirror map
    gram = X.ring._gram_form
    ch1, ch2 = ([1 + 0 * ls[0], *ls, gram.pair_columns(ls, ls) // 2] for ls in (us, vs))
    exotic = X.ring._forms.exotic
    rhs = -exotic.pair_columns(ch1, ch2)
    failures = [
        f"L1={tuple(us[:, i])} L2={tuple(vs[:, i])}: "
        f"{lhs[i]} != {Fraction(rhs[i], exotic.den)}"
        for i in np.flatnonzero(lhs * exotic.den != rhs)
    ]
    spheres = [f"L={tuple(us[:, i])}" for i in np.flatnonzero(sphere != -2)]
    note = f"seed={params['seed']}, fixture={X.label}"
    return [
        summary_check(
            "mirror pairing transports the Euler pairing (orientation-reversed)",
            n, failures, inputs=note,
        ),
        summary_check("every mirror image is a (-2)-sphere class", n, spheres, inputs=note),
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
        rng = random.Random(params["seed"])
        k = X.ring.picard_rank
        n = params["samples"]
        us, vs = _rand_pairs(rng, 2 * k + 2, params["bound"], n)
        exotic = X.ring._forms.exotic
        self_pairing = exotic.pair_columns(us, us)
        skew_defect = exotic.pair_columns(us, vs) + exotic.pair_columns(vs, us)
        diag = [f"u={_blocks(3, us[:, i])}" for i in np.flatnonzero(self_pairing != 0)]
        anti = [
            f"u={_blocks(3, us[:, i])} v={_blocks(3, vs[:, i])}"
            for i in np.flatnonzero(skew_defect != 0)
        ]
        note = f"seed={params['seed']}, fixture={label}"
        checks.append(summary_check(
            f"{label}: self-pairing vanishes (virtual dimension 0)", n, diag, inputs=note))
        checks.append(summary_check(
            f"{label}: Euler pairing is antisymmetric", n, anti, inputs=note))
    return checks


def _mirror_class3(m: cy3.MirrorClass3, den: int, i: int) -> cy3.MirrorClass3:
    """Sample i of a batch of images with numerators over ``den``, as Fractions."""
    return cy3.MirrorClass3(
        s0=Fraction(m.s0[i], den),
        e=Fraction(m.e[i], den),
        psi1=tuple(Fraction(x[i], den) for x in m.psi1),
        psi2=tuple(Fraction(x[i], den) for x in m.psi2),
    )


def _run_cy3_mirror_isometry(params, fixtures):
    checks = []
    for label in params["fixtures"]:
        X = _get_fixture(fixtures, label, cy3.CY3Descriptor)
        rng = random.Random(params["seed"])
        k = X.ring.picard_rank
        us, vs = _rand_pairs(rng, 2 * k + 2, params["bound"], params["samples"])
        # classes go through td, then the mirror map; the images pair by the
        # hand-written skew form, the classes by the compiled Euler form
        forms = X.ring._forms
        td, exotic = forms.products["td"], forms.exotic
        mu, den = cy3.mirror_cy3_columns(td.apply_columns(us), td.den, X)
        mv, _ = cy3.mirror_cy3_columns(td.apply_columns(vs), td.den, X)
        lhs = cy3.mirror_pairing3(mu, mv)
        rhs = exotic.pair_columns(us, vs)
        failures = [
            f"u={_blocks(3, us[:, i])} v={_blocks(3, vs[:, i])}: "
            f"{Fraction(lhs[i], den * den)} != {Fraction(rhs[i], exotic.den)}"
            for i in np.flatnonzero(lhs * exotic.den != rhs * den * den)
        ]
        # a [X] + b [pt] times sqrt(td) must map back onto a [s0] + b [e']
        ab = np.array([rng.randint(-20, 20) for _ in range(200)], dtype=object)
        a, b = ab[0::2], ab[1::2]
        zero = 0 * a
        sqrt_td = forms.products["sqrt_td"]
        span = sqrt_td.apply_columns([a, *(zero,) * (2 * k), b])
        spanned, den = cy3.mirror_cy3_columns(span, sqrt_td.den, X)
        off = (spanned.s0 != a * den) | (spanned.e != b * den)
        for x in (*spanned.psi1, *spanned.psi2):
            off = off | (x != 0)
        closure = [
            f"a={a[i]} b={b[i]}: {_mirror_class3(spanned, den, i)}" for i in np.flatnonzero(off)
        ]
        note = f"seed={params['seed']}, fixture={label}"
        checks.append(summary_check(
            f"{label}: mirror map is an isometry", params["samples"], failures, inputs=note))
        checks.append(summary_check(
            f"{label}: sqrt(td)-span of [X],[pt] maps onto section/fibre lattice",
            100, closure, inputs=note))
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
    for k in range(1, params["k_max"] + 1):
        model = numeric.TorusModel(tau=tau, level=k)
        found = numeric.find_bs_fibres(model, tol=params["tol"])
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
        SuiteDef(
            "cy1-mirror-isometry",
            {"samples": 1000, "seed": 7, "bound": 50},
            _run_cy1_mirror_isometry,
        ),
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
            {"samples": 240, "seed": 13, "fixture": "k3-quartic", "bound": 9},
            _run_k3_mirror_transport,
        ),
        SuiteDef("k3-main-condition", {}, _run_k3_main_condition),
        SuiteDef(
            "cy3-skew",
            {"samples": 1000, "seed": 17, "bound": 30, "fixtures": CY3_FIXTURE_DEFAULT},
            _run_cy3_skew,
        ),
        SuiteDef(
            "cy3-mirror-isometry",
            {"samples": 1000, "seed": 19, "bound": 30, "fixtures": CY3_FIXTURE_DEFAULT},
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
