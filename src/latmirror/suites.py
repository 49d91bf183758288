"""Verification suites orchestrated by ``latmirror verify``.

Each suite recomputes one family of identities through two independent
routes and records per-check evidence.  No suite draws at random, so a
verify run is deterministic end to end.

Eight suites check a finite set whole instead of sampling it.  Six of
them prove exact identities between polynomials in the integer
coordinates of the classes.  A bilinear identity holds once it holds on
every pair of basis classes e_i, e_j (:meth:`GradedVector.basis`).  A
polynomial of degree at most d in each variable that vanishes on d + 1
points per variable is zero (Alon, "Combinatorial Nullstellensatz",
1999, Lemma 2.1), so degree 1 needs two values per variable, degree 2
the grid {-1, 0, 1}^k and degree 4 the grid {-2, ..., 2}^k:

- ``cy1-mirror-isometry``: the Euler form :func:`core.pair_exotic` against
  :func:`cy1.cycle_pairing` of the :func:`cy1.mirror_cy1` images, on all
  basis pairs;
- ``cy1-gft-homomorphism``: the transform of the cup product
  (:func:`core.cup`) of the Chern characters (r1, d1) and (r2, d2)
  against :func:`cy1.odot` of the two transforms, of degree 1 in each
  variable, on all 16 points with ranks in {1, 2} and degrees in {0, 1};
- ``k3-reflections``: for each declared root, the involution on the basis
  and the isometry of the Gram pairing on all basis pairs, through
  ``cy2._reflect_columns`` (the kernel of :func:`cy2.reflect_minus2`);
  its walk, which is not polynomial, is described below;
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

The other two cover a finite domain whole:

- ``cy1-atiyah``: rank and commutativity on the table of all products
  F_a (x) F_b (:func:`cy1.atiyah_tensor`), a, b <= ``max_index``, and
  associativity (F_a F_b) F_c = F_a (F_b F_c) on every triple, with the
  inner products read from that table;
- ``quant-holonomy``: the holonomy at every mark j/k of
  :func:`cy1.bs_points`, k <= ``k_max``.

The walk of ``k3-reflections`` (:func:`cy2.walk_batch`) starts from
every point of {-2, ..., 2}^k and is checked on a second route: the
roots it records are replayed from the start through
``cy2._reflect_columns``, and the replay must equal the walk's end,
which must keep the start's Gram square and pair nonnegatively with
every root.  What the box proves depends on the roots.  When they are
the simple roots of a finite Weyl group, the closed chamber is a
fundamental domain (Humphreys, "Reflection Groups and Coxeter Groups",
1990, 1.12) and every walk ends.  On ``k3-reflective`` the two roots are
orthogonal, the group is Z/2 x Z/2, and the walk from x reflects once in
each root d with x.d < 0, so its path depends only on the signs of the
two pairings; the box meets all nine sign patterns, so every path the
walk can take is walked and replayed.  When the group is infinite (a
reflective hyperbolic lattice; Vinberg, 1972) the box proves nothing
about the points outside it, whose walks may be longer than any from the
box; ``cy2.MAX_WALK_STEPS`` turns a walk that does not end into an
error.

Each check's ``inputs`` says what it covers; a failure names the basis
pair or grid point (:func:`core.isometry_failures`).  No mirror map here
can raise: a loaded K3 fixture has an even Gram lattice, and the preimage
of td u is u sqrt(td), whose rank and divisor block are those of u.  The
hand-written forms pair the images exactly: the K3 images in ints, the
others in Fractions.

The ``quant-*`` runners import `numeric` (and ``quant-phase`` numpy) when
they run, so that importing this module, as parsing a manifest does,
loads only the exact layer.  :func:`manifest.run_verify` loads the float
layer before it times the first suite.
"""

from __future__ import annotations

import itertools
import math
from functools import partial
from operator import mul
from typing import Callable, NamedTuple

from . import cy1, cy2, cy3
from .core import (
    GradedVector,
    RingDescriptor,
    cup,
    isometry_failures,
    pair_exotic,
    pair_form,
    todd_multiply,
)
from .report import Check, summary_check
from .shared import ROOT_TOL


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
    # the transform of L^k meets the section in as many points as L^k has
    # sections: chi(O, L^k) by Riemann-Roch, the Euler form on the curve
    ring = RingDescriptor.elliptic()
    structure = GradedVector(1, (1, 0))
    checks = []
    s0 = cy1.CycleClass1(1, 0)
    for k in range(1, params["k_max"] + 1):
        ch = GradedVector(1, (1, k))
        count = cy1.intersection_count(cy1.gft_class(ch), s0)
        sections = pair_exotic(structure, ch, ring)
        checks.append(
            Check(
                name=f"level {k}: transform meets section in k points, L^k has k sections",
                ok=(count == sections == k),
                inputs=f"k={k}",
                expected=str(k),
                got=f"intersections={count}, sections={sections}",
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
    # both sides are of degree <= 1 in each of r1, d1, r2, d2, so two values
    # per variable prove the identity; the tensor class is the cup product
    # of the Chern characters (r, d), a route that shares no code with odot
    ring = RingDescriptor.elliptic()
    grid = list(itertools.product((1, 2), (0, 1)))
    failures = []
    for (r1, d1), (r2, d2) in itertools.product(grid, repeat=2):
        ch1, ch2 = GradedVector(1, (r1, d1)), GradedVector(1, (r2, d2))
        lhs = cy1.gft_class(cup(ch1, ch2, ring))
        rhs = cy1.odot(cy1.gft_class(ch1), cy1.gft_class(ch2))
        if lhs != rhs:
            failures.append(f"(r1,d1)=({r1},{d1}) (r2,d2)=({r2},{d2})")
    n = len(grid) ** 2
    return [
        summary_check(
            "transform of a tensor product is the fibrewise product",
            n,
            failures,
            inputs=f"all {n} pairs of ranks {{1, 2}} x degrees {{0, 1}}",
        )
    ]


def _run_cy1_atiyah(params, fixtures):
    top = params["max_index"]
    indices = range(1, top + 1)
    table = {(a, b): cy1.atiyah_tensor(a, b) for a, b in itertools.product(indices, repeat=2)}
    bad_pairs = []
    for (a, b), product in table.items():
        if product.dimension() != a * b:
            bad_pairs.append(f"F_{a}xF_{b} dim {product.dimension()}")
        if product != table[b, a]:
            bad_pairs.append(f"F_{a}xF_{b} not commutative")
    # (F_a F_b) F_c = F_a (F_b F_c), the inner products read from the table
    basis = {i: cy1.AtiyahElement.basis(i) for i in indices}
    assoc_failures = [
        f"({a},{b},{c})"
        for a, b, c in itertools.product(indices, repeat=3)
        if table[a, b] * basis[c] != basis[a] * table[b, c]
    ]
    unit = basis[1]
    sample = cy1.AtiyahElement.from_dict({2: 3, 5: 1})
    return [
        summary_check(
            f"indecomposable products: rank multiplicative, commutative (a,b <= {top})",
            total=top * top,
            failures=bad_pairs,
        ),
        summary_check(
            "indecomposable product is associative",
            top ** 3,
            assoc_failures,
            inputs=f"all {top ** 3} triples, indices <= {top}",
        ),
        Check(
            name="F_1 is the unit",
            ok=(unit * sample == sample and sample * unit == sample),
            expected=str(sample.terms),
            got=str((unit * sample).terms),
        ),
    ]


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


# the walks of k3-reflections start from every point of {-2, ..., 2}^k
WALK_RADIUS = 2


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
    # each walk from the box, its recorded roots replayed through the
    # kernel of reflect_minus2
    starts = _grid(k, WALK_RADIUS)
    gram_roots = [gram_d for _, gram_d in X.root_axes]
    walk = []
    for x, (end, applied) in zip(starts, cy2.walk_batch(starts, X.roots, X)):
        replay = x
        for j in applied:
            replay = tuple(cy2._reflect_columns(replay, X.roots[j], X))
        wrong = []
        if replay != end:
            wrong.append(f"replay {replay} != end {end}")
        square, start_square = gram_pair(end, end), gram_pair(x, x)
        if square != start_square:
            wrong.append(f"square {square} != {start_square}")
        if any(sum(map(mul, end, g)) < 0 for g in gram_roots):
            wrong.append("stopped outside the chamber")
        if wrong:
            walk.append(f"x={x}: {'; '.join(wrong)}")
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
            "bounded walk reaches the nonnegative chamber", len(starts), walk,
            inputs=f"all {len(starts)} points of {{-{WALK_RADIUS}, ..., {WALK_RADIUS}}}^{k}, "
            f"walked and replayed, {note}",
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
            # the slope is (2 L^3 + c2.L)/12 from the cubic and c2, chi the top
            # block of ch(O(L)) * td: only chi takes a Todd product
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
    from . import numeric

    checks = []
    tau = complex(*params["tau"])
    levels = range(1, params["k_max"] + 1)
    models = [numeric.TorusModel(tau=tau, level=k) for k in levels]
    for k, found in zip(levels, numeric.find_bs_fibres_batch(models)):
        exact = [float(p) for p in cy1.bs_points(k)]
        err = max(abs(a - b) for a, b in zip(found, exact)) if found else math.inf
        checks.append(
            Check(
                name=f"level {k}: marked fibres sit at j/k",
                ok=(len(found) == k and err <= ROOT_TOL),
                inputs=f"tau={tau}",
                expected=f"{k} fibres at multiples of 1/{k}",
                got=f"{len(found)} fibres, max deviation {err:.2e}",
                tol=f"{ROOT_TOL:.0e}",
            )
        )
    return checks


def _run_quant_holonomy(params, fixtures):
    from . import numeric

    if (k_max := params["k_max"]) > numeric.MAX_HOLONOMY_LEVEL:
        raise SuiteInputError(
            f"k_max {k_max} is above the holonomy's largest level {numeric.MAX_HOLONOMY_LEVEL}"
        )
    failures = []
    n = 0
    for k in range(1, k_max + 1):
        model = numeric.TorusModel(tau=1j, level=k)
        for mark in cy1.bs_points(k):
            n += 1
            got = numeric.holonomy_character(model, float(mark))
            if abs(got - 1.0) > numeric.QUADRATURE_TOL:
                failures.append(f"k={k} t={mark}: |holonomy - 1|={abs(got - 1.0):.2e}")
    return [
        summary_check(
            "holonomy is trivial at the exact marked fibres j/k",
            n,
            failures,
            inputs=f"all {n} marks j/k, k <= {k_max}",
            tol=f"{numeric.QUADRATURE_TOL:.0e}",
        )
    ]


def _run_quant_theta_rank(params, fixtures):
    from . import numeric

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
    import numpy as np

    from . import numeric

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
        SuiteDef("cy1-gft-homomorphism", {}, _run_cy1_gft_homomorphism),
        SuiteDef("cy1-atiyah", {"max_index": 8}, _run_cy1_atiyah),
        SuiteDef(
            "k3-quantization",
            {"l2_max": 40, "fixture": "k3-elliptic"},
            _run_k3_quantization,
        ),
        SuiteDef(
            "k3-reflections",
            {"fixture": "k3-reflective"},
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
            {"k_max": 32, "tau": [0.0, 1.0]},
            _run_quant_bs,
        ),
        SuiteDef("quant-holonomy", {"k_max": 12}, _run_quant_holonomy),
        SuiteDef(
            "quant-theta-rank",
            {"k_max": 8, "taus": [[0.0, 1.0], [0.5, 1.0], [0.0, 2.0]]},
            _run_quant_theta_rank,
        ),
        SuiteDef("quant-phase", {}, _run_quant_phase),
    )
}
