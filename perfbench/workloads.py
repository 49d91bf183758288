"""The package calls each workload makes, and the checks on their outputs.

A long-lived workload is a fixed list of operations built from the seeded
inputs; one pass runs every operation once.  Only the operations are
timed.  Checks compare each output with the closed forms in
``closed_forms`` or with properties the method must have; nothing is
compared with a stored copy of earlier results.

The package is reached only through the module object ``lm``, so a test
can swap in a recorder and see every argument the package is given.
"""

from __future__ import annotations

import io
import json
import time
from contextlib import redirect_stdout
from functools import partial
from pathlib import Path
from typing import Callable, NamedTuple

import latmirror as lm
import latmirror.cli  # noqa: F401  (makes lm.cli available)
from latmirror.numeric import QUADRATURE_TOL, ROOT_TOL

import closed_forms as cf
import inputs

BENCH_FIXTURES = Path(__file__).resolve().parent / "fixtures"
PACKAGE_FIXTURES = Path(lm.__file__).resolve().parent / "fixtures"

# theta_basis_rank does not normalise the rows of its theta matrix, so at
# tau = i, k = 32 true singular values fall under RANK_RTOL and it raises
# ConsistencyError, although the 32 level-32 theta series are independent.
# The case is kept, independent of the seed, as a counted failure.
KNOWN_FAULT_THETA = (1j, 32)

# A straight segment has one phase; the tangent differences of 1024
# samples spanning at most 4 * sqrt(2) units round at about 1e-13.
SEGMENT_TOL = 1e-9
WINDING_TOL = 1e-6


def fixture_data(label: str) -> dict:
    """Raw fixture JSON, read by the benchmark itself for the oracles."""
    for stem in (BENCH_FIXTURES, PACKAGE_FIXTURES):
        path = stem / f"{label}.json"
        if path.is_file():
            return json.loads(path.read_text())
    raise FileNotFoundError(f"no fixture file for {label}")


def load_descriptor(label: str):
    return lm.load_fixture(f"{label}.json", BENCH_FIXTURES)


class Op(NamedTuple):
    call: Callable      # no arguments; the timed package call
    check: Callable     # output -> fault message or None


class LongLivedWorkload:
    """Operations of one pass plus checks that span several outputs."""

    def __init__(self, ops: list, pass_checks: list = ()):
        self.ops = ops
        self.pass_checks = list(pass_checks)

    def run(self, ops=None) -> list:
        """Outputs of ``ops`` (default: all), an exception for each that raised."""
        outputs = []
        for op in self.ops if ops is None else ops:
            try:
                outputs.append(op.call())
            except Exception as exc:  # a failed operation is counted, not fatal
                # without its traceback, which would keep the failed call's
                # frames, arrays included, alive in a cycle until a full GC
                outputs.append(exc.with_traceback(None))
        return outputs

    def check(self, outputs: list) -> tuple[int, list]:
        """(failed operations, faults in the outputs of the others)."""
        failed, faults = 0, []
        for op, out in zip(self.ops, outputs):
            if isinstance(out, Exception):
                failed += 1
                continue
            fault = op.check(out)
            if fault:
                faults.append(fault)
        for pass_check in self.pass_checks:
            faults.extend(pass_check(outputs))
        return failed, faults

    def segments(self, target_s: float) -> list:
        """Consecutive runs of operations taking about ``target_s`` each, timed once."""
        segments, current, elapsed = [], [], 0.0
        for op in self.ops:
            start = time.perf_counter()
            self.run([op])
            elapsed += time.perf_counter() - start
            current.append(op)
            if elapsed >= target_s:
                segments.append(current)
                current, elapsed = [], 0.0
        if current:
            segments.append(current)
        return segments

    def failures(self, outputs: list) -> list:
        return sorted({type(out).__name__ for out in outputs if isinstance(out, Exception)})


# ------------------------------------------------------- exact-construct ----

def _line_chain(L, X):
    ch = lm.line_bundle_ch(L, X)
    return ch, lm.chi_bundle3(ch, X), lm.mirror_cy3(ch, X)


def _mirror_of_class(blocks, X):
    return lm.mirror_cy3(lm.GradedVector(3, blocks), X)


def _mukai_of(blocks, X):
    return lm.mukai2(lm.GradedVector(2, blocks), X)


def _atiyah_mul(a: dict, b: dict):
    return lm.AtiyahElement.from_dict(a) * lm.AtiyahElement.from_dict(b)


def _mirror_fields(m) -> tuple:
    return (m.s0, m.psi1, m.psi2, m.e)


def expect_line_chain(cubic, c2, L) -> tuple:
    ch = cf.line_bundle_ch(cubic, L)
    return ch, cf.chi_line_bundle(cubic, c2, L), cf.mirror_preimage(ch, c2)


def check_line_chain(want, out):
    ch, chi, mirror = out
    want_ch, want_chi, want_mirror = want
    if tuple(ch.blocks) != want_ch:
        return f"ch = {ch.blocks}, closed form {want_ch}"
    if chi != want_chi or want_chi.denominator != 1:
        return f"chi = {chi}, closed form {want_chi}"
    if _mirror_fields(mirror) != want_mirror:
        return f"mirror of {want_ch} = {mirror}, closed form {want_mirror}"
    return None


def check_mirror(want, out):
    return None if _mirror_fields(out) == want else f"mirror = {out}, closed form {want}"


def check_mukai(want, out):
    return None if tuple(out.blocks) == want else f"Mukai vector {out.blocks}, closed form {want}"


def check_sphere(gram, want, out):
    sphere = (out.s, out.pic, out.e)
    if sphere != want:
        return f"mirror sphere {sphere}, closed form {want}"
    square = cf.k3_sphere_square(gram, sphere)
    return None if square == -2 else f"mirror sphere {sphere} has square {square}"


def check_walk(gram, roots, x, out):
    faults = cf.walk_faults(gram, roots, x, out.vector, out.applied)
    if out.steps != len(out.applied):
        faults.append("step count differs from the applied roots")
    return f"walk from {x}: {faults}" if faults else None


def check_atiyah(want: dict, out):
    got = out.as_dict()
    return None if got == want else f"Atiyah product {got}, sl2 rule {want}"


def euler_pair_check(start: int, pairs, line_bundles, c2, cubic):
    """chi(O(L_i), O(L_j)) on the built characters equals chi(O(L_j - L_i))."""

    def check(outputs):
        faults = []
        for i, j in pairs:
            ch_i, ch_j = outputs[start + i], outputs[start + j]
            if isinstance(ch_i, Exception) or isinstance(ch_j, Exception):
                continue
            diff = tuple(b - a for a, b in zip(line_bundles[i], line_bundles[j]))
            got = cf.euler_form3(tuple(ch_i[0].blocks), tuple(ch_j[0].blocks), c2)
            if got != cf.chi_line_bundle(cubic, c2, diff):
                faults.append(f"Euler form of O({line_bundles[i]}), O({line_bundles[j]}) = {got}")
        return faults

    return check


def exact_construct(seed: int) -> LongLivedWorkload:
    data = inputs.exact_inputs(seed)
    ops, pass_checks = [], []
    for label, k in inputs.THREEFOLDS:
        raw = fixture_data(label)
        cubic, c2 = cf.nest_cubic(raw["cubic"], k), tuple(raw["c2"])
        X = load_descriptor(label)
        part = data["threefolds"][label]
        pass_checks.append(
            euler_pair_check(len(ops), part["euler_pairs"], part["line_bundles"], c2, cubic)
        )
        for L in part["line_bundles"]:
            want = expect_line_chain(cubic, c2, L)
            ops.append(Op(partial(_line_chain, L, X), partial(check_line_chain, want)))
        for blocks in part["classes"]:
            want = cf.mirror_preimage(blocks, c2)
            ops.append(Op(partial(_mirror_of_class, blocks, X), partial(check_mirror, want)))
    for label, _ in inputs.K3S:
        raw = fixture_data(label)
        gram = raw["gram"]
        roots = tuple(tuple(r) for r in raw.get("roots", ()))
        X = load_descriptor(label)
        part = data["k3s"][label]
        for blocks in part["chern"]:
            ops.append(Op(partial(_mukai_of, blocks, X), partial(check_mukai, cf.k3_mukai(blocks))))
        for L in part["divisors"]:
            ops.append(Op(partial(lm.mirror_k3, L, X), partial(check_sphere, gram, cf.k3_mirror_sphere(gram, L))))
        for x in part["walks"]:
            ops.append(Op(partial(lm.walk_to_chamber, x, roots, X), partial(check_walk, gram, roots, x)))
    for a, b in data["atiyah_products"]:
        ops.append(Op(partial(_atiyah_mul, a, b), partial(check_atiyah, cf.atiyah_product(a, b))))
    for a, b in data["atiyah_tensors"]:
        ops.append(Op(partial(lm.atiyah_tensor, a, b), partial(check_atiyah, cf.clebsch_gordan(a, b))))
    return LongLivedWorkload(ops, pass_checks)


# --------------------------------------------------------- torus-numeric ----

def _bs_fibres(tau, k):
    return lm.find_bs_fibres(lm.TorusModel(tau=tau, level=k))


def _theta_rank(tau, k):
    return lm.theta_basis_rank(lm.TorusModel(tau=tau, level=k))


def _holonomy(tau, k, t):
    return lm.holonomy_character(lm.TorusModel(tau=tau, level=k), t)


def _phases(points):
    return lm.phase_map_curve(lm.TorusModel(tau=1j, level=1), lm.ParamCurve(points))


def check_bs(k, out):
    if len(out) != k:
        return f"level {k}: {len(out)} fibres"
    err = max(abs(t - j / k) for j, t in enumerate(sorted(out)))
    return None if err <= ROOT_TOL else f"level {k}: fibre off j/k by {err:.2e}"


def check_rank(k, out):
    return None if out == k else f"level {k}: theta rank {out}"


def check_holonomy(k, t, want, out):
    err = abs(complex(out) - want)
    return None if err <= QUADRATURE_TOL else f"holonomy k={k} t={t}: off by {err:.2e}"


def check_segment(out):
    spread = cf.phase_spread(out)
    return None if spread <= SEGMENT_TOL else f"segment phase varies by {spread:.2e}"


def check_circle(out):
    turns = cf.winding_count(out)
    return None if abs(turns - 2.0) <= WINDING_TOL else f"circle phase winds {turns} times"


def torus_numeric(seed: int) -> LongLivedWorkload:
    data = inputs.torus_inputs(seed)
    ops = []
    for tau, k in data["bs"]:
        ops.append(Op(partial(_bs_fibres, tau, k), partial(check_bs, k)))
    for tau, k in [*data["theta"], KNOWN_FAULT_THETA]:
        ops.append(Op(partial(_theta_rank, tau, k), partial(check_rank, k)))
    points = data["holonomy"]
    want = cf.holonomy([k for _, k, _ in points], [t for _, _, t in points])
    for (tau, k, t), w in zip(points, want):
        ops.append(Op(partial(_holonomy, tau, k, t), partial(check_holonomy, k, t, complex(w))))
    for points in data["segments"]:
        ops.append(Op(partial(_phases, points), check_segment))
    for points in data["circles"]:
        ops.append(Op(partial(_phases, points), check_circle))
    return LongLivedWorkload(ops)


BUILDERS = {"exact-construct": exact_construct, "torus-numeric": torus_numeric}


# -------------------------------------------------------- verify-default ----

VERIFY_ARGV = ("verify", "--json")


def verify_pass() -> tuple[int, dict]:
    """`latmirror verify --json` on the shipped manifest: (exit code, report)."""
    buf = io.StringIO()
    with redirect_stdout(buf):
        code = lm.cli.main(list(VERIFY_ARGV))
    return code, json.loads(buf.getvalue())
