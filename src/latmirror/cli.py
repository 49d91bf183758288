"""Command line front end.

Grammar: ``latmirror <cy1|cy2|cy3|quant|verify> <verb> [flags]``.

Exact rationals are written ``p/q`` everywhere (flags and JSON).  Graded
vectors are written blockwise with ``:`` between blocks and ``,`` between
coordinates, e.g. ``1:1,0:3/2,0:1/2`` for a rank-2 threefold.  Every
command takes ``--json`` for machine-readable output.

Exit codes: 0 all checks pass, 1 a verification failed, 2 usage or parse
error (bad flags, malformed manifest or fixture).

Only the ``quant`` and ``verify`` handlers import `numeric` and `manifest`,
so the exact families run without loading numpy.
"""

from __future__ import annotations

import argparse
import json
import re
import sys
import warnings

from . import cy1, cy2, cy3
from .core import GradedVector, LatticeError, RingDescriptor, format_rational, parse_rational
from .fixtures import FixtureError, load_cy3_fixture, load_k3_fixture, read_json
from .shared import DEFAULT_MANIFEST, ROOT_TOL, ConsistencyError


def _parse_int_pair(text: str) -> tuple[int, int]:
    parts = text.split(",")
    if len(parts) != 2:
        raise LatticeError(f"expected 'a,b', got {text!r}")
    return int(parts[0]), int(parts[1])


def _parse_int_tuple(text: str) -> tuple[int, ...]:
    return tuple(int(x) for x in text.split(","))


def _parse_blocks(text: str, dim: int) -> GradedVector:
    blocks = text.split(":")
    if len(blocks) != dim + 1:
        raise LatticeError(
            f"expected {dim + 1} ':'-separated blocks for dim {dim}, got {len(blocks)}"
        )
    out: list = [parse_rational(blocks[0])]
    for mid in blocks[1:-1]:
        out.append(tuple(parse_rational(x) for x in mid.split(",")))
    out.append(parse_rational(blocks[-1]))
    return GradedVector(dim, tuple(out))


def _fmt_blocks(vec: GradedVector) -> str:
    # inverse of _parse_blocks: '1:1:1' for the quartic Mukai vector of O
    parts = []
    for block in vec.blocks:
        if isinstance(block, tuple):
            parts.append(",".join(format_rational(x) for x in block))
        else:
            parts.append(format_rational(block))
    return ":".join(parts)


# ------------------------------------------------------------ handlers ----

def _h_cy1_intersect(args):
    a = cy1.CycleClass1(*_parse_int_pair(args.a))
    b = cy1.CycleClass1(*_parse_int_pair(args.b))
    n = cy1.intersection_count(a, b)
    return 0, {"a": [a.s0, a.e], "b": [b.s0, b.e], "count": n}, f"{n}"


def _h_cy1_gft(args):
    c = cy1.gft_class(cy1.BundleClass1(args.rank, args.deg))
    slope, mult = cy1.decompose_primitive(c)
    return (
        0,
        {"class": [c.s0, c.e], "slope": str(slope), "multiplicity": mult},
        f"[{c.s0}*s0 + {c.e}*e'], slope {slope}, multiplicity {mult}",
    )


def _h_cy1_odot(args):
    a = cy1.CycleClass1(*_parse_int_pair(args.a))
    b = cy1.CycleClass1(*_parse_int_pair(args.b))
    c = cy1.odot(a, b)
    return 0, {"product": [c.s0, c.e]}, f"[{c.s0}*s0 + {c.e}*e']"


def _h_cy1_decompose(args):
    c = cy1.CycleClass1(*_parse_int_pair(args.cycle))
    slope, mult = cy1.decompose_primitive(c)
    return (
        0,
        {"slope": [slope.r, slope.d], "multiplicity": mult},
        f"slope {slope}, multiplicity {mult}",
    )


def _h_cy1_atiyah(args):
    product = cy1.atiyah_tensor(args.a, args.b)
    terms = {f"F_{idx}": mult for idx, mult in product.terms}
    text = " + ".join(
        (f"{m}*F_{i}" if m != 1 else f"F_{i}") for i, m in product.terms
    )
    return 0, {"terms": terms, "dimension": product.dimension()}, text


def _h_cy1_bs(args):
    pts = cy1.bs_points(args.level)
    return (
        0,
        {"level": args.level, "points": [format_rational(p) for p in pts]},
        " ".join(format_rational(p) for p in pts),
    )


def _h_cy1_mirror(args):
    u = _parse_blocks(args.vector, 1)
    c = cy1.mirror_cy1(u)
    return 0, {"class": [c.s0, c.e]}, f"[{c.s0}*s0 + {c.e}*e']"


def _h_cy2_rr(args):
    X = load_k3_fixture(args.fixture)
    chi = cy2.euler_pairing2(
        _parse_blocks(args.ch1, 2), _parse_blocks(args.ch2, 2), X
    )
    return 0, {"chi": format_rational(chi)}, format_rational(chi)


def _h_cy2_mukai(args):
    X = load_k3_fixture(args.fixture)
    m = cy2.mukai2(_parse_blocks(args.ch, 2), X)
    return 0, {"mukai": m.to_payload()["blocks"]}, _fmt_blocks(m)


def _h_cy2_moduli(args):
    X = load_k3_fixture(args.fixture)
    d = cy2.moduli_dim2(_parse_blocks(args.ch, 2), X)
    return 0, {"dimension": d}, str(d)


def _h_cy2_mirror(args):
    X = load_k3_fixture(args.fixture)
    m = cy2.mirror_k3(_parse_int_tuple(args.divisor), X)
    payload = {
        "s": format_rational(m.s),
        "pic": [format_rational(x) for x in m.pic],
        "e": format_rational(m.e),
        "pic_imaginary": True,  # the Picard block carries the imaginary unit
    }
    pic_txt = ",".join(format_rational(x) for x in m.pic)
    return 0, payload, f"[s] + i*({pic_txt}) + ({format_rational(m.e)})[e]"


def _h_cy2_quantize(args):
    X = load_k3_fixture(args.fixture)
    rep = cy2.verify_quantization_k3(_parse_int_tuple(args.divisor), X)
    payload = {
        "fixture": rep.label,
        "l2": format_rational(rep.l2),
        "h0": format_rational(rep.h0),
        "bs_count": format_rational(rep.bs_count),
        "ok": rep.ok,
    }
    code = 0 if rep.ok else 1
    text = f"L^2={format_rational(rep.l2)}: h0={format_rational(rep.h0)}, marked fibres={format_rational(rep.bs_count)} -> {'ok' if rep.ok else 'MISMATCH'}"
    return code, payload, text


def _h_cy2_reflect(args):
    X = load_k3_fixture(args.fixture)
    y = cy2.reflect_minus2(_parse_int_tuple(args.x), _parse_int_tuple(args.delta), X)
    return 0, {"image": [format_rational(v) for v in y]}, ",".join(format_rational(v) for v in y)


def _rank1_k3(l2: int) -> cy2.K3Descriptor:
    # synthetic descriptor <L> with L^2 = l2; enough for the counting ops
    return cy2.K3Descriptor(
        ring=RingDescriptor(dim=2, picard_rank=1, gram=((l2,),)),
        label=f"rank-1 <{l2}>",
    )


def _h_cy2_gft_l2(args):
    if args.l2 is not None:
        X = _rank1_k3(args.l2)
        L: tuple = (1,)
    else:
        if args.divisor is None:
            raise LatticeError("need either --l2 or --divisor")
        X = load_k3_fixture(args.fixture)
        L = _parse_int_tuple(args.divisor)
    g = cy2.gft_class_k3(L, X)
    payload = {
        "s0": format_rational(g.s0),
        "e": format_rational(g.e),
        "slope": format_rational(g.slope),
        "transcendental": "omega'",  # the summand that pairs to zero, by name
    }
    text = f"[s0] + ({format_rational(g.e)})[e'] + omega', slope {format_rational(g.slope)}"
    return 0, payload, text


def _h_cy2_verify_range(args):
    try:
        lo_s, hi_s = args.l2_range.split("..")
        lo, hi = int(lo_s), int(hi_s)
    except ValueError as exc:
        raise LatticeError(f"--l2-range wants 'LO..HI', got {args.l2_range!r}") from exc
    if lo % 2 or hi % 2:
        raise LatticeError("--l2-range endpoints must be even")
    if lo > hi:
        raise LatticeError(f"--l2-range {lo}..{hi} is empty")
    rows = []
    all_ok = True
    for l2 in range(lo, hi + 1, 2):
        rep = cy2.verify_quantization_k3((1,), _rank1_k3(l2))
        rows.append(
            {"l2": l2, "h0": format_rational(rep.h0), "bs_count": format_rational(rep.bs_count), "ok": rep.ok}
        )
        all_ok = all_ok and rep.ok
    lines = [
        f"L^2={r['l2']:3d}  h0={r['h0']:>3s}  marked={r['bs_count']:>3s}  "
        + ("ok" if r["ok"] else "MISMATCH")
        for r in rows
    ]
    lines.append("result: " + ("PASS" if all_ok else "FAIL"))
    return (0 if all_ok else 1), {"cases": rows, "passed": all_ok}, "\n".join(lines)


def _parse_rows(text: str) -> tuple[tuple[int, ...], ...]:
    return tuple(_parse_int_tuple(row) for row in text.split(";"))


def _h_cy2_check_h(args):
    rep = cy2.check_main_condition(
        _parse_rows(args.gram),
        _parse_int_tuple(args.e),
        _parse_int_tuple(args.s),
        tuple(_parse_int_tuple(c) for c in args.complement or ()),
    )
    rows = [{"check": name, "ok": ok, "detail": detail} for name, ok, detail in rep.checks]
    lines = [
        f"{'ok  ' if ok else 'FAIL'} {name}  ({detail})" for name, ok, detail in rep.checks
    ]
    lines.append("result: " + ("PASS" if rep.passed else "FAIL"))
    return (0 if rep.passed else 1), {"checks": rows, "passed": rep.passed}, "\n".join(lines)


def _h_cy3_verify_isometry(args):
    X = load_cy3_fixture(args.fixture)
    pairs, failures = cy3.isometry_certificate3(X)
    ok = not failures
    payload = {"fixture": X.label, "pairs": pairs, "failures": len(failures), "passed": ok}
    return (0 if ok else 1), payload, (
        f"all {pairs} basis pairs on {X.label}: "
        + ("isometric" if ok else f"{len(failures)} FAILURES; first: {failures[0]}")
    )


def _h_cy3_chi(args):
    X = load_cy3_fixture(args.fixture)
    # a non-integral chi is reported on one stderr line, without the
    # source location that warnings.showwarning would print
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always", cy3.NonIntegralEulerWarning)
        chi = cy3.chi_bundle3(_parse_blocks(args.bundle, 3), X)
    for w in caught:
        print(f"warning: {w.message}", file=sys.stderr)
    return 0, {"chi": format_rational(chi)}, format_rational(chi)


def _h_cy3_rr(args):
    X = load_cy3_fixture(args.fixture)
    chi = cy3.euler_pairing3(
        _parse_blocks(args.ch1, 3), _parse_blocks(args.ch2, 3), X
    )
    return 0, {"chi": format_rational(chi)}, format_rational(chi)


def _h_cy3_mirror(args):
    X = load_cy3_fixture(args.fixture)
    m = cy3.mirror_cy3(_parse_blocks(args.vector, 3), X)
    payload = {
        "s0": format_rational(m.s0),
        "e": format_rational(m.e),
        "psi1": [format_rational(x) for x in m.psi1],
        "psi2": [format_rational(x) for x in m.psi2],
    }
    psi1 = ",".join(format_rational(x) for x in m.psi1)
    psi2 = ",".join(format_rational(x) for x in m.psi2)
    text = f"{format_rational(m.s0)}[s0] + ({format_rational(m.e)})[e'] + psi1({psi1}) + psi2({psi2})"
    return 0, payload, text


def _h_cy3_slope(args):
    X = load_cy3_fixture(args.fixture)
    chi = cy3.gft_s0_intersection3(_parse_int_tuple(args.divisor), X)
    return 0, {"chi": format_rational(chi)}, format_rational(chi)


def _h_cy3_sublattice(args):
    X = load_cy3_fixture(args.fixture)
    sub = cy3.canonical_rank3_sublattice(X)
    payload = {
        "basis": list(sub.basis_labels),
        "gram_sym": [[format_rational(x) for x in row] for row in sub.gram_sym],
        "gram_exotic": [[format_rational(x) for x in row] for row in sub.gram_exotic],
    }
    return 0, payload, json.dumps(payload, indent=2)


def _h_quant_bs(args):
    from . import numeric

    model = numeric.TorusModel(tau=complex(*_parse_float_pair(args.tau)), level=args.level)
    roots = numeric.find_bs_fibres(model, tol=args.tol)
    return (
        0,
        {"level": args.level, "fibres": roots},
        " ".join(f"{r:.12f}" for r in roots),
    )


def _h_quant_theta(args):
    from . import numeric

    model = numeric.TorusModel(tau=complex(*_parse_float_pair(args.tau)), level=args.level)
    rank = numeric.theta_basis_rank(model)
    return 0, {"level": args.level, "rank": rank}, str(rank)


def _h_quant_holonomy(args):
    from . import numeric

    model = numeric.TorusModel(tau=complex(*_parse_float_pair(args.tau)), level=args.level)
    val = numeric.holonomy_character(model, args.height)
    return (
        0,
        {"holonomy": [val.real, val.imag]},
        f"{val.real:+.15f} {val.imag:+.15f}i",
    )


def _h_quant_coords(args):
    from . import numeric

    model = numeric.TorusModel(tau=1j, level=args.level)
    u = numeric.special_coordinates(model, args.height)
    return 0, {"u": u}, f"{u:.15e}"


def _h_quant_phase(args):
    from . import numeric

    samples = read_json(args.curve, FixtureError, "curve file")
    if not isinstance(samples, list) or not all(
        # type(), not isinstance(): JSON true and false are not coordinates
        isinstance(p, list) and len(p) == 2 and all(type(x) in (int, float) for x in p)
        for p in samples
    ):
        raise FixtureError("curve file must hold a JSON list of [x, y] number pairs")
    curve = numeric.ParamCurve(samples, orientation=args.orientation)
    model = numeric.TorusModel(tau=1j, level=1)
    phases = numeric.phase_map_curve(model, curve)
    w = numeric.winding_number(phases)
    import numpy as np

    spread = float(np.std(phases))
    payload = {
        "samples": len(phases),
        "winding": w,
        "deviation": spread,
        "closed": curve.is_closed,
    }
    return 0, payload, f"winding {w:.6f}, deviation {spread:.3e}"


def _h_verify(args):
    from .manifest import parse_manifest, run_verify

    manifest = parse_manifest(args.manifest)
    result = run_verify(manifest)
    lines = []
    for rep in result.reports:
        n_fail = sum(1 for c in rep.checks if not c.ok)
        lines.append(
            f"{rep.status.upper():5s} {rep.suite:24s} "
            f"{len(rep.checks):3d} checks, {n_fail} failed  ({rep.duration_s:.2f}s)"
        )
        for c in rep.checks:
            if not c.ok:
                lines.append(f"      FAIL {c.name}: got {c.got}")
    lines.append("result: " + ("PASS" if result.passed else "FAIL"))
    return result.exit_code, result.to_json(), "\n".join(lines)


def _parse_float_pair(text: str) -> tuple[float, float]:
    parts = text.split(",")
    if len(parts) != 2:
        raise LatticeError(f"expected 're,im', got {text!r}")
    return float(parts[0]), float(parts[1])


# -------------------------------------------------------------- parser ----

class _Parser(argparse.ArgumentParser):
    """Reads ``-1,2``, ``-2:1/3,0:5`` and ``-1,0;0,2`` as values, not options.

    argparse takes an argument that starts with ``-`` for a value only if
    it looks like a plain negative number; here the pairs, tuples, blocks
    and Gram rows that start with a negative number qualify as well.  Its
    subparsers are built from the same class.
    """

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = re.compile(r"^-\d[\d.,:/;-]*$|^-\d*\.\d+$")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="latmirror",
        description="Exact mirror-lattice arithmetic and its numerical verifier.",
    )
    top = parser.add_subparsers(dest="family", required=True)

    def leaf(sub, name, handler, helptext):
        p = sub.add_parser(name, help=helptext)
        p.add_argument("--json", action="store_true", help="machine-readable output")
        p.set_defaults(handler=handler)
        return p

    p_cy1 = top.add_parser("cy1", help="rank/degree lattice of the elliptic curve")
    s_cy1 = p_cy1.add_subparsers(dest="verb", required=True)
    p = leaf(s_cy1, "intersect", _h_cy1_intersect, "intersection count of two cycles")
    p.add_argument("--a", required=True, metavar="r,d")
    p.add_argument("--b", required=True, metavar="r,d")
    p = leaf(s_cy1, "gft", _h_cy1_gft, "cycle class of a transformed bundle")
    p.add_argument("--rank", type=int, required=True)
    p.add_argument("--deg", type=int, required=True)
    p = leaf(s_cy1, "odot", _h_cy1_odot, "fibrewise product of multisections")
    p.add_argument("--a", required=True, metavar="a,b")
    p.add_argument("--b", required=True, metavar="a,b")
    p = leaf(s_cy1, "decompose", _h_cy1_decompose, "primitive slope and multiplicity")
    p.add_argument("--cycle", required=True, metavar="a,b")
    p = leaf(s_cy1, "atiyah", _h_cy1_atiyah, "decompose F_a (x) F_b")
    p.add_argument("--a", type=int, required=True)
    p.add_argument("--b", type=int, required=True)
    p = leaf(s_cy1, "bs", _h_cy1_bs, "level-k marked fibre positions")
    p.add_argument("--level", type=int, required=True)
    p = leaf(s_cy1, "mirror", _h_cy1_mirror, "mirror image of an H^0+H^2 class")
    p.add_argument("--vector", required=True, metavar="u0:u1")

    p_cy2 = top.add_parser("cy2", help="K3 lattice calculus")
    s_cy2 = p_cy2.add_subparsers(dest="verb", required=True)
    for name, handler, helptext, flags in (
        ("rr", _h_cy2_rr, "Euler pairing of two Chern vectors", ("ch1", "ch2")),
        ("mukai", _h_cy2_mukai, "Mukai vector of a Chern vector", ("ch",)),
        ("moduli", _h_cy2_moduli, "expected moduli dimension", ("ch",)),
        ("mirror", _h_cy2_mirror, "mirror sphere class of a divisor", ("divisor",)),
        ("quantize", _h_cy2_quantize, "sections vs marked fibres", ("divisor",)),
    ):
        p = leaf(s_cy2, name, handler, helptext)
        p.add_argument("--fixture", default="k3_quartic")
        for f in flags:
            p.add_argument(f"--{f}", required=True)
    p = leaf(s_cy2, "gft", _h_cy2_gft_l2, "transform class of a polarising divisor")
    p.add_argument("--l2", type=int, help="self-intersection of a synthetic rank-1 class")
    p.add_argument("--divisor", help="coordinates in the fixture basis")
    p.add_argument("--fixture", default="k3_quartic")
    p = leaf(s_cy2, "verify", _h_cy2_verify_range, "sections = marked fibres over a range")
    p.add_argument("--l2-range", dest="l2_range", default="2..40", metavar="LO..HI")
    p = leaf(s_cy2, "check-H", _h_cy2_check_h, "certify a fibre/section hyperbolic pair")
    p.add_argument("--gram", required=True, metavar="a,b;c,d", help="rows ';'-separated")
    p.add_argument("--e", required=True)
    p.add_argument("--s", required=True)
    p.add_argument("--complement", action="append", metavar="VEC")
    p = leaf(s_cy2, "reflect", _h_cy2_reflect, "reflect in a (-2)-class")
    p.add_argument("--fixture", default="k3_reflective")
    p.add_argument("--x", required=True)
    p.add_argument("--delta", required=True)

    p_cy3 = top.add_parser("cy3", help="threefold lattice calculus")
    s_cy3 = p_cy3.add_subparsers(dest="verb", required=True)
    for name, handler, helptext, flags in (
        ("chi", _h_cy3_chi, "Euler characteristic of a bundle class", ("bundle",)),
        ("rr", _h_cy3_rr, "skew Euler pairing", ("ch1", "ch2")),
        ("mirror", _h_cy3_mirror, "mirror middle-cohomology class", ("vector",)),
        ("slope", _h_cy3_slope, "zero-section intersection = chi(O(L))", ("divisor",)),
        ("sublattice", _h_cy3_sublattice, "restricted rank-3 forms", ()),
    ):
        p = leaf(s_cy3, name, handler, helptext)
        p.add_argument("--fixture", default="quintic")
        for f in flags:
            p.add_argument(f"--{f}", required=True)
    p = leaf(s_cy3, "verify-isometry", _h_cy3_verify_isometry, "mirror isometry on a basis")
    p.add_argument("--fixture", default="quintic")

    p_quant = top.add_parser("quant", help="numerical torus verification")
    s_quant = p_quant.add_subparsers(dest="verb", required=True)
    p = leaf(s_quant, "bs", _h_quant_bs, "find trivial-holonomy fibres")
    p.add_argument("--level", type=int, required=True)
    p.add_argument("--tau", default="0,1", metavar="re,im")
    p.add_argument("--tol", type=float, default=ROOT_TOL)
    p = leaf(s_quant, "theta-rank", _h_quant_theta, "rank of the level-k theta space")
    p.add_argument("--level", type=int, required=True)
    p.add_argument("--tau", default="0,1", metavar="re,im")
    p = leaf(s_quant, "holonomy", _h_quant_holonomy, "fibre holonomy exp(2 pi i k t)")
    p.add_argument("--level", type=int, required=True)
    p.add_argument("--height", type=float, required=True)
    p.add_argument("--tau", default="0,1", metavar="re,im")
    p = leaf(s_quant, "coords", _h_quant_coords, "flat special coordinate u(t)")
    p.add_argument("--level", type=int, required=True)
    p.add_argument("--height", type=float, required=True)
    p = leaf(s_quant, "phase", _h_quant_phase, "phase map of a sampled curve")
    p.add_argument("--curve", required=True, help="JSON file: list of [x, y] samples")
    p.add_argument("--orientation", type=int, default=1, choices=(1, -1))

    p_verify = top.add_parser("verify", help="run the verification manifest")
    p_verify.add_argument("--manifest", default=str(DEFAULT_MANIFEST))
    p_verify.add_argument("--json", action="store_true")
    p_verify.set_defaults(handler=_h_verify)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        code, payload, text = args.handler(args)
    except ConsistencyError as exc:
        print(f"check failed: {exc}", file=sys.stderr)
        return 1
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.json:
        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        print(text)
    return code


if __name__ == "__main__":
    sys.exit(main())
