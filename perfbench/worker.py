"""Child processes of the benchmark; each prints one JSON line on stdout.

    worker.py setup <workload>          cold start: import latmirror, prepare inputs
    worker.py verify-pass [<dump>]      one `latmirror verify --json`, with its cold import;
                                        profiled if a dump path is given
    worker.py serve <workload> <seed>   warm up, then run one timed pass per "pass" line on stdin
    worker.py trace <workload> <seed> <dump>   profiled cold import and set-up, then one
                                        untraced and one profiled pass
    worker.py primitives                per-call timings of primitives, set-up steps and suites
    worker.py import-cli                time to import latmirror.cli

``run.py`` starts these with ``src`` on PYTHONPATH.  Only ``os``, ``sys``
and ``time``, which the interpreter has loaded at start, are imported
before the set-up timer starts, so set-up time covers every import the
package needs.
"""

import os
import sys
import time

# Work between two reference-kernel calls in a long-lived pass.  On a
# shared host the CPU's speed can switch within a second; segments about as
# long as one kernel call (~60 ms) let the kernel see the speed the work
# beside it saw.
SEGMENT_S = 0.06

# The fixtures exact-construct loads (inputs.THREEFOLDS and inputs.K3S),
# named here so that its set-up imports nothing but the package.
EXACT_FIXTURES = (
    "quintic", "bicubic", "p1x4_2222", "k3_quartic", "k3_elliptic", "k3_reflective",
)
BENCH_FIXTURES = os.path.join(os.path.dirname(os.path.abspath(__file__)), "fixtures")


def _setup(workload: str) -> float:
    start = time.perf_counter()
    import latmirror

    if workload == "verify-default":
        manifest = latmirror.parse_manifest(latmirror.DEFAULT_MANIFEST)
        for name in manifest.fixtures:
            latmirror.load_fixture(name, manifest.base)
    elif workload == "exact-construct":
        for label in EXACT_FIXTURES:
            latmirror.load_fixture(f"{label}.json", BENCH_FIXTURES)
    return time.perf_counter() - start


def _emit(payload: dict) -> None:
    import json

    print(json.dumps(payload), flush=True)


def _maxrss_kb() -> int:
    import resource

    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


def _verify_pass(dump: str | None) -> None:
    import cProfile

    profile = cProfile.Profile() if dump else None
    start = time.perf_counter()
    if profile:
        profile.enable()
    import workloads  # the cold import of the package is part of the pass

    code, report = workloads.verify_pass()
    if profile:
        profile.disable()
    pass_s = time.perf_counter() - start
    payload = {"exit": code, "report": report, "pass_s": pass_s, "maxrss_kb": _maxrss_kb()}
    if profile:
        import layers

        payload["layers"] = layers.profile_metrics(profile, dump)
    _emit(payload)


def _timed_pass(workload, segments, kernel_seconds) -> dict:
    """One pass, a reference-kernel call before and after every segment.

    ``wall_ref`` sums each segment's time divided by the mean of the two
    kernel calls around it, so the kernel samples the host at the moments
    the pass runs.
    """
    outputs, refs = [], [kernel_seconds()]
    pass_s = wall_ref = 0.0
    for segment in segments:
        start = time.perf_counter()
        outputs.extend(workload.run(segment))
        elapsed = time.perf_counter() - start
        refs.append(kernel_seconds())
        pass_s += elapsed
        wall_ref += elapsed / ((refs[-2] + refs[-1]) / 2)
    failed, faults = workload.check(outputs)
    return {
        "pass_s": pass_s,
        "wall_ref": wall_ref,
        "ref_s": sum(refs) / len(refs),
        "attempted": len(workload.ops),
        "failed": failed,
        "failures": workload.failures(outputs),
        "faults": faults[:5],
        "fault_count": len(faults),
    }


def _serve(name: str, seed: int) -> None:
    import refkernel
    import workloads

    workload = workloads.BUILDERS[name](seed)
    segments = workload.segments(SEGMENT_S)  # also the warm-up pass
    refkernel.reference_kernel()
    _emit({"ready": True, "ops": len(workload.ops), "segments": len(segments)})
    for line in sys.stdin:
        command = line.strip()
        if command == "pass":
            _emit(_timed_pass(workload, segments, refkernel.reference_seconds))
        elif command == "quit":
            break
        else:
            raise SystemExit(f"unknown command {command!r}")
    _emit({"maxrss_kb": _maxrss_kb()})


def _trace(name: str, seed: int, dump: str) -> None:
    import cProfile

    profile = cProfile.Profile()
    profile.enable()
    _setup(name)
    import latmirror.cli  # noqa: F401  (every layer is imported, as in a verify pass)

    profile.disable()
    import layers
    import workloads

    workload = workloads.BUILDERS[name](seed)
    workload.run()
    start = time.perf_counter()
    plain = workload.run()
    untraced_s = time.perf_counter() - start
    start = time.perf_counter()
    profile.enable()
    traced = workload.run()
    profile.disable()
    traced_s = time.perf_counter() - start
    results = [workload.check(outputs) for outputs in (plain, traced)]
    _emit({
        "untraced_s": untraced_s,
        "traced_s": traced_s,
        "attempted": 2 * len(workload.ops),
        "failed": sum(failed for failed, _ in results),
        "failures": workload.failures(traced),
        "faults": [f for _, faults in results for f in faults][:5],
        "fault_count": sum(len(faults) for _, faults in results),
        "layers": layers.profile_metrics(profile, dump),
    })


def _primitives() -> None:
    from fractions import Fraction

    import latmirror as lm

    import layers
    import workloads

    us, ms = 1e6, 1e3
    out = {}
    manifest = lm.parse_manifest(lm.DEFAULT_MANIFEST)
    # first, so that the suites run as they do early in a fresh process
    result = lm.run_verify(manifest)
    for report in result.reports:
        if report.suite != "fixtures":
            out[f"suite.{report.suite}_s"] = report.duration_s
    bicubic = workloads.load_descriptor("bicubic")
    rank4 = workloads.load_descriptor("p1x4_2222")
    k3_elliptic = workloads.load_descriptor("k3_elliptic")
    k3_reflective = workloads.load_descriptor("k3_reflective")
    blocks3 = (1, (1, -2), (Fraction(5, 2), 3), Fraction(5, 6))
    u3 = lm.GradedVector(3, blocks3)
    v3 = lm.GradedVector(3, (-2, (3, 1), (4, Fraction(-7, 2)), 9))
    u2 = lm.GradedVector(2, (1, (2, -1), Fraction(3, 2)))
    v2 = lm.GradedVector(2, (-1, (1, 3), 4))
    u1, v1 = lm.GradedVector(1, (2, -3)), lm.GradedVector(1, (5, 7))
    elliptic = lm.RingDescriptor.elliptic()
    ch3 = lm.line_bundle_ch((1, 2), bicubic)
    a = lm.AtiyahElement.from_dict({2: 3, 5: 1})
    b = lm.AtiyahElement.from_dict({3: 2, 4: -1})
    roots = k3_reflective.roots
    circle = lm.arc_curve((0.5, 0.5), 0.2, turns=1.0, n=1024)
    unit_model = lm.TorusModel(tau=1j, level=1)
    primitives = {
        "core.graded_vector3_us": (us, lambda: lm.GradedVector(3, blocks3)),
        "core.cup1_us": (us, lambda: lm.cup(u1, v1, elliptic)),
        "core.cup2_us": (us, lambda: lm.cup(u2, v2, k3_elliptic.ring)),
        "core.cup3_us": (us, lambda: lm.cup(u3, v3, bicubic.ring)),
        "core.pair_exotic3_us": (us, lambda: lm.pair_exotic(u3, v3, bicubic.ring)),
        "cy3.todd_us": (us, lambda: bicubic.todd),
        "cy3.line_bundle_ch4_us": (us, lambda: lm.line_bundle_ch((1, -2, 3, 1), rank4)),
        "cy3.mirror_cy3_us": (us, lambda: lm.mirror_cy3(ch3, bicubic)),
        "cy2.walk_to_chamber_us": (us, lambda: lm.walk_to_chamber((1, 3, 4), roots, k3_reflective)),
        "cy1.atiyah_mul_us": (us, lambda: a * b),
        "numeric.holonomy_character_us": (
            us, lambda: lm.holonomy_character(lm.TorusModel(tau=1j, level=12), 0.37)),
        "numeric.find_bs_fibres32_ms": (
            ms, lambda: lm.find_bs_fibres(lm.TorusModel(tau=1j, level=32))),
        "numeric.theta_basis_rank8_ms": (
            ms, lambda: lm.theta_basis_rank(lm.TorusModel(tau=1j, level=8))),
        "numeric.phase_map_curve1024_ms": (ms, lambda: lm.phase_map_curve(unit_model, circle)),
        "manifest.parse_ms": (ms, lambda: lm.parse_manifest(lm.DEFAULT_MANIFEST)),
        "fixtures.load_ms": (
            ms, lambda: [lm.load_fixture(n, manifest.base) for n in manifest.fixtures]),
        "report.to_json_ms": (ms, result.to_json),
    }
    if set(primitives) != set(layers.PRIMITIVES):
        differ = sorted(set(primitives) ^ set(layers.PRIMITIVES))
        raise SystemExit(f"primitives differ from layers.PRIMITIVES: {differ}")
    for name in layers.PRIMITIVES:
        scale, fn = primitives[name]
        out[name] = scale * layers.seconds_per_call(fn)
    _emit({"primitives": out})


def _import_cli() -> None:
    start = time.perf_counter()
    import latmirror.cli  # noqa: F401

    _emit({"import_s": time.perf_counter() - start})


def main(argv: list) -> None:
    mode = argv[0]
    if mode == "setup":
        elapsed = _setup(argv[1])
        _emit({"setup_s": elapsed, "maxrss_kb": _maxrss_kb()})
    elif mode == "verify-pass":
        _verify_pass(argv[1] if len(argv) > 1 else None)
    elif mode == "serve":
        _serve(argv[1], int(argv[2]))
    elif mode == "trace":
        _trace(argv[1], int(argv[2]), argv[3])
    elif mode == "primitives":
        _primitives()
    elif mode == "import-cli":
        _import_cli()
    else:
        raise SystemExit(f"unknown worker mode {mode!r}")


if __name__ == "__main__":
    main(sys.argv[1:])
