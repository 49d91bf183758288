"""Benchmark of latmirror: three workloads, end-to-end and per-layer figures.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root; the package is imported from ``src``.

With ``--trace 0`` the run times whole passes of the workload for about
``--seconds`` seconds and reports the end-to-end metrics:

* ``wall_ref``: median over passes of a pass's wall time in units of the
  reference kernel (``refkernel.py``).  The kernel runs between segments
  of the pass, about 60 ms apart for the long-lived workloads and every
  150 ms of a verify pass, which is paused for it; each segment's time is
  divided by the mean of the kernel calls just before and just after it,
  and the quotients are summed over the pass;
* ``setup_s``: median cold start (import latmirror, prepare the inputs)
  over fresh interpreters run between the passes;
* ``peak_rss_mb``: peak resident set of the process that runs the passes.

With ``--trace 1`` it instead runs one pass under cProfile, started from
the benchmark's own files, times primitives with ``timeit`` and reports the
per-layer metrics; ``--seconds`` does not apply.  Both modes check every
output and print, last, one JSON line with ``correct``, ``attempted``,
``failed`` and ``metrics``.  Full detail goes to ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import select
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import reportcheck
from layers import LAYERS, PRIMITIVES

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"

WORKLOADS = ("verify-default", "exact-construct", "torus-numeric")

END_TO_END = {"wall_ref": "ref", "setup_s": "s", "peak_rss_mb": "MB"}

PER_LAYER = (
    *(f"{layer}.{kind}" for layer in LAYERS for kind in ("self_s", "calls")),
    "fractions.new_calls",
    *PRIMITIVES,
    "cli.import_s",
    *(f"suite.{name}_s" for name in reportcheck.RULES),
    "trace.overhead_s",
)

# A run must end within 180 s; stop it well before that.
RUN_LIMIT_S = 170
CHILD_TIMEOUT_S = 120
SETUPS_PER_VERIFY_PASS = 2
# On a shared host the CPU's speed can switch within a second, so a verify
# pass, which lasts seconds, is paused every VERIFY_SEGMENT_S for one
# reference-kernel call.
VERIFY_SEGMENT_S = 0.15
IMPORT_SAMPLES = 3

# One BLAS thread: a run uses one CPU (see main), where threads only add noise.
THREAD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


class BenchError(RuntimeError):
    """The benchmark cannot produce a result."""


def unit_of(name: str) -> str:
    if name in END_TO_END:
        return END_TO_END[name]
    if name.endswith("calls"):
        return "count"
    for suffix in ("_us", "_ms", "_s"):
        if name.endswith(suffix):
            return suffix[1:]
    raise ValueError(f"no unit for metric {name}")


def child_env() -> dict:
    env = {**os.environ, **THREAD_ENV, "PYTHONHASHSEED": "0"}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (str(SRC), env.get("PYTHONPATH"))))
    return env


def worker_cmd(*args) -> list:
    return [sys.executable, str(BENCH / "worker.py"), *map(str, args)]


def run_child(*args) -> tuple[float, dict]:
    """Run one worker to its end: (wall seconds, its JSON line)."""
    start = time.perf_counter()
    proc = subprocess.run(
        worker_cmd(*args), capture_output=True, text=True, env=child_env(), cwd=ROOT,
        timeout=CHILD_TIMEOUT_S,
    )
    wall = time.perf_counter() - start
    if proc.returncode != 0:
        raise BenchError(f"worker {args} exited {proc.returncode}:\n{proc.stderr[-3000:]}")
    return wall, json.loads(proc.stdout.strip().splitlines()[-1])


def summary(values: list) -> dict:
    values = sorted(values)
    if len(values) > 1:
        q1, median, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = median = q3 = values[0]
    return {"n": len(values), "median": median, "q1": q1, "q3": q3}


class Tally:
    """Operations attempted and failed, and faults in the outputs."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.failures: set = set()
        self.faults: list = []

    def add(self, attempted: int, failed: int, faults=(), failures=()):
        self.attempted += attempted
        self.failed += failed
        self.faults.extend(faults)
        self.failures.update(failures)


# ------------------------------------------------------------ timed runs ----

def paused_pass(kernel_seconds) -> tuple[float, float, float, dict]:
    """One verify pass in a fresh interpreter, paused between segments.

    The pass runs for ``VERIFY_SEGMENT_S``, is stopped with SIGSTOP while
    the reference kernel runs once, and is continued with SIGCONT, until it
    exits.  Returns (pass seconds, wall_ref, mean kernel seconds, the
    worker's JSON line); pass seconds count only the time the pass ran, and
    wall_ref sums each segment's time divided by the mean of the kernel
    calls just before and just after it.
    """
    OUT.mkdir(exist_ok=True)
    with open(OUT / "verify-pass.out", "w+") as sink, open(OUT / "verify-pass.err", "w+") as err:
        # The first kernel call comes before the child exists, so no kernel
        # call shares the CPU with the pass, and the first segment holds
        # the interpreter's start.
        refs = [kernel_seconds()]
        pass_s = wall_ref = 0.0
        start = time.perf_counter()
        proc = subprocess.Popen(worker_cmd("verify-pass"), stdout=sink, stderr=err,
                                env=child_env(), cwd=ROOT)
        pidfd = os.pidfd_open(proc.pid)
        try:
            while True:
                exited = bool(select.select([pidfd], [], [], VERIFY_SEGMENT_S)[0])
                if not exited:
                    os.kill(proc.pid, signal.SIGSTOP)
                    state = os.waitid(os.P_PID, proc.pid, os.WSTOPPED | os.WEXITED | os.WNOWAIT)
                    exited = state.si_code != os.CLD_STOPPED
                elapsed = time.perf_counter() - start
                refs.append(kernel_seconds())
                pass_s += elapsed
                wall_ref += elapsed / ((refs[-2] + refs[-1]) / 2)
                if exited:
                    break
                os.kill(proc.pid, signal.SIGCONT)
                start = time.perf_counter()
            code = proc.wait(timeout=CHILD_TIMEOUT_S)
        finally:
            os.close(pidfd)
            if proc.poll() is None:
                proc.kill()
                proc.wait()
        if code != 0:
            err.seek(0)
            raise BenchError(f"verify pass exited {code}:\n{err.read()[-3000:]}")
        sink.seek(0)
        payload = json.loads(sink.read().strip().splitlines()[-1])
    return pass_s, wall_ref, sum(refs) / len(refs), payload


def timed_verify(seconds: float, tally: Tally) -> dict:
    import refkernel

    counts = reportcheck.expected_check_counts(reportcheck.shipped_manifest(ROOT))
    suites = len(counts) - 1  # every suite but the fixture-loading report
    ratios, passes, refs, setups, rss = [], [], [], [], []
    first = None
    refkernel.reference_kernel()
    start = time.perf_counter()
    while time.perf_counter() - start < seconds:
        for _ in range(SETUPS_PER_VERIFY_PASS):
            setups.append(run_child("setup", "verify-default")[1]["setup_s"])
        pass_s, wall_ref, ref, out = paused_pass(refkernel.reference_seconds)
        ratios.append(wall_ref)
        passes.append(pass_s)
        refs.append(ref)
        rss.append(out["maxrss_kb"] / 1024)
        report = out["report"]
        errors = sum(1 for r in report.get("reports", ()) if r.get("status") == "error")
        faults = reportcheck.verify_faults(out["exit"], report, counts)
        stripped = reportcheck.without_durations(report)
        if first is None:
            first = stripped
        elif stripped != first:
            faults.append("report with durations removed differs between passes")
        tally.add(suites, errors, faults)
    return {"wall_ref": ratios, "setup_s": setups, "peak_rss_mb": rss, "pass_s": passes, "ref_s": refs}


def _read_line(proc) -> dict:
    line = proc.stdout.readline()
    if not line:
        raise BenchError(f"worker exited with code {proc.wait()} before answering")
    return json.loads(line)


def timed_long_lived(workload: str, seed: int, seconds: float, tally: Tally) -> dict:
    ratios, passes, refs, setups = [], [], [], []
    proc = subprocess.Popen(
        worker_cmd("serve", workload, seed), stdin=subprocess.PIPE, stdout=subprocess.PIPE,
        text=True, env=child_env(), cwd=ROOT,
    )
    try:
        _read_line(proc)  # built and warmed up
        start = time.perf_counter()
        while time.perf_counter() - start < seconds:
            proc.stdin.write("pass\n")
            proc.stdin.flush()
            out = _read_line(proc)
            ratios.append(out["wall_ref"])
            passes.append(out["pass_s"])
            refs.append(out["ref_s"])
            tally.add(out["attempted"], out["failed"], out["faults"], out["failures"])
            if out["fault_count"] > len(out["faults"]):
                tally.faults.append(f"{out['fault_count'] - len(out['faults'])} more faults")
            if len(passes) % 2 == 1:
                setups.append(run_child("setup", workload)[1]["setup_s"])
        proc.stdin.write("quit\n")
        proc.stdin.flush()
        rss = _read_line(proc)["maxrss_kb"] / 1024
        proc.wait(timeout=CHILD_TIMEOUT_S)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    return {"wall_ref": ratios, "setup_s": setups, "peak_rss_mb": [rss], "pass_s": passes, "ref_s": refs}


# ------------------------------------------------------------ traced run ----

def traced(workload: str, seed: int, tally: Tally) -> dict:
    metrics = dict(run_child("primitives")[1]["primitives"])
    metrics["cli.import_s"] = statistics.median(
        run_child("import-cli")[1]["import_s"] for _ in range(IMPORT_SAMPLES)
    )
    dump = str(OUT / f"trace-{workload}-seed{seed}.prof")
    if workload == "verify-default":
        counts = reportcheck.expected_check_counts(reportcheck.shipped_manifest(ROOT))
        _, plain = run_child("verify-pass")
        _, profiled = run_child("verify-pass", dump)
        reports = [plain["report"], profiled["report"]]
        for out in (plain, profiled):
            errors = sum(1 for r in out["report"]["reports"] if r["status"] == "error")
            tally.add(len(counts) - 1, errors, reportcheck.verify_faults(out["exit"], out["report"], counts))
        if len({json.dumps(reportcheck.without_durations(r), sort_keys=True) for r in reports}) != 1:
            tally.faults.append("traced and untraced reports differ")
        metrics["trace.overhead_s"] = profiled["pass_s"] - plain["pass_s"]
        metrics.update(profiled["layers"])
    else:
        _, out = run_child("trace", workload, seed, dump)
        tally.add(out["attempted"], out["failed"], out["faults"], out["failures"])
        metrics["trace.overhead_s"] = out["traced_s"] - out["untraced_s"]
        metrics.update(out["layers"])
    missing = set(PER_LAYER) - set(metrics)
    if missing:
        raise BenchError(f"traced run did not produce {sorted(missing)}")
    return metrics


# ------------------------------------------------------------------ main ----

def _on_alarm(signum, frame):
    raise BenchError(f"run exceeded {RUN_LIMIT_S} s")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def print_table(samples: dict) -> None:
    print(f"{'metric':34s} {'unit':6s} {'n':>4s} {'median':>14s} {'q1':>14s} {'q3':>14s}")
    for name, values in samples.items():
        s = summary(values)
        unit = unit_of(name) if name in END_TO_END else "s"
        print(f"{name:34s} {unit:6s} {s['n']:4d} {s['median']:14.6g} {s['q1']:14.6g} {s['q3']:14.6g}")


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "latmirror" / "__init__.py").is_file():
        print(f"error: no package at {SRC / 'latmirror'}; run from a checkout of the repository",
              file=sys.stderr)
        return 2
    os.environ.update(THREAD_ENV)
    # One CPU for the benchmark and every process it starts, so the kernel
    # runs where the passes run; nothing in a run works in parallel.
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    signal.signal(signal.SIGALRM, _on_alarm)
    signal.alarm(RUN_LIMIT_S)
    tally = Tally()
    detail = {"workload": args.workload, "seed": args.seed, "trace": args.trace}
    try:
        run_child("setup", args.workload)  # byte-compiles the package before any timing
        if args.trace:
            values = traced(args.workload, args.seed, tally)
            detail["per_layer"] = values
            for name in PER_LAYER:
                print(f"{name:34s} {unit_of(name):6s} {values[name]:14.6g}")
        else:
            if args.workload == "verify-default":
                samples = timed_verify(args.seconds, tally)
            else:
                samples = timed_long_lived(args.workload, args.seed, args.seconds, tally)
            detail["samples"] = samples
            print_table(samples)
            values = {
                "wall_ref": statistics.median(samples["wall_ref"]),
                "setup_s": statistics.median(samples["setup_s"]),
                "peak_rss_mb": max(samples["peak_rss_mb"]),
            }
    except (BenchError, subprocess.TimeoutExpired, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        signal.alarm(0)
    names = PER_LAYER if args.trace else END_TO_END
    result = {
        "correct": not tally.faults,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": values[name], "unit": unit_of(name)} for name in names},
    }
    detail.update(result, faults=tally.faults[:20], failures=sorted(tally.failures))
    OUT.mkdir(exist_ok=True)
    out_path = OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out_path.write_text(json.dumps(detail, indent=1) + "\n")
    for fault in tally.faults[:10]:
        print(f"FAULT {fault}")
    if tally.failures:
        print(f"failed operations raised {sorted(tally.failures)}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
