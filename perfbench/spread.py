"""Run the benchmark on several seeds and print each figure's spread.

    python3 perfbench/spread.py [--seeds 1-10] [--trace 0|1]

For each workload it runs ``run.py`` once per seed, one run at a time, for
the ``run_seconds`` that ``BENCHMARK.json`` sets, and prints for every
metric, and for the reference figures (raw seconds per pass,
reference-kernel seconds), the median of the per-run values, their
quartiles and the quartile distance as a share of the median.  It also
prints the share of failed operations of every run.  The table is
kept in ``perfbench/out/spread-trace<0|1>.json``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"
sys.path.insert(0, str(BENCH))

import run  # noqa: E402


def seed_list(text: str) -> list:
    if "-" in text:
        low, high = text.split("-")
        return list(range(int(low), int(high) + 1))
    return [int(x) for x in text.split(",")]


def spread(values: list) -> dict:
    s = run.summary(values)
    return {**s, "iqr_share": (s["q3"] - s["q1"]) / s["median"] if s["median"] else 0.0}


def one_run(workload: str, seed: int, seconds: int, trace: int) -> tuple[dict, dict]:
    cmd = [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT, timeout=200)
    if proc.returncode != 0:
        raise SystemExit(f"{workload} seed {seed} exited {proc.returncode}:\n{proc.stderr}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    detail = json.loads((OUT / f"result-{workload}-seed{seed}-trace{trace}.json").read_text())
    return result, detail


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    seconds = json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"]
    table = {}
    for workload in run.WORKLOADS:
        figures: dict = {}
        shares = []
        for seed in seed_list(args.seeds):
            result, detail = one_run(workload, seed, seconds, args.trace)
            if not result["correct"]:
                print(f"{workload} seed {seed}: INCORRECT {detail['faults'][:3]}")
            shares.append(f"{result['failed']}/{result['attempted']}")
            for name, metric in result["metrics"].items():
                figures.setdefault(name, []).append(metric["value"])
            for name in ("pass_s", "ref_s"):
                if name in detail.get("samples", {}):
                    figures.setdefault(name, []).append(statistics.median(detail["samples"][name]))
        print(f"\n{workload}: {len(shares)} runs, failed/attempted {sorted(set(shares))}")
        print(f"  {'metric':34s} {'median':>12s} {'q1':>12s} {'q3':>12s} {'iqr/median':>10s}")
        rows = {}
        for name, values in figures.items():
            s = spread(values)
            rows[name] = {**s, "values": values}
            print(f"  {name:34s} {s['median']:12.6g} {s['q1']:12.6g} {s['q3']:12.6g} {s['iqr_share']:10.4f}")
        table[workload] = {"failed_shares": shares, "figures": rows}
    OUT.mkdir(exist_ok=True)
    (OUT / f"spread-trace{args.trace}.json").write_text(json.dumps(table, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
