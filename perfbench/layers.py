"""Per-layer figures: profiler totals per module and primitive timings.

The profiler is started and stopped by the benchmark around one pass;
nothing inside the package is instrumented.  A Python function belongs to
the layer of the file that defines it.  A C function (file ``~``) belongs
to numpy when numpy defines it; otherwise its time goes to the layer of
each caller in proportion to what pstats records per caller, so that
``isinstance`` or ``math.gcd`` called from ``core`` counts as ``core``.
"""

from __future__ import annotations

import os
import pstats
import statistics
import timeit
from pathlib import PurePath

PACKAGE_LAYERS = (
    "core", "cy1", "cy2", "cy3", "numeric", "suites", "manifest", "fixtures", "report", "cli",
)
LAYERS = (*PACKAGE_LAYERS, "fractions", "numpy")

# Primitive and set-up timings of the traced run, in the order reported.
PRIMITIVES = (
    "core.graded_vector3_us", "core.cup1_us", "core.cup2_us", "core.cup3_us",
    "core.pair_exotic3_us", "cy3.todd_us", "cy3.line_bundle_ch4_us", "cy3.mirror_cy3_us",
    "cy2.walk_to_chamber_us", "cy1.atiyah_mul_us", "numeric.holonomy_character_us",
    "numeric.find_bs_fibres32_ms", "numeric.theta_basis_rank8_ms",
    "numeric.phase_map_curve1024_ms", "manifest.parse_ms", "fixtures.load_ms",
    "report.to_json_ms",
)
# timeit autoranges per primitive; the median is reported.
AUTORANGES = 3


def layer_of_file(filename: str) -> str | None:
    path = PurePath(filename)
    parts = path.parts
    if len(parts) >= 2 and parts[-2] == "latmirror" and path.stem in PACKAGE_LAYERS:
        return path.stem
    if path.name == "fractions.py" and "latmirror" not in parts:
        return "fractions"
    if "numpy" in parts:
        return "numpy"
    return None


def _layer_of(key) -> str | None:
    filename, _, name = key
    if filename == "~":
        return "numpy" if "numpy" in name else None
    return layer_of_file(filename)


def layer_metrics(stats: pstats.Stats) -> dict:
    """``<layer>.self_s``, ``<layer>.calls`` and ``fractions.new_calls``."""
    self_s = dict.fromkeys(LAYERS, 0.0)
    calls = dict.fromkeys(LAYERS, 0)
    new_calls = 0
    for key, (_, nc, tt, _, callers) in stats.stats.items():
        layer = _layer_of(key)
        if layer is not None:
            self_s[layer] += tt
            calls[layer] += nc
            if layer == "fractions" and key[2] == "__new__":
                new_calls += nc
        elif key[0] == "~":
            for caller, (_, _, caller_tt, _) in callers.items():
                caller_layer = _layer_of(caller)
                if caller_layer is not None:
                    self_s[caller_layer] += caller_tt
    out = {}
    for layer in LAYERS:
        out[f"{layer}.self_s"] = self_s[layer]
        out[f"{layer}.calls"] = calls[layer]
    out["fractions.new_calls"] = new_calls
    return out


def profile_metrics(profile, dump_path: str) -> dict:
    os.makedirs(os.path.dirname(dump_path), exist_ok=True)
    profile.dump_stats(dump_path)
    return layer_metrics(pstats.Stats(profile))


def seconds_per_call(fn) -> float:
    """Median over ``AUTORANGES`` of ``timeit`` autorange's time per call."""
    timer = timeit.Timer(fn)
    samples = []
    for _ in range(AUTORANGES):
        number, total = timer.autorange()
        samples.append(total / number)
    return statistics.median(samples)
