"""Checks on `latmirror verify` reports, made apart from the package.

Nothing here imports ``latmirror``; the manifest is read as plain JSON.
"""

from __future__ import annotations

import json
from pathlib import Path

MANIFEST_PATH = Path("src/latmirror/fixtures/manifest_default.json")

# The package's defaults (``suites.SUITES``) for the parameters that fix a
# check count; the manifest's params override them, as in ``run_verify``.
DEFAULTS = {
    "cy1-quantization": {"k_max": 50},
    "k3-quantization": {"l2_max": 40},
    **{name: {"fixtures": ("quintic", "bicubic")}
       for name in ("cy3-skew", "cy3-mirror-isometry", "cy3-quantization", "cy3-sublattice")},
    "quant-bs": {"k_max": 32},
    "quant-theta-rank": {"k_max": 8, "taus": ((0.0, 1.0), (0.5, 1.0), (0.0, 2.0))},
}
# Line bundles whose section count cy3-quantization checks by hand, per
# threefold; every threefold also gets one structure-sheaf check.
CY3_QUANTIZATION_CLASSES = {"quintic": 3, "bicubic": 5}

# Checks each suite reports, from its parameters (fixed lists otherwise).
RULES = {
    "cy1-quantization": lambda p: p["k_max"],
    "cy1-mirror-isometry": lambda p: 1,
    "cy1-gft-homomorphism": lambda p: 1,
    "cy1-atiyah": lambda p: 3,
    "k3-quantization": lambda p: p["l2_max"] // 2 + 1,
    "k3-reflections": lambda p: 3,
    "k3-mirror-transport": lambda p: 2,
    "k3-main-condition": lambda p: 3,
    "cy3-skew": lambda p: 2 * len(p["fixtures"]),
    "cy3-mirror-isometry": lambda p: 2 * len(p["fixtures"]),
    "cy3-quantization": lambda p: sum(1 + CY3_QUANTIZATION_CLASSES.get(f, 0) for f in p["fixtures"]),
    "cy3-sublattice": lambda p: len(p["fixtures"]),
    "quant-bs": lambda p: p["k_max"],
    "quant-holonomy": lambda p: 1,
    "quant-theta-rank": lambda p: p["k_max"] * len(p["taus"]),
    "quant-phase": lambda p: 4 + 2,
}


def expected_check_counts(manifest: dict) -> dict:
    """Checks each suite must report, from the manifest's parameters."""
    counts = {
        s["name"]: RULES[s["name"]]({**DEFAULTS.get(s["name"], {}), **s.get("params", {})})
        for s in manifest["suites"]
    }
    counts["fixtures"] = len(manifest["fixtures"])
    return counts


def shipped_manifest(root: Path) -> dict:
    """The package's default manifest, read as plain JSON."""
    return json.loads((root / MANIFEST_PATH).read_text())


def without_durations(report: dict) -> dict:
    return {
        **report,
        "reports": [{k: v for k, v in r.items() if k != "duration_s"} for r in report["reports"]],
    }


def verify_faults(code: int, report: dict, counts: dict) -> list:
    faults = []
    if code != 0 or not report.get("passed"):
        faults.append(f"verify exit code {code}, passed={report.get('passed')}")
    seen = {r["suite"]: r for r in report.get("reports", ())}
    for name, n in counts.items():
        r = seen.get(name)
        if r is None:
            faults.append(f"suite {name} missing from the report")
        elif r["status"] != "pass":
            faults.append(f"suite {name} status {r['status']}")
        elif len(r["checks"]) != n:
            faults.append(f"suite {name} reports {len(r['checks'])} checks, manifest implies {n}")
    extra = set(seen) - set(counts)
    if extra:
        faults.append(f"unexpected suites {sorted(extra)}")
    return faults
