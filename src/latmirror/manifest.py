"""Verification manifests: what to run, on which fixtures, with what seeds.

A manifest is strict JSON:

    {"version": "1",
     "fixtures": ["quintic.json", "k3_reflective.json", ...],
     "suites": [{"name": "cy3-skew", "params": {"fixtures": ["quintic"]}},
                {"name": "k3-reflections", "params": {"samples": 240, "seed": 5}},
                ...]}

Rejected at parse time, with one :class:`ManifestError` line: a manifest
or fixture file that cannot be read or parsed as JSON (through
:func:`fixtures.read_json`); an object with an unknown or a missing key
(through :func:`fixtures.check_object`); ``fixtures`` or ``suites`` that
is not a list, a fixture name that is not a string or names no file, and
an unknown suite name.  So are parameters that would verify nothing: a
count (``k_max``, ``max_index``, ``triples``, ``samples``) that is not a
positive integer, an ``l2_max`` below 0, a ``tol`` that is not a positive
finite number and an empty list of ``fixtures`` or ``taus``; and
parameters of the wrong shape, which would crash their suite: a ``seed``
that is not an integer, a ``fixture`` that is not a string, a
``fixtures`` entry that is not one, and a ``tau`` or ``taus`` entry that
is not [re, im], two finite numbers with im > 0.
The four suites that now prove their identity on a basis or a grid
(``cy1-mirror-isometry``, ``k3-mirror-transport``, ``cy3-skew``,
``cy3-mirror-isometry``) still accept the ``samples``, ``seed`` and
``bound`` of their former sweeps, so that older manifests parse; those
are checked as above and then dropped, and change nothing.
A fixture file that parses but is not a valid fixture (not an object, a
wrong key, an odd Gram diagonal, a wrong fibre count) is built while the
verifier runs and is recorded as a failing ``load`` check, exit 1,
without aborting the remaining suites.

:class:`Manifest`, its :class:`SuiteSpec` entries and the
:class:`VerifyResult` are read-only ``NamedTuple``s; the checks above are
made by :func:`parse_manifest`, not by the records.
"""

from __future__ import annotations

import math
import sys
import time
from pathlib import Path
from typing import NamedTuple

from .fixtures import FixtureError, check_object, fixture_from_payload, read_json, resolve_fixture
from .report import Check, SuiteReport
from .shared import DEFAULT_MANIFEST, ManifestError  # noqa: F401  (DEFAULT_MANIFEST re-exported)
from .suites import SUITES, SuiteInputError

MANIFEST_VERSION = "1"


def _is_tau(x) -> bool:
    # abs(v) <= max float also refuses NaN and ints that overflow a float
    return (
        type(x) is list
        and len(x) == 2
        and all(type(v) in (int, float) and abs(v) <= sys.float_info.max for v in x)
        and x[1] > 0
    )


def _is_names(x) -> bool:
    return type(x) is list and all(type(name) is str for name in x)


# parameter -> (what it must be, test); the suites check the others.
# type() rather than isinstance(), so that true and false are not numbers.
_PARAM_RULES = {
    **dict.fromkeys(
        ("k_max", "max_index", "triples", "samples"),
        ("a positive integer", lambda x: type(x) is int and x > 0),
    ),
    "l2_max": ("an integer >= 0", lambda x: type(x) is int and x >= 0),
    "tol": ("a positive finite number", lambda x: type(x) in (int, float) and 0 < x < math.inf),
    "seed": ("an integer", lambda x: type(x) is int),
    "tau": ("[re, im]: two finite numbers with im > 0", _is_tau),
    "fixture": ("a string", lambda x: type(x) is str),
    "fixtures": ("a non-empty list of strings", lambda x: _is_names(x) and x),
    "taus": (
        "a non-empty list of [re, im], each two finite numbers with im > 0",
        lambda x: type(x) is list and x and all(map(_is_tau, x)),
    ),
}

# suite -> the parameters of its former seeded sweep
_RETIRED_PARAMS = dict.fromkeys(
    ("cy1-mirror-isometry", "k3-mirror-transport", "cy3-skew", "cy3-mirror-isometry"),
    {"samples", "seed", "bound"},
)


class SuiteSpec(NamedTuple):
    name: str
    params: dict


class Manifest(NamedTuple):
    """A parsed manifest.

    ``sources[i]`` holds the resolved path and the parsed JSON of
    ``fixtures[i]``: each file is read once, by :func:`parse_manifest`, and
    built into its descriptor by :func:`run_verify`.
    """

    version: str
    fixtures: tuple
    suites: tuple
    base: Path
    sources: tuple


def parse_manifest(path: str | Path) -> Manifest:
    """Parse and statically validate a manifest file."""
    path = Path(path)
    noun = f"manifest {path}"
    payload = check_object(
        read_json(path, ManifestError, "manifest"),
        noun, ("version",), ("fixtures", "suites"), error=ManifestError,
    )
    version = payload["version"]
    if version != MANIFEST_VERSION:
        raise ManifestError(
            f"unsupported manifest version {version!r} (expected {MANIFEST_VERSION!r})"
        )
    fixtures, entries = payload.get("fixtures", []), payload.get("suites", [])
    if not _is_names(fixtures):
        raise ManifestError(f"{noun}: fixtures must be a JSON list of file names")
    if type(entries) is not list:
        raise ManifestError(f"{noun}: suites must be a JSON list")
    base = path.parent
    sources = []
    for name in fixtures:
        try:
            resolved = resolve_fixture(name, base)
        except FixtureError as exc:
            raise ManifestError(str(exc)) from exc
        sources.append((resolved, read_json(resolved, ManifestError, "fixture")))
    suites = []
    for i, entry in enumerate(entries):
        entry = check_object(
            entry, f"{noun} suite entry {i}", ("name",), ("params",), error=ManifestError
        )
        name = entry["name"]
        if type(name) is not str or name not in SUITES:
            raise ManifestError(f"unknown suite {name!r}; known: {sorted(SUITES)}")
        retired = _RETIRED_PARAMS.get(name, set())
        params = check_object(
            entry.get("params", {}), f"suite {name!r} params", (),
            {*SUITES[name].defaults, *retired}, error=ManifestError, keys="parameters",
        )
        for key, value in params.items():
            rule = _PARAM_RULES.get(key)
            if rule and not rule[1](value):
                raise ManifestError(
                    f"suite {name!r} parameter {key!r} must be {rule[0]}, got {value!r}"
                )
        kept = {key: value for key, value in params.items() if key not in retired}
        suites.append(SuiteSpec(name=name, params=kept))
    return Manifest(
        version=version,
        fixtures=tuple(fixtures),
        suites=tuple(suites),
        base=base,
        sources=tuple(sources),
    )


class VerifyResult(NamedTuple):
    reports: tuple
    passed: bool

    @property
    def exit_code(self) -> int:
        return 0 if self.passed else 1

    def to_json(self) -> dict:
        return {
            "passed": self.passed,
            "suites": {
                "total": len(self.reports),
                "failed": sum(1 for r in self.reports if not r.passed),
            },
            "reports": [r.to_json() for r in self.reports],
        }


def _load_fixtures(manifest: Manifest) -> tuple[dict, list[Check]]:
    loaded: dict = {}
    checks: list[Check] = []
    for name, (path, payload) in zip(manifest.fixtures, manifest.sources):
        try:
            fx = fixture_from_payload(payload, path)
        except FixtureError as exc:
            checks.append(
                Check(name=f"load {name}", ok=False, got=str(exc))
            )
            continue
        loaded[fx.label] = fx
        checks.append(
            Check(name=f"load {name}", ok=True, got=f"label {fx.label!r}")
        )
    return loaded, checks


def run_verify(manifest: Manifest) -> VerifyResult:
    """Run every suite in the manifest; never abort on a failing suite.

    Reports are assembled in suite-name order (fixture loading reports
    first under the name "fixtures"); all randomness is seeded by suite
    parameters, so two runs differ only in durations.
    """
    fixtures, fixture_checks = _load_fixtures(manifest)
    reports = [
        SuiteReport(
            suite="fixtures",
            status="pass" if all(c.ok for c in fixture_checks) else "fail",
            checks=tuple(fixture_checks),
            duration_s=0.0,
        )
    ]
    for spec in sorted(manifest.suites, key=lambda s: s.name):
        suite = SUITES[spec.name]
        params = {**suite.defaults, **spec.params}
        start = time.perf_counter()
        try:
            checks = tuple(suite.run(params, fixtures))
            status = "pass" if all(c.ok for c in checks) else "fail"
        except SuiteInputError as exc:
            checks = (Check(name="suite preconditions", ok=False, got=str(exc)),)
            status = "error"
        except Exception as exc:  # a crashing suite must not kill the run
            checks = (
                Check(name="suite crashed", ok=False, got=f"{type(exc).__name__}: {exc}"),
            )
            status = "error"
        reports.append(
            SuiteReport(
                suite=spec.name,
                status=status,
                checks=checks,
                duration_s=time.perf_counter() - start,
            )
        )
    reports.sort(key=lambda r: r.suite)
    passed = all(r.passed for r in reports)
    return VerifyResult(reports=tuple(reports), passed=passed)
