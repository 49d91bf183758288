"""Fixture files: geometry descriptors as strict JSON.

A K3 fixture looks like

    {"label": "...", "gram": [[...]],
     "roots": [[...], ...],                  optional
     "fibration": {"singular_fibres": 24}}   optional

and a threefold fixture like

    {"label": "...", "picard_rank": k,
     "cubic": [k^3 ints, row-major],
     "c2": [k ints]}.

Unknown keys are rejected so that a typo cannot silently weaken a suite.
Files are resolved against an explicit base directory (for manifests),
then the directory named by the LATMIRROR_FIXTURE_DIR environment
variable, then the fixtures shipped with the package.
"""

from __future__ import annotations

import json
import os
from pathlib import Path

from .core import RingDescriptor
from .cy2 import K3Descriptor
from .cy3 import CY3Descriptor

ENV_FIXTURE_DIR = "LATMIRROR_FIXTURE_DIR"

_PACKAGE_FIXTURES = Path(__file__).parent / "fixtures"


class FixtureError(ValueError):
    """A fixture file is missing, malformed, or semantically invalid."""


def _search_stems(base: Path | None) -> tuple[Path, ...]:
    stems = []
    if base is not None:
        stems.append(Path(base))
    override = os.environ.get(ENV_FIXTURE_DIR)
    if override:
        stems.append(Path(override))
    stems.append(_PACKAGE_FIXTURES)
    return tuple(stems)


def resolve_fixture(name: str, base: Path | None = None) -> Path:
    """Find the file for a fixture name or path."""
    candidates = []
    p = Path(name)
    if p.is_absolute():
        candidates.append(p)
    else:
        for stem in _search_stems(base):
            candidates.append(Path(stem) / name)
            if not name.endswith(".json"):
                candidates.append(Path(stem) / f"{name}.json")
    for c in candidates:
        if c.is_file():
            return c
    raise FixtureError(f"fixture {name!r} not found (tried {[str(c) for c in candidates]})")


def _read_json(path: Path):
    try:
        text = path.read_text()
    except OSError as exc:
        raise FixtureError(f"cannot read fixture {path}: {exc}") from exc
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise FixtureError(f"fixture {path} is not valid JSON: {exc}") from exc


def _load_k3(payload: dict, source: str) -> K3Descriptor:
    known = {"label", "gram", "roots", "fibration"}
    unknown = set(payload) - known
    if unknown:
        raise FixtureError(f"{source}: unknown K3 fixture keys {sorted(unknown)}")
    singular = None
    fibration = payload.get("fibration")
    if fibration is not None:
        if not isinstance(fibration, dict):
            raise FixtureError(f"{source}: fibration must be an object, got {fibration!r}")
        extra = set(fibration) - {"singular_fibres"}
        if extra:
            raise FixtureError(f"{source}: unknown fibration keys {sorted(extra)}")
        singular = fibration["singular_fibres"]
        if singular is None:
            raise FixtureError(f"{source}: fibration declares no singular_fibres count")
    gram = payload["gram"]
    ring = RingDescriptor(dim=2, picard_rank=len(gram), gram=gram)
    return K3Descriptor(
        ring=ring,
        label=str(payload.get("label", "k3")),
        roots=tuple(tuple(r) for r in payload.get("roots", ())),
        singular_fibres=singular,
    )


def _load_cy3(payload: dict, source: str) -> CY3Descriptor:
    known = {"label", "picard_rank", "cubic", "c2"}
    unknown = set(payload) - known
    if unknown:
        raise FixtureError(f"{source}: unknown threefold fixture keys {sorted(unknown)}")
    ring = RingDescriptor(
        dim=3,
        picard_rank=payload["picard_rank"],
        cubic=tuple(payload["cubic"]),
        c2=tuple(payload["c2"]),
    )
    return CY3Descriptor(ring=ring, label=str(payload.get("label", "cy3")))


def load_fixture(name: str, base: Path | None = None):
    """Load one fixture file into its descriptor (K3 or threefold)."""
    path = resolve_fixture(name, base)
    return fixture_from_payload(_read_json(path), path)


def fixture_from_payload(payload, path: Path):
    """Build the descriptor (K3 or threefold) of a parsed fixture file."""
    if not isinstance(payload, dict):
        raise FixtureError(f"fixture {path} must be a JSON object")
    try:
        if "gram" in payload:
            return _load_k3(payload, str(path))
        if "cubic" in payload:
            return _load_cy3(payload, str(path))
    except FixtureError:
        raise
    except KeyError as exc:
        raise FixtureError(f"{path}: missing key {exc}") from exc
    except (TypeError, ValueError) as exc:
        raise FixtureError(f"{path}: {exc}") from exc
    raise FixtureError(f"{path}: neither a K3 fixture (gram) nor a threefold (cubic)")


def load_k3_fixture(name: str, base: Path | None = None) -> K3Descriptor:
    fx = load_fixture(name, base)
    if not isinstance(fx, K3Descriptor):
        raise FixtureError(f"{name} is not a K3 fixture")
    return fx


def load_cy3_fixture(name: str, base: Path | None = None) -> CY3Descriptor:
    fx = load_fixture(name, base)
    if not isinstance(fx, CY3Descriptor):
        raise FixtureError(f"{name} is not a threefold fixture")
    return fx
