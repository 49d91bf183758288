"""Fixture files: geometry descriptors as strict JSON.

A K3 fixture looks like

    {"label": "...", "gram": [[...]],
     "roots": [[...], ...],                  optional
     "fibration": {"singular_fibres": 24}}   optional

and a threefold fixture like

    {"label": "...", "picard_rank": k,
     "cubic": [k^3 ints, row-major],
     "c2": [k ints]}.

Files are resolved against an explicit base directory (for manifests),
then the directory named by the LATMIRROR_FIXTURE_DIR environment
variable, then the fixtures shipped with the package.

Every JSON input (fixtures, manifests, the curve of ``latmirror quant
phase``) is read by :func:`read_json` and its objects are checked by
:func:`check_object`; each failure raises the caller's error class, in one
line that names the file.  A fixture file that cannot be read or parsed is
refused while the manifest is parsed.  :func:`fixture_from_payload` raises
only :class:`FixtureError`: for a payload that is not an object, a missing
key, an unknown key (so that a typo cannot silently weaken a suite) and
any lattice error in its data.  Under ``latmirror verify`` that is a
failing ``load`` check.
"""

from __future__ import annotations

import json
import os
from pathlib import Path

from .core import LatticeError, RingDescriptor, _int_array
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
        if os.path.isfile(c):  # False, not an error, for a name the OS refuses
            return c
    raise FixtureError(f"fixture {name!r} not found (tried {[str(c) for c in candidates]})")


def read_json(path: str | Path, error: type[ValueError], noun: str):
    """The parsed JSON of a file; any failure raises ``error``, one line naming the file."""
    try:
        return json.loads(Path(path).read_text(encoding="utf-8"))
    except OSError as exc:
        raise error(f"cannot read {noun} {path}: {exc}") from exc
    except ValueError as exc:  # JSONDecodeError, UnicodeDecodeError, an int too long
        raise error(f"{noun} {path} is not valid JSON: {exc}") from exc
    except RecursionError as exc:
        raise error(f"{noun} {path} is nested too deeply to parse") from exc


def check_object(
    value, noun: str, required=(), optional=(), error=FixtureError, keys="keys"
) -> dict:
    """``value``, checked to be a JSON object with every ``required`` key and, unless
    ``optional`` is None, no other than the ``optional`` ones; else ``error``."""
    if not isinstance(value, dict):
        raise error(f"{noun} must be a JSON object")
    if optional is not None:
        unknown = set(value).difference(required, optional)
        if unknown:
            raise error(f"{noun} does not take {keys} {sorted(unknown)}")
    for key in required:
        if key not in value:
            raise error(f"{noun} has no key {key!r}")
    return value


def _label(payload: dict, default: str, source) -> str:
    """The fixture's ``label``, or ``default`` when it has none; suites look
    fixtures up by it, so anything but a string is refused."""
    label = payload.get("label", default)
    if not isinstance(label, str):
        raise FixtureError(f"{source}: label must be a string, got {type(label).__name__}")
    return label


def _load_k3(payload: dict, source: str) -> K3Descriptor:
    singular = None
    fibration = payload.get("fibration")
    if fibration is not None:
        fibration = check_object(fibration, f"{source}: fibration", ("singular_fibres",))
        singular = fibration["singular_fibres"]
        if singular is None:
            raise FixtureError(f"{source}: fibration declares no singular_fibres count")
    gram = _int_array(payload["gram"], 2, "Gram matrix must be square")
    return K3Descriptor(
        ring=RingDescriptor(dim=2, picard_rank=len(gram), gram=gram),
        label=_label(payload, "k3", source),
        roots=payload.get("roots", ()),
        singular_fibres=singular,
    )


def load_fixture(name: str, base: Path | None = None):
    """Load one fixture file into its descriptor (K3 or threefold)."""
    path = resolve_fixture(name, base)
    return fixture_from_payload(read_json(path, FixtureError, "fixture"), path)


def fixture_from_payload(payload, path: Path):
    """Build the descriptor (K3 or threefold) of a parsed fixture file."""
    payload = check_object(payload, f"fixture {path}", optional=None)
    try:
        if "gram" in payload:
            keys = ("gram",), ("label", "roots", "fibration")
            return _load_k3(check_object(payload, f"{path}: K3 fixture", *keys), str(path))
        if "cubic" in payload:
            keys = ("picard_rank", "cubic", "c2"), ("label",)
            check_object(payload, f"{path}: threefold fixture", *keys)
            rank, cubic, c2 = (payload[key] for key in keys[0])
            ring = RingDescriptor(dim=3, picard_rank=rank, cubic=cubic, c2=c2)
            return CY3Descriptor(ring=ring, label=_label(payload, "cy3", path))
    except LatticeError as exc:
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
