"""Names the command line needs before the verifier or numpy is loaded.

`cli` parses flags and catches errors with these, and imports `numeric`
and `manifest` only in the handlers that use them, so the exact commands
never load numpy.  `numeric` re-exports ``ROOT_TOL`` and
``ConsistencyError``, and `manifest` re-exports ``DEFAULT_MANIFEST`` and
``ManifestError``, so ``numeric.ConsistencyError is shared.ConsistencyError``.
"""

from __future__ import annotations

from pathlib import Path

# marked-fibre positions; the tolerance hierarchy is in numeric's docstring
ROOT_TOL = 1e-9

DEFAULT_MANIFEST = Path(__file__).parent / "fixtures" / "manifest_default.json"


class ConsistencyError(RuntimeError):
    """Two routes to the same number disagreed beyond tolerance."""


class ManifestError(ValueError):
    """The manifest (or a file it references) does not parse."""
