"""Names the command line needs before the verifier or numpy is loaded.

``ReadOnly`` is the base of the classes that check their input: each
stores its values once, in its ``__init__``.  `cli` and `commands` catch
errors and find the default manifest with the other names here, and
import `numeric` and `manifest` only in the handlers that use them, so the
exact commands never load numpy.  ``ROOT_TOL`` is the fibre search's
accuracy, which the ``quant-bs`` suite reads without loading numpy.
`numeric` re-exports ``ROOT_TOL`` and ``ConsistencyError``, and `manifest`
re-exports ``DEFAULT_MANIFEST`` and ``ManifestError``, so
``numeric.ConsistencyError is shared.ConsistencyError``.
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


class ReadOnly:
    """A value set once in ``__init__``, through ``__dict__``, and never again.

    ``_fields`` names the stored values that equality (with the same class
    only), the hash and the repr ``Name(field=value, ...)`` read.
    """

    _fields = ()

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def _values(self) -> tuple:
        d = self.__dict__
        return tuple([d[f] for f in self._fields])

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self):
        return hash(self._values())

    def __repr__(self):
        items = ", ".join(f"{f}={v!r}" for f, v in zip(self._fields, self._values()))
        return f"{type(self).__qualname__}({items})"
