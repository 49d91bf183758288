"""Check and suite report records shared by the verifier and the CLI.

Both are read-only ``NamedTuple``s; ``to_json`` gives the plain dicts the
JSON report prints, since a tuple would print as a list.
"""

from __future__ import annotations

from typing import NamedTuple


class Check(NamedTuple):
    """One verified statement: inputs, expected, got, tolerance used."""

    name: str
    ok: bool
    inputs: str = ""
    expected: str = ""
    got: str = ""
    tol: str = ""

    def to_json(self) -> dict:
        return self._asdict()


def summary_check(
    name: str,
    total: int,
    failures: list[str],
    inputs: str = "",
    tol: str = "",
) -> Check:
    """Aggregate a sweep or a certificate into one record; failures keep their detail."""
    if failures:
        got = f"{len(failures)}/{total} failed; first: {failures[0]}"
    else:
        got = f"all {total} ok"
    return Check(
        name=name,
        ok=not failures,
        inputs=inputs,
        expected=f"{total} agreements",
        got=got,
        tol=tol,
    )


class SuiteReport(NamedTuple):
    """Outcome of one suite: pass, fail, or error (crash/missing input)."""

    suite: str
    status: str  # "pass" | "fail" | "error"
    checks: tuple = ()
    duration_s: float = 0.0

    @property
    def passed(self) -> bool:
        return self.status == "pass"

    def to_json(self) -> dict:
        return {
            "suite": self.suite,
            "status": self.status,
            "duration_s": self.duration_s,
            "checks": [c.to_json() for c in self.checks],
        }
