"""Check and suite report records shared by the verifier and the CLI."""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass(frozen=True)
class Check:
    """One verified statement: inputs, expected, got, tolerance used."""

    name: str
    ok: bool
    inputs: str = ""
    expected: str = ""
    got: str = ""
    tol: str = ""

    def to_json(self) -> dict:
        return {
            "name": self.name,
            "ok": self.ok,
            "inputs": self.inputs,
            "expected": self.expected,
            "got": self.got,
            "tol": self.tol,
        }


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


@dataclass(frozen=True)
class SuiteReport:
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
