"""Line map of Tier-1: the statements of ``src/latmirror`` that no test runs.

Run from the repository root:

    python3 tests/linemap.py [--map PATH] [pytest arguments ...]

It starts ``sys.settrace`` before ``latmirror`` is imported, then runs
Tier-1 (``tests``, or the pytest arguments given) through ``pytest.main``
in this process.  It prints every statement under ``src/latmirror`` that
never ran, as ``file:line: source``, and marks each one that ``ALLOWED``
lists with its reason.  It exits 1 if pytest fails, if an unrun
statement is not on the list, or if a listed statement now runs: the
list may only shrink.  A listed source text allows a given number of
unrun statements of that text in its file, so that ``return 1`` in one
branch does not also excuse another.  ``--map PATH`` also writes, as
JSON, the node ids of the tests that run each line, keyed ``file:line``.

A statement is executable if a line of its own (its decorators and its
header, not the statements nested in it) carries bytecode, and it ran if
the tracer saw one of those lines.  Code that runs only in a child
process is not seen.  The tracer roughly triples Tier-1's run time, so
this script is not a Tier-1 step; ``tests/test_linemap.py`` runs its
functions on a toy module.  Standard library only, apart from pytest.
"""

from __future__ import annotations

import ast
import json
import sys
import types
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "latmirror"

# (file, stripped source) -> (how many unrun statements of that text the
# file may hold, why no Tier-1 test runs them in this process)
_BROKEN_PIPE = (
    "main's BrokenPipeError branch points fd 1 at devnull, which in-process would "
    "end pytest's own output; test_cli_closed_stdout_exits_1_without_a_traceback "
    "runs it in a child"
)
ALLOWED = {
    ("cli.py", "argv = sys.argv[1:]"):
        (1, "main's default argv; every in-process caller passes its argv"),
    ("cli.py", "os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())"):
        (1, _BROKEN_PIPE),
    ("cli.py", "return 1"): (1, _BROKEN_PIPE),
    ("cli.py", "sys.exit(main())"):
        (1, "the __main__ guard; runs only under `python -m latmirror.cli`, a fresh interpreter"),
}


def statements(path: Path) -> dict[int, tuple[int, ...]]:
    """Each executable statement's first line, with the lines it owns.

    A statement owns its decorators and its header: the lines from its
    first one up to the first statement nested in it (all of its lines if
    none is).  It is executable if one of those lines carries bytecode, so
    a docstring, whose function holds it as a constant, is not.
    """
    source = path.read_text()
    with_code = set()
    stack = [compile(source, str(path), "exec")]
    while stack:
        code = stack.pop()
        with_code.update(line for _, _, line in code.co_lines() if line is not None)
        stack.extend(c for c in code.co_consts if isinstance(c, types.CodeType))
    out = {}
    for node in ast.walk(ast.parse(source, str(path))):
        if not isinstance(node, ast.stmt):
            continue
        first = min([node.lineno, *(d.lineno for d in getattr(node, "decorator_list", ()))])
        nested = [n.lineno for n in ast.iter_child_nodes(node) if isinstance(n, ast.stmt)]
        nested += [
            n.lineno for h in getattr(node, "handlers", ()) for n in ast.iter_child_nodes(h)
            if isinstance(n, ast.stmt)
        ]
        last = min(nested) - 1 if nested else node.end_lineno
        owned = tuple(line for line in range(first, last + 1) if line in with_code)
        if owned:
            out[node.lineno] = owned
    return out


def trace(root: Path, run, label: list) -> tuple[object, dict[tuple[str, int], set]]:
    """Call ``run()`` under a line tracer of the files under ``root``.

    Returns what ``run`` returned and, for each (file, line) that ran,
    the set of values ``label[0]`` held when it ran.  The tracer that was
    set before is set again afterwards.
    """
    prefix = str(root.resolve())
    hits: dict[tuple[str, int], set] = {}

    def local(frame, event, arg):
        if event == "line":
            hits.setdefault((frame.f_code.co_filename, frame.f_lineno), set()).add(label[0])
        return local

    def calls(frame, event, arg):
        return local if frame.f_code.co_filename.startswith(prefix) else None

    previous = sys.gettrace()
    sys.settrace(calls)
    try:
        result = run()
    finally:
        sys.settrace(previous)
    return result, hits


def unrun(root: Path, hits: dict) -> list[tuple[str, int, str]]:
    """(file, line, stripped source) of each executable statement that never ran."""
    out = []
    for path in sorted(root.glob("*.py")):
        ran = {line for (name, line) in hits if name == str(path.resolve())}
        source = path.read_text().splitlines()
        for first, owned in sorted(statements(path).items()):
            if ran.isdisjoint(owned):
                out.append((path.name, first, source[first - 1].strip()))
    return out


def check(missed: list, allowed: dict) -> tuple[list[str], list[str]]:
    """The unrun statements beyond what ``allowed`` lists, and the entries that overcount."""
    counts = Counter((name, text) for name, _, text in missed)
    new = [
        f"{name}:{line}: {text}" for name, line, text in missed
        if counts[name, text] > allowed.get((name, text), (0,))[0]
    ]
    stale = [f"{name}: {text}" for (name, text), (n, _) in allowed.items() if counts[name, text] < n]
    return new, stale


class _Labeller:
    """A pytest plugin that keeps the node id of the running test in ``label[0]``."""

    def __init__(self, label: list):
        self.label = label

    def pytest_runtest_protocol(self, item, nextitem):
        self.label[0] = item.nodeid

    def pytest_runtest_logfinish(self, nodeid, location):
        self.label[0] = "(outside a test)"


def main(argv: list[str]) -> int:
    map_path = None
    if argv[:1] == ["--map"]:
        map_path, argv = Path(argv[1]), argv[2:]
    args = argv or ["-q", "-p", "no:cacheprovider", str(ROOT / "tests")]
    sys.path.insert(0, str(SRC.parent))
    import pytest

    label = ["(outside a test)"]
    status, hits = trace(SRC, lambda: pytest.main(args, plugins=[_Labeller(label)]), label)
    missed = unrun(SRC, hits)
    for name, line, text in missed:
        reason = ALLOWED.get((name, text), (0, ""))[1]
        print(f"{name}:{line}: {text}" + (f"    [allowed: {reason}]" if reason else ""))
    new, stale = check(missed, ALLOWED)
    for entry in stale:
        print(f"runs now, so delete it from ALLOWED: {entry}")
    print(f"{len(missed)} unrun statements, {len(new)} not allowed, {len(stale)} stale allowances")
    if map_path:
        tests = {
            f"{Path(name).name}:{line}": sorted(labels)
            for (name, line), labels in sorted(hits.items())
        }
        map_path.write_text(json.dumps(tests, indent=1) + "\n")
    return int(status != 0 or bool(new) or bool(stale))


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
