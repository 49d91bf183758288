"""A generative probe of the command line, built from the parser's own tables.

Every verb and every flag that takes a value is read from
`cli.build_parser()`, so a new verb or flag is probed without an edit
here; only a new required flag needs a well-formed value in ``GOOD``.
Each flag is given the values of ``MALFORMED`` while the verb's other
required flags stay well-formed; the flags that refuse a large level or
index before they allocate also get the values of ``LARGE``.  A flag
that argparse converts (an int, a float, a choice) gets every value that
its conversion accepts and only the first that it refuses, since argparse
refuses all the others by the same path.  At about 1.7 ms per argv,
nearly all of it building the parser, the table stays under 2 s.

All argv run one at a time in one child interpreter, through
`cli.main`, with its address space capped by ``resource.setrlimit``: a
regression that allocates without bound fails there, not on the host.
Every run must exit 0, 1 or 2 without a traceback and without running
out of memory under the cap; on exit 2 stderr holds exactly one
``error:`` line, after argparse's usage if argparse refused the argv.
"""

import argparse
import json
import subprocess
import sys
from pathlib import Path

import pytest

from latmirror import cli

SRC = Path(__file__).resolve().parents[1] / "src"

# the child's address-space cap: numpy and a verify fit in a few hundred MB
ADDRESS_SPACE = 1 << 30

# a well-formed value of every required flag, by family, verb and flag
GOOD = {
    ("cy1", "intersect"): {"--a": "1,0", "--b": "0,1"},
    ("cy1", "gft"): {"--rank": "2", "--deg": "3"},
    ("cy1", "odot"): {"--a": "1,0", "--b": "1,1"},
    ("cy1", "decompose"): {"--cycle": "2,4"},
    ("cy1", "atiyah"): {"--a": "2", "--b": "3"},
    ("cy1", "bs"): {"--level": "4"},
    ("cy1", "mirror"): {"--vector": "1:2"},
    ("cy2", "rr"): {"--ch1": "1:0:1", "--ch2": "1:1:0"},
    ("cy2", "mukai"): {"--ch": "1:0:1"},
    ("cy2", "moduli"): {"--ch": "1:0:1"},
    ("cy2", "mirror"): {"--divisor": "1"},
    ("cy2", "quantize"): {"--divisor": "1"},
    ("cy2", "check-H"): {"--gram": "0,1;1,-2", "--e": "1,0", "--s": "0,1"},
    ("cy2", "reflect"): {"--x": "-2,5,7", "--delta": "0,0,1"},
    ("cy3", "chi"): {"--bundle": "1:1:5/2:5/6"},
    ("cy3", "rr"): {"--ch1": "1:1:5/2:5/6", "--ch2": "1:0:0:0"},
    ("cy3", "mirror"): {"--vector": "1:1:5/2:5/6"},
    ("cy3", "slope"): {"--divisor": "1"},
    ("quant", "holonomy"): {"--level": "3", "--height": "0.25"},
    ("quant", "phase"): {"--curve": "segment.json"},
}

# values that no flag should turn into a traceback
MALFORMED = [
    "", "x", "-", "nan", "inf", "1e400", "0", "-1", "1.5", "1/0", "1/-2", ",", "1,",
    ":", ";", "1\n2", "\x00", ".",
]

# sizes that must be refused before anything is built
LARGE = ["1000001", "10000000000", str(2**63), "9" * 4000]
REFUSES_LARGE = {
    ("cy1", "bs", "--level"),
    ("cy1", "atiyah", "--a"),
    ("cy1", "atiyah", "--b"),
    ("quant", "holonomy", "--level"),
}

# argv whose failure is known and not yet mended; may only shrink
KNOWN = set()

CHILD = """
import io, json, resource, sys, traceback
from contextlib import redirect_stderr, redirect_stdout
cap = int(sys.argv[1])
resource.setrlimit(resource.RLIMIT_AS, (cap, cap))
from latmirror import cli
results = []
for argv in json.load(sys.stdin):
    out, err = io.StringIO(), io.StringIO()
    trace = None
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code
        except Exception:
            code, trace = None, traceback.format_exc()
    results.append([code, err.getvalue(), trace])
json.dump(results, sys.stdout)
"""


def _subparsers(parser):
    return next(
        (a.choices for a in parser._actions if isinstance(a, argparse._SubParsersAction)), None
    )


def leaves():
    """(family, verb, parser) of every leaf command; ``verify`` has no verb."""
    for family, fparser in _subparsers(cli.build_parser()).items():
        verbs = _subparsers(fparser)
        if verbs is None:
            yield family, None, fparser
        else:
            for verb, vparser in verbs.items():
                yield family, verb, vparser


def converts(action, value: str) -> bool:
    """Whether argparse's conversion of ``value`` for ``action`` succeeds."""
    try:
        converted = action.type(value) if action.type else value
    except (TypeError, ValueError):
        return False
    return action.choices is None or converted in action.choices


def probe_table():
    """Every probed argv: each leaf well-formed, then one flag malformed at a time."""
    table = []
    for family, verb, parser in leaves():
        head = [family] + ([verb] if verb else [])
        flags = [a for a in parser._actions if a.option_strings and a.nargs != 0]
        good = GOOD.get((family, verb), {})
        required = [a.option_strings[0] for a in flags if a.required]
        missing = set(required) - set(good)
        assert not missing, f"add a well-formed value for {head} {sorted(missing)} to GOOD"
        base = {flag: good[flag] for flag in required}
        table.append(head + [f"{f}={v}" for f, v in base.items()])
        for action in flags:
            flag = action.option_strings[0]
            values = MALFORMED + (LARGE if (family, verb, flag) in REFUSES_LARGE else [])
            refused = [v for v in values if not converts(action, v)]
            for value in [v for v in values if converts(action, v)] + refused[:1]:
                args = {**base, flag: value}
                table.append(head + [f"{f}={v}" for f, v in args.items()])
    return table


def exit_2_lines_ok(err: str) -> bool:
    """One ``error:`` line, last, after nothing or argparse's usage."""
    lines = err.splitlines()
    if not lines or sum("error:" in line for line in lines) != 1 or "error:" not in lines[-1]:
        return False
    usage = lines[:-1]
    return not usage or (
        usage[0].startswith("usage: ") and all(line.startswith(" ") for line in usage[1:])
    )


def test_every_probed_argv_exits_0_1_or_2_without_a_traceback(tmp_path):
    (tmp_path / "segment.json").write_text(json.dumps([[i / 63, 2 * i / 63] for i in range(64)]))
    table = probe_table()
    assert len(table) > 700  # the walk reached every family's verbs
    proc = subprocess.run(
        [sys.executable, "-c", CHILD, str(ADDRESS_SPACE)],
        input=json.dumps(table),
        capture_output=True,
        text=True,
        timeout=120,
        cwd=tmp_path,
        env={"PYTHONPATH": str(SRC), "PYTHONDONTWRITEBYTECODE": "1", "OPENBLAS_NUM_THREADS": "1"},
    )
    assert proc.returncode == 0, proc.stderr
    results = json.loads(proc.stdout)
    assert len(results) == len(table)
    bad = {}
    for argv, (code, err, trace) in zip(table, results):
        if trace is not None or "Traceback" in err or "out of memory" in err:
            bad[tuple(argv)] = trace or err
        elif code not in (0, 1, 2):
            bad[tuple(argv)] = f"exit {code!r}"
        elif code == 2 and not exit_2_lines_ok(err):
            bad[tuple(argv)] = err
    assert set(bad) == KNOWN, {argv: bad[argv] for argv in set(bad) - KNOWN}


@pytest.mark.parametrize(
    "err, ok",
    [
        ("error: level 0\n", True),
        ("usage: latmirror cy1 bs [-h]\n       [--json]\nlatmirror cy1 bs: error: x\n", True),
        ("", False),
        ("error: one\nerror: two\n", False),
        ("error: one\nsecond line\n", False),
        ("warning: w\nerror: e\n", False),
    ],
)
def test_exit_2_line_rule(err, ok):
    assert exit_2_lines_ok(err) is ok
