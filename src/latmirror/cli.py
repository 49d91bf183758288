"""Command line front end.

Grammar: ``latmirror <cy1|cy2|cy3|quant|verify> <verb> [flags]``.  Every
command takes ``--json`` for machine-readable output.

Exit codes: 0 all checks pass, 1 a verification failed or stdout was
closed before the output was written (``latmirror cy1 bs --level 20000 |
head -c 10``), 2 usage or parse error (bad flags, malformed manifest or
fixture), a request refused as too large (``cy1 bs --level 10000000``) or
one that runs out of memory.

This module holds ``verify`` and the top-level parser, which lists all
five families.  The handlers, verbs and flags of ``cy1``, ``cy2``, ``cy3``
and ``quant`` live in `commands`, which `main` imports only when the
command line names one of those families, so ``latmirror verify`` never
compiles or builds them.  ``verify`` imports `manifest`, which loads
`numeric` and numpy only for a manifest that selects a ``quant-*``
suite; the ``quant`` handlers import `numeric`.  So the exact families,
and a verify of exact suites, run without loading numpy.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import sys

from .shared import DEFAULT_MANIFEST, ConsistencyError


def _h_verify(args):
    from .manifest import parse_manifest, run_verify

    manifest = parse_manifest(args.manifest)
    result = run_verify(manifest)
    lines = []
    for rep in result.reports:
        n_fail = sum(1 for c in rep.checks if not c.ok)
        lines.append(
            f"{rep.status.upper():5s} {rep.suite:24s} "
            f"{len(rep.checks):3d} checks, {n_fail} failed  ({rep.duration_s:.2f}s)"
        )
        for c in rep.checks:
            if not c.ok:
                lines.append(f"      FAIL {c.name}: got {c.got}")
    lines.append("result: " + ("PASS" if result.passed else "FAIL"))
    return result.exit_code, result.to_json(), "\n".join(lines)


# -------------------------------------------------------------- parser ----

class _Parser(argparse.ArgumentParser):
    """Reads ``-1,2``, ``-2:1/3,0:5`` and ``-1,0;0,2`` as values, not options.

    argparse takes an argument that starts with ``-`` for a value only if
    it looks like a plain negative number; here the pairs, tuples, blocks
    and Gram rows that start with a negative number qualify as well.  Its
    subparsers are built from the same class.
    """

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = re.compile(r"^-\d[\d.,:/;-]*$|^-\d*\.\d+$")


# The families whose verbs live in `commands`, with their help texts.
_FAMILIES = {
    "cy1": "rank/degree lattice of the elliptic curve",
    "cy2": "K3 lattice calculus",
    "cy3": "threefold lattice calculus",
    "quant": "numerical torus verification",
}


def build_parser(families=tuple(_FAMILIES)) -> argparse.ArgumentParser:
    """The parser of every family, with the verbs of `families` only.

    Every family is listed with its help whatever `families` holds, and
    ``verify`` always has its flags.  argparse reads a family's verbs only
    when it dispatches to that family, so a parser holding the verbs of
    the family on the command line parses it as one holding all of them.
    """
    parser = _Parser(
        prog="latmirror",
        description="Exact mirror-lattice arithmetic and its numerical verifier.",
    )
    top = parser.add_subparsers(dest="family", required=True)
    for name, helptext in _FAMILIES.items():
        p = top.add_parser(name, help=helptext)
        if name in families:
            from .commands import add_verbs

            add_verbs(name, p)

    p_verify = top.add_parser("verify", help="run the verification manifest")
    p_verify.add_argument("--manifest", default=str(DEFAULT_MANIFEST))
    p_verify.add_argument("--json", action="store_true")
    p_verify.set_defaults(handler=_h_verify)

    return parser


def main(argv=None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    # argparse dispatches on the first token that names a family: no
    # top-level option takes a value, so no earlier token can be one
    family = next((token for token in argv if token in _FAMILIES or token == "verify"), None)
    args = build_parser((family,)).parse_args(argv)
    try:
        code, payload, text = args.handler(args)
    except ConsistencyError as exc:
        print(f"check failed: {exc}", file=sys.stderr)
        return 1
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MemoryError as exc:  # numpy's _ArrayMemoryError names the array it could not allocate
        print(f"error: out of memory: {exc}" if str(exc) else "error: out of memory", file=sys.stderr)
        return 2
    try:
        print(json.dumps(payload, indent=2, sort_keys=True) if args.json else text)
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader is gone; stdout goes to devnull so that the interpreter's
        # final flush stays quiet (the recipe of the `signal` module docs)
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    return code


if __name__ == "__main__":
    sys.exit(main())
