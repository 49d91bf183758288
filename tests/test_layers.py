"""The package's layering: each layer loads only what it uses.

A bare `import latmirror` loads no other module: every public name and
every submodule resolves on first access.  The K3 mirror map, count and
chamber walk, the exact CLI families, parsing a manifest with its
fixtures, and a verify of exact suites must run without numpy in
`sys.modules`.  A full `latmirror verify` loads numpy before the first
suite's timer, never inside one, and leaves `numpy.fft` and the other
families' command handlers unloaded; the parser built with one family's
verbs must print every help text of that family as the full parser does.
The float layer's holonomy and flat coordinate at one scalar height must
not call numpy at all.  The import checks run in fresh interpreters,
since this test process has numpy loaded already.  Every suite's
parameters, and the retired ones a manifest may still pass, are pinned.
Two tests guard the benchmark in `perfbench/`: every name it takes from
the package must still resolve, and its report check must accept the
golden verify report.
"""

import argparse
import ast
import importlib
import json
import re
import runpy
import subprocess
import sys
from pathlib import Path

import pytest

import latmirror
from latmirror import cli, manifest, numeric, shared, suites

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"

EXACT_PROBE = """
import io, sys
from contextlib import redirect_stdout
assert "numpy" not in sys.modules, "numpy loaded before latmirror"
import latmirror
from latmirror import cli, core, cy1, cy2, cy3, fixtures
fixtures.load_k3_fixture("k3_quartic")
fixtures.load_cy3_fixture("quintic")
X = fixtures.load_k3_fixture("k3_reflective")
assert cy2.walk_to_chamber((1, 3, 4), X.roots, X).steps > 0
assert cy2.mirror_k3((2, 1, 0), X).e == -1
assert cy2.verify_quantization_k3((2, 1, 0), X).h0 == 3
for argv in (
    ["cy1", "intersect", "--a", "1,0", "--b", "0,1"],
    ["cy2", "mukai", "--ch", "1:0:0"],
    ["cy2", "rr", "--ch1", "1:0:0", "--ch2", "1:1:2"],
    ["cy2", "moduli", "--ch", "1:1:2"],
    ["cy3", "chi", "--bundle", "1:1:5/2:5/6"],
    ["cy3", "slope", "--divisor", "1"],
):
    with redirect_stdout(io.StringIO()):
        assert cli.main(argv) == 0, argv
print(
    sorted(m for m in sys.modules if m.split(".")[0] == "numpy"),
    "dataclasses" in sys.modules,
    "inspect" in sys.modules,
)
"""


def run_fresh(*args):
    """Run the interpreter with only `src` on PYTHONPATH, writing no bytecode."""
    return subprocess.run(
        [sys.executable, *args],
        capture_output=True,
        text=True,
        timeout=120,
        env={"PYTHONPATH": str(SRC), "PYTHONDONTWRITEBYTECODE": "1"},
    )


def test_exact_imports_and_commands_leave_numpy_unloaded():
    # nor `dataclasses` and the `inspect` it loads, about a third of a
    # cold `import latmirror`
    proc = run_fresh("-c", EXACT_PROBE)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[] False False\n"


@pytest.mark.parametrize(
    "argv, last_line",
    [
        pytest.param(["quant", "holonomy", "--level", "3", "--height", "0.5"],
                     "-1.000000000000000 +0.000000000000000i", id="quant-holonomy"),
        (["verify"], "result: PASS"),
    ],
)
def test_numeric_commands_run_from_a_fresh_interpreter(argv, last_line):
    proc = run_fresh("-m", "latmirror.cli", *argv)
    assert (proc.returncode, proc.stderr) == (0, "")
    assert proc.stdout.splitlines()[-1] == last_line


VERIFY_PROBE = """
import io, sys
from contextlib import redirect_stdout
from latmirror import cli
with redirect_stdout(io.StringIO()):
    assert cli.main(["verify"]) == 0
print(
    "numpy" in sys.modules,
    "numpy.fft" in sys.modules,
    "latmirror.commands" in sys.modules,
    "dataclasses" in sys.modules,
)
"""


def test_verify_leaves_numpy_fft_unloaded():
    # the theta phases are looked up among roots of unity; the first use of
    # numpy.fft would import it, a cost every cold `latmirror verify` pays;
    # so would compiling and building the verbs of the other four families,
    # and importing `dataclasses`
    proc = run_fresh("-c", VERIFY_PROBE)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "True False False False\n"


BARE_IMPORT_PROBE = """
import sys
before = set(sys.modules)
import latmirror
print(sorted(set(sys.modules) - before))
"""


def test_a_bare_import_loads_nothing_else():
    # no exact layer (and so no fractions), no float layer, no numpy
    proc = run_fresh("-c", BARE_IMPORT_PROBE)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "['latmirror']\n"


RESOLVE_PROBE = """
import sys, types
import latmirror
for name in latmirror.__all__:
    getattr(latmirror, name)
for name in sys.argv[1:]:
    module = getattr(latmirror, name)
    assert isinstance(module, types.ModuleType) and module.__name__ == "latmirror." + name, name
    assert name in dir(latmirror), name
print("ok")
"""


def test_every_public_name_and_submodule_resolves_from_a_fresh_import():
    # `import latmirror; latmirror.suites` must work without a prior
    # `import latmirror.suites`
    submodules = sorted(p.stem for p in (SRC / "latmirror").glob("*.py") if p.stem != "__init__")
    assert {"cli", "core", "numeric", "suites"} <= set(submodules)
    proc = run_fresh("-c", RESOLVE_PROBE, *submodules)
    assert (proc.returncode, proc.stdout) == (0, "ok\n"), proc.stderr


PARSE_PROBE = """
import sys
import latmirror
manifest = latmirror.parse_manifest(latmirror.DEFAULT_MANIFEST)
for name in manifest.fixtures:
    latmirror.load_fixture(name, manifest.base)
print("numpy" in sys.modules, "latmirror.numeric" in sys.modules)
"""


def test_parsing_a_manifest_and_loading_its_fixtures_leave_the_float_layer_unloaded():
    proc = run_fresh("-c", PARSE_PROBE)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "False False\n"


EXACT_VERIFY_PROBE = """
import io, sys
from contextlib import redirect_stdout
from latmirror import cli
with redirect_stdout(io.StringIO()):
    code = cli.main(["verify", "--manifest", sys.argv[1]])
print(code, "numpy" in sys.modules, "latmirror.numeric" in sys.modules)
"""


def test_a_verify_of_exact_suites_only_never_loads_numpy(tmp_path):
    default = json.loads(shared.DEFAULT_MANIFEST.read_text())
    exact = {
        "version": default["version"],
        "fixtures": [str(shared.DEFAULT_MANIFEST.parent / name) for name in default["fixtures"]],
        "suites": [s for s in default["suites"] if not s["name"].startswith("quant-")],
    }
    assert len(exact["suites"]) == 12
    path = tmp_path / "exact.json"
    path.write_text(json.dumps(exact))
    proc = run_fresh("-c", EXACT_VERIFY_PROBE, str(path))
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "0 False False\n"


TIMER_PROBE = """
import sys, time
from latmirror import manifest
parsed = manifest.parse_manifest(manifest.DEFAULT_MANIFEST)
seen = ["numpy" in sys.modules]


class Clock:
    def perf_counter(self):
        seen.append("numpy" in sys.modules)
        return time.perf_counter()


manifest.time = Clock()
assert manifest.run_verify(parsed).passed
print(seen[0], len(seen) - 1, all(seen[1:]))
"""


def test_no_suite_timer_includes_loading_the_float_layer():
    # numpy is not loaded by the parse, and is loaded before the first of
    # the 16 suites' two perf_counter calls
    proc = run_fresh("-c", TIMER_PROBE)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "False 32 True\n"


def subcommands(parser) -> dict:
    """name -> parser of each subcommand of `parser` (none if it has no subparsers)."""
    actions = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    return actions[0].choices if actions else {}


@pytest.mark.parametrize("family", ["cy1", "cy2", "cy3", "quant", "verify"])
def test_the_parser_of_one_family_helps_as_the_full_parser_does(family):
    # `main` builds only the verbs of the family it is given; every help
    # text at the family's levels is the one a parser of all families prints
    full, lazy = cli.build_parser(), cli.build_parser((family,))
    assert lazy.format_help() == full.format_help() == cli.build_parser(()).format_help()
    full_family, lazy_family = subcommands(full)[family], subcommands(lazy)[family]
    assert lazy_family.format_help() == full_family.format_help()
    verbs = subcommands(full_family)
    assert list(subcommands(lazy_family)) == list(verbs)
    assert (family == "verify") == (not verbs)
    for name, verb in verbs.items():
        assert subcommands(lazy_family)[name].format_help() == verb.format_help(), name
    others = set(subcommands(full)) - {family}
    assert not any(subcommands(subcommands(lazy)[other]) for other in others)


class _NoNumpy:
    """Stands in for numpy in `numeric`: any use of it raises."""

    def __getattr__(self, name):
        raise AssertionError(f"numpy.{name} used at a scalar height")


def test_scalar_heights_stay_off_numpy(monkeypatch):
    # a height is checked by one type test and one chained comparison and
    # exponentiated by cmath; np.exp (the fibre search's route) and every
    # other numpy name must go unused, an array height refused included
    model = numeric.TorusModel(tau=0.5 + 1j, level=7)
    want = numeric.holonomy_character(model, 0.3)
    heights = numeric.np.array([0.3])
    monkeypatch.setattr(numeric, "np", _NoNumpy())
    for t in (0.3, 0, 1):
        assert type(numeric.holonomy_character(model, t)) is complex
    assert numeric.holonomy_character(model, 0.3) == want
    with pytest.raises(ValueError, match=r"^fibre height must lie in \[0, 1\], got nan$"):
        numeric.holonomy_character(model, float("nan"))
    with pytest.raises(ValueError, match="^fibre height must be a float or an int, got ndarray$"):
        numeric.holonomy_character(model, heights)


def test_lazy_names_resolve_and_are_listed(capsys, monkeypatch):
    for name in latmirror.__all__:
        getattr(latmirror, name)
    assert set(latmirror.__all__) <= set(dir(latmirror))
    with pytest.raises(AttributeError, match="module 'latmirror' has no attribute 'nope'"):
        latmirror.nope
    # one class per name, wherever it is imported from
    assert numeric.ConsistencyError is shared.ConsistencyError is latmirror.ConsistencyError
    assert manifest.ManifestError is shared.ManifestError is latmirror.ManifestError
    assert numeric.ROOT_TOL is shared.ROOT_TOL
    assert manifest.DEFAULT_MANIFEST is latmirror.DEFAULT_MANIFEST
    # a submodule that is not bound on the package yet loads on first use
    monkeypatch.delattr(latmirror, "report")
    assert latmirror.report is sys.modules["latmirror.report"]

    def disagree(model, t):
        raise numeric.ConsistencyError("routes disagree")

    monkeypatch.setattr(numeric, "holonomy_character", disagree)
    assert cli.main(["quant", "holonomy", "--level", "4", "--height", "0.5"]) == 1
    assert capsys.readouterr().err == "check failed: routes disagree\n"


# the package's public surface; adding or dropping an exported name changes this list
PUBLIC_NAMES = [
    "AtiyahElement", "CY3Descriptor", "ConsistencyError", "CycleClass1", "DEFAULT_MANIFEST",
    "EULER_K3", "FixtureError", "GftClassK3", "GradedVector", "H_GRAM", "K3Descriptor",
    "LatticeError", "Manifest", "ManifestError", "MirrorClass3", "MirrorClassK3",
    "NonIntegralEulerWarning", "ParamCurve", "Rank3Sublattice", "RingDescriptor",
    "ShapeError", "Slope", "ToddData", "TorusModel", "arc_curve", "atiyah_tensor",
    "bs_points", "canonical_rank3_sublattice", "check_main_condition", "chi_bundle3", "cup",
    "cycle_pairing", "decompose_primitive", "euler_pairing3", "find_bs_fibres",
    "format_rational", "gft_class", "gft_class_k3", "gft_s0_intersection3",
    "holonomy_character", "intersection_count", "line_bundle_ch",
    "load_cy3_fixture", "load_fixture", "load_k3_fixture", "mirror_cy1", "mirror_cy3",
    "mirror_k3", "mirror_pairing3", "mirror_pairing_k3", "moduli_dim2", "mukai2", "odot",
    "pair_exotic", "pair_sym", "parse_manifest", "phase_map_curve", "reflect_minus2",
    "resolve_fixture", "run_verify", "segment_curve", "star", "theta_basis_rank",
    "todd_data", "verify_quantization_k3", "walk_to_chamber", "winding_number",
]


def test_public_names_are_pinned():
    assert latmirror.__all__ == PUBLIC_NAMES


# suite -> (its parameters, the retired ones a manifest may still pass)
SUITE_PARAMETERS = {
    "cy1-quantization": ({"k_max"}, set()),
    "cy1-mirror-isometry": (set(), {"samples", "seed", "bound"}),
    "cy1-gft-homomorphism": (set(), {"samples", "seed", "bound"}),
    "cy1-atiyah": ({"max_index"}, {"triples", "seed"}),
    "k3-quantization": ({"l2_max", "fixture"}, set()),
    "k3-reflections": ({"fixture"}, {"samples", "seed"}),
    "k3-mirror-transport": ({"fixture"}, {"samples", "seed", "bound"}),
    "k3-main-condition": (set(), set()),
    "cy3-skew": ({"fixtures"}, {"samples", "seed", "bound"}),
    "cy3-mirror-isometry": ({"fixtures"}, {"samples", "seed", "bound"}),
    "cy3-quantization": ({"fixtures"}, set()),
    "cy3-sublattice": ({"fixtures"}, set()),
    "quant-bs": ({"k_max", "tau"}, {"tol"}),
    "quant-holonomy": ({"k_max"}, {"samples", "seed"}),
    "quant-theta-rank": ({"k_max", "taus"}, set()),
    "quant-phase": (set(), set()),
}


def test_suite_parameters_are_pinned():
    # a new knob must change this table; no suite takes a seed
    got = {
        name: (set(suite.defaults), manifest._RETIRED_PARAMS.get(name, set()))
        for name, suite in suites.SUITES.items()
    }
    assert got == SUITE_PARAMETERS
    assert [name for name, suite in suites.SUITES.items() if "seed" in suite.defaults] == []


def test_no_module_imports_random():
    # every suite checks a basis, a grid or a whole finite set
    imported = set()
    for path in sorted((SRC / "latmirror").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                imported.update(a.name.split(".")[0] for a in node.names)
            elif isinstance(node, ast.ImportFrom):
                imported.add((node.module or "").split(".")[0])
    assert "itertools" in imported
    assert "random" not in imported


def test_readme_library_example_runs():
    text = (ROOT / "README.md").read_text()
    section = text.split("## Library", 1)[1]
    code = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    exec(compile(code, "README.md", "exec"), {})


def perfbench_uses():
    """(module, name) for every name the benchmark's files take from latmirror.

    Covers ``from latmirror[.mod] import name`` and ``alias.name`` where
    ``import latmirror as alias``; the files are parsed, never run.
    """
    uses = set()
    for path in sorted((ROOT / "perfbench").rglob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        aliases = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "latmirror":
                uses.update((node.module, a.name) for a in node.names)
            elif isinstance(node, ast.Import):
                aliases.update(a.asname for a in node.names if a.name == "latmirror" and a.asname)
        for node in ast.walk(tree):
            if (
                isinstance(node, ast.Attribute)
                and isinstance(node.value, ast.Name)
                and node.value.id in aliases
            ):
                uses.add(("latmirror", node.attr))
    return uses


def test_every_name_the_benchmark_uses_resolves():
    uses = perfbench_uses()
    assert ("latmirror.numeric", "QUADRATURE_TOL") in uses
    assert ("latmirror", "holonomy_character") in uses
    importlib.import_module("latmirror.cli")  # the benchmark reads lm.cli
    missing = [
        f"{module}.{name}"
        for module, name in sorted(uses)
        if not hasattr(importlib.import_module(module), name)
    ]
    assert missing == []


def test_the_benchmark_report_check_accepts_the_golden_report():
    # the benchmark refuses a verify report whose check counts differ from
    # those its rules derive from the shipped manifest; run_path reads the
    # file and writes no bytecode next to it
    check = runpy.run_path(str(ROOT / "perfbench" / "reportcheck.py"))
    golden = json.loads((ROOT / "tests" / "data" / "verify_default.golden.json").read_text())
    counts = check["expected_check_counts"](check["shipped_manifest"](ROOT))
    assert check["verify_faults"](0, golden, counts) == []


def test_records_are_named_tuples_and_checking_classes_check_in_init():
    # a record that only carries values is a NamedTuple, the one kind of
    # class that declares fields; a class that checks its input derives
    # from shared.ReadOnly and checks it in its __init__; no module
    # imports dataclasses
    imports, declaring, read_only, checking = [], set(), {"ReadOnly"}, set()
    for path in sorted((SRC / "latmirror").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                imports += [a.name.split(".")[0] for a in node.names]
            elif isinstance(node, ast.ImportFrom):
                imports.append((node.module or "").split(".")[0])
            if not isinstance(node, ast.ClassDef):
                continue
            bases = {getattr(b, "id", None) for b in node.bases}
            if any(isinstance(f, ast.AnnAssign) for f in node.body):
                declaring.add((node.name, "NamedTuple" in bases))
            # a base is defined before the classes that derive from it
            if bases & read_only:
                read_only.add(node.name)
                inits = [f for f in node.body if getattr(f, "name", None) == "__init__"]
                assert inits, f"{node.name} has no __init__"
                if any(isinstance(n, ast.Raise) for n in ast.walk(inits[0])):
                    checking.add(node.name)
    assert "dataclasses" not in imports
    assert declaring and [name for name, is_tuple in sorted(declaring) if not is_tuple] == []
    assert read_only - {"ReadOnly"} == {
        "GradedVector", "RingDescriptor", "Slope", "AtiyahElement",
        "K3Descriptor", "CY3Descriptor", "MirrorClass3", "Rank3Sublattice", "TorusModel",
        "ParamCurve",
    }
    assert {"GradedVector", "AtiyahElement", "ParamCurve"} <= checking


def unused_imports(path: Path) -> list:
    """``file:line name`` for each name the module imports and never uses.

    A use is any ``Name`` node, the base of an attribute chain included, or
    a name inside a string annotation (``-> "GradedVector"``).  Lines marked ``# noqa: F401`` are
    skipped, as are ``from __future__`` imports.
    """
    source = path.read_text()
    tree = ast.parse(source, str(path))
    lines = source.splitlines()
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            if getattr(node, "module", None) == "__future__" or "# noqa: F401" in lines[node.lineno - 1]:
                continue
            for a in node.names:
                imported[a.asname or a.name.split(".")[0]] = node.lineno
    used, annotations = set(), []
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            annotations.append(node.returns)
        elif isinstance(node, (ast.arg, ast.AnnAssign)):
            annotations.append(node.annotation)
    for node in filter(None, annotations):
        for text in ast.walk(node):
            if isinstance(text, ast.Constant) and isinstance(text.value, str):
                parsed = ast.parse(text.value, mode="eval")
                used.update(n.id for n in ast.walk(parsed) if isinstance(n, ast.Name))
    return [f"{path.name}:{line} {name}" for name, line in imported.items() if name not in used]


def test_src_modules_import_nothing_unused(tmp_path):
    # __init__.py imports to re-export
    modules = sorted(p for p in (SRC / "latmirror").glob("*.py") if p.name != "__init__.py")
    assert [f for path in modules for f in unused_imports(path)] == []
    # the check sees an unused import, and a marked one it skips
    toy = tmp_path / "toy.py"
    toy.write_text(
        "from math import gcd, lcm\nimport os  # noqa: F401\nimport sys\n"
        "def f(x: 'Fraction') -> int:\n    return gcd(x, sys.maxsize)\n"
    )
    assert unused_imports(toy) == ["toy.py:1 lcm"]


# parameters that no body reads but a caller still passes; this list may only
# shrink.  `model` goes together with its calls in `perfbench/`.
KNOWN_UNREAD_PARAMETERS = ["numeric.phase_map_curve model"]


def unread_parameters(path: Path) -> list:
    """``module.qualified_name parameter`` for each parameter that its function never reads.

    A read is a ``Name`` in load context anywhere in the body, nested
    functions included; a parameter that is only assigned is not read.
    Exempt by name are dunder methods, whose signature the protocol fixes,
    and the ``params`` and ``fixtures`` of the ``_run_*`` suite runners,
    which share one signature.
    """
    unread = []

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if not isinstance(child, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, scope)
                continue
            inner = (*scope, child.name)
            if not isinstance(child, ast.ClassDef) and not re.fullmatch(r"__\w+__", child.name):
                args = child.args
                params = [a.arg for a in (*args.posonlyargs, *args.args, *args.kwonlyargs)]
                params += [a.arg for a in (args.vararg, args.kwarg) if a]
                if child.name.startswith("_run_"):
                    params = [p for p in params if p not in ("params", "fixtures")]
                read = {
                    n.id for stmt in child.body for n in ast.walk(stmt)
                    if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)
                }
                unread.extend(f"{path.stem}.{'.'.join(inner)} {p}" for p in params if p not in read)
            visit(child, inner)

    visit(ast.parse(path.read_text(), str(path)), ())
    return unread


def test_src_functions_read_every_parameter(tmp_path):
    modules = sorted((SRC / "latmirror").glob("*.py"))
    assert [f for path in modules for f in unread_parameters(path)] == KNOWN_UNREAD_PARAMETERS
    # the check sees a parameter that is never read or only assigned, and
    # skips the exempt names; a read in a nested function counts
    toy = tmp_path / "toy.py"
    toy.write_text(
        "def f(a, b, *rest, c=1, **kw):\n    b = a\n    return lambda: c + len(kw)\n"
        "def _run_x(params, fixtures, extra):\n    return []\n"
        "class C:\n    def __eq__(self, other):\n        return True\n"
        "    def g(self, x):\n        def h():\n            return x\n        return h\n"
    )
    assert unread_parameters(toy) == [
        "toy.f b", "toy.f rest", "toy._run_x extra", "toy.C.g self",
    ]


# the private constructors that skip a class's checks, for values the module computed
UNCHECKED_CONSTRUCTORS = {"GradedVector._of_numerators", "AtiyahElement._of_terms"}


def object_new_uses(path: Path) -> list:
    """(qualified name of the enclosing def, line) of each ``object.__new__`` in a module."""
    uses = []

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, (*scope, child.name))
                continue
            if (
                isinstance(child, ast.Attribute) and child.attr == "__new__"
                and isinstance(child.value, ast.Name) and child.value.id == "object"
            ):
                uses.append((".".join(scope), child.lineno))
            visit(child, scope)

    visit(ast.parse(path.read_text(), str(path)), ())
    return uses


def stray_object_new(paths) -> list:
    """``file:line scope`` for each ``object.__new__`` outside UNCHECKED_CONSTRUCTORS."""
    return [
        f"{path.name}:{line} {scope}"
        for path in paths
        for scope, line in object_new_uses(path)
        if scope not in UNCHECKED_CONSTRUCTORS
    ]


def test_object_new_only_in_the_unchecked_constructors(tmp_path):
    # a third way past a class's checks has to be named here to land
    modules = sorted((SRC / "latmirror").glob("*.py"))
    assert stray_object_new(modules) == []
    assert {scope for path in modules for scope, _ in object_new_uses(path)} == UNCHECKED_CONSTRUCTORS
    # the scan sees a use outside them, in a method or a module-level function
    toy = tmp_path / "toy.py"
    toy.write_text(
        "class GradedVector:\n"
        "    @classmethod\n"
        "    def _of_numerators(cls):\n"
        "        return object.__new__(cls)\n"
        "    def copy(self):\n"
        "        return object.__new__(type(self))\n"
        "def shortcut(cls):\n"
        "    new = object.__new__\n"
        "    return new(cls)\n"
    )
    assert stray_object_new([toy]) == ["toy.py:6 GradedVector.copy", "toy.py:8 shortcut"]
