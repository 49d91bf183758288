"""What the benchmark keeps apart from the package, and its contract."""

import ast
import json
import os
import shutil
import subprocess
import sys
import types
from pathlib import Path

import pytest

import inputs
import run
import worker
import workloads

BENCH = Path(run.__file__).resolve().parent
ROOT = BENCH.parent

# modules that must not import latmirror at all
PACKAGE_FREE = ("refkernel.py", "closed_forms.py", "inputs.py", "reportcheck.py", "run.py")


def imported_roots(path: Path) -> set:
    roots = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Import):
            roots.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module:
            roots.add(node.module.split(".")[0])
    return roots


@pytest.mark.parametrize("name", PACKAGE_FREE)
def test_module_does_not_import_the_package(name):
    assert "latmirror" not in imported_roots(BENCH / name)


def test_reference_kernel_imports_nothing_from_latmirror():
    assert imported_roots(BENCH / "refkernel.py") <= {
        "__future__", "cmath", "math", "statistics", "time", "fractions", "numpy",
    }
    probe = (
        f"import sys; sys.path.insert(0, {str(BENCH)!r}); import refkernel; "
        "refkernel.reference_kernel(); "
        "print([m for m in sys.modules if m.split('.')[0] == 'latmirror'])"
    )
    out = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[]"


class Recorder:
    """Stands in for the package; logs every call and forwards it."""

    def __init__(self, target, log, name):
        self._target, self._log, self._name = target, log, name

    def __getattr__(self, attr):
        value = getattr(self._target, attr)
        if isinstance(value, types.ModuleType) or callable(value):
            return Recorder(value, self._log, f"{self._name}.{attr}")
        return value

    def __call__(self, *args, **kwargs):
        self._log.append((self._name, args, kwargs))
        return self._target(*args, **kwargs)


def strings_in(value) -> list:
    if isinstance(value, (str, Path)):
        return [str(value)]
    if isinstance(value, dict):
        return [s for k, v in value.items() for s in strings_in(k) + strings_in(v)]
    if isinstance(value, (tuple, list, set, frozenset)):
        return [s for v in value for s in strings_in(v)]
    return []


def recorded_calls(monkeypatch, fn) -> list:
    log = []
    monkeypatch.setattr(workloads, "lm", Recorder(workloads.lm, log, "latmirror"))
    fn()
    return log


def run_long_lived(name, seed):
    workload = workloads.BUILDERS[name](seed)
    workload.run()


@pytest.mark.parametrize("name", sorted(workloads.BUILDERS))
def test_package_gets_only_generated_inputs(monkeypatch, name):
    calls = {seed: recorded_calls(monkeypatch, lambda: run_long_lived(name, seed)) for seed in (1, 2)}
    for log in calls.values():
        assert log
        for _, args, kwargs in log:
            for text in strings_in([args, kwargs]):
                assert not any(w in text for w in run.WORKLOADS), text
    # the values come from the seed
    assert [repr(c[1]) for c in calls[1]] != [repr(c[1]) for c in calls[2]]


def test_verify_pass_gets_no_workload_name(monkeypatch):
    log = recorded_calls(monkeypatch, workloads.verify_pass)
    assert [(name, args) for name, args, _ in log] == [("latmirror.cli.main", (["verify", "--json"],))]


def test_benchmark_json_matches_run():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert spec["command"] == ["python3", "perfbench/run.py"]
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert [m["name"] for m in spec["per_layer"]] == list(run.PER_LAYER)
    for metric in spec["per_layer"]:
        assert metric["unit"] == run.unit_of(metric["name"])


def test_exact_setup_loads_the_workloads_fixtures():
    labels = [label for label, _ in (*inputs.THREEFOLDS, *inputs.K3S)]
    assert list(worker.EXACT_FIXTURES) == labels
    for label in labels:
        workloads.lm.load_fixture(f"{label}.json", worker.BENCH_FIXTURES)


def test_setup_imports_only_the_package():
    probe = (
        f"import sys; sys.path.insert(0, {str(BENCH)!r}); import worker; "
        "worker._setup('exact-construct'); "
        "print(sorted({m.split('.')[0] for m in sys.modules} & {'inputs', 'workloads', 'closed_forms'}), "
        "'latmirror.cli' in sys.modules)"
    )
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    out = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True, check=True, env=env)
    assert out.stdout.strip() == "[] False"


def test_refuses_to_run_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "torus-numeric", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert "correct" not in proc.stdout
