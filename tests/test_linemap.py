"""The line-map tool (`tests/linemap.py`) on a toy module.

The tool itself runs Tier-1 under a tracer, which roughly triples its
run time, so it is a script; this file checks its parts in-process.
"""

import importlib.util

import linemap

TOY = '''import functools


def sign(x):
    """A docstring is held as a constant, not run."""
    if x < 0:
        return -1
    return (
        1
    )


@functools.lru_cache
def twice(x):
    return 2 * x
'''


def run_toy(tmp_path):
    path = tmp_path.resolve() / "toy.py"
    path.write_text(TOY)

    def run():
        spec = importlib.util.spec_from_file_location("linemap_toy", path)
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
        return module.sign(2)

    return path, linemap.trace(tmp_path, run, ["toy-test"])


def test_linemap_lists_the_statements_that_never_ran(tmp_path):
    path, (result, hits) = run_toy(tmp_path)
    assert result == 1
    # the multi-line return is one statement; the def owns its decorator
    # line and ran when the module loaded; the docstring holds no code
    assert linemap.unrun(tmp_path, hits) == [("toy.py", 7, "return -1"), ("toy.py", 15, "return 2 * x")]
    assert hits[str(path), 6] == {"toy-test"}
    assert linemap.statements(path) == {
        1: (1,), 4: (4,), 6: (6,), 7: (7,), 8: (8, 9), 14: (13, 14), 15: (15,),
    }


def test_linemap_allows_only_what_it_lists(tmp_path):
    _, (_, hits) = run_toy(tmp_path)
    missed = linemap.unrun(tmp_path, hits)
    why = "reason"
    assert linemap.check(missed, {("toy.py", "return -1"): (1, why)}) == (
        ["toy.py:15: return 2 * x"], [],
    )
    assert linemap.check(missed, {
        ("toy.py", "return -1"): (1, why), ("toy.py", "return 2 * x"): (1, why),
    }) == ([], [])
    # an entry that allows more than is unrun is stale, and must shrink
    assert linemap.check(missed, {
        ("toy.py", "return -1"): (2, why), ("toy.py", "return 2 * x"): (1, why),
    }) == ([], ["toy.py: return -1"])
    assert linemap.check(missed, {}) == (["toy.py:7: return -1", "toy.py:15: return 2 * x"], [])


def test_linemap_allowed_list_gives_every_entry_a_reason():
    assert linemap.ALLOWED
    for (name, text), (count, reason) in linemap.ALLOWED.items():
        assert (linemap.SRC / name).is_file() and text in (linemap.SRC / name).read_text()
        assert count >= 1 and len(reason) > 20
