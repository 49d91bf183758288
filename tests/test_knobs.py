"""Every default parameter of every suite changes what the suite reports.

Each suite runs at its defaults and again with one parameter perturbed to
a value of the same shape: a count goes down by one, a [re, im] pair
moves, a list keeps its length and a fixture name keeps its kind.  Some
``ok`` or ``got`` field must change; a refused input counts, as the
failing "suite preconditions" check that ``run_verify`` reports.  A
parameter that changes nothing is a flag kept for nothing, unless
``KNOWN`` lists it.
"""

import pytest

from latmirror import CY3Descriptor, RingDescriptor, load_fixture
from latmirror.suites import SUITES, SuiteInputError

from oracles import p1p1p2_223

# suite.parameter -> why it changes no ok or got field.  The list may only
# shrink: a listed parameter that starts to change a field fails the test.
KNOWN = {
    "quant-bs.tau": "the marked fibres j/k depend on the level alone (ROADMAP item 2)",
    "quant-theta-rank.taus": "the theta rank is the level for every tau (ROADMAP item 2)",
    "cy3-sublattice.fixtures": (
        "both restricted forms on <[X], c2, [pt]> are the same matrices for every "
        "threefold, so the check compares a constant with a constant (ROADMAP item 3)"
    ),
}

SHIPPED = ("quintic", "bicubic", "k3_quartic", "k3_elliptic", "k3_reflective")
CASES = [(name, key) for name, suite in SUITES.items() for key in suite.defaults]


@pytest.fixture(scope="module")
def fixtures():
    loaded = {fx.label: fx for fx in map(load_fixture, SHIPPED)}
    # a third threefold, so that a list of two threefolds can change and keep its length
    cubic, c2 = p1p1p2_223()
    ring = RingDescriptor(dim=3, picard_rank=3, cubic=cubic, c2=c2)
    loaded["p1p1p2"] = CY3Descriptor(ring=ring, label="p1p1p2")
    return loaded


def is_tau(x) -> bool:
    return type(x) is list and len(x) == 2 and all(type(v) in (int, float) for v in x)


def another(fixtures, names, kind) -> str:
    return next(label for label, fx in sorted(fixtures.items()) if type(fx) is kind and label not in names)


def perturb(value, fixtures):
    """One value of the same shape as ``value``."""
    if type(value) is int:
        return value - 1
    if is_tau(value):
        return [value[0] + 0.25, 2 * value[1]]
    if type(value) is str:
        return another(fixtures, {value}, type(fixtures[value]))
    if all(map(is_tau, value)):
        return [perturb(tau, fixtures) for tau in value]
    # a list of fixture names: its last entry swapped for another of the same kind
    return [*value[:-1], another(fixtures, set(value), type(fixtures[value[-1]]))]


def outcome(suite, params, fixtures) -> list:
    try:
        return [(c.ok, c.got) for c in suite.run({**suite.defaults, **params}, fixtures)]
    except SuiteInputError as exc:
        return [(False, str(exc))]


@pytest.mark.parametrize("name, key", CASES, ids=[f"{name}.{key}" for name, key in CASES])
def test_every_default_parameter_changes_the_report(fixtures, name, key):
    suite = SUITES[name]
    default = outcome(suite, {}, fixtures)
    assert default and all(ok for ok, _ in default)
    changed = outcome(suite, {key: perturb(suite.defaults[key], fixtures)}, fixtures)
    assert (changed != default) == (f"{name}.{key}" not in KNOWN)


def test_the_known_list_only_shrinks():
    assert set(KNOWN) <= {"quant-bs.tau", "quant-theta-rank.taus", "cy3-sublattice.fixtures"}
    assert set(KNOWN) <= {f"{name}.{key}" for name, key in CASES}
