"""One unit entry added to a closed form, wherever the package binds it.

The two pairings are bilinear and the Todd products linear in the flat
coordinates of a class, so each is a matrix on those coordinates.
:func:`add_unit_entry` adds 1 to one entry of one of them.  The corrupted
function replaces the original in every ``latmirror`` module that binds
it, so every caller in the package sees the same broken form; a test that
wants the broken form too calls it as ``core.<name>``.
"""

import sys
from fractions import Fraction

from latmirror import core


def add_unit_entry(monkeypatch, form, row, col):
    """Add 1 to entry (row, col) of one closed form.

    ``form`` is "sym" or "exotic": the pairing :func:`core.pair_sym` or
    :func:`core.pair_exotic` of u and v gains u_row v_col.  Otherwise it
    names a Todd factor: coordinate ``row`` of ``core.todd_multiply(u,
    ring, form)`` gains coordinate ``col`` of u.  The entry is integral.
    """
    if form in ("sym", "exotic"):
        name = f"pair_{form}"
        original = getattr(core, name)

        def corrupted(u, v, ring):
            return original(u, v, ring) + Fraction(u.nums[row] * v.nums[col], u.den * v.den)
    else:
        name, original = "todd_multiply", core.todd_multiply

        def corrupted(u, ring, factor):
            w = original(u, ring, factor)
            if factor != form:
                return w
            entry = [0] * len(u.nums)
            entry[row] = u.nums[col]
            return w + core.GradedVector._of_numerators(u.dim, entry, u.den)

    for module_name, module in list(sys.modules.items()):
        if module_name.split(".")[0] == "latmirror" and getattr(module, name, None) is original:
            monkeypatch.setattr(module, name, corrupted)
