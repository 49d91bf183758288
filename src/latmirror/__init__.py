"""Exact lattice arithmetic for mirror pairs, with a numerical verifier.

The exact layer (`core`, `cy1`, `cy2`, `cy3`) works over Python ints and
`fractions.Fraction` and never touches floats.  The numerical layer
(`numeric`) checks the same identities on flat torus models in IEEE
doubles.  `manifest.run_verify` ties the two together behind one report
format; the `latmirror` console script exposes everything on the command
line.

`import latmirror` loads nothing else: every public name, and every
submodule, is imported on first access (PEP 562).  So code that uses only
the float layer never compiles the exact one, and code that uses only the
exact layer never loads numpy.
"""

import importlib

__version__ = "0.1.0"

# module -> the public names it exports through the package
_EXPORTS = {
    "core": """GradedVector LatticeError RingDescriptor ShapeError ToddData cup
        format_rational pair_exotic pair_sym star todd_data""",
    "cy1": """AtiyahElement CycleClass1 Slope atiyah_tensor bs_points
        cycle_pairing decompose_primitive gft_class intersection_count mirror_cy1 odot""",
    "cy2": """EULER_K3 H_GRAM GftClassK3 K3Descriptor MirrorClassK3 check_main_condition
        gft_class_k3 mirror_k3 mirror_pairing_k3 moduli_dim2 mukai2
        reflect_minus2 verify_quantization_k3 walk_to_chamber""",
    "cy3": """CY3Descriptor MirrorClass3 NonIntegralEulerWarning Rank3Sublattice
        canonical_rank3_sublattice chi_bundle3 euler_pairing3 gft_s0_intersection3
        line_bundle_ch mirror_cy3 mirror_pairing3""",
    "fixtures": "FixtureError load_cy3_fixture load_fixture load_k3_fixture resolve_fixture",
    "manifest": "Manifest parse_manifest run_verify",
    "numeric": """ParamCurve TorusModel arc_curve find_bs_fibres holonomy_character
        phase_map_curve segment_curve theta_basis_rank winding_number""",
    "shared": "ConsistencyError DEFAULT_MANIFEST ManifestError",
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names.split()}
_SUBMODULES = frozenset({*_EXPORTS, "cli", "commands", "report", "suites"})

__all__ = sorted(_HOME)


def __getattr__(name: str):
    if name in _SUBMODULES:
        # importing a submodule binds it here, so this runs once per name
        return importlib.import_module(f".{name}", __name__)
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_HOME[name]}", __name__), name)
    globals()[name] = value
    return value


def __dir__() -> list:
    return sorted({*globals(), *_HOME, *_SUBMODULES})
