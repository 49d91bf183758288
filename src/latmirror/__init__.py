"""Exact lattice arithmetic for mirror pairs, with a numerical verifier.

The exact layer (`core`, `cy1`, `cy2`, `cy3`) works over Python ints and
`fractions.Fraction` and never touches floats.  The numerical layer
(`numeric`) checks the same identities on flat torus models in IEEE
doubles.  `manifest.run_verify` ties the two together behind one report
format; the `latmirror` console script exposes everything on the command
line.

Importing the package loads the exact layer, `shared` and `fixtures` only.
The names from `numeric` and `manifest` are imported on first use, so code
that never touches them never loads numpy.
"""

import importlib
import types

from .core import (
    GradedVector,
    LatticeError,
    RingDescriptor,
    ShapeError,
    ToddData,
    cup,
    format_rational,
    mukai_vector,
    pair_exotic,
    pair_sym,
    parse_rational,
    star,
    todd_data,
)
from .cy1 import (
    AtiyahElement,
    BundleClass1,
    CycleClass1,
    Slope,
    atiyah_tensor,
    bs_points,
    cycle_pairing,
    decompose_primitive,
    gft_class,
    intersection_count,
    mirror_cy1,
    odot,
)
from .cy2 import (
    EULER_K3,
    H_GRAM,
    GftClassK3,
    K3Descriptor,
    MirrorClassK3,
    check_main_condition,
    euler_pairing2,
    gft_class_k3,
    mirror_k3,
    mirror_pairing_k3,
    moduli_dim2,
    mukai2,
    reflect_minus2,
    verify_quantization_k3,
    walk_to_chamber,
)
from .cy3 import (
    CY3Descriptor,
    MirrorClass3,
    NonIntegralEulerWarning,
    Rank3Sublattice,
    canonical_rank3_sublattice,
    chi_bundle3,
    euler_pairing3,
    gft_s0_intersection3,
    line_bundle_ch,
    mirror_cy3,
    mirror_isometry_check3,
    mirror_pairing3,
)
from .fixtures import (
    FixtureError,
    load_cy3_fixture,
    load_fixture,
    load_k3_fixture,
    resolve_fixture,
)
from .shared import DEFAULT_MANIFEST, ConsistencyError, ManifestError

__version__ = "0.1.0"

# Public names imported on first access (PEP 562), so that `import latmirror`
# stays numpy-free: those of `numeric` and `manifest`, which load numpy.
_LAZY = {
    **dict.fromkeys(("Manifest", "parse_manifest", "run_verify"), "manifest"),
    **dict.fromkeys(
        (
            "ParamCurve",
            "TorusModel",
            "arc_curve",
            "find_bs_fibres",
            "find_bs_fibres_batch",
            "holonomy_character",
            "phase_map_curve",
            "segment_curve",
            "special_coordinates",
            "theta_basis_rank",
            "winding_number",
        ),
        "numeric",
    ),
}

# every name imported above (submodules excluded) plus the lazy ones
__all__ = sorted(
    {
        name
        for name, value in globals().items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    | set(_LAZY)
)


def __getattr__(name: str):
    if name not in _LAZY:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_LAZY[name]}", __name__), name)
    globals()[name] = value
    return value


def __dir__() -> list:
    return sorted({*globals(), *_LAZY})
