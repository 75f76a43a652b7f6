"""Exact reduction theory for lattices over Z and F_q[t].

Canonical slope filtrations of module lattices, exact volumes on the
integer, function-field and S-arithmetic sides, local building
combinatorics, and the cover systems cut out by instability thresholds.

`import latred` loads no layer: each public name below is imported from its
defining module on first access (PEP 562), so a caller pays only for the
layers it touches.
"""

import sys

_EXPORTS = {
    "filtration": ("FiltrationReport", "GradedPoint", "c_value",
                   "canonical_filtration", "canonical_plot"),
    "latz": ("InnerProduct", "ZSummand", "canonical_filtration_z",
             "enumerate_summands", "gram_logvol", "gram_vol2", "instability_z",
             "spd_distance"),
    "latff": ("DiagonalBasisResult", "FFSummand", "VolumeSpace",
              "diagonal_basis", "ff_invariants_and_filtration", "ff_logvol",
              "instability_ff"),
    "logs": ("ExactLog",),
    "sarith": ("IntegralStructure", "LocalizedContext", "LocSummand",
               "factorize", "factorize_conjugated", "intersect_integral",
               "loc_c", "loc_logvol"),
    "building": ("BuildingContext", "SimplexDecomposition", "Vertex",
                 "apartment_coords", "canonical_vertex",
                 "count_chambers_on_edge", "edge_length", "edge_length_sq",
                 "label_difference", "neighbors", "triangulate_point"),
    "covers": ("CoverSystem", "SimplexPoint", "core_orbit_reps", "core_test",
               "cover_membership", "thinned_membership"),
    "rings": ("prime_part", "valuation"),
}
_SUBMODULES = ("building", "covers", "errors", "filtration", "fq", "gflinalg",
               "latff", "latz", "logs", "matrices", "rings", "sarith")
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted([*_HOME, *_SUBMODULES])


def __getattr__(name):
    module = name if name in _SUBMODULES else _HOME.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    qualified = f"{__name__}.{module}"
    # the import statement's own path: importlib.import_module would hide the
    # load from `python -X importtime`
    __import__(qualified)
    value = sys.modules[qualified]
    if module != name:
        value = getattr(value, name)
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *__all__})
