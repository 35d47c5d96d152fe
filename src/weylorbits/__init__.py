"""Exact-arithmetic toolkit for Coxeter quotient orders, oriented link
patterns of square-zero matrix orbits, and sums of orthogonal root vectors.

The layers load on first use (PEP 562): `import weylorbits` imports none of
them, and `weylorbits.leq_O` imports `weylorbits.quotient` and its
dependencies the first time it is read.
"""

import importlib

__version__ = "0.1.0"

_EXPORTS = {
    "roots": (
        "Coweight",
        "RootSystem",
        "build_root_system",
        "cartan_matrix",
        "symmetrizer",
    ),
    "weyl": (
        "WeylElement",
        "WeylGroup",
        "from_line_notation",
        "from_word",
        "identity",
        "parabolic_decompose",
        "reflection",
        "right_weak_leq",
        "simple_reflection",
        "to_line_notation",
        "weyl_group",
    ),
    "quotient": (
        "IJKDatum",
        "PosetGraph",
        "QuotientElement",
        "build_poset",
        "covers_O_below",
        "leq_O",
        "min_set",
    ),
    "linkpatterns": (
        "OrientedLinkPattern",
        "all_patterns",
        "count_patterns",
        "leq_D",
        "leq_rank",
        "leq_seq",
        "matrix_from_olp",
        "olp",
        "olp_from_perm",
        "orbit_dimension",
        "orbit_pair_params",
        "perm_from_olp",
        "seq_S",
        "type_a_datum",
    ),
    "nilpotent": (
        "CaseLabel",
        "ClassificationReport",
        "OrthogonalSet",
        "chain_cascade",
        "classify",
        "classify_combination",
        "grading_dimensions",
        "height_of_sum",
        "is_rationally_orthogonal",
        "is_spherical",
        "is_strongly_orthogonal",
        "levi_and_involution",
        "orthogonal_set",
        "reduce_b2long",
        "type_b_height",
        "weighted_dynkin",
    ),
}

_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = list(_MODULE_OF)


def __getattr__(name):
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))
