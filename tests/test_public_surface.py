"""The package's public surface: the names ``valtree`` exports."""

import types

import valtree

EXPORTS = [
    "BivarPoly", "CanonicalForm", "Comparison", "Curve", "Divisorial", "ExtRat",
    "FormatError", "IDENTITY_FRAME", "INF", "INF_POINT", "Infinity", "KrullRank2",
    "KrullSameRank1", "LinearFrame", "M_ADIC", "PathParam", "PolyParseError",
    "ProjPoint", "QuasiMonomialVal", "Rank2Val", "RootedTree", "TangentRef",
    "TreePoint", "ValueNumerators", "build_star", "canonical_from_json",
    "canonical_to_json", "canonicalize", "chain_infimum", "class_member",
    "common_minimizer", "compare", "dilatation_length", "dilate", "equal_valuations",
    "evaluate", "fi_infimum", "format_extrat", "from_canonical", "infimum", "is_inf",
    "is_normalized", "krull_lift", "m_value", "meet", "monomial", "multiplicity_stream",
    "normalize", "parse_extrat", "poly_parse", "rank1_section", "rank2_eval",
    "residue_direction", "sim_pairs", "star_neighborhoods", "star_witness", "t_dpsi",
    "t_inf_set", "t_leq", "t_meet", "t_tangent_equiv", "tree_from_json", "tree_to_json",
    "valuation_from_json", "valuation_to_json", "weighted_order",
]


def test_export_list_is_pinned():
    assert len(EXPORTS) == 66
    assert sorted(valtree.__all__) == EXPORTS
    assert len(set(valtree.__all__)) == len(valtree.__all__)


def test_every_export_resolves():
    for name in EXPORTS:
        assert hasattr(valtree, name), name


def test_star_import_binds_exactly_the_exports():
    """No submodule, no private name and no ``annotations`` leak into a
    namespace that star-imports the package."""
    namespace = {}
    exec("from valtree import *", namespace)
    del namespace["__builtins__"]
    assert sorted(namespace) == EXPORTS
    assert not any(isinstance(value, types.ModuleType) for value in namespace.values())
    assert "annotations" not in namespace
