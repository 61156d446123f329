"""Exact quasi-monomial valuations, their infima, and the tree they form.

Everything is rational arithmetic end to end: polynomial values, dilatation
programs, canonical forms, rank-2 refinements, and the parametrized rooted
tree with its reciprocal-difference metric.
"""

from types import ModuleType as _Module

from .rationals import INF, ExtRat, Infinity, is_inf, parse_extrat, format_extrat
from .poly import (
    BivarPoly,
    IDENTITY_FRAME,
    LinearFrame,
    PolyParseError,
    poly_parse,
    weighted_order,
)
from .valuation import (
    CanonicalForm,
    Comparison,
    Curve,
    Divisorial,
    INF_POINT,
    M_ADIC,
    ProjPoint,
    QuasiMonomialVal,
    ValueNumerators,
    canonicalize,
    common_minimizer,
    compare,
    dilatation_length,
    dilate,
    equal_valuations,
    evaluate,
    from_canonical,
    infimum,
    is_normalized,
    m_value,
    meet,
    monomial,
    multiplicity_stream,
    normalize,
    residue_direction,
    sim_pairs,
)
from .krull import (
    KrullRank2,
    KrullSameRank1,
    Rank2Val,
    krull_lift,
    rank1_section,
    rank2_eval,
)
from .tree import (
    PathParam,
    RootedTree,
    TangentRef,
    TreePoint,
    build_star,
    chain_infimum,
    class_member,
    fi_infimum,
    star_neighborhoods,
    star_witness,
    t_dpsi,
    t_inf_set,
    t_leq,
    t_meet,
    t_tangent_equiv,
)
from .jsonio import (
    FormatError,
    canonical_from_json,
    canonical_to_json,
    tree_from_json,
    tree_to_json,
    valuation_from_json,
    valuation_to_json,
)

__version__ = "0.1.0"

# every public name imported above, and nothing else: no submodule, no
# private name
__all__ = [
    name for name, value in globals().items()
    if not name.startswith("_") and not isinstance(value, _Module)
]
