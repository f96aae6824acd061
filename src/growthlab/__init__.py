"""Exact growth sequences of oligomorphic permutation structures.

Labelled and unlabelled growth prefixes of group expressions, growth
bound verdicts, labelled counting of small hereditary graph classes,
flip recovery on coloured paths, and searches for order and coding
witnesses in finite relations.  All arithmetic is exact.
"""

from .errors import Budget, CapacityError, ParseError
from .graph_classes import (
    ClassSpec,
    FlipSpec,
    Graph,
    count_labelled,
    flip_recover,
    flipped_paths,
    half_graph,
    parse_class_spec,
    parse_graph,
    semi_induced_order,
)
from .group_expr import (
    DirectProduct,
    Finite,
    WreathSomega,
    classify,
    eval_lseq,
    format_expr,
    gap_verdict,
    parse_expr,
    truncate_expr,
)
from .orbit_oracle import (
    FinPermGroup,
    OrbitCount,
    count_orbits_injective,
)
from .seq_core import (
    BoundReport,
    IntSeq,
    bell,
    bell2,
    binomial_convolution,
    check_bounds,
    exp_shift,
    meet_trivial_pairs,
    stirling_transform,
)
from .witness_search import (
    CodingWitness,
    FinRelation,
    OrderWitness,
    SearchResult,
    find_coding_witness,
    find_order_witness,
    parse_relation,
    verify_coding_witness,
    verify_order_witness,
)

__version__ = "0.1.0"

__all__ = [
    "BoundReport",
    "Budget",
    "CapacityError",
    "ClassSpec",
    "CodingWitness",
    "DirectProduct",
    "FinPermGroup",
    "FinRelation",
    "Finite",
    "FlipSpec",
    "Graph",
    "IntSeq",
    "OrbitCount",
    "OrderWitness",
    "ParseError",
    "SearchResult",
    "WreathSomega",
    "bell",
    "bell2",
    "binomial_convolution",
    "check_bounds",
    "classify",
    "count_labelled",
    "count_orbits_injective",
    "eval_lseq",
    "exp_shift",
    "find_coding_witness",
    "find_order_witness",
    "flip_recover",
    "flipped_paths",
    "format_expr",
    "gap_verdict",
    "half_graph",
    "meet_trivial_pairs",
    "parse_class_spec",
    "parse_expr",
    "parse_graph",
    "parse_relation",
    "semi_induced_order",
    "stirling_transform",
    "truncate_expr",
    "verify_coding_witness",
    "verify_order_witness",
]
