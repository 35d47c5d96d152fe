"""Exact-arithmetic toolkit for Coxeter quotient orders, oriented link
patterns of square-zero matrix orbits, and sums of orthogonal root vectors."""

from .roots import (
    CartanDatum,
    Coweight,
    RootSystem,
    build_root_system,
    cartan_matrix,
    symmetrizer,
)
from .weyl import (
    WeylElement,
    WeylGroup,
    bruhat_covers_below,
    bruhat_leq,
    enumerate_group,
    enumerate_min_coset_reps,
    from_line_notation,
    from_word,
    identity,
    parabolic_decompose,
    reflection,
    right_weak_leq,
    simple_reflection,
    to_line_notation,
    weyl_group,
)
from .quotient import (
    IJKDatum,
    PosetGraph,
    QuotientElement,
    build_poset,
    covers_O_below,
    leq_O,
    min_set,
)
from .linkpatterns import (
    OrientedLinkPattern,
    all_patterns,
    count_patterns,
    leq_D,
    leq_rank,
    leq_seq,
    matrix_from_olp,
    olp,
    olp_from_perm,
    orbit_dimension,
    orbit_pair_params,
    perm_from_olp,
    q_stat,
    seq_S,
    type_a_datum,
)
from .nilpotent import (
    CaseLabel,
    ClassificationReport,
    OrthogonalSet,
    chain_cascade,
    classify,
    classify_combination,
    grading_dimensions,
    height_of_sum,
    is_rationally_orthogonal,
    is_spherical,
    is_strongly_orthogonal,
    levi_and_involution,
    orthogonal_set,
    reduce_b2long,
    type_b_height,
    weighted_dynkin,
)

__version__ = "0.1.0"
