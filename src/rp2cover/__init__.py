"""Branched coverings of the projective plane, decided and constructed.

The package answers three questions about candidate branch data (a degree
d and rows of non-trivial partitions of d): whether it satisfies the
necessary counting conditions, whether it is realizable by an
indecomposable branched covering of the projective plane, and what a
concrete monodromy witness looks like.  Witnesses are permutation tuples
checked independently of the engine that built them.
"""

from .branch import (
    Admissibility,
    BranchData,
    ParseError,
    Partition,
    euler_char_covering,
    is_admissible,
    parse_branch_data,
)
from .groups import (
    GeneratedGroup,
    conjugator,
    group_of,
    imprimitivity_block,
    is_primitive,
    is_transitive,
)
from .kernels import BACKEND
from .perm import Permutation, canonical_of_type, format_cycles, parse_permutation
from .realize import (
    Case,
    Certificate,
    Classification,
    EngineDefect,
    HurwitzWitness,
    NotRealizableError,
    PairGoal,
    RealizationError,
    RealizationResult,
    Reason,
    SearchExhausted,
    Verdict,
    assemble_pair,
    canonical_involution_pair,
    classify,
    realize_decomposable_search,
    realize_indecomposable,
    verify_witness,
)
from .squares import RootCapExceeded, all_square_roots, is_square, sqrt, sqrt_odd_cycle

__version__ = "0.1.0"

__all__ = [
    "Admissibility",
    "BACKEND",
    "BranchData",
    "Case",
    "Certificate",
    "Classification",
    "EngineDefect",
    "GeneratedGroup",
    "HurwitzWitness",
    "NotRealizableError",
    "PairGoal",
    "ParseError",
    "Partition",
    "Permutation",
    "RealizationError",
    "RealizationResult",
    "Reason",
    "RootCapExceeded",
    "SearchExhausted",
    "Verdict",
    "all_square_roots",
    "assemble_pair",
    "canonical_involution_pair",
    "canonical_of_type",
    "classify",
    "conjugator",
    "euler_char_covering",
    "format_cycles",
    "group_of",
    "imprimitivity_block",
    "is_admissible",
    "is_primitive",
    "is_square",
    "is_transitive",
    "parse_branch_data",
    "parse_permutation",
    "realize_decomposable_search",
    "realize_indecomposable",
    "sqrt",
    "sqrt_odd_cycle",
    "verify_witness",
]
