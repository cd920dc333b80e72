"""Exact certificates for vanishing-set problems of nc polynomials.

The package decides membership questions about noncommutative polynomials
evaluated on matrix tuples (left and two-sided ideals, trace and span
conditions, composition, factorization, stable associativity) and backs every
positive or negative answer with a certificate that re-verifies on its own.
A numerical lab searches for low-rank matrix values and promotes float
candidates to exact rational witnesses.
"""

from .poly import (
    NcParseError,
    NcPoly,
    commutator,
    cyclic_representative,
    deglex_key,
    format_poly,
    parse,
    words_of_length,
    words_up_to,
)
from .linalg import (
    QMatrix,
    QVector,
    RankInfo,
    SpanResult,
    det,
    rank,
    rank_det_kernel,
    rational_reconstruct,
    rational_roots,
    solve_linear,
    solve_span,
)
from .evaluate import (
    MatTuple,
    PointClassification,
    ResourceCapError,
    classify_point,
    direct_sum,
    eval_poly,
    eval_poly_vector,
    nonvanishing_point,
    pi_test,
    random_tuple,
    random_vector,
    standard_poly,
    weyl_pair,
)
from .certify import (
    CompositionCoefficients,
    CompositionNotMember,
    DirectionalWitness,
    EigenWitness,
    HomCombination,
    InternalInconsistencyError,
    LeftCombination,
    MatrixWitness,
    NonHomogeneousGeneratorError,
    SpanCoefficients,
    TraceCombination,
    TraceNotMember,
    WeakWitness,
    hom_ideal_membership,
    in_univariate_subalgebra,
    left_ideal_membership,
    span_membership,
    trace_membership,
    weak_basis,
)
from .factorization import (
    AssocNo,
    AssocUnknown,
    AssocYes,
    DetZeroNo,
    DetZeroUnknown,
    DetZeroYes,
    FactorEvidence,
    Factorization,
    detzero_inclusion,
    factor,
    stable_assoc,
    two_factor_splits,
)
from .lowrank import (
    FMatTuple,
    SearchConfig,
    SearchResult,
    lowrank_objective,
    lowrank_search,
    rank_profile,
    reference_poly,
    reference_witnesses,
    verify_reference_witnesses,
)
from .serialize import (
    VerifyResult,
    encode_certificate,
    load_document,
    make_document,
    save_document,
    verify_certificate,
)

__version__ = "0.1.0"
