"""Feedback-with-carry registers over F2 and F2^n with exact 2-adic analysis."""

from .analysis import (
    AnalysisReport,
    Rational2Adic,
    analyze,
    check_containment,
    connection_integer,
    connection_matrix,
    connection_norm,
    connection_vector,
    expand_2adic,
    identity_minus_2t,
    memory_bounds,
    ring_connection_norm,
    sequence_to_rational,
    closed_form_numerator,
)
from .exactmath import (
    FactorBudgetExceeded,
    det_exact,
    factorize,
    is_primitive_root_2,
    is_probable_prime,
    multiplicative_order,
)
from .gf2n import (
    BinaryPolynomial,
    PolynomialError,
    binary_modulus,
    gf_mul,
    mul_lifted,
    mult_matrix,
    norm,
    quadratic,
)
from .registers import (
    RegisterSpec,
    RegisterState,
    SpecError,
    StepBudgetExceeded,
    as_ring,
    binary_spec,
    closed_form,
    expand,
    output_rows,
    run,
)
from .search import (
    FamilyReport,
    SearchBudgetExceeded,
    TripletReport,
    adic_length,
    check_triplet,
    enumerate_family,
    find_l_sequence_matrices,
)

__version__ = "0.1.0"
