"""Exact computer algebra for jets of x_1...x_n and block-symmetric quotients.

The package computes normal forms modulo the ideal of constant-free
symmetric polynomials, the finite-dimensional algebras of block-symmetric
classes, Schubert-polynomial products through Monk's formula, jet ideal
generators, and certified minimal membership degrees for powers of
derivative monomials, all over exact rational arithmetic.
"""

from .alambda import (
    alpha_map,
    basis_exponents,
    basis_polys,
    c_lambda_generators,
    c_lambda_ring,
    dim_A_lambda,
    nilpotency_order,
)
from .errors import (
    BudgetExceededError,
    CapExceededError,
    DomainError,
    InvariantViolationError,
    JetformError,
    ParseError,
    RingMismatchError,
)
from .jets import (
    JetRingDesc,
    MembershipResult,
    MinDegreeResult,
    MinimalPrime,
    PsiSpecialization,
    PsiWitness,
    compositions,
    derivative_monomial,
    homogeneous_membership,
    jet_generators,
    min_degree_formula,
    min_degree_search,
    minimal_primes,
    multiplicity_table,
    phi_binary_eval,
    psi_specialize,
    radical_witness,
)
from .linalg import Budget, ExactSpan
from .polyring import (
    Monomial,
    Poly,
    Ring,
    TruncatedSeries,
    divide,
    parse_poly,
    spoly,
)
from .schubert import (
    Permutation,
    block_rotation,
    catalan_congruence_check,
    catalan_number,
    divided_difference,
    monk_expand,
    schubert_expansion,
    schubert_poly,
    schubert_table,
)
from .symfun import (
    Composition,
    block_elementary_ring,
    block_sigma,
    complete_homogeneous,
    decompose_block_elementary,
    elementary_symmetric,
    expand_block_elementary,
    groebner_basis_IS,
    in_IS,
    is_lambda_symmetric,
    normal_form_IS,
    nu,
    sym_lambda_average,
    zring,
)

__version__ = "0.1.0"
