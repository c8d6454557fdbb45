"""Exact local-field arithmetic for cyclic degree-p^2 extensions built
from length-2 Witt vectors: ramification data, numerically realized
Galois scaffolds, and the freeness decision for the ring of integers
over its associated order."""

from .construction import (
    FreenessBound,
    RamificationData,
    ValidationReport,
    check_freeness_bound,
    construct_extension,
    ramification_data,
    validate_choice1,
    validate_choice2,
)
from .errors import (
    BoundNotSatisfied,
    DivisionByIndeterminateZero,
    IndeterminateValuation,
    InternalDisagreement,
    InvariantViolation,
    MembershipUndecided,
    NoConvergence,
    PrecisionExhausted,
    ScaffoldError,
    ValidationFailure,
)
from .galois import (
    Automorphism,
    GroupRingElement,
    compute_sigma1,
    compute_sigma2,
    psi_operators,
    scaffold_words,
    truncated_exp,
    word_images,
)
from .padic import BaseField, K0Element, wp_membership_guard
from .pipeline import AnalysisContext, JobConfig, build_context
from .structure import (
    ModuleStructureReport,
    ScaffoldTables,
    associated_order_and_freeness,
    build_tables,
    congruence_audit,
    rho_family,
)
from .tower import (
    ExtensionDesc,
    K2Element,
    hensel_lift,
    scaffold_lambda,
    uniformizer_exponents,
)
from .witt import WittVector2, d_poly

__version__ = "0.1.0"
