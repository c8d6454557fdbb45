"""Exact local-field arithmetic for cyclic degree-p^2 extensions built
from length-2 Witt vectors: ramification data, numerically realized
Galois scaffolds, and the freeness decision for the ring of integers
over its associated order.

The names below are resolved on first use (PEP 562), so importing the
package, or one of its modules, loads only the modules that are used."""

from importlib import import_module

# the module that defines each exported name
_EXPORTS = {
    "construction": (
        "FreenessBound", "JobConfig", "RamificationData", "ValidationReport",
        "check_freeness_bound", "construct_extension", "ramification_data",
        "validate_choice1", "validate_choice2",
    ),
    "errors": (
        "BoundNotSatisfied", "DivisionByIndeterminateZero",
        "IndeterminateValuation", "InternalDisagreement", "InvariantViolation",
        "MembershipUndecided", "NoConvergence", "PrecisionExhausted",
        "ScaffoldError", "ValidationFailure",
    ),
    "galois": (
        "Automorphism", "GroupRingElement", "compute_sigma1", "compute_sigma2",
        "psi_operators", "scaffold_words", "truncated_exp", "word_images",
    ),
    "padic": ("BaseField", "K0Element", "wp_membership_guard"),
    "pipeline": ("AnalysisContext", "build_context"),
    "structure": (
        "ModuleStructureReport", "ScaffoldTables",
        "associated_order_and_freeness", "build_tables", "congruence_audit",
        "rho_family",
    ),
    "tower": (
        "ExtensionDesc", "K2Element", "hensel_lift", "scaffold_lambda",
        "uniformizer_exponents",
    ),
    "witt": ("WittVector2", "d_poly"),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items()
              for name in names}

__version__ = "0.1.0"


def __getattr__(name):
    # an unknown name raises AttributeError, which lets
    # ``from wittscaffold import pipeline`` import the submodule
    if name not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f".{_MODULE_OF[name]}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(_MODULE_OF))
