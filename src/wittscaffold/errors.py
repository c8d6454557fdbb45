"""Exception types shared across the package."""


class ScaffoldError(Exception):
    """Base class for every error raised by this package."""


class IndeterminateValuation(ScaffoldError):
    """The valuation of an element cannot be resolved at its precision."""


class DivisionByIndeterminateZero(ScaffoldError):
    """Division by an element indistinguishable from zero."""


class MembershipUndecided(ScaffoldError):
    """The Artin-Schreier image test was asked outside its certified case."""


class NoConvergence(ScaffoldError):
    """A root-finding iteration failed its convergence preconditions."""


class PrecisionExhausted(ScaffoldError):
    """Working precision ran out before the requested target was reached."""


class InvariantViolation(ScaffoldError):
    """A structural identity that must hold numerically failed."""


class BoundNotSatisfied(ScaffoldError):
    """A hypothesis required for a verdict does not hold; no verdict given."""


class InternalDisagreement(ScaffoldError):
    """Independent routes to the same verdict returned different answers."""


class ValidationFailure(ScaffoldError):
    """Parameter choices violate the construction's defining bounds."""

    def __init__(self, message, reports=None):
        super().__init__(message)
        self.reports = reports or []


# the errors that mean the working precision ran out: a build that
# raises one may succeed with more guard digits
PRECISION_ERRORS = (PrecisionExhausted, IndeterminateValuation,
                    DivisionByIndeterminateZero)
