"""Parameter validation and ramification data for the tower, the job
config and the validation report: everything ``validate`` runs.

All inequality checks run in exact rational arithmetic; nothing here
touches floating point.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

from .errors import InvariantViolation, ValidationFailure
from .padic import BaseField, K0Element, wp_membership_guard
from .tower import ExtensionDesc


@dataclass
class Check:
    name: str
    passed: bool
    detail: str

    def as_dict(self):
        return {"name": self.name, "passed": self.passed, "detail": self.detail}


@dataclass
class ValidationReport:
    subject: str
    checks: list[Check] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def add(self, name: str, passed: bool, detail: str):
        self.checks.append(Check(name, passed, detail))

    def failures(self) -> list[Check]:
        return [c for c in self.checks if not c.passed]

    def as_dict(self):
        return {
            "subject": self.subject,
            "passed": self.passed,
            "checks": [c.as_dict() for c in self.checks],
        }


def validate_choice1(a1: K0Element, base: BaseField) -> ValidationReport:
    """First generator choice: v0(a1) negative, prime to p, and above
    -p*e0/(p^2-1); the valuation criterion then certifies that a1 is not
    of the form y^p - y."""
    p, e0 = base.p, base.e0
    rep = ValidationReport("first-generator")
    if a1.is_zero():
        rep.add("nonzero", False, "a1 is indistinguishable from zero")
        return rep
    v = a1.valuation()
    lower = Fraction(-p * e0, p * p - 1)
    rep.add("negative-valuation", v < 0, f"v0(a1) = {v} < 0")
    rep.add("prime-to-p", v % p != 0, f"p = {p} does not divide v0(a1) = {v}")
    rep.add(
        "above-lower-bound",
        lower < v,
        f"-p*e0/(p^2-1) = {lower} < {v} = v0(a1)",
    )
    if rep.passed:
        rep.add("outside-wp-image", wp_membership_guard(a1),
                f"p does not divide v0(a1) = {v} < 0, so a1 is not y^p - y")
    return rep


def validate_choice2(mu: K0Element, a1: K0Element) -> ValidationReport:
    """Second choice: m = -v0(mu) positive and the two growth bounds on m
    against v0(a1), both as exact rational comparisons."""
    base = mu.field
    p, e0 = base.p, base.e0
    rep = ValidationReport("twist-element")
    if mu.is_zero():
        rep.add("nonzero", False, "mu is indistinguishable from zero")
        return rep
    m = -mu.valuation()
    v1 = a1.valuation()
    rep.add("positive-m", m > 0, f"m = -v0(mu) = {m} > 0")
    if m <= 0:
        return rep
    lhs1 = Fraction(p * e0, p - 1)
    rhs1 = p * m - (2 + Fraction(1, p * (p - 1))) * v1
    rep.add("first-bound", lhs1 > rhs1,
            f"p*e0/(p-1) = {lhs1} > {rhs1} = p*m - (2 + 1/(p(p-1)))*v0(a1)")
    lhs2 = p * p * m
    rhs2 = -(p * p - 1) * v1
    rep.add("second-bound", lhs2 > rhs2,
            f"p^2*m = {lhs2} > {rhs2} = -(p^2-1)*v0(a1)")
    return rep


def printed_example_item2_note() -> dict:
    """The published worked example prints a second bullet,
    v0(a1) + ((p-1)/p)*b1 = -10/3 < -3 = v0(a1^p), whose left side does
    not evaluate to the printed value at its own parameters; the
    twist-element bounds are verified directly in its place."""
    return {
        "status": "inconsistent-as-printed",
        "note": (
            "stated comparison 'v0(a1) + ((p-1)/p)*b1 = -10/3 < -3' does not "
            "evaluate consistently (at p=3, b1=1, v0(a1)=-1 the left side is "
            "-1/3); the twist-element bounds are checked directly instead"
        ),
    }


@dataclass
class RamificationData:
    """Integer invariants of the ramification filtration of K2/K0."""

    p: int
    e0: int
    b1: int
    b2: int
    u1: int
    u2: int
    m: int
    depth: int            # v2-normalized depth of ramification of K2/K0
    different_val: int    # v2 of the different of K2/K0
    precision_c: int      # scaffold shift-law precision
    r_b2: int             # least nonnegative residue of b2 modulo p^2,
                          # the common residue class of b1 and b2

    def as_dict(self):
        return {
            "b1": self.b1,
            "b2": self.b2,
            "u1": self.u1,
            "u2": self.u2,
            "m": self.m,
            "depth_v2": self.depth,
            "different_v2": self.different_val,
            "precision_c": self.precision_c,
            "residue_b": self.r_b2,
            "r_b2": self.r_b2,
        }


def ramification_data(desc: ExtensionDesc) -> RamificationData:
    """Break numbers, depth, different and scaffold precision.  The upper
    break u2 = u1 + (b2 - b1)/p is p*m + b1 = -v0(a2), since b2 is
    p^2*m + b1 and a2 = mu^p * a1."""
    p, e0 = desc.p, desc.base.e0
    b1, b2, m = desc.b1, desc.b2, desc.m
    p2 = p * p
    if b2 <= p2 * b1:
        raise InvariantViolation(f"b2 = {b2} must exceed p^2*b1 = {p2 * b1}")
    u1 = b1
    u2 = u1 + (b2 - b1) // p
    depth = (p - 1) * b2 + p * (p - 1) * b1
    c = min(b2 - p2 * b1, p2 * e0 - depth)
    if c < 1:
        raise InvariantViolation(f"scaffold precision {c} is not positive")
    return RamificationData(
        p=p,
        e0=e0,
        b1=b1,
        b2=b2,
        u1=u1,
        u2=u2,
        m=m,
        depth=depth,
        different_val=depth + p2 - 1,
        precision_c=c,
        r_b2=b2 % p2,
    )


@dataclass
class FreenessBound:
    """The structural bound p^2*e0 - (p+1)*b2 + (p-1)*b1 > 0 plus two
    derived comparisons reported alongside (the second of which is a
    diagnostic only; it can fail even when the bound holds)."""

    holds: bool
    detail: str
    e0_form_holds: bool
    e0_form_detail: str
    margin_form_holds: bool
    margin_form_detail: str

    def as_dict(self):
        return {
            "holds": self.holds,
            "detail": self.detail,
            "e0_form": {"holds": self.e0_form_holds, "detail": self.e0_form_detail},
            "margin_form": {
                "holds": self.margin_form_holds,
                "detail": self.margin_form_detail,
            },
        }


def check_freeness_bound(rd: RamificationData, base: BaseField) -> FreenessBound:
    p, e0, b1, b2 = rd.p, base.e0, rd.b1, rd.b2
    p2 = p * p
    lhs = p2 * e0
    rhs = (p + 1) * b2 - (p - 1) * b1
    holds = lhs > rhs
    e0_rhs = rd.u2 + Fraction(b1, p2) + 1
    e0_holds = e0 > e0_rhs
    margin_lhs = p2 * e0 - p * b2 - (p2 - p + 1) * b1
    margin_holds = margin_lhs > p2
    return FreenessBound(
        holds=holds,
        detail=f"p^2*e0 = {lhs} > {rhs} = (p+1)*b2 - (p-1)*b1",
        e0_form_holds=e0_holds,
        e0_form_detail=f"e0 = {e0} > {e0_rhs} = u2 + b1/p^2 + 1",
        margin_form_holds=margin_holds,
        margin_form_detail=(
            f"p^2*e0 - p*b2 - (p^2-p+1)*b1 = {margin_lhs} > {p2} = p^2"
        ),
    )


def default_target_v2(p: int, e0: int) -> int:
    """The working v2-precision target when none is given."""
    return 2 * p * p * e0


# The supported range of p and e0 (README, "Supported range"), checked
# before any arithmetic.  Measured in-process CPU of analyze on one core:
# the smallest p = 13 config (e0 = 14) takes about 63 s and the p = 11
# one 17 s; at e0 = 1000, a1 = mu = pi0^-1, one takes 2.4 s at p = 3 and
# 37 s at p = 5, and at p = 3 e0 = 4000 27 s.
MAX_P = 13
MAX_E0 = 1000

# The most coefficient digits, guard digits included, that a build or
# one of its guard-digit retries may use (construct_extension).  Measured
# in-process CPU of analyze on one core: golden (p = 3, e0 = 6) takes
# 0.9 s at 2000 digits and 3.4 s at 4000; p = 5, e0 = 7 takes 13 s at
# 1000 digits.
MAX_PREC_DIGITS = 4000


@dataclass
class JobConfig:
    """Validated CLI parameters: the prime, the base ramification index,
    monomial data c * pi0^k for the two generator choices, the working
    v2-precision and the output format."""

    p: int
    e0: int
    a1: tuple[int, int]
    mu: tuple[int, int]
    precision: int | None = None
    fmt: str = "text"

    def __post_init__(self):
        if self.p < 2:
            raise ValueError(f"p must be a prime, got {self.p}")
        if self.p > MAX_P:
            raise ValueError(f"p out of the supported range: p must be "
                             f"prime and at most {MAX_P}, got {self.p}")
        if self.e0 < 1:
            raise ValueError(f"e0 must be at least 1, got {self.e0}")
        if self.e0 > MAX_E0:
            raise ValueError(f"e0 out of the supported range: e0 must be at "
                             f"most {MAX_E0}, got {self.e0}")
        if self.precision is not None and self.precision < 1:
            raise ValueError(
                f"precision must be a positive v2-target, got {self.precision}"
            )

    def as_dict(self):
        target = self.precision
        if target is None:
            target = default_target_v2(self.p, self.e0)
        return {
            "p": self.p,
            "e0": self.e0,
            "a1": {"coefficient": self.a1[0], "pi0_exponent": self.a1[1]},
            "mu": {"coefficient": self.mu[0], "pi0_exponent": self.mu[1]},
            "precision_v2": target,
        }


# The fewest guard digits at which no report in the census box
# (e0 < 30, b1 < 12, m < 8 at p = 2, 3 and 5; tests/guard_digits_sweep.py)
# differs from one built with 16.  A build that runs out of precision
# anyway is retried with more (pipeline.build_context).
DEFAULT_GUARD_DIGITS = 11

# a build that runs out of precision is repeated this many times, each
# with max(1, 2*digits) guard digits: 0 -> 1 -> 2 -> 4 -> 8
GUARD_RETRIES = 4

# the stages that pipeline.build_context can corrupt on purpose
FAULT_NAMES = ("sigma1",)


def default_prec_digits(p: int, e0: int, target_v2: int,
                        guard_digits: int = DEFAULT_GUARD_DIGITS) -> int:
    """Coefficient digit precision: the pi0-digits the absolute
    v2-target needs, plus ``guard_digits`` of headroom for the losses of
    intermediate steps (the Hensel lifts and their inverses above all)."""
    return max(2, -(-target_v2 // (p * p * e0))) + guard_digits


def _exact_monomial(base: BaseField, c: int, k: int) -> K0Element:
    """The exact config value c * pi0^k: the p-power of c = p^v * u moves
    into the exponent through pi0^e0 = p, so the unit u is known to the
    field's full relative precision, e0 * prec_digits."""
    while c and c % base.p == 0:
        c //= base.p
        k += base.e0
    return base.monomial(c, k)


def construct_extension(
    p: int,
    e0: int,
    a1_mono: tuple[int, int],
    mu_mono: tuple[int, int],
    target_v2: int | None = None,
    guard_digits: int = DEFAULT_GUARD_DIGITS,
) -> tuple[ExtensionDesc, list[ValidationReport]]:
    """Build a validated extension from monomial data c * pi0^k for a1
    and mu.  Raises ValidationFailure carrying the reports when a bound
    fails."""
    if target_v2 is None:
        target_v2 = default_target_v2(p, e0)
    prec = default_prec_digits(p, e0, target_v2, guard_digits)
    if prec > MAX_PREC_DIGITS:
        raise ValueError(
            f"coefficient digits out of the supported range: the build "
            f"would need {prec} digits, more than {MAX_PREC_DIGITS}; lower "
            f"the precision or the guard digits")
    base = BaseField(p, e0, prec_digits=prec)
    a1 = _exact_monomial(base, *a1_mono)
    mu = _exact_monomial(base, *mu_mono)
    rep1 = validate_choice1(a1, base)
    reports = [rep1]
    if rep1.passed:
        rep2 = validate_choice2(mu, a1)
        reports.append(rep2)
    if not all(r.passed for r in reports):
        failed = [f"{r.subject}: {c.name}" for r in reports for c in r.failures()]
        raise ValidationFailure(
            "parameter choices rejected: " + "; ".join(failed), reports
        )
    return ExtensionDesc(base, a1, mu, target_v2=target_v2), reports


def validation_report_dict(config: JobConfig,
                           reports: list[ValidationReport],
                           rd: RamificationData | None,
                           bound: FreenessBound | None) -> dict:
    out = {
        "config": config.as_dict(),
        "choices": [r.as_dict() for r in reports],
        "printed_item2": printed_example_item2_note(),
        "passed": all(r.passed for r in reports),
    }
    if bound is not None:
        out["freeness_bound"] = bound.as_dict()
        out["passed"] = out["passed"] and bound.holds
    if rd is not None:
        out["ramification"] = rd.as_dict()
    return out
