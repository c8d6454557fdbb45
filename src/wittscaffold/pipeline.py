"""End-to-end orchestration: parameters in, reports out.

Builds the validated extension, realizes the Galois group and scaffold
operators, derives all tables and the freeness verdict, and assembles
JSON-ready report dictionaries shared by the CLI renderers.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from . import audit as audit_mod
from .construction import (
    DEFAULT_GUARD_DIGITS,
    FreenessBound,
    RamificationData,
    ValidationReport,
    check_freeness_bound,
    construct_extension,
    default_target_v2,
    printed_example_item2_note,
    ramification_data,
)
from .errors import PRECISION_ERRORS
from .galois import (
    Automorphism,
    GroupRingElement,
    compute_sigma1,
    compute_sigma2,
    psi_operators,
    scaffold_words,
)
from .structure import (
    ModuleStructureReport,
    ScaffoldTables,
    associated_order_and_freeness,
    build_tables,
    rho_family,
)
from .tower import ExtensionDesc, K2Element, uniformizer_exponents


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
        if self.e0 < 1:
            raise ValueError(f"e0 must be at least 1, got {self.e0}")
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


@dataclass
class AnalysisContext:
    """Everything the reports and audits need, built once."""

    config: JobConfig
    desc: ExtensionDesc
    choice_reports: list[ValidationReport]
    rd: RamificationData
    bound: FreenessBound
    sigma1: Automorphism
    sigma2: Automorphism
    psi1: GroupRingElement
    psi2: GroupRingElement
    words: list[GroupRingElement]
    tables: ScaffoldTables
    rho0: K2Element
    rho0_exponents: tuple[int, int, int]
    rho_images: list[K2Element]
    rhos: list[K2Element]
    module_report: ModuleStructureReport | None
    fault: str | None = None


FAULT_NAMES = ("sigma1",)

# a build that runs out of precision is repeated this many times, each
# with max(1, 2*digits) guard digits: 0 -> 1 -> 2 -> 4 -> 8
GUARD_RETRIES = 4


def build_context(config: JobConfig,
                  guard_digits: int = DEFAULT_GUARD_DIGITS,
                  fault: str | None = None) -> AnalysisContext:
    """Run the construction pipeline.  ``fault`` deliberately corrupts a
    stage once it is built and verified (sigma1 after sigma2 is lifted),
    skipping the later checks, so the audit suites can demonstrate
    detection.

    A build that raises one of ``PRECISION_ERRORS`` is rebuilt with
    max(1, 2*guard_digits) guard digits, up to ``GUARD_RETRIES`` times;
    the last attempt's error propagates.  A ``ValidationFailure`` is
    never retried.  The coefficient digits of the build that succeeded,
    guard digits included, are ``ctx.desc.base.prec_digits``."""
    if fault is not None and fault not in FAULT_NAMES:
        raise ValueError(f"unknown fault {fault!r}; known: {FAULT_NAMES}")
    for _ in range(GUARD_RETRIES):
        try:
            return _build(config, guard_digits, fault)
        except PRECISION_ERRORS:
            guard_digits = max(1, 2 * guard_digits)
    return _build(config, guard_digits, fault)


def _build(config: JobConfig, guard_digits: int,
           fault: str | None) -> AnalysisContext:
    strict = fault is None
    desc, reports = construct_extension(
        config.p, config.e0, config.a1, config.mu,
        target_v2=config.precision, guard_digits=guard_digits,
    )
    rd = ramification_data(desc)
    bound = check_freeness_bound(rd, desc.base)
    sigma1 = compute_sigma1(desc)
    sigma2 = compute_sigma2(desc, sigma1)
    if fault == "sigma1":
        sigma1 = audit_mod.corrupt_sigma1(sigma1)
    psi1, psi2 = psi_operators(desc, sigma1, sigma2)
    words = scaffold_words(psi1, psi2)
    tables = build_tables(rd)
    rho0_exponents = uniformizer_exponents(desc, tables.r_b2)
    rho0 = desc.monomial(*rho0_exponents)
    rho_images, rhos = rho_family(desc, tables, words, rho0, check=strict)
    module_report = None
    if bound.holds and strict:
        module_report = associated_order_and_freeness(
            desc, tables, rho_images, bound
        )
    return AnalysisContext(
        config=config,
        desc=desc,
        choice_reports=reports,
        rd=rd,
        bound=bound,
        sigma1=sigma1,
        sigma2=sigma2,
        psi1=psi1,
        psi2=psi2,
        words=words,
        tables=tables,
        rho0=rho0,
        rho0_exponents=rho0_exponents,
        rho_images=rho_images,
        rhos=rhos,
        module_report=module_report,
        fault=fault,
    )


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


def generator_dict(ctx: AnalysisContext) -> dict:
    k, i, j = ctx.rho0_exponents
    parts = []
    if k:
        parts.append(f"pi0^{k}")
    if i:
        parts.append("x1" if i == 1 else f"x1^{i}")
    if j:
        parts.append("y2" if j == 1 else f"y2^{j}")
    return {
        "pi0_exponent": k,
        "x1_exponent": i,
        "y2_exponent": j,
        "printed": "*".join(parts) if parts else "1",
        "valuation": ctx.rho0.valuation(),
    }


def analyze_report_dict(ctx: AnalysisContext) -> dict:
    out = validation_report_dict(ctx.config, ctx.choice_reports, ctx.rd, ctx.bound)
    out["scaffold_tables"] = ctx.tables.as_dict()
    if ctx.module_report is not None:
        ms = ctx.module_report.as_dict()
        ms["generator"] = generator_dict(ctx) if ctx.module_report.free else None
        out["module_structure"] = ms
    else:
        out["module_structure"] = {
            "free": None,
            "note": "structural bound fails; no freeness verdict",
        }
    return out


def audit_report_dict(ctx: AnalysisContext, samples: int, seed: int) -> dict:
    rng = random.Random(seed)
    galois_checks = audit_mod.galois_invariant_suite(ctx, rng, samples)
    structure_checks = audit_mod.structure_invariant_suite(ctx, rng, samples)
    all_checks = galois_checks + structure_checks
    return {
        "config": ctx.config.as_dict(),
        "samples": samples,
        "seed": seed,
        "fault": ctx.fault,
        "galois": [c.as_dict() for c in galois_checks],
        "structure": [c.as_dict() for c in structure_checks],
        "passed": all(c.passed for c in all_checks),
        "failed_names": [c.name for c in all_checks if not c.passed],
    }
