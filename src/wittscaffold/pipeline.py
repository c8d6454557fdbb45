"""End-to-end orchestration: parameters in, reports out.

Builds the validated extension, realizes the Galois group and scaffold
operators, derives all tables and the freeness verdict, and assembles
JSON-ready report dictionaries shared by the CLI renderers.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

# the job config, the retry and fault constants and the validation report
# live in construction, so that ``validate`` loads no analysis layer
from .construction import (
    DEFAULT_GUARD_DIGITS,
    FAULT_NAMES,
    GUARD_RETRIES,
    FreenessBound,
    JobConfig,
    RamificationData,
    ValidationReport,
    check_freeness_bound,
    construct_extension,
    ramification_data,
    validation_report_dict,
)
from .errors import PRECISION_ERRORS
from .galois import (
    Automorphism,
    BasisImages,
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
    # the audit's operators as basis images (audit.operator_images),
    # built on the audit's first use
    op_images: list[BasisImages] | None = None


def build_context(config: JobConfig,
                  guard_digits: int = DEFAULT_GUARD_DIGITS,
                  fault: str | None = None) -> AnalysisContext:
    """Run the construction pipeline.  ``fault`` deliberately corrupts a
    stage once it is built and verified (sigma1 after sigma2 = sigma1^p),
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
        from .audit import corrupt_sigma1
        sigma1 = corrupt_sigma1(sigma1)
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
    from . import audit as audit_mod  # only audits load the audit layer
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
