"""The audit's fault matrix: every check the audit prints can fail.

Each row mutates one object of a built context, then rebuilds the later
stages from it the way ``--fault-inject sigma1`` does: the psi
operators and the words, then the rho family with its check skipped,
and no module report.  Each row names the checks it must fail, each
with the reason that follows from the mathematics.  A row may put in a
map that is not an automorphism: the audit must catch those too.
"""

import dataclasses
import random

import pytest

from wittscaffold.audit import (
    corrupt_sigma1,
    galois_invariant_suite,
    structure_invariant_suite,
)
from wittscaffold.galois import (
    Automorphism,
    GroupRingElement,
    psi_operators,
    scaffold_words,
)
from wittscaffold.pipeline import JobConfig, build_context
from wittscaffold.structure import rho_family

CONFIGS = {
    "golden": JobConfig(3, 6, (1, -1), (1, -1)),
    "p2": JobConfig(2, 4, (1, -1), (1, -1)),
}
SAMPLES = 5


def rebuilt(ctx, stage):
    """``ctx`` with every stage after ``stage`` ("sigma", "words",
    "tables" or "rho") built again from its objects, unchecked."""
    if stage == "sigma":
        ctx.psi1, ctx.psi2 = psi_operators(ctx.desc, ctx.sigma1, ctx.sigma2)
        ctx.words = scaffold_words(ctx.psi1, ctx.psi2)
    if stage != "rho":
        ctx.rho_images, ctx.rhos = rho_family(ctx.desc, ctx.tables, ctx.words,
                                              ctx.rho0, check=False)
    ctx.module_report = None
    ctx.op_images = None
    return ctx


def with_x1_image(ctx, image_x1):
    ctx.sigma1 = Automorphism(ctx.desc, image_x1, ctx.sigma1.image_x2)
    return rebuilt(ctx, "sigma")


def fault(ctx):
    ctx.sigma1 = corrupt_sigma1(ctx.sigma1)
    return rebuilt(ctx, "sigma")


def x1_moved_by_two(ctx):
    return with_x1_image(ctx, ctx.sigma1.image_x1 + 1)


def x1_translated(ctx):
    return with_x1_image(ctx, ctx.desc.x1() + ctx.desc.pi0(-1))


def sigma2_is_sigma1(ctx):
    ctx.sigma2 = ctx.sigma1
    return rebuilt(ctx, "sigma")


def words_swapped(ctx):
    ctx.words = list(ctx.words)
    ctx.words[1], ctx.words[2] = ctx.words[2], ctx.words[1]
    return rebuilt(ctx, "words")


def word1_coefficient_moved(ctx):
    ctx.words = list(ctx.words)
    word = ctx.words[1]
    coeffs = dict(word.coeffs)
    coeffs[1] = coeffs[1] + ctx.desc.base.pi0(2)
    ctx.words[1] = GroupRingElement(word.sigma1, word.sigma2, coeffs)
    return rebuilt(ctx, "words")


def w1_raised(ctx):
    w = list(ctx.tables.w)
    w[1] += 1
    ctx.tables = dataclasses.replace(ctx.tables, w=w)
    return rebuilt(ctx, "tables")


def rho_image1_scaled(ctx):
    ctx.rho_images = list(ctx.rho_images)
    ctx.rho_images[1] = ctx.rho_images[1].scale(ctx.desc.base.pi0(1))
    return rebuilt(ctx, "rho")


def rho1_scaled(ctx):
    ctx.rhos = list(ctx.rhos)
    ctx.rhos[1] = ctx.rhos[1].scale(ctx.desc.base.pi0(1))
    return rebuilt(ctx, "rho")


def rows(p):
    """(row name, mutation, {check it must fail: reason})."""
    return [
        ("fault-inject-sigma1", fault, {
            "generator-defining-relations":
                "(y+1)^p - y^p - 1 = sum_{0<k<p} C(p,k) y^k has v2 below "
                "v2(p) = p^2 e0 < target, as v2(y = sigma1 x2) < 0",
            "witt-congruence":
                "the x2 image moves by the unit 1, so its floor drops to 0",
            "congruence-grid":
                "carry-free word products need sigma1^p = sigma2, and "
                "sigma1^p(x2) now moves by p, visible below the target",
        }),
        ("sigma1-moves-x1-by-2", x1_moved_by_two, {
            "generator-defining-relations":
                "(y+1)^p - y^p - 1 has v2 below v2(p) < target, as "
                "v2(y = sigma1 x1) = -p b1 < 0",
            "witt-congruence":
                "x1 + 2 differs from x1 + 1 by the unit 1",
        }),
        ("sigma1-translates-x1-by-pi0^-1", x1_translated, {
            "generator-order":
                "(x1 + c)^i needs no reduction for i < p, so sigma1^n(x1) "
                "= x1 + n c, and v2(p^2 pi0^-1) = 2 p^2 e0 - p^2 < target",
            "witt-congruence":
                "x1 + pi0^-1 differs from x1 + 1 at valuation -p^2 < 1",
        }),
        ("sigma2-is-sigma1", sigma2_is_sigma1, {
            "trace-of-shift-error":
                "T^p acts as sigma1, so Tr = sum_{j<p} sigma1^j telescopes: "
                "Tr(sigma1 x2 - x2 - 1) + p = sigma1^p(x2) - x2 = 1 + delta",
            "psi2-pth-power-growth":
                "psi2 acts as sigma1 - 1, and (sigma1 - 1)^p = sigma2 - 1 "
                "mod p, which raises a valuation prime to p only by b2 < p^2 e0",
            "depth-bound-on-traces":
                "Tr acts as S^2, S = sum_{k<p} sigma1^k; S^2 - Tr_{K2/K0} = "
                "S (S - Tr_{K2/K1}) vanishes at every p-th root of unity, so "
                "it is psi2 times a polynomial in sigma1, short of the depth",
            "normal-basis-rank":
                "T^k acts as sigma1^(k mod p + k div p), so the p^2 word "
                "images of rho lie in a span of 2p - 1 < p^2 elements",
        }),
        ("words-1-and-2-swapped", words_swapped, {
            "shift-law-samples":
                "word 1 now shifts by word 2's amount, not by p b1",
            "digit-shift-and-drop":
                "psi1 is word 1, which now lands where word 2 does",
            **({"psi2-pth-power-growth":
                "at p = 2 psi2 is word 2, now psi1, and psi1^2 raises "
                "valuations by about b2 < p^2 e0"} if p == 2 else {}),
        }),
        ("word-1-coefficient-moved-by-pi0^2", word1_coefficient_moved, {
            "operators-kill-constants":
                "psi1's coefficients no longer sum to 0, so psi1(7) = 7 pi0^2",
        }),
        ("w-entry-1-raised", w1_raised, {
            "w-table-brute-force":
                "the recomputation from the breaks keeps the old w_1",
        }),
        ("rho-image-1-scaled-by-pi0", rho_image1_scaled, {
            "psi1-pth-power-valuation":
                "psi1 is K0-linear, so psi1^p rho moves to 2 b2 + p^2",
            "psi1-pth-power-congruence":
                "psi1^p rho - psi2 rho becomes (pi0 - 1) psi2 rho, of "
                "valuation 2 b2, below the modulus",
        }),
        ("rho-1-scaled-by-pi0", rho1_scaled, {
            "rho-valuations":
                "v2(rho_1) moves up by p^2, out of the residues 0..p^2-1",
        }),
    ]


def failed_checks(ctx):
    rng = random.Random(1)
    checks = (galois_invariant_suite(ctx, rng, SAMPLES)
              + structure_invariant_suite(ctx, rng, SAMPLES))
    return [c.name for c in checks], {c.name for c in checks if not c.passed}


@pytest.fixture(scope="module", params=sorted(CONFIGS))
def built(request):
    return build_context(CONFIGS[request.param])


def test_every_check_fails_under_some_row(built):
    ctx = built
    names, failed = failed_checks(ctx)
    assert not failed
    p = ctx.desc.p
    caught = set()
    for name, mutate, fails in rows(p):
        _, row_failed = failed_checks(mutate(dataclasses.replace(ctx)))
        assert set(fails) <= row_failed, name
        caught |= row_failed
    assert set(names) <= caught
