"""Acceptance suite: one test per criterion, each printing a verdict line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.
"""

import json
import random
import time
from fractions import Fraction
from itertools import product

import pytest

from wittscaffold.audit import galois_invariant_suite, structure_invariant_suite
from wittscaffold.cli import EXIT_VALIDATION, main
from wittscaffold.construction import construct_extension, validate_choice2
from wittscaffold.errors import ValidationFailure
from wittscaffold.pipeline import JobConfig, analyze_report_dict, build_context
from wittscaffold.witt import WittVector2


def verdict(num, ok, text):
    print(f"\nACCEPTANCE {num} [{'PASS' if ok else 'FAIL'}]: {text}")
    assert ok, f"criterion {num}: {text}"


@pytest.fixture(scope="module")
def ctx5():
    config = JobConfig(p=3, e0=6, a1=(1, -1), mu=(1, -1), precision=108)
    return build_context(config)


@pytest.fixture(scope="module")
def suites5(ctx5):
    rng = random.Random(20250811)
    galois = galois_invariant_suite(ctx5, rng, 20)
    structure = structure_invariant_suite(ctx5, rng, 20)
    return {c.name: c for c in galois + structure}


@pytest.fixture(scope="module")
def ctx2():
    config = JobConfig(p=2, e0=4, a1=(1, -1), mu=(1, -1))
    return build_context(config)


def test_criterion_1_golden_reproduction():
    start = time.time()
    config = JobConfig(p=3, e0=6, a1=(1, -1), mu=(1, -1), precision=108)
    ctx = build_context(config)
    report = analyze_report_dict(ctx)
    elapsed = time.time() - start
    ram = report["ramification"]
    tables = report["scaffold_tables"]
    ms = report["module_structure"]
    ok = (
        (ram["b1"], ram["m"], ram["b2"], ram["u2"]) == (1, 1, 10, 4)
        and tables["d"] == [1, 1, 1, 2, 2, 2, 3, 3, 4]
        and tables["w"] == [0, 0, 0, 1, 1, 1, 2, 2, 3]
        and ms["assoc_order_basis"]
        == [
            "1", "Psi1", "Psi1^2",
            "pi0^-1*Psi2", "pi0^-1*Psi1*Psi2", "pi0^-1*Psi1^2*Psi2",
            "pi0^-2*Psi2^2", "pi0^-2*Psi1*Psi2^2", "pi0^-3*Psi1^2*Psi2^2",
        ]
        and ms["valuation_table"] == [1, 4, 7, 2, 5, 8, 3, 6, 0]
        and sorted(ms["valuation_table"]) == list(range(9))
        and ms["free"] is True
        and elapsed < 120
    )
    verdict(1, ok,
            f"worked example reproduced exactly at v2-precision 108 "
            f"(b1=1, m=1, b2=10, u2=4; d, w, basis and all nine "
            f"valuations match; {elapsed:.1f}s)")


def test_criterion_2_bound_checks(ctx5):
    checks = {c.name: c for rep in ctx5.choice_reports for c in rep.checks}
    item1 = checks["above-lower-bound"]
    ok1 = item1.passed and Fraction(-18, 8) == Fraction(-9, 4) \
        and "-9/4 < -1" in item1.detail
    ok3 = ctx5.bound.holds and "54 > 38" in ctx5.bound.detail
    ok4 = ctx5.bound.e0_form_holds and "46/9" in ctx5.bound.e0_form_detail
    from wittscaffold.construction import printed_example_item2_note

    note = printed_example_item2_note()
    rep2 = validate_choice2(ctx5.desc.mu, ctx5.desc.a1)
    ok2 = note["status"] == "inconsistent-as-printed" and rep2.passed
    verdict(2, ok1 and ok2 and ok3 and ok4,
            "items 1, 3, 4 hold as exact rationals (-18/8 < -1; 54 > 38; "
            "6 > 46/9); printed item 2 flagged inconsistent with the "
            "twist-element bounds verified in its place")


def test_criterion_3_witt_ring_laws():
    start = time.time()
    ok = True
    for p in (2, 3):
        mod = p * p
        elems = list(product(range(mod), repeat=2))
        table = {}
        for a in elems:
            wa = WittVector2(a[0], a[1], p)
            for b in elems:
                s = wa + WittVector2(b[0], b[1], p)
                table[a, b] = (s.first % mod, s.second % mod)
        for a in elems:
            for b in elems:
                if table[a, b] != table[b, a]:
                    ok = False
                ab = table[a, b]
                for c in elems:
                    if table[ab, c] != table[a, table[b, c]]:
                        ok = False
        rng = random.Random(p)
        for _ in range(1000):
            x = WittVector2(rng.randrange(p**4), rng.randrange(p**4), p)
            y = WittVector2(rng.randrange(p**4), rng.randrange(p**4), p)
            lhs = (x + y).frobenius()
            rhs = x.frobenius() + y.frobenius()
            if (lhs.first - rhs.first) % p or (lhs.second - rhs.second) % p:
                ok = False
        acc = WittVector2(1, 0, p)
        for _ in range(p - 1):
            acc = acc + WittVector2(1, 0, p)
        if acc.first % p != 0 or acc.second % p != 1:
            ok = False
    verdict(3, ok,
            f"Witt sum laws exhaustive over Z/9 and Z/4; coordinatewise "
            f"p-th power additive mod p on 1000 samples each; p-fold sum "
            f"of (1,0) is (0,1) mod p ({time.time() - start:.1f}s)")


def test_criterion_4_galois_correctness(ctx5, suites5):
    start = time.time()
    names = [
        "generator-defining-relations",
        "epsilon-valuation",
        "generator-order",
        "trace-of-shift-error",
    ]
    ok = all(suites5[n].passed for n in names)
    from lift_reference import compute_sigma2_direct
    from wittscaffold.galois import automorphism_power

    composed = automorphism_power(ctx5.sigma1, 3)
    direct = compute_sigma2_direct(ctx5.desc)
    composed_ok = ((composed.image_x1 - direct.image_x1).vanishes()
                   and (composed.image_x2 - direct.image_x2).vanishes())
    eps = ctx5.sigma1.image_x1 - ctx5.desc.x1() - 1
    verdict(4, ok and composed_ok and eps.valuation() == 48,
            f"defining relations hold to precision; v2(eps) = 48 exactly; "
            f"sigma1^p matches the direct lift; sigma1^9 = id; trace of "
            f"the shift error is -p ({time.time() - start:.1f}s)")


def test_criterion_5_scaffold_law(suites5):
    shift = suites5["shift-law-samples"]
    drop = suites5["digit-shift-and-drop"]
    verdict(5, shift.passed and drop.passed,
            "shift law exact for all (i,j) on 20 sampled elements of "
            "residue b2; digit shift/drop verified on all 9 monomial "
            "residue classes")


def test_criterion_6_congruence_audit(ctx5):
    from wittscaffold.audit import operator_images
    from wittscaffold.structure import congruence_audit

    words = operator_images(ctx5)[:ctx5.desc.degree()]
    rep = congruence_audit(ctx5.desc, ctx5.tables, words, ctx5.rhos)
    verdict(6, rep.passed and rep.modulus == 17 and rep.pairs == 81,
            f"all 81 (j,r) membership and congruence claims hold at "
            f"modulus {rep.modulus}; carry-free pairs are exact equalities")


def test_criterion_7_second_scenario(ctx2):
    start = time.time()
    rng = random.Random(7)
    galois = galois_invariant_suite(ctx2, rng, 20)
    structure = structure_invariant_suite(ctx2, rng, 20)
    suite_ok = all(c.passed for c in galois + structure)
    ms = ctx2.module_report
    lhs = 2 * 2 * 4 - (2 + 1) * 5 + (2 - 1) * 1
    elapsed = time.time() - start
    ok = (
        ctx2.rd.b2 == 5
        and ctx2.bound.holds
        and lhs == 2
        and ms is not None
        and ms.free
        and (3 % ctx2.tables.r_b2 == 0)
        and ms.generator_complete
        and suite_ok
        and elapsed < 30
    )
    verdict(7, ok,
            f"p=2, e0=4 scenario: b2=5, structural bound margin 2>0, "
            f"r(b2)=1 divides 3, free with exhibited generator; all "
            f"invariant suites pass ({elapsed:.1f}s)")


def test_criterion_8_negative_control(tmp_path, capsys):
    try:
        construct_extension(3, 6, (1, -2), (1, -1))
        api_rejected = False
        message = ""
    except ValidationFailure as exc:
        api_rejected = True
        message = str(exc)
    cfg = tmp_path / "reject.cfg"
    cfg.write_text("p = 3\ne0 = 6\na1 = pi0^-2\nmu = pi0^-1\n")
    rc = main(["validate", "--config", str(cfg), "--json"])
    out = capsys.readouterr().out
    report = json.loads(out)
    named = any(
        c["name"] == "second-bound" and not c["passed"] and "9 > 16" in c["detail"]
        for block in report["choices"]
        for c in block["checks"]
    )
    verdict(8, api_rejected and "second-bound" in message
            and rc == EXIT_VALIDATION and named,
            "a1 = pi0^-2 rejected at validation; the failing inequality "
            "is named (second-bound: 9 > 16)")
