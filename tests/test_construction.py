from fractions import Fraction
from types import SimpleNamespace

import pytest

from wittscaffold.construction import (
    check_freeness_bound,
    construct_extension,
    printed_example_item2_note,
    ramification_data,
    validate_choice1,
    validate_choice2,
)
from wittscaffold.errors import ValidationFailure
from wittscaffold.padic import BaseField
from wittscaffold.structure import build_tables


@pytest.fixture(scope="module")
def field():
    return BaseField(3, 6, prec_digits=12)


def check_by_name(report, name):
    return next(c for c in report.checks if c.name == name)


class TestChoice1:
    def test_example_passes(self, field):
        rep = validate_choice1(field.monomial(1, -1), field)
        assert rep.passed
        bound = check_by_name(rep, "above-lower-bound")
        assert str(Fraction(-18, 8)) in bound.detail  # -9/4 rendered exactly

    def test_zero_valuation_fails(self, field):
        rep = validate_choice1(field.one(), field)
        assert not rep.passed
        assert not check_by_name(rep, "negative-valuation").passed

    def test_p_dividing_valuation_fails(self, field):
        rep = validate_choice1(field.monomial(1, -3), field)
        assert not check_by_name(rep, "prime-to-p").passed


class TestChoice2:
    def test_example_passes(self, field):
        rep = validate_choice2(field.monomial(1, -1), field.monomial(1, -1))
        assert rep.passed
        first = check_by_name(rep, "first-bound")
        assert "9 > 31/6" in first.detail
        second = check_by_name(rep, "second-bound")
        assert "9 > 8" in second.detail

    def test_second_bound_failure(self, field):
        # v0(a1) = -2 forces p^2*m = 9 > 16, which fails
        rep = validate_choice2(field.monomial(1, -1), field.monomial(1, -2))
        assert not rep.passed
        second = check_by_name(rep, "second-bound")
        assert not second.passed
        assert "9 > 16" in second.detail

    def test_nonnegative_mu_valuation_fails(self, field):
        rep = validate_choice2(field.one(), field.monomial(1, -1))
        assert not rep.passed
        assert not check_by_name(rep, "positive-m").passed


class TestConstructExtension:
    def test_example_construction(self):
        desc, reports = construct_extension(3, 6, (1, -1), (1, -1))
        assert all(r.passed for r in reports)
        assert (desc.b1, desc.m, desc.b2) == (1, 1, 10)
        assert desc.a2 == desc.mu**3 * desc.a1

    def test_negative_control_names_failed_bound(self):
        with pytest.raises(ValidationFailure) as err:
            construct_extension(3, 6, (1, -2), (1, -1))
        assert "second-bound" in str(err.value)

    def test_p2_scenario(self):
        desc, reports = construct_extension(2, 4, (1, -1), (1, -1))
        assert all(r.passed for r in reports)
        assert (desc.b1, desc.m, desc.b2) == (1, 1, 5)


class TestRamificationData:
    def test_example_values(self):
        desc, _ = construct_extension(3, 6, (1, -1), (1, -1))
        rd = ramification_data(desc)
        assert (rd.b1, rd.b2, rd.u1, rd.u2) == (1, 10, 1, 4)
        assert rd.depth == 26
        assert rd.different_val == 34
        assert rd.precision_c == 1
        assert rd.as_dict()["residue_b"] == rd.r_b2 == 1

    def test_p2_values(self):
        desc, _ = construct_extension(2, 4, (1, -1), (1, -1))
        rd = ramification_data(desc)
        assert (rd.b1, rd.b2, rd.u2) == (1, 5, 3)
        assert rd.depth == (2 - 1) * 5 + 2 * (2 - 1) * 1 == 7
        assert rd.precision_c == 1

    def test_invariants_hold_for_validated_sets(self):
        for p, e0, a1k, muk in [(3, 6, -1, -1), (2, 4, -1, -1), (3, 6, -1, -2),
                                (5, 6, -1, -1), (5, 21, -2, -1)]:
            try:
                desc, _ = construct_extension(p, e0, (1, a1k), (1, muk))
            except ValidationFailure:
                continue
            rd = ramification_data(desc)
            assert (rd.b2 - rd.b1) % (p * p) == 0
            assert rd.b1 % p != 0
            assert rd.b2 > p * p * rd.b1
            assert rd.precision_c >= 1
            assert rd.u2 == -desc.a2.valuation()


class TestFreenessBound:
    def test_example(self):
        desc, _ = construct_extension(3, 6, (1, -1), (1, -1))
        rd = ramification_data(desc)
        fb = check_freeness_bound(rd, desc.base)
        assert fb.holds
        assert "54 > 38" in fb.detail
        assert fb.e0_form_holds and "46/9" in fb.e0_form_detail
        assert fb.margin_form_holds and "17 > 9" in fb.margin_form_detail

    def test_p2_scenario_main_bound_only(self):
        desc, _ = construct_extension(2, 4, (1, -1), (1, -1))
        rd = ramification_data(desc)
        fb = check_freeness_bound(rd, desc.base)
        # 16 - 15 + 1 = 2 > 0 holds; the two derived comparisons are
        # diagnostics and genuinely fail at these parameters
        assert fb.holds
        assert not fb.margin_form_holds

    def test_failing_bound(self):
        desc, _ = construct_extension(3, 6, (1, -1), (1, -2))
        rd = ramification_data(desc)
        fb = check_freeness_bound(rd, desc.base)
        assert not fb.holds

    def test_bound_implies_the_depth_cap(self):
        # p^2*e0 > (p+1)*b2 - (p-1)*b1 with b2 > p^2*b1 keeps the depth
        # (p-1)*b2 + p*(p-1)*b1 below (p^2+1)/(p^2+p) * p^2*e0, so that
        # cap needs no check of its own; b2 = p^2*m + b1, and the bound
        # admits only m < e0/(p+1).  For every m in that range, admitted
        # or not, the definitions fix what the build needs no check for:
        # the monomial valuations -b1*(i*p + j) cover Z/p^2, the index
        # map and the landings mod p^2 are permutations, w_j <= d_j - d_0
        # (the a = 0 term of its minimum) and u2 = p*m + b1 = -v0(a2)
        tuples = 0
        for p in (2, 3, 5, 7, 11):
            p2 = p * p
            for b1 in range(1, 60):
                if b1 % p == 0:
                    continue
                for m in range(1, 120 // (p + 1) + 1):
                    b2 = p2 * m + b1
                    residues = {(-i * p * b1 - j * b2) % p2
                                for i in range(p) for j in range(p)}
                    assert len(residues) == p2, (p, b1, m)
                    tables = build_tables(
                        SimpleNamespace(p=p, b1=b1, b2=b2, r_b2=b2 % p2))
                    assert sorted(tables.a_map) == list(range(p2)), (p, b1, m)
                    assert sorted(b % p2 for b in tables.b_map) == list(
                        range(p2)), (p, b1, m)
                    d, w = tables.d, tables.w
                    assert all(w[j] <= d[j] - d[0] for j in range(p2)), (
                        p, b1, m)
                    assert b1 + (b2 - b1) // p == p * m + b1
                    for e0 in range(1, 120):
                        if (p2 * e0 > (p + 1) * b2 - (p - 1) * b1
                                and b2 > p2 * b1):
                            depth = (p - 1) * b2 + p * (p - 1) * b1
                            assert depth * (p2 + p) < (p2 + 1) * p2 * e0, (
                                p, e0, b1, b2)
                            tuples += 1
        assert tuples == 42500


class TestPrintedItem2:
    def test_flagged_as_inconsistent(self):
        note = printed_example_item2_note()
        assert note["status"] == "inconsistent-as-printed"
