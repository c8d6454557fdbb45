import random
from collections import Counter

import pytest

from wittscaffold.errors import (
    DivisionByIndeterminateZero,
    IndeterminateValuation,
    MembershipUndecided,
)
from k0_reference import PadicInt
from wittscaffold.padic import BaseField, K0Element, dots, wp_membership_guard


@pytest.fixture(scope="module")
def field():
    return BaseField(3, 6, prec_digits=20)


def random_element(field, rng, max_shift=6):
    shift = rng.randrange(-max_shift, max_shift + 1)
    digits = [rng.randrange(0, 3**6) for _ in range(field.e0)]
    return K0Element.make(field, shift, digits,
                          shift + field.e0 * field.prec_digits)


class TestPadicInt:
    def test_valuation(self):
        x = PadicInt(3, 18, 10)
        assert x.valuation() == 2
        assert PadicInt(3, 0, 10).valuation() is None

    def test_add_precision_is_min(self):
        a = PadicInt(3, 5, 10)
        b = PadicInt(3, 7, 4)
        assert (a + b).prec == 4

    def test_mul_precision(self):
        # v(a) = 2, so the product is only known to v(a) + prec(b)
        a = PadicInt(3, 9, 10)
        b = PadicInt(3, 2, 5)
        assert (a * b).prec == 7
        assert (a * b).digits == 18

    def test_unit_inverse(self):
        a = PadicInt(3, 25, 8)
        assert (a * a.unit_inverse()) == 1

    def test_divexact(self):
        a = PadicInt(3, 27, 9)
        q = a.divexact_p(3)
        assert q.digits == 1 and q.prec == 6

    def test_int_scaling_keeps_relative_precision(self):
        a = PadicInt(3, 2, 5)
        assert (a * 9).prec == 7


class TestK0Arithmetic:
    def test_eisenstein_relation(self, field):
        pi = field.pi0()
        assert pi * field.monomial(1, 5) == field.from_int(3)

    def test_additive_identity(self, field):
        x = field.monomial(2, -3)
        assert x + field.zero() == x

    def test_schoolbook_product(self, field):
        # oracle: multiply (1 + t)(1 - t) in Z[t]/(t^6 - 3) by hand
        coeffs_a = [1, 1, 0, 0, 0, 0]
        coeffs_b = [1, -1, 0, 0, 0, 0]
        conv = [0] * 11
        for i, ca in enumerate(coeffs_a):
            for j, cb in enumerate(coeffs_b):
                conv[i + j] += ca * cb
        for k in range(10, 5, -1):
            conv[k - 6] += 3 * conv[k]
            conv[k] = 0
        expected = sum(
            (field.monomial(c, i) for i, c in enumerate(conv[:6])), field.zero()
        )
        got = (field.one() + field.pi0()) * (field.one() - field.pi0())
        assert got == expected
        assert got == field.one() - field.monomial(1, 2)

    def test_valuation_examples(self, field):
        assert field.from_int(3).valuation() == 6
        assert field.monomial(1, -4).valuation() == -4
        assert field.one().valuation() == 0

    def test_indeterminate_valuation(self, field):
        with pytest.raises(IndeterminateValuation):
            field.zero().valuation()

    def test_division(self, field):
        rng = random.Random(11)
        for _ in range(20):
            x = random_element(field, rng)
            y = random_element(field, rng)
            if y.is_zero():
                continue
            assert (x * y.inverse()) * y == x

    def test_division_by_zero(self, field):
        with pytest.raises(DivisionByIndeterminateZero):
            field.one() * field.zero().inverse()

    def test_negative_power_raises(self, field):
        with pytest.raises(ValueError):
            field.pi0() ** -1

    def test_canonical_form_has_unit_coefficient(self, field):
        x = field.monomial(9, 2)  # 9 * pi0^2 = pi0^14 * unit
        assert x.valuation() == 14
        assert x.digits[0] % 3 != 0

    def test_composite_residue_characteristic_rejected(self):
        with pytest.raises(ValueError):
            BaseField(4, 6)
        with pytest.raises(ValueError):
            BaseField(9, 2)


class TestUltrametric:
    def test_triangle_law(self, field):
        rng = random.Random(5)
        for _ in range(200):
            x = random_element(field, rng)
            y = random_element(field, rng)
            if x.is_zero() or y.is_zero():
                continue
            vx, vy = x.valuation(), y.valuation()
            s = x + y
            if s.is_zero():
                continue
            assert s.valuation() >= min(vx, vy)
            if vx != vy:
                assert s.valuation() == min(vx, vy)

    def test_multiplicativity(self, field):
        rng = random.Random(6)
        for _ in range(200):
            x = random_element(field, rng)
            y = random_element(field, rng)
            if x.is_zero() or y.is_zero():
                continue
            assert (x * y).valuation() == x.valuation() + y.valuation()

    def test_precision_monotone_against_double_precision(self):
        # recompute the same expressions with doubled coefficient digits;
        # the coarse result must agree with the fine one through its own
        # reported precision, and never claim more than the fine run
        coarse = BaseField(3, 6, prec_digits=8)
        fine = BaseField(3, 6, prec_digits=16)
        rng = random.Random(7)
        for _ in range(50):
            seed_x = rng.randrange(10**9)
            seed_y = rng.randrange(10**9)
            ops = [rng.choice("+*-") for _ in range(4)]
            xc = random_element(coarse, random.Random(seed_x), max_shift=3)
            xf = random_element(fine, random.Random(seed_x), max_shift=3)
            yc = random_element(coarse, random.Random(seed_y), max_shift=3)
            yf = random_element(fine, random.Random(seed_y), max_shift=3)
            for op in ops:
                if op == "+":
                    xc, xf = xc + yc, xf + yf
                elif op == "-":
                    xc, xf = xc - yc, xf - yf
                else:
                    xc, xf = xc * yc, xf * yf
            assert xc.precision() <= xf.precision()
            assert (xf - _reembed(xc, fine)).val_floor() >= xc.precision()


def _reembed(x, target_field):
    return K0Element.make(target_field, x.shift, x.digits, x.absprec)


class TestPrecisionSoundness:
    def test_sum_with_low_precision_zero_keeps_its_precision(self):
        # b is a zero known only modulo pi0^-1: the sum cannot know more,
        # however deep the digits of a lie
        f = BaseField(2, 4, prec_digits=6)
        a = K0Element.make(f, 6, [4, 0, 0, 0], 30)
        b = K0Element.make(f, -5, [4, 0, 0, 0], -1)
        assert b.is_zero() and b.precision() == -1
        s = a + b
        assert s.precision() == -1
        assert s.val_floor() == -1
        with pytest.raises(IndeterminateValuation):
            s.valuation()

    def test_inverse_keeps_relative_precision(self, field):
        # (1 + pi0) - 1 = pi0 + O(pi0^120): relative precision 119, so
        # its inverse pi0^-1 is known modulo pi0^118 and no further
        x = (field.one() + field.pi0()) - field.one()
        assert (x.valuation(), x.precision()) == (1, 120)
        inv = x.inverse()
        assert inv.valuation() == -1
        assert inv.precision() == 118
        assert (inv * x).precision() == 119

    def test_digits_reduced_to_one_absolute_precision(self, field):
        # known modulo pi0^7: digit 0 modulo 9, the others modulo 3
        x = K0Element.make(field, 0, [5] + [3**5 - 1] * 5, 7)
        assert x.precision() == 7
        assert field._digit_moduli(7) == (9, 3, 3, 3, 3, 3)
        assert x.digits == (5, 2, 2, 2, 2, 2)


class TestZeroForm:
    """A value that is zero at its precision N is O(pi0^N), stored at
    shift N with all digits 0, however it was computed."""

    def test_every_zero_is_stored_at_its_precision(self):
        f = BaseField(3, 6, prec_digits=8)
        full = f.e0 * f.prec_digits
        rng = random.Random(17)
        kinds = Counter()

        def element():
            shift = rng.randint(-12, 12)
            digits = [rng.randrange(3**9) for _ in range(f.e0)]
            return K0Element.make(f, shift, digits,
                                  shift + rng.randint(1, full))

        def check(kind, x):
            if x.is_zero():
                assert (x.shift, x.digits) == (x.absprec, f._zeros), (kind, x)
                kinds[kind] += 1

        for _ in range(300):
            x, y = element(), element()
            # x known to less, possibly not even to its own shift
            cut = K0Element.make(f, x.shift, x.digits,
                                 rng.randint(x.shift - 6, x.absprec))
            check("make", cut)
            shift = rng.randint(-12, 12)
            check("make", K0Element.make(
                f, shift, [3 ** rng.randint(0, 9) * d for d in x.digits],
                shift + rng.randint(-6, full)))
            check("-", x - cut)
            check("-", cut - x)
            check("+", x + (-cut))
            check("+", (-cut) + x)
            check("*", x * (x - cut))
            check("*", (y - y) * x)
            for z in dots([[(x, y), (-(x * y), None)],
                           [(x, None), (-cut, None)],
                           [(x - x, y), (y - y, None)]]):
                check("dots", z)
        assert set(kinds) == {"make", "+", "-", "*", "dots"}
        assert min(kinds.values()) >= 100, kinds

    def test_a_pristine_zero_is_one_known_to_the_full_precision(self):
        f = BaseField(3, 6, prec_digits=8)
        full = f.e0 * f.prec_digits
        assert f.zero().is_pristine_zero()
        for n in range(-20, 2 * full):
            z = K0Element.make(f, n - 9, f._zeros, n)
            assert z.is_pristine_zero() == (n >= full)
            assert not f.monomial(1, n).is_pristine_zero()
        # x - x for x known to N: the shift of x does not count, only N
        for shift in range(-10, 20):
            for rel in (full - 9, full, full + 9):
                x = K0Element.make(f, shift, [1, 2, 0, 1, 0, 2], shift + rel)
                assert (x - x).is_pristine_zero() == (shift + rel >= full)


class TestMembershipGuard:
    def test_certified_cases(self, field):
        assert wp_membership_guard(field.monomial(1, -1)) is True
        assert wp_membership_guard(field.monomial(1, -5)) is True

    def test_undecided_when_p_divides(self, field):
        with pytest.raises(MembershipUndecided):
            wp_membership_guard(field.monomial(1, -3))

    def test_undecided_when_nonnegative(self, field):
        with pytest.raises(MembershipUndecided):
            wp_membership_guard(field.one())
