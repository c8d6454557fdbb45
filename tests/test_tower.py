import random

import pytest

from wittscaffold.construction import construct_extension
from wittscaffold.errors import (
    IndeterminateValuation,
    NoConvergence,
    PrecisionExhausted,
)
from wittscaffold.tower import (
    K2Element,
    hensel_lift,
    scaffold_lambda,
    uniformizer_exponents,
)
from wittscaffold.witt import d_poly


@pytest.fixture(scope="module")
def ext():
    desc, _ = construct_extension(3, 6, (1, -1), (1, -1))
    return desc


def random_k2(ext, rng, span=2):
    el = ext.zero()
    for _ in range(4):
        k = rng.randrange(-span, span + 1)
        i = rng.randrange(ext.p)
        j = rng.randrange(ext.p)
        c = rng.randrange(1, 9)
        el = el + ext.monomial(k, i, j).scale(c)
    return el


class TestDefiningRelations:
    def test_x1_relation_via_product(self, ext):
        x1 = ext.x1()
        assert x1 * x1 ** (ext.p - 1) == x1 + ext.from_k0(ext.a1)

    def test_x2_relation(self, ext):
        x1, x2 = ext.x1(), ext.x2()
        rhs = x2 + ext.from_k0(ext.a2) + d_poly(x1, ext.from_k0(ext.a1), ext.p)
        assert x2**ext.p == rhs

    def test_multiplicative_identity(self, ext):
        z = ext.x1() + ext.x2()
        assert z * ext.one() == z


class TestYBasis:
    def test_x2_in_y_basis(self, ext):
        y = ext.x2().y_coefficients()
        # x2 = y2 + mu*x1
        assert y[0][1] == ext.base.one()
        assert y[1][0] == ext.mu
        assert y[0][0].is_zero()

    def test_x1_fixed(self, ext):
        y = ext.x1().y_coefficients()
        assert y[1][0] == ext.base.one()
        assert y[0][1].is_zero()

    def test_round_trip(self, ext):
        rng = random.Random(17)
        for _ in range(10):
            el = random_k2(ext, rng)
            back = K2Element.from_y_grid(ext, [list(r) for r in el.y_coefficients()])
            assert (el - back).is_zero()


class TestValuation:
    def test_named_values(self, ext):
        assert ext.x2().valuation() == -12  # -(p-1)*b1 - b2
        assert ext.pi0().valuation() == 9
        assert ext.x1().valuation() == -3
        assert ext.y2().valuation() == -10
        d1 = d_poly(ext.x1(), ext.from_k0(ext.a1), ext.p)
        assert d1.valuation() == -21  # p * -(p^2-p+1) * b1

    def test_monomial_closed_form(self, ext):
        rng = random.Random(23)
        for _ in range(40):
            k = rng.randrange(-3, 4)
            i = rng.randrange(3)
            j = rng.randrange(3)
            el = ext.monomial(k, i, j)
            assert el.valuation() == 9 * k - 3 * i - 10 * j

    def test_residue_bijection(self, ext):
        residues = {
            ext.monomial_valuation(0, i, j) % 9 for i in range(3) for j in range(3)
        }
        assert residues == set(range(9))

    def test_ultrametric_and_multiplicative(self, ext):
        rng = random.Random(29)
        for _ in range(25):
            x = random_k2(ext, rng)
            y = random_k2(ext, rng)
            if x.is_zero() or y.is_zero():
                continue
            vx, vy = x.valuation(), y.valuation()
            assert (x * y).valuation() == vx + vy
            s = x + y
            if not s.is_zero():
                assert s.valuation() >= min(vx, vy)
                if vx != vy:
                    assert s.valuation() == min(vx, vy)

    def test_indeterminate(self, ext):
        with pytest.raises(IndeterminateValuation):
            ext.zero().valuation()


class TestUniformizer:
    def test_example_residue_one(self, ext):
        assert uniformizer_exponents(ext, 1) == (3, 2, 2)
        assert scaffold_lambda(ext, 1).valuation() == 1

    def test_residue_zero_is_constant(self, ext):
        assert uniformizer_exponents(ext, 0) == (0, 0, 0)
        assert scaffold_lambda(ext, 0) == ext.one()

    def test_top_residue(self, ext):
        u = scaffold_lambda(ext, 8)
        assert u.valuation() == 8

    def test_lambda_family_exact_valuations(self, ext):
        for t in range(-9, 18):
            assert scaffold_lambda(ext, t).valuation() == t

    def test_lambda_quotients_stay_rational(self, ext):
        # members of a residue class differ by powers of pi0
        for t in range(9):
            a = scaffold_lambda(ext, t)
            b = scaffold_lambda(ext, t + 9)
            assert (b - a * ext.pi0()).is_zero()


class TestHensel:
    def test_exact_root_at_zero(self, ext):
        root, residual = hensel_lift(ext.zero(), ext.zero())
        assert root.is_zero()
        assert residual.is_zero()

    def test_root_family_spacing(self, ext):
        # the p roots of X^p - X = a2 + D(x1, a1) sit at x2 + i + (small),
        # with the correction beyond p^2*e0 + (p-1)*v1(a2 + D1)
        c = ext.from_k0(ext.a2) + d_poly(ext.x1(), ext.from_k0(ext.a1), ext.p)
        u = -(c.valuation() // ext.p)
        spacing = ext.p**2 * ext.base.e0 - (ext.p - 1) * u
        assert spacing == 30
        for i in range(ext.p):
            root, residual = hensel_lift(c, ext.x2() + i)
            assert (root - ext.x2() - i).val_floor() >= spacing
            assert (root**ext.p - root - c).vanishes()
            assert (residual - (root**ext.p - root - c)).is_zero()

    def test_residual_at_least_doubles(self, ext):
        # the last step inverts the derivative only as far as the lift
        # target needs, so only it may fall short of doubling
        trace = []
        hensel_lift(ext.from_k0(ext.a1), ext.x1() + 1, trace=trace)
        assert trace[0] == 48
        for a, b in zip(trace, trace[1:-1]):
            assert b >= 2 * a
        assert trace[-1] >= ext.lift_target

    def test_rejects_bad_seed(self, ext):
        # seed with a residual of valuation <= 0
        with pytest.raises(NoConvergence):
            hensel_lift(ext.from_k0(ext.a1), ext.x2())


class TestPrecisionTracking:
    def test_degraded_zero_bounds_survive_multiplication(self, ext):
        # an element whose digits all vanish but whose precision is
        # limited must keep bounding products; only structural zeros may
        # drop out of convolutions
        from wittscaffold.padic import K0Element

        limited = K0Element.make(ext.base, 0, [0] * 6, 12)
        z = ext.from_k0(limited)  # zero known only modulo pi0^12
        assert z.is_zero()
        assert z.val_floor() == 9 * 12
        big = ext.monomial(-2, 2, 2)
        assert big.valuation() == -44
        prod = z * big
        assert prod.val_floor() <= 108 - 44
        assert not prod.vanishes()

    def test_claimed_precision_survives_double_precision_recheck(self):
        # whatever precision the coarse run reports must be confirmed by
        # an identical computation carried out with many more digits
        coarse, _ = construct_extension(3, 6, (1, -1), (1, -1), guard_digits=4)
        fine, _ = construct_extension(3, 6, (1, -1), (1, -1), guard_digits=24)

        def pair(seed):
            rng_c, rng_f = random.Random(seed), random.Random(seed)
            return random_k2(coarse, rng_c), random_k2(fine, rng_f)

        rng = random.Random(31)
        for _ in range(10):
            xc, xf = pair(rng.randrange(10**9))
            yc, yf = pair(rng.randrange(10**9))
            zc, zf = xc * yc + xc, xf * yf + xf
            from wittscaffold.padic import K0Element

            rows = [
                [K0Element.make(fine.base, c.shift, c.digits, c.absprec)
                 for c in row]
                for row in zc.rows
            ]
            re_embedded = K2Element(fine, rows)
            assert (zf - re_embedded).val_floor() >= zc.precision()

    def test_unit_inverse_keeps_relative_precision(self, ext):
        # x = 1 + O*x1 with O a zero known only modulo pi0: x is known to
        # v2-precision 9 - 3 = 6, and so is no inverse of it, so asked
        # for more the inversion refuses.  The lift 1 + pi0*x1 agrees
        # with x, yet its inverse differs from 1 at 6.
        from wittscaffold.padic import K0Element
        from wittscaffold.tower import _invert_unit

        f = ext.base
        rough_zero = K0Element.make(f, 0, f._zeros, 1)
        x = ext.one() + ext.x1().scale(rough_zero)
        assert x.precision() == 6
        with pytest.raises(PrecisionExhausted):
            _invert_unit(x, None, 7)
        inv = _invert_unit(x, None, 6)
        lift = ext.one() + ext.x1().scale(f.pi0())
        assert (ext.one() - lift * inv).val_floor() >= 6
        lift_inv = _invert_unit(lift, None, lift.precision())
        assert (lift_inv - ext.one()).valuation() == 6
        assert (inv - lift_inv).val_floor() >= 6
