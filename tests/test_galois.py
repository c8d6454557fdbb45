import random

import pytest

from lift_reference import compute_sigma2_direct
from tests_helpers import cell_states
from wittscaffold.construction import construct_extension, ramification_data
from wittscaffold.errors import InvariantViolation
from wittscaffold.galois import (
    Automorphism,
    GroupRingElement,
    automorphism_power,
    compute_sigma1,
    compute_sigma2,
    k0_binomial,
    psi_operators,
    relation_residuals,
    truncated_exp,
)
from wittscaffold.pipeline import JobConfig, build_context
from wittscaffold.tower import (
    K2Element,
    scaffold_index,
    scaffold_lambda,
    uniformizer_exponents,
)
from wittscaffold.witt import WittVector2, d_poly


@pytest.fixture(scope="module")
def ctx5():
    desc, _ = construct_extension(3, 6, (1, -1), (1, -1))
    sigma1 = compute_sigma1(desc)
    sigma2 = compute_sigma2(desc, sigma1)
    psi1, psi2 = psi_operators(desc, sigma1, sigma2)
    return desc, sigma1, sigma2, psi1, psi2


class TestSigma1(object):
    def test_epsilon_valuation(self, ctx5):
        desc, s1, _, _, _ = ctx5
        eps = s1.image_x1 - desc.x1() - 1
        assert eps.valuation() == 48  # p^2 e0 - p(p-1) b1

    def test_carry_term_valuation(self, ctx5):
        desc, s1, _, _, _ = ctx5
        c1 = d_poly(desc.x1(), desc.one(), desc.p)
        assert c1.valuation() == -6
        assert (s1.image_x2 - desc.x2() - c1).val_floor() > 0

    def test_fixes_base_field(self, ctx5):
        desc, s1, _, _, _ = ctx5
        c = desc.from_k0(desc.base.monomial(5, -2))
        assert s1.apply(c) == c

    def test_is_ring_homomorphism(self, ctx5):
        desc, s1, _, _, _ = ctx5
        rng = random.Random(2)
        from tests_helpers import random_k2

        for _ in range(5):
            x = random_k2(desc, rng)
            y = random_k2(desc, rng)
            assert (s1.apply(x * y) - s1.apply(x) * s1.apply(y)).vanishes()
            assert (s1.apply(x + y) - s1.apply(x) - s1.apply(y)).is_zero()

    def test_witt_congruence(self, ctx5):
        desc, s1, _, _, _ = ctx5
        image = WittVector2(desc.x1(), desc.x2(), desc.p) + WittVector2(
            desc.one(), desc.zero(), desc.p
        )
        assert (s1.image_x1 - image.first).val_floor() >= 1
        assert (s1.image_x2 - image.second).val_floor() >= 1


class TestSigma2(object):
    def test_fixes_x1_exactly(self, ctx5):
        desc, _, s2, _, _ = ctx5
        assert (s2.image_x1 - desc.x1()).is_zero()

    def test_shift_error_bound(self, ctx5):
        desc, _, s2, _, _ = ctx5
        delta = s2.image_x2 - desc.x2() - 1
        assert delta.val_floor() >= 30  # p^2 e0 + (p-1) p v0(a2)

    def test_composed_equals_direct(self, ctx5):
        desc, s1, _, _, _ = ctx5
        composed = automorphism_power(s1, desc.p)
        direct = compute_sigma2_direct(desc)
        assert (composed.image_x1 - direct.image_x1).vanishes()
        assert (composed.image_x2 - direct.image_x2).vanishes()

    def test_group_orders(self, ctx5):
        desc, s1, s2, _, _ = ctx5
        s2_cubed = automorphism_power(s2, desc.p)
        assert (s2_cubed.image_x2 - desc.x2()).vanishes()
        full = automorphism_power(s1, desc.degree())
        assert (full.image_x1 - desc.x1()).vanishes()
        assert (full.image_x2 - desc.x2()).vanishes()


def test_fault_build_still_verifies_both_lifts(monkeypatch):
    # --fault-inject sigma1 corrupts sigma1 only once sigma2 is composed
    # as sigma1^p, so a fault build verifies sigma1, from its lifts, and
    # the composed sigma2 before the corruption
    from wittscaffold import galois

    verified, powered = [], []
    verify, power = galois.verify_automorphism, galois.automorphism_power

    def verify_recorded(auto):
        verified.append(auto)
        return verify(auto)

    def power_recorded(auto, n):
        powered.append(auto)
        return power(auto, n)

    monkeypatch.setattr(galois, "verify_automorphism", verify_recorded)
    monkeypatch.setattr(galois, "automorphism_power", power_recorded)
    ctx = build_context(JobConfig(3, 6, (1, -1), (1, -1)), fault="sigma1")
    assert len(verified) == 2 and len(powered) == 1
    lifted_sigma1, lifted_sigma2 = verified
    assert powered[0] is lifted_sigma1
    assert ctx.sigma2 is lifted_sigma2
    assert ctx.sigma1 is not lifted_sigma1
    # the corruption reaches the context: sigma1(x2) fails its relation
    r1, r2 = relation_residuals(ctx.sigma1)
    assert r1.vanishes() and not r2.vanishes()


GOLDEN = JobConfig(3, 6, (1, -1), (1, -1))


def test_build_lifts_twice(monkeypatch):
    # sigma1's two lifts; sigma2 is composed, not lifted
    from wittscaffold import galois

    lifts = []
    lift = galois.hensel_lift

    def counted(c, t0, trace=None):
        lifts.append(t0)
        return lift(c, t0, trace)

    monkeypatch.setattr(galois, "hensel_lift", counted)
    build_context(GOLDEN)
    assert len(lifts) == 2


def test_deep_build_multiplies(monkeypatch):
    # K2 products of one p=3 e0=22 build: each Hensel step inverts its
    # derivative only to min(lift target - rv, (p-1)*rv) (was 77 when
    # every inverse was taken to the lift target)
    products = []
    mul = K2Element.__mul__

    def counted(x, y):
        products.append(None)
        return mul(x, y)

    monkeypatch.setattr(K2Element, "__mul__", counted)
    monkeypatch.setattr(K2Element, "__rmul__", counted)
    build_context(JobConfig(3, 22, (1, -5), (1, -5)))
    assert len(products) == 67


def test_sigma1_residuals_are_its_lifts():
    # the build verifies sigma1 by its lifts' last residuals, which are
    # the relation residuals at its images; the audit reads the same pair
    ctx = build_context(GOLDEN)
    s1 = ctx.sigma1
    kept = s1.residuals
    assert relation_residuals(s1) is kept
    fresh = relation_residuals(Automorphism(s1.ext, s1.image_x1, s1.image_x2))
    for a, b in zip(kept, fresh):
        assert cell_states(a) == cell_states(b)


@pytest.mark.parametrize("shift", [-1, 1])
def test_build_rejects_a_wrong_power(monkeypatch, shift):
    # sigma1^(p-1) and sigma1^(p+1) move x1 by -1 and +1
    from wittscaffold import galois

    power = galois.automorphism_power
    monkeypatch.setattr(galois, "automorphism_power",
                        lambda auto, n: power(auto, n + shift))
    with pytest.raises(InvariantViolation, match="sigma1\\^p moves x1"):
        build_context(GOLDEN)


def test_build_rejects_a_wrong_epsilon(monkeypatch):
    # the x1 lift's root moved by pi0^5 gives v2(eps) = 5 p^2 = 45, not
    # p^2 e0 - p(p-1) b1 = 48
    from wittscaffold import galois

    lift = galois.hensel_lift

    def moved(c, t0, trace=None):
        root, residual = lift(c, t0, trace)
        if t0 == t0.ext.x1() + 1:
            root = root + root.ext.pi0(5)
        return root, residual

    monkeypatch.setattr(galois, "hensel_lift", moved)
    with pytest.raises(InvariantViolation, match="v2\\(eps\\) = 45"):
        build_context(GOLDEN)


def test_build_rejects_an_identity_apply(monkeypatch):
    # sigma1^p composed from applies that return their input is the
    # identity, whose x2 image misses x2 + 1 + delta
    monkeypatch.setattr(Automorphism, "apply", lambda self, x: x)
    with pytest.raises(InvariantViolation, match="v2\\(delta\\)"):
        build_context(GOLDEN)


def sigma2_element(desc, s1, s2):
    """T^p, the group-ring element acting as sigma2."""
    return GroupRingElement.generator_power(s1, s2, desc.p)


class TestTruncatedExp(object):
    def test_zero_exponent_is_identity(self, ctx5):
        desc, s1, s2, _, _ = ctx5
        op = truncated_exp(sigma2_element(desc, s1, s2), desc.base.zero())
        x = desc.x2()
        assert (op(x) - x).is_zero()

    def test_unit_exponent_is_the_automorphism(self, ctx5):
        desc, s1, s2, _, _ = ctx5
        op = truncated_exp(sigma2_element(desc, s1, s2), desc.base.one())
        x = desc.x2() * desc.x1()
        assert (op(x) - s2.apply(x)).is_zero()

    def test_expansion_matches_manual_binomials(self, ctx5):
        desc, s1, s2, _, _ = ctx5
        mu = desc.mu
        op = truncated_exp(sigma2_element(desc, s1, s2), mu)
        x = desc.x2()
        d1 = s2.apply(x) - x
        d2 = s2.apply(d1) - d1
        half = desc.base.from_int(2).inverse()
        manual = x + d1.scale(mu) + d2.scale(mu * (mu - 1) * half)
        assert (op(x) - manual).is_zero()

    def test_binomial_values(self, ctx5):
        desc, _, _, _, _ = ctx5
        mu = desc.mu
        assert k0_binomial(mu, 0) == desc.base.one()
        assert k0_binomial(mu, 1) == mu
        half = desc.base.from_int(2).inverse()
        assert k0_binomial(mu, 2) == mu * (mu - 1) * half


class TestPsiOperators(object):
    def test_kill_constants(self, ctx5):
        desc, _, _, psi1, psi2 = ctx5
        c = desc.from_int(5)
        assert psi1(c).is_zero()
        assert psi2(c).is_zero()

    def test_shift_table_values(self, ctx5):
        desc, _, _, psi1, psi2 = ctx5
        pi2 = scaffold_lambda(desc, 1)
        assert psi1(pi2).valuation() == 4  # 1 + p*b1
        assert psi2(pi2).valuation() == 11  # 1 + b2

    def test_shift_law_on_class_b2(self, ctx5):
        desc, _, _, psi1, psi2 = ctx5
        rng = random.Random(4)
        from tests_helpers import element_with_valuation

        for t in (10, 1, 19):
            alpha = element_with_valuation(desc, rng, t)
            outer = alpha
            for j in range(desc.p):
                cur = outer
                for i in range(desc.p):
                    assert cur.valuation() == t + j * 10 + i * 3
                    if i + 1 < desc.p:
                        cur = psi1(cur)
                if j + 1 < desc.p:
                    outer = psi2(outer)

    def test_index_map_digits_name_the_monomial(self, ctx5):
        desc, _, _, _, _ = ctx5
        for t in range(9):
            k, i, j = uniformizer_exponents(desc, t)
            assert scaffold_index(desc, t) == i * desc.p + j
            assert desc.monomial(k, i, j).valuation() == t

    def test_digit_drop_behaviour(self, ctx5):
        desc, _, _, psi1, psi2 = ctx5
        rd = ramification_data(desc)
        c = rd.precision_c
        for t in range(9):
            lam = scaffold_lambda(desc, t)
            _, i, j = uniformizer_exponents(desc, t)
            img1, img2 = psi1(lam), psi2(lam)
            if i >= 1:
                assert img1.valuation() == t + 3
            else:
                assert img1.is_zero() or img1.val_floor() >= t + 3 + c
            if j >= 1:
                assert img2.valuation() == t + 10
            else:
                assert img2.is_zero() or img2.val_floor() >= t + 10 + c

    def test_psi_power_growths(self, ctx5):
        desc, _, _, psi1, psi2 = ctx5
        rho = scaffold_lambda(desc, 1) * desc.pi0()
        assert rho.valuation() == 10
        lhs = psi1(psi1(psi1(rho)))
        assert lhs.valuation() == 20  # 2*b2 under the structural bound
        assert (lhs - psi2(rho)).val_floor() >= 37  # p^2 e0 + p b1 - (p-1) b2
        grown = psi2(psi2(psi2(rho)))
        assert grown.val_floor() >= 54 + 10


def _full_trace(s1, s2):
    """sum_{k<p^2} T^k, the trace of K2/K0 as a group-ring element."""
    one = s1.ext.base.one()
    return GroupRingElement(s1, s2, {k: one for k in range(s1.ext.degree())})


class TestTraces(object):
    def test_trace_of_one(self, ctx5):
        desc, s1, s2, _, _ = ctx5
        tr = _full_trace(s1, s2)(desc.one())
        assert (tr - desc.from_k0(desc.base.from_int(9))).vanishes()

    def test_subextension_trace_of_shift_error(self, ctx5):
        desc, s1, s2, _, _ = ctx5
        delta = s2.image_x2 - desc.x2() - 1
        one = desc.base.one()
        sub = GroupRingElement(s1, s2, {3 * j: one for j in range(3)})
        assert (sub(delta) + 3).vanishes()

    def test_depth_bound_on_traces(self, ctx5):
        desc, s1, s2, _, _ = ctx5
        trace = _full_trace(s1, s2)
        rng = random.Random(8)
        from tests_helpers import element_with_valuation

        for t in (-5, 0, 3, 7):
            y = element_with_valuation(desc, rng, t)
            tr = trace(y)
            assert tr.val_floor() - t >= 26

    def test_scaffold_index_is_negated_inverse(self, ctx5):
        desc, _, _, _, _ = ctx5
        assert [scaffold_index(desc, t) for t in range(9)] == [
            (-t * 1) % 9 for t in range(9)
        ]

    def test_apply_keeps_degraded_zero_bounds(self, ctx5):
        desc, s1, _, _, _ = ctx5
        from wittscaffold.padic import K0Element

        limited = K0Element.make(desc.base, 0, [0] * 6, 12)
        z = desc.from_k0(limited)
        img = s1.apply(z)
        assert img.is_zero()
        assert img.val_floor() <= 9 * 12
