import pytest

from wittscaffold.audit import operator_images
from wittscaffold.construction import (
    check_freeness_bound,
    construct_extension,
    ramification_data,
)
from wittscaffold.errors import (
    BoundNotSatisfied,
    InternalDisagreement,
    InvariantViolation,
)
from wittscaffold.pipeline import JobConfig, build_context
from wittscaffold.galois import (
    compute_sigma1,
    compute_sigma2,
    psi_operators,
    scaffold_words,
    word_images,
)
from wittscaffold.structure import (
    associated_order_and_freeness,
    basis_op_label,
    brute_force_w,
    build_tables,
    congruence_audit,
    normal_basis_certificate,
    rho_family,
    shift_landing,
)
from wittscaffold.tower import scaffold_lambda


@pytest.fixture(scope="module")
def ctx5():
    return build_context(JobConfig(3, 6, (1, -1), (1, -1)))


@pytest.fixture(scope="module")
def ctx2():
    return build_context(JobConfig(2, 4, (1, -1), (1, -1)))


def generator(ctx):
    """rho = pi0^d0 * rho0, the generator whose orbit rho_family reads."""
    return ctx.rho0.scale(ctx.desc.base.pi0(ctx.tables.d0))


class TestTables:
    def test_example_tables(self, ctx5):
        tables = ctx5.tables
        assert tables.b_map == [10, 13, 16, 20, 23, 26, 30, 33, 36]
        assert tables.d == [1, 1, 1, 2, 2, 2, 3, 3, 4]
        assert tables.w == [0, 0, 0, 1, 1, 1, 2, 2, 3]
        assert tables.d0 == 1
        assert tables.r_b2 == 1
        # b2 = 10 is congruent to 1 mod 9, so the index map is negation
        assert tables.a_map == [(-j) % 9 for j in range(9)]

    def test_p2_tables(self, ctx2):
        tables = ctx2.tables
        assert tables.b_map == [5, 7, 10, 12]
        assert tables.d == [1, 1, 2, 3]
        assert tables.w == [0, 0, 1, 2]

    def test_brute_force_oracle(self, ctx5, ctx2):
        for ctx in (ctx5, ctx2):
            assert brute_force_w(ctx.rd) == ctx.tables.w

    def test_landing_digits(self):
        assert shift_landing(1, 10, 3, 5) == 26  # digits (2, 1)
        assert shift_landing(1, 10, 3, 8) == 36  # digits (2, 2)

    def test_w_upper_bound(self, ctx5):
        tables = ctx5.tables
        assert all(
            tables.w[j] <= tables.d[j] - tables.d0 for j in range(9)
        )


class TestPsiPower:
    def test_identity_and_zero(self, ctx5):
        desc, words = ctx5.desc, ctx5.words
        rho = generator(ctx5)
        # one word per index a < p^2; the empty word is the identity and
        # every other word kills K0 constants
        assert len(words) == 9
        assert (words[0](rho) - rho).is_zero()
        assert all(word(desc.from_int(7)).is_zero() for word in words[1:])

    def test_digit_decomposition(self, ctx5):
        desc, psi1, psi2, words = ctx5.desc, ctx5.psi1, ctx5.psi2, ctx5.words
        rho = generator(ctx5)
        # index 5 has digits (2, 1): one psi2 after two psi1
        op = words[5]
        diff = op - psi2 * psi1 * psi1
        assert all(c.is_zero() for c in diff.coeffs.values())
        # the ring product reduces T^(p^2) to 1, which the lifted
        # automorphisms satisfy to the lift target
        manual = psi2(psi1(psi1(rho)))
        assert (op(rho) - manual).val_floor() >= desc.lift_target


class TestRhoFamily:
    def test_valuations(self, ctx5):
        rhos = ctx5.rhos
        assert generator(ctx5).valuation() == 10
        assert [r.valuation() for r in rhos] == [1, 4, 7, 2, 5, 8, 3, 6, 0]
        assert rhos[8].valuation() == 0  # r(b(8)) = r(36) = 0

    def test_rejects_wrong_valuation_seed(self, ctx5):
        desc, tables, words = ctx5.desc, ctx5.tables, ctx5.words
        with pytest.raises(InvariantViolation):
            rho_family(desc, tables, words, desc.pi0())


class TestFreeness:
    def test_example_report(self, ctx5):
        desc, bound, tables = ctx5.desc, ctx5.bound, ctx5.tables
        images = ctx5.rho_images
        rep = associated_order_and_freeness(desc, tables, images, bound)
        assert rep.free
        assert rep.residue_divides and rep.w_equals_d_minus_d0
        assert rep.generator_complete
        assert rep.assoc_order_basis == [
            "1", "Psi1", "Psi1^2",
            "pi0^-1*Psi2", "pi0^-1*Psi1*Psi2", "pi0^-1*Psi1^2*Psi2",
            "pi0^-2*Psi2^2", "pi0^-2*Psi1*Psi2^2", "pi0^-3*Psi1^2*Psi2^2",
        ]
        assert rep.valuation_table == [1, 4, 7, 2, 5, 8, 3, 6, 0]
        assert sorted(rep.valuation_table) == list(range(9))

    def test_p2_report(self, ctx2):
        desc, bound, tables = ctx2.desc, ctx2.bound, ctx2.tables
        images = ctx2.rho_images
        rep = associated_order_and_freeness(desc, tables, images, bound)
        assert rep.free  # r(b2) = 1 divides p^2 - 1 = 3
        assert sorted(rep.valuation_table) == [0, 1, 2, 3]

    def test_bound_failure_gives_no_verdict(self):
        desc, _ = construct_extension(3, 6, (1, -1), (1, -2))
        rd = ramification_data(desc)
        bound = check_freeness_bound(rd, desc.base)
        assert not bound.holds
        tables = build_tables(rd)
        s1 = compute_sigma1(desc)
        s2 = compute_sigma2(desc, s1)
        words = scaffold_words(*psi_operators(desc, s1, s2))
        rho0 = scaffold_lambda(desc, tables.r_b2)
        images, _ = rho_family(desc, tables, words, rho0)
        with pytest.raises(BoundNotSatisfied):
            associated_order_and_freeness(desc, tables, images, bound)

    def test_routes_that_disagree_raise(self, ctx5):
        # one image moved up by pi0 leaves routes 1 and 2 free, while
        # route 3's valuations no longer cover 0..p^2-1
        images = list(ctx5.rho_images)
        images[1] = images[1].scale(ctx5.desc.base.pi0(1))
        with pytest.raises(InternalDisagreement, match="routes disagree"):
            associated_order_and_freeness(ctx5.desc, ctx5.tables, images,
                                          ctx5.bound)

    def test_label_rendering(self, ctx5):
        tables = ctx5.tables
        assert basis_op_label(tables, 0) == "1"
        assert basis_op_label(tables, 4) == "pi0^-1*Psi1*Psi2"


def grid_words(ctx):
    """The words as the audit applies them in the grid: basis images."""
    return operator_images(ctx)[:ctx.desc.degree()]


class TestCongruenceAudit:
    def test_full_grid_example(self, ctx5):
        desc, tables, rhos = ctx5.desc, ctx5.tables, ctx5.rhos
        rep = congruence_audit(desc, tables, grid_words(ctx5), rhos)
        assert rep.modulus == 17
        assert rep.pairs == 81
        assert rep.passed, rep.failures[:5]

    def test_full_grid_p2(self, ctx2):
        desc, tables, rhos = ctx2.desc, ctx2.tables, ctx2.rhos
        rep = congruence_audit(desc, tables, grid_words(ctx2), rhos)
        assert rep.modulus == 3
        assert rep.passed, rep.failures[:5]

    @pytest.mark.parametrize("fault", [None, "sigma1"])
    def test_orbit_route_gives_the_same_report(self, fault):
        # the words as group-ring elements, an orbit per (j, r) pair,
        # against their basis images; the corrupted sigma1 makes the
        # grid fail, so the failures themselves are compared
        ctx = build_context(JobConfig(3, 6, (1, -1), (1, -1)), fault=fault)
        desc, tables, rhos = ctx.desc, ctx.tables, ctx.rhos
        orbit = congruence_audit(desc, tables, ctx.words, rhos)
        images = congruence_audit(desc, tables, grid_words(ctx), rhos)
        assert orbit == images
        assert orbit.passed == (fault is None)

    def test_carry_free_pair_is_exact(self, ctx5):
        desc, tables, words = ctx5.desc, ctx5.tables, ctx5.words
        rhos = ctx5.rhos
        # (j, r) = (1, 1): no base-3 carry in 1 + 1
        op = words[1]
        lhs = op(rhos[1])
        rhs = rhos[2].scale(desc.base.pi0(tables.d[2] - tables.d[1]))
        assert (lhs - rhs).vanishes()

    def test_carrying_pair_meets_modulus(self, ctx5):
        desc, tables, words = ctx5.desc, ctx5.tables, ctx5.words
        rhos = ctx5.rhos
        # (j, r) = (2, 1): 2 + 1 carries in base 3
        op = words[2]
        lhs = op(rhos[1])
        rhs = rhos[3].scale(desc.base.pi0(tables.d[3] - tables.d[1]))
        diff = (lhs - rhs).scale(desc.base.pi0(tables.d0 - tables.d[2]))
        assert diff.val_floor() >= 17

    def test_high_index_lands_in_maximal_ideal(self, ctx5):
        desc, tables, words = ctx5.desc, ctx5.tables, ctx5.words
        rhos = ctx5.rhos
        # j = r = 8: j + r >= 9 and the high digits overflow
        op = words[8]
        el = op(rhos[8]).scale(desc.base.pi0(tables.d0 - tables.d[8]))
        assert el.val_floor() >= 1


def coefficients(el):
    """Every K0 coefficient of a K2 element as (shift, digits, absprec)."""
    return [(c.shift, list(c.digits), c.absprec) for row in el.rows for c in row]


ORBIT_CONFIGS = {
    "golden": (3, 6, (1, -1), (1, -1)),
    "deep": (3, 22, (1, -5), (1, -5)),
    "p2": (2, 4, (1, -1), (1, -1)),
    "p5": (5, 7, (1, -1), (1, -1)),
}


class TestOneOrbitOfRho:
    """The one orbit of rho that rho_family builds serves freeness route 3
    and the audit's psi1 rho and psi2 rho; each element read from it must
    equal, coefficient for coefficient, the element its own orbit gave."""

    @pytest.mark.parametrize("name", list(ORBIT_CONFIGS))
    def test_images_of_rho_match_separate_orbits(self, name):
        ctx = build_context(JobConfig(*ORBIT_CONFIGS[name]))
        desc, tables, words = ctx.desc, ctx.tables, ctx.words
        pi0 = desc.base.pi0
        p2 = desc.p ** 2
        # route 3 from an orbit of rho0: pi0^(-w_j) words[j] rho0
        old_route3 = [img.scale(pi0(-tables.w[j]))
                      for j, img in enumerate(word_images(words, ctx.rho0))]
        new_route3 = [img.scale(pi0(-tables.d0 - tables.w[j]))
                      for j, img in enumerate(ctx.rho_images)]
        assert len(ctx.rho_images) == p2
        assert ([coefficients(el) for el in new_route3]
                == [coefficients(el) for el in old_route3])
        assert (ctx.module_report.valuation_table
                == [el.valuation() for el in old_route3])
        # the rho basis from a second orbit of rho
        rho = generator(ctx)
        old_rhos = [img.scale(pi0(-tables.d[a]))
                    for a, img in enumerate(word_images(words, rho))]
        assert ([coefficients(el) for el in ctx.rhos]
                == [coefficients(el) for el in old_rhos])
        # words 1 and p are psi1 and psi2
        assert coefficients(ctx.rho_images[1]) == coefficients(ctx.psi1(rho))
        assert coefficients(ctx.rho_images[desc.p]) == coefficients(ctx.psi2(rho))


class TestNormalBasis:
    def test_rank_certificate(self, ctx5):
        desc, images = ctx5.desc, ctx5.rho_images
        assert normal_basis_certificate(desc, images)

    def test_dependent_family_is_rejected(self, ctx5):
        desc, rho = ctx5.desc, generator(ctx5)
        images = [rho for _ in range(9)]
        assert not normal_basis_certificate(desc, images)


class TestRouteEquivalenceSweep:
    def test_divisibility_matches_w_table_across_parameters(self):
        # the two integer routes to the freeness verdict must agree for
        # every break pair the construction can produce, across primes
        from wittscaffold.structure import shift_landing

        checked = 0
        for p in (2, 3, 5, 7):
            p2 = p * p
            for b1 in range(1, 30):
                if b1 % p == 0:
                    continue
                for m in range(1, 25):
                    b2 = p2 * m + b1
                    if b2 <= p2 * b1:
                        continue
                    bmap = [shift_landing(b1, b2, p, a) for a in range(p2)]
                    d = [b // p2 for b in bmap]
                    w = [
                        min(d[j + a] - d[a] for a in range(p2 - j))
                        for j in range(p2)
                    ]
                    divides = (p2 - 1) % (b2 % p2) == 0
                    w_flat = all(w[j] == d[j] - d[0] for j in range(p2))
                    assert divides == w_flat, (p, b1, m)
                    checked += 1
        assert checked > 900


class TestNonFreeInstance:
    # the smallest p=3 parameters whose residue class is not a divisor
    # of p^2 - 1: b1 = m = 5 forces e0 >= 22 through the choice bounds,
    # and r(b2) = 50 mod 9 = 5 does not divide 8
    def test_all_routes_decide_not_free(self):
        desc, _ = construct_extension(3, 22, (1, -5), (1, -5))
        rd = ramification_data(desc)
        bound = check_freeness_bound(rd, desc.base)
        assert bound.holds  # 198 > 190
        assert rd.b2 == 50 and rd.r_b2 == 5
        tables = build_tables(rd)
        assert tables.d == [5, 7, 8, 11, 12, 14, 16, 18, 20]
        assert tables.w == [0, 1, 3, 5, 7, 9, 11, 13, 15]
        # w sits strictly below d_j - d_0 at j = 1 and j = 3
        assert tables.w[1] == tables.d[1] - tables.d0 - 1
        assert tables.w[3] == tables.d[3] - tables.d0 - 1
        s1 = compute_sigma1(desc)
        s2 = compute_sigma2(desc, s1)
        words = scaffold_words(*psi_operators(desc, s1, s2))
        rho0 = scaffold_lambda(desc, tables.r_b2)
        images, rhos = rho_family(desc, tables, words, rho0)
        assert sorted(r.valuation() for r in rhos) == list(range(9))
        rep = associated_order_and_freeness(desc, tables, images, bound)
        assert not rep.free
        assert not rep.residue_divides
        assert not rep.w_equals_d_minus_d0
        assert not rep.generator_complete
        assert rep.valuation_table == [5, 11, 8, 10, 7, 4, 6, 3, 0]
