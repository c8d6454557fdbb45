"""K2 products, automorphism applications and group-ring applications
against the term-by-term code they replaced (``k2_reference.py``).

The fused kernel must not change a single coefficient: every product,
``Automorphism.apply`` and ``GroupRingElement.on_orbit`` is compared
with the reference by the (shift, digits, absprec) of each nonzero K0
coefficient and the precision of each zero one, on basis monomials,
seeded elements of known valuation, the lifted generator images and
copies of all of these whose coefficients carry degraded precisions.  The two basis changes,
``K2Element.y_coefficients`` and ``K2Element.from_y_grid``, are compared
with their reference the same way.  Coefficientwise subtraction is
compared with adding the negation, and ``ExtensionDesc.monomial``, built
once per extension, with the element ``from_y_grid`` builds.
"""

import random
import sys
import threading

import pytest

import k2_reference
from tests_helpers import cell_states
from wittscaffold.audit import element_with_valuation
from wittscaffold.construction import construct_extension
from wittscaffold.galois import (
    compute_sigma1,
    compute_sigma2,
    psi_operators,
    scaffold_words,
)
from wittscaffold.padic import K0Element
from wittscaffold.tower import K2Element

# (p, e0, pi0 exponent of a1 = mu, seeded elements, products checked)
CASES = [
    (2, 4, -1, 6, 300),
    (3, 6, -1, 6, 300),
    (3, 22, -5, 4, 80),
    (5, 7, -1, 2, 30),
]
# the "u1" of the test ids is the Eisenstein unit of pi0^e0 = p * 1
IDS = [f"p{c[0]}-e0{c[1]}-u1" for c in CASES]


def basis_monomials(desc):
    out = []
    for i in range(desc.p):
        for j in range(desc.p):
            rows = desc._empty_rows()
            rows[i][j] = desc.base.one()
            out.append(K2Element(desc, rows))
    return out


def degraded(x: K2Element, rng) -> K2Element:
    """x with each coefficient known to a random lower precision, so some
    coefficients become zeros known only to that precision."""
    f = x.ext.base
    full = f.e0 * f.prec_digits
    return K2Element(x.ext, [
        [K0Element.make(f, c.shift, c.digits, c.absprec - rng.randint(0, full))
         for c in row] for row in x.rows])


@pytest.mark.parametrize("p, e0, k, seeded, products", CASES, ids=IDS)
def test_fused_k2_arithmetic_matches_reference(p, e0, k, seeded, products):
    desc, _ = construct_extension(p, e0, (1, k), (1, k))
    s1 = compute_sigma1(desc)
    s2 = compute_sigma2(desc, s1)
    psi1, psi2 = psi_operators(desc, s1, s2)
    table = scaffold_words(psi1, psi2)
    p2 = p * p
    rng = random.Random(104729 * p + e0 + 1)
    seeds = [element_with_valuation(desc, rng, rng.randrange(-p2, 2 * p2))
             for _ in range(seeded)]
    seeds += [degraded(x, rng) for x in seeds]
    elements = basis_monomials(desc) + [s1.image_x1, s1.image_x2, s2.image_x2]
    elements += [degraded(x, rng) for x in elements] + seeds

    for _ in range(products):
        x, y = rng.choice(elements), rng.choice(elements)
        assert cell_states(x * y) == cell_states(k2_reference.mul(x, y))

    words = [psi1, psi2, psi1 * psi2, table[rng.randrange(p2)]]
    for x in elements:
        for auto in (s1, s2):
            assert (cell_states(auto.apply(x))
                    == cell_states(k2_reference.apply(auto, x)))
    for x in seeds:
        orbit = psi1.orbit(x)
        for word in words:
            assert (cell_states(word.on_orbit(orbit))
                    == cell_states(k2_reference.on_orbit(word, orbit)))


@pytest.mark.parametrize("p, e0, k, seeded, products", CASES, ids=IDS)
def test_basis_changes_match_reference(p, e0, k, seeded, products):
    desc, _ = construct_extension(p, e0, (1, k), (1, k))
    p2 = p * p
    rng = random.Random(7919 * p + e0 + 1)
    elements = basis_monomials(desc) + [
        element_with_valuation(desc, rng, rng.randrange(-p2, 2 * p2))
        for _ in range(seeded)]
    elements += [x * rng.choice(elements) for x in elements]
    elements += [degraded(x, rng) for x in elements]

    for x in elements:
        y = x.y_coefficients()
        assert cell_states(y) == cell_states(k2_reference.y_coefficients(x))
        # back from the y-basis, with some coefficients left out as None
        grid = [[c if rng.random() < 0.8 else None for c in row] for row in y]
        assert (cell_states(K2Element.from_y_grid(desc, grid))
                == cell_states(k2_reference.from_y_grid(desc, grid)))


def test_basis_changes_keep_the_order_of_additions():
    # at p = 3 the coefficient of x1 T of either basis change is the sum
    # g02*m + (g02*m + g22*m + g11) + g22*m of entries of the source
    # grid, in this order; with g11 = -2*(g02 + g22)*m it is zero, and
    # in any order of the additions it is O(pi0^N) at their precision N
    desc, _ = construct_extension(3, 6, (1, -1), (1, -1))
    f = desc.base
    for m in (desc.mu, -desc.mu):
        grid = [[None] * 3 for _ in range(3)]
        grid[0][2], grid[2][2] = f.monomial(1, 0), f.monomial(1, 2)
        grid[1][1] = -((grid[0][2] + grid[2][2]) * m * 2)
        if m is desc.mu:
            x = K2Element(desc, [[f.zero() if c is None else c for c in row]
                                 for row in grid])
            got, want = x.y_coefficients(), k2_reference.y_coefficients(x)
        else:
            got = K2Element.from_y_grid(desc, grid).rows
            want = k2_reference.from_y_grid(desc, grid).rows
        assert got[1][1].is_zero()
        assert got[1][1].shift == got[1][1].absprec
        assert cell_states(got) == cell_states(want)


@pytest.mark.parametrize("p, e0, k, seeded, products", CASES, ids=IDS)
def test_subtraction_matches_adding_the_negation(p, e0, k, seeded, products):
    # coefficientwise a - b must leave every (shift, digits, absprec) as
    # a + (-b) does: on zero cells, degraded precisions and unequal
    # shifts, and against K0 and int operands on either side
    desc, _ = construct_extension(p, e0, (1, k), (1, k))
    p2 = p * p
    rng = random.Random(15485863 * p + e0 + 1)
    pool = basis_monomials(desc) + [desc.zero(), desc.one()] + [
        element_with_valuation(desc, rng, rng.randrange(-2 * p2, 3 * p2))
        for _ in range(seeded)]
    pool += [degraded(x, rng) for x in pool]
    f = desc.base
    for _ in range(products):
        a, b = rng.choice(pool), rng.choice(pool)
        assert cell_states(a - b) == cell_states(a + (-b))
        assert cell_states(a - a) == cell_states(a + (-a))
        c = rng.choice([rng.randrange(-p2, p2),
                        f.monomial(rng.randrange(1, p2), rng.randrange(-3, 4))])
        assert cell_states(a - c) == cell_states(a + (-a._coerce(c)))
        assert cell_states(c - a) == cell_states((-a) + c)


def test_monomials_are_built_once_per_extension():
    desc, _ = construct_extension(3, 6, (1, -1), (1, -1))
    f = desc.base
    for k, i, j in [(0, 0, 0), (-2, 1, 2), (3, 2, 0), (1, 0, 1)]:
        x = desc.monomial(k, i, j)
        assert desc.monomial(k, i, j) is x
        grid = [[None] * 3 for _ in range(3)]
        grid[i][j] = f.pi0(k)
        assert cell_states(x) == cell_states(K2Element.from_y_grid(desc, grid))
        assert x.valuation() == desc.monomial_valuation(k, i, j)


def test_threads_sharing_an_extension_get_equal_monomials():
    keys = [(k, i, j) for k in range(-2, 3) for i in range(3) for j in range(3)]
    rng = random.Random(2203)
    wrong = []

    def work(desc, want, order):
        for key in order:
            x = desc.monomial(*key)
            if (cell_states(x) != want[key]
                    or x.valuation() != desc.monomial_valuation(*key)):
                wrong.append(key)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        # a fresh extension per trial, so that its monomials are built
        # under the race
        for _ in range(4):
            desc, _ = construct_extension(3, 6, (1, -1), (1, -1))
            want = {}
            for k, i, j in keys:
                grid = [[None] * 3 for _ in range(3)]
                grid[i][j] = desc.base.pi0(k)
                want[(k, i, j)] = cell_states(K2Element.from_y_grid(desc, grid))
            threads = [threading.Thread(target=work, args=(
                desc, want, rng.sample(keys, len(keys)))) for _ in range(4)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=120)
            assert not any(t.is_alive() for t in threads)
            assert all(desc.monomial(*key) is desc.monomial(*key)
                       for key in keys)
    finally:
        sys.setswitchinterval(interval)
    assert wrong == []
