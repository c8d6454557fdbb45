"""Differential test of the group-ring scaffold operators against the
expression-tree operators they replaced (``op_reference.py``).

Every word psi2^(a1) psi1^(a0), a < p^2, of the scaffold table is
applied to each basis monomial x1^i x2^j and to seeded elements of known
valuation, once as a group-ring element through a shared orbit and once
by nested evaluation of the old tree.  The two must give the same valuation
outcome, and must agree to the lift target relative to v2(x): the ring
reduces T^(p^2) to 1, which the lifted automorphisms satisfy only to
that target.
"""

import random

import pytest

import op_reference
from wittscaffold.audit import element_with_valuation
from wittscaffold.construction import construct_extension
from wittscaffold.errors import IndeterminateValuation
from wittscaffold.galois import (
    compute_sigma1,
    compute_sigma2,
    psi_operators,
    scaffold_words,
)
from wittscaffold.tower import K2Element

# (p, e0, pi0 exponent of a1 = mu, whether the basis monomials are checked)
CASES = [
    (2, 4, -1, True),
    (3, 6, -1, True),
    (3, 22, -5, True),
    # the 25 basis monomials at p = 5 take about 17 s under the tree
    # operators, so only the seeded elements are checked there
    (5, 7, -1, False),
]


def outcome(el):
    try:
        return el.valuation()
    except IndeterminateValuation:
        return None


def basis_monomials(desc):
    p = desc.p
    out = []
    for i in range(p):
        for j in range(p):
            rows = desc._empty_rows()
            rows[i][j] = desc.base.one()
            out.append(K2Element(desc, rows))
    return out


@pytest.mark.parametrize("p, e0, k, monomials", CASES,
                         ids=[f"p{c[0]}-e0{c[1]}" for c in CASES])
def test_ring_words_match_tree_words(p, e0, k, monomials):
    desc, _ = construct_extension(p, e0, (1, k), (1, k))
    s1 = compute_sigma1(desc)
    s2 = compute_sigma2(desc, s1)
    psi1, psi2 = psi_operators(desc, s1, s2)
    ref1, ref2 = op_reference.psi_operators(desc, s1, s2)
    p2 = p * p
    rng = random.Random(1000 * p + e0)
    elements = basis_monomials(desc) if monomials else []
    elements += [element_with_valuation(desc, rng, rng.randrange(-p2, p2))
                 for _ in range(4 if monomials else 2)]
    ring_words = scaffold_words(psi1, psi2)
    assert len(ring_words) == p2
    tree_words = [op_reference.psi_power(a, ref1, ref2, p) for a in range(p2)]
    applications = 0
    for x in elements:
        floor = desc.lift_target + x.valuation()
        orbit = psi1.orbit(x)
        for a, (ring, tree) in enumerate(zip(ring_words, tree_words)):
            new = ring.on_orbit(orbit)
            old = tree(x)
            assert outcome(new) == outcome(old), (a, x)
            assert (new - old).val_floor() >= floor, (a, x)
            applications += 1
    assert applications == len(elements) * p2
