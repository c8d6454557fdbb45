"""Shared element generators for the test suite."""

from wittscaffold.audit import element_with_valuation, random_unit

# the census box: every (e0, b1, m) with e0 < 30, b1 < 12 and m < 8,
# for the configs a1 = pi0^-b1, mu = pi0^-m
CENSUS_BOX = [(e0, b1, m) for e0 in range(30) for b1 in range(12)
              for m in range(8)]


def state(x):
    """What a K0 element's value is: (shift, digits, absprec) for a
    nonzero element, and ("zero", absprec) for one that is zero at its
    precision, O(pi0^absprec), which is all that such a value says."""
    if x.digits[0]:
        return x.shift, x.digits, x.absprec
    return "zero", x.absprec


def cell_states(x):
    """``state`` of every K0 coefficient of a K2 element, or of every
    entry of a grid of K0 elements."""
    return [[state(c) for c in row] for row in getattr(x, "rows", x)]


def random_k2(ext, rng, span=2):
    el = ext.zero()
    for _ in range(4):
        k = rng.randrange(-span, span + 1)
        i = rng.randrange(ext.p)
        j = rng.randrange(ext.p)
        c = rng.randrange(1, ext.p ** 2)
        el = el + ext.monomial(k, i, j).scale(c)
    return el


__all__ = ["CENSUS_BOX", "cell_states", "element_with_valuation",
           "random_unit", "random_k2", "state"]
