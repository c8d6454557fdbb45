"""Shared element generators for the test suite."""

from wittscaffold.audit import element_with_valuation, random_unit

# the census box: every (e0, b1, m) with e0 < 30, b1 < 12 and m < 8,
# for the configs a1 = pi0^-b1, mu = pi0^-m
CENSUS_BOX = [(e0, b1, m) for e0 in range(30) for b1 in range(12)
              for m in range(8)]


def random_k2(ext, rng, span=2):
    el = ext.zero()
    for _ in range(4):
        k = rng.randrange(-span, span + 1)
        i = rng.randrange(ext.p)
        j = rng.randrange(ext.p)
        c = rng.randrange(1, ext.p ** 2)
        el = el + ext.monomial(k, i, j).scale(c)
    return el


__all__ = ["CENSUS_BOX", "element_with_valuation", "random_unit", "random_k2"]
