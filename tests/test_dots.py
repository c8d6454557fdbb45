"""The fused K0 sum-of-products kernel against the left fold.

``padic.dots`` must return, for every group of terms, exactly what the
left fold t0 + t1 + ... of the individual products (``K0Element.__mul__``)
and sums (``K0Element.__add__``) returns: the same shift, digits and
absolute precision.  Seeded groups mix full and degraded precisions,
negative shifts, structural and computed zeros, plain terms and forced
cancellation, alone and as several groups that share one packing.
"""

import random

import pytest

from wittscaffold import padic
from wittscaffold.padic import BaseField, K0Element, dots

# (p, e0, Eisenstein unit, prec_digits, single sums, shared calls)
CASES = [
    (2, 4, 1, 12, 700, 60),
    (3, 6, 1, 8, 700, 60),
    (3, 22, 1, 4, 300, 30),
    (5, 7, 1, 6, 700, 60),
    (3, 5, 2, 8, 700, 60),
]


def left_fold(terms):
    acc = None
    for a, b in terms:
        t = a if b is None else a * b
        acc = t if acc is None else acc + t
    return acc


def state(x):
    return x.shift, x.digits, x.absprec


def random_element(f, rng):
    """A random element: full or degraded precision, shift around 0, or
    one of the zeros that arithmetic produces."""
    e0, full = f.e0, f.e0 * f.prec_digits
    kind = rng.random()
    shift = rng.randint(-2 * e0, 2 * e0)
    if kind < 0.06:
        return f.zero()
    if kind < 0.12:
        # a zero known only to a degraded precision
        return K0Element.make(f, shift, [0] * e0, shift + rng.randint(1, full))
    if kind < 0.18:
        x = random_element(f, rng)
        return x - x
    rel = full if rng.random() < 0.6 else rng.randint(1, full)
    digits = [rng.randrange(f.p ** (f.prec_digits + 1)) for _ in range(e0)]
    if rng.random() < 0.5:
        digits[0] = digits[0] * f.p + rng.randrange(1, f.p)
    return K0Element.make(f, shift, digits, shift + rel)


def random_group(f, rng, pool):
    """Up to eight terms drawn from ``pool``, some plain, some built to
    cancel the leading part of an earlier term."""
    terms = []
    for _ in range(rng.randint(1, 8)):
        u = rng.random()
        a = rng.choice(pool)
        if terms and u < 0.2:
            # cancel an earlier term, exactly or up to a small part
            c, d = rng.choice(terms)
            neg = -(c if d is None else c * d)
            if rng.random() < 0.5:
                neg = neg + f.pi0(rng.randint(0, 3 * f.e0))
            terms.append((neg, None))
        elif u < 0.35:
            terms.append((a, None))
        else:
            terms.append((a, rng.choice(pool)))
    return terms


@pytest.mark.parametrize("p, e0, unit, prec, singles, shared", CASES,
                         ids=[f"p{c[0]}-e0{c[1]}-u{c[2]}" for c in CASES])
def test_dots_is_the_left_fold(p, e0, unit, prec, singles, shared, monkeypatch):
    folds = []
    fold = padic._fold

    def counted(terms):
        folds.append(len(terms))
        return fold(terms)

    monkeypatch.setattr(padic, "_fold", counted)
    f = BaseField(p, e0, unit_digits=unit, prec_digits=prec)
    rng = random.Random(7919 * p + 31 * e0 + unit)
    pool = [random_element(f, rng) for _ in range(40)]
    checked = zeros = nonzero = 0
    calls = [[random_group(f, rng, pool)] for _ in range(singles)]
    # several groups on one shared packing (one slot width per call)
    calls += [[random_group(f, rng, pool) for _ in range(rng.randint(2, 12))]
              for _ in range(shared)]
    for groups in calls:
        for terms, got in zip(groups, dots(groups), strict=True):
            want = left_fold(terms)
            assert state(got) == state(want), terms
            checked += 1
            if got.digits[0]:
                nonzero += 1
            else:
                zeros += 1
    # every zero result is the fold's own; most sums take the fused path
    assert len(folds) == zeros > 0
    assert nonzero > 2 * zeros
    assert checked == singles + sum(len(g) for g in calls[singles:])
