"""The fused K0 sum-of-products kernel against the left fold.

``padic.dots`` must return, for every group of terms, exactly what the
left fold t0 + t1 + ... of the individual products (``K0Element.__mul__``)
and sums (``K0Element.__add__``) returns: the same shift, digits and
absolute precision, and for a sum that is zero at its precision N the
zero O(pi0^N).  Seeded groups mix full and degraded precisions,
negative shifts, structural and computed zeros, plain terms and forced
cancellation, alone and as several groups that share one packing.

Operands keep their packed form between calls, at the field's slot
width, which only grows.  The widened case runs every call a second
time after one call with a wide shift span has raised that width, so
every operand packed before is read at an older width.  Threads that
share a field and its operands race on that width and on the cached
packs, and must still get the fold's results.
"""

import random
import sys
import threading

import pytest

from tests_helpers import state
from wittscaffold.padic import BaseField, K0Element, dots

# (p, e0, prec_digits, single sums, shared calls, widened); the "u1" of
# the test ids is the Eisenstein unit of pi0^e0 = p * 1
CASES = [
    (2, 4, 12, 700, 60, False),
    (3, 6, 8, 700, 60, False),
    (3, 22, 4, 300, 30, False),
    (5, 7, 6, 700, 60, False),
    (3, 6, 8, 300, 30, True),
]


def left_fold(terms):
    acc = None
    for a, b in terms:
        t = a if b is None else a * b
        acc = t if acc is None else acc + t
    return acc


def group_precision(terms):
    """The least precision of the terms, by the product and sum rules."""
    return min(a.absprec if b is None else
               min(a.val_floor() + b.absprec, b.val_floor() + a.absprec)
               for a, b in terms)


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


@pytest.mark.parametrize("p, e0, prec, singles, shared, widened", CASES,
                         ids=[f"p{c[0]}-e0{c[1]}-u1" + "-widened" * c[5]
                              for c in CASES])
def test_dots_is_the_left_fold(p, e0, prec, singles, shared, widened):
    f = BaseField(p, e0, prec_digits=prec)
    rng = random.Random(7919 * p + 31 * e0 + 1)
    pool = [random_element(f, rng) for _ in range(40)]
    checked = zeros = nonzero = 0
    calls = [[random_group(f, rng, pool)] for _ in range(singles)]
    # several groups on one shared packing (one slot width per call)
    calls += [[random_group(f, rng, pool) for _ in range(rng.randint(2, 12))]
              for _ in range(shared)]
    rounds = [calls]
    if widened:
        rounds.append(calls)
    for i, round_calls in enumerate(rounds):
        if i:
            # the widest live shift span there is, in more terms than
            # any random group has, needs wider slots than round 0 used
            width = f._width
            x = f.monomial(1 + p, 0)
            wide = [(x, f.pi0(k)) for k in range(e0 * prec)] * 16
            assert state(dots([wide])[0]) == state(left_fold(wide))
            assert f._width > width
            assert any(0 < y._packed[0] < f._width for y in pool)
        for groups in round_calls:
            for terms, got in zip(groups, dots(groups), strict=True):
                want = left_fold(terms)
                assert state(got) == state(want), terms
                checked += 1
                if got.digits[0]:
                    nonzero += 1
                else:
                    zeros += 1
                    n = group_precision(terms)
                    assert (got.shift, got.digits, got.absprec) == (
                        n, f._zeros, n), terms
    # zero sums occur, and most sums are nonzero
    assert zeros > 0
    assert nonzero > 2 * zeros
    assert checked == len(rounds) * (
        singles + sum(len(g) for g in calls[singles:]))


def test_a_zero_sum_is_zero_at_the_group_precision():
    # sums that cancel at their precision: x - x, a product cancelled
    # by a plain term, and cancelling terms beside zero and higher terms.
    # Each is O(pi0^N) at the group's precision N, whatever the shifts
    # of its terms, as is a group whose terms are all zero.
    f = BaseField(3, 6, prec_digits=8)
    x = K0Element.make(f, -7, [2, 1, 0, 5, 0, 4], 20)
    y = f.monomial(4, -2)
    groups = [
        [(x, None), (-x, None)],
        [(x, y), (-(x * y), None)],
        [(f.zero(), None), (x, y), (-x, y), (f.pi0(30), None)],
        [(f.zero(), x), (x - x, None)],
    ]
    for terms, got in zip(groups, dots(groups), strict=True):
        n = group_precision(terms)
        assert n < f.e0 * f.prec_digits
        assert (got.shift, got.digits, got.absprec) == (n, f._zeros, n)
        assert state(got) == state(left_fold(terms)) == ("zero", n)


def test_threads_sharing_a_field_get_the_left_fold():
    rng = random.Random(6007)
    wrong = []

    def work(calls, want, order):
        for i in order:
            if [state(x) for x in dots(calls[i])] != want[i]:
                wrong.append(i)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        # a fresh field per trial, so that its width grows under the race
        for _ in range(12):
            f = BaseField(3, 6, prec_digits=8)
            pool = [random_element(f, rng) for _ in range(40)]
            calls = [[random_group(f, rng, pool)
                      for _ in range(rng.randint(1, 6))] for _ in range(20)]
            # calls of more and more terms over the widest live span keep
            # raising the field's width while the other calls run
            x = f.monomial(4, 0)
            calls += [[[(x, f.pi0(k)) for k in range(6 * 8)] * n]
                      for n in (1, 2, 4, 8, 16, 32)]
            want = [[state(left_fold(terms)) for terms in groups]
                    for groups in calls]
            threads = [threading.Thread(target=work, args=(
                calls, want, rng.sample(range(len(calls)), len(calls))))
                for _ in range(4)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=120)
            assert not any(t.is_alive() for t in threads)
            assert f._width > 0
    finally:
        sys.setswitchinterval(interval)
    assert wrong == []
