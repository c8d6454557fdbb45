"""The Hensel lift against the code it replaced (``lift_reference.py``).

Trimming the Newton steps must not change a single coefficient of a
root: for the three lifts behind sigma1 and sigma2, the roots and the
residual valuations of every step are compared with the reference by
the (shift, digits, absprec) of each K0 coefficient, at the default
guard digits and at 16.  ``K2Element`` powers are compared the same way
on seeded elements.

The inverse of each derivative is compared too.  Seeded with the
previous step's inverse, it may know a coefficient to more digits than
the reference, whose seed 1/y00 carries the precision lost in the
change to the y-basis (at p = 5 the constant coefficient of two
inverses per lift: 85 or 86 against 84).  So each inverse coefficient
must equal the reference's when cut to the reference's precision, and
any digit claimed beyond it must be confirmed by the same lift run with
twice the guard digits.
"""

import random

import pytest

import lift_reference
from wittscaffold import tower
from wittscaffold.audit import element_with_valuation
from wittscaffold.construction import DEFAULT_GUARD_DIGITS, construct_extension
from wittscaffold.galois import d_poly
from wittscaffold.padic import K0Element
from wittscaffold.tower import K2Element

# (p, e0, pi0 exponent of a1 = mu, Eisenstein unit)
CASES = [
    (2, 4, -1, 1),
    (3, 6, -1, 1),
    (3, 22, -5, 1),
    (5, 7, -1, 1),
    (3, 5, -1, 2),
]
DIGITS = sorted({DEFAULT_GUARD_DIGITS, 16})


def state_of(c: K0Element):
    return c.shift, c.digits, c.absprec


def state(x: K2Element):
    return [[state_of(c) for c in row] for row in x.rows]


def lift_inputs(desc):
    """(c, t0) of the lifts of sigma1(x1), sigma1(x2) and sigma2(x2), in
    the order ``compute_sigma1`` and ``compute_sigma2_direct`` make them;
    the second depends on the first root, taken from the new lift."""
    p = desc.p
    x1, x2 = desc.x1(), desc.x2()
    a1, a2 = desc.from_k0(desc.a1), desc.from_k0(desc.a2)
    image_x1 = tower.hensel_lift(a1, x1 + 1)
    return [
        (a1, x1 + 1),
        (a2 + d_poly(image_x1, a1, p), x2 + d_poly(x1, desc.one(), p)),
        (a2 + d_poly(x1, a1, p), x2 + 1),
    ]


def run_lift(monkeypatch, module, c, t0, trace):
    """The root of ``module.hensel_lift`` and the inverse of each
    derivative; the reference lift runs with the reference powers."""
    inverses = []
    invert = module._invert_unit

    def recording(*args):
        z = invert(*args)
        inverses.append(z)
        return z

    with monkeypatch.context() as m:
        m.setattr(module, "_invert_unit", recording)
        if module is lift_reference:
            m.setattr(K2Element, "__pow__", lift_reference.power)
        return module.hensel_lift(c, t0, trace=trace), inverses


def cut(c: K0Element, absprec: int):
    return K0Element.make(c.field, c.shift, c.digits, absprec)


@pytest.mark.parametrize("digits", DIGITS)
@pytest.mark.parametrize("p, e0, k, unit", CASES,
                         ids=[f"p{c[0]}-e0{c[1]}-u{c[3]}" for c in CASES])
def test_lift_matches_reference(monkeypatch, p, e0, k, unit, digits):
    desc, _ = construct_extension(p, e0, (1, k), (1, k),
                                  guard_digits=digits, unit_digits=unit)
    fine, _ = construct_extension(p, e0, (1, k), (1, k),
                                  guard_digits=2 * digits, unit_digits=unit)
    for (c, t0), (fc, ft0) in zip(lift_inputs(desc), lift_inputs(fine)):
        new_trace, ref_trace = [], []
        root, inverses = run_lift(monkeypatch, tower, c, t0, new_trace)
        ref_root, ref_inverses = run_lift(monkeypatch, lift_reference, c, t0,
                                          ref_trace)
        assert new_trace == ref_trace
        assert state(root) == state(ref_root)
        assert len(inverses) == len(ref_inverses) == len(ref_trace) - 1

        _, fine_inverses = run_lift(monkeypatch, tower, fc, ft0, [])
        for z, ref_z, fine_z in zip(inverses, ref_inverses, fine_inverses):
            for row, ref_row, fine_row in zip(z.rows, ref_z.rows, fine_z.rows):
                for a, ref_a, fine_a in zip(row, ref_row, fine_row):
                    assert a.absprec >= ref_a.absprec
                    assert state_of(cut(a, ref_a.absprec)) == state_of(ref_a)
                    if a.absprec > ref_a.absprec:
                        assert fine_a.absprec >= a.absprec
                        again = K0Element.make(fine.base, a.shift, a.digits,
                                               a.absprec)
                        assert (fine_a - again).is_zero()


@pytest.mark.parametrize("p, e0, k, unit", CASES,
                         ids=[f"p{c[0]}-e0{c[1]}-u{c[3]}" for c in CASES])
def test_power_matches_reference(p, e0, k, unit):
    desc, _ = construct_extension(p, e0, (1, k), (1, k), unit_digits=unit)
    p2 = p * p
    rng = random.Random(7919 * p + e0 + unit)
    elements = [desc.x1() + 1, desc.y2()]
    elements += [element_with_valuation(desc, rng, rng.randrange(-p2, 2 * p2))
                 for _ in range(3)]
    for x in elements:
        for n in range(7):
            assert state(x ** n) == state(lift_reference.power(x, n))


@pytest.mark.parametrize("p, e0, k, unit", CASES,
                         ids=[f"p{c[0]}-e0{c[1]}-u{c[3]}" for c in CASES])
def test_seed_is_capped_at_the_precision_of_x(p, e0, k, unit):
    # a seed known better than x, as the previous step's inverse can be,
    # already inverts it at x's precision: the one Newton step taken
    # then must bring the seed down to that precision
    desc, _ = construct_extension(p, e0, (1, k), (1, k), unit_digits=unit)
    x = (desc.x1() + 1) ** (p - 1) * p - desc.one()
    loss = 3 * e0
    rough = K2Element(desc, [[cut(c, c.absprec - loss) for c in row]
                             for row in x.rows])
    seed = tower._invert_unit(x)
    inv = tower._invert_unit(rough, seed)
    assert inv.precision() <= rough.precision() < seed.precision()
    ref_inv = lift_reference._invert_unit(rough)
    for row, ref_row in zip(inv.rows, ref_inv.rows):
        for a, ref_a in zip(row, ref_row):
            low = min(a.absprec, ref_a.absprec)
            assert (cut(a, low) - cut(ref_a, low)).is_zero()
