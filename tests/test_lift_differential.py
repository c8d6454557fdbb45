"""The Hensel lift against the code it replaced (``lift_reference.py``).

The reference is exact Newton: it inverts each derivative to the
working precision.  The lift inverts it only as far as its step uses,
to v2(1 - f'*z) >= min(lift target - rv, (p-1)*rv) for a residual of
valuation rv: the iterates may differ from the reference's, but each
residual keeps exact Newton's lower bound, and the roots agree to the
lift target (``tower.hensel_lift``).  For the three lifts behind sigma1
and sigma2, at the default guard digits and at 16, the lift takes no
more steps than the reference, the residual valuation of every step but
the last is at least the reference's at that step, the last reaches the
lift target, the roots agree to the lift target, every inverse meets
its step's need, and the residual returned has the last traced
valuation.  The third lift is the direct lift of sigma2 that the build
no longer makes: the build's sigma2, sigma1^p, must agree with it to
the working target on both images.  The same lifts run with twice the
guard digits must take the same steps and confirm every digit of the
roots and inverses that the first run claims.  ``K2Element`` powers are
compared with the reference by the (shift, digits, absprec) of each
nonzero K0 coefficient and the precision of each zero one, on seeded
elements.
"""

import random

import pytest

import lift_reference
from tests_helpers import cell_states
from wittscaffold import tower
from wittscaffold.audit import element_with_valuation
from wittscaffold.construction import DEFAULT_GUARD_DIGITS, construct_extension
from wittscaffold.errors import PrecisionExhausted
from wittscaffold.galois import d_poly
from wittscaffold.padic import K0Element
from wittscaffold.pipeline import JobConfig, build_context
from wittscaffold.tower import K2Element

# (p, e0, pi0 exponent of a1 = mu)
CASES = [
    (2, 4, -1),
    (3, 6, -1),
    (3, 22, -5),
    (5, 7, -1),
]
# the "u1" of the test ids is the Eisenstein unit of pi0^e0 = p * 1
IDS = [f"p{c[0]}-e0{c[1]}-u1" for c in CASES]
DIGITS = sorted({DEFAULT_GUARD_DIGITS, 16})


def lift_inputs(desc):
    """(c, t0) of the lifts of sigma1(x1), sigma1(x2) and sigma2(x2), in
    the order ``compute_sigma1`` and ``lift_reference.compute_sigma2_direct``
    make them; the second depends on the first root, taken from the new
    lift."""
    p = desc.p
    x1, x2 = desc.x1(), desc.x2()
    a1, a2 = desc.from_k0(desc.a1), desc.from_k0(desc.a2)
    image_x1, _ = tower.hensel_lift(a1, x1 + 1)
    return [
        (a1, x1 + 1),
        (a2 + d_poly(image_x1, a1, p), x2 + d_poly(x1, desc.one(), p)),
        (a2 + d_poly(x1, a1, p), x2 + 1),
    ]


def run_lift(monkeypatch, c, t0, trace):
    """The root and residual of ``tower.hensel_lift`` and, for each step,
    the derivative, the accuracy asked of its inverse and the inverse."""
    steps = []
    invert = tower._invert_unit

    def recording(x, z, need):
        inv = invert(x, z, need)
        steps.append((x, need, inv))
        return inv

    with monkeypatch.context() as m:
        m.setattr(tower, "_invert_unit", recording)
        return tower.hensel_lift(c, t0, trace=trace), steps


def reference_lift(monkeypatch, c, t0, trace):
    with monkeypatch.context() as m:
        m.setattr(K2Element, "__pow__", lift_reference.power)
        return lift_reference.hensel_lift(c, t0, trace=trace)


def cut(c: K0Element, absprec: int):
    return K0Element.make(c.field, c.shift, c.digits, absprec)


def confirmed(x: K2Element, fine_x: K2Element):
    """Whether x and its run at twice the guard digits agree on every
    coefficient, cut to the lesser of their precisions."""
    fine = fine_x.ext.base
    for row, fine_row in zip(x.rows, fine_x.rows):
        for a, fine_a in zip(row, fine_row):
            low = min(a.absprec, fine_a.absprec)
            again = K0Element.make(fine, a.shift, a.digits, a.absprec)
            if not (cut(fine_a, low) - cut(again, low)).is_zero():
                return False
    return True


@pytest.mark.parametrize("digits", DIGITS)
@pytest.mark.parametrize("p, e0, k", CASES, ids=IDS)
def test_lift_matches_reference(monkeypatch, p, e0, k, digits):
    desc, _ = construct_extension(p, e0, (1, k), (1, k), guard_digits=digits)
    fine, _ = construct_extension(p, e0, (1, k), (1, k),
                                  guard_digits=2 * digits)
    target = desc.lift_target
    for (c, t0), (fc, ft0) in zip(lift_inputs(desc), lift_inputs(fine)):
        trace, ref_trace = [], []
        (root, residual), steps = run_lift(monkeypatch, c, t0, trace)
        ref_root = reference_lift(monkeypatch, c, t0, ref_trace)
        assert residual.val_floor() == trace[-1]
        assert len(trace) == len(steps) + 1 <= len(ref_trace)
        assert all(rv >= ref_rv for rv, ref_rv in zip(trace[:-1], ref_trace))
        assert trace[-1] >= target
        assert (root - ref_root).val_floor() >= target
        for rv, (x, need, z) in zip(trace, steps):
            assert need == min(target - rv, (p - 1) * rv)
            assert (desc.one() - x * z).val_floor() >= need

        fine_trace = []
        (fine_root, _), fine_steps = run_lift(monkeypatch, fc, ft0, fine_trace)
        assert fine_trace[:-1] == trace[:-1]
        assert len(fine_steps) == len(steps)
        assert confirmed(root, fine_root)
        for (_, _, z), (_, _, fine_z) in zip(steps, fine_steps):
            assert confirmed(z, fine_z)


@pytest.mark.parametrize("p, e0, k", CASES, ids=IDS)
def test_composed_sigma2_matches_direct_lift(p, e0, k):
    ctx = build_context(JobConfig(p, e0, (1, k), (1, k)))
    desc = ctx.desc
    direct = lift_reference.compute_sigma2_direct(desc)
    assert (ctx.sigma2.image_x1 - desc.x1()).is_zero()
    for a, b in ((ctx.sigma2.image_x1, direct.image_x1),
                 (ctx.sigma2.image_x2, direct.image_x2)):
        assert (a - b).val_floor() >= desc.target_v2


@pytest.mark.parametrize("p, e0, k", CASES, ids=IDS)
def test_power_matches_reference(p, e0, k):
    desc, _ = construct_extension(p, e0, (1, k), (1, k))
    p2 = p * p
    rng = random.Random(7919 * p + e0 + 1)
    elements = [desc.x1() + 1, desc.y2()]
    elements += [element_with_valuation(desc, rng, rng.randrange(-p2, 2 * p2))
                 for _ in range(3)]
    for x in elements:
        for n in range(7):
            assert cell_states(x ** n) == cell_states(lift_reference.power(x, n))


@pytest.mark.parametrize("p, e0, k", CASES, ids=IDS)
def test_seed_is_capped_at_the_precision_of_x(p, e0, k):
    # a seed known better than x, as the previous step's inverse can be,
    # inverts x only as far as x is known: asked for more, the inversion
    # refuses rather than pass the seed on; asked for what x determines,
    # it returns an inverse that agrees there with the reference inverse
    # of x and inverts the better-known x as far
    desc, _ = construct_extension(p, e0, (1, k), (1, k))
    x = (desc.x1() + 1) ** (p - 1) * p - desc.one()
    loss = 3 * e0
    rough = K2Element(desc, [[cut(c, c.absprec - loss) for c in row]
                             for row in x.rows])
    seed = tower._invert_unit(x, None, x.precision())
    need = rough.precision()
    assert need < (desc.one() - x * seed).val_floor()
    with pytest.raises(PrecisionExhausted):
        tower._invert_unit(rough, seed, need + 1)
    inv = tower._invert_unit(rough, seed, need)
    ref_inv = lift_reference._invert_unit(rough)
    assert (inv - ref_inv).val_floor() >= need
    assert (desc.one() - x * inv).val_floor() >= need
