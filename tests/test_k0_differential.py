"""The flat K0 representation against the per-coefficient reference.

Seeded chains of ``+ - * inverse`` run in
``wittscaffold.padic.K0Element`` (one absolute precision per element)
and in ``k0_reference.RefK0Element`` (one precision per coefficient).

* From full-precision inputs, every step is recomputed by the reference
  from the same operands.  Both must report the same valuation outcome,
  valuation floor, precision and digits modulo that precision.  The one
  allowed difference: where the reference inverse claims more precision
  than its input's relative precision justifies, the flat inverse
  claims exactly that bound.
* From inputs whose coefficients carry degraded precisions, every claim
  of the flat model must survive random lifts of the unknown digits,
  recomputed at many more digits.  The reference is run through the
  same check to show that the check detects its overstated precisions.
* Products by a monomial c * pi0^k, which the flat model computes
  without packing, must equal the reference product in shift, digits
  and precision, in both operand orders.
* ``make``, which reads the least term valuation off the digits' gcd,
  and sums with an operand that is zero at its precision, which skip
  the realignment, must equal the reference in shift, digits and
  precision.
"""

import random
from collections import Counter

import pytest

from k0_reference import PadicInt, RefField, RefK0Element, coeffs_of, flat_from_coeffs
from wittscaffold.errors import (
    DivisionByIndeterminateZero,
    IndeterminateValuation,
    PrecisionExhausted,
)
from wittscaffold.padic import BaseField, K0Element

# (p, e0, prec_digits, chains, chain length); 18,000 ops in total
FULL_CASES = [
    (2, 4, 12, 700, 10),
    (3, 6, 8, 500, 10),
    (3, 22, 4, 150, 10),
    (5, 7, 6, 450, 10),
]
# (p, e0, prec_digits, products); 5,100 in total
MONOMIAL_CASES = [
    (2, 4, 12, 1500),
    (3, 6, 8, 1500),
    (3, 22, 4, 600),
    (5, 7, 6, 1500),
]
# (p, e0, prec_digits, chains, chain length); 9,000 ops in total
DEGRADED_CASES = [
    (2, 4, 12, 250, 9),
    (3, 6, 8, 250, 9),
    (3, 22, 4, 125, 18),
    (5, 7, 6, 250, 9),
]
FINE_DIGITS = 80
OPS = "++--***/"
FAILURES = (IndeterminateValuation, DivisionByIndeterminateZero, PrecisionExhausted)


def unit_ids(cases):
    """Test ids of the cases (p, e0, ...) as p-e0-1-...: the 1 is the
    Eisenstein unit of pi0^e0 = p * 1."""
    return ["-".join(map(str, (c[0], c[1], 1, *c[2:]))) for c in cases]


def _apply(op, x, y):
    """One chain step; a raised precision failure is the step's outcome."""
    try:
        if op == "+":
            return x + y
        if op == "-":
            return x - y
        if op == "*":
            return x * y
        return x.inverse()
    except FAILURES as exc:
        return type(exc)


def _run_chain(rng, inputs, length):
    """Apply ``length`` random ops to a pool seeded with ``inputs``.
    Returns the plan, one (op, operand indices, slot the result
    replaced or None) per step, and the step results."""
    pool = list(inputs)
    plan = []
    results = []
    for _ in range(length):
        op = rng.choice(OPS)
        i = rng.randrange(len(pool))
        j = rng.randrange(len(pool))
        out = _apply(op, pool[i], pool[j])
        slot = None
        if not isinstance(out, type):
            slot = rng.randrange(len(pool))
            pool[slot] = out
        plan.append((op, i, j, slot))
        results.append(out)
    return plan, results


def _replay(plan, inputs):
    """Replay a plan on other inputs."""
    pool = list(inputs)
    results = []
    for op, i, j, slot in plan:
        out = _apply(op, pool[i], pool[j])
        results.append(out)
        if slot is not None and not isinstance(out, type):
            pool[slot] = out
    return results


def _outcome(x):
    """Everything a caller can observe about an element's value.  A zero
    is O(pi0^N), so whether it is pristine follows from N, which is
    compared, and not from the shift the reference keeps for it."""
    if isinstance(x, type):
        return x
    try:
        v = x.valuation()
    except IndeterminateValuation:
        v = IndeterminateValuation
    return v, x.val_floor(), x.precision(), x.is_zero()


def _as_flat(field, x):
    """An element of either model re-read as a flat element of ``field``."""
    coeffs = x.coeffs if isinstance(x, RefK0Element) else coeffs_of(x)
    return flat_from_coeffs(field, x.shift, coeffs)


def _as_reference(field, x):
    """A flat element re-read in the per-coefficient model."""
    return RefK0Element.make(field, x.shift, coeffs_of(x))


def _full_inputs(rng, flat, count=4):
    p, e0, prec = flat.p, flat.e0, flat.prec_digits
    xs = []
    for _ in range(count):
        shift = rng.randrange(-2 * e0, 2 * e0 + 1)
        digits = [rng.randrange(p**prec) for _ in range(e0)]
        if rng.random() < 0.3:
            digits[0] = p * rng.randrange(p ** (prec - 1))
        xs.append(K0Element.make(flat, shift, digits, shift + e0 * prec))
    return xs


@pytest.mark.parametrize("p,e0,prec,chains,length", FULL_CASES,
                         ids=unit_ids(FULL_CASES))
def test_full_precision_chains_match_reference(p, e0, prec, chains, length):
    flat = BaseField(p, e0, prec_digits=prec)
    ref = RefField(p, e0, prec_digits=prec)
    rng = random.Random(1000 * p + e0)
    for _ in range(chains):
        pool = _full_inputs(rng, flat)
        for _ in range(length):
            op = rng.choice(OPS)
            x = pool[rng.randrange(len(pool))]
            y = pool[rng.randrange(len(pool))]
            got = _apply(op, x, y)
            want = _apply(op, _as_reference(ref, x), _as_reference(ref, y))
            expected = _outcome(want)
            if op == "/" and not isinstance(want, type):
                # the reference seeds Newton with digit 0 inverted at
                # that digit's own precision, which can exceed the
                # unit's; the flat inverse keeps its input's relative
                # precision and so may know less
                v, floor, claimed, zero = expected
                sound = x.precision() - 2 * x.valuation()
                expected = v, floor, min(claimed, sound), zero
            assert _outcome(got) == expected, (op, x, y, got, want)
            if not isinstance(got, type):
                diff = got - _as_flat(flat, want)
                assert diff.val_floor() >= got.precision(), (op, x, y, got, want)
                pool[rng.randrange(len(pool))] = got


def _degraded_input(rng, coarse, fine):
    """A coarse element with per-coefficient precisions, and a random
    fine lift of it: known digits kept, unknown digits drawn at random."""
    p, e0, prec = coarse.p, coarse.e0, coarse.prec_digits
    shift = rng.randrange(-2 * e0, 2 * e0 + 1)
    coarse_coeffs = []
    fine_coeffs = []
    for _ in range(e0):
        k = prec if rng.random() < 0.5 else rng.randrange(prec + 1)
        d = rng.randrange(p**k)
        if rng.random() < 0.3:
            d = 0
        coarse_coeffs.append(PadicInt(p, d, k))
        lift = d + p**k * rng.randrange(p ** (FINE_DIGITS - k))
        fine_coeffs.append(PadicInt(p, lift, FINE_DIGITS))
    return shift, tuple(coarse_coeffs), tuple(fine_coeffs)


def _unsound(claim, truth, fine):
    """Whether the coarse ``claim`` contradicts the fine ``truth``."""
    if isinstance(claim, type):
        return False
    if isinstance(truth, type):
        return True
    try:
        v = claim.valuation()
    except IndeterminateValuation:
        v = None
    if v is not None and (truth.is_zero() or truth.valuation() != v):
        return True
    return (truth - _as_flat(fine, claim)).val_floor() < claim.precision()


def _count_unsound(p, e0, prec, chains, length, use_reference):
    coarse = (RefField if use_reference else BaseField)(p, e0, prec_digits=prec)
    make = RefK0Element.make if use_reference else flat_from_coeffs
    fine = BaseField(p, e0, prec_digits=FINE_DIGITS)
    rng = random.Random(2000 * p + e0)
    unsound = 0
    for _ in range(chains):
        xs, lifts = [], []
        for _ in range(4):
            shift, cc, fc = _degraded_input(rng, coarse, fine)
            xs.append(make(coarse, shift, cc))
            lifts.append(flat_from_coeffs(fine, shift, fc))
        plan, claims = _run_chain(rng, xs, length)
        truths = _replay(plan, lifts)
        for claim, truth in zip(claims, truths):
            unsound += _unsound(claim, truth, fine)
    return unsound


@pytest.mark.parametrize("p,e0,prec,chains,length", DEGRADED_CASES)
def test_degraded_precision_claims_are_sound(p, e0, prec, chains, length):
    assert _count_unsound(p, e0, prec, chains, length, use_reference=False) == 0


def test_soundness_check_catches_reference_overstatement():
    # the per-coefficient model normalizes by digits that lie past its
    # own precision; the lift check above must notice that
    p, e0, prec, chains, length = DEGRADED_CASES[1]
    assert _count_unsound(p, e0, prec, chains, length, use_reference=True) > 0


def _monomial(rng, flat):
    """c * pi0^k with c = 1 or another unit, k of either sign, known to
    the full or to a degraded relative precision."""
    p, e0, full = flat.p, flat.e0, flat.e0 * flat.prec_digits
    k = rng.randrange(-3 * e0, 3 * e0 + 1)
    c = 1 if rng.random() < 0.5 else rng.randrange(1, p**flat.prec_digits)
    if c % p == 0:
        c += 1
    rel = full if rng.random() < 0.5 else rng.randint(1, full)
    return K0Element.make(flat, k, [c] + [0] * (e0 - 1), k + rel)


def _partner(rng, flat):
    """A general element at the full or a degraded relative precision,
    or a zero at some precision."""
    p, e0, full = flat.p, flat.e0, flat.e0 * flat.prec_digits
    shift = rng.randrange(-2 * e0, 2 * e0 + 1)
    rel = full if rng.random() < 0.5 else rng.randint(1, full)
    if rng.random() < 0.15:
        return K0Element.make(flat, shift, [0] * e0, shift + rel)
    digits = [rng.randrange(p**flat.prec_digits) for _ in range(e0)]
    if rng.random() < 0.3:
        digits[0] = p * rng.randrange(p ** (flat.prec_digits - 1))
    return K0Element.make(flat, shift, digits, shift + rel)


@pytest.mark.parametrize("p,e0,prec,products", MONOMIAL_CASES,
                         ids=unit_ids(MONOMIAL_CASES))
def test_monomial_products_match_reference(p, e0, prec, products):
    flat = BaseField(p, e0, prec_digits=prec)
    ref = RefField(p, e0, prec_digits=prec)
    rng = random.Random(3000 * p + e0 + 1)
    # products by 1 * pi0^k whose relative precision is the partner's
    # own (digits kept) or lower (digits reduced), and by other units
    kinds = {"kept": 0, "reduced": 0, "unit": 0, "zero": 0}
    for _ in range(products):
        x = _monomial(rng, flat)
        y = _partner(rng, flat)
        want = _as_flat(flat, _as_reference(ref, x) * _as_reference(ref, y))
        for got in (x * y, y * x):
            assert (got.shift, got.digits, got.absprec) == (
                want.shift, want.digits, want.absprec), (x, y, got, want)
        if not (x.digits[0] and y.digits[0]):
            kinds["zero"] += 1
        elif x.digits[0] != 1:
            kinds["unit"] += 1
        elif x.absprec - x.shift >= y.absprec - y.shift:
            kinds["kept"] += 1
        else:
            kinds["reduced"] += 1
    assert min(kinds.values()) > products // 20, kinds


# (p, e0, prec_digits) of the normalization and zero-operand tests
LANE_FIELDS = [
    (2, 4, 12),
    (3, 6, 8),
    (3, 22, 4),
    (5, 7, 6),
]


def _state(x):
    return x.shift, x.digits, x.absprec


@pytest.mark.parametrize("p,e0,prec", LANE_FIELDS, ids=unit_ids(LANE_FIELDS))
def test_make_matches_reference(p, e0, prec):
    flat = BaseField(p, e0, prec_digits=prec)
    ref = RefField(p, e0, prec_digits=prec)
    rng = random.Random(4000 * p + e0 + 1)
    full = e0 * prec
    kinds = Counter()

    def check(shift, digits, rel):
        got = K0Element.make(flat, shift, digits, shift + rel)
        coeffs = tuple(PadicInt(p, d, -((i - rel) // e0))
                       for i, d in enumerate(digits))
        want = _as_flat(flat, RefK0Element.make(ref, shift, coeffs))
        assert _state(got) == _state(want), (shift, digits, rel)
        kinds["zero" if not got.digits[0] else
              "kept" if got.shift == shift else "normalized"] += 1

    # digit vectors built to cancel down to the least term e0*q + r: the
    # digits before r divisible by p^(q+1), digit r by p^q only and the
    # rest by p^q, of either sign, at precisions that keep or cut it
    for q in range(prec + 1):
        for r in range(e0):
            for _ in range(3):
                digits = [rng.choice((1, -1)) * p ** (q + (i < r))
                          * rng.randrange(p**prec) for i in range(e0)]
                digits[r] = p**q * (p * rng.randrange(p**prec)
                                    + rng.randrange(1, p))
                check(rng.randrange(-2 * e0, 2 * e0 + 1), digits,
                      rng.randint(0, full) if rng.random() < 0.5 else full)
    for rel in range(full + 1):
        check(rng.randrange(-2 * e0, 2 * e0 + 1), [0] * e0, rel)
    assert min(kinds[k] for k in ("zero", "kept", "normalized")) > 0, kinds


@pytest.mark.parametrize("p,e0,prec", LANE_FIELDS, ids=unit_ids(LANE_FIELDS))
def test_sums_with_a_zero_operand_match_reference(p, e0, prec):
    flat = BaseField(p, e0, prec_digits=prec)
    ref = RefField(p, e0, prec_digits=prec)
    rng = random.Random(5000 * p + e0 + 1)
    kinds = Counter()
    for _ in range(600):
        x = _partner(rng, flat)
        # the zero's precision lies above, at or below x's, or at or
        # below x's shift
        where = rng.choice(("above", "at", "below", "under shift"))
        if where == "above":
            n = x.absprec + rng.randint(1, 2 * e0)
        elif where == "at":
            n = x.absprec
        elif where == "below":
            n = rng.randint(min(x.shift, x.absprec - 1), x.absprec - 1)
        else:
            n = x.shift - rng.randint(0, 2 * e0)
        z = K0Element(flat, n, flat._zeros, n)
        rx = _as_reference(ref, x)
        rz = _as_reference(ref, z)
        for got, want in ((x + z, rx + rz), (z + x, rz + rx),
                          (x - z, rx - rz), (z - x, rz - rx)):
            assert _state(got) == _state(_as_flat(flat, want)), (x, z, got)
        if not x.digits[0]:
            kinds["both zero"] += 1
        elif min(n, x.absprec) <= x.shift:
            kinds["zero at x's shift"] += 1
        elif n >= x.absprec:
            kinds["x at its precision"] += 1
            assert x + z is x and z + x is x and x - z is x
        else:
            kinds["x at the zero's precision"] += 1
    assert len(kinds) == 4 and min(kinds.values()) > 20, kinds
