"""Exact arithmetic in totally ramified base fields Q_p(pi0).

``K0Element`` is the package's one p-adic number type; integers enter
as ``BaseField.from_int``.  Elements of K0 = Q_p(pi0), where
pi0^e0 = p, are stored as

    pi0^shift * (d_0 + d_1*pi0 + ... + d_{e0-1}*pi0^{e0-1}) + O(pi0^N)

with e0 plain nonnegative ints d_i and one absolute pi0-precision N per
element, the capped-absolute model of Caruso, Roe and Vaccon, "Tracking
p-adic precision" (ANTS 2014).  Digit i is reduced
modulo p^ceil((N - shift - i) / e0), so every term it carries is known.
The explicit pi0-power shift keeps all digit arithmetic integral even
for elements of negative valuation.  Every element has one normal
form: a nonzero one is normalized, so its shift is its valuation, and
one that is zero at its precision is O(pi0^N), stored at shift N with
all digits 0.  So the shift is always the valuation floor.

Precision follows the ultrametric rules: N = min(N_a, N_b) for sums and
N = min(shift_a + N_b, shift_b + N_a) for products.  Products use
Kronecker substitution: each digit vector is packed into one big
integer, one integer product gives the 2*e0 - 1 convolution sums, and
the upper ones fold back through the exact pi0^e0 = p, at no cost in
precision, before the e0 digits are read out.

A product with a monomial c * pi0^k (every digit past digit 0 zero)
needs no packing: it scales the other operand's digits by c, and by
c = 1 at an unchanged relative precision it keeps them as they are.
Likewise a sum with an operand that is zero at its precision is the
other operand at the lesser precision, with no realignment.

Sums of products, such as the coefficients of K2 products and of
K0-linear combinations in K2, go through ``dots``.  A sum's precision
is the minimum over its terms, so a whole sum of products is one packed
integer sum with one reduction, with the same digits, shift and
precision as adding the products one at a time, in any order.  Each
element keeps its packed form as a cache for the next sum: the field
holds one slot width that only grows, so the operands that recur
(automorphism tables, operator coefficients, orbit images) are packed
about once per field rather than once per sum.

Valuations are exact: the term valuations e0*v_p(d_i) + i are pairwise
distinct modulo e0, so the minimum is attained by a unique term and no
cross-term cancellation can hide it.  It is e0*q + r for q = v_p of the
digits' gcd and r the first digit that p^(q+1) does not divide.
Normalizing a nonzero element moves this minimum to digit 0; an element
whose digits all vanish is zero at its precision, O(pi0^N).
"""

from __future__ import annotations

from functools import lru_cache
from math import gcd, isqrt

from .errors import (
    DivisionByIndeterminateZero,
    IndeterminateValuation,
    MembershipUndecided,
    PrecisionExhausted,
)


@lru_cache(maxsize=None)
def _pk(p: int, k: int) -> int:
    return p**k


_add = int.__add__
_sub = int.__sub__
_neg = int.__neg__
_mod = int.__mod__


class BaseField:
    """Totally ramified base field Q_p(pi0) with pi0^e0 = p."""

    __slots__ = ("p", "e0", "prec_digits", "_zeros", "_moduli", "_width")

    def __init__(self, p: int, e0: int, prec_digits: int = 32):
        if p < 2 or any(p % q == 0 for q in range(2, isqrt(p) + 1)):
            raise ValueError("p must be prime")
        if e0 < 1:
            raise ValueError("e0 must be at least 1")
        if prec_digits < 1:
            raise ValueError("prec_digits must be positive")
        self.p = p
        self.e0 = e0
        self.prec_digits = prec_digits
        self._zeros = (0,) * e0
        self._moduli = {}
        # the slot width of the packed forms that ``dots`` caches on
        # elements of this field; it only grows
        self._width = 0

    def zero(self) -> "K0Element":
        return self.monomial(0, 0)

    def one(self) -> "K0Element":
        return self.monomial(1, 0)

    def from_int(self, n: int) -> "K0Element":
        return self.monomial(n, 0)

    def pi0(self, k: int = 1) -> "K0Element":
        return self.monomial(1, k)

    def monomial(self, c: int, k: int) -> "K0Element":
        """The element c * pi0^k, with c known to ``prec_digits``."""
        return K0Element.make(self, k, [c, *self._zeros[1:]],
                              k + self.e0 * self.prec_digits)

    def _digit_moduli(self, m: int) -> tuple:
        """The moduli p^ceil((m - i) / e0), at least 1, of the digits of
        an element known to relative precision m = absprec - shift,
        cached with one entry per relative precision that occurs."""
        mods = self._moduli.get(m)
        if mods is None:
            q, r = divmod(max(m, 0), self.e0)
            hi = _pk(self.p, q + 1)
            lo = _pk(self.p, q)
            mods = self._moduli[m] = (hi,) * r + (lo,) * (self.e0 - r)
        return mods

    def _raise(self, digits, t: int):
        """Digits of pi0^t * sum digits[i] pi0^i, t >= 0, at the same
        shift: terms past pi0^e0 fold through pi0^e0 = p."""
        e0 = self.e0
        p = self.p
        q, r = divmod(t, e0)
        if q:
            f = _pk(p, q)
            digits = [d * f for d in digits]
        if r:
            digits = [d * p for d in digits[e0 - r:]] + [*digits[:e0 - r]]
        return digits

    def __repr__(self):
        return f"BaseField(p={self.p}, e0={self.e0})"


class K0Element:
    """pi0^shift * sum_i digits[i] * pi0^i + O(pi0^absprec) in K0.

    A nonzero element is normalized (digit 0 a unit), so its valuation is
    ``shift``; an element that is zero at its precision is O(pi0^absprec),
    with ``shift == absprec`` and all digits 0.  Either way ``shift`` is
    the valuation floor.

    Invariant: digit i is reduced modulo p^ceil((absprec - shift - i) /
    e0), as ``make`` leaves it, so every digit lies below
    ``field._digit_moduli(absprec - shift)[0]``.  ``dots`` sizes its
    slots by that bound, and a product by a monomial 1 * pi0^k keeps the
    other operand's digits as they are.  Every direct construction keeps
    it and the zero form: zeros O(pi0^N), an unchanged relative
    precision, or digits taken from ``make``.

    ``_packed`` caches (slot width, Kronecker-packed digits) for
    ``dots``; it is read and replaced whole, never updated in place.
    """

    __slots__ = ("field", "shift", "digits", "absprec", "_packed")

    def __init__(self, field: BaseField, shift: int, digits: tuple, absprec: int):
        self.field = field
        self.shift = shift
        self.digits = digits
        self.absprec = absprec
        self._packed = _UNPACKED

    @classmethod
    def make(cls, field: BaseField, shift: int, digits, absprec: int) -> "K0Element":
        """pi0^shift * sum_i digits[i] * pi0^i + O(pi0^absprec): reduce
        the e0 ``digits`` (any iterable of ints) modulo the precision and
        normalize by the least term valuation, read off the digits'
        gcd (``_least_term``); a zero at that precision is
        O(pi0^absprec)."""
        digits = tuple(map(_mod, digits, field._digit_moduli(absprec - shift)))
        p = field.p
        if digits[0] % p:
            return cls(field, shift, digits, absprec)
        e0 = field.e0
        t = _least_term(p, e0, digits)
        if t is None:
            return cls(field, absprec, field._zeros, absprec)
        # divide by pi0^t = p^q * pi0^r: digit i moves to position
        # i - r and, when that wraps below 0, loses one more factor p
        q, r = divmod(t, e0)
        lo = _pk(p, q)
        hi = lo * p
        return cls(field, shift + t, tuple(
            [d // lo for d in digits[r:]] + [d // hi for d in digits[:r]]),
            absprec)

    # -- introspection ------------------------------------------------

    def valuation(self) -> int:
        if not self.digits[0]:
            raise IndeterminateValuation(
                "element has no resolvable valuation at current precision"
            )
        return self.shift

    def val_floor(self) -> int:
        """A guaranteed lower bound on the valuation."""
        return self.shift

    def precision(self) -> int:
        """Absolute v0-precision: the element is known modulo pi0^prec."""
        return self.absprec

    def is_zero(self) -> bool:
        """True when indistinguishable from zero at current precision."""
        return not self.digits[0]

    def is_pristine_zero(self) -> bool:
        """Zero with no precision loss (a structural zero): safe to drop
        from products without weakening any precision bound that the
        surrounding computation could ever assert against: zero known at
        least as far as the field's full precision e0 * prec_digits."""
        field = self.field
        return not self.digits[0] and self.absprec >= field.e0 * field.prec_digits

    # -- arithmetic ---------------------------------------------------

    def _coerce(self, other):
        if isinstance(other, int):
            return self.field.from_int(other)
        return other

    def _combine(self, other, op) -> "K0Element":
        """self op other for op int addition or subtraction, digitwise
        at the lesser shift.

        A zero operand adds only its precision: the result is the other
        operand x at the lesser precision n, or O(pi0^n) when x is zero
        at n too."""
        if other.__class__ is not K0Element:
            other = self._coerce(other)
            if not isinstance(other, K0Element):
                return NotImplemented
        field = self.field
        if other.field is not field:
            raise ValueError("elements of different base fields")
        a = self.digits
        b = other.digits
        if not (a[0] and b[0]):
            n = min(self.absprec, other.absprec)
            x = self if a[0] else other
            # x is zero at n when its shift reaches n, as a zero's does
            if n <= x.shift:
                return K0Element(field, n, field._zeros, n)
            if x is self or op is _add:
                if n == x.absprec:
                    return x
                return K0Element.make(field, x.shift, x.digits, n)
            return K0Element.make(field, x.shift, map(_neg, x.digits), n)
        s = self.shift
        t = other.shift - s
        if t > 0:
            b = field._raise(b, t)
        elif t < 0:
            a = field._raise(a, -t)
            s = other.shift
        return K0Element.make(field, s, map(op, a, b),
                              min(self.absprec, other.absprec))

    def __add__(self, other):
        return self._combine(other, _add)

    __radd__ = __add__

    def __neg__(self):
        return K0Element.make(self.field, self.shift,
                              map(_neg, self.digits), self.absprec)

    def __sub__(self, other):
        return self._combine(other, _sub)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if other.__class__ is not K0Element:
            other = self._coerce(other)
            if not isinstance(other, K0Element):
                return NotImplemented
        field = self.field
        if other.field is not field:
            raise ValueError("elements of different base fields")
        a = self.digits
        b = other.digits
        shift = self.shift + other.shift
        # known to min(vf(a) + N(b), vf(b) + N(a)), the shift being the
        # valuation floor vf
        absprec = min(self.shift + other.absprec, other.shift + self.absprec)
        if not (a[0] and b[0]):
            return K0Element(field, absprec, field._zeros, absprec)
        # a monomial c * pi0^k scales the other operand's digits by c; the
        # product's relative precision is the lesser of the operands', so
        # for c = 1 and the other operand's own, its digits stay reduced
        e0 = field.e0
        if b.count(0) == e0 - 1:
            c = b[0]
            rel = self.absprec - self.shift
        elif a.count(0) == e0 - 1:
            c = a[0]
            a = b
            rel = other.absprec - other.shift
        else:
            c = 0
        if c:
            if c == 1 and absprec - shift == rel:
                return K0Element(field, shift, a, absprec)
            return K0Element.make(field, shift, [d * c for d in a], absprec)
        # Kronecker substitution: pack each digit vector into one integer
        # with w-bit slots, multiply once, fold the upper e0 - 1
        # convolution slots onto the lower ones through pi0^e0 = p while
        # still packed, and read the e0 digits back out.  The slots are
        # wide enough for any folded convolution sum.
        p = field.p
        w = (max(a).bit_length() + max(b).bit_length() + e0.bit_length()
             + p.bit_length() + 1)
        z = _pack(a, w) * _pack(b, w)
        low = w * e0
        z = (z & ((1 << low) - 1)) + p * (z >> low)
        mask = (1 << w) - 1
        digits = [(z >> (w * k)) & mask for k in range(e0)]
        # both digit-0 terms are units, so the product is normalized
        # whenever the precision reaches its digit 0
        return K0Element.make(field, shift, digits, absprec)

    __rmul__ = __mul__

    def __pow__(self, n: int):
        if n < 0:
            raise ValueError("negative powers not supported on K0Element")
        result = self.field.one()
        base = self
        while n:
            if n & 1:
                result = result * base
            n >>= 1
            if n:
                base = base * base
        return result

    def inverse(self) -> "K0Element":
        if not self.digits[0]:
            raise DivisionByIndeterminateZero(
                "inverse of an element indistinguishable from zero"
            )
        field = self.field
        # normalized form means the digits are a unit of O0 with unit
        # constant digit, known modulo pi0^m; Newton-iterate its inverse
        # from the inverse of digit 0, which is known no better than the
        # unit itself
        m = self.absprec - self.shift
        u = K0Element(field, 0, self.digits, m)
        z0 = pow(self.digits[0], -1, field._digit_moduli(m)[0])
        z = K0Element.make(field, 0, [z0, *field._zeros[1:]], m)
        one = field.one()
        r = one - u * z
        for _ in range(64):
            if r.is_zero():
                return K0Element(field, z.shift - self.shift, z.digits,
                                 z.absprec - self.shift)
            z = z + z * r
            r = one - u * z
        raise PrecisionExhausted("unit inversion did not stabilize")

    def __eq__(self, other):
        other = self._coerce(other)
        if not isinstance(other, K0Element):
            return NotImplemented
        return (self - other).is_zero()

    __hash__ = None

    def __repr__(self):
        terms = [f"{d}*pi0^{i + self.shift}"
                 for i, d in enumerate(self.digits) if d]
        body = " + ".join(terms) if terms else "0"
        return f"K0Element({body} + O(pi0^{self.absprec}))"


_UNPACKED = (0, 0)  # no slot width is 0


def _least_term(p: int, e0: int, digits):
    """The least term valuation e0*v_p(d_i) + i of nonnegative digits,
    or None when they all vanish.  q = v_p(gcd) is the least v_p(d_i),
    and the first digit that p^(q+1) does not divide is the first of
    that valuation; a digit of higher valuation has its term at
    e0*(q+1) or past it."""
    g = gcd(*digits)
    if not g:
        return None
    q = 0
    while not g % p:
        g //= p
        q += 1
    m = _pk(p, q + 1)
    for i, d in enumerate(digits):
        if d % m:
            return e0 * q + i


def _pack(digits, w: int) -> int:
    """Kronecker packing: digits[k] in the w-bit slot k of one integer."""
    x = 0
    for d in reversed(digits):
        x = (x << w) | d
    return x


def dots(groups) -> list:
    """Fused K0 sums of products.

    Each group is a nonempty list of terms (a, b), b None standing for
    the plain term a.  The result for a group is the sum of its terms,
    equal in shift, digits and precision to the left fold t0 + t1 + ...
    of the terms a * b (or a).

    The precision N is the least of the terms' own precisions, as the
    fold computes it, and terms whose shift reaches N add nothing; a
    zero term's shift is its precision, so no zero term is live.  The
    live terms are one sum of Kronecker-packed products at their least
    shift, with one reduction per group: a term of higher shift
    q*e0 + r is multiplied by p^q and moved r slots up, and the upper
    slots fold back through pi0^e0 = p while still packed.  The sum has
    one normal form at N, which is the fold's result: its normalized
    digits and shift, or O(pi0^N) when it is zero there.  A group with
    no live term is O(pi0^N).

    All groups of a call share one slot width w: the width the call
    needs, from the operands' relative precisions (which bound their
    digits), or the field's width if that is larger.  The field's width
    is then raised to w.  Each operand is read through its cached packed
    form, and packed again only when that form has another width.  The
    call uses its own w throughout, so a concurrent call on the same
    field that raises the width costs a repack, never a narrow slot.
    """
    plans = []
    nmax = span = ra = rb = 0
    for terms in groups:
        prec = None
        cand = []
        for a, b in terms:
            if b is None:
                n = a.absprec
                cand.append((a.shift, a, None))
            else:
                # the product's precision, as K0Element.__mul__ takes it
                sa = a.shift
                sb = b.shift
                n = sa + b.absprec
                m = sb + a.absprec
                if m < n:
                    n = m
                cand.append((sa + sb, a, b))
            if prec is None or n < prec:
                prec = n
        # ra and rb: the largest relative precisions of live operands
        live = []
        for t in cand:
            s, a, b = t
            if s < prec:
                live.append(t)
                r = a.absprec - a.shift
                if r > ra:
                    ra = r
                if b is not None:
                    r = b.absprec - b.shift
                    if r > rb:
                        rb = r
        s0 = None
        if live:
            shifts = [t[0] for t in live]
            s0 = min(shifts)
            span = max(span, max(shifts) - s0)
            nmax = max(nmax, len(live))
        plans.append((terms[0][0].field, prec, s0, live))
    if nmax:
        field = plans[0][0]
        e0 = field.e0
        p = field.p
        # a slot of one term's product is at most e0 * amax * bmax, times
        # p^q for its shift; slot shifts below e0 spread the sum over at
        # most three blocks of e0 slots, which fold back with the
        # factors 1, p and p^2
        amax = field._digit_moduli(ra)[0]
        bmax = field._digit_moduli(rb)[0]
        w = (nmax * e0 * amax * bmax * _pk(p, span // e0)
             * (1 + p + p * p)).bit_length()
        fw = field._width
        if w > fw:
            field._width = w
        else:
            w = fw
        low = w * e0
        lowmask = (1 << low) - 1
        mask = (1 << w) - 1
    out = []
    for f, prec, s0, live in plans:
        if not live:
            out.append(K0Element(f, prec, f._zeros, prec))
            continue
        z = 0
        for s, a, b in live:
            c = a._packed
            if c[0] != w:
                c = a._packed = (w, _pack(a.digits, w))
            t = c[1]
            if b is not None:
                c = b._packed
                if c[0] != w:
                    c = b._packed = (w, _pack(b.digits, w))
                t *= c[1]
            if s != s0:
                q, r = divmod(s - s0, e0)
                z += (t * _pk(p, q)) << (w * r)
            else:
                z += t
        while z >> low:
            z = (z & lowmask) + p * (z >> low)
        out.append(K0Element.make(field, s0, [(z >> (w * k)) & mask
                                              for k in range(e0)], prec))
    return out


def wp_membership_guard(a: K0Element) -> bool:
    """Certify that ``a`` is not of the form y^p - y with y in K0.

    Only the case v0(a) < 0 with p not dividing v0(a) is decided: for
    v0(y) < 0 one has v0(y^p - y) = p*v0(y), a multiple of p, which can
    never equal v0(a).  Everything else raises MembershipUndecided.
    """
    p = a.field.p
    v = a.valuation()
    if v >= 0:
        raise MembershipUndecided(
            f"v0(a) = {v} >= 0: only negative valuations are certified"
        )
    if v % p == 0:
        raise MembershipUndecided(
            f"p = {p} divides v0(a) = {v}: membership not decided by valuation"
        )
    return True
