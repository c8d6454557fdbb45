"""Per-coefficient reference for K0 arithmetic (test use only).

This is the earlier representation of K0 = Q_p(pi0): every coefficient
is a ``PadicInt`` carrying its own precision, sums and products work
coefficient by coefficient, and ``make`` normalizes by shifting digits
out of coefficient 0.  ``tests/test_k0_differential.py`` runs it side
by side with the flat ``K0Element`` of ``wittscaffold.padic``.  The
classes are kept as they were, renamed so that both can coexist.  The
package no longer has a per-coefficient scalar, so this module carries
its own copy of ``PadicInt``, and the two conversions between the
models: ``flat_from_coeffs`` and ``coeffs_of``.
"""

from __future__ import annotations

from functools import lru_cache

from wittscaffold.errors import (
    DivisionByIndeterminateZero,
    IndeterminateValuation,
    PrecisionExhausted,
)
from wittscaffold.padic import BaseField, K0Element


@lru_cache(maxsize=None)
def _pk(p: int, k: int) -> int:
    return p**k


class PadicInt:
    """An element of Z_p known modulo p^prec.

    ``digits`` is the least nonnegative representative; ``prec`` is the
    absolute precision in p-adic digits.  ``prec == 0`` carries no
    information.
    """

    __slots__ = ("p", "digits", "prec")

    def __init__(self, p: int, digits: int, prec: int):
        self.p = p
        self.prec = prec if prec > 0 else 0
        self.digits = digits % _pk(p, self.prec) if self.prec > 0 else 0

    def valuation(self) -> int | None:
        """Exact p-adic valuation, or None if zero at current precision."""
        if self.digits == 0:
            return None
        v = 0
        d = self.digits
        p = self.p
        while d % p == 0:
            d //= p
            v += 1
        return v

    def is_zero(self) -> bool:
        return self.digits == 0

    def is_unit(self) -> bool:
        return self.prec > 0 and self.digits % self.p != 0

    def __add__(self, other):
        if isinstance(other, int):
            return PadicInt(self.p, self.digits + other, self.prec)
        if not isinstance(other, PadicInt):
            return NotImplemented
        if other.p != self.p:
            raise ValueError("mixed primes")
        n = min(self.prec, other.prec)
        return PadicInt(self.p, self.digits + other.digits, n)

    __radd__ = __add__

    def __neg__(self):
        return PadicInt(self.p, -self.digits, self.prec)

    def __sub__(self, other):
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        p = self.p
        if isinstance(other, int):
            if other == 0:
                # exact zero: known modulo everything we could ever use
                return PadicInt(p, 0, self.prec + self.prec)
            v = 0
            o = other
            while o % p == 0:
                o //= p
                v += 1
            return PadicInt(p, self.digits * other, v + self.prec)
        if not isinstance(other, PadicInt):
            return NotImplemented
        if other.p != p:
            raise ValueError("mixed primes")
        va = self.valuation()
        vb = other.valuation()
        if va is None:
            va = self.prec
        if vb is None:
            vb = other.prec
        n = min(va + other.prec, vb + self.prec)
        return PadicInt(p, self.digits * other.digits, n)

    __rmul__ = __mul__

    def __pow__(self, n: int):
        if n < 0:
            raise ValueError("negative powers not supported on PadicInt")
        result = PadicInt(self.p, 1, self.prec + 1)
        base = self
        while n:
            if n & 1:
                result = result * base
            n >>= 1
            if n:
                base = base * base
        return result

    def unit_inverse(self) -> "PadicInt":
        if not self.is_unit():
            raise ValueError("not a unit at current precision")
        inv = pow(self.digits, -1, _pk(self.p, self.prec))
        return PadicInt(self.p, inv, self.prec)

    def divexact_p(self, k: int) -> "PadicInt":
        """Divide by p^k.  Requires the known digits to be divisible."""
        if k == 0:
            return self
        if self.prec <= k:
            return PadicInt(self.p, 0, 0)
        pk = _pk(self.p, k)
        if self.digits % pk != 0:
            raise ValueError("digits not divisible by p^k")
        return PadicInt(self.p, self.digits // pk, self.prec - k)

    def __eq__(self, other):
        if isinstance(other, int):
            other = PadicInt(self.p, other, self.prec)
        if not isinstance(other, PadicInt) or other.p != self.p:
            return NotImplemented
        return (self - other).digits == 0

    __hash__ = None

    def __repr__(self):
        return f"PadicInt({self.digits} + O({self.p}^{self.prec}))"


def flat_from_coeffs(field: BaseField, shift: int, coeffs) -> K0Element:
    """The flat element with per-coefficient Z_p scalars c_i of
    pi0^(shift+i), known up to the least of their precisions."""
    absprec = shift + min(field.e0 * c.prec + i for i, c in enumerate(coeffs))
    return K0Element.make(field, shift, [c.digits for c in coeffs], absprec)


def coeffs_of(x: K0Element) -> tuple:
    """The digits of a flat element as Z_p scalars, each at its implied
    precision."""
    p = x.field.p
    e0 = x.field.e0
    m = x.absprec - x.shift
    return tuple(PadicInt(p, d, -((i - m) // e0))
                 for i, d in enumerate(x.digits))


class RefField:
    """Totally ramified base field Q_p(pi0) with pi0^e0 = p * unit."""

    __slots__ = ("p", "e0", "unit", "prec_digits", "_unit_inv", "_p_unit")

    def __init__(self, p: int, e0: int, unit_digits: int = 1, prec_digits: int = 32):
        if p < 2 or any(p % q == 0 for q in range(2, int(p**0.5) + 1)):
            raise ValueError("p must be prime")
        if e0 < 1:
            raise ValueError("e0 must be at least 1")
        if prec_digits < 1:
            raise ValueError("prec_digits must be positive")
        self.p = p
        self.e0 = e0
        self.prec_digits = prec_digits
        self.unit = PadicInt(p, unit_digits, prec_digits)
        if self.unit.valuation() != 0:
            raise ValueError("eisenstein unit must be a p-adic unit")
        self._unit_inv = self.unit.unit_inverse()
        self._p_unit = self.unit * p  # pi0^e0 as a Z_p scalar

    def exact(self, n: int) -> PadicInt:
        return PadicInt(self.p, n, self.prec_digits)

    def zero(self) -> "RefK0Element":
        return self.monomial(0, 0)

    def one(self) -> "RefK0Element":
        return self.monomial(1, 0)

    def from_int(self, n: int) -> "RefK0Element":
        return self.monomial(n, 0)

    def pi0(self, k: int = 1) -> "RefK0Element":
        return self.monomial(1, k)

    def monomial(self, c: int | PadicInt, k: int) -> "RefK0Element":
        """The element c * pi0^k."""
        if isinstance(c, int):
            c = self.exact(c)
        coeffs = [c] + [PadicInt(self.p, 0, self.prec_digits)] * (self.e0 - 1)
        return RefK0Element.make(self, k, tuple(coeffs))

    def scalar(self, c: PadicInt) -> "RefK0Element":
        return self.monomial(c, 0)

    def __repr__(self):
        return f"RefField(p={self.p}, e0={self.e0})"


class RefK0Element:
    """An element of K0 = Q_p(pi0) in canonical pi0-shifted form."""

    __slots__ = ("field", "shift", "coeffs")

    def __init__(self, field: RefField, shift: int, coeffs: tuple):
        self.field = field
        self.shift = shift
        self.coeffs = coeffs

    @classmethod
    def make(cls, field: RefField, shift: int, coeffs: tuple) -> "RefK0Element":
        """Build and bring to canonical form (some coefficient a unit,
        unless indistinguishable from zero)."""
        e0 = field.e0
        t = None
        for i, c in enumerate(coeffs):
            v = c.valuation()
            if v is not None:
                cand = e0 * v + i
                if t is None or cand < t:
                    t = cand
        if t is None or t == 0:
            return cls(field, shift, tuple(coeffs))
        coeffs = list(coeffs)
        for _ in range(t):
            c0 = coeffs[0].divexact_p(1) * field._unit_inv
            coeffs = coeffs[1:] + [c0]
            shift += 1
        return cls(field, shift, tuple(coeffs))

    # -- introspection ------------------------------------------------

    def _val_parts(self):
        """(exact valuation or None, lower bound that always holds)."""
        e0 = self.field.e0
        det = None
        bound = None
        for i, c in enumerate(self.coeffs):
            v = c.valuation()
            if v is None:
                cand = e0 * c.prec + i
                if bound is None or cand < bound:
                    bound = cand
            else:
                cand = e0 * v + i
                if det is None or cand < det:
                    det = cand
        if det is not None and (bound is None or det < bound):
            return self.shift + det, self.shift + det
        floor = min(x for x in (det, bound) if x is not None)
        return None, self.shift + floor

    def valuation(self) -> int:
        v, _ = self._val_parts()
        if v is None:
            raise IndeterminateValuation(
                "element has no resolvable valuation at current precision"
            )
        return v

    def val_floor(self) -> int:
        """A guaranteed lower bound on the valuation."""
        v, floor = self._val_parts()
        return floor

    def precision(self) -> int:
        """Absolute v0-precision: the element is known modulo pi0^prec."""
        e0 = self.field.e0
        return self.shift + min(e0 * c.prec + i for i, c in enumerate(self.coeffs))

    def is_zero(self) -> bool:
        """True when indistinguishable from zero at current precision."""
        return all(c.digits == 0 for c in self.coeffs)

    def is_pristine_zero(self) -> bool:
        """Zero with no precision loss (a structural zero): safe to drop
        from products without weakening any precision bound that the
        surrounding computation could ever assert against."""
        return self.shift >= 0 and all(
            c.digits == 0 and c.prec >= self.field.prec_digits for c in self.coeffs
        )

    # -- arithmetic ---------------------------------------------------

    def _coerce(self, other):
        if isinstance(other, int):
            return self.field.from_int(other)
        if isinstance(other, PadicInt):
            return self.field.scalar(other)
        return other

    def _raised(self, t: int) -> tuple:
        """Coefficients of self rewritten with shift lowered by t >= 0."""
        if t == 0:
            return self.coeffs
        field = self.field
        e0 = field.e0
        q, r = divmod(t, e0)
        coeffs = self.coeffs
        if q:
            f = field._p_unit**q
            coeffs = tuple(c * f for c in coeffs)
        if r:
            pu = field._p_unit
            coeffs = tuple(
                coeffs[i - r] if i >= r else coeffs[e0 + i - r] * pu
                for i in range(e0)
            )
        return coeffs

    def __add__(self, other):
        other = self._coerce(other)
        if not isinstance(other, RefK0Element):
            return NotImplemented
        if other.field is not self.field:
            raise ValueError("elements of different base fields")
        s = min(self.shift, other.shift)
        a = self._raised(self.shift - s)
        b = other._raised(other.shift - s)
        return RefK0Element.make(self.field, s, tuple(x + y for x, y in zip(a, b)))

    __radd__ = __add__

    def __neg__(self):
        return RefK0Element(self.field, self.shift, tuple(-c for c in self.coeffs))

    def __sub__(self, other):
        other = self._coerce(other)
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        other = self._coerce(other)
        if not isinstance(other, RefK0Element):
            return NotImplemented
        field = self.field
        if other.field is not field:
            raise ValueError("elements of different base fields")
        e0 = field.e0
        a = self.coeffs
        b = other.coeffs
        conv = [None] * (2 * e0 - 1)
        for i, ca in enumerate(a):
            for j, cb in enumerate(b):
                t = ca * cb
                k = i + j
                conv[k] = t if conv[k] is None else conv[k] + t
        pu = field._p_unit
        out = list(conv[:e0])
        for k in range(e0, 2 * e0 - 1):
            out[k - e0] = out[k - e0] + conv[k] * pu
        return RefK0Element.make(field, self.shift + other.shift, tuple(out))

    __rmul__ = __mul__

    def __pow__(self, n: int):
        if n < 0:
            return self.inverse() ** (-n)
        result = self.field.one()
        base = self
        while n:
            if n & 1:
                result = result * base
            n >>= 1
            if n:
                base = base * base
        return result

    def inverse(self) -> "RefK0Element":
        if self.is_zero():
            raise DivisionByIndeterminateZero(
                "inverse of an element indistinguishable from zero"
            )
        self.valuation()  # raises IndeterminateValuation when ambiguous
        field = self.field
        # canonical form means the polynomial part is a unit of O0 with
        # unit constant coefficient
        u = RefK0Element(field, 0, self.coeffs)
        z = field.scalar(self.coeffs[0].unit_inverse())
        one = field.one()
        r = one - u * z
        for _ in range(64):
            if r.is_zero():
                inv = RefK0Element.make(field, z.shift - self.shift, z.coeffs)
                return inv
            z = z + z * r
            r = one - u * z
        raise PrecisionExhausted("unit inversion did not stabilize")

    def __truediv__(self, other):
        other = self._coerce(other)
        return self * other.inverse()

    def __rtruediv__(self, other):
        return self._coerce(other) * self.inverse()

    def __eq__(self, other):
        if isinstance(other, (int, PadicInt)):
            other = self._coerce(other)
        if not isinstance(other, RefK0Element):
            return NotImplemented
        return (self - other).is_zero()

    __hash__ = None

    def __repr__(self):
        terms = []
        for i, c in enumerate(self.coeffs):
            if c.digits:
                terms.append(f"{c.digits}*pi0^{i + self.shift}")
        body = " + ".join(terms) if terms else "0"
        return f"RefK0Element({body} + O(pi0^{self.precision()}))"
