"""The two-step tower K2 = K0(x1, x2) with exact valuation.

Elements are stored on the multiplication-friendly monomial basis
x1^i x2^j (0 <= i, j < p) with K0 coefficients; products reduce through
the defining relations

    x1^p = x1 + a1,        x2^p = x2 + a2 + D(x1, a1).

Valuations are read off on the valuation-friendly basis x1^i y2^j where
y2 = x2 - mu*x1: the monomial valuations -i*p*b1 - j*b2 are pairwise
distinct modulo p^2 (b2 = b1 mod p^2 and gcd(b1, p) = 1), so the minimum
over terms is exact.  The two bases are exchanged by one triangular
substitution, ``_substitute_second``: T -> T + m*x1 with m = mu
(x2 = y2 + mu*x1) or m = -mu (y2 = x2 - mu*x1).  The same fact names
the monomial of each valuation residue (``scaffold_index``), and one
rule (``K2Element._resolved``) says when the minimum is exact.

A valuation, valuation floor or precision needs only the valuations and
precisions of the y-coefficients, and ``_packed_stats`` reads them
without building a K0 element: the same Horner rule on the coefficients
packed into integers at one base, where T moves a column and the
monomials mu and a1 multiply by a digit and shift slots, and on the
precisions alone.  Its precisions are the term-by-term ones because mu
and a1 are monomials (``ExtensionDesc`` rejects any other) and no
nonzero coefficient is known to more relative digits than they are:
the exact config monomials are known to the field's full relative
precision, which no sum, product or inverse exceeds.  A coefficient
that does is an ``InvariantViolation``.
"""

from __future__ import annotations

from math import comb
from operator import add

from .errors import (
    IndeterminateValuation,
    InvariantViolation,
    NoConvergence,
    PrecisionExhausted,
)
from .padic import BaseField, K0Element, _least_term, _pack, dots


class ExtensionDesc:
    """Parameters of a cyclic degree-p^2 extension built from a length-2
    Witt vector (a1, a2) with a2 = mu^p * a1.

    Carries the break numbers b1 = -v0(a1), m = -v0(mu), b2 = p^2*m + b1
    and the reduction data shared by all K2 elements.  Construction
    checks the structural identities, a1 and mu being monomials
    c * pi0^k among them, but not the analytic parameter bounds; see
    :mod:`wittscaffold.construction` for those.
    """

    __slots__ = (
        "base",
        "a1",
        "mu",
        "a2",
        "b1",
        "m",
        "b2",
        "target_v2",
        "lift_target",
        "x2_rel",
        "_zero",
        "_one",
        "_lane",
        "_monomials",
    )

    def __init__(self, base: BaseField, a1: K0Element, mu: K0Element,
                 target_v2: int):
        p = base.p
        self.base = base
        self.a1 = a1
        self.mu = mu
        self.a2 = mu**p * a1
        self.b1 = -a1.valuation()
        self.m = -mu.valuation()
        if self.b1 <= 0:
            raise InvariantViolation("a1 must have negative valuation")
        if self.m <= 0:
            raise InvariantViolation("mu must have negative valuation")
        if self.b1 % p == 0:
            raise InvariantViolation("p must not divide v0(a1)")
        if any(c.digits.count(0) != base.e0 - 1 for c in (a1, mu)):
            raise InvariantViolation("a1 and mu must be monomials c * pi0^k")
        self.b2 = p * p * self.m + self.b1
        self.target_v2 = target_v2
        # roots are lifted beyond the working target so that operator
        # identities still hold at the target on elements of deeply
        # negative valuation
        self.lift_target = self.target_v2 + 2 * p * p * base.e0
        # coefficients of a2 + D(x1, a1) as a polynomial in x1
        rel = [self.a2]
        for k in range(1, p):
            rel.append(a1 ** (p - k) * (-(comb(p, k) // p)))
        self.x2_rel = tuple(rel)
        self._zero = base.zero()
        self._one = base.one()
        self._lane = _lane_constants(self)
        self._monomials = {}

    @property
    def p(self) -> int:
        return self.base.p

    def degree(self) -> int:
        return self.p * self.p

    # -- element factories ---------------------------------------------

    def zero(self) -> "K2Element":
        return self.from_k0(self._zero)

    def one(self) -> "K2Element":
        return self.from_k0(self._one)

    def from_k0(self, c: K0Element) -> "K2Element":
        rows = self._empty_rows()
        rows[0][0] = c
        return K2Element(self, rows)

    def from_int(self, n: int) -> "K2Element":
        return self.from_k0(self.base.from_int(n))

    def x1(self) -> "K2Element":
        rows = self._empty_rows()
        rows[1][0] = self._one
        return K2Element(self, rows)

    def x2(self) -> "K2Element":
        rows = self._empty_rows()
        rows[0][1] = self._one
        return K2Element(self, rows)

    def y2(self) -> "K2Element":
        return self.x2() - self.from_k0(self.mu) * self.x1()

    def pi0(self, k: int = 1) -> "K2Element":
        return self.from_k0(self.base.pi0(k))

    def monomial(self, k: int, i: int, j: int) -> "K2Element":
        """pi0^k * x1^i * y2^j, given on the y-basis.  Built once per
        extension: elements are immutable and their caches depend only
        on their value, so every caller can share one."""
        key = (k, i, j)
        x = self._monomials.get(key)
        if x is None:
            grid = [[None] * self.p for _ in range(self.p)]
            grid[i][j] = self.base.pi0(k)
            x = self._monomials[key] = K2Element.from_y_grid(self, grid)
        return x

    def monomial_valuation(self, k: int, i: int, j: int) -> int:
        return self.p**2 * k - i * self.p * self.b1 - j * self.b2

    def _empty_rows(self):
        return [[self._zero] * self.p for _ in range(self.p)]

    def __repr__(self):
        return (f"ExtensionDesc(p={self.p}, e0={self.base.e0}, "
                f"b1={self.b1}, m={self.m}, b2={self.b2})")


class K2Element:
    """An element of K2 on the x1^i x2^j basis with K0 coefficients."""

    __slots__ = ("ext", "rows", "_scache")

    def __init__(self, ext: ExtensionDesc, rows):
        self.ext = ext
        self.rows = tuple(tuple(r) for r in rows)
        self._scache = None

    @classmethod
    def combination(cls, ext: ExtensionDesc, terms) -> "K2Element":
        """sum_k c_k * y_k for pairs (c_k, y_k) of a K0 scalar and an
        element, as one fused K0 sum of products per coefficient."""
        if not terms:
            return ext.zero()
        p = ext.p
        sums = dots([[(c, y.rows[i][j]) for c, y in terms]
                     for i in range(p) for j in range(p)])
        return cls(ext, [sums[i * p:(i + 1) * p] for i in range(p)])

    @classmethod
    def from_y_grid(cls, ext: ExtensionDesc, grid) -> "K2Element":
        """Convert a grid of coefficients on the x1^i y2^j basis, entries
        None meaning zero, into an element (x-basis)."""
        return cls(ext, _substitute_second(ext, grid, -ext.mu))

    # -- linear structure ------------------------------------------------

    def _combine(self, other, op):
        """op(self, other) coefficientwise, op a K0 addition or
        subtraction."""
        other = self._coerce(other)
        if not isinstance(other, K2Element):
            return NotImplemented
        if other.ext is not self.ext:
            raise ValueError("elements of different extensions")
        return K2Element(self.ext, [list(map(op, ra, rb))
                                    for ra, rb in zip(self.rows, other.rows)])

    def __add__(self, other):
        return self._combine(other, K0Element.__add__)

    __radd__ = __add__

    def __neg__(self):
        return K2Element(self.ext, [[-c for c in r] for r in self.rows])

    def __sub__(self, other):
        return self._combine(other, K0Element.__sub__)

    def __rsub__(self, other):
        return self._combine(other, _rsub)

    def scale(self, c) -> "K2Element":
        """Multiply by a K0 scalar (or int) coefficientwise."""
        if isinstance(c, int):
            c = self.ext.base.from_int(c)
        return K2Element(self.ext, [[c * x for x in r] for r in self.rows])

    def _coerce(self, other):
        if isinstance(other, int):
            return self.ext.from_int(other)
        if isinstance(other, K0Element):
            return self.ext.from_k0(other)
        return other

    # -- multiplication ----------------------------------------------

    def __mul__(self, other):
        if isinstance(other, (int, K0Element)):
            return self.scale(other)
        if not isinstance(other, K2Element):
            return NotImplemented
        ext = self.ext
        if other.ext is not ext:
            raise ValueError("elements of different extensions")
        p = ext.p
        wide = 3 * p - 2
        # the K0 terms of the coefficient of x1^i x2^j from the schoolbook
        # product and the two reductions
        terms = [[[] for _ in range(2 * p - 1)] for _ in range(wide)]
        right = [(k, l, cb) for k, row in enumerate(other.rows)
                 for l, cb in enumerate(row) if not cb.is_pristine_zero()]
        for i, row in enumerate(self.rows):
            for j, ca in enumerate(row):
                if ca.is_pristine_zero():
                    continue
                for k, l, cb in right:
                    terms[i + k][j + l].append((ca, cb))

        def settle(cells):
            cells = [(i, j) for i, j in cells if terms[i][j]]
            return dict(zip(cells, dots([terms[i][j] for i, j in cells])))

        # four batches, each settled before it is reduced: no reduction
        # feeds a coefficient of its own or an earlier batch.
        # x2^(p+t) = x2^(t+1) + (a2 + D(x1,a1)) * x2^t
        high = settle([(i, j) for j in range(2 * p - 2, p - 1, -1)
                       for i in range(wide)])
        for (i, j), c in high.items():
            terms[i][j - p + 1].append((c, None))
            for k, rk in enumerate(ext.x2_rel):
                terms[i + k][j - p].append((c, rk))
        # x1^(p+t) = x1^(t+1) + a1 * x1^t: rows 2p-1..3p-3 feed rows
        # p-1..2p-2, and rows p..2p-2 feed rows 0..p-1
        for top, bottom in ((wide - 1, 2 * p - 1), (2 * p - 2, p)):
            batch = settle([(i, j) for i in range(top, bottom - 1, -1)
                            for j in range(p)])
            for (i, j), c in batch.items():
                terms[i - p + 1][j].append((c, None))
                terms[i - p][j].append((c, ext.a1))
        low = settle([(i, j) for i in range(p) for j in range(p)])
        zero = ext._zero
        return K2Element(ext, [[low.get((i, j), zero) for j in range(p)]
                               for i in range(p)])

    __rmul__ = __mul__

    def __pow__(self, n: int):
        if n < 0:
            raise ValueError("negative powers not supported on K2Element")
        if n == 0:
            return self.ext.one()
        # square-and-multiply from the lowest set bit, with no product by
        # one: each factor's digits and precisions pass through unchanged
        result = None
        base = self
        while True:
            if n & 1:
                result = base if result is None else result * base
            n >>= 1
            if not n:
                return result
            base = base * base

    # -- valuation and precision --------------------------------------

    def y_coefficients(self):
        """Coefficients on the x1^i y2^j basis (p x p grid of K0Element)."""
        return tuple(map(tuple, _substitute_second(
            self.ext, self.rows, self.ext.mu)))

    def _stats(self):
        """(exact valuation or None, bound on the undetermined terms,
        absolute precision) from ``_packed_stats``, computed once per
        element."""
        if self._scache is None:
            self._scache = _packed_stats(self)
        return self._scache

    def _resolved(self) -> tuple[int, bool]:
        """(floor, exact): a lower bound on the valuation, and whether it
        is the valuation itself, which holds when the least determined
        term lies below every undetermined one."""
        det, bound, _ = self._stats()
        if det is not None and (bound is None or det < bound):
            return det, True
        return min(x for x in (det, bound) if x is not None), False

    def valuation(self) -> int:
        floor, exact = self._resolved()
        if exact:
            return floor
        raise IndeterminateValuation(
            "element has no resolvable valuation at current precision"
        )

    def val_floor(self) -> int:
        return self._resolved()[0]

    def precision(self) -> int:
        """Absolute v2-precision of the element."""
        _, _, prec = self._stats()
        return prec

    def is_zero(self) -> bool:
        return all(c.is_zero() for row in self.rows for c in row)

    def vanishes(self) -> bool:
        """True when the value provably sits at or above the working
        target; an element whose digits all vanish still only counts up
        to its tracked precision."""
        return self.val_floor() >= self.ext.target_v2

    def __eq__(self, other):
        other = self._coerce(other)
        if not isinstance(other, K2Element):
            return NotImplemented
        return (self - other).is_zero()

    __hash__ = None

    def __repr__(self):
        terms = []
        for i, row in enumerate(self.rows):
            for j, c in enumerate(row):
                if not c.is_zero():
                    terms.append(f"({c!r})*x1^{i}*x2^{j}")
        return "K2Element(" + (" + ".join(terms) if terms else "0") + ")"


def _substitute_second(ext: ExtensionDesc, grid, m: K0Element):
    """The coefficients of sum_{i,j} grid[i][j] x1^i (T + m*x1)^j on the
    basis x1^i T^j, as a p x p list of rows; entries of ``grid`` may be
    None, meaning zero.

    Horner's rule in T: multiply the partial sum by T + m*x1, folding
    the x1 overflow through x1^p = x1 + a1, then add the next column."""
    p = ext.p
    a1 = ext.a1
    rows = [[None] * p for _ in range(p)]

    def add(i, j, c):
        rows[i][j] = c if rows[i][j] is None else rows[i][j] + c

    for j in reversed(range(p)):
        if j < p - 1:
            prev, rows = rows, [[None] * p for _ in range(p)]
            for i in range(p):
                for l in range(p):
                    c = prev[i][l]
                    if c is None:
                        continue
                    add(i, l + 1, c)
                    cm = c * m
                    if i + 1 < p:
                        add(i + 1, l, cm)
                    else:
                        add(1, l, cm)
                        add(0, l, cm * a1)
        for i in range(p):
            c = grid[i][j]
            if c is not None:
                add(i, 0, c)
    zero = ext._zero
    return [[zero if c is None else c for c in row] for row in rows]


def _rsub(a: K0Element, b: K0Element) -> K0Element:
    return b - a


def _lane_constants(ext: ExtensionDesc):
    """What ``_packed_stats`` reads of mu and a1, which it needs as
    monomials c * pi0^v: (c_mu, -v(mu), c_a1, -v(a1), the lesser of
    their relative precisions, the bit length of a bound on the number
    and multipliers of the Horner paths into one coefficient).  v(mu)
    and v(a1) are negative."""
    mu, a1 = ext.mu, ext.a1
    p = ext.p
    cmu, ca1 = mu.digits[0], a1.digits[0]
    # a coefficient of column j meets j factors T + mu*x1, and each x1
    # overflow adds a second path through a1: at most 3^(p-1) paths from
    # each of the p^2 coefficients, each multiplying by at most
    # (c_mu*c_a1)^(p-1); with the factor 2, p^q bounds the
    # fold of q blocks of e0 slots in ``_slot_valuation``
    paths = 2 * p * p * 3 ** (p - 1) * (cmu * ca1) ** (p - 1)
    return (cmu, -mu.shift, ca1, -a1.shift,
            min(mu.absprec - mu.shift, a1.absprec - a1.shift),
            paths.bit_length())


def _packed_stats(x: K2Element):
    """(exact valuation or None, bound on the undetermined terms,
    absolute precision) of x, from its coefficients on the x1^i y2^j
    basis, without a K0 element: the Horner rule of
    ``_substitute_second(ext, x.rows, mu)`` on packed integers for the
    values and on precisions alone for the precisions.

    Every nonzero coefficient is packed at one base B, the least shift
    plus the pi0 exponent (p-1)*(v(mu) + v(a1)) < 0 of the deepest
    Horner path, into slots of w bits, none of which can overflow.  A factor
    T moves a column, mu multiplies by c_mu and moves -v(mu) slots
    down, and the x1 overflow applies a1 the same way.  This packed
    value of a coefficient differs from the term-by-term one by
    multiples of pi0^N only.  Its valuation is B + k, k its lowest
    nonzero slot, when p does not divide that slot, since every other
    term lies higher; it is zero at precision N when B + k >= N.
    Otherwise ``_slot_valuation`` folds it through pi0^e0 = p
    and reads the e0 digits reduced modulo p^ceil((N - B - r)/e0).

    The precision N of a coefficient is the least N(x_ij) plus pi0
    exponent over the Horner paths.  That is the term-by-term precision
    because mu and a1 are monomials and no nonzero x_ij has a relative
    precision above theirs: a product with a monomial of larger relative
    precision m has precision N(c) + v(m), sums take the minimum, and
    neither raises the largest relative precision.  A nonzero x_ij
    known to more relative digits than mu or a1 raises
    ``InvariantViolation``.  A zero's statistics read its precision
    only."""
    ext = x.ext
    cmu, dmu, ca1, da1, relcap, pathbits = ext._lane
    field = ext.base
    e0 = field.e0
    p = ext.p
    lo = hi = None
    rel = 0
    for row in x.rows:
        for c in row:
            if c.digits[0]:
                s = c.shift
                r = c.absprec - s
                if r > relcap:
                    raise InvariantViolation(
                        f"a coefficient known to {r} relative pi0-digits, "
                        f"more than the {relcap} of mu and a1")
                if r > rel:
                    rel = r
                if lo is None or s < lo:
                    lo = s
                if hi is None or s > hi:
                    hi = s
    if lo is None:
        lo = hi = 0
    base = lo - (p - 1) * (dmu + da1)
    w = (pathbits + field._digit_moduli(rel)[0].bit_length()
         + (hi - base + e0 - 1) // e0 * p.bit_length())
    smu = w * dmu
    sa1 = w * da1
    # one column of the partial sum at a time: packed values and
    # precisions of its p rows
    vcols = ncols = None
    for j in range(p - 1, -1, -1):
        vg = []
        ng = []
        for row in x.rows:
            c = row[j]
            vg.append(_pack(c.digits, w) << (w * (c.shift - base))
                      if c.digits[0] else 0)
            ng.append(c.absprec)
        if vcols is None:
            vcols, ncols = [vg], [ng]
            continue
        # times T + mu*x1, with x1^p = x1 + a1, plus the next column
        vnew, nnew = [], []
        for vc, nc, va, na in zip(vcols, ncols, [vg] + vcols, [ng] + ncols):
            top = (vc[-1] * cmu) >> smu
            vm = [(top * ca1) >> sa1, ((vc[0] * cmu) >> smu) + top]
            vm += [(v * cmu) >> smu for v in vc[1:-1]]
            ntop = nc[-1] - dmu
            nm = [ntop - da1, min(nc[0] - dmu, ntop)]
            nm += [n - dmu for n in nc[1:-1]]
            vnew.append(list(map(add, vm, va)))
            nnew.append(list(map(min, nm, na)))
        vcols = vnew + [vcols[-1]]
        ncols = nnew + [ncols[-1]]
    p2 = p * p
    pb1 = p * ext.b1
    mask = (1 << w) - 1
    det = bound = prec = None
    for l, (vc, nc) in enumerate(zip(vcols, ncols)):
        for i, (z, n) in enumerate(zip(vc, nc)):
            mono = -i * pb1 - l * ext.b2
            cand = p2 * n + mono
            if prec is None or cand < prec:
                prec = cand
            t = None
            if z:
                k = ((z & -z).bit_length() - 1) // w
                if k < n - base:
                    if ((z >> (w * k)) & mask) % p:
                        t = k
                    else:
                        t = _slot_valuation(field, z, w, n - base)
            if t is None:
                if bound is None or cand < bound:
                    bound = cand
            else:
                cand = p2 * (base + t) + mono
                if det is None or cand < det:
                    det = cand
    return det, bound, prec


def _slot_valuation(field: BaseField, z: int, w: int, m: int):
    """The valuation of sum_k z_k pi0^k, z_k the w-bit slots of z, known
    to pi0^m, or None when it is zero there: the slots fold through
    pi0^e0 = p into e0 digits, which are reduced and read as
    ``K0Element.make`` reads them."""
    e0 = field.e0
    low = w * e0
    lowmask = (1 << low) - 1
    mask = (1 << w) - 1
    while z >> low:
        z = (z & lowmask) + field.p * (z >> low)
    return _least_term(field.p, e0, [((z >> (w * r)) & mask) % mod for r, mod
                                     in enumerate(field._digit_moduli(m))])


def scaffold_index(ext, t: int) -> int:
    """Residue index steering the shift law: the unique representative of
    -t * b2^(-1) in [0, p^2).  Its base-p digits are exactly the (j, i)
    exponents of the monomial pi0^k x1^i y2^j of valuation t, since
    b1 = b2 mod p^2.  Reads only ``ext.p`` and ``ext.b2``, so any
    record of the break numbers serves."""
    p2 = ext.p**2
    return (-t * pow(ext.b2, -1, p2)) % p2


def uniformizer_exponents(ext: ExtensionDesc, r: int) -> tuple[int, int, int]:
    """Exponents (k, i, j) of the unique monomial pi0^k x1^i y2^j with
    0 <= i, j < p and valuation exactly r."""
    p = ext.p
    i, j = divmod(scaffold_index(ext, r), p)
    return (r + i * p * ext.b1 + j * ext.b2) // (p * p), i, j


def scaffold_lambda(ext: ExtensionDesc, t: int) -> K2Element:
    """The monomial of valuation exactly t whose quotient by any other
    of the family with congruent index lies in K0."""
    return ext.monomial(*uniformizer_exponents(ext, t))


def hensel_lift(c: K2Element, t0: K2Element,
                trace: list | None = None) -> tuple[K2Element, K2Element]:
    """Newton-iterate f(X) = X^p - X - c to a root from the seed t0;
    returns (root, f(root)), the residual of the last step.

    Requires v2(f(t0)) > 0 and f'(t0) a unit; the residual valuation at
    least doubles per step, and iteration stops once the residual is
    beyond the extension's padded lift target.
    Each residual valuation is appended to ``trace`` when given.

    One step costs t^(p-1), shared by the residual t*t^(p-1) - t - c and
    the derivative p*t^(p-1) - 1, and an approximate inverse z of the
    derivative.  A step whose residual f has valuation rv only needs
    v2(1 - f'*z) >= min(lift target - rv, (p-1)*rv).  Expanding,

        f(t - f*z) = f*(1 - f'*z) + sum_{k=2..p} C(p,k) t^(p-k) (f*z)^k,

    and z is a unit, so the sum has the lower bound it has in exact
    Newton (z = 1/f'), at most p*rv, the valuation of its k = p term.
    At v2(1 - f'*z) >= (p-1)*rv the first term is at least p*rv, so the
    next residual keeps exact Newton's lower bound; at
    v2(1 - f'*z) >= lift target - rv the first term is beyond the lift
    target.  The iterates may then differ from exact Newton's, but the
    roots agree to the lift target: both have residuals beyond it, and
    f' is a unit, so Hensel uniqueness applies.  z is refined from the
    previous step's inverse: the derivatives of consecutive iterates
    differ by p times a multiple of the Newton correction, so the seed
    is already close and few inversion steps remain, often none.
    """
    ext = c.ext
    p = ext.p
    target = ext.lift_target
    one = ext.one()
    t = t0
    inv = None
    last = None
    for _ in range(128):
        tp = t ** (p - 1)
        f = t * tp - t - c
        rv, exact = f._resolved()
        if exact and rv <= 0:
            raise NoConvergence(f"residual valuation {rv} is not positive")
        if trace is not None:
            trace.append(rv)
        if rv >= target:
            return t, f
        if not exact:
            raise PrecisionExhausted(
                f"residual vanishes at precision {rv} < target {target}"
            )
        if last is not None and rv <= last:
            raise NoConvergence("residual valuation stopped increasing")
        last = rv
        fp = tp * p - one
        if fp.valuation() != 0:
            raise NoConvergence("derivative is not a unit at the iterate")
        inv = _invert_unit(fp, inv, min(target - rv, (p - 1) * rv))
        t = t - f * inv
    raise NoConvergence("iteration budget exhausted")


def _invert_unit(x: K2Element, z: K2Element | None, need: int) -> K2Element:
    """An approximate inverse z of a v2-valuation-zero element, with
    v2(1 - x*z) >= ``need``, by Newton iteration z <- z + z*(1 - x*z)
    from the approximate inverse ``z``, or from the inverse of x's
    constant y-coefficient when it is None.  A Hensel step asks only for
    what its own update uses (``hensel_lift``).

    The seed is returned unchanged when it already meets ``need``, even
    when it is known to more digits than x: only v2(1 - x*z) >= need is
    claimed, and that is read at the precision of x*z.  When 1 - x*z
    vanishes at its precision below ``need``, x is not known well enough
    for the claim, and ``PrecisionExhausted`` is raised.  A step leaves
    1 - x*z = r^2 exactly, so it returns z once 2*v2(r) >= need and r is
    known to ``need``.
    """
    ext = x.ext
    if x.valuation() != 0:
        raise ValueError("only unit inversion is supported in K2")
    if z is None:
        z = ext.from_k0(x.y_coefficients()[0][0].inverse())
    one = ext.one()
    for _ in range(64):
        r = one - x * z
        rv, exact = r._resolved()
        if rv >= need:
            return z
        if not exact:
            raise PrecisionExhausted(
                f"inverse known to {rv} < the {need} its step needs")
        z = z + z * r
        if 2 * rv >= need and r.precision() >= need:
            return z
    raise PrecisionExhausted("unit inversion did not stabilize")
