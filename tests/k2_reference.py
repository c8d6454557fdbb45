"""K2 products and K0-linear combinations as they were before they
became fused K0 sums of products: every term one ``K0Element.__mul__``
and every coefficient a left fold of K0 additions.  ``mul`` is the old
``K2Element.__mul__``, ``apply`` the old ``Automorphism.apply``, on
the same power table (``power_table``), and ``on_orbit`` the old
``GroupRingElement.on_orbit``, kept verbatim as the reference for
``test_k2_differential.py``.  ``y_coefficients`` and
``from_y_grid`` are the two basis changes as they were before they
shared one substitution helper: each ran its own Horner loop over
``_shift_second``, which negated mu * c after the product for the
change back to the x-basis.  ``y_stats`` is the old
``K2Element._y_stats``, the valuation statistics read off
``y_coefficients``: the reference for the packed lane in
``test_stats_lane.py``.
"""

from __future__ import annotations

from wittscaffold.padic import K0Element
from wittscaffold.tower import K2Element


def _acc(tmp, i, j, val):
    tmp[i][j] = val if tmp[i][j] is None else tmp[i][j] + val


def _fill(ext, rows):
    z = ext._zero
    return [[c if c is not None else z for c in row] for row in rows]


def mul(self, other):
    if isinstance(other, (int, K0Element)):
        return self.scale(other)
    if not isinstance(other, K2Element):
        return NotImplemented
    ext = self.ext
    if other.ext is not ext:
        raise ValueError("elements of different extensions")
    p = ext.p
    wide = 3 * p - 2
    tmp = [[None] * (2 * p - 1) for _ in range(wide)]
    for i in range(p):
        for j in range(p):
            ca = self.rows[i][j]
            if ca.is_pristine_zero():
                continue
            for k in range(p):
                for l in range(p):
                    cb = other.rows[k][l]
                    if cb.is_pristine_zero():
                        continue
                    _acc(tmp, i + k, j + l, ca * cb)
    # reduce x2 powers: x2^(p+t) = x2^(t+1) + (a2 + D(x1,a1)) * x2^t
    for j in range(2 * p - 2, p - 1, -1):
        for i in range(wide):
            c = tmp[i][j]
            if c is None:
                continue
            tmp[i][j] = None
            _acc(tmp, i, j - p + 1, c)
            for k, rk in enumerate(ext.x2_rel):
                _acc(tmp, i + k, j - p, c * rk)
    # reduce x1 powers: x1^(p+t) = x1^(t+1) + a1 * x1^t
    for i in range(wide - 1, p - 1, -1):
        for j in range(p):
            c = tmp[i][j]
            if c is None:
                continue
            tmp[i][j] = None
            _acc(tmp, i - p + 1, j, c)
            _acc(tmp, i - p, j, c * ext.a1)
    return K2Element(ext, _fill(ext, [row[:p] for row in tmp[:p]]))


def power_table(self):
    """Grid of image_x1^i * image_x2^j for 0 <= i, j < p, built as
    ``Automorphism.apply`` builds its basis images."""
    p = self.ext.p
    apow = [self.image_x1]
    bpow = [self.ext.one(), self.image_x2]
    for _ in range(p - 2):
        apow.append(apow[-1] * self.image_x1)
        bpow.append(bpow[-1] * self.image_x2)
    return [bpow] + [[a] + [a * b for b in bpow[1:]] for a in apow]


def apply(self, x: K2Element) -> K2Element:
    """Image of x: substitute the generator images into its monomial
    expansion.  K0 coefficients pass through unchanged."""
    table = power_table(self)
    acc = None
    for i, row in enumerate(x.rows):
        for j, c in enumerate(row):
            if c.is_pristine_zero():
                continue
            term = table[i][j].scale(c)
            acc = term if acc is None else acc + term
    return acc if acc is not None else self.ext.zero()


def on_orbit(self, image) -> K2Element:
    """sum_k c_k T^k x, with T^k x read from ``image = orbit(x)``."""
    acc = None
    for k, c in self.coeffs.items():
        term = image(k).scale(c)
        acc = term if acc is None else acc + term
    return acc if acc is not None else self.sigma1.ext.zero()


def _shift_second(ext, rows, mu, negate_mu):
    """Multiply a p x p grid (entries may be None) by (T + s*mu*x1) where
    T is the second basis generator of the grid and s = -1 when
    ``negate_mu``.  Used by the triangular basis changes in both
    directions; the x1 overflow folds through x1^p = x1 + a1."""
    p = ext.p
    out = [[None] * p for _ in range(p)]
    for i in range(p):
        for l in range(p):
            c = rows[i][l]
            if c is None:
                continue
            _acc(out, i, l + 1, c)
            cm = c * mu
            if negate_mu:
                cm = -cm
            if i + 1 < p:
                _acc(out, i + 1, l, cm)
            else:
                _acc(out, 1, l, cm)
                _acc(out, 0, l, cm * ext.a1)
    return out


def y_coefficients(self):
    """Coefficients on the x1^i y2^j basis (p x p grid of K0Element)."""
    ext = self.ext
    p = ext.p
    rows = None
    for j in reversed(range(p)):
        if rows is not None:
            rows = _shift_second(ext, rows, ext.mu, negate_mu=False)
        else:
            rows = [[None] * p for _ in range(p)]
        for i in range(p):
            c = self.rows[i][j]
            rows[i][0] = c if rows[i][0] is None else rows[i][0] + c
    return tuple(tuple(r) for r in _fill(ext, rows))


def from_y_grid(ext, grid) -> K2Element:
    """Convert a grid of coefficients on the x1^i y2^j basis, entries
    None meaning zero, into an element (x-basis)."""
    p = ext.p
    mu = ext.mu
    rows = None
    for l in reversed(range(p)):
        if rows is not None:
            rows = _shift_second(ext, rows, mu, negate_mu=True)
        else:
            rows = [[None] * p for _ in range(p)]
        for i in range(p):
            c = grid[i][l]
            if c is not None:
                rows[i][0] = c if rows[i][0] is None else rows[i][0] + c
    return K2Element(ext, _fill(ext, rows))


def y_stats(x):
    """(exact valuation or None, bound on the undetermined terms,
    absolute precision) of x, term by term over its y-coefficients."""
    ext = x.ext
    p2 = ext.p**2
    pb1 = ext.p * ext.b1
    det = None
    bound = None
    prec = None
    for i, row in enumerate(x.y_coefficients()):
        for j, c in enumerate(row):
            mono = -i * pb1 - j * ext.b2
            # the shift: the valuation of a nonzero c, the precision
            # of a zero one
            cand = p2 * c.shift + mono
            if c.digits[0]:
                if det is None or cand < det:
                    det = cand
            elif bound is None or cand < bound:
                bound = cand
            pr = p2 * c.precision() + mono
            if prec is None or pr < prec:
                prec = pr
    return det, bound, prec
