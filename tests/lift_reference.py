"""The Hensel lift as it was before its Newton steps were trimmed: each
step recomputes t^(p-1) for the derivative after t^p for the residual,
inverts the derivative from the inverse of its constant y-coefficient,
and powers start from a product by one.  ``power`` is the old
``K2Element.__pow__``; ``hensel_lift`` and ``_invert_unit`` are the old
functions of ``wittscaffold.tower``.  All three are kept verbatim as the
reference for ``test_lift_differential.py``, which runs ``hensel_lift``
with ``power`` installed as ``K2Element.__pow__``.

``compute_sigma2_direct`` is sigma2 as the build made it before it took
sigma1^p: a third lift, by the package's ``tower.hensel_lift``, of the
x2 relation from the seed x2 + 1, with the same checks.  The tests
compare the build's sigma2 with it.
"""

from __future__ import annotations

from wittscaffold import tower
from wittscaffold.errors import InvariantViolation, NoConvergence, PrecisionExhausted
from wittscaffold.galois import Automorphism, verify_automorphism
from wittscaffold.tower import ExtensionDesc, K2Element
from wittscaffold.witt import d_poly


def compute_sigma2_direct(ext: ExtensionDesc) -> Automorphism:
    """The generator of the subgroup fixing K1, lifted directly and
    verified: x1 is fixed, x2 goes to x2 + 1 + delta."""
    p = ext.p
    x1 = ext.x1()
    x2 = ext.x2()
    a1 = ext.from_k0(ext.a1)
    a2 = ext.from_k0(ext.a2)
    image_x2, _ = tower.hensel_lift(a2 + d_poly(x1, a1, p), x2 + 1)
    auto = Automorphism(ext, x1, image_x2)
    delta_floor = (image_x2 - x2 - 1).val_floor()
    bound = p**2 * ext.base.e0 + (p - 1) * p * ext.a2.valuation()
    if delta_floor < bound:
        raise InvariantViolation(
            f"v2(delta) = {delta_floor} below the bound {bound}"
        )
    verify_automorphism(auto)
    return auto


def power(self, n: int):
    if n < 0:
        raise ValueError("negative powers not supported on K2Element")
    result = self.ext.one()
    base = self
    while n:
        if n & 1:
            result = result * base
        n >>= 1
        if n:
            base = base * base
    return result


def hensel_lift(c: K2Element, t0: K2Element, trace: list | None = None,
                target: int | None = None) -> K2Element:
    """Newton-iterate f(X) = X^p - X - c to a root from the seed t0.

    Requires v2(f(t0)) > 0 and f'(t0) a unit; the residual valuation at
    least doubles per step, and iteration stops once the residual is
    beyond ``target`` (the extension's padded lift target by default).
    """
    ext = c.ext
    p = ext.p
    if target is None:
        target = ext.lift_target
    t = t0

    def residual(tt):
        return tt**p - tt - c

    f = residual(t)
    last = None
    for _ in range(128):
        det, bound, prec = f._stats()
        if det is not None and (bound is None or det < bound):
            rv = det
            if rv <= 0:
                raise NoConvergence(f"residual valuation {rv} is not positive")
            if trace is not None:
                trace.append(rv)
            if rv >= target:
                return t
        else:
            rv = min(x for x in (det, bound) if x is not None)
            if trace is not None:
                trace.append(rv)
            if rv >= target:
                return t
            raise PrecisionExhausted(
                f"residual vanishes at precision {rv} < target {target}"
            )
        if last is not None and rv <= last:
            raise NoConvergence("residual valuation stopped increasing")
        last = rv
        fp = t ** (p - 1) * p - ext.one()
        if fp.valuation() != 0:
            raise NoConvergence("derivative is not a unit at the iterate")
        t = t - f * _invert_unit(fp)
        f = residual(t)
    raise NoConvergence("iteration budget exhausted")


def _invert_unit(x: K2Element) -> K2Element:
    """Inverse of a v2-valuation-zero element by Newton iteration."""
    ext = x.ext
    if x.valuation() != 0:
        raise ValueError("only unit inversion is supported in K2")
    y00 = x.y_coefficients()[0][0]
    z = ext.from_k0(y00.inverse())
    one = ext.one()
    r = one - x * z
    for step in range(64):
        if r.is_zero():
            # the seed 1/y00 sees one coefficient of x only; a Newton
            # step caps it at the precision of all of x, as later
            # iterates already are
            return z + z * r if step == 0 else z
        z = z + z * r
        r = one - x * z
    raise PrecisionExhausted("unit inversion did not stabilize")
