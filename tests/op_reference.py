"""The scaffold operators as they were before they became group-ring
elements: a formal K0[G] expression tree, evaluated structurally on K2
elements.  Kept verbatim as the reference for the differential test in
``test_op_differential.py``.
"""

from __future__ import annotations

from wittscaffold.galois import Automorphism, k0_binomial
from wittscaffold.padic import K0Element
from wittscaffold.tower import ExtensionDesc, K2Element


class GroupAlgebraOp:
    """A formal K0[G] element, evaluated structurally on K2 elements."""

    def __call__(self, x: K2Element) -> K2Element:
        raise NotImplementedError

    def __add__(self, other):
        return OpSum((self, other))

    def __sub__(self, other):
        return OpSum((self, OpScale(-1, other)))

    def __rmul__(self, c):
        return OpScale(c, self)

    def __matmul__(self, other):
        return OpCompose(self, other)

    def __pow__(self, n: int):
        return OpPower(self, n)


class OpIdentity(GroupAlgebraOp):
    def __call__(self, x):
        return x


class OpZero(GroupAlgebraOp):
    def __call__(self, x):
        return x.ext.zero()


class OpAuto(GroupAlgebraOp):
    def __init__(self, auto: Automorphism):
        self.auto = auto

    def __call__(self, x):
        return self.auto.apply(x)


class OpScale(GroupAlgebraOp):
    def __init__(self, c, inner: GroupAlgebraOp):
        self.c = c
        self.inner = inner

    def __call__(self, x):
        return self.inner(x).scale(self.c)


class OpSum(GroupAlgebraOp):
    def __init__(self, terms):
        self.terms = tuple(terms)

    def __call__(self, x):
        acc = None
        for t in self.terms:
            v = t(x)
            acc = v if acc is None else acc + v
        return acc


class OpCompose(GroupAlgebraOp):
    def __init__(self, outer: GroupAlgebraOp, inner: GroupAlgebraOp):
        self.outer = outer
        self.inner = inner

    def __call__(self, x):
        return self.outer(self.inner(x))


class OpPower(GroupAlgebraOp):
    def __init__(self, inner: GroupAlgebraOp, n: int):
        if n < 0:
            raise ValueError("operator powers must be nonnegative")
        self.inner = inner
        self.n = n

    def __call__(self, x):
        for _ in range(self.n):
            x = self.inner(x)
        return x


def truncated_exp(base_auto: Automorphism, y: K0Element) -> GroupAlgebraOp:
    """Truncated exponentiation (1 + (auto - 1))^[y]: the binomial series
    sum_{i<p} C(y,i) (auto - 1)^i."""
    p = base_auto.ext.p
    delta = OpAuto(base_auto) - OpIdentity()
    terms = [OpIdentity()]
    for i in range(1, p):
        terms.append(OpScale(k0_binomial(y, i), OpPower(delta, i)))
    return OpSum(terms)


def psi_operators(ext: ExtensionDesc, sigma1: Automorphism,
                  sigma2: Automorphism) -> tuple[GroupAlgebraOp, GroupAlgebraOp]:
    """The scaffold operators: psi1 + 1 = sigma1 * sigma2^[mu] and
    psi2 = sigma2 - 1.  Both kill K0 constants."""
    psi1 = OpCompose(OpAuto(sigma1), truncated_exp(sigma2, ext.mu)) - OpIdentity()
    psi2 = OpAuto(sigma2) - OpIdentity()
    return psi1, psi2


def psi_power(a: int, psi1: GroupAlgebraOp, psi2: GroupAlgebraOp,
              p: int) -> GroupAlgebraOp:
    """The operator word psi2^(a1) psi1^(a0) indexed by the base-p digits
    of a; the zero operator for a >= p^2."""
    if a < 0:
        raise ValueError("index must be nonnegative")
    if a >= p * p:
        return OpZero()
    a0, a1 = a % p, a // p
    return OpCompose(OpPower(psi2, a1), OpPower(psi1, a0))
