"""Witt vectors of length 2 over an arbitrary coefficient ring.

The coefficient ring is anything whose elements support ``+``, ``-``,
``*`` (including scaling by plain ints) and ``**`` with small nonnegative
integer exponents: Python ints, ``K0Element`` and ``K2Element`` all
qualify.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb
from typing import Any


def d_poly(x, y, p: int):
    """The carry polynomial D(X,Y) = (X^p + Y^p - (X+Y)^p) / p.

    Evaluated as -sum_{i=1}^{p-1} (C(p,i)/p) X^(p-i) Y^i; the quotients
    C(p,i)/p are exact integers, so no ring division by p is needed.
    """
    acc = None
    for i in range(1, p):
        term = x ** (p - i) * y**i * (comb(p, i) // p)
        acc = term if acc is None else acc + term
    return -acc


@dataclass(frozen=True)
class WittVector2:
    """A length-2 Witt vector (first, second) over a coefficient ring."""

    first: Any
    second: Any
    p: int

    def __add__(self, other: "WittVector2") -> "WittVector2":
        if other.p != self.p:
            raise ValueError("mixed primes")
        return WittVector2(
            self.first + other.first,
            self.second + other.second + d_poly(self.first, other.first, self.p),
            self.p,
        )

    def __neg__(self) -> "WittVector2":
        n1 = -self.first
        return WittVector2(n1, -self.second - d_poly(self.first, n1, self.p), self.p)

    def __sub__(self, other: "WittVector2") -> "WittVector2":
        return self + (-other)

    def frobenius(self) -> "WittVector2":
        """Coordinatewise p-th power."""
        return WittVector2(self.first**self.p, self.second**self.p, self.p)

    def artin_schreier(self) -> "WittVector2":
        """Frobenius minus identity (Witt vector subtraction)."""
        return self.frobenius() - self

