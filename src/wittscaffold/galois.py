"""Numerical realization of the cyclic Galois group of K2/K0.

The generator sigma1 is produced by Hensel-lifting the defining
Artin-Schreier equations from the seeds x1 + 1 and x2 + D(x1, 1); its
p-th power sigma2 fixes K1 and shifts x2 by 1 + (small).  Operators such as
the scaffold operators psi1, psi2 are elements sum_k c_k T^k of the
group ring K0[T]/(T^(p^2) - 1) with T = sigma1.  The scaffold is the
table of p^2 words in them, ring products built once per build.

An element is applied by one of two routes, chosen by the shape of the
call.  Applying many elements to one x reads the orbit T^k x, built
lazily and shared by all of them (``word_images``, and every one-off
``GroupRingElement.__call__``).  Applying a fixed set of elements to
many x reads their basis images (``basis_images``): each element's
images of the p^2 basis monomials x1^i x2^j, from one sweep of p^2
orbits, after which every application is one K2 combination.  Every
K0-linear map of K2 is applied that way, as a ``BasisImages``: an
automorphism's are the products image_x1^i * image_x2^j.
"""

from __future__ import annotations

from math import factorial

from .errors import InvariantViolation
from .padic import K0Element
from .tower import ExtensionDesc, K2Element, hensel_lift
from .witt import d_poly


class BasisImages:
    """A K0-linear map of K2 given by its images ``table[i][j]`` of the
    basis monomials x1^i x2^j; calling it on x is one combination, with
    no orbit of x."""

    __slots__ = ("ext", "table")

    def __init__(self, ext: ExtensionDesc, table):
        self.ext = ext
        self.table = table

    def __call__(self, x: K2Element) -> K2Element:
        """sum_ij x_ij * table[i][j]."""
        table = self.table
        return K2Element.combination(
            self.ext, [(c, table[i][j]) for i, row in enumerate(x.rows)
                       for j, c in enumerate(row) if not c.is_pristine_zero()])


class Automorphism:
    """A K0-automorphism of K2 given by its images of x1 and x2, and
    once known, their ``residuals`` (see ``relation_residuals``)."""

    __slots__ = ("ext", "image_x1", "image_x2", "residuals", "_images")

    def __init__(self, ext: ExtensionDesc, image_x1: K2Element, image_x2: K2Element):
        self.ext = ext
        self.image_x1 = image_x1
        self.image_x2 = image_x2
        self.residuals = None
        self._images = None

    def apply(self, x: K2Element) -> K2Element:
        """Image of x through the basis images image_x1^i * image_x2^j,
        built on first use; row 0 and column 0 are the powers themselves,
        with no product by one.  K0 coefficients pass through unchanged."""
        if self._images is None:
            p = self.ext.p
            apow = [self.image_x1]
            bpow = [self.ext.one(), self.image_x2]
            for _ in range(p - 2):
                apow.append(apow[-1] * self.image_x1)
                bpow.append(bpow[-1] * self.image_x2)
            self._images = BasisImages(
                self.ext, [bpow] + [[a] + [a * b for b in bpow[1:]] for a in apow])
        return self._images(x)

    def __repr__(self):
        return f"Automorphism(ext={self.ext!r})"


def automorphism_power(auto: Automorphism, n: int,
                       start: Automorphism | None = None) -> Automorphism:
    """auto^n, n >= 0: ``auto`` applied n times to the images of x1 and
    x2, or to those of ``start`` when given, which continues a chain of
    powers of ``auto`` (auto^n * start)."""
    if start is None:
        image_x1, image_x2 = auto.ext.x1(), auto.ext.x2()
    else:
        image_x1, image_x2 = start.image_x1, start.image_x2
    for _ in range(n):
        image_x1, image_x2 = auto.apply(image_x1), auto.apply(image_x2)
    return Automorphism(auto.ext, image_x1, image_x2)


def relation_residuals(auto: Automorphism) -> tuple[K2Element, K2Element]:
    """The residuals r1, r2 of both defining Artin-Schreier relations at
    the images of x1 and x2: X^p - X - a1 and X^p - X - (a2 + D(x1, a1)),
    computed once per automorphism and kept on it."""
    if auto.residuals is None:
        ext = auto.ext
        p = ext.p
        a1 = ext.from_k0(ext.a1)
        r1 = auto.image_x1**p - auto.image_x1 - a1
        r2 = (auto.image_x2**p - auto.image_x2
              - (ext.from_k0(ext.a2) + d_poly(auto.image_x1, a1, p)))
        auto.residuals = (r1, r2)
    return auto.residuals


def verify_automorphism(auto: Automorphism) -> None:
    """Check that the images satisfy both defining Artin-Schreier
    relations to the working target; raises InvariantViolation."""
    ext = auto.ext
    for name, r in zip(("x1", "x2"), relation_residuals(auto)):
        if r.val_floor() < ext.target_v2:
            raise InvariantViolation(
                f"image of {name} fails its defining relation: residual "
                f"valuation {r.val_floor()} < target {ext.target_v2}"
            )


def compute_sigma1(ext: ExtensionDesc) -> Automorphism:
    """The degree-p^2 generator: sends x1 to x1 + 1 + eps and x2 to
    x2 + D(x1, 1) + (small), both verified by the residuals of their
    lifts, which are the relation residuals at the images."""
    p = ext.p
    x1 = ext.x1()
    x2 = ext.x2()
    a1 = ext.from_k0(ext.a1)
    a2 = ext.from_k0(ext.a2)
    image_x1, r1 = hensel_lift(a1, x1 + 1)
    c1 = d_poly(x1, ext.one(), p)
    image_x2, r2 = hensel_lift(a2 + d_poly(image_x1, a1, p), x2 + c1)
    auto = Automorphism(ext, image_x1, image_x2)
    auto.residuals = (r1, r2)
    eps_val = (image_x1 - x1 - 1).valuation()
    expected = p**2 * ext.base.e0 - p * (p - 1) * ext.b1
    if eps_val != expected:
        raise InvariantViolation(f"v2(eps) = {eps_val}, expected {expected}")
    if (image_x2 - x2 - c1).val_floor() <= 0:
        raise InvariantViolation("x2-image correction is not small")
    verify_automorphism(auto)
    return auto


def compute_sigma2(ext: ExtensionDesc, sigma1: Automorphism) -> Automorphism:
    """The generator of the subgroup fixing K1 as sigma1^p, verified: x1
    is fixed (exactly, once sigma1^p fixes it to the target), x2 goes to
    x2 + 1 + delta.  By Hensel uniqueness (f' is a unit) the certified
    image of x2 is the root a direct lift from x2 + 1 would give."""
    p = ext.p
    x1, x2 = ext.x1(), ext.x2()
    composed = automorphism_power(sigma1, p)
    drift = (composed.image_x1 - x1).val_floor()
    if drift < ext.target_v2:
        raise InvariantViolation(
            f"sigma1^p moves x1: difference valuation {drift}")
    auto = Automorphism(ext, x1, composed.image_x2)
    delta_floor = (auto.image_x2 - x2 - 1).val_floor()
    bound = p**2 * ext.base.e0 + (p - 1) * p * ext.a2.valuation()
    if delta_floor < bound:
        raise InvariantViolation(
            f"v2(delta) = {delta_floor} below the bound {bound}"
        )
    verify_automorphism(auto)
    return auto


# -- the group ring ----------------------------------------------------


class GroupRingElement:
    """An element sum_k c_k T^k of K0[G] = K0[T]/(T^(p^2) - 1), where
    T = sigma1 and T^p acts through sigma2 = sigma1^p.

    ``coeffs`` maps exponents 0 <= k < p^2 to K0 coefficients; an absent
    exponent has coefficient zero, and structural zeros are dropped.
    Applying the element to x builds only the orbit images T^k x at
    exponents that carry a coefficient (see :meth:`orbit`).
    """

    __slots__ = ("sigma1", "sigma2", "coeffs")

    def __init__(self, sigma1: Automorphism, sigma2: Automorphism,
                 coeffs: dict[int, K0Element]):
        self.sigma1 = sigma1
        self.sigma2 = sigma2
        self.coeffs = {k: c for k, c in coeffs.items()
                       if not c.is_pristine_zero()}

    @classmethod
    def generator_power(cls, sigma1: Automorphism, sigma2: Automorphism,
                        k: int) -> "GroupRingElement":
        """T^k."""
        ext = sigma1.ext
        return cls(sigma1, sigma2, {k % ext.degree(): ext.base.one()})

    def _like(self, coeffs) -> "GroupRingElement":
        return GroupRingElement(self.sigma1, self.sigma2, coeffs)

    def one(self) -> "GroupRingElement":
        return self._like({0: self.sigma1.ext.base.one()})

    def __add__(self, other: "GroupRingElement") -> "GroupRingElement":
        coeffs = dict(self.coeffs)
        for k, c in other.coeffs.items():
            coeffs[k] = coeffs[k] + c if k in coeffs else c
        return self._like(coeffs)

    def __neg__(self) -> "GroupRingElement":
        return self._like({k: -c for k, c in self.coeffs.items()})

    def __sub__(self, other: "GroupRingElement") -> "GroupRingElement":
        return self + (-other)

    def __mul__(self, other) -> "GroupRingElement":
        """The ring product, or scaling by an int or K0 element."""
        if not isinstance(other, GroupRingElement):
            return self._like({k: c * other for k, c in self.coeffs.items()})
        n = self.sigma1.ext.degree()
        coeffs: dict[int, K0Element] = {}
        for i, a in self.coeffs.items():
            for j, b in other.coeffs.items():
                k = (i + j) % n
                coeffs[k] = coeffs[k] + a * b if k in coeffs else a * b
        return self._like(coeffs)

    def orbit(self, x: K2Element):
        """The images T^k x as a function of k, each built once, on first
        request: T^k x = sigma1(T^(k-1) x) for 0 < k < p and
        sigma2(T^(k-p) x) for k >= p.  Elements applied through one orbit
        (see :meth:`on_orbit`) share its images.  The function does not
        refer to itself, so the orbit is freed as soon as it is dropped,
        not at the next cyclic garbage collection."""
        p = self.sigma1.ext.p
        sigma1, sigma2 = self.sigma1, self.sigma2
        images = {0: x}

        def image(k: int) -> K2Element:
            missing = []
            while k not in images:
                missing.append(k)
                k = k - 1 if k < p else k - p
            for k in reversed(missing):
                images[k] = (sigma1.apply(images[k - 1]) if k < p
                             else sigma2.apply(images[k - p]))
            return images[k]

        return image

    def on_orbit(self, image) -> K2Element:
        """sum_k c_k T^k x, with T^k x read from ``image = orbit(x)``."""
        return K2Element.combination(
            self.sigma1.ext, [(c, image(k)) for k, c in self.coeffs.items()])

    def __call__(self, x: K2Element) -> K2Element:
        return self.on_orbit(self.orbit(x))


def k0_binomial(y: K0Element, i: int) -> K0Element:
    """Binomial coefficient C(y, i) = y(y-1)...(y-i+1)/i! in K0.
    Requires i < p so that i! is a unit."""
    field = y.field
    if i >= field.p:
        raise ValueError("binomial index must stay below p")
    acc = field.one()
    for t in range(i):
        acc = acc * (y - t)
    if i >= 2:
        acc = acc * field.from_int(factorial(i)).inverse()
    return acc


def truncated_exp(g: GroupRingElement, y: K0Element) -> GroupRingElement:
    """Truncated exponentiation g^[y] = (1 + (g - 1))^[y]: the binomial
    series sum_{i<p} C(y,i) (g - 1)^i."""
    delta = g - g.one()
    term = g.one()
    acc = term
    for i in range(1, g.sigma1.ext.p):
        term = term * delta
        acc = acc + term * k0_binomial(y, i)
    return acc


def psi_operators(ext: ExtensionDesc, sigma1: Automorphism,
                  sigma2: Automorphism) -> tuple[GroupRingElement, GroupRingElement]:
    """The scaffold operators: psi1 + 1 = T * (T^p)^[mu] and
    psi2 = T^p - 1, with T = sigma1.  Both kill K0 constants."""
    t = GroupRingElement.generator_power(sigma1, sigma2, 1)
    tp = GroupRingElement.generator_power(sigma1, sigma2, ext.p)
    psi1 = t * truncated_exp(tp, ext.mu) - t.one()
    psi2 = tp - t.one()
    return psi1, psi2


def scaffold_words(psi1: GroupRingElement,
                   psi2: GroupRingElement) -> list[GroupRingElement]:
    """The Galois scaffold as one K0-basis of K0[G]: entry a = a1*p + a0
    is the word psi2^(a1) psi1^(a0), for 0 <= a < p^2, from power tables."""
    p = psi1.sigma1.ext.p
    pow1, pow2 = [psi1.one()], [psi2.one()]
    for _ in range(p - 1):
        pow1.append(pow1[-1] * psi1)
        pow2.append(pow2[-1] * psi2)
    return [pow2[a1] * pow1[a0] for a1 in range(p) for a0 in range(p)]


def word_images(words: list[GroupRingElement], x: K2Element) -> list[K2Element]:
    """The image of x under every word, all read from one orbit of x."""
    image = words[0].orbit(x)
    return [word.on_orbit(image) for word in words]


def basis_images(ops: list[GroupRingElement]) -> list[BasisImages]:
    """Every element of ``ops`` as its basis images, in one sweep over
    the p^2 basis monomials: each monomial's images under all of ``ops``
    are read from one orbit (``word_images``), dropped before the next
    monomial's is built.  The sweep costs p^2 orbits, so it pays once the
    elements are applied to more than about p^2 elements in all."""
    ext = ops[0].sigma1.ext
    p = ext.p
    one = ext.base.one()
    columns = []
    for i in range(p):
        for j in range(p):
            rows = ext._empty_rows()
            rows[i][j] = one
            columns.append(word_images(ops, K2Element(ext, rows)))
    return [BasisImages(ext, [[columns[i * p + j][n] for j in range(p)]
                              for i in range(p)])
            for n in range(len(ops))]
