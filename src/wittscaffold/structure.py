"""Galois-module structure: scaffold tables, the rho basis, the
associated order and the freeness decision.

The integer combinatorics (the shift map b, its floors d_a and the
minima w_j) is plain arithmetic on break numbers; everything else is
verified numerically on exact field elements.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass, field

from .construction import FreenessBound, RamificationData
from .errors import (
    BoundNotSatisfied,
    InternalDisagreement,
    InvariantViolation,
)
from .galois import GroupRingElement, word_images
from .tower import ExtensionDesc, K2Element, scaffold_index


@dataclass
class ScaffoldTables:
    """Integer tables steering the module structure.

    ``a_map[j]`` is the scaffold residue index of valuation class j;
    ``b_map[a]`` the valuation reached from a class-b2 element by the
    a-th operator word; ``d[a]`` its pi0 floor; ``w[j]`` the associated
    order exponents; digits are base-p pairs (low, high).
    """

    p: int
    b1: int
    b2: int
    a_map: list[int]
    b_map: list[int]
    d: list[int]
    w: list[int]
    d0: int
    r_b2: int

    def digits(self, a: int) -> tuple[int, int]:
        return a % self.p, a // self.p

    def as_dict(self):
        return {
            "a_map": self.a_map,
            "b_map": self.b_map,
            "d": self.d,
            "w": self.w,
            "d0": self.d0,
            "r_b2": self.r_b2,
        }


def shift_landing(b1: int, b2: int, p: int, a: int) -> int:
    """Valuation reached from a class-b2 element by psi2^(a1)psi1^(a0):
    (1 + a1)*b2 + a0*p*b1 for a < p^2."""
    a0, a1 = a % p, a // p
    return (1 + a1) * b2 + a0 * p * b1


def build_tables(rd: RamificationData) -> ScaffoldTables:
    p = rd.p
    p2 = p * p
    b1, b2 = rd.b1, rd.b2
    # the index map is oriented so the digit being consumed by each
    # operator is the one that must stay nonnegative: a_map(t) has
    # base-p digits (j, i) for the monomial x1^i y2^j of valuation t
    a_map = [scaffold_index(rd, t) for t in range(p2)]
    b_map = [shift_landing(b1, b2, p, a) for a in range(p2)]
    d = [bb // p2 for bb in b_map]
    w = [min(d[j + a] - d[a] for a in range(p2 - j)) for j in range(p2)]
    return ScaffoldTables(
        p=p, b1=b1, b2=b2,
        a_map=a_map, b_map=b_map, d=d, w=w,
        d0=d[0], r_b2=rd.r_b2,
    )


def basis_op_label(tables: ScaffoldTables, j: int) -> str:
    """Printable name of pi0^(-w_j) psi2^(j1) psi1^(j0), psi1 first."""
    j0, j1 = tables.digits(j)
    parts = []
    if tables.w[j]:
        parts.append(f"pi0^-{tables.w[j]}")
    if j0 == 1:
        parts.append("Psi1")
    elif j0 > 1:
        parts.append(f"Psi1^{j0}")
    if j1 == 1:
        parts.append("Psi2")
    elif j1 > 1:
        parts.append(f"Psi2^{j1}")
    if not parts:
        return "1"
    return "*".join(parts)


def rho_family(
    desc: ExtensionDesc,
    tables: ScaffoldTables,
    words: list[GroupRingElement],
    rho0: K2Element,
    check: bool = True,
) -> tuple[list[K2Element], list[K2Element]]:
    """The images words[a] rho of rho = pi0^d0 * rho0, all read from one
    orbit, and the integral basis rho_a = pi0^(-d_a) words[a] rho; the
    valuations must be the residues b_map[a] mod p^2, which sweep out a
    full residue system 0..p^2-1."""
    p = desc.p
    p2 = p * p
    if check and rho0.valuation() != tables.r_b2:
        raise InvariantViolation(
            f"v2(rho0) = {rho0.valuation()}, expected r(b2) = {tables.r_b2}"
        )
    rho = rho0.scale(desc.base.pi0(tables.d0))
    images = word_images(words, rho)
    rhos = [img.scale(desc.base.pi0(-tables.d[a]))
            for a, img in enumerate(images)]
    if check:
        vals = [el.valuation() for el in rhos]
        expected = [tables.b_map[a] % p2 for a in range(p2)]
        if vals != expected:
            raise InvariantViolation(
                f"rho valuations {vals} differ from residues {expected}"
            )
    return images, rhos


@dataclass
class ModuleStructureReport:
    free: bool
    residue_divides: bool
    w_equals_d_minus_d0: bool
    generator_complete: bool
    assoc_order_basis: list[str]
    valuation_table: list[int]
    r_b2: int

    def as_dict(self):
        return {
            "free": self.free,
            "criteria": {
                "residue_divides_p2_minus_1": self.residue_divides,
                "w_equals_d_minus_d0": self.w_equals_d_minus_d0,
                "generator_valuations_complete": self.generator_complete,
            },
            "assoc_order_basis": self.assoc_order_basis,
            "valuation_table": self.valuation_table,
            "r_b2": self.r_b2,
        }


def associated_order_and_freeness(
    desc: ExtensionDesc,
    tables: ScaffoldTables,
    images: list[K2Element],
    bound: FreenessBound,
) -> ModuleStructureReport:
    """Emit the associated-order basis exponents and decide freeness by
    three independent routes, which must agree:

    1. the residue r(b2) divides p^2 - 1,
    2. w_j = d_j - d_0 for every j,
    3. the valuations of pi0^(-w_j) words[j] rho0 cover 0..p^2-1, read
       as pi0^(-d0-w_j) images[j] from the images words[j] rho of
       rho = pi0^d0 rho0.
    """
    if not bound.holds:
        raise BoundNotSatisfied(
            "structural bound fails; no freeness verdict: " + bound.detail
        )
    p = desc.p
    p2 = p * p
    route1 = (p2 - 1) % tables.r_b2 == 0
    route2 = all(tables.w[j] == tables.d[j] - tables.d0 for j in range(p2))
    vals = [img.scale(desc.base.pi0(-tables.d0 - tables.w[j])).valuation()
            for j, img in enumerate(images)]
    route3 = sorted(vals) == list(range(p2))
    if not (route1 == route2 == route3):
        raise InternalDisagreement(
            f"freeness routes disagree: divisibility={route1}, "
            f"w-table={route2}, generator={route3}"
        )
    return ModuleStructureReport(
        free=route1,
        residue_divides=route1,
        w_equals_d_minus_d0=route2,
        generator_complete=route3,
        assoc_order_basis=[basis_op_label(tables, j) for j in range(p2)],
        valuation_table=vals,
        r_b2=tables.r_b2,
    )


@dataclass
class CongruenceAuditReport:
    modulus: int
    pairs: int
    failures: list[str] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return not self.failures


def congruence_audit(
    desc: ExtensionDesc,
    tables: ScaffoldTables,
    words: list[Callable[[K2Element], K2Element]],
    rhos: list[K2Element],
) -> CongruenceAuditReport:
    """Check, over the whole (j, r) grid, the congruences and membership
    claims that make pi0^(-w_j) words[j] an associated-order basis:

    * for j+r < p^2, pi0^(d0-d_j)(word_j rho_r - pi0^(d_{j+r}-d_r) rho_{j+r})
      vanishes modulo the stated modulus, exactly so when adding j and r
      carries no base-p digit;
    * for j+r >= p^2, pi0^(d0-d_j) word_j rho_r lies in the maximal ideal;
    * pi0^(-w_j) word_j rho_r is integral for every pair, and congruent to
      pi0^(d_{j+r}-d_r-w_j) rho_{j+r} at the same modulus.

    ``words[j]`` applies the j-th word: its group-ring element, which
    builds an orbit per call, or, as the audit passes it, its basis
    images, which take one combination per call.
    """
    p = desc.p
    p2 = p * p
    e0 = desc.base.e0
    b1, b2 = tables.b1, tables.b2
    modulus = p2 * e0 - p * b2 - (p2 - p + 1) * b1
    d, w, d0 = tables.d, tables.w, tables.d0
    failures: list[str] = []
    for j, word in enumerate(words):
        j0, j1 = tables.digits(j)
        for r in range(p2):
            x = word(rhos[r])
            r0, r1 = tables.digits(r)
            carry_free = (j0 + r0 < p) and (j1 + r1 < p)
            if j + r < p2:
                target = rhos[j + r].scale(desc.base.pi0(d[j + r] - d[r]))
                diff = (x - target).scale(desc.base.pi0(d0 - d[j]))
                if diff.val_floor() < modulus:
                    failures.append(
                        f"first-congruence j={j} r={r}: "
                        f"valuation {diff.val_floor()} < {modulus}"
                    )
                if carry_free and not diff.vanishes():
                    failures.append(
                        f"carry-free-equality j={j} r={r}: difference visible "
                        f"at valuation {diff.val_floor()}"
                    )
            else:
                scaled = x.scale(desc.base.pi0(d0 - d[j]))
                if scaled.val_floor() < 1:
                    failures.append(
                        f"maximal-ideal-membership j={j} r={r}: "
                        f"valuation {scaled.val_floor()} < 1"
                    )
            integral = x.scale(desc.base.pi0(-w[j]))
            if integral.val_floor() < 0:
                failures.append(
                    f"integrality j={j} r={r}: valuation {integral.val_floor()} < 0"
                )
            if j + r < p2:
                tail = rhos[j + r].scale(desc.base.pi0(d[j + r] - d[r] - w[j]))
                diff2 = integral - tail
            else:
                diff2 = integral
            if diff2.val_floor() < modulus:
                failures.append(
                    f"second-congruence j={j} r={r}: "
                    f"valuation {diff2.val_floor()} < {modulus}"
                )
    return CongruenceAuditReport(modulus=modulus, pairs=p2 * p2, failures=failures)


def normal_basis_certificate(desc: ExtensionDesc, images: list[K2Element]) -> bool:
    """Certify K0-linear independence of the given p^2 elements by exact
    Gaussian elimination with minimal-valuation pivoting."""
    p = desc.p
    n = p * p
    if len(images) != n:
        raise ValueError("expected p^2 elements")
    mat = [[el.rows[i][j] for i in range(p) for j in range(p)] for el in images]
    used_rows: set[int] = set()
    used_cols: set[int] = set()
    for _ in range(n):
        pivot = None
        pv = None
        for r in range(n):
            if r in used_rows:
                continue
            for c in range(n):
                if c in used_cols:
                    continue
                entry = mat[r][c]
                if entry.is_zero():
                    continue
                v = entry.valuation()
                if pv is None or v < pv:
                    pv = v
                    pivot = (r, c)
        if pivot is None:
            return False
        pr, pc = pivot
        used_rows.add(pr)
        used_cols.add(pc)
        inv = mat[pr][pc].inverse()
        for r in range(n):
            if r == pr or r in used_rows:
                continue
            factor = mat[r][pc] * inv
            if factor.is_zero():
                continue
            mat[r] = [mat[r][c] - factor * mat[pr][c] for c in range(n)]
    return True


def brute_force_w(rd: RamificationData) -> list[int]:
    """Independent recomputation of the w table straight from its
    definition, enumerating every (j, a) pair."""
    p2 = rd.p * rd.p
    d = [shift_landing(rd.b1, rd.b2, rd.p, a) // p2 for a in range(p2)]
    out = []
    for j in range(p2):
        best = None
        for a in range(p2):
            if j + a < p2:
                delta = d[j + a] - d[a]
                if best is None or delta < best:
                    best = delta
        out.append(best)
    return out
