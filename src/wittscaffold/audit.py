"""Runnable invariant suites over a built extension.

Each check returns a named pass/fail result; the CLI audit command and
the test suite both drive these.  Sampled checks are deterministic for a
fixed seed.
"""

from __future__ import annotations

import random

from .construction import Check
from .errors import IndeterminateValuation
from .galois import (
    Automorphism,
    BasisImages,
    GroupRingElement,
    automorphism_power,
    basis_images,
    relation_residuals,
)
from .tower import ExtensionDesc, K2Element, scaffold_lambda, uniformizer_exponents


def random_unit(desc: ExtensionDesc, rng: random.Random) -> K2Element:
    """1 plus a few random monomials of positive valuation."""
    p = desc.p
    u = desc.one()
    for _ in range(3):
        i = rng.randrange(p)
        j = rng.randrange(p)
        base_val = desc.monomial_valuation(0, i, j)
        k = rng.randrange(1, 3) + max(0, -(base_val // (p * p)) + 1)
        c = rng.randrange(1, p * p)
        u = u + desc.monomial(k, i, j).scale(c)
    return u


def element_with_valuation(desc: ExtensionDesc, rng: random.Random,
                           t: int) -> K2Element:
    """A pseudo-random element of exact valuation t."""
    return scaffold_lambda(desc, t) * random_unit(desc, rng)


def floor_text(x: K2Element) -> str:
    """x's valuation floor as a report prints it, or "O(prec)" when
    every digit x is known to vanishes: that floor is then only x's
    tracked precision, which the guard digits set, not a property of x."""
    return "O(prec)" if x.is_zero() else str(x.val_floor())


def corrupt_sigma1(sigma1: Automorphism) -> Automorphism:
    """Fault injection: perturb the x2 image by a unit, which breaks the
    length-2 Witt congruence while keeping a well-formed map."""
    return Automorphism(sigma1.ext, sigma1.image_x1, sigma1.image_x2 + 1)


def audit_operators(ctx) -> list[GroupRingElement]:
    """Every operator the audit applies: the p^2 scaffold words (psi1 is
    word 1 and psi2 word p), then the trace of K2/K1 and that of K2/K0."""
    p = ctx.desc.p
    one = ctx.desc.base.one()
    s1, s2 = ctx.sigma1, ctx.sigma2
    sub_trace = GroupRingElement(s1, s2, {p * j: one for j in range(p)})
    trace = GroupRingElement(s1, s2, {k: one for k in range(p * p)})
    return ctx.words + [sub_trace, trace]


def operator_images(ctx) -> list[BasisImages]:
    """``audit_operators`` as basis images, built on first use in one
    sweep and kept on the context like its words."""
    if ctx.op_images is None:
        ctx.op_images = basis_images(audit_operators(ctx))
    return ctx.op_images


def galois_invariant_suite(ctx, rng: random.Random, samples: int) -> list[Check]:
    """Invariants of the Galois realization and the scaffold operators."""
    desc = ctx.desc
    p = desc.p
    p2 = p * p
    e0 = desc.base.e0
    b1, b2 = desc.b1, desc.b2
    target = desc.target_v2
    s1, s2 = ctx.sigma1, ctx.sigma2
    *words, sub_trace, trace = operator_images(ctx)
    psi1, psi2 = words[1], words[p]
    x1, x2 = desc.x1(), desc.x2()
    results: list[Check] = []

    def add(name, passed, detail):
        results.append(Check(name, passed, detail))

    from .witt import WittVector2, d_poly

    r1, r2 = relation_residuals(s1)
    add("generator-defining-relations",
        r1.vanishes() and r2.vanishes(),
        f"residual floors {floor_text(r1)}, {floor_text(r2)} >= {target}")

    eps = s1.image_x1 - x1 - 1
    expected_eps = p2 * e0 - p * (p - 1) * b1
    try:
        ev = eps.valuation()
    except IndeterminateValuation:
        ev = None
    add("epsilon-valuation", ev == expected_eps,
        f"v2(eps) = {ev}, expected {expected_eps}")

    c1 = d_poly(x1, desc.one(), p)
    add("carry-term-valuation", c1.valuation() == -p * (p - 1) * b1,
        f"v2(D(x1,1)) = {c1.valuation()}, expected {-p * (p - 1) * b1}")

    # sigma2 takes x1 as its image exactly, so this reads sigma1^p(x1)
    # from the chain of powers that generator-order continues to p^2
    step_p = automorphism_power(s1, p)
    moved = step_p.image_x1 - x1
    add("subgroup-fixes-first-generator", moved.vanishes(),
        f"sigma1^{p}(x1) - x1 has floor {floor_text(moved)} >= {target}")

    delta = s2.image_x2 - x2 - 1
    delta_bound = p2 * e0 + (p - 1) * p * desc.a2.valuation()
    add("subgroup-shift-bound", delta.val_floor() >= delta_bound,
        f"v2(delta) >= {delta.val_floor()}, bound {delta_bound}")

    top = automorphism_power(s1, p2 - p, start=step_p)
    order_ok = ((top.image_x1 - x1).vanishes() and (top.image_x2 - x2).vanishes())
    add("generator-order", order_ok,
        f"sigma1^{p2} fixes both generators to the working target")

    w_img = WittVector2(x1, x2, p) + WittVector2(desc.one(), desc.zero(), p)
    wc1 = s1.image_x1 - w_img.first
    wc2 = s1.image_x2 - w_img.second
    add("witt-congruence",
        wc1.val_floor() >= 1 and wc2.val_floor() >= 1,
        f"sigma1(x1, x2) = (x1, x2) (+) (1, 0) mod the maximal ideal; "
        f"floors {wc1.val_floor()}, {wc2.val_floor()}")

    ok = True
    detail = ""
    for n in range(max(0, samples)):
        t = b2 + p2 * rng.randrange(-2, 3)
        x = element_with_valuation(desc, rng, t)
        for j in range(p):
            for i in range(p):
                v = words[i + p * j](x).valuation()
                want = t + j * b2 + i * p * b1
                if v != want:
                    ok = False
                    detail = f"sample {n}: (i,j)=({i},{j}) gave {v}, want {want}"
                    break
            if not ok:
                break
        if not ok:
            break
    add("shift-law-samples", ok,
        detail or f"{samples} sampled elements of residue b2 shift exactly")

    c = ctx.rd.precision_c
    ok = True
    detail = ""
    for t in range(p2):
        k, i, j = uniformizer_exponents(desc, t)
        lam = desc.monomial(k, i, j)
        for idx, (op, shift, digit) in enumerate(
            ((psi1, p * b1, i), (psi2, b2, j))
        ):
            img = op(lam)
            landing = t + shift
            if digit >= 1:
                try:
                    v = img.valuation()
                except IndeterminateValuation:
                    v = None
                if v != landing:
                    ok = False
                    detail = f"t={t} op{idx + 1}: v = {v}, want exact {landing}"
            else:
                if not (img.is_zero() or img.val_floor() >= landing + c):
                    ok = False
                    detail = (f"t={t} op{idx + 1}: floor {img.val_floor()} < "
                              f"{landing + c} on the drop branch")
    add("digit-shift-and-drop", ok,
        detail or "all p^2 residue classes shift or drop as the index digits say")

    ok = True
    detail = ""
    for n in range(max(0, samples)):
        x = element_with_valuation(desc, rng, rng.randrange(-p2, p2))
        # p successive applications, not the ring power psi2^p: that
        # would reduce T^(p^2) to 1 instead of testing sigma2
        img = x
        for _ in range(p):
            img = psi2(img)
        if img.val_floor() < p2 * e0 + x.valuation():
            ok = False
            detail = (f"sample {n}: floor {img.val_floor()} < "
                      f"{p2 * e0 + x.valuation()}")
            break
    add("psi2-pth-power-growth", ok,
        detail or f"v2(psi2^p x) >= p^2 e0 + v2(x) on {samples} samples")

    # psi1 rho and psi2 rho are the images of rho under words 1 and p
    lhs = ctx.rho_images[1]
    for _ in range(p - 1):
        lhs = psi1(lhs)
    diff = lhs - ctx.rho_images[p]
    mod = p2 * e0 + p * b1 - (p - 1) * b2
    add("psi1-pth-power-congruence", diff.val_floor() >= mod,
        f"v2(psi1^p rho - psi2 rho) >= {diff.val_floor()}, modulus {mod}")
    if ctx.bound.holds:
        try:
            v = lhs.valuation()
        except IndeterminateValuation:
            v = None
        add("psi1-pth-power-valuation", v == 2 * b2,
            f"v2(psi1^p rho) = {v}, expected {2 * b2}")

    tr = sub_trace(delta)
    add("trace-of-shift-error", (tr + p).vanishes(),
        "Tr over the subextension of delta equals -p to the working target")

    tr_one = trace(desc.one())
    add("trace-of-one", (tr_one - p2).vanishes(), f"full trace of 1 is p^2 = {p2}")

    depth = ctx.rd.depth
    ok = True
    detail = ""
    for n in range(max(0, samples)):
        y = element_with_valuation(desc, rng, rng.randrange(-p2, p2))
        t = trace(y)
        if t.val_floor() - y.valuation() < depth:
            ok = False
            detail = (f"sample {n}: v2(Tr y) - v2(y) = "
                      f"{t.val_floor() - y.valuation()} < depth {depth}")
            break
    add("depth-bound-on-traces", ok,
        detail or f"v2(Tr y / y) >= depth {depth} on {samples} samples")

    ok = True
    detail = ""
    for n in range(max(0, min(samples, 8))):
        x = element_with_valuation(desc, rng, rng.randrange(0, p2))
        y = element_with_valuation(desc, rng, rng.randrange(0, p2))
        c0 = desc.base.monomial(rng.randrange(1, p2), rng.randrange(-2, 3))
        for op in (psi1, psi2):
            lin = op(x.scale(c0) + y) - (op(x).scale(c0) + op(y))
            if not lin.vanishes():
                ok = False
                detail = f"sample {n}: operator not K0-linear"
                break
        if not ok:
            break
    add("operator-linearity", ok, detail or "psi operators are K0-linear on samples")

    add("operators-kill-constants",
        psi1(desc.from_int(7)).is_zero() and psi2(desc.from_int(7)).is_zero(),
        "both scaffold operators annihilate K0 constants")

    return results


def structure_invariant_suite(ctx, rng: random.Random,
                              samples: int) -> list[Check]:
    """Invariants of the module-structure layer."""
    from .structure import (
        brute_force_w,
        congruence_audit,
        normal_basis_certificate,
    )

    desc = ctx.desc
    p = desc.p
    p2 = p * p
    tables = ctx.tables
    results: list[Check] = []

    def add(name, passed, detail):
        results.append(Check(name, passed, detail))

    vals = []
    ok = True
    for a, el in enumerate(ctx.rhos):
        try:
            v = el.valuation()
        except IndeterminateValuation:
            v = None
        vals.append(v)
        if v != tables.b_map[a] % p2:
            ok = False
    add("rho-valuations", ok and sorted(vals) == list(range(p2)),
        f"valuations {vals} sweep out 0..{p2 - 1}")

    add("w-table-brute-force", brute_force_w(ctx.rd) == tables.w,
        "exhaustive recomputation reproduces the w table")

    rep = ctx.module_report
    if rep is not None:
        agree = (rep.residue_divides == rep.w_equals_d_minus_d0
                 == rep.generator_complete)
        add("freeness-routes-agree", agree,
            f"divisibility={rep.residue_divides}, w-table={rep.w_equals_d_minus_d0}, "
            f"generator={rep.generator_complete}")

    grid = congruence_audit(desc, tables, operator_images(ctx)[:p2], ctx.rhos)
    add("congruence-grid", grid.passed,
        f"{grid.pairs} pairs at modulus {grid.modulus}; "
        + ("all hold" if grid.passed else "; ".join(grid.failures[:4])))

    add("normal-basis-rank", normal_basis_certificate(desc, ctx.rho_images),
        "the p^2 operator images of rho are K0-linearly independent")

    return results
