"""The packed lane ``tower._packed_stats``, the one route to every K2
valuation, against the route it replaced, the statistics read off
``y_coefficients`` (``k2_reference.y_stats``).

For every element of a seeded pool, ``valuation`` (or its exception),
``val_floor``, ``precision`` and ``vanishes`` must agree between the
two routes.  The pool covers p = 2, 3 and 5, mu and a1 with digits 1, 2
and -1, config coefficients divisible by p, cells that are zero at
their precision, degraded precisions, negative shifts, widely spread
shifts and the all-zero element.  Config monomials must be exact, so
mu = 3*pi0^-7 at p = 3, e0 = 6 is the golden pi0^-1 and its report is
the golden one.  A crafted cell known to more relative digits than mu,
and a mu that is no monomial, are invariant violations.
"""

import json
import random
from pathlib import Path

import pytest

import k2_reference
from test_k2_differential import degraded
from wittscaffold.audit import element_with_valuation
from wittscaffold.cli import EXIT_OK, main
from wittscaffold.construction import construct_extension
from wittscaffold.errors import IndeterminateValuation, InvariantViolation
from wittscaffold.padic import K0Element
from wittscaffold.tower import ExtensionDesc, K2Element

# (p, e0, pi0 exponent of a1 and mu, coefficient of a1, coefficient of
# mu); the last two are the golden a1 = mu = pi0^-1 and a1 = pi0^-1,
# mu = -pi0^-1 with a factor p in each coefficient
CASES = [
    (2, 4, -1, 1, 1),
    (2, 4, -1, -1, 1),
    (2, 4, -1, 1, -1),
    (3, 6, -1, 1, 1),
    (3, 6, -1, 2, -1),
    (3, 6, -1, -1, 2),
    (3, 6, -1, 2, 2),
    (3, 22, -5, 1, 1),
    (5, 7, -1, 1, 1),
    (5, 7, -1, 2, -1),
    (5, 7, -1, -1, 2),
    (3, 6, -7, 3, 3),
    (2, 4, -5, 2, -2),
]


def observe(x: K2Element):
    try:
        v = x.valuation()
    except IndeterminateValuation:
        v = "indeterminate"
    return v, x.val_floor(), x.precision(), x.vanishes()


def y_route(x: K2Element) -> K2Element:
    """A copy of x whose statistics come from ``y_coefficients``."""
    y = K2Element(x.ext, x.rows)
    y._scache = k2_reference.y_stats(x)
    return y


def zeros(desc, rng) -> K2Element:
    """All cells zero, O(pi0^N) at random (also negative) precisions N."""
    f = desc.base
    return K2Element(desc, [
        [K0Element.make(f, 0, f._zeros, rng.randrange(-20, 60))
         for _ in range(desc.p)] for _ in range(desc.p)])


def pool(desc, rng):
    p2 = desc.p ** 2
    out = [desc.zero(), desc.one(), desc.x1(), desc.x2(), desc.y2()]
    out += [desc.monomial(rng.randrange(-3, 4), i, j)
            for i in range(desc.p) for j in range(desc.p)]
    out += [element_with_valuation(desc, rng, rng.randrange(-3 * p2, 3 * p2))
            for _ in range(6)]
    out += [x * rng.choice(out) for x in out[5:]]
    # one cell far above the others: the shifts spread widely
    out += [x + desc.monomial(rng.randrange(20, 60), rng.randrange(desc.p),
                              rng.randrange(desc.p)) for x in out[5:12]]
    # differences of nearly equal elements: cancellation, and cells that
    # are zero at their precision
    out += [x - degraded(x, rng) for x in out[5:15]]
    out += [x - x for x in out[5:8]]
    out += [zeros(desc, rng) for _ in range(3)]
    out += [degraded(x, rng) for x in out]
    return out


@pytest.mark.parametrize("p, e0, k, ca1, cmu", CASES,
                         ids=[f"p{c[0]}-e0{c[1]}-a{c[3]}-mu{c[4]}" for c in CASES])
def test_packed_lane_matches_the_y_basis(p, e0, k, ca1, cmu):
    desc, _ = construct_extension(p, e0, (ca1, k), (cmu, k))
    # config monomials are exact: the value c * pi0^k known to the
    # field's full relative precision, so in shift, digits and precision
    # 3*pi0^-7 at p = 3, e0 = 6 is the golden pi0^-1
    f = desc.base
    for m, c in ((desc.a1, ca1), (desc.mu, cmu)):
        assert m == f.monomial(c, k)
        assert m.absprec - m.shift == f.e0 * f.prec_digits
    rng = random.Random(2106 * p + 31 * e0 + 7 * ca1 + cmu)
    for x in pool(desc, rng):
        assert observe(x) == observe(y_route(x))


def test_a_cell_finer_than_mu_is_an_invariant_violation():
    desc, _ = construct_extension(3, 6, (1, -1), (1, -1))
    f = desc.base
    rel_mu = desc.mu.absprec - desc.mu.shift
    fine = K0Element.make(f, 2, [1, 0, 2, 0, 0, 1], 2 + rel_mu + 1)
    rng = random.Random(5)
    x = element_with_valuation(desc, rng, 4)
    rows = [list(r) for r in x.rows]
    rows[1][2] = fine
    with pytest.raises(InvariantViolation):
        K2Element(desc, rows).valuation()


def test_a_mu_that_is_no_monomial_is_rejected():
    ref, _ = construct_extension(3, 6, (1, -1), (1, -1))
    f = ref.base
    mu = f.pi0(-1) + f.one()
    with pytest.raises(InvariantViolation):
        ExtensionDesc(f, ref.a1, mu, ref.target_v2)


def test_a_config_mu_with_a_factor_p_reports_as_the_golden_one(
        tmp_path, capsys):
    # mu = 3*pi0^-7 is the golden mu = pi0^-1, since pi0^6 = 3: the
    # report is the golden one but for the echoed mu
    cfg = tmp_path / "mu.cfg"
    cfg.write_text("p = 3\ne0 = 6\na1 = pi0^-1\nmu = 3*pi0^-7\n")
    assert main(["analyze", "--json", "--config", str(cfg)]) == EXIT_OK
    report = json.loads(capsys.readouterr().out)
    golden = json.loads(
        (Path(__file__).parent / "data" / "analyze_golden.json").read_text())
    assert report["config"]["mu"] == {"coefficient": 3, "pi0_exponent": -7}
    report["config"]["mu"] = golden["config"]["mu"]
    assert report == golden
