"""The packed lane of ``K2Element._compute_stats`` against the route it
replaced, the statistics read off ``y_coefficients``.

For every element of a seeded pool, ``valuation`` (or its exception),
``val_floor``, ``precision`` and ``vanishes`` must agree between the
two routes.  The pool covers p = 2, 3 and 5, mu and a1 with digits 1, 2
and -1, cells that are zero at their precision, degraded precisions,
negative shifts, widely spread shifts and the all-zero element.  A
crafted element with a cell known to more relative digits than mu, and
every element of an extension whose mu is no monomial, must take the
fallback.  So do some valuations of a build from a config file whose mu
has a coefficient divisible by p, and its report must not change.
"""

import json
import random
from pathlib import Path

import pytest

from test_k2_differential import degraded
from wittscaffold.audit import element_with_valuation
from wittscaffold.cli import EXIT_OK, main
from wittscaffold.construction import construct_extension
from wittscaffold.errors import IndeterminateValuation
from wittscaffold.padic import K0Element
from wittscaffold.tower import ExtensionDesc, K2Element, _packed_stats

# (p, e0, pi0 exponent of a1 and mu, digit of a1, digit of mu)
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
    y._scache = y._y_stats()
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
    rng = random.Random(2106 * p + 31 * e0 + 7 * ca1 + cmu)
    for x in pool(desc, rng):
        assert _packed_stats(x) is not None
        assert observe(x) == observe(y_route(x))


def test_a_cell_finer_than_mu_takes_the_fallback():
    desc, _ = construct_extension(3, 6, (1, -1), (1, -1))
    f = desc.base
    rel_mu = desc.mu.absprec - desc.mu.shift
    fine = K0Element.make(f, 2, [1, 0, 2, 0, 0, 1], 2 + rel_mu + 1)
    rng = random.Random(5)
    x = element_with_valuation(desc, rng, 4)
    rows = [list(r) for r in x.rows]
    rows[1][2] = fine
    crafted = K2Element(desc, rows)
    assert _packed_stats(crafted) is None
    assert observe(crafted) == observe(y_route(crafted))


def test_a_mu_that_is_no_monomial_takes_the_fallback():
    ref, _ = construct_extension(3, 6, (1, -1), (1, -1))
    f = ref.base
    mu = f.pi0(-1) + f.one()
    desc = ExtensionDesc(f, ref.a1, mu, ref.target_v2)
    assert desc._lane is None
    for k, i, j in [(0, 0, 0), (2, 1, 1), (-1, 2, 2), (3, 0, 2)]:
        x = desc.monomial(k, i, j)
        assert _packed_stats(x) is None
        assert x.valuation() == desc.monomial_valuation(k, i, j)


def test_a_config_whose_mu_is_known_to_fewer_digits_takes_the_fallback(
        tmp_path, monkeypatch, capsys):
    # mu = 3*pi0^-7 is the golden mu = pi0^-1, since pi0^6 = 3, but known
    # to 6 fewer relative digits: cells known to more relative digits
    # than mu occur, and 9 valuations of the build take the y-basis
    # route.  The report is the golden one but for the echoed mu.
    calls = []
    y_stats = K2Element._y_stats

    def counted(self):
        calls.append(self)
        return y_stats(self)

    monkeypatch.setattr(K2Element, "_y_stats", counted)
    cfg = tmp_path / "mu.cfg"
    cfg.write_text("p = 3\ne0 = 6\na1 = pi0^-1\nmu = 3*pi0^-7\n")
    assert main(["analyze", "--json", "--config", str(cfg)]) == EXIT_OK
    assert len(calls) == 9
    report = json.loads(capsys.readouterr().out)
    golden = json.loads(
        (Path(__file__).parent / "data" / "analyze_golden.json").read_text())
    assert report["config"]["mu"] == {"coefficient": 3, "pi0_exponent": -7}
    report["config"]["mu"] = golden["config"]["mu"]
    assert report == golden
