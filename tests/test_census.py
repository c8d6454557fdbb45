"""Parameter census: every monomial configuration in a fixed box.

For p = 2 and p = 3, every config a1 = pi0^-b1, mu = pi0^-m with
e0 < 30, b1 < 12 and m < 8 must get a validation report with exit 0 or
a named validation failure with exit 2: never an invariant violation
(3) or exhausted precision (4).  A fixed seeded sample of the passing
configs is then analyzed, and its three freeness routes must agree.
That sample can miss the non-free branch (at p = 3, 12 of the 197
passing configs, those whose residue r(b2) does not divide p^2 - 1;
none at p = 2), so a seeded draw from the non-free passing configs is
analyzed as well, and at p = 3 both verdicts must appear.
"""

import json
import random

import pytest

from wittscaffold.cli import EXIT_OK, EXIT_VALIDATION, main

BOX = [(e0, b1, m) for e0 in range(30) for b1 in range(12) for m in range(8)]
SAMPLED = 6
NONFREE_SAMPLED = 2


def config_text(p, e0, b1, m):
    return f"p = {p}\ne0 = {e0}\na1 = pi0^-{b1}\nmu = pi0^-{m}\n"


@pytest.mark.parametrize("p", [2, 3])
def test_census(p, tmp_path, capsys):
    path = tmp_path / "census.cfg"
    passing = []
    nonfree = []
    for e0, b1, m in BOX:
        path.write_text(config_text(p, e0, b1, m))
        rc = main(["validate", "--config", str(path), "--json"])
        captured = capsys.readouterr()
        assert rc in (EXIT_OK, EXIT_VALIDATION), (e0, b1, m, captured)
        if rc == EXIT_OK:
            passing.append((e0, b1, m))
            r_b2 = json.loads(captured.out)["ramification"]["r_b2"]
            if (p * p - 1) % r_b2:
                nonfree.append((e0, b1, m))
    # a census that passes nothing, or everything, checks nothing
    assert 0 < len(passing) < len(BOX)

    sample = random.Random(2106).sample(passing, SAMPLED)
    unsampled = [c for c in nonfree if c not in sample]
    sample += random.Random(2106).sample(
        unsampled, min(NONFREE_SAMPLED, len(unsampled)))
    verdicts = set()
    for e0, b1, m in sample:
        path.write_text(config_text(p, e0, b1, m))
        rc = main(["analyze", "--config", str(path), "--json"])
        captured = capsys.readouterr()
        assert rc == EXIT_OK, (e0, b1, m, captured.err)
        structure = json.loads(captured.out)["module_structure"]
        routes = set(structure["criteria"].values())
        assert routes == {structure["free"]}, (e0, b1, m, structure)
        verdicts.add(structure["free"])
    if p == 3:
        assert verdicts == {True, False}
