"""Parameter census: every monomial configuration in a fixed box.

For p = 2, 3 and 5, every config a1 = pi0^-b1, mu = pi0^-m with
e0 < 30, b1 < 12 and m < 8 must get a validation report with exit 0 or
a named validation failure with exit 2: never an invariant violation
(3) or exhausted precision (4).  The number of passing configs is
pinned.  A fixed seeded sample of the passing configs is then analyzed,
and its three freeness routes must agree.  That sample can miss the
non-free branch (at p = 3, 12 of the 197 passing configs, those whose
residue r(b2) does not divide p^2 - 1; none at p = 2 or 5), so a seeded
draw from the non-free passing configs is analyzed as well, and at
p = 3 both verdicts must appear.

A fixed slice of the box at p = 2 and 3 is also run through
``tests/census_full_box.py``'s digests, ``analyze --json`` and
``audit --json --sample 1 --seed 3``, and checked against the lines
pinned in ``tests/data/census_digests.txt``: every config with e0 < 10,
and every config whose residue b1 mod p^2 does not divide p^2 - 1, the
residue classes of the non-free configs.

Each config is written to a file of its own: on some file systems
truncating and rewriting one file costs tens of milliseconds a time.
"""

import json
import random
from pathlib import Path

import pytest

from census_full_box import config_digests, differing, summary
from tests_helpers import CENSUS_BOX
from wittscaffold.cli import EXIT_OK, EXIT_VALIDATION, main

# passing configs in the box, and the size of the analyzed sample of
# them; p = 5 analyses take about 0.8 s each, so fewer are drawn
PASSING = {2: 243, 3: 197, 5: 110}
SAMPLED = {2: 6, 3: 6, 5: 2}
NONFREE_SAMPLED = 2

DIGESTS = Path(__file__).parent / "data" / "census_digests.txt"


def config_text(p, e0, b1, m):
    return f"p = {p}\ne0 = {e0}\na1 = pi0^-{b1}\nmu = pi0^-{m}\n"


def config_file(tmp_path, p, e0, b1, m):
    path = tmp_path / f"p{p}_e{e0}_b{b1}_m{m}.cfg"
    if not path.exists():
        path.write_text(config_text(p, e0, b1, m))
    return str(path)


@pytest.mark.parametrize("p", [2, 3, 5])
def test_census(p, tmp_path, capsys):
    passing = []
    nonfree = []
    for e0, b1, m in CENSUS_BOX:
        rc = main(["validate", "--config", config_file(tmp_path, p, e0, b1, m),
                   "--json"])
        captured = capsys.readouterr()
        assert rc in (EXIT_OK, EXIT_VALIDATION), (e0, b1, m, captured)
        if rc == EXIT_OK:
            passing.append((e0, b1, m))
            r_b2 = json.loads(captured.out)["ramification"]["r_b2"]
            if (p * p - 1) % r_b2:
                nonfree.append((e0, b1, m))
    assert len(passing) == PASSING[p]

    sample = random.Random(2106).sample(passing, SAMPLED[p])
    unsampled = [c for c in nonfree if c not in sample]
    sample += random.Random(2106).sample(
        unsampled, min(NONFREE_SAMPLED, len(unsampled)))
    verdicts = set()
    for e0, b1, m in sample:
        rc = main(["analyze", "--config", config_file(tmp_path, p, e0, b1, m),
                   "--json"])
        captured = capsys.readouterr()
        assert rc == EXIT_OK, (e0, b1, m, captured.err)
        structure = json.loads(captured.out)["module_structure"]
        routes = set(structure["criteria"].values())
        assert routes == {structure["free"]}, (e0, b1, m, structure)
        verdicts.add(structure["free"])
    if p == 3:
        assert verdicts == {True, False}


@pytest.mark.parametrize("p", [2, 3])
def test_census_slice_matches_pinned_digests(p, tmp_path):
    p2 = p * p
    configs = [(e0, b1, m) for e0, b1, m in CENSUS_BOX
               if e0 < 10 or (b1 % p2 and (p2 - 1) % (b1 % p2))]
    lines = []
    for e0, b1, m in configs:
        result = config_digests(p, e0, b1, m, str(tmp_path), audits=True)
        if result is not None:
            lines += result[2]
    configs = set(configs)
    pinned = []
    with open(DIGESTS) as fh:
        for line in fh:
            q, e0, b1, m = map(int, line.split()[:4])
            if q == p and (e0, b1, m) in configs:
                pinned.append(line)
    assert pinned
    assert differing(pinned, lines) == []


def test_check_summary_counts_analyze_and_audit_lines_apart():
    with open(DIGESTS) as fh:
        pinned = fh.readlines()
    changed = ["2 4 1 1 audit", "3 5 1 1 audit", "3 5 1 1"]
    assert summary(pinned, changed) == (
        "analyze 1 of 550 differ; audit 2 of 550 differ")
