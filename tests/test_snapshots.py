"""Byte-stability of the JSON reports.

The stored files under ``tests/data/`` are the ``analyze --json`` and
``audit --json --sample 20 --seed 1`` outputs of the code before the
scaffold operators became group-ring elements; the p = 5 report is the
output of the code before K2 products and linear combinations became
fused K0 sums of products.  The fault-injected golden audit and the
deep audit are the outputs of the code before the K2 basis change, the
residue index and the resolvability rule each got one implementation.
The p = 5 audit is the output of the code before the scaffold words
became one table built once per build.  The p = 5 non-free report is
the output of the code before the rho family's one orbit of rho came
to serve freeness route 3 and the audit.  The "residual floors" detail
of generator-defining-relations in the five audits is the output of
the code after each Hensel step came to invert its derivative only to
min(lift target - rv, (p-1)*rv), for a residual of valuation rv: the
detail prints the floors of the relation residuals, which lie past the
lift target by as much as the last step overshoots it, and that change
moved the overshoot.  At p = 2 the x1 lift's first step lands on the
exact root, whose residual vanishes at its precision and prints as
O(prec).  The detail of subgroup-fixes-first-generator is the output of
the code after that check came to read sigma1^p(x1).
Any change of representation must reproduce them byte for byte, with
the same exit code.
"""

from pathlib import Path

import pytest

from wittscaffold.cli import EXIT_INVARIANT, EXIT_OK, main

DATA = Path(__file__).parent / "data"

CONFIGS = {
    # the worked example of the paper
    "golden": "p = 3\ne0 = 6\na1 = pi0^-1\nmu = pi0^-1\n",
    # the smallest non-free p = 3 case
    "deep": "p = 3\ne0 = 22\na1 = pi0^-5\nmu = pi0^-5\n",
    "p2": "p = 2\ne0 = 4\na1 = pi0^-1\nmu = pi0^-1\n",
    # the smallest p = 5 case: 625-term products, a 5-term x2 relation
    "p5": "p = 5\ne0 = 7\na1 = pi0^-1\nmu = pi0^-1\n",
    # the first non-free p = 5 case met in a scan of e0 30-79, b1 < 40,
    # m < 12: r(b2) = 7, b2 = 182
    "p5_nonfree": "p = 5\ne0 = 43\na1 = pi0^-7\nmu = pi0^-7\n",
}

AUDIT_S1 = ["audit", "--sample", "20", "--seed", "1"]

# stored report, config, arguments, expected exit code
RUNS = [
    ("analyze_golden.json", "golden", ["analyze"], EXIT_OK),
    ("analyze_deep.json", "deep", ["analyze"], EXIT_OK),
    ("analyze_p2.json", "p2", ["analyze"], EXIT_OK),
    ("analyze_p5.json", "p5", ["analyze"], EXIT_OK),
    # freeness route 3 on the non-free branch at p = 5
    ("analyze_p5_nonfree.json", "p5_nonfree", ["analyze"], EXIT_OK),
    ("audit_golden_s1.json", "golden", AUDIT_S1, EXIT_OK),
    ("audit_p2_s1.json", "p2", AUDIT_S1, EXIT_OK),
    # the negative control: a corrupted sigma1 fails
    # generator-defining-relations, witt-congruence and congruence-grid
    ("audit_golden_fault_sigma1_s2.json", "golden",
     ["audit", "--sample", "5", "--seed", "2", "--fault-inject", "sigma1"],
     EXIT_INVARIANT),
    # the audit on the non-free branch
    ("audit_deep_s4.json", "deep", ["audit", "--sample", "3", "--seed", "4"],
     EXIT_OK),
    # the congruence grid, shift law and normal-basis rank at p = 5
    ("audit_p5_s3.json", "p5", ["audit", "--sample", "1", "--seed", "3"],
     EXIT_OK),
]


@pytest.mark.parametrize("stored, config, args, exit_code", RUNS,
                         ids=[r[0].removesuffix(".json") for r in RUNS])
def test_report_is_byte_identical(stored, config, args, exit_code, tmp_path,
                                  capsys):
    cfg = tmp_path / f"{config}.cfg"
    cfg.write_text(CONFIGS[config])
    assert main([*args, "--config", str(cfg), "--json"]) == exit_code
    assert capsys.readouterr().out == (DATA / stored).read_text()


@pytest.mark.parametrize("config", ["golden", "deep"])
def test_retry_from_zero_guard_digits_gives_the_same_report(config, tmp_path,
                                                            capsys):
    # neither builds with 0 guard digits; the retries end at 4 (golden)
    # and 8 (deep) guard digits, with the report of the default
    cfg = tmp_path / f"{config}.cfg"
    cfg.write_text(CONFIGS[config])
    argv = ["analyze", "--config", str(cfg), "--json", "--guard-digits", "0"]
    assert main(argv) == EXIT_OK
    assert capsys.readouterr().out == (DATA / f"analyze_{config}.json").read_text()
