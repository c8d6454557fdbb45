"""Full-box census: ``analyze --json`` on every passing config of the box.

For each prime, every config a1 = pi0^-b1, mu = pi0^-m of the census box
(e0 < 30, b1 < 12, m < 8) that ``validate`` passes is analyzed in
process, and one table row per prime is printed:

    | p | passing | free | non-free | exit 3/4 | time |

With ``--digests FILE``, each analyzed config is also audited
(``audit --json --sample 1 --seed 3``), and two lines per config are
written there: ``p e0 b1 m rc digest`` for ``analyze`` and
``p e0 b1 m audit rc digest`` for the audit, the digest being the
SHA-256 of the exit code and the report, so that two trees can be
compared config by config (``diff`` of the two files).  With
``--check FILE``, the same lines are compared with those of FILE for
the primes run; every config whose line differs, or that only one
side has, is named, the exit code is 1, and a last line counts the
differing ``analyze`` and audit lines apart (``analyze 0 of 550
differ; audit 3 of 550 differ``).  The lines of the current
tree are pinned in ``tests/data/census_digests.txt``.  The exit code
is also 1 when any config exits 3 or 4 in ``analyze``.  Run from the
repository root (on one core of a 2-vCPU host, about 55 s for all
three primes without audits: 5 s at p = 2, 10 s at p = 3 and 39 s at
p = 5; with ``--digests`` or ``--check`` about 45 s for p = 2 and 3
and 12 minutes for p = 5, most of them the p = 5 audits):

    PYTHONPATH=src python3 tests/census_full_box.py --primes 2 3 5 --check tests/data/census_digests.txt

The file name keeps pytest from collecting it.
"""

from __future__ import annotations

import argparse
import hashlib
import io
import json
import os
import sys
import tempfile
import time
from contextlib import redirect_stderr, redirect_stdout

from tests_helpers import CENSUS_BOX


def run_cli(argv: list[str]) -> tuple[int, str]:
    from wittscaffold.cli import main

    out = io.StringIO()
    with redirect_stdout(out), redirect_stderr(io.StringIO()):
        rc = main(argv)
    return rc, out.getvalue()


def digest_line(fields: str, rc: int, out: str) -> str:
    digest = hashlib.sha256(f"{rc}\n{out}".encode()).hexdigest()
    return f"{fields} {rc} {digest}\n"


def config_digests(p: int, e0: int, b1: int, m: int, tmp: str,
                   audits: bool):
    """(analyze exit code, report, digest lines) for one config, or None
    when ``validate`` rejects it; the lines include the audit's digest
    when ``audits`` is set."""
    path = os.path.join(tmp, f"p{p}_e{e0}_b{b1}_m{m}.cfg")
    with open(path, "w") as fh:
        fh.write(f"p = {p}\ne0 = {e0}\na1 = pi0^-{b1}\nmu = pi0^-{m}\n")
    if run_cli(["validate", "--json", "--config", path])[0] != 0:
        return None
    rc, out = run_cli(["analyze", "--json", "--config", path])
    lines = [digest_line(f"{p} {e0} {b1} {m}", rc, out)]
    if audits:
        arc, aout = run_cli(["audit", "--json", "--sample", "1", "--seed",
                             "3", "--config", path])
        lines.append(digest_line(f"{p} {e0} {b1} {m} audit", arc, aout))
    return rc, out, lines


def census(p: int, tmp: str, audits: bool):
    """(row of the table, digest lines) for one prime; the lines include
    one audit digest per config when ``audits`` is set."""
    start = time.perf_counter()
    passing = free = nonfree = failed = 0
    lines = []
    for e0, b1, m in CENSUS_BOX:
        result = config_digests(p, e0, b1, m, tmp, audits)
        if result is None:
            continue
        rc, out, config_lines = result
        passing += 1
        if rc in (3, 4):
            failed += 1
        elif rc == 0:
            if json.loads(out)["module_structure"]["free"]:
                free += 1
            else:
                nonfree += 1
        lines += config_lines
    row = (p, passing, free, nonfree, failed, time.perf_counter() - start)
    return row, lines


def differing(pinned: list[str], lines: list[str]) -> list[str]:
    """The fields (``p e0 b1 m``, or ``p e0 b1 m audit``) of every line
    that differs between the two lists or is in only one of them."""
    def by_fields(entries):
        return {line.rsplit(" ", 2)[0]: line for line in entries}

    old, new = by_fields(pinned), by_fields(lines)
    return [k for k in dict.fromkeys([*old, *new]) if old.get(k) != new.get(k)]


def summary(pinned: list[str], changed: list[str]) -> str:
    """One line counting the differing ``analyze`` and audit lines
    apart, each against the pinned lines of its kind."""
    pinned_fields = [line.rsplit(" ", 2)[0] for line in pinned]
    parts = []
    for name, audit in (("analyze", False), ("audit", True)):
        total = sum(f.endswith(" audit") == audit for f in pinned_fields)
        count = sum(f.endswith(" audit") == audit for f in changed)
        parts.append(f"{name} {count} of {total} differ")
    return "; ".join(parts)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--primes", type=int, nargs="+", default=[2, 3, 5])
    parser.add_argument("--digests", metavar="FILE",
                        help="write the analyze and audit SHA-256s of each config here")
    parser.add_argument("--check", metavar="FILE",
                        help="compare those SHA-256s with the lines of FILE "
                             "for the primes run")
    args = parser.parse_args(argv)
    audits = bool(args.digests or args.check)

    print("| p | passing | free | non-free | exit 3/4 | time |")
    print("| - | ------- | ---- | -------- | -------- | ---- |")
    failed = 0
    digests = []
    with tempfile.TemporaryDirectory() as tmp:
        for p in args.primes:
            (p, passing, free, nonfree, bad, seconds), lines = census(
                p, tmp, audits)
            failed += bad
            digests += lines
            print(f"| {p} | {passing} | {free} | {nonfree} | "
                  f"{bad or 'none'} | {seconds:.0f} s |")
            sys.stdout.flush()
    if args.digests:
        with open(args.digests, "w") as fh:
            fh.writelines(digests)
    if args.check:
        with open(args.check) as fh:
            pinned = [line for line in fh
                      if int(line.split()[0]) in args.primes]
        changed = differing(pinned, digests)
        for fields in changed:
            print(f"differs: {fields}")
        print(f"{len(changed)} of {len(pinned)} pinned lines differ "
              f"from {args.check}")
        print(summary(pinned, changed))
        failed += len(changed)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
