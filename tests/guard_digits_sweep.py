"""Guard-digit sweep over the census box.

For each prime, every config a1 = pi0^-b1, mu = pi0^-m with e0 < 30,
b1 < 12 and m < 8 that passes construction (``construct_extension``
raises no ``ValidationFailure``) runs

    analyze --json
    audit --json --sample 1 --seed 3

with each guard-digit count given and with 16, the count the package
used before it had a sweep.  Every config whose output or exit code
differs from its 16-digit run is listed, and the exit code is 1 when
any does.  The default guard digits are the fewest at which none
differs.  Run from the repository root (about 10 minutes for p = 2 and
3 and an hour for p = 5 on two cores):

    PYTHONPATH=src python3 tests/guard_digits_sweep.py --digits 11 10 --primes 2 3 5 --jobs 2

The file name keeps pytest from collecting it.
"""

from __future__ import annotations

import argparse
import io
import multiprocessing
import os
import sys
import tempfile
import time
from contextlib import redirect_stderr, redirect_stdout

from tests_helpers import CENSUS_BOX

REFERENCE_DIGITS = 16
COMMANDS = {
    "analyze": ["analyze", "--json"],
    "audit": ["audit", "--json", "--sample", "1", "--seed", "3"],
}


def constructible(p: int) -> list[tuple[int, int, int]]:
    from wittscaffold.construction import construct_extension
    from wittscaffold.errors import ValidationFailure

    out = []
    for e0, b1, m in CENSUS_BOX:
        if e0 < 1:
            continue
        try:
            construct_extension(p, e0, (1, -b1), (1, -m))
        except ValidationFailure:
            continue
        out.append((e0, b1, m))
    return out


def run_cli(argv: list[str]) -> tuple[int, str]:
    from wittscaffold.cli import main

    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        rc = main(argv)
    return rc, out.getvalue() + err.getvalue()


def sweep_config(task):
    """{(command, digits): (exit code, output)} for one config."""
    p, (e0, b1, m), digit_counts = task
    fd, path = tempfile.mkstemp(suffix=".cfg")
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(f"p = {p}\ne0 = {e0}\na1 = pi0^-{b1}\nmu = pi0^-{m}\n")
        return {(name, d): run_cli([*argv, "--config", path,
                                    "--guard-digits", str(d)])
                for name, argv in COMMANDS.items() for d in digit_counts}
    finally:
        os.unlink(path)


def first_difference(a: str, b: str) -> str:
    for x, y in zip(a.splitlines(), b.splitlines()):
        if x != y:
            return f"{x.strip()!r} (16: {y.strip()!r})"
    return "lengths differ"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--digits", type=int, nargs="+", required=True,
                        help="guard-digit counts compared against 16")
    parser.add_argument("--primes", type=int, nargs="+", default=[2, 3, 5])
    parser.add_argument("--jobs", type=int, default=1,
                        help="worker processes (spawned)")
    args = parser.parse_args(argv)
    if args.jobs < 1:
        parser.error("--jobs must be at least 1")
    counts = sorted(set(args.digits) | {REFERENCE_DIGITS})

    ctx = multiprocessing.get_context("spawn")
    any_difference = False
    with ctx.Pool(args.jobs) as pool:
        for p in args.primes:
            start = time.perf_counter()
            configs = constructible(p)
            tasks = [(p, cfg, counts) for cfg in configs]
            results = pool.map(sweep_config, tasks, chunksize=1)
            elapsed = time.perf_counter() - start
            print(f"p = {p}: {len(configs)} constructible configs, "
                  f"{elapsed:.0f} s")
            for d in args.digits:
                if d == REFERENCE_DIGITS:
                    continue
                for name in COMMANDS:
                    differing = [
                        (cfg, res[(name, d)], res[(name, REFERENCE_DIGITS)])
                        for cfg, res in zip(configs, results)
                        if res[(name, d)] != res[(name, REFERENCE_DIGITS)]]
                    any_difference |= bool(differing)
                    print(f"  {d} digits, {name}: {len(differing)} differ")
                    for (e0, b1, m), (rc, out), (rc16, out16) in differing:
                        print(f"    e0={e0} a1=pi0^-{b1} mu=pi0^-{m}: "
                              f"exit {rc} (16: {rc16}), "
                              f"{first_difference(out, out16)}")
            sys.stdout.flush()
    return 1 if any_difference else 0


if __name__ == "__main__":
    sys.exit(main())
