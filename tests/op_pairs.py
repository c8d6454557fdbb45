"""CPU time of one ``analyze`` or ``audit``, this tree against another
checkout, in alternating process pairs.

Not collected by pytest.  Run from the repository root::

    python3 tests/op_pairs.py --against DIR --p 5 --e0 7 --a1 pi0^-1 --mu pi0^-1 --sample 5

Each process is a fresh interpreter, with ``PYTHONPATH`` set to one
tree's ``src``, that runs the operation once untimed, so that the
modules it loads are compiled, then ``--reps`` times timed, and reports
the median in-process CPU time (``time.process_time``) of one operation:
``build_context`` then ``analyze_report_dict`` and ``json.dumps``, or,
with ``--sample``, ``build_context`` then ``audit_report_dict`` with that
many samples.  Processes alternate between the two trees, and so does
which tree goes first in a pair.  Prints the median and quartiles of
each tree's process medians in milliseconds, and in how many pairs this
tree was the faster.
"""

from __future__ import annotations

import argparse
import os
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
CODE = """\
import json, statistics, sys, time
from wittscaffold.cli import parse_monomial
from wittscaffold.pipeline import (JobConfig, analyze_report_dict,
                                   audit_report_dict, build_context)
p, e0, a1, mu, sample, seed, reps = sys.argv[1:]
config = JobConfig(p=int(p), e0=int(e0), a1=parse_monomial(a1),
                   mu=parse_monomial(mu))

def operation():
    ctx = build_context(config)
    if sample == "-":
        json.dumps(analyze_report_dict(ctx), sort_keys=True, indent=2)
    else:
        audit_report_dict(ctx, int(sample), int(seed))

operation()
times = []
for _ in range(int(reps)):
    t0 = time.process_time()
    operation()
    times.append(time.process_time() - t0)
print(statistics.median(times))
"""


def run(tree: Path, args) -> float:
    """Median CPU seconds of one operation in a fresh interpreter."""
    sample = "-" if args.sample is None else str(args.sample)
    proc = subprocess.run(
        [sys.executable, "-c", CODE, str(args.p), str(args.e0), args.a1,
         args.mu, sample, str(args.seed), str(args.reps)],
        check=True, stdout=subprocess.PIPE, text=True, cwd=tree,
        env=dict(os.environ, PYTHONPATH=str(tree / "src")), timeout=3600)
    return float(proc.stdout)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--against", type=Path, required=True,
                        help="the other checkout's root directory")
    parser.add_argument("--p", type=int, required=True)
    parser.add_argument("--e0", type=int, required=True)
    parser.add_argument("--a1", required=True, help="a monomial, e.g. pi0^-1")
    parser.add_argument("--mu", required=True, help="a monomial, e.g. pi0^-1")
    parser.add_argument("--sample", type=int,
                        help="time audit with this many samples, not analyze")
    parser.add_argument("--seed", type=int, default=1, help="audit seed (default 1)")
    parser.add_argument("--pairs", type=int, default=10,
                        help="process pairs (default 10)")
    parser.add_argument("--reps", type=int, default=5,
                        help="timed operations per process (default 5)")
    args = parser.parse_args(argv)
    if args.pairs < 1 or args.reps < 1:
        parser.error("--pairs and --reps must be positive")
    trees = {"this tree": ROOT, "against": args.against.resolve()}
    times = {name: [] for name in trees}
    for i in range(args.pairs):
        order = list(trees) if i % 2 == 0 else list(trees)[::-1]
        for name in order:
            times[name].append(run(trees[name], args))
    op = "analyze" if args.sample is None else f"audit --sample {args.sample}"
    print(f"p={args.p} e0={args.e0} a1={args.a1} mu={args.mu} {op}: "
          f"{args.pairs} pairs, median CPU of {args.reps} operations per process")
    for name, ts in times.items():
        ms = [1000 * t for t in ts]
        q1, q2, q3 = (statistics.quantiles(ms, n=4) if len(ms) > 1
                      else (ms[0],) * 3)
        print(f"{name:10} median {q2:9.1f} ms  quartiles {q1:9.1f} .. {q3:9.1f} ms"
              f"  ({trees[name]})")
    wins = sum(a < b for a, b in zip(times["this tree"], times["against"]))
    print(f"this tree faster in {wins} of {args.pairs} pairs")
    return 0


if __name__ == "__main__":
    sys.exit(main())
