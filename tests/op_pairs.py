"""Time of one ``analyze``, ``audit`` or ``validate`` start, this tree
against another checkout, in alternating process pairs.

Not collected by pytest.  Run from the repository root::

    python3 tests/op_pairs.py --against DIR --p 5 --e0 7 --a1 pi0^-1 --mu pi0^-1 --sample 5
    python3 tests/op_pairs.py --against DIR --p 3 --e0 22 --a1 pi0^-5 --mu pi0^-5 --start

Every process is a fresh interpreter with ``PYTHONPATH`` set to one
tree's ``src``.  By default, or with ``--sample``, a process runs the
operation once untimed, so that the modules it loads are compiled, then
``--reps`` times timed, and reports the median in-process CPU time
(``time.process_time``) of one operation: ``build_context`` then
``analyze_report_dict`` and ``json.dumps``, or, with ``--sample``,
``build_context`` then ``audit_report_dict`` with that many samples.
With ``--start``, the operation is the process itself: ``validate
--json`` on a config of the given parameters, timed by wall clock from
outside, ``--reps`` processes in a row, of which the median counts.
``analyze`` and ``audit`` start the same way, then load the analysis
layers they run.  Where no bytecode cache is written
(``PYTHONDONTWRITEBYTECODE``) and ``src/`` has none, every start
compiles the modules it loads, so its time grows with their source.

Processes alternate between the two trees, and so does which tree goes
first in a pair.  Prints the median and quartiles of each tree's
medians in milliseconds, and in how many pairs this tree was the
faster; with ``--start``, then the sorted ``wittscaffold`` modules that
a start of each tree loaded, so that a new eager import shows beside
the timings.
"""

from __future__ import annotations

import argparse
import os
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path
from time import perf_counter

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
# a validate --json start, then the wittscaffold modules it loaded, on stderr
START_CODE = ("import sys; from wittscaffold.cli import main; "
              "main(['validate', '--json', '--config', sys.argv[1]]); "
              "print(' '.join(sorted(m for m in sys.modules "
              "if m.split('.')[0] == 'wittscaffold')), file=sys.stderr)")


def run(tree: Path, args, config: Path) -> tuple[float, str]:
    """Median seconds of one operation, and for ``--start`` the modules
    the last start loaded."""
    env = dict(os.environ, PYTHONPATH=str(tree / "src"))
    if not args.start:
        sample = "-" if args.sample is None else str(args.sample)
        proc = subprocess.run(
            [sys.executable, "-c", CODE, str(args.p), str(args.e0), args.a1,
             args.mu, sample, str(args.seed), str(args.reps)],
            check=True, stdout=subprocess.PIPE, text=True, cwd=tree, env=env,
            timeout=3600)
        return float(proc.stdout), ""
    times = []
    for _ in range(args.reps):
        # pipes, not DEVNULL: without one, a wait with a timeout polls the
        # child at steps of up to 50 ms, and every time comes out near
        # 64 ms plus a multiple of 50 ms; with one it ends when the pipe does
        t0 = perf_counter()
        proc = subprocess.run(
            [sys.executable, "-c", START_CODE, str(config)], check=True,
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
            cwd=tree, env=env, timeout=120)
        times.append(perf_counter() - t0)
    return statistics.median(times), proc.stderr.strip()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--against", type=Path, required=True,
                        help="the other checkout's root directory")
    parser.add_argument("--p", type=int, required=True)
    parser.add_argument("--e0", type=int, required=True)
    parser.add_argument("--a1", required=True, help="a monomial, e.g. pi0^-1")
    parser.add_argument("--mu", required=True, help="a monomial, e.g. pi0^-1")
    operation = parser.add_mutually_exclusive_group()
    operation.add_argument("--sample", type=int,
                           help="time audit with this many samples, not analyze")
    operation.add_argument("--start", action="store_true",
                           help="time fresh validate --json starts, not analyze")
    parser.add_argument("--seed", type=int, default=1, help="audit seed (default 1)")
    parser.add_argument("--pairs", type=int, default=10,
                        help="process pairs (default 10)")
    parser.add_argument("--reps", type=int, default=5,
                        help="timed operations per process, or starts per "
                             "tree and pair (default 5)")
    args = parser.parse_args(argv)
    if args.pairs < 1 or args.reps < 1:
        parser.error("--pairs and --reps must be positive")
    trees = {"this tree": ROOT, "against": args.against.resolve()}
    times = {name: [] for name in trees}
    modules = {}
    with tempfile.TemporaryDirectory() as tmp:
        config = Path(tmp) / "op.cfg"
        config.write_text(f"p = {args.p}\ne0 = {args.e0}\n"
                          f"a1 = {args.a1}\nmu = {args.mu}\n")
        for i in range(args.pairs):
            order = list(trees) if i % 2 == 0 else list(trees)[::-1]
            for name in order:
                t, modules[name] = run(trees[name], args, config)
                times[name].append(t)
    if args.start:
        op = "validate --json start"
        how = (f"median wall time of {args.reps} starts per tree and pair; "
               "PYTHONDONTWRITEBYTECODE="
               f"{os.environ.get('PYTHONDONTWRITEBYTECODE', '')}")
    else:
        op = "analyze" if args.sample is None else f"audit --sample {args.sample}"
        how = f"median CPU of {args.reps} operations per process"
    print(f"p={args.p} e0={args.e0} a1={args.a1} mu={args.mu} {op}: "
          f"{args.pairs} pairs, {how}")
    for name, ts in times.items():
        ms = [1000 * t for t in ts]
        q1, q2, q3 = (statistics.quantiles(ms, n=4) if len(ms) > 1
                      else (ms[0],) * 3)
        print(f"{name:10} median {q2:9.1f} ms  quartiles {q1:9.1f} .. {q3:9.1f} ms"
              f"  ({trees[name]})")
    wins = sum(a < b for a, b in zip(times["this tree"], times["against"]))
    print(f"this tree faster in {wins} of {args.pairs} pairs")
    if args.start:
        for name, loaded in modules.items():
            print(f"{name:10} loads {loaded}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
