"""Start-up time of the CLI, this tree against another checkout.

Not collected by pytest.  Run from the repository root::

    python3 tests/startup_time.py --against DIR [--runs 60]

Each run is a fresh interpreter, with ``PYTHONPATH`` set to one tree's
``src``, that imports ``wittscaffold.cli`` and runs ``validate --json``
on ``perfbench/configs/deep.cfg``, as every CLI call does before
anything else.  Runs
alternate between the two trees, and so does which tree goes first in
a pair.  Where no bytecode cache is written (``PYTHONDONTWRITEBYTECODE``)
and ``src/`` has none, every run compiles the package, so its time
grows with the package's source.  Prints the median and quartiles of
each tree in milliseconds.
"""

from __future__ import annotations

import argparse
import os
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
CONFIG = ROOT / "perfbench" / "configs" / "deep.cfg"
CODE = ("import sys; from wittscaffold.cli import main; "
        "sys.exit(main(['validate', '--json', '--config', sys.argv[1]]))")


def start(tree: Path) -> float:
    """Seconds of one fresh-interpreter ``validate --json`` run."""
    env = dict(os.environ, PYTHONPATH=str(tree / "src"))
    t0 = perf_counter()
    subprocess.run([sys.executable, "-c", CODE, str(CONFIG)], check=True,
                   stdout=subprocess.DEVNULL, env=env, cwd=tree, timeout=120)
    return perf_counter() - t0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--against", type=Path, required=True,
                        help="the other checkout's root directory")
    parser.add_argument("--runs", type=int, default=60,
                        help="runs per tree (default 60)")
    args = parser.parse_args(argv)
    if args.runs < 1:
        parser.error("--runs must be positive")
    trees = {"this tree": ROOT, "against": args.against.resolve()}
    times = {name: [] for name in trees}
    for i in range(args.runs):
        order = list(trees) if i % 2 == 0 else list(trees)[::-1]
        for name in order:
            times[name].append(start(trees[name]))
    print(f"{args.runs} runs per tree, alternating; "
          f"PYTHONDONTWRITEBYTECODE={os.environ.get('PYTHONDONTWRITEBYTECODE', '')}")
    for name, ts in times.items():
        ms = [1000 * t for t in ts]
        q1, q2, q3 = (statistics.quantiles(ms, n=4) if len(ms) > 1
                      else (ms[0],) * 3)
        print(f"{name:10} median {q2:7.1f} ms  quartiles {q1:7.1f} .. {q3:7.1f} ms"
              f"  ({trees[name]})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
