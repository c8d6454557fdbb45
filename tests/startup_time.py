"""Start-up time of the CLI, this tree against another checkout.

Not collected by pytest.  Run from the repository root::

    python3 tests/startup_time.py --against DIR [--runs 60]

Each run is a fresh interpreter, with ``PYTHONPATH`` set to one tree's
``src``, that imports ``wittscaffold.cli`` and runs ``validate --json``
on ``perfbench/configs/deep.cfg``: the start-up of a ``validate`` call.
``analyze`` and ``audit`` start the same way, then load the analysis
layers they run.  Runs alternate between the two trees, and so does
which tree goes first in a pair.  Where no bytecode cache is written
(``PYTHONDONTWRITEBYTECODE``) and ``src/`` has none, every run compiles
the modules it loads, so its time grows with their source.  Prints the
median and quartiles of each tree in milliseconds, then the sorted
``wittscaffold`` modules that one untimed ``validate`` start of each
tree loaded, so that a new eager import shows beside the timings.
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
# the same start, then the wittscaffold modules it loaded, on stderr
MODULES_CODE = ("import sys; from wittscaffold.cli import main; "
                "main(['validate', '--json', '--config', sys.argv[1]]); "
                "print(' '.join(sorted(m for m in sys.modules "
                "if m.split('.')[0] == 'wittscaffold')), file=sys.stderr)")


def environment(tree: Path) -> dict:
    return dict(os.environ, PYTHONPATH=str(tree / "src"))


def start(tree: Path) -> float:
    """Seconds of one fresh-interpreter ``validate --json`` run."""
    # a pipe, not DEVNULL: without one, a wait with a timeout polls the
    # child at steps of up to 50 ms, and every time comes out near
    # 64 ms plus a multiple of 50 ms; with one it ends when the pipe does
    t0 = perf_counter()
    subprocess.run([sys.executable, "-c", CODE, str(CONFIG)], check=True,
                   stdout=subprocess.PIPE, env=environment(tree), cwd=tree,
                   timeout=120)
    return perf_counter() - t0


def loaded_modules(tree: Path) -> str:
    """The ``wittscaffold`` modules one ``validate --json`` start loads."""
    proc = subprocess.run([sys.executable, "-c", MODULES_CODE, str(CONFIG)],
                          check=True, stdout=subprocess.DEVNULL,
                          stderr=subprocess.PIPE, text=True,
                          env=environment(tree), cwd=tree, timeout=120)
    return proc.stderr.strip()


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
    for name, tree in trees.items():
        print(f"{name:10} loads {loaded_modules(tree)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
