"""Time-to-verdict benchmark for wittscaffold's ``analyze`` and ``audit``.

Run from the repository root::

    python3 perfbench/run.py --workload analyze-golden --seed 1 --seconds 60 --trace 0
    python3 perfbench/run.py --self-check

The workloads, their configs and their known answers are in
``perfbench/workloads.json``.  Each run is a closed loop with one caller
in one thread: an operation starts when the previous one has ended, and
operations start until ``--seconds`` would be exceeded (at least one).

``--trace 0`` reports the end-to-end metrics, all with tracing off:

* ``verdict_s``: median wall time of one in-process operation, that is
  ``build_context`` then ``analyze_report_dict`` and ``json.dumps`` on
  the analyze workloads, or ``build_context`` then
  ``audit_report_dict`` on ``audit-golden`` (``analyze_s`` and
  ``audit_s`` in the printed table);
* ``setup_s``: median wall time of a fresh interpreter that imports
  wittscaffold and validates the workload's config, as every CLI call
  does before it analyzes anything, sampled before each operation and
  after the last;
* ``peak_rss_mb``: peak resident memory of this process.

``--trace 1`` runs the traced pass of ``tracing.py``, a fixed amount of
work that ignores ``--seconds``, and reports the per-layer metrics.  Every operation is checked against the known
answers; a failed check makes ``correct`` false and the exit code 1.
``--self-check`` runs the negative control: one fault-injected audit
must register as failed.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  A record of
the run, with the host data and any spans, is written under
``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
from argparse import Namespace
from pathlib import Path
from time import perf_counter

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"

# setup samples are taken in batches before each operation and after the
# last, so that setup_s spans the run like verdict_s does
SETUP_BATCH = 5
SETUP_CODE = ("import sys; from wittscaffold.cli import main; "
              "sys.exit(main(['validate', '--json', '--config', sys.argv[1]]))")
CALIBRATION_ROUNDS = 3

# (name, unit) of every end-to-end metric
END_TO_END = (("verdict_s", "s"), ("setup_s", "s"), ("peak_rss_mb", "MB"))


def mismatches(report: dict, expect: dict) -> list[str]:
    """Known-answer differences; keys are dotted paths into the report."""
    missing = object()
    out = []
    for path, want in expect.items():
        got = report
        for key in path.split("."):
            got = got.get(key, missing) if isinstance(got, dict) else missing
        if got is missing:
            out.append(f"{path}: missing, want {want!r}")
        elif got != want:
            out.append(f"{path}: got {got!r}, want {want!r}")
    return out


def run_op(wl: dict, config, seed: int, fault: str | None = None) -> tuple[dict, str]:
    """One in-process analyze or audit; returns the report and its JSON."""
    from wittscaffold.pipeline import analyze_report_dict, audit_report_dict, build_context
    ctx = build_context(config, fault=fault)
    if wl["op"] == "audit":
        report = audit_report_dict(ctx, wl["sample"], seed)
    else:
        report = analyze_report_dict(ctx)
    return report, json.dumps(report, sort_keys=True, indent=2)


def checked_op(wl, config, seed, fault=None) -> tuple[float, list[str], str | None]:
    """Time one operation after a collection; list what went wrong."""
    gc.collect()
    t0 = perf_counter()
    try:
        report, text = run_op(wl, config, seed, fault)
    except Exception as exc:  # a raising operation is a failed one
        return perf_counter() - t0, [f"raised {type(exc).__name__}: {exc}"], None
    elapsed = perf_counter() - t0
    return elapsed, mismatches(report, wl["expect"]), text


def setup_once(wl: dict) -> tuple[float, list[str]]:
    """Fresh interpreter: import wittscaffold and validate the config."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    t0 = perf_counter()
    proc = subprocess.run([sys.executable, "-c", SETUP_CODE, str(wl["config_path"])],
                          capture_output=True, text=True, env=env, cwd=ROOT,
                          timeout=120)
    elapsed = perf_counter() - t0
    if proc.returncode != 0:
        return elapsed, [f"validate exited {proc.returncode}: {proc.stderr.strip()}"]
    report = json.loads(proc.stdout)
    ram = {k: v for k, v in wl["analyze_expect"].items()
           if k.startswith("ramification.")}
    return elapsed, mismatches(report, {"passed": True, **ram})


def tail_percentile(values: list[float]):
    """Highest of p99..p50 with at least ten samples beyond it, or None."""
    ordered = sorted(values)
    n = len(ordered)
    for q in (99, 95, 90, 75, 50):
        if n * (100 - q) / 100 >= 10:
            return q, ordered[-(n * (100 - q) // 100) - 1]
    return None


def calibration_ms() -> float:
    """A fixed pure-Python loop, to tell host drift from a regression."""
    times = []
    for _ in range(CALIBRATION_ROUNDS):
        t0 = perf_counter()
        acc = 0
        for i in range(1_000_000):
            acc = (acc * 31 + i) % 1_000_003
        times.append(perf_counter() - t0)
    return 1e3 * statistics.median(times)


def git_sha() -> str | None:
    try:
        # the ceiling keeps git from reporting an enclosing repository
        proc = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True,
                              text=True, cwd=ROOT, timeout=30,
                              env=dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent)))
    except OSError:
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def host_record() -> dict:
    return {
        "calibration_ms": calibration_ms(),
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "loadavg": os.getloadavg(),
        "git_sha": git_sha(),
    }


def end_to_end(name: str, wl: dict, config, seed: int, seconds: float) -> dict:
    failures: list[str] = []
    failed = 0
    setup = []

    def setup_batch():
        nonlocal failed
        for _ in range(SETUP_BATCH):
            elapsed, problems = setup_once(wl)
            setup.append(elapsed)
            failed += bool(problems)
            failures.extend(f"setup {len(setup)}: {p}" for p in problems)

    times = []
    first_text = None
    deadline = perf_counter() + seconds
    while True:
        setup_batch()
        elapsed, problems, text = checked_op(wl, config, seed)
        times.append(elapsed)
        if text is not None:
            if first_text is None:
                first_text = text
            elif text != first_text:
                problems.append("report differs from the first report of the run")
        failed += bool(problems)
        if problems:
            failures += [f"operation {len(times)}: {p}" for p in problems]
        if perf_counter() + elapsed > deadline:
            break
    setup_batch()

    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    label = "analyze_s" if wl["op"] == "analyze" else "audit_s"
    samples = {"verdict_s": times, "setup_s": setup, "peak_rss_mb": [rss_mb]}
    print(f"{name}: closed loop, one caller, {len(times)} operations in "
          f"{sum(times):.1f} s")
    for metric, unit in END_TO_END:
        values = samples[metric]
        shown = f"{metric} ({label})" if metric == "verdict_s" else metric
        line = (f"  {shown:<22} {statistics.median(values):>12.6f} {unit:<5} "
                f"median of {len(values)}")
        tail = tail_percentile(values)
        if tail is not None:
            line += f", p{tail[0]} {tail[1]:.6f}"
        print(line)
    attempted = len(times) + len(setup)
    print(f"  {'fail_share':<22} {failed / attempted:>12.6f} {'':<5} "
          f"{failed} of {attempted} operations")
    return {
        "attempted": attempted,
        "failed": failed,
        "failures": failures,
        "samples": samples,
        "metrics": {m: {"value": statistics.median(samples[m]), "unit": u}
                    for m, u in END_TO_END},
    }


def traced(wl: dict, config, seed: int, workloads: dict) -> dict:
    from tracing import PER_LAYER, traced_run
    audit_wl = resolve(workloads, workloads["audit_reference"])
    result = traced_run(wl, config, seed, audit_wl,
                        load_config(audit_wl["config_path"]), mismatches)
    print("per-layer metrics (traced run):")
    for metric, unit in PER_LAYER:
        value, n = result["metrics"][metric]
        print(f"  {metric:<30} {value:>14.6f} {unit:<6} {n} sample(s)")
    print(f"layer shares of the traced operation ({result['operation_ms']:.1f} ms):")
    for layer, share in result["shares"].items():
        print(f"  {layer:<30} {share:>8.2%}")
    failures = [f"{what}: {p}" for what, ps in result["problems"].items() for p in ps]
    return {
        "attempted": len(result["problems"]),
        "failed": sum(1 for ps in result["problems"].values() if ps),
        "failures": failures,
        "shares": result["shares"],
        "spans": result["spans"],
        "metrics": {m: {"value": result["metrics"][m][0], "unit": u}
                    for m, u in PER_LAYER},
    }


def resolve(workloads: dict, name: str) -> dict:
    """The workload with its case's config path and known answers; the
    expectations of an analyze operation are its case's answers."""
    wl = dict(workloads["workloads"][name])
    case = workloads["cases"][wl["case"]]
    wl["config_path"] = BENCH / case["config"]
    wl["analyze_expect"] = case["analyze"]
    wl.setdefault("expect", case["analyze"])
    return wl


def load_config(path: Path):
    from wittscaffold.cli import load_job_config
    return load_job_config(Namespace(config=str(path)))


def self_check(workloads: dict) -> int:
    """Negative control: a fault-injected audit must count as failed."""
    wl = resolve(workloads, workloads["audit_reference"])
    _, problems, _ = checked_op(wl, load_config(wl["config_path"]), 0, fault="sigma1")
    print("negative control, audit --fault-inject sigma1:",
          "registered as failed" if problems else "NOT registered as failed")
    for p in problems:
        print("  ", p)
    return 0 if problems else 1


def main(argv=None) -> int:
    workloads = json.loads((BENCH / "workloads.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(workloads["workloads"]))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=60)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-check", action="store_true")
    args = parser.parse_args(argv)
    if not (SRC / "wittscaffold" / "__init__.py").is_file():
        print(f"error: no wittscaffold sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.self_check:
        return self_check(workloads)
    if args.workload is None:
        parser.error("--workload is required")

    wl = resolve(workloads, args.workload)
    config = load_config(wl["config_path"])
    host = host_record()
    print(f"workload {args.workload}, seed {args.seed}, seconds {args.seconds}, "
          f"trace {args.trace}")
    print("host: " + ", ".join(f"{k} {v}" for k, v in host.items()))
    if args.trace:
        result = traced(wl, config, args.seed, workloads)
    else:
        result = end_to_end(args.workload, wl, config, args.seed, args.seconds)
    for failure in result["failures"]:
        print("FAILED", failure)

    OUT.mkdir(exist_ok=True)
    record = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    record.write_text(json.dumps({"workload": args.workload, "seed": args.seed,
                                  "host": host, **result}, indent=1))
    correct = result["failed"] == 0
    print(json.dumps({"correct": correct, "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": result["metrics"]}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
