"""Traced pass of the benchmark: stage spans, operation counts and
single-call timings, all taken from outside the package.

Spans are recorded by wrapping, for the length of one operation, the
names that ``pipeline.build_context`` and the audit layer look up at
call time; counts by wrapping the public entry points of the
arithmetic.  Nothing under ``src/`` is changed, and every wrapper is
removed before the function returns.
"""

from __future__ import annotations

import functools
import gc
import itertools
import json
import random
import statistics
from collections import Counter
from contextlib import contextmanager
from time import perf_counter

from wittscaffold import audit as audit_mod
from wittscaffold import galois as galois_mod
from wittscaffold import pipeline
from wittscaffold import structure as structure_mod
from wittscaffold import tower as tower_mod
from wittscaffold.audit import element_with_valuation
from wittscaffold.galois import Automorphism
from wittscaffold.padic import K0Element
from wittscaffold.pipeline import analyze_report_dict, audit_report_dict, build_context
from wittscaffold.tower import K2Element, hensel_lift

# names build_context calls, each mapped to the stage its span counts in
STAGE_OF = {
    "construct_extension": "construct",
    "ramification_data": "construct",
    "check_freeness_bound": "construct",
    "compute_sigma1": "sigma1",
    "compute_sigma2": "sigma2",
    "psi_operators": "psi",
    "build_tables": "tables",
    "uniformizer_k2": "tables",
    "uniformizer_exponents": "tables",
    "rho_family": "rho_family",
    "associated_order_and_freeness": "freeness",
    "cyclic_group": "group",
}
STAGES = ("construct", "sigma1", "sigma2", "psi", "tables", "rho_family",
          "freeness", "group", "report")
AUDIT_SPANS = (
    (audit_mod, "galois_invariant_suite", "audit.galois_suite"),
    (audit_mod, "structure_invariant_suite", "audit.structure_suite"),
    (structure_mod, "congruence_audit", "structure.congruence_grid"),
)
COUNTED = (
    (K0Element, "__mul__", "k0_mul"),
    (K0Element, "__rmul__", "k0_mul"),
    (K2Element, "__mul__", "k2_mul"),
    (K2Element, "__rmul__", "k2_mul"),
    (Automorphism, "apply", "auto_apply"),
)
HENSEL_HOMES = (galois_mod, tower_mod)

# (name, unit) of every per-layer metric, in report order
PER_LAYER = (
    *((f"stage.{s}_ms", "ms") for s in STAGES),
    ("padic.k0_mul_ms", "ms"),
    ("padic.k0_inverse_ms", "ms"),
    ("tower.k2_mul_ms", "ms"),
    ("tower.v2_ms", "ms"),
    ("tower.hensel_lift_ms", "ms"),
    ("galois.sigma1_apply_ms", "ms"),
    ("galois.psi1_apply_ms", "ms"),
    ("galois.psi2_apply_ms", "ms"),
    ("structure.congruence_grid_ms", "ms"),
    ("audit.galois_suite_ms", "ms"),
    ("audit.structure_suite_ms", "ms"),
    ("count.k0_mul", "count"),
    ("count.k2_mul", "count"),
    ("count.auto_apply", "count"),
    ("count.hensel_lift", "count"),
    ("trace.build_ms", "ms"),
    ("trace.untraced_build_ms", "ms"),
    ("trace.overhead_ms", "ms"),
    ("trace.span_coverage", "ratio"),
)

MICRO_MIN_SAMPLES = 3
MICRO_MAX_SAMPLES = 200
MICRO_BUDGET_S = 0.5


class Tracer:
    """Spans kept in memory: name, start, end and parent index."""

    def __init__(self):
        self.origin = perf_counter()
        self.spans: list[dict] = []
        self._open: list[int] = []

    @contextmanager
    def span(self, name: str):
        rec = {"name": name, "start": perf_counter() - self.origin,
               "end": None, "parent": self._open[-1] if self._open else None}
        index = len(self.spans)
        self._open.append(index)
        self.spans.append(rec)
        try:
            yield index
        finally:
            rec["end"] = perf_counter() - self.origin
            self._open.pop()

    def wrap(self, name: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name):
                return fn(*args, **kwargs)
        return traced

    def durations(self, name: str) -> list[float]:
        return [s["end"] - s["start"] for s in self.spans if s["name"] == name]

    def total_ms(self, name: str) -> float:
        return 1e3 * sum(self.durations(name))


@contextmanager
def patched(targets):
    """Set each (owner, attribute, value) for the length of the block."""
    saved = [(owner, attr, getattr(owner, attr)) for owner, attr, _ in targets]
    try:
        for owner, attr, value in targets:
            setattr(owner, attr, value)
        yield
    finally:
        for owner, attr, value in reversed(saved):
            setattr(owner, attr, value)


def _counting(counts: Counter, key: str, fn):
    def counted(*args, **kwargs):
        counts[key] += 1
        return fn(*args, **kwargs)
    return counted


def stage_patches(tracer: Tracer):
    return [(pipeline, name, tracer.wrap(stage, getattr(pipeline, name)))
            for name, stage in STAGE_OF.items() if hasattr(pipeline, name)]


def audit_patches(tracer: Tracer):
    return [(owner, attr, tracer.wrap(name, getattr(owner, attr)))
            for owner, attr, name in AUDIT_SPANS]


def count_patches(tracer: Tracer, counts: Counter):
    out = [(owner, attr, _counting(counts, key, getattr(owner, attr)))
           for owner, attr, key in COUNTED]
    lift = _counting(counts, "hensel_lift", tracer.wrap("hensel_lift", hensel_lift))
    out += [(home, "hensel_lift", lift) for home in HENSEL_HOMES]
    return out


def report_text(ctx) -> str:
    return json.dumps(analyze_report_dict(ctx), sort_keys=True, indent=2)


def micro(fn, make_args) -> tuple[float, int]:
    """Median milliseconds of ``fn(*make_args())``; argument preparation
    is not timed but counts against the time budget."""
    times = []
    t_end = perf_counter() + MICRO_BUDGET_S
    while len(times) < MICRO_MIN_SAMPLES or (
            len(times) < MICRO_MAX_SAMPLES and perf_counter() < t_end):
        args = make_args()
        gc.collect()
        t0 = perf_counter()
        fn(*args)
        times.append(perf_counter() - t0)
    return 1e3 * statistics.median(times), len(times)


def single_calls(ctx, seed: int) -> dict:
    """Per-call timings on operands seeded through element_with_valuation.
    The Hensel lift is timed by its span in the traced build instead."""
    desc = ctx.desc
    p2 = desc.p ** 2
    rng = random.Random(seed)
    pool = [element_with_valuation(desc, rng, rng.randrange(-p2, p2))
            for _ in range(8)]

    def cycle(items):
        return functools.partial(next, itertools.cycle(items))

    pairs = cycle([(pool[i], pool[i + 1]) for i in range(0, len(pool), 2)])
    elems = cycle([(x,) for x in pool])
    k0 = [c for x in pool for row in x.rows for c in row if not c.is_zero()]
    k0_pairs = cycle([(k0[i], k0[i + 1]) for i in range(0, len(k0) - 1, 2)])
    k0_elems = cycle([(c,) for c in k0])

    def fresh_product():
        x, y = pairs()
        return (x * y,)

    return {
        "padic.k0_mul_ms": micro(lambda a, b: a * b, k0_pairs),
        "padic.k0_inverse_ms": micro(lambda a: a.inverse(), k0_elems),
        "tower.k2_mul_ms": micro(lambda x, y: x * y, pairs),
        "tower.v2_ms": micro(lambda z: z.valuation(), fresh_product),
        "galois.sigma1_apply_ms": micro(ctx.sigma1.apply, elems),
        "galois.psi1_apply_ms": micro(ctx.psi1, elems),
        "galois.psi2_apply_ms": micro(ctx.psi2, elems),
    }


def traced_run(wl: dict, config, seed: int, audit_wl: dict, audit_config,
               check) -> dict:
    """One untraced reference build, one traced operation of the
    workload, the audit layer on the audit reference, and single-call
    timings.  ``check(report, expect)`` lists known-answer mismatches."""
    problems: dict[str, list[str]] = {}

    gc.collect()
    t0 = perf_counter()
    ref_ctx = build_context(config)
    untraced_build = perf_counter() - t0
    ref_text = report_text(ref_ctx)
    del ref_ctx

    tracer = Tracer()
    counts: Counter = Counter()
    gc.collect()
    with patched(stage_patches(tracer) + audit_patches(tracer)
                 + count_patches(tracer, counts)):
        with tracer.span("operation"):
            with tracer.span("build_context") as build_span:
                ctx = build_context(config)
            with tracer.span("report"):
                text = report_text(ctx)
            if wl["op"] == "audit":
                with tracer.span("audit"):
                    report = audit_report_dict(ctx, wl["sample"], seed)
    problems["traced operation"] = check(json.loads(text), wl["analyze_expect"])
    if wl["op"] == "audit":
        problems["traced operation"] += check(report, wl["expect"])
    if text != ref_text:
        problems["traced operation"].append(
            "traced analyze report differs from the untraced one")

    if wl["op"] != "audit":
        audit_ctx = ctx if audit_config == config else build_context(audit_config)
        gc.collect()
        with patched(audit_patches(tracer)):
            with tracer.span("audit"):
                audit_report = audit_report_dict(audit_ctx, audit_wl["sample"], seed)
        problems["audit layer reference"] = check(audit_report, audit_wl["expect"])
        del audit_ctx

    calls = single_calls(ctx, seed)

    build_ms = tracer.total_ms("build_context")
    stage_ms = {s: tracer.total_ms(s) for s in STAGES}
    covered = 1e3 * sum(s["end"] - s["start"] for s in tracer.spans
                        if s["parent"] == build_span)
    lifts = tracer.durations("hensel_lift")
    metrics = {f"stage.{s}_ms": (stage_ms[s], len(tracer.durations(s)))
               for s in STAGES}
    metrics.update(calls)
    # the first lift of a build is the one of the x1 image in compute_sigma1
    metrics["tower.hensel_lift_ms"] = (1e3 * lifts[0], 1) if lifts else (0.0, 0)
    for _, _, name in AUDIT_SPANS:
        metrics[f"{name}_ms"] = (tracer.total_ms(name), len(tracer.durations(name)))
    for key in ("k0_mul", "k2_mul", "auto_apply", "hensel_lift"):
        metrics[f"count.{key}"] = (counts[key], 1)
    metrics["trace.build_ms"] = (build_ms, 1)
    metrics["trace.untraced_build_ms"] = (1e3 * untraced_build, 1)
    metrics["trace.overhead_ms"] = (build_ms - 1e3 * untraced_build, 1)
    metrics["trace.span_coverage"] = (covered / build_ms, 1)

    op_ms = tracer.total_ms("operation")
    shares = {s: stage_ms[s] / op_ms for s in STAGES}
    if wl["op"] == "audit":
        shares.update({name: tracer.total_ms(name) / op_ms
                       for _, _, name in AUDIT_SPANS})
    return {"metrics": metrics, "problems": problems, "shares": shares,
            "operation_ms": op_ms, "spans": tracer.spans}
