"""Command line front end.

Subcommands::

    validate            check the parameter choices and bounds
    analyze             full pipeline: ramification, tables, freeness
    audit               run the invariant suites (seeded sampling)
    reproduce-example   rerun the built-in p=3, e0=6 worked example and
                        diff against its embedded golden tables

Parameters come from a flat key=value config file (``--config``), with
flags overriding.  Field elements are monomials ``c*pi0^k``.  Exit
codes: 0 success, 2 validation failure, 3 invariant or audit failure,
4 precision exhausted (by a build, only once its guard-digit retries
are spent).  Only the commands that build import ``pipeline``, so a
``validate`` start loads no analysis layer.
"""

from __future__ import annotations

import argparse
import json
import re
import sys

from .construction import (
    DEFAULT_GUARD_DIGITS,
    FAULT_NAMES,
    GUARD_RETRIES,
    JobConfig,
    check_freeness_bound,
    construct_extension,
    ramification_data,
    validation_report_dict,
)
from .errors import (
    PRECISION_ERRORS,
    InternalDisagreement,
    InvariantViolation,
    NoConvergence,
    ScaffoldError,
    ValidationFailure,
)

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_INVARIANT = 3
EXIT_PRECISION = 4

_MONOMIAL_RE = re.compile(r"^(?:([+-]?\d+)\*)?pi0\^([+-]?\d+)$")


def parse_monomial(text: str) -> tuple[int, int]:
    """Parse ``c*pi0^k``, ``pi0^k`` or a bare integer into (c, k)."""
    text = text.strip().replace(" ", "")
    m = _MONOMIAL_RE.match(text)
    if m:
        c = int(m.group(1)) if m.group(1) else 1
        return c, int(m.group(2))
    try:
        return int(text), 0
    except ValueError:
        raise ValueError(
            f"cannot parse field element {text!r}; expected c*pi0^k"
        ) from None


def parse_integer(text: str) -> int:
    try:
        return int(text)
    except ValueError:
        raise ValueError(f"expected an integer, got {text!r}") from None


def parse_format(text: str) -> str:
    if text not in ("text", "json"):
        raise ValueError(f"unknown output format {text!r}")
    return text


# every config key, with the parser of its value
CONFIG_KEYS = {"p": parse_integer, "e0": parse_integer, "a1": parse_monomial,
               "mu": parse_monomial, "precision": parse_integer,
               "format": parse_format}


def parse_config_file(path: str) -> dict:
    """The parsed values of a config file; a malformed line or value is
    rejected with its file, line and key."""
    out: dict = {}
    with open(path, "rb") as fh:
        data = fh.read()
    # bytes.splitlines ends lines where universal-newline text mode does
    for lineno, raw in enumerate(data.splitlines(), 1):
        try:
            text = raw.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise ValueError(f"{path}:{lineno}: not UTF-8 text: {exc}") from None
        line = text.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"{path}:{lineno}: expected key = value")
        key, value = (s.strip() for s in line.split("=", 1))
        if key not in CONFIG_KEYS:
            raise ValueError(f"{path}:{lineno}: unknown key {key!r}")
        if key in out:
            raise ValueError(f"{path}:{lineno}: duplicate key {key!r}")
        try:
            out[key] = CONFIG_KEYS[key](value)
        except ValueError as exc:
            raise ValueError(
                f"{path}:{lineno}: bad value for key {key!r}: {exc}") from None
    return out


def load_job_config(args) -> JobConfig:
    raw = parse_config_file(args.config) if args.config else {}
    missing = [k for k in ("p", "e0", "a1", "mu") if k not in raw]
    if missing:
        raise ValueError(
            "missing required config keys: " + ", ".join(missing)
        )
    precision = raw.get("precision")
    if getattr(args, "precision", None) is not None:
        precision = args.precision
    fmt = raw.get("format", "text")
    if getattr(args, "json", False):
        fmt = "json"
    return JobConfig(
        p=raw["p"],
        e0=raw["e0"],
        a1=raw["a1"],
        mu=raw["mu"],
        precision=precision,
        fmt=fmt,
    )


def emit(report: dict, fmt: str, render_text) -> None:
    if fmt == "json":
        print(json.dumps(report, sort_keys=True, indent=2))
    else:
        render_text(report)


# -- text renderers ---------------------------------------------------


def _render_checks(block: dict) -> None:
    status = "pass" if block["passed"] else "FAIL"
    print(f"  [{status}] {block['subject']}")
    for c in block["checks"]:
        mark = "ok " if c["passed"] else "BAD"
        print(f"    {mark} {c['name']}: {c['detail']}")


def render_validation_text(report: dict) -> None:
    cfg = report["config"]
    print(f"parameters: p = {cfg['p']}, e0 = {cfg['e0']}, "
          f"a1 = {cfg['a1']['coefficient']}*pi0^{cfg['a1']['pi0_exponent']}, "
          f"mu = {cfg['mu']['coefficient']}*pi0^{cfg['mu']['pi0_exponent']}, "
          f"precision_v2 = {cfg['precision_v2']}")
    for block in report["choices"]:
        _render_checks(block)
    if "freeness_bound" in report:
        fb = report["freeness_bound"]
        mark = "ok " if fb["holds"] else "BAD"
        print(f"  [{'pass' if fb['holds'] else 'FAIL'}] structural-bound")
        print(f"    {mark} main: {fb['detail']}")
        print(f"    -- e0 form: {fb['e0_form']['detail']} "
              f"(holds: {fb['e0_form']['holds']})")
        print(f"    -- margin form: {fb['margin_form']['detail']} "
              f"(holds: {fb['margin_form']['holds']})")
    item2 = report["printed_item2"]
    print(f"  note printed-item-2: {item2['status']} ({item2['note']})")
    if "ramification" in report:
        ram = report["ramification"]
        print("ramification: " + ", ".join(f"{k} = {v}" for k, v in ram.items()))
    print("result:", "PASS" if report["passed"] else "FAIL")


def render_analysis_text(report: dict) -> None:
    render_validation_text(report)
    tables = report["scaffold_tables"]
    print("tables:")
    for key in ("a_map", "b_map", "d", "w"):
        print(f"  {key} = {tables[key]}")
    print(f"  d0 = {tables['d0']}, r_b2 = {tables['r_b2']}")
    ms = report["module_structure"]
    if ms.get("free") is None:
        print("module structure: no verdict;", ms.get("note", ""))
        return
    print(f"module structure: free = {ms['free']}")
    crit = ms["criteria"]
    print(f"  criteria: residue_divides_p2_minus_1 = "
          f"{crit['residue_divides_p2_minus_1']}, w_equals_d_minus_d0 = "
          f"{crit['w_equals_d_minus_d0']}, generator_valuations_complete = "
          f"{crit['generator_valuations_complete']}")
    print(f"  associated order basis: {ms['assoc_order_basis']}")
    print(f"  valuation table v2(pi0^-w_j * op_j * rho0): {ms['valuation_table']}")
    if ms.get("generator"):
        g = ms["generator"]
        print(f"  free generator: {g['printed']} (valuation {g['valuation']})")


def render_audit_text(report: dict) -> None:
    print(f"audit: samples = {report['samples']}, seed = {report['seed']}"
          + (f", fault = {report['fault']}" if report["fault"] else ""))
    for section in ("galois", "structure"):
        print(f"{section} invariants:")
        for c in report[section]:
            mark = "PASS" if c["passed"] else "FAIL"
            print(f"  {mark} {c['name']}: {c['detail']}")
    print("result:", "PASS" if report["passed"] else "FAIL")


# -- subcommands ------------------------------------------------------


def job(command):
    """A subcommand on the job config: ``command(args, config)`` runs on
    the config file and flags, and a ``ValidationFailure`` it raises is
    answered with the validation report and exit 2."""
    def run(args) -> int:
        config = load_job_config(args)
        try:
            return command(args, config)
        except ValidationFailure as exc:
            report = validation_report_dict(config, exc.reports, None, None)
            emit(report, config.fmt, render_validation_text)
            return EXIT_VALIDATION
    return run


@job
def cmd_validate(args, config: JobConfig) -> int:
    desc, reports = construct_extension(
        config.p, config.e0, config.a1, config.mu,
        target_v2=config.precision, guard_digits=guard_digits(args),
    )
    rd = ramification_data(desc)
    bound = check_freeness_bound(rd, desc.base)
    report = validation_report_dict(config, reports, rd, bound)
    emit(report, config.fmt, render_validation_text)
    return EXIT_OK if report["passed"] else EXIT_VALIDATION


def guard_digits(args) -> int:
    """The ``--guard-digits`` value, rejected by name when negative."""
    if args.guard_digits < 0:
        raise ValueError(
            f"--guard-digits must be nonnegative, got {args.guard_digits}")
    return args.guard_digits


@job
def cmd_analyze(args, config: JobConfig) -> int:
    from .pipeline import analyze_report_dict, build_context
    ctx = build_context(config, guard_digits=guard_digits(args))
    report = analyze_report_dict(ctx)
    emit(report, config.fmt, render_analysis_text)
    return EXIT_OK


@job
def cmd_audit(args, config: JobConfig) -> int:
    if args.sample < 0:
        raise ValueError(f"--sample must be nonnegative, got {args.sample}")
    from .pipeline import audit_report_dict, build_context
    ctx = build_context(config, guard_digits=guard_digits(args),
                        fault=args.fault_inject)
    report = audit_report_dict(ctx, args.sample, args.seed)
    emit(report, config.fmt, render_audit_text)
    return EXIT_OK if report["passed"] else EXIT_INVARIANT


GOLDEN_EXAMPLE = {
    "b1": 1,
    "m": 1,
    "b2": 10,
    "u2": 4,
    "d": [1, 1, 1, 2, 2, 2, 3, 3, 4],
    "w": [0, 0, 0, 1, 1, 1, 2, 2, 3],
    "assoc_order_basis": [
        "1", "Psi1", "Psi1^2",
        "pi0^-1*Psi2", "pi0^-1*Psi1*Psi2", "pi0^-1*Psi1^2*Psi2",
        "pi0^-2*Psi2^2", "pi0^-2*Psi1*Psi2^2", "pi0^-3*Psi1^2*Psi2^2",
    ],
    "valuation_table": [1, 4, 7, 2, 5, 8, 3, 6, 0],
    "free": True,
    "r_b2": 1,
}


def cmd_reproduce_example(args) -> int:
    config = JobConfig(p=3, e0=6, a1=(1, -1), mu=(1, -1),
                       precision=args.precision,
                       fmt="json" if args.json else "text")
    from .pipeline import analyze_report_dict, build_context
    ctx = build_context(config, guard_digits=guard_digits(args))
    report = analyze_report_dict(ctx)
    got = {
        "b1": report["ramification"]["b1"],
        "m": report["ramification"]["m"],
        "b2": report["ramification"]["b2"],
        "u2": report["ramification"]["u2"],
        "d": report["scaffold_tables"]["d"],
        "w": report["scaffold_tables"]["w"],
        "assoc_order_basis": report["module_structure"]["assoc_order_basis"],
        "valuation_table": report["module_structure"]["valuation_table"],
        "free": report["module_structure"]["free"],
        "r_b2": report["scaffold_tables"]["r_b2"],
    }
    diffs = {k: {"expected": GOLDEN_EXAMPLE[k], "got": got[k]}
             for k in GOLDEN_EXAMPLE if GOLDEN_EXAMPLE[k] != got[k]}
    result = {"matched": not diffs, "golden": GOLDEN_EXAMPLE,
              "computed": got, "differences": diffs}
    if config.fmt == "json":
        print(json.dumps(result, sort_keys=True, indent=2))
    else:
        for key, expected in GOLDEN_EXAMPLE.items():
            mark = "ok " if key not in diffs else "BAD"
            print(f"  {mark} {key}: computed {got[key]}, golden {expected}")
        print("result:", "MATCH" if not diffs else "MISMATCH")
    return EXIT_OK if not diffs else EXIT_INVARIANT


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="wittscaffold",
        description=(
            "Construct cyclic degree-p^2 extensions of p-adic fields from "
            "length-2 Witt vectors, realize their Galois scaffolds and "
            "decide freeness over the associated order."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(sp, config_required=True):
        if config_required:
            sp.add_argument("--config", required=True,
                            help="flat key=value parameter file")
        sp.add_argument("--json", action="store_true",
                        help="emit a JSON report")
        sp.add_argument("--precision", type=int, default=None,
                        help="working v2-precision target")
        sp.add_argument("--guard-digits", type=int,
                        default=DEFAULT_GUARD_DIGITS,
                        help="extra coefficient digits above the target "
                             "(default %(default)s); a build that runs out "
                             f"of precision is retried {GUARD_RETRIES} times, "
                             "doubling them each time")

    sp = sub.add_parser("validate", help="check parameter choices and bounds")
    common(sp)
    sp.set_defaults(func=cmd_validate)

    sp = sub.add_parser("analyze", help="full structural analysis")
    common(sp)
    sp.set_defaults(func=cmd_analyze)

    sp = sub.add_parser("audit", help="run the invariant suites")
    common(sp)
    sp.add_argument("--sample", type=int, default=50,
                    help="number of random samples per sampled invariant")
    sp.add_argument("--seed", type=int, default=0, help="sampling seed")
    sp.add_argument("--fault-inject", choices=FAULT_NAMES, default=None,
                    help="deliberately corrupt a stage (negative control)")
    sp.set_defaults(func=cmd_audit)

    sp = sub.add_parser("reproduce-example",
                        help="rerun the built-in worked example against "
                             "its golden tables")
    common(sp, config_required=False)
    sp.set_defaults(func=cmd_reproduce_example)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except PRECISION_ERRORS as exc:
        print(f"precision exhausted: {exc}", file=sys.stderr)
        return EXIT_PRECISION
    except (InvariantViolation, InternalDisagreement, NoConvergence) as exc:
        print(f"invariant violation: {exc}", file=sys.stderr)
        return EXIT_INVARIANT
    except (ValueError, OSError, ScaffoldError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION


if __name__ == "__main__":
    sys.exit(main())
