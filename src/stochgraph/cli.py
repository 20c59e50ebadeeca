"""Command-line interface.

Subcommands: validate, gen, solve, exact, estimate {mst|mpm|cc}, compare.
Exit codes: 0 success, 2 validation failure, 3 budget/cap refusal or not
enough memory, 4 internal assertion.  Output is deterministic for a fixed configuration and
seed; timing is only emitted when --with-timing is given.
"""

from __future__ import annotations

import argparse
import json
import sys

from .campaign import ESTIMATORS, csv_text, run_campaign, run_estimator
from .errors import (
    DomainError,
    EnumerationCapError,
    InternalAssertionError,
    StochgraphError,
    ValidationError,
)
from .generate import KINDS, gen_instance
from .model import EventSpec, Realization, event_probability, load_instance
from .oracle import DEFAULT_CAP, Functional, enumerate_term, FunctionalEvaluator

EXIT_VALIDATION = 2
EXIT_REFUSAL = 3
EXIT_INTERNAL = 4


def _warn_budget(args) -> None:
    """Warn when --budget-scale is below 1 or --budget-cap is given."""
    if args.budget_scale < 1.0:
        print(
            f"WARNING: budget-scale {args.budget_scale} < 1 voids the FPRAS "
            "guarantee; results are exploratory",
            file=sys.stderr,
        )
    if args.budget_cap is not None:
        print(
            f"WARNING: budget-cap {args.budget_cap} voids the FPRAS guarantee "
            "for every term whose full budget exceeds it (see full_budget); "
            "results are exploratory",
            file=sys.stderr,
        )


def _write(text: str, path: str | None) -> None:
    if path:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _emit(doc, path: str | None) -> None:
    _write(json.dumps(doc, sort_keys=True, indent=1) + "\n", path)


def _load_json_arg(spec: str):
    """JSON given inline or, as ``@path``, in a file."""
    try:
        if spec.startswith("@"):
            with open(spec[1:], "r", encoding="utf-8") as fh:
                return json.load(fh)
        return json.loads(spec)
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise ValidationError(f"not valid UTF-8 JSON ({exc})") from None


def _load_event(spec: str | None) -> EventSpec:
    if not spec:
        return EventSpec()
    doc = _load_json_arg(spec)
    if not isinstance(doc, dict):
        raise ValidationError("an event must be a JSON object")
    return EventSpec(
        allowed=doc.get("allowed", {}),
        allow_absent=doc.get("allow_absent", {}),
    )


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("-o", "--output", help="write JSON here instead of stdout")


def _add_run_settings(p: argparse.ArgumentParser) -> None:
    p.add_argument("--budget-scale", type=float, default=1.0)
    p.add_argument("--budget-cap", type=int, default=None,
                   help="hard per-term sample cap")
    p.add_argument("--threads", type=int, default=1,
                   help="recorded in the report only; every run is single-threaded")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="stochgraph",
        description="expected MST / perfect matching / cycle cover lengths "
        "on stochastic graphs, estimated or enumerated exactly",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="check an instance file")
    p.add_argument("instance")
    _add_common(p)

    p = sub.add_parser("gen", help="generate an instance file")
    p.add_argument("kind", choices=KINDS)
    p.add_argument("n", type=int)
    p.add_argument("m", type=int)
    p.add_argument("--seed", type=int, default=0)
    _add_common(p)

    p = sub.add_parser("solve", help="evaluate a functional on one realization")
    p.add_argument("instance")
    p.add_argument("--functional", required=True,
                   choices=[f.value for f in Functional])
    p.add_argument("--realization", required=True,
                   help='JSON {"node": "point", ...} or @file')
    _add_common(p)

    p = sub.add_parser("exact", help="exact expectation by enumeration")
    p.add_argument("instance")
    p.add_argument("--functional", required=True,
                   choices=[f.value for f in Functional])
    p.add_argument("--event", help='JSON {"allowed": {...}} or @file')
    p.add_argument("--cap", type=int, default=DEFAULT_CAP)
    _add_common(p)

    p = sub.add_parser("estimate", help="run an FPRAS estimator")
    p.add_argument("target", choices=["mst", "mpm", "cc"])
    p.add_argument("instance")
    p.add_argument("--epsilon", type=float, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--method", choices=["home", "dp"],
                   help="mst only: decomposition to use (default home)")
    _add_run_settings(p)
    p.add_argument("--dump-homes", action="store_true",
                   help="include the home structure in the report")
    p.add_argument("--with-timing", action="store_true")
    p.add_argument("--format", choices=["json", "csv"], default="json",
                   help="csv emits the term table (per-pair table for cc)")
    _add_common(p)

    p = sub.add_parser("compare", help="estimators vs oracle over seeds")
    p.add_argument("instances", nargs="+")
    p.add_argument("--estimators", default=",".join(ESTIMATORS),
                   help="comma list from: " + ",".join(ESTIMATORS))
    p.add_argument("--seeds", type=int, default=20, help="number of seeds (0..k-1)")
    p.add_argument("--seed-base", type=int, default=0)
    p.add_argument("--epsilon", type=float, required=True)
    _add_run_settings(p)
    p.add_argument("--cap", type=int, default=DEFAULT_CAP)
    p.add_argument("--format", choices=["json", "csv"], default="json")
    _add_common(p)

    return parser


def _cmd_validate(args) -> int:
    g = load_instance(args.instance)
    _emit(
        {
            "valid": True,
            "nodes": g.n,
            "points": g.m,
            "presence_mode": g.presence_mode,
        },
        args.output,
    )
    return 0


def _cmd_gen(args) -> int:
    _emit(gen_instance(args.kind, args.n, args.m, args.seed), args.output)
    return 0


def _cmd_solve(args) -> int:
    g = load_instance(args.instance)
    r = Realization.from_mapping(g, _load_json_arg(args.realization))
    value = FunctionalEvaluator(g, Functional(args.functional)).value_of_assignment(r.indices)
    _emit({"functional": args.functional, "value": value}, args.output)
    return 0


def _cmd_exact(args) -> int:
    g = load_instance(args.instance)
    spec = _load_event(args.event)
    event = spec.to_event(g)
    term, count = enumerate_term(g, Functional(args.functional), event, cap=args.cap)
    prob = event_probability(g, event)
    if prob <= 0.0:
        raise DomainError("conditioning event has zero probability")
    _emit(
        {
            "functional": args.functional,
            "value": term / prob,
            "term": term,
            "probability": prob,
            "count": count,
            "event": spec.to_json_dict(g),
        },
        args.output,
    )
    return 0


def _cmd_estimate(args) -> int:
    if args.method is not None and args.target != "mst":
        raise ValidationError("--method applies to estimate mst only")
    name = args.target if args.target != "mst" else (
        "mst-dp" if args.method == "dp" else "mst-home"
    )
    if args.dump_homes and name not in ("mst-home", "mpm"):
        raise ValidationError("--dump-homes applies to estimate mst --method home and mpm only")
    for flag, given in (("--dump-homes", args.dump_homes), ("--with-timing", args.with_timing)):
        if given and args.format == "csv":
            raise ValidationError(f"{flag} applies to JSON output only")
    g = load_instance(args.instance)
    _warn_budget(args)
    report = run_estimator(
        name,
        g,
        args.epsilon,
        args.seed,
        budget_scale=args.budget_scale,
        budget_cap=args.budget_cap,
        threads=args.threads,
    )
    if args.format == "csv":
        _write(_report_csv(report), args.output)
        return 0
    doc = report.to_dict(include_timing=args.with_timing)
    if not args.dump_homes:
        doc.get("extras", {}).pop("home", None)
        doc.get("extras", {}).pop("homes", None)
    _emit(doc, args.output)
    return 0


_TERM_COLUMNS = ("name", "method", "value", "probability", "mean", "samples", "full_budget")
_PAIR_COLUMNS = (
    "s", "t", "node_s", "node_t", "kind", "prob", "estimate", "samples", "indicator_hits"
)


def _report_csv(report) -> str:
    pairs = report.extras.get("pairs")
    if pairs:  # cycle-cover runs: the per-pair conditioned sub-terms
        columns, rows = _PAIR_COLUMNS, pairs
    else:
        columns, rows = _TERM_COLUMNS, [vars(t) for t in report.terms]
    return csv_text(("schema_version",) + columns, ([1] + [r[c] for c in columns] for r in rows))


def _cmd_compare(args) -> int:
    estimators = [e.strip() for e in args.estimators.split(",") if e.strip()]
    if not estimators:
        raise ValidationError("no estimator given; choose from " + ",".join(ESTIMATORS))
    for e in estimators:
        if e not in ESTIMATORS:
            raise ValidationError(f"unknown estimator {e!r}")
    for what, given in (("estimator", estimators), ("instance", args.instances)):
        repeated = [x for i, x in enumerate(given) if x in given[:i]]
        if repeated:  # each would write its rows twice
            raise ValidationError(f"{what} {repeated[0]!r} given more than once")
    if args.seeds < 1:
        raise ValidationError("seed count must be at least 1")
    _warn_budget(args)
    instances = [(path, load_instance(path)) for path in args.instances]
    result = run_campaign(
        instances,
        estimators,
        [args.seed_base + k for k in range(args.seeds)],
        args.epsilon,
        budget_scale=args.budget_scale,
        budget_cap=args.budget_cap,
        threads=args.threads,
        cap=args.cap,
    )
    if args.format == "csv":
        _write(result.to_csv(), args.output)
    else:
        _emit(result.to_dict(), args.output)
    return 0


_COMMANDS = {
    "validate": _cmd_validate,
    "gen": _cmd_gen,
    "solve": _cmd_solve,
    "exact": _cmd_exact,
    "estimate": _cmd_estimate,
    "compare": _cmd_compare,
}


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except EnumerationCapError as exc:
        print(f"refused: {exc}", file=sys.stderr)
        return EXIT_REFUSAL
    except MemoryError as exc:
        print(f"refused: not enough memory: {exc}", file=sys.stderr)
        return EXIT_REFUSAL
    except (ValidationError, DomainError) as exc:
        print(f"invalid: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except InternalAssertionError as exc:
        print(f"internal assertion failed: {exc}", file=sys.stderr)
        return EXIT_INTERNAL
    except StochgraphError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INTERNAL
    except OSError as exc:
        print(f"io error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION


if __name__ == "__main__":
    sys.exit(main())
