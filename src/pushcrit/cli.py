"""Command-line front end.

Exit codes: 0 success / property holds; 1 property fails or no
certificate; 2 usage or parse errors; 3 budget exhausted; 4 internal
error (a failed self-check, ``SelfCheckError``, a broken package fixture
among them, or any exception that is no ``PushcritError``, reported on
one line, so a crash never reads as "property fails").  Graph arguments
are file paths in the text format, or "@name" for a builtin fixture.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from . import enumeration, verify
from .canon import canonical_form
from .crit import (
    VERDICT_CRITICAL,
    extract_critical_subgraph,
    is_pushably_k_critical,
)
from .density import mad_exact
from .discharge import discharging_audit
from .errors import PushcritError, ResourceBudgetError, SelfCheckError
from .fixtures import fixture
from .graph import (
    OrientedGraph,
    directed_cycle,
    girth,
    parse_graph,
    potential,
    serialize_graph,
)
from .hom import (
    AT_C3,
    find_pushable_homomorphism,
    oriented_chromatic_number,
    pushable_chromatic_number,
)
from .lpq import VARIANT_ORIENTED, VARIANT_TWO_DIPATH, lpq_span_search

EXIT_OK = 0
EXIT_PROPERTY_FAILS = 1
EXIT_USAGE = 2
EXIT_BUDGET = 3
EXIT_INTERNAL = 4


def _load_graph(spec: str) -> OrientedGraph:
    if spec.startswith("@"):
        return fixture(spec[1:])
    with open(spec, encoding="utf-8") as fh:
        return parse_graph(fh.read(), name=os.path.basename(spec))


def _load_target(spec: str) -> OrientedGraph:
    if spec == "atc3":
        return AT_C3
    if len(spec) == 2 and spec[0] == "c" and spec[1].isdigit():
        k = int(spec[1])
        if k == 2:
            return OrientedGraph(2, ((0, 1),), "c2")
        if 3 <= k <= 6:
            return directed_cycle(k).with_name(spec)
    return _load_graph(spec)


def _emit(args, payload: dict, text: str | None = None):
    if getattr(args, "json", False) or text is None:
        print(json.dumps(payload, sort_keys=True))
    else:
        print(text)


def _cmd_info(args) -> int:
    g = _load_graph(args.graph)
    payload = {
        "name": g.name,
        "vertices": g.vertex_count,
        "arcs": g.arc_count,
        "potential": potential(g),
        "girth": girth(g),
        "degrees": list(g.degrees),
    }
    _emit(args, payload, None)
    return EXIT_OK


def _check_budgets(args):
    for attr in ("budget_nodes", "budget_seconds"):
        value = getattr(args, attr, None)
        if value is not None and value <= 0:
            raise PushcritError(f"--{attr.replace('_', '-')} must be positive")


def _cmd_color(args) -> int:
    _check_budgets(args)
    g = _load_graph(args.graph)
    target = _load_target(args.target)
    stats: dict = {}
    cert = find_pushable_homomorphism(
        g, target, budget=args.budget_nodes, stats=stats
    )
    if cert is None:
        _emit(args, {"result": "none", "nodes_explored": stats.get("nodes", 0)})
        return EXIT_PROPERTY_FAILS
    _emit(args, cert.to_json_dict())
    return EXIT_OK


def _cmd_chromatic(args) -> int:
    g = _load_graph(args.graph)
    if args.kind == "oriented":
        value = oriented_chromatic_number(g, args.k)
    else:
        value = pushable_chromatic_number(g, args.k)
    payload = {"kind": args.kind, "k_max": args.k, "value": value}
    _emit(args, payload, f"{value}" if value is not None else "none")
    return EXIT_OK if value is not None else EXIT_PROPERTY_FAILS


def _cmd_critical(args) -> int:
    g = _load_graph(args.graph)
    report = is_pushably_k_critical(g, args.k)
    _emit(args, report.to_json_dict(), report.verdict)
    return EXIT_OK if report.verdict == VERDICT_CRITICAL else EXIT_PROPERTY_FAILS


def _cmd_extract_critical(args) -> int:
    g = _load_graph(args.graph)
    sub = extract_critical_subgraph(g, args.k)
    if sub is None:
        _emit(args, {"result": "none"}, "colorable: no critical subgraph")
        return EXIT_PROPERTY_FAILS
    _emit(
        args,
        {"vertices": sub.vertex_count, "arcs": [list(a) for a in sub.arcs]},
        serialize_graph(sub).rstrip("\n"),
    )
    return EXIT_OK


def _print_progress(n: int, done: int, total: int) -> None:
    print(f"{n} {done}/{total}", file=sys.stderr, flush=True)


def _find_critical(args):
    _check_budgets(args)
    return enumeration.find_critical(
        args.max_n,
        jobs=args.jobs,
        shard_dir=args.shards,
        resume=args.resume,
        wall_budget_s=args.budget_seconds,
        progress=_print_progress if args.progress else None,
    )


def _cmd_enumerate(args) -> int:
    records = _find_critical(args)
    payload = {"records": [r.to_json_dict() for r in records]}
    _emit(args, payload, "\n".join(json.dumps(r.to_json_dict(), sort_keys=True) for r in records))
    return EXIT_OK


def _cmd_verify_bound(args) -> int:
    records = _find_critical(args)
    report = enumeration.verify_density_bound(records)
    _emit(args, report.to_json_dict(), "PASS" if report.ok else "FAIL")
    return EXIT_OK if report.ok else EXIT_PROPERTY_FAILS


def _cmd_verify_paper(args) -> int:
    results = verify.run_suites(tuple(args.suite), jobs=args.jobs)
    report = verify.write_report(results, args.out)
    _emit(args, report, None)
    return EXIT_OK if report["ok"] else EXIT_PROPERTY_FAILS


def _cmd_mad(args) -> int:
    g = _load_graph(args.graph)
    value = mad_exact(g)
    _emit(
        args,
        {"numerator": value.numerator, "denominator": value.denominator},
        str(value),
    )
    return EXIT_OK


def _cmd_girth(args) -> int:
    g = _load_graph(args.graph)
    value = girth(g)
    _emit(args, {"girth": value}, str(value) if value is not None else "acyclic")
    return EXIT_OK


def _cmd_discharge(args) -> int:
    g = _load_graph(args.graph)
    report = discharging_audit(g)
    _emit(args, report.to_json_dict(), None)
    return EXIT_OK


def _cmd_lpq(args) -> int:
    g = _load_graph(args.graph)
    variant = VARIANT_ORIENTED if args.variant == "oriented" else VARIANT_TWO_DIPATH
    span = lpq_span_search(g, args.p, args.q, variant)
    payload = {"p": args.p, "q": args.q, "variant": variant, "span": span}
    _emit(args, payload, str(span))
    return EXIT_OK


def _cmd_canon(args) -> int:
    graphs = [_load_graph(spec) for spec in args.graphs]
    codes = [canonical_form(g).hex() for g in graphs]
    _emit(args, {"codes": codes}, "\n".join(codes))
    return EXIT_OK


def _add_graph_arg(sub):
    sub.add_argument("graph", help="graph file or @fixture")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pushcrit",
        description="pushable-homomorphism toolkit for oriented graphs",
    )
    parser.add_argument("--json", action="store_true", help="emit JSON output")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("info", help="basic structural facts")
    _add_graph_arg(p)
    p.set_defaults(func=_cmd_info)

    p = sub.add_parser("color", help="pushable homomorphism onto a target")
    p.add_argument("--target", default="c3", help="c2..c6, atc3, or a graph file")
    p.add_argument("--budget-nodes", type=int, default=None)
    _add_graph_arg(p)
    p.set_defaults(func=_cmd_color)

    p = sub.add_parser("chromatic", help="pushable or oriented chromatic number")
    p.add_argument("--k", type=int, default=6, help="largest k to try")
    p.add_argument("--kind", choices=("push", "oriented"), default="push")
    _add_graph_arg(p)
    p.set_defaults(func=_cmd_chromatic)

    p = sub.add_parser("critical", help="decide pushable k-criticality")
    p.add_argument("--k", type=int, default=3)
    _add_graph_arg(p)
    p.set_defaults(func=_cmd_critical)

    p = sub.add_parser("extract-critical", help="greedy critical subgraph")
    p.add_argument("--k", type=int, default=3)
    _add_graph_arg(p)
    p.set_defaults(func=_cmd_extract_critical)

    for name, fn in (("enumerate", _cmd_enumerate), ("verify-bound", _cmd_verify_bound)):
        p = sub.add_parser(name)
        p.add_argument("--max-n", type=int, default=8)
        p.add_argument("--jobs", type=int, default=1)
        p.add_argument("--shards", default=None, help="shard directory")
        p.add_argument("--resume", action="store_true")
        p.add_argument("--budget-seconds", type=float, default=None)
        p.add_argument(
            "--progress",
            action="store_true",
            help="write 'n done/total' to stderr after each scanned candidate",
        )
        p.set_defaults(func=fn)

    p = sub.add_parser("verify-paper", help="run verification suites")
    p.add_argument(
        "--suite",
        action="append",
        default=None,
        choices=list(verify.SUITE_NAMES) + ["all"],
    )
    p.add_argument("--jobs", type=int, default=1)
    p.add_argument("--out", default="verify-out", help="report/evidence directory")
    p.set_defaults(func=_cmd_verify_paper)

    p = sub.add_parser("mad", help="exact maximum average degree")
    _add_graph_arg(p)
    p.set_defaults(func=_cmd_mad)

    p = sub.add_parser("girth", help="shortest cycle length")
    _add_graph_arg(p)
    p.set_defaults(func=_cmd_girth)

    p = sub.add_parser("discharge", help="charge redistribution audit")
    _add_graph_arg(p)
    p.set_defaults(func=_cmd_discharge)

    p = sub.add_parser("lpq", help="distance-constrained labeling span")
    p.add_argument("--p", type=int, required=True)
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--variant", choices=("dipath", "oriented"), default="dipath")
    _add_graph_arg(p)
    p.set_defaults(func=_cmd_lpq)

    p = sub.add_parser("canon", help="canonical codes, one per line")
    p.add_argument("graphs", nargs="+", help="graph files or @fixtures")
    p.set_defaults(func=_cmd_canon)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else EXIT_OK
    if args.command == "verify-paper" and not args.suite:
        args.suite = ["all"]
    try:
        return args.func(args)
    except ResourceBudgetError as exc:
        print(f"pushcrit: budget exhausted: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except SelfCheckError as exc:
        # a failed self-check is a fault of the library, not of the input
        print(f"pushcrit: internal error: {exc}", file=sys.stderr)
        return EXIT_INTERNAL
    except (PushcritError, OSError) as exc:
        print(f"pushcrit: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except Exception as exc:
        print(f"pushcrit: internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
