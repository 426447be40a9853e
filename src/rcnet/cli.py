"""Command-line front end.

    rcnet query --net net.json [--evidence e.json] [--cache full|none|budget:N]
                [--kb on|off] [--log-space on|off] [--dtree-out d.json]
    rcnet stats --net net.json [--dtree-in d.json] [--dtree-out d.json]
                [--dtree-dot d.dot]
    rcnet kb-dump --net net.json [--out clauses.txt]

query and stats print one pretty JSON report, with the seconds each
stage took in its timings_s object.  Exit code 2 signals a parse or
validation problem, reported as a single diagnostic line on stderr; any
other failure propagates, so the console script exits 1.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from contextlib import contextmanager
from dataclasses import asdict
from typing import Iterator

from .dtree import (
    annotate,
    build_dtree,
    dtree_from_json,
    dtree_stats,
    dtree_to_dot,
    dtree_to_json,
    induced_order,
    mark_dead_caches,
    min_fill_order,
)
from .engine import CachePolicy, rc_query
from .kb import compile_kb
from .model import NetworkFormatError, parse_evidence, parse_network
from .spaces import space_report

__all__ = ["main"]

# the stages whose seconds `query` and `stats` report in timings_s; `query`
# adds its query, and a stage the command did not run is null
STAGES = ("parse", "min_fill", "build", "annotate", "mark_dead", "space", "kb_compile")


def _read(path: str) -> str:
    with open(path, "r", encoding="utf-8") as fh:
        return fh.read()


def _write(path: str, text: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


@contextmanager
def _timed(timings: dict, stage: str) -> Iterator[None]:
    started = time.perf_counter()
    yield
    timings[stage] = time.perf_counter() - started


def _prepared_dtree(network, dtree_in: str | None, timings: dict):
    """The annotated, dead-marked dtree, the elimination order whose ve_space
    the report gives (min-fill's, or None for an imported dtree, whose
    induced order the report uses) and the number of dead caches.  Each
    stage's seconds go into `timings`."""
    if dtree_in is None:
        with _timed(timings, "min_fill"):
            order = min_fill_order(network)
        with _timed(timings, "build"):
            root = build_dtree(network, order)
    else:
        order = None
        with _timed(timings, "build"):
            root = dtree_from_json(network, _read(dtree_in))
    with _timed(timings, "annotate"):
        annotate(root)
    with _timed(timings, "mark_dead"):
        dead = mark_dead_caches(root)
    return root, order, dead


def _space(network, order, root, timings: dict) -> dict:
    with _timed(timings, "space"):
        return asdict(space_report(network, induced_order(root) if order is None else order, root))


def cmd_query(args: argparse.Namespace) -> int:
    policy = CachePolicy.parse(args.cache)
    started = time.perf_counter()
    timings = dict.fromkeys(STAGES + ("query",))
    with _timed(timings, "parse"):
        network = parse_network(_read(args.net))
        evidence = parse_evidence(_read(args.evidence), network) if args.evidence else {}
    root, order, dead = _prepared_dtree(network, None, timings)
    if args.dtree_out:
        _write(args.dtree_out, dtree_to_json(root))
    kb = None
    if args.kb == "on":
        with _timed(timings, "kb_compile"):
            kb = compile_kb(network)
    with _timed(timings, "query"):
        result = rc_query(
            network,
            root,
            evidence,
            policy=policy,
            kb=kb,
            log_domain=args.log_space == "on",
        )
    report = {
        "network": args.net,
        "dtree": {**asdict(dtree_stats(root)), "dead_caches": dead},
        "space": _space(network, order, root, timings),
        "query": result.to_json_dict(),
        "kb_size": (
            {"clauses": kb.n_clauses, "literals": kb.n_literals} if kb is not None else None
        ),
        "timings_s": timings,
        "wall_time_s": time.perf_counter() - started,
    }
    print(json.dumps(report, indent=2))
    return 0


def cmd_stats(args: argparse.Namespace) -> int:
    started = time.perf_counter()
    timings = dict.fromkeys(STAGES)
    with _timed(timings, "parse"):
        network = parse_network(_read(args.net))
    root, order, dead = _prepared_dtree(network, args.dtree_in, timings)
    if args.dtree_out:
        _write(args.dtree_out, dtree_to_json(root))
    if args.dtree_dot:
        _write(args.dtree_dot, dtree_to_dot(root))
    report = {
        "network": args.net,
        "dtree": {**asdict(dtree_stats(root)), "dead_caches": dead},
        "space": _space(network, order, root, timings),
        "timings_s": timings,
        "wall_time_s": time.perf_counter() - started,
    }
    print(json.dumps(report, indent=2))
    return 0


def cmd_kb_dump(args: argparse.Namespace) -> int:
    network = parse_network(_read(args.net))
    kb = compile_kb(network)
    text = kb.format_clauses(network)
    if args.out:
        _write(args.out, text + ("\n" if text else ""))
    else:
        print(text)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rcnet",
        description="Exact probability-of-evidence queries by recursive conditioning.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    query = sub.add_parser("query", help="compute the probability of evidence")
    query.add_argument("--net", required=True, help="network document (JSON)")
    query.add_argument("--evidence", help="evidence document (JSON)")
    query.add_argument("--cache", default="full", help="full, none, or budget:N")
    query.add_argument("--kb", choices=["on", "off"], default="off",
                       help="prune zero-probability branches by unit resolution")
    query.add_argument("--log-space", choices=["on", "off"], default="off")
    query.add_argument("--dtree-out", help="write the dtree used (JSON)")
    query.set_defaults(func=cmd_query)

    stats = sub.add_parser("stats", help="dtree widths and space-model accounting")
    stats.add_argument("--net", required=True)
    stats.add_argument("--dtree-in", help="use this dtree instead of min-fill")
    stats.add_argument("--dtree-out")
    stats.add_argument("--dtree-dot", help="write a DOT rendering of the dtree")
    stats.set_defaults(func=cmd_stats)

    dump = sub.add_parser("kb-dump", help="print the compiled clauses")
    dump.add_argument("--net", required=True)
    dump.add_argument("--out")
    dump.set_defaults(func=cmd_kb_dump)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (NetworkFormatError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
