"""Seeded probability-of-evidence benchmark for rcnet.

    python3 perfbench/run.py --workload grid-full --seed 1 --seconds 50 --trace 0

One process per workload answers a fixed, seeded set of queries in a
closed loop, one query at a time, through rcnet's public API, and
prints as its last line one JSON object: `correct`, `attempted`,
`failed` and `metrics`.  With `--trace 0` the metrics are the
end-to-end ones; with `--trace 1` they are the per-layer ones, taken
from spans recorded around every public call (see README.md).
`--small` runs the same code on small inputs, for selftest.py.

The inputs and their reference answers come from a child process
(inputs.py), so this process holds only rcnet, its inputs and the
standard library.  rcnet is imported from the `src` directory beside
this one and from nowhere else; without it the benchmark exits 2
before measuring.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import resource
import statistics
import subprocess
import sys
import time
import tracemalloc
import traceback
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT = HERE / "out"

MIN_QUERIES = 100  # so that ten timed queries lie beyond the 90th percentile
# Rounds on the first set-up before peak_rss_mb is read.  Each later
# set-up forces a collection, at times that follow the host's speed, and
# resident memory keeps growing while the queries' cyclic garbage waits
# for a full collection; a fixed count of rounds makes the same calls in
# every run.
MEMORY_ROUNDS = 4
KEPT_SHARE = 0.1  # of each query's and each set-up call's timings (see `least_disturbed`)
KB_PAIRS = 3  # traced: KB-on/KB-off answers per re-run query, timed back to back
REL_TOL = 1e-9  # on Pr(e), linear workloads
ABS_TOL = 1e-8  # on ln Pr(e), log-domain workloads


@dataclass(frozen=True)
class Workload:
    """How a workload's queries are prepared and answered; inputs.py
    makes its networks and evidence."""

    setups: int  # set-ups per run, spread over it
    peak_queries: int  # the first queries, measured again under tracemalloc
    log_domain: bool = False
    kb: bool = False
    budget_share: float | None = None  # cache budget as a share of live cells
    kb_off_reruns: int = 0  # per network, the first queries re-run without the KB


WORKLOADS = {
    # tracemalloc slows a query about 10x, so query_peak_kb measures the
    # first queries only: those of the first grids, or of the first pedigree.
    "grid-full": Workload(setups=60, peak_queries=8),
    "linkage-kb-budget": Workload(
        setups=60, peak_queries=4, kb=True, budget_share=0.5, kb_off_reruns=1
    ),
    # Not in BENCHMARK.json: on a shared host its times drift past the bounds
    # (README.md, Steadiness).  tracemalloc slows its queries about 40x, and
    # their peaks differ by under 0.1%, hence only two.
    "chain-prep-log": Workload(setups=5, peak_queries=2, log_domain=True),
}


class CollectorClock:
    """Seconds the cyclic garbage collector has run in this process so far."""

    def __init__(self):
        self.seconds = 0.0
        self._started = 0.0
        gc.callbacks.append(self._on_collect)

    def _on_collect(self, phase, info):
        if phase == "start":
            self._started = time.perf_counter()
        else:
            self.seconds += time.perf_counter() - self._started


class CallTimes:
    """(name, seconds, collector seconds) of every call made through
    `wrap`, in call order."""

    def __init__(self, collector: CollectorClock):
        self.collector = collector
        self.calls: list[tuple[str, float, float]] = []

    def wrap(self, name: str, fn):
        collector, calls, clock = self.collector, self.calls, time.perf_counter

        def timed(*args, **kwargs):
            gc0 = collector.seconds
            t0 = clock()
            result = fn(*args, **kwargs)
            calls.append((name, clock() - t0, collector.seconds - gc0))
            return result

        return timed


def import_rcnet():
    """rcnet from this checkout's `src`, or exit 2."""
    if not (SRC / "rcnet" / "__init__.py").is_file():
        print(f"rcnet sources not found under {SRC}", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(SRC))
    import rcnet

    if not Path(rcnet.__file__).resolve().is_relative_to(SRC):
        print(f"rcnet was imported from {rcnet.__file__}, not from {SRC}", file=sys.stderr)
        sys.exit(2)
    return rcnet


class Api:
    """The public rcnet calls the benchmark makes, each passed through
    `wrap(name, fn)` when it is given."""

    def __init__(self, rcnet, wrap=None):
        wrap = wrap or (lambda name, fn: fn)
        self.parse_network = wrap("model.parse_network", rcnet.model.parse_network)
        self.min_fill_order = wrap("dtree.min_fill_order", rcnet.dtree.min_fill_order)
        self.build_dtree = wrap("dtree.build_dtree", rcnet.dtree.build_dtree)
        self.annotate = wrap("dtree.annotate", rcnet.dtree.annotate)
        self.mark_dead_caches = wrap("dtree.mark_dead_caches", rcnet.dtree.mark_dead_caches)
        self.space_report = wrap("spaces.space_report", rcnet.spaces.space_report)
        self.compile_kb = wrap("kb.compile_kb", rcnet.kb.compile_kb)
        self.rc_query = wrap("engine.rc_query", rcnet.engine.rc_query)


@dataclass
class Prepared:
    network: object
    root: object
    stats: object  # DtreeStats from annotate
    space: object  # SpaceReport
    kb: object
    policy: object


def set_up(rcnet, api: Api, workload: Workload, docs: list[str]) -> list[Prepared]:
    """What `rcnet query` does before it answers, for every network."""
    prepared = []
    for doc in docs:
        network = api.parse_network(doc)
        order = api.min_fill_order(network)
        root = api.build_dtree(network, order)
        stats = api.annotate(root)
        api.mark_dead_caches(root)
        space = api.space_report(network, order, root)
        kb = api.compile_kb(network) if workload.kb else None
        if workload.budget_share is None:
            policy = rcnet.CachePolicy.full()
        else:
            policy = rcnet.CachePolicy.budget(int(workload.budget_share * space.rc_cells_live))
        prepared.append(Prepared(network, root, stats, space, kb, policy))
    return prepared


@dataclass
class Query:
    net: int
    evidence: dict
    expected: float  # ln Pr(e) from the oracle


def dtree_height(root) -> int:
    best, stack = 0, [(root, 1)]
    while stack:
        node, depth = stack.pop()
        best = max(best, depth)
        if not node.is_leaf:
            stack += [(node.left, depth + 1), (node.right, depth + 1)]
    return best


class Runner:
    def __init__(self, workload: Workload, prepared: list[Prepared], queries: list[Query]):
        self.workload = workload
        self.prepared = prepared
        self.queries = queries
        self.wrong = 0
        self.errors = 0

    def ask(self, api: Api, q: Query, use_kb=True):
        p = self.prepared[q.net]
        return api.rc_query(
            p.network, p.root, q.evidence, policy=p.policy,
            kb=p.kb if use_kb else None, log_domain=self.workload.log_domain,
        )

    def is_right(self, q: Query, result) -> bool:
        """Against the oracle; also Pr(e) > 0, since the evidence was sampled."""
        if self.workload.log_domain:
            got = result.log_value
            return got is not None and got > -math.inf and abs(got - q.expected) <= ABS_TOL
        return result.probability > 0.0 and math.isclose(
            result.probability, math.exp(q.expected), rel_tol=REL_TOL
        )

    def closed_loop(self, api: Api, seconds: float, set_ups: int, refresh, collector):
        """Whole rounds over the query set until `seconds` have passed and
        the KEPT_SHARE of the queries timed is at least MIN_QUERIES.

        Between rounds, `set_ups` calls of `refresh` are spread evenly over
        the `seconds`, each replacing the prepared networks, so that the
        set-up times sample the whole run rather than one moment of a
        shared host.  The first MEMORY_ROUNDS rounds run on the first
        set-up, with no collection forced, and the peak resident memory
        is read when they end: the same sequence of calls every run.
        Returns the number attempted, per round the (query index,
        seconds, seconds of garbage collection within them) of each right
        answer, per query index its last result (None if it never
        answered right), and that peak in KiB."""
        rounds: list[list[tuple[int, float, float]]] = []
        results: list = [None] * len(self.queries)
        clock = time.perf_counter
        started = clock()
        attempted = done = 0
        peak_rss_kb = None
        while attempted * KEPT_SHARE < MIN_QUERIES or clock() - started < seconds or done < set_ups:
            if len(rounds) == MEMORY_ROUNDS:
                peak_rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
            while (
                len(rounds) >= MEMORY_ROUNDS and done < set_ups
                and clock() - started >= seconds * (done + 1) / (set_ups + 1)
            ):
                self.prepared = None  # one set-up alive at a time
                self.prepared = refresh()
                done += 1
            timed = []
            for i, q in enumerate(self.queries):
                attempted += 1
                gc0 = collector.seconds
                t0 = clock()
                try:
                    result = self.ask(api, q)
                except Exception:
                    if self.errors == 0:
                        traceback.print_exc()
                    self.errors += 1
                    continue
                elapsed = clock() - t0
                if not self.is_right(q, result):
                    self.wrong += 1
                    continue
                timed.append((i, elapsed, collector.seconds - gc0))
                results[i] = result
            rounds.append(timed)
        if peak_rss_kb is None:
            peak_rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        return attempted, rounds, results, peak_rss_kb


def least_disturbed(samples: list[tuple[float, float]]) -> list[float]:
    """The seconds of the KEPT_SHARE of `samples`, the (seconds, collector
    seconds) of one piece of work done again and again, with the least
    time outside garbage collection.

    On a shared host the same code runs up to 2x slower, in stretches of
    a fraction of a second to minutes, yet even in slow stretches some
    timings of a repeated piece of work run at full speed: the fastest
    are the least disturbed.  They are ranked without their collection
    time, so a timing that holds a collection, a rare full one included,
    is kept as often as any other, and the kept seconds carry collection
    pauses at their natural rate.
    """
    ranked = sorted(samples, key=lambda s: s[0] - s[1])
    return [t for t, _ in ranked[: math.ceil(KEPT_SHARE * len(ranked))]]


def tracemalloc_peaks_kb(runner: Runner, api: Api, answered: list[int]) -> list[float]:
    """Python heap high-water mark of single queries, above the level at their start."""
    peaks = []
    tracemalloc.start()
    try:
        for i in answered[: runner.workload.peak_queries]:
            gc.collect()
            tracemalloc.reset_peak()
            base = tracemalloc.get_traced_memory()[0]
            runner.ask(api, runner.queries[i])
            peaks.append((tracemalloc.get_traced_memory()[1] - base) / 1024)
    finally:
        tracemalloc.stop()
    return peaks


def kb_reruns(runner: Runner, api: Api, results, pairs: int):
    """Re-answer the first queries of each network without the KB.

    Each re-run query is answered `pairs` times with the KB and without
    it, alternately and back to back, so that both sides of the ratio
    see the same host.  Returns the rc calls and the median seconds with
    the KB and without it, summed over the re-run queries; an answer
    that differs makes the run incorrect.
    """
    on_calls = off_calls = 0
    on_s = off_s = 0.0
    per_net: dict[int, int] = {}
    for i, q in enumerate(runner.queries):
        if results[i] is None or per_net.get(q.net, 0) >= runner.workload.kb_off_reruns:
            continue
        per_net[q.net] = per_net.get(q.net, 0) + 1
        times = {True: [], False: []}
        for _ in range(pairs):
            for use_kb in (True, False):
                t0 = time.perf_counter()
                answer = runner.ask(api, q, use_kb=use_kb)
                times[use_kb].append(time.perf_counter() - t0)
                if not math.isclose(answer.probability, results[i].probability, rel_tol=REL_TOL):
                    runner.wrong += 1
        on_s += statistics.median(times[True])
        off_s += statistics.median(times[False])
        on_calls += results[i].rc_calls
        off_calls += answer.rc_calls
    return on_calls, on_s, off_calls, off_s


def load_inputs(args) -> tuple[list[str], list[Query]]:
    """Network documents and queries with their oracle answers, from inputs.py."""
    cmd = [sys.executable, str(HERE / "inputs.py"), "--workload", args.workload,
           "--seed", str(args.seed)] + (["--small"] if args.small else [])
    made = json.loads(subprocess.run(cmd, stdout=subprocess.PIPE, check=True, text=True).stdout)
    queries = [
        Query(q["net"], {int(v): s for v, s in q["evidence"].items()}, q["expected"])
        for q in made["queries"]
    ]
    return made["docs"], queries


def run(args) -> dict:
    rcnet = import_rcnet()
    workload = WORKLOADS[args.workload]
    docs, queries = load_inputs(args)

    collector = CollectorClock()
    calls = CallTimes(collector)
    api = Api(rcnet)
    if args.trace:
        from spans import Spans  # numpy; the untraced process does without it

        spans = Spans()
        setup_api = Api(rcnet, lambda name, fn: calls.wrap(name, spans.wrap(name, fn)))
    else:
        spans = None
        setup_api = Api(rcnet, calls.wrap)

    def fresh_set_up():
        gc.collect()  # free the dropped set-up here, not inside a timed query
        return set_up(rcnet, setup_api, workload, docs)

    rss_before_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    runner = Runner(workload, fresh_set_up(), queries)
    attempted, rounds, results, rss_peak_kb = runner.closed_loop(
        api, args.seconds, workload.setups - 1, fresh_set_up, collector
    )

    samples: dict[int, list[tuple[float, float]]] = {}
    for r in rounds:
        for i, t, g in r:
            samples.setdefault(i, []).append((t, g))
    kept = {i: least_disturbed(s) for i, s in sorted(samples.items())}
    pooled = [t for ts in kept.values() for t in ts]
    best_s = {i: statistics.median(ts) for i, ts in kept.items()}
    # Every set-up makes the same calls in the same order: per call, its
    # kept timings over the run's set-ups.
    per_set_up = len(calls.calls) // workload.setups
    set_up_calls = [
        (calls.calls[k][0], least_disturbed([(t, g) for _, t, g in calls.calls[k::per_set_up]]))
        for k in range(per_set_up)
    ]
    reruns = None
    if workload.kb_off_reruns:
        reruns = kb_reruns(runner, api, results, KB_PAIRS if args.trace else 1)
    if not pooled:
        metrics = {}
    elif args.trace:
        metrics = query_layer_metrics(rcnet, runner, spans, best_s, results, reruns)
        metrics.update(setup_layer_metrics(set_up_calls))
        # over every timed query, not the kept ones: see README.md
        collector_s = [g for s in samples.values() for _, g in s]
        metrics["gc.s_per_query"] = (sum(collector_s) / len(collector_s), "s")
        OUT.mkdir(exist_ok=True)
        spans.save(OUT / f"spans-{args.workload}.npz")
    else:
        peaks = tracemalloc_peaks_kb(runner, api, list(best_s))
        metrics = {
            "queries_per_s": (len(pooled) / sum(pooled), "1/s"),
            "query_s_p50": (statistics.median(pooled), "s"),
            "query_s_p90": (statistics.quantiles(pooled, n=10)[8], "s"),
            "setup_s": (sum(statistics.median(ts) for _, ts in set_up_calls), "s"),
            "peak_rss_mb": ((rss_peak_kb - rss_before_kb) / 1024, "MB"),
            "query_peak_kb": (statistics.median(peaks), "KB"),
        }
    return {
        "correct": runner.wrong == 0,  # the traced round checks its answers too
        "attempted": attempted,
        "failed": runner.errors + runner.wrong,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }


def setup_layer_metrics(set_up_calls: list[tuple[str, list[float]]]) -> dict:
    """Per set-up time of each preparation layer: over its calls in one
    set-up, the sum of each call's median kept time."""

    def median_s(name):
        return sum(statistics.median(ts) for n, ts in set_up_calls if n == name)

    return {
        "model.parse_s": (median_s("model.parse_network"), "s"),
        "dtree.min_fill_s": (median_s("dtree.min_fill_order"), "s"),
        "dtree.build_s": (median_s("dtree.build_dtree"), "s"),
        "dtree.annotate_s": (median_s("dtree.annotate"), "s"),
        "dtree.mark_dead_s": (median_s("dtree.mark_dead_caches"), "s"),
        "spaces.report_s": (median_s("spaces.space_report"), "s"),
        "kb.compile_s": (median_s("kb.compile_kb"), "s"),
    }


def query_layer_metrics(rcnet, runner, spans, best_s, results, reruns) -> dict:
    """Per-layer metrics of the prepared networks and of one traced round
    over the queries that answered right.  `best_s` holds their median
    kept untraced timings."""
    prepared = runner.prepared
    traced_api = Api(rcnet, spans.wrap)
    plain_lookup = rcnet.engine.lookup
    kb_class = rcnet.kb.KnowledgeBase

    class TimedKnowledgeBase(kb_class):
        checkpoint = spans.wrap("kb.checkpoint", kb_class.checkpoint)
        assert_literal = spans.wrap("kb.assert_literal", kb_class.assert_literal)
        retract_to = spans.wrap("kb.retract_to", kb_class.retract_to)

    first = len(spans)
    rcnet.engine.lookup = spans.wrap("engine.lookup", plain_lookup)
    for p in prepared:
        if p.kb is not None:
            p.kb.__class__ = TimedKnowledgeBase
    try:
        for i in best_s:
            if not runner.is_right(runner.queries[i], runner.ask(traced_api, runner.queries[i])):
                runner.wrong += 1
    finally:
        rcnet.engine.lookup = plain_lookup
        for p in prepared:
            if p.kb is not None:
                p.kb.__class__ = kb_class
    traced = spans.totals(first)

    def layer(parent, name):
        return traced.get((parent, name), (0, 0.0))

    n = len(best_s)
    query_s = layer("", "engine.rc_query")[1]
    lookups, lookup_s = layer("engine.rc_query", "engine.lookup")
    asserts, assert_s = layer("engine.rc_query", "kb.assert_literal")
    kb_s = sum(layer("engine.rc_query", f"kb.{m}")[1] for m in ("checkpoint", "assert_literal", "retract_to"))
    untraced_s = sum(best_s.values())
    answers = [results[i] for i in best_s]
    calls = sum(r.rc_calls for r in answers)
    hits = sum(r.cache_hits for r in answers)
    misses = sum(r.cache_misses for r in answers)

    if reruns is None:
        call_ratio = time_ratio = 0.0
    else:
        on_calls, on_s, off_calls, off_s = reruns
        call_ratio, time_ratio = off_calls / on_calls, off_s / on_s
    return {
        "dtree.width": (max(p.stats.width for p in prepared), "count"),
        "dtree.height": (max(dtree_height(p.root) for p in prepared), "count"),
        "dtree.cells_all": (statistics.fmean(p.space.rc_cells_all for p in prepared), "cells"),
        "dtree.cells_live": (statistics.fmean(p.space.rc_cells_live for p in prepared), "cells"),
        "spaces.hugin_cells": (statistics.fmean(p.space.hugin_cells for p in prepared), "cells"),
        "spaces.ve_cells": (statistics.fmean(p.space.ve_cells for p in prepared), "cells"),
        "kb.clauses": (statistics.fmean(p.kb.n_clauses if p.kb else 0 for p in prepared), "count"),
        "kb.asserts_per_query": (asserts / n, "count"),
        "kb.assert_s_per_query": (assert_s / n, "s"),
        "kb.retract_s_per_query": (layer("engine.rc_query", "kb.retract_to")[1] / n, "s"),
        "kb.skips_per_query": (sum(r.kb_skips for r in answers) / n, "count"),
        "kb.call_ratio": (call_ratio, "ratio"),
        "kb.time_ratio": (time_ratio, "ratio"),
        "engine.rc_calls_per_query": (calls / n, "count"),
        "engine.cache_hits_per_query": (hits / n, "count"),
        "engine.cache_misses_per_query": (misses / n, "count"),
        "engine.entries_written_per_query": (sum(r.entries_written for r in answers) / n, "count"),
        "engine.cache_hit_ratio": (hits / (hits + misses) if hits + misses else 0.0, "ratio"),
        "engine.rc_calls_per_s": (calls / untraced_s, "1/s"),
        "engine.lookup_calls_per_query": (lookups / n, "count"),
        "engine.lookup_s_per_query": (lookup_s / n, "s"),
        "engine.self_s_per_query": ((query_s - lookup_s - kb_s) / n, "s"),
        "trace.overhead": (query_s / untraced_s, "ratio"),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--small", action="store_true", help="small inputs, for the self-test")
    args = parser.parse_args(argv)
    print(json.dumps(run(args)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
