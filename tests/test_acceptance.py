"""End-to-end acceptance suite.

Each test prints one `[acceptance] name: PASS/FAIL` line (run pytest
with -s to see them on success) and enforces its stated tolerance and
runtime budget.
"""

import functools
import json
import math
import random
import time

import pytest

from rcnet import (
    CachePolicy,
    KnowledgeBase,
    annotate,
    brute_force_probability,
    build_dtree,
    compile_kb,
    dtree_from_shape,
    dtree_stats,
    expand_to_table,
    mark_dead_caches,
    min_fill_order,
    parse_network,
    prepare_dtree,
    rc_query,
    space_report,
)
from rcnet.dtree import DEAD, LIVE, iter_nodes
from rcnet.model import TabularCpt
from rcnet.randnet import random_evidence, random_network

from helpers import (
    chain_network,
    gate_network,
    literal_code,
    right_linear_shape,
    star_doc,
    star_network,
)
from oracles import check_running_intersection, dtree_separators, replay_kb


def report(name: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    suffix = f"  ({detail})" if detail else ""
    print(f"[acceptance] {name}: {status}{suffix}")


def rel_err(a: float, b: float) -> float:
    m = max(abs(a), abs(b))
    return 0.0 if m == 0.0 else abs(a - b) / m


def make_suite(seed: int, count: int, determinism: float):
    rng = random.Random(seed)
    suite = []
    for _ in range(count):
        net = random_network(
            rng, max_vars=10, max_states=4, determinism=determinism, max_joint=2500
        )
        evidence = random_evidence(rng, net, p_observe=0.4)
        suite.append((net, evidence))
    return suite


def test_deterministic_cpt_clause_compilation():
    started = time.perf_counter()
    kb = compile_kb(gate_network())
    a, b, c = 0, 1, 2
    lit = functools.partial(literal_code, kb.cards)
    expected = {
        frozenset({lit(c, 0, True), lit(a, 0, False), lit(b, 0, False)}),
        frozenset({lit(c, 1, True), lit(a, 0, False), lit(b, 1, False)}),
        frozenset({lit(c, 2, False), lit(a, 1, False), lit(b, 0, False)}),
        frozenset({lit(c, 2, False), lit(a, 1, False), lit(b, 1, False)}),
    }
    got = {frozenset(cl) for cl in kb.clauses}
    elapsed = time.perf_counter() - started
    ok = got == expected and elapsed < 1.0
    report("clause compilation matches the worked fixture", ok,
           f"{kb.n_clauses} clauses in {elapsed:.3f}s")
    assert got == expected
    assert elapsed < 1.0


def test_oracle_equivalence_across_modes():
    started = time.perf_counter()
    suite = make_suite(seed=20260810, count=200, determinism=0.0)
    worst = 0.0
    runs = 0
    for net, evidence in suite:
        root = prepare_dtree(net)
        kb = compile_kb(net)
        expected = brute_force_probability(net, evidence)
        budget = CachePolicy.budget(max(1, dtree_stats(root).cache_cells_live // 2))
        for policy in (CachePolicy.full(), CachePolicy.none(), budget):
            for use_kb in (False, True):
                for log_domain in (False, True):
                    res = rc_query(net, root, evidence, policy=policy,
                                   kb=kb if use_kb else None, log_domain=log_domain)
                    tol = 1e-6 if log_domain else 1e-9
                    err = rel_err(res.probability, expected)
                    worst = max(worst, err)
                    assert err <= tol, (err, policy, use_kb, log_domain)
                    runs += 1
    elapsed = time.perf_counter() - started
    ok = elapsed < 120.0
    report("oracle equivalence across cache/kb/domain modes", ok,
           f"{runs} runs, worst rel err {worst:.2e}, {elapsed:.1f}s")
    assert ok


def test_kb_soundness_and_savings():
    suite = make_suite(seed=20260810, count=200, determinism=0.5)
    with_skips = 0
    short_circuits = 0
    zero_cells = 0
    total_cells = 0
    for net, evidence in suite:
        for cpt in net.cpts:
            if isinstance(cpt, TabularCpt):
                zero_cells += sum(1 for e in cpt.entries if e == 0.0)
                total_cells += len(cpt.entries)
        root = prepare_dtree(net)
        kb = compile_kb(net)
        plain = rc_query(net, root, evidence)
        pruned = rc_query(net, root, evidence, kb=kb)
        assert abs(plain.probability - pruned.probability) <= 1e-12
        assert pruned.rc_calls <= plain.rc_calls
        if pruned.kb_skips > 0:
            with_skips += 1
        if pruned.kb_evidence_contradiction:
            short_circuits += 1
    fraction = with_skips / len(suite)
    zero_fraction = zero_cells / total_cells
    ok = fraction >= 0.30
    report("kb pruning sound and saving work", ok,
           f"skips on {fraction:.0%} of instances, evidence short-circuits on "
           f"{short_circuits / len(suite):.0%}, {zero_fraction:.0%} zero cells")
    assert ok
    assert zero_fraction >= 0.30  # the suite is genuinely determinized


def test_star_dead_caches_and_factored_cpt_scaling():
    started = time.perf_counter()
    for n in range(2, 19):
        net = star_network(n)
        root = dtree_from_shape(net, right_linear_shape(n))
        annotate(root)
        marked = mark_dead_caches(root)
        internal_nonroot = sum(
            1 for t in iter_nodes(root) if not t.is_leaf and t.parent is not None
        )
        assert marked == internal_nonroot == n - 1
        assert all(
            t.cache_state == DEAD
            for t in iter_nodes(root)
            if not t.is_leaf and t.parent is not None
        )
        assert dtree_stats(root).cache_cells_live == 0

    # n = 18: factored CPT holds the whole network in under 100 stored cells
    n = 18
    doc = star_doc(n)
    net = parse_network(json.dumps(doc))
    root = dtree_from_shape(net, right_linear_shape(n))
    annotate(root)
    mark_dead_caches(root)
    assert dtree_stats(root).cache_cells_live == 0
    stored_cells = sum(
        len(cpt.entries) if isinstance(cpt, TabularCpt) else len(cpt.inhibitor) + 1
        for cpt in net.cpts
    )
    assert stored_cells < 100
    expanded_cells = 2 * 3 ** n
    assert expanded_cells == 774_840_978
    with pytest.raises(ValueError, match="budget"):
        expand_to_table(net, net.var_id("Y"))

    # a query against the factored CPT: observe Y and all but three parents
    y = net.var_id("Y")
    evidence = {y: 1}
    observed_state = {}
    for i in range(1, n - 2):
        var = net.var_id(f"X{i}")
        state = (i * 7) % 3
        evidence[var] = state
        observed_state[f"X{i}"] = state
    res = rc_query(net, root, evidence, policy=CachePolicy.full())
    assert res.entries_written == 0 and res.cache_hits == 0  # nothing live

    # closed-form expectation computed directly from the document numbers
    prior = doc["cpts"][0]["table"]
    inhibitor = 0.4
    leak = 0.1
    p_observed = 1.0
    off_factor = 1.0 - leak
    for name, state in observed_state.items():
        p_observed *= prior[state]
        if state == 2:  # trigger state
            off_factor *= inhibitor
    expected = 0.0
    for s16 in range(3):
        for s17 in range(3):
            for s18 in range(3):
                w = prior[s16] * prior[s17] * prior[s18]
                off = off_factor
                for s in (s16, s17, s18):
                    if s == 2:
                        off *= inhibitor
                expected += w * (1.0 - off)
    expected *= p_observed
    elapsed = time.perf_counter() - started
    ok = rel_err(res.probability, expected) <= 1e-9 and elapsed < 30.0
    report("star dtree: every cache dead, factored CPT stays O(n)", ok,
           f"n=18 in {elapsed:.2f}s, {stored_cells} stored cells vs "
           f"{expanded_cells} expanded")
    assert rel_err(res.probability, expected) <= 1e-9
    assert elapsed < 30.0


def test_space_identity_and_running_intersection():
    rng = random.Random(99)
    worst = None
    for _ in range(100):
        net = random_network(rng, max_vars=10, max_states=4)
        order = min_fill_order(net)
        root = build_dtree(net, order)
        annotate(root)
        mark_dead_caches(root)
        cells_all = dtree_stats(root).cache_cells_all
        separators = [(node, math.prod(net.cards[v] for v in sep))
                      for node, sep in dtree_separators(root)]
        assert cells_all == sum(c for node, c in separators if not node.is_leaf)
        space = space_report(net, order, root)
        assert space.shenoy_shafer_cells == sum(c for _, c in separators)
        assert space.hugin_cells >= space.shenoy_shafer_cells
        assert check_running_intersection(root)
        worst = cells_all
    report("rc cells equal separator cells on internal edges", True,
           f"100 networks, last cells_all={worst}")


def test_full_caching_work_bound():
    suite = make_suite(seed=20260810, count=200, determinism=0.0)
    total_written = 0
    for net, evidence in suite:
        root = prepare_dtree(net)
        cells = {t.id: t.cells for t in iter_nodes(root)}
        live_nodes = {t.id for t in iter_nodes(root) if not t.is_leaf and t.cache_state == LIVE}
        live = dtree_stats(root).cache_cells_live
        for log_domain in (False, True):
            res = rc_query(net, root, evidence, policy=CachePolicy.full(),
                           log_domain=log_domain)
            assert set(res.per_node_misses) <= live_nodes
            assert sum(res.per_node_misses.values()) == res.cache_misses
            for node_id, misses in res.per_node_misses.items():
                assert misses <= cells[node_id]
            assert res.entries_written <= live
            total_written += res.entries_written
    ok = total_written > 0
    report("full-caching work bound holds per node and in total", ok,
           f"{total_written} cache entries written across the suite")
    assert ok


def test_unit_resolution_state_integrity():
    started = time.perf_counter()
    rng = random.Random(77)
    net = random_network(rng, max_vars=10, max_states=4, determinism=0.5)
    kb = compile_kb(net)
    frames: list[tuple[int, list[int]]] = [(kb.checkpoint(), [])]
    checks = 0
    for step in range(10_000):
        action = rng.random()
        if action < 0.6:
            var = rng.randrange(net.n)
            state = rng.randrange(net.cards[var])
            literal = literal_code(net.cards, var, state, rng.random() < 0.7)
            tok = kb.checkpoint()
            if kb.assert_literal(literal):
                frames[-1][1].append(literal)
            else:
                kb.retract_to(tok)
        elif action < 0.8:
            frames.append((kb.checkpoint(), []))
        else:
            if len(frames) > 1:
                token, _ = frames.pop()
                kb.retract_to(token)
            surviving = [l for _, lits in frames for l in lits]
            oracle = replay_kb(lambda: compile_kb(net), surviving)
            assert kb.domain == oracle.domain
            assert kb.audit() == []
            checks += 1
    surviving = [l for _, lits in frames for l in lits]
    oracle = replay_kb(lambda: compile_kb(net), surviving)
    assert kb.domain == oracle.domain
    elapsed = time.perf_counter() - started
    ok = elapsed < 30.0
    report("assert/retract trail matches from-scratch replay", ok,
           f"10000 steps, {checks} checkpoint audits, {elapsed:.1f}s")
    assert ok


def test_chain_fixture_arithmetic():
    net = chain_network()
    root = build_dtree(net, [0, 2, 1])
    stats = annotate(root)
    marked = mark_dead_caches(root)
    inner = [t for t in iter_nodes(root) if not t.is_leaf and t.parent is not None]
    name = lambda ids: {net.variables[v].name for v in ids}
    ok = (
        stats.width == 1
        and name(root.cutset) == {"B"}
        and len(inner) == 1
        and name(inner[0].context) == {"B"}
        and inner[0].cache_state == DEAD
        and marked == 1
        and dtree_stats(root).cache_cells_live == 0
    )
    report("chain fixture arithmetic exact", ok,
           f"width={stats.width}, live cells={dtree_stats(root).cache_cells_live}")
    assert ok
