import gc
import json
import math
import random
import re
import sys
import tracemalloc

import pytest

import rcnet.engine
from rcnet import (
    CachePolicy,
    KnowledgeBase,
    annotate,
    apply_policy,
    brute_force_probability,
    build_dtree,
    compile_kb,
    dtree_from_shape,
    dtree_stats,
    expand_to_table,
    lookup,
    mark_dead_caches,
    min_fill_order,
    parse_network,
    prepare_dtree,
    rc_query,
)
from rcnet.dtree import DISABLED, LIVE, iter_nodes
from rcnet.engine import LOG_ZERO, NOISY_OR_TABLE_CELLS, UNASSIGNED, QueryPlan
from rcnet.model import NoisyOrCpt

from helpers import (
    chain_doc,
    chain_network,
    grid_network,
    literal_of,
    random_shape,
    right_linear_shape,
    spine_chain_doc,
    star_network,
)
from oracles import forward_log_probability
from randnet import random_evidence, random_network


def rel_err(a, b):
    m = max(abs(a), abs(b))
    return 0.0 if m == 0.0 else abs(a - b) / m


# --- lookup ------------------------------------------------------------


C = 2  # the gate's child, with parents A and B


def test_lookup_assigned_child(gate):
    assert lookup(gate, C, [0, 1, 1]) == 1.0  # A=1, B=2, C=2
    assert lookup(gate, C, [1, 0, 1]) == 0.8  # A=2, B=1, C=2


def test_lookup_unassigned_child_sums_out(gate):
    assign = [1, 0, UNASSIGNED]
    assert lookup(gate, C, assign) == 1.0
    assert lookup(gate, C, assign, log_domain=True) == 0.0


def test_lookup_missing_parent_aborts(gate):
    assign = [UNASSIGNED, UNASSIGNED, 0]  # C assigned, parents not
    with pytest.raises(RuntimeError, match="malformed dtree"):
        lookup(gate, C, assign)


def test_walk_calls_lookup_for_the_leaves_it_reads_no_table_of(monkeypatch):
    # a noisy-or family of 2 * 3**8 cells, above NOISY_OR_TABLE_CELLS, and a
    # one-variable network, whose root is a leaf
    star = star_network(8, parent_card=3)
    assert 2 * 3**8 > NOISY_OR_TABLE_CELLS
    single = parse_network(json.dumps({
        "variables": [{"name": "A", "states": ["0", "1"]}],
        "cpts": [{"child": "A", "parents": [], "kind": "table", "table": [0.4, 0.6]}],
    }))
    y = star.var_id("Y")
    cases = [(star, {y: 1}), (star, {y: 0, 0: 2}), (single, {0: 1}), (single, {})]
    roots = [prepare_dtree(net) for net, _ in cases]
    plain = [rc_query(net, root, evidence) for (net, evidence), root in zip(cases, roots)]
    calls = []

    def counted(*args, **kwargs):
        calls.append(args[1])
        return lookup(*args, **kwargs)

    monkeypatch.setattr(rcnet.engine, "lookup", counted)
    for (net, evidence), root, want in zip(cases, roots, plain):
        calls.clear()
        got = rc_query(net, root, evidence)
        assert got.probability == want.probability
        assert got.rc_calls == want.rc_calls
        assert calls and set(calls) == {y if net is star else 0}
    assert plain[2].probability == 0.6
    assert rel_err(plain[0].probability, brute_force_probability(star, {y: 1})) <= 1e-9


# --- cache policies ----------------------------------------------------


def test_policy_budget_extremes_match_none_and_full(chain):
    root = prepare_dtree(chain)
    full = apply_policy(root, CachePolicy.full())
    none = apply_policy(root, CachePolicy.none())
    assert apply_policy(root, CachePolicy.budget(0)) == none
    assert apply_policy(root, CachePolicy.budget(10**9)) == full
    assert CachePolicy.parse("budget:16") == CachePolicy.budget(16)
    with pytest.raises(ValueError):
        CachePolicy.parse("half")


def test_invalid_policy_refused_when_made():
    for make in (lambda: CachePolicy("budget"), lambda: CachePolicy("bogus"),
                 lambda: CachePolicy(-5), lambda: CachePolicy.budget(-1),
                 lambda: CachePolicy.budget(2.5), lambda: CachePolicy.budget(True)):
        with pytest.raises(ValueError):
            make()
    assert CachePolicy(0) == CachePolicy.budget(0) == CachePolicy.none()


def test_policy_budget_prefers_small_contexts():
    rng = random.Random(40)
    for _ in range(20):
        net = random_network(rng, max_vars=9)
        root = prepare_dtree(net)
        live = sorted(
            (n for n in iter_nodes(root) if n.cache_state == LIVE),
            key=lambda t: (t.cells, t.id),
        )
        if len(live) < 2:
            continue
        budget = live[0].cells
        states = apply_policy(root, CachePolicy.budget(budget))
        assert states[live[0].id] == LIVE
        assert all(states[t.id] == DISABLED for t in live[1:] if t.cells > 0)


def test_dead_stays_dead_under_every_policy(chain):
    root = prepare_dtree(chain)
    dead_ids = {n.id for n in iter_nodes(root) if n.cache_state == "dead"}
    for policy in (CachePolicy.full(), CachePolicy.none(), CachePolicy.budget(100)):
        states = apply_policy(root, policy)
        assert all(states[i] == "dead" for i in dead_ids)


# --- hand-checked fixtures ---------------------------------------------


def test_empty_evidence_is_one(gate, chain):
    for net in (gate, chain):
        root = prepare_dtree(net)
        assert rc_query(net, root, {}).probability == pytest.approx(1.0, abs=1e-9)


def test_gate_zero_row_forces_zero(gate):
    root = prepare_dtree(gate)
    assert rc_query(gate, root, {2: 2}).probability == 0.0


def test_gate_hand_arithmetic(gate):
    # Pr(C=2) = .6*.5*0 + .6*.5*1 + .4*.5*.8 + .4*.5*.3 = 0.52
    # Pr(A=1, C=1) = .6 * (.5*1 + .5*0) = 0.3
    root = prepare_dtree(gate)
    assert rc_query(gate, root, {2: 1}).probability == pytest.approx(0.52, rel=1e-12)
    assert rc_query(gate, root, {0: 0, 2: 0}).probability == pytest.approx(0.3, rel=1e-12)


def test_chain_hand_arithmetic(chain):
    # Pr(B=0) = .6*.7 + .4*.2 = 0.5;  Pr(B=0, C=1) = 0.5 * .1 = 0.05
    # Pr(A=1, B=0, C=0) = .4 * .2 * .9 = 0.072
    root = prepare_dtree(chain)
    assert rc_query(chain, root, {1: 0}).probability == pytest.approx(0.5, rel=1e-12)
    assert rc_query(chain, root, {1: 0, 2: 1}).probability == pytest.approx(0.05, rel=1e-12)
    assert rc_query(chain, root, {0: 1, 1: 0, 2: 0}).probability == pytest.approx(0.072, rel=1e-12)


def test_brute_force_fixtures(chain):
    assert brute_force_probability(chain, {}) == pytest.approx(1.0, abs=1e-12)
    assert brute_force_probability(chain, {1: 0}) == pytest.approx(0.5, rel=1e-12)
    single = parse_network(json.dumps({
        "variables": [{"name": "X", "states": ["0", "1"]}],
        "cpts": [{"child": "X", "parents": [], "kind": "table", "table": [0.4, 0.6]}],
    }))
    root = prepare_dtree(single)
    assert brute_force_probability(single, {0: 0}) == 0.4
    assert rc_query(single, root, {0: 0}).probability == 0.4


def test_brute_force_size_guard():
    net = star_network(12)  # 3^12 * 2 joint instantiations
    with pytest.raises(ValueError, match="enumeration"):
        brute_force_probability(net, {}, max_instantiations=10**4)


def test_evidence_validation(gate):
    root = prepare_dtree(gate)
    with pytest.raises(ValueError, match="unknown variable"):
        rc_query(gate, root, {9: 0})
    with pytest.raises(ValueError, match="out of range"):
        rc_query(gate, root, {2: 5})


def test_bool_evidence_is_refused(gate):
    # True == 1, so an accepted bool would read as variable or state 1
    root = prepare_dtree(gate)
    with pytest.raises(ValueError, match="out of range"):
        rc_query(gate, root, {0: True})
    with pytest.raises(ValueError, match="unknown variable"):
        rc_query(gate, root, {True: 0})
    with pytest.raises(ValueError):
        brute_force_probability(gate, {False: False})


# --- randomized oracle equivalence --------------------------------------


def run_all_modes(net, root, evidence, kb):
    stats = dtree_stats(root)
    budget = CachePolicy.budget(max(1, stats.cache_cells_live // 2))
    results = {}
    for policy_name, policy in (
        ("full", CachePolicy.full()), ("none", CachePolicy.none()), ("budget", budget)
    ):
        for use_kb in (False, True):
            for log_domain in (False, True):
                res = rc_query(
                    net, root, evidence,
                    policy=policy, kb=kb if use_kb else None, log_domain=log_domain,
                )
                results[(policy_name, use_kb, log_domain)] = res
    return results


def test_oracle_equivalence_all_modes():
    rng = random.Random(50)
    for _ in range(40):
        net = random_network(rng, max_vars=10, determinism=0.25, noisy_or_prob=0.2,
                             max_joint=2000)
        evidence = random_evidence(rng, net)
        root = prepare_dtree(net)
        kb = compile_kb(net)
        expected = brute_force_probability(net, evidence)
        for (policy, use_kb, log_domain), res in run_all_modes(net, root, evidence, kb).items():
            tol = 1e-6 if log_domain else 1e-9
            assert rel_err(res.probability, expected) <= tol, (
                policy, use_kb, log_domain, res.probability, expected
            )


def test_work_bound_under_full_caching():
    rng = random.Random(51)
    total_misses = 0
    for _ in range(25):
        net = random_network(rng, max_vars=10, max_joint=2000)
        evidence = random_evidence(rng, net)
        root = prepare_dtree(net)
        res = rc_query(net, root, evidence)
        cells = {n.id: n.cells for n in iter_nodes(root)}
        live = {n.id for n in iter_nodes(root) if not n.is_leaf and n.cache_state == LIVE}
        assert set(res.per_node_misses) <= live
        assert sum(res.per_node_misses.values()) == res.cache_misses
        for node_id, misses in res.per_node_misses.items():
            assert misses <= cells[node_id]
        assert res.entries_written <= dtree_stats(root).cache_cells_live
        total_misses += res.cache_misses
    assert total_misses > 0


def test_full_caching_never_slower_in_calls(chain):
    root = prepare_dtree(chain)
    evidence = {2: 0}
    full = rc_query(chain, root, evidence, policy=CachePolicy.full())
    none = rc_query(chain, root, evidence, policy=CachePolicy.none())
    assert full.probability == none.probability
    assert full.rc_calls <= none.rc_calls
    assert none.entries_written == 0 and none.cache_hits == 0


def test_policies_agree_on_random_networks():
    rng = random.Random(52)
    for _ in range(15):
        net = random_network(rng, max_vars=9, max_joint=1500)
        evidence = random_evidence(rng, net)
        root = prepare_dtree(net)
        full = rc_query(net, root, evidence, policy=CachePolicy.full())
        none = rc_query(net, root, evidence, policy=CachePolicy.none())
        assert full.probability == none.probability
        assert full.rc_calls <= none.rc_calls


# --- knowledge-base pruning ---------------------------------------------


def test_kb_preserves_probability_and_saves_calls():
    rng = random.Random(53)
    skipped_somewhere = False
    for _ in range(30):
        net = random_network(rng, max_vars=9, determinism=0.5, max_joint=1500)
        evidence = random_evidence(rng, net, p_observe=0.4)
        root = prepare_dtree(net)
        kb = compile_kb(net)
        plain = rc_query(net, root, evidence)
        pruned = rc_query(net, root, evidence, kb=kb)
        assert abs(plain.probability - pruned.probability) <= 1e-12
        assert pruned.rc_calls <= plain.rc_calls
        if pruned.kb_skips > 0:
            skipped_somewhere = True
    assert skipped_somewhere


class CountingKnowledgeBase(KnowledgeBase):
    """Records the literal codes a query asserts."""

    asserted: list

    def assert_literal(self, code):
        self.asserted.append(code)
        return super().assert_literal(code)


def counting(kb):
    kb.__class__ = CountingKnowledgeBase
    kb.asserted = []
    return kb


def test_empty_kb_is_never_asked():
    net = grid_network(4, seed=3)
    root = prepare_dtree(net)
    kb = counting(compile_kb(net))
    assert kb.n_clauses == 0
    evidence = {0: 1, 5: 0, 15: 1}
    res = rc_query(net, root, evidence, kb=kb)
    assert kb.asserted == []
    plain = rc_query(net, root, evidence)
    assert res.probability == plain.probability
    assert (res.rc_calls, res.kb_skips) == (plain.rc_calls, 0)


def test_kb_is_asked_only_about_mentioned_variables():
    net, evidence = pinned_case(5142)
    root = prepare_dtree(net)
    kb = counting(compile_kb(net))
    unmentioned = [v for v in range(net.n) if not kb.mentioned[v]]
    assert unmentioned and len(unmentioned) < net.n
    res = rc_query(net, root, evidence, kb=kb)
    assert kb.asserted
    assert all(kb.mentioned[literal_of(net.cards, code)[0]] for code in kb.asserted)
    assert res.probability == rc_query(net, root, evidence).probability


def rotated_chain(n):
    """Ternary chain X0 -> X1 -> ... in which Pr(Xi = (p + 1) % 3 | Xi-1 = p)
    is 0: each parent state rules out one child state and fixes none."""
    names = [f"X{i}" for i in range(n)]
    rows = [0.5, 0.0, 0.5] + [0.5, 0.5, 0.0] + [0.0, 0.5, 0.5]
    cpts = [{"child": "X0", "parents": [], "kind": "table", "table": [0.2, 0.3, 0.5]}]
    cpts += [{"child": c, "parents": [p], "kind": "table", "table": rows}
             for p, c in zip(names, names[1:])]
    return parse_network(json.dumps({
        "variables": [{"name": v, "states": ["a", "b", "c"]} for v in names], "cpts": cpts,
    }))


def asked(net, kb):
    """The (variable, state) of each literal the KB was asked, all positive."""
    literals = [literal_of(net.cards, code) for code in kb.asserted]
    assert all(positive for _, _, positive in literals)
    return [(var, state) for var, state, _ in literals]


@pytest.mark.parametrize("log_domain", [False, True])
def test_kb_is_not_asked_at_a_last_level_whose_children_are_leaves(log_domain):
    net = rotated_chain(2)
    root = prepare_dtree(net)
    assert root.cutset == (0,) and root.left.is_leaf and root.right.is_leaf
    kb = counting(compile_kb(net))
    # the evidence rules out X0 = c; X0 = a and X0 = b stay open, and their
    # products read both leaves' tables without a call
    res = rc_query(net, root, {1: 0}, kb=kb, log_domain=log_domain)
    assert asked(net, kb) == [(1, 0)]  # the evidence alone
    assert res.kb_skips == 1
    plain = rc_query(net, root, {1: 0}, log_domain=log_domain)
    assert (res.probability, res.log_value) == (plain.probability, plain.log_value)
    assert res.rc_calls == plain.rc_calls - 2


@pytest.mark.parametrize("policy, expected", [
    # X0's level finds each cell of the cache below it EMPTY, so it always
    # asks; X1's level asks only while its child's cell is still EMPTY, and
    # X2's level, whose children are leaves, never
    (CachePolicy.full(), [(3, 0), (0, 0), (1, 0), (1, 2), (0, 1), (1, 1), (0, 2)]),
    # no caches: X0's and X1's levels call an internal child for every
    # state, and X2's level, whose children are leaves, is never asked
    (CachePolicy.none(), [(3, 0), (0, 0), (1, 0), (1, 2), (0, 1), (1, 0), (1, 1),
                          (0, 2), (1, 1), (1, 2)]),
])
def test_kb_is_asked_before_a_last_level_child_is_called(policy, expected):
    net = rotated_chain(4)
    root = dtree_from_shape(net, ["X0", ["X1", ["X2", "X3"]]])
    annotate(root)  # no dead-cache marks: the cache below the root stays live
    assert [t.cutset for t in iter_nodes(root) if not t.is_leaf] == [(0,), (1,), (2,)]
    kb = counting(compile_kb(net))
    res = rc_query(net, root, {3: 0}, policy=policy, kb=kb)
    # X0 = s is asked before the call below it, whose own questions follow
    assert asked(net, kb) == expected
    plain = rc_query(net, root, {3: 0}, policy=policy)
    assert res.probability == plain.probability
    assert res.rc_calls < plain.rc_calls


def test_kb_for_other_cardinalities_is_refused(gate, chain):
    kb = compile_kb(gate)
    before = list(kb.domain)
    for net in (chain, grid_network(3, seed=1)):
        with pytest.raises(ValueError, match="cardinalities"):
            rc_query(net, prepare_dtree(net), {0: 1}, kb=kb)
        assert kb.domain == before
        assert kb.checkpoint() == 0


def test_kb_left_intact_after_query(gate):
    root = prepare_dtree(gate)
    kb = compile_kb(gate)
    before = (list(kb.domain), kb.checkpoint())
    rc_query(gate, root, {2: 1}, kb=kb)
    assert (kb.domain, kb.checkpoint()) == before
    rc_query(gate, root, {0: 0, 1: 0, 2: 1}, kb=kb)  # contradictory evidence
    assert (kb.domain, kb.checkpoint()) == before


def test_kb_evidence_contradiction_short_circuits(gate):
    root = prepare_dtree(gate)
    kb = compile_kb(gate)
    res = rc_query(gate, root, {0: 0, 1: 0, 2: 1}, kb=kb)  # A=1,B=1,C=2
    assert res.kb_evidence_contradiction
    assert res.probability == 0.0
    assert res.rc_calls == 0
    assert brute_force_probability(gate, {0: 0, 1: 0, 2: 1}) == 0.0


# --- log domain ---------------------------------------------------------


def test_log_domain_matches_linear(gate):
    root = prepare_dtree(gate)
    lin = rc_query(gate, root, {2: 1})
    log = rc_query(gate, root, {2: 1}, log_domain=True)
    assert log.log_value == pytest.approx(math.log(lin.probability), rel=1e-12)
    assert log.probability == pytest.approx(lin.probability, rel=1e-9)
    assert log.log10 == pytest.approx(math.log10(0.52), rel=1e-9)


def test_log_domain_exact_zero(gate):
    root = prepare_dtree(gate)
    res = rc_query(gate, root, {2: 2}, log_domain=True)
    assert res.log_value == LOG_ZERO
    assert res.probability == 0.0
    assert res.log10 is None


def ordered_terms_network(prior, likelihood):
    """R ~ prior, X | R uniform over len(likelihood) states,
    Pr(B = 1 | X = x) = likelihood[x], D uniform, E | R, D, and evidence
    B = 1, with the dtree [[[X, B], E], [R, D]].  The root walks R then D,
    so its terms follow `prior` (each twice, as D changes) when the
    likelihood is not all 0; the cache at [X, B], keyed by R, sums over X
    terms in the order of `likelihood`, and each of its cells is looked
    up twice."""
    k = len(likelihood)
    states = lambda n: [str(s) for s in range(n)]
    net = parse_network(json.dumps({
        "variables": [{"name": "R", "states": states(len(prior))},
                      {"name": "X", "states": states(k)},
                      {"name": "B", "states": states(2)},
                      {"name": "D", "states": states(2)},
                      {"name": "E", "states": states(2)}],
        "cpts": [
            {"child": "R", "parents": [], "kind": "table", "table": list(prior)},
            {"child": "X", "parents": ["R"], "kind": "table",
             "table": [1 / k] * (k * len(prior))},
            {"child": "B", "parents": ["X"], "kind": "table",
             "table": [p for w in likelihood for p in (1 - w, w)]},
            {"child": "D", "parents": [], "kind": "table", "table": [0.5, 0.5]},
            {"child": "E", "parents": ["R", "D"], "kind": "table",
             "table": [0.6, 0.4, 0.1, 0.9] * len(prior)},
        ],
    }))
    root = dtree_from_shape(net, [[["X", "B"], "E"], ["R", "D"]])
    annotate(root)
    mark_dead_caches(root)
    live = [n for n in iter_nodes(root) if n.cache_state == LIVE]
    assert [n.cutset for n in live] == [(net.var_id("X"),)]
    return net, root, {net.var_id("B"): 1}


# each branch of the log domain's running-maximum sum: a -inf term before a
# rising run rescales the sum, a falling run adds to it and a trailing -inf
# is left out, an equal term adds exp(0), and all -inf closes to LOG_ZERO
@pytest.mark.parametrize("prior, likelihood", [
    ((0.0, 0.3, 0.7), (0.0, 0.3, 0.7)),
    ((0.7, 0.3, 0.0), (0.7, 0.3, 0.0)),
    ((0.5, 0.5), (0.4, 0.4)),
    ((0.5, 0.5), (0.0, 0.0, 0.0)),
])
def test_log_domain_sums_its_terms_in_place(prior, likelihood):
    net, root, evidence = ordered_terms_network(prior, likelihood)
    linear = rc_query(net, root, evidence).probability
    expected = brute_force_probability(net, evidence)
    values = set()
    for policy in (CachePolicy.full(), CachePolicy.none()):
        # no KB fills the cache before the root's walk, an empty one on demand
        for kb in (None, KnowledgeBase(net.cards)):
            res = rc_query(net, root, evidence, policy=policy, kb=kb, log_domain=True)
            assert res.log_domain
            assert res.cache_misses == (len(prior) if policy.max_cells is None else 0)
            values.add(res.log_value)
    (value,) = values
    if expected == 0.0:
        assert linear == 0.0 and value == LOG_ZERO
    else:
        assert value == pytest.approx(math.log(linear), rel=1e-12)
        assert value == pytest.approx(math.log(expected), rel=1e-12)


def test_star_dtree_query_with_dead_caches():
    net = star_network(6)
    root = dtree_from_shape(net, right_linear_shape(6))
    annotate(root)
    mark_dead_caches(root)
    res = rc_query(net, root, {})
    assert res.probability == pytest.approx(1.0, abs=1e-9)
    assert res.entries_written == 0  # nothing live to cache
    expected = brute_force_probability(net, {net.var_id("Y"): 1})
    got = rc_query(net, root, {net.var_id("Y"): 1})
    assert rel_err(got.probability, expected) <= 1e-9


def test_disconnected_network_empty_cutsets():
    net = parse_network(json.dumps({
        "variables": [{"name": "A", "states": ["0", "1"]},
                      {"name": "B", "states": ["0", "1", "2"]}],
        "cpts": [
            {"child": "A", "parents": [], "kind": "table", "table": [0.3, 0.7]},
            {"child": "B", "parents": [], "kind": "table", "table": [0.2, 0.2, 0.6]},
        ],
    }))
    root = prepare_dtree(net)
    assert root.cutset == ()
    assert rc_query(net, root, {}).probability == pytest.approx(1.0, abs=1e-12)
    assert rc_query(net, root, {0: 1, 1: 2}).probability == pytest.approx(0.42, rel=1e-12)


def test_cardinality_one_variable_in_queries():
    net = parse_network(json.dumps({
        "variables": [{"name": "K", "states": ["only"]},
                      {"name": "B", "states": ["0", "1"]}],
        "cpts": [
            {"child": "K", "parents": [], "kind": "table", "table": [1.0]},
            {"child": "B", "parents": ["K"], "kind": "table", "table": [0.3, 0.7]},
        ],
    }))
    root = prepare_dtree(net)
    assert rc_query(net, root, {1: 1}).probability == pytest.approx(0.7, rel=1e-12)
    assert rc_query(net, root, {0: 0}).probability == pytest.approx(1.0, abs=1e-12)
    kb = compile_kb(net)
    res = rc_query(net, root, {1: 0}, kb=kb)
    assert res.probability == pytest.approx(0.3, rel=1e-12)


# A0 and D are roots, B copies A, C depends on B and E on A and D.  In the
# shape below, the cache at [B, C] is keyed by A while the root walks A and
# D, so each of its cells is looked up a second time; with B observed as 0,
# the cell for A = 1 holds 0 (or -inf in the log domain).
def copy_gate():
    net = parse_network(json.dumps({
        "variables": [{"name": n, "states": ["0", "1"]} for n in "ABCDE"],
        "cpts": [
            {"child": "A", "parents": [], "kind": "table", "table": [0.5, 0.5]},
            {"child": "B", "parents": ["A"], "kind": "table", "table": [1, 0, 0, 1]},
            {"child": "C", "parents": ["B"], "kind": "table",
             "table": [0.9, 0.1, 0.2, 0.8]},
            {"child": "D", "parents": [], "kind": "table", "table": [0.3, 0.7]},
            {"child": "E", "parents": ["A", "D"], "kind": "table",
             "table": [0.6, 0.4, 0.1, 0.9, 0.5, 0.5, 0.8, 0.2]},
        ],
    }))
    root = dtree_from_shape(net, [[["B", "C"], "E"], ["A", "D"]])
    annotate(root)
    mark_dead_caches(root)
    live = [n for n in iter_nodes(root) if n.cache_state == LIVE]
    assert [n.context for n in live] == [(0,)]
    return net, root, live[0]


@pytest.mark.parametrize("log_domain", [False, True])
def test_cached_zero_values_are_hits(log_domain):
    net, root, cached = copy_gate()
    res = rc_query(net, root, {1: 0}, log_domain=log_domain)
    assert res.probability == pytest.approx(0.5, rel=1e-12)
    assert res.log_domain == log_domain  # the linear answer is not re-run
    # four visits of the cache, one per (A, D): a miss and a hit for each A
    assert (res.cache_hits, res.cache_misses, res.cache_cells) == (2, 2, 2)
    assert res.per_node_misses == {cached.id: 2}
    # evaluated: the root's four instantiations, once each at its two
    # children, and one per miss at the cache
    assert res.rc_calls == 1 + 2 * (4 + 2 * 4 + 2)


def test_context_fixed_by_evidence_gets_one_cell():
    net, root, cached = copy_gate()
    res = rc_query(net, root, {0: 0, 1: 0})
    assert res.probability == pytest.approx(0.5, rel=1e-12)
    assert res.cache_cells == 1
    assert res.per_node_misses == {cached.id: 1}
    assert res.cache_hits == 1  # the root walks D twice under A = 0


def test_cache_cells_are_the_open_context_instantiations():
    rng = random.Random(61)
    for _ in range(25):
        net = random_network(rng, max_vars=9, max_states=3, max_joint=5000)
        evidence = random_evidence(rng, net, p_observe=0.4)
        root = prepare_dtree(net)
        live = dtree_stats(root).cache_cells_live
        for policy in (CachePolicy.full(), CachePolicy.none(),
                       CachePolicy.budget(live // 2)):
            states = apply_policy(root, policy)
            expected = sum(
                math.prod(net.cards[v] for v in node.context if v not in evidence)
                for node in iter_nodes(root) if states[node.id] == LIVE
            )
            res = rc_query(net, root, evidence, policy=policy)
            assert res.cache_cells == expected
            assert res.cache_misses <= res.cache_cells
            if policy.max_cells is not None:
                assert res.cache_cells <= policy.max_cells


def test_query_leaves_dtree_untouched(gate):
    root = prepare_dtree(gate)
    before = [
        (n.id, n.cache_state, n.cutset, n.context, n.cluster)
        for n in iter_nodes(root)
    ]
    rc_query(gate, root, {2: 1}, policy=CachePolicy.none())
    rc_query(gate, root, {2: 1}, policy=CachePolicy.budget(1))
    after = [
        (n.id, n.cache_state, n.cutset, n.context, n.cluster)
        for n in iter_nodes(root)
    ]
    assert before == after


def test_result_json_shape(gate):
    root = prepare_dtree(gate)
    doc = rc_query(gate, root, {2: 1}).to_json_dict()
    assert set(doc) == {
        "probability", "log10", "rc_calls", "cache", "kb", "kb_evidence_contradiction",
        "log_domain",
    }
    assert set(doc["cache"]) == {"hits", "misses", "written", "cells", "per_node"}
    assert set(doc["kb"]) == {"enabled", "skips"}


# --- query plan -------------------------------------------------------------

# (seed, policy, kb, log_domain, (rc_calls, hits, misses, written, kb_skips)),
# recorded with the per-call engine that the query plan replaced, which must
# reproduce them exactly; see pinned_case.
PINNED_WORK = [
    (1014, "full", False, False, (235, 9, 9, 9, 0)),
    (1021, "full", False, True, (501, 84, 96, 96, 0)),
    (1152, "full", True, False, (257, 57, 33, 33, 6)),
    (1304, "full", True, True, (227, 25, 17, 17, 32)),
    (1325, "none", False, False, (1867, 0, 0, 0, 0)),
    (1335, "none", False, True, (1589, 0, 0, 0, 0)),
    (1381, "none", True, False, (757, 0, 0, 0, 220)),
    (1485, "none", True, True, (235, 0, 0, 0, 26)),
    (1535, "budget:7", False, False, (217, 48, 6, 6, 0)),
    (1591, "budget:44", False, True, (271, 43, 5, 5, 0)),
    (2163, "budget:7", True, False, (525, 62, 4, 4, 78)),
    (2338, "budget:19", True, True, (219, 19, 2, 2, 34)),
    # recorded with the KB walk that asserted every cutset instantiation in
    # full; each has a cutset of three or more open variables whose prefix
    # the KB refutes, so a whole suffix of instantiations is skipped at once
    (5142, "full", True, False, (205, 37, 39, 39, 56)),
    (5142, "none", True, True, (441, 0, 0, 0, 113)),
    (5142, "budget:21", True, False, (293, 45, 9, 9, 84)),
    (4366, "budget:3", True, True, (31, 0, 0, 0, 15)),
    (5579, "full", True, True, (49, 1, 12, 12, 29)),
    (3546, "none", True, False, (95, 0, 0, 0, 25)),
]


def pinned_case(seed):
    rng = random.Random(seed)
    net = random_network(rng, max_vars=12, max_states=3, determinism=0.4,
                         noisy_or_prob=0.2, max_joint=20000)
    return net, random_evidence(rng, net, p_observe=0.3)


@pytest.mark.parametrize("seed,policy,use_kb,log_domain,work", PINNED_WORK)
def test_work_counters_pinned(seed, policy, use_kb, log_domain, work):
    net, evidence = pinned_case(seed)
    root = prepare_dtree(net)
    res = rc_query(net, root, evidence, policy=CachePolicy.parse(policy),
                   kb=compile_kb(net) if use_kb else None, log_domain=log_domain)
    got = (res.rc_calls, res.cache_hits, res.cache_misses, res.entries_written, res.kb_skips)
    assert got == work
    expected = brute_force_probability(net, evidence)
    assert rel_err(res.probability, expected) <= (1e-9 if log_domain else 1e-12)


# (seed, policy, kb, log_domain, (rc_calls, hits, misses, written, kb_skips))
# on random dtree shapes, which min-fill never builds; recorded with the engine
# that keyed each cache by its whole context.  Every network has a noisy-or
# CPT, a deterministic CPT and a cardinality-1 variable, and its evidence
# falls on a cutset; under full and budget policies also on an enabled
# cache's context.  Each has a leaf whose variable is in no other family,
# unobserved, and in most cases another that is observed.
RANDOM_SHAPE_WORK = [
    (7057, "full", False, False, (113, 18, 18, 18, 0)),
    (7118, "full", False, True, (101, 6, 18, 18, 0)),
    (7233, "full", True, False, (85, 5, 6, 6, 16)),
    (7355, "full", True, True, (77, 7, 22, 22, 36)),
    (7410, "none", False, False, (81, 0, 0, 0, 0)),
    (7522, "none", False, True, (161, 0, 0, 0, 0)),
    (7616, "none", True, False, (51, 0, 0, 0, 9)),
    (7718, "none", True, True, (81, 0, 0, 0, 5)),
    (7811, "budget:26", False, False, (241, 24, 8, 8, 0)),
    (7911, "budget:33", False, True, (157, 21, 12, 12, 0)),
    (8007, "budget:90", True, False, (47, 3, 7, 7, 24)),
    (8135, "budget:31", True, True, (89, 10, 8, 8, 30)),
]


def random_shape_case(seed):
    rng = random.Random(seed)
    net = random_network(rng, max_vars=10, max_states=3, determinism=0.4,
                         noisy_or_prob=0.3, max_joint=20000)
    evidence = random_evidence(rng, net, p_observe=0.35)
    root = dtree_from_shape(net, random_shape(rng, net))
    annotate(root)
    mark_dead_caches(root)
    return net, root, evidence


@pytest.mark.parametrize("seed,policy,use_kb,log_domain,work", RANDOM_SHAPE_WORK)
def test_work_counters_pinned_on_random_shapes(seed, policy, use_kb, log_domain, work):
    net, root, evidence = random_shape_case(seed)
    res = rc_query(net, root, evidence, policy=CachePolicy.parse(policy),
                   kb=compile_kb(net) if use_kb else None, log_domain=log_domain)
    got = (res.rc_calls, res.cache_hits, res.cache_misses, res.entries_written, res.kb_skips)
    assert got == work
    expected = brute_force_probability(net, evidence)
    assert rel_err(res.probability, expected) <= (1e-9 if log_domain else 1e-12)


def eager_cases():
    """Seeded networks with noisy-or CPTs, zeros and cardinality-1
    variables, each with its evidence, on a min-fill and on a random dtree."""
    rng = random.Random(9100)
    for _ in range(14):
        net = random_network(rng, max_vars=9, max_states=3, determinism=0.3,
                             noisy_or_prob=0.3, max_joint=6000)
        evidence = random_evidence(rng, net, p_observe=0.35)
        shaped = dtree_from_shape(net, random_shape(rng, net))
        annotate(shaped)
        mark_dead_caches(shaped)
        yield net, evidence, prepare_dtree(net)
        yield net, evidence, shaped


@pytest.mark.parametrize("lower_noisy_or", [True, False])
def test_eager_fills_match_the_demand_driven_walk(monkeypatch, lower_noisy_or):
    # Without a KB every enabled cache is filled in one walk before the root
    # is expanded; an empty KB keeps the demand-driven walk, one call per
    # miss, which must have done exactly the same work.
    if not lower_noisy_or:
        monkeypatch.setattr("rcnet.engine.NOISY_OR_TABLE_CELLS", 0)
    seen = set()
    for net, evidence, root in eager_cases():
        oracle = KnowledgeBase(net.cards, [])
        expected = brute_force_probability(net, evidence)
        live = dtree_stats(root).cache_cells_live
        nodes = {node.id: node for node in iter_nodes(root)}
        for policy in (CachePolicy.full(), CachePolicy.none(), CachePolicy.budget(live // 2)):
            for log_domain in (False, True):
                eager = rc_query(net, root, evidence, policy=policy, log_domain=log_domain)
                demand = rc_query(net, root, evidence, policy=policy, kb=oracle,
                                  log_domain=log_domain)
                assert (eager.probability, eager.log_value) == (demand.probability,
                                                                demand.log_value)
                assert (eager.rc_calls, eager.cache_hits, eager.cache_misses,
                        eager.entries_written, eager.cache_cells) == (
                    demand.rc_calls, demand.cache_hits, demand.cache_misses,
                    demand.entries_written, demand.cache_cells)
                assert eager.per_node_misses == demand.per_node_misses
                assert rel_err(eager.probability, expected) <= (1e-9 if log_domain else 1e-12)
                # with no KB nothing is skipped: every enabled cell is filled
                assert eager.cache_misses == eager.cache_cells
            enabled = root.plan.enabled[policy]
            seen.add("enabled" if enabled else "no cache")
            if any(evidence.keys() & nodes[t].context for t in enabled):
                seen.add("evidence on a context")
        if any(evidence.keys() & node.cutset for node in iter_nodes(root)):
            seen.add("evidence on a cutset")
        if 1 in net.cards:
            seen.add("cardinality 1")
        if any(isinstance(cpt, NoisyOrCpt) for cpt in net.cpts):
            seen.add("noisy-or")
        if any(table is None for t, table in enumerate(root.plan.tables)
               if root.plan.leaf_var[t] >= 0):
            seen.add("leaf called out")
    assert seen >= {"enabled", "no cache", "evidence on a context", "evidence on a cutset",
                    "cardinality 1", "noisy-or"}
    assert ("leaf called out" in seen) == (not lower_noisy_or)


def test_caches_are_enabled_in_preorder():
    # Without a KB the tables are filled in reverse of this order, so each is
    # filled after every cache below it.
    for net, _, root in eager_cases():
        live = dtree_stats(root).cache_cells_live
        for policy in (CachePolicy.full(), CachePolicy.budget(live // 2)):
            rc_query(net, root, {}, policy=policy)
            enabled = root.plan.enabled[policy]
            position = {t: i for i, t in enumerate(enabled)}
            for node in iter_nodes(root):
                above = node.parent
                while node.id in position and above is not None:
                    assert position.get(above.id, -1) < position[node.id]
                    above = above.parent


def test_deep_dtree_query_restores_recursion_limit():
    n = 1199
    doc = spine_chain_doc(n, seed=12)
    net = parse_network(json.dumps(doc))
    root = dtree_from_shape(net, right_linear_shape(n))
    annotate(root)
    mark_dead_caches(root)
    observed = {f"X{i}": (i * 5) % 2 for i in range(1, n + 1, 3)}
    observed["Y"] = 1
    evidence = {net.var_id(name): s for name, s in observed.items()}
    limit = sys.getrecursionlimit()
    assert n > limit  # the spine is deeper than the limit the query runs under
    expected = forward_log_probability(doc, observed)
    for kb in (None, compile_kb(net)):
        res = rc_query(net, root, evidence, kb=kb, log_domain=True)
        assert sys.getrecursionlimit() == limit
        assert res.log_value == pytest.approx(expected, rel=1e-12)


def test_query_leaves_no_cyclic_garbage():
    net = grid_network(4, seed=3)
    root = prepare_dtree(net)
    det_net, det_evidence = pinned_case(5142)
    det_root = prepare_dtree(det_net)
    kb = compile_kb(det_net)
    gc.disable()
    try:
        gc.collect()
        res = rc_query(net, root, {0: 1, 15: 0})
        assert gc.collect() == 0
        kb_res = rc_query(det_net, det_root, det_evidence, kb=kb)
        assert gc.collect() == 0
    finally:
        gc.enable()
    assert res.cache_misses > 0
    assert kb_res.kb_skips > 0


# Python heap high-water mark of the query below, in bytes, when every cache
# was a list over the whole context, holding one boxed float per filled cell
LIST_CACHE_PEAK = 119_704
# the same when each cache miss was a call that filled one cell, before tables
# were filled in one walk each
CALL_PER_MISS_PEAK = 49_408


# the same when each cache table was an array('d') of its own, before one
# arena held them all
ARRAY_PER_TABLE_PEAK = 45_464


def grid_query_peak():
    """A KB-off query on a 9x9 grid, its answer outside tracemalloc, and
    its heap high-water mark in bytes under it."""
    net = grid_network(9, seed=1)
    root = prepare_dtree(net)
    rng = random.Random(1)
    observed = rng.sample(range(net.n), round(0.3 * net.n))
    evidence = {v: rng.randrange(2) for v in observed}
    expected = rc_query(net, root, evidence)  # lowers the plan outside the window
    gc.collect()
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        res = rc_query(net, root, evidence)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    return res, expected, peak


def test_query_peak_memory_is_below_half_of_list_caches():
    res, expected, peak = grid_query_peak()
    assert res.probability == expected.probability
    assert res.cache_misses == 1776
    assert peak < LIST_CACHE_PEAK / 2


def test_table_fills_add_no_query_memory():
    # gc.collect() empties CPython's free lists, so a container made for each
    # table fill stays counted on them after it is freed
    res, _, peak = grid_query_peak()
    assert res.cache_misses == res.cache_cells == 1776
    assert peak <= 1.05 * CALL_PER_MISS_PEAK


def test_one_arena_holds_every_table():
    # a table costs its cells alone: no array header, no allocation of its own
    res, expected, peak = grid_query_peak()
    assert res.probability == expected.probability
    assert res.cache_cells == 1776
    assert peak <= 0.93 * ARRAY_PER_TABLE_PEAK


def test_tables_past_the_cell_limit_are_refused(monkeypatch):
    net, evidence = pinned_case(5142)
    root = prepare_dtree(net)
    kb = compile_kb(net)
    cells = rc_query(net, root, evidence).cache_cells
    monkeypatch.setattr(rcnet.engine, "MAX_CACHE_CELLS", cells)
    assert rc_query(net, root, evidence, kb=kb).cache_cells == cells  # at the limit
    monkeypatch.setattr(rcnet.engine, "MAX_CACHE_CELLS", cells - 1)
    before = (list(kb.domain), kb.checkpoint())
    message = re.escape(f"{cells:,} cells ({8 * cells:,} bytes)")
    with pytest.raises(ValueError, match=message):
        rc_query(net, root, evidence, kb=kb)
    assert (kb.domain, kb.checkpoint()) == before
    # a budget counts each cache's cells over its whole context, so one of at
    # most the limit always fits
    res = rc_query(net, root, evidence, policy=CachePolicy.budget(cells - 1), kb=kb)
    assert 0 < res.cache_cells < cells
    assert rel_err(res.probability, brute_force_probability(net, evidence)) <= 1e-12


# Python heap held by the QueryPlan of the dtree below, in bytes, when the plan
# kept each node's context and each leaf's CPT index as (variable, stride) pairs
PAIRS_PLAN_BYTES = 73_928


def test_plan_keys_take_less_memory_than_pairs():
    net = grid_network(9, seed=1)
    root = prepare_dtree(net)
    QueryPlan(root, net)  # first-use allocations outside the window
    gc.collect()
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        plan = QueryPlan(root, net)
        held = tracemalloc.get_traced_memory()[0] - base
    finally:
        tracemalloc.stop()
    assert held <= 0.75 * PAIRS_PLAN_BYTES
    assert plan.height == dtree_stats(root).height  # measured while alive


def test_plan_is_lowered_once_per_dtree_and_network(chain):
    root = prepare_dtree(chain)
    rc_query(chain, root, {1: 0})
    plan = root.plan
    assert plan is not None
    rc_query(chain, root, {2: 1}, policy=CachePolicy.none(), log_domain=True)
    assert root.plan is plan
    twin = chain_network()  # equal, but another object
    assert rc_query(twin, root, {1: 0}).probability == pytest.approx(0.5, rel=1e-12)
    assert root.plan is not plan and root.plan.network is twin
    annotate(root)
    assert root.plan is None


def test_mark_dead_caches_after_a_query_changes_the_next_querys_caches(chain):
    root = build_dtree(chain, [0, 2, 1])  # its one cache is dead (test_dtree)
    annotate(root)
    before = rc_query(chain, root, {})
    assert before.cache_cells == 2
    assert mark_dead_caches(root) == 1
    assert root.plan is None
    after = rc_query(chain, root, {})
    assert after.cache_cells == 0
    assert after.probability == pytest.approx(before.probability, rel=1e-12)


def test_plan_resolves_each_cache_policy_once(chain):
    root = prepare_dtree(chain)
    rc_query(chain, root, {1: 0}, policy=CachePolicy.budget(4))
    rc_query(chain, root, {1: 1}, policy=CachePolicy.budget(4))
    rc_query(chain, root, {1: 1})
    plan = root.plan
    assert set(plan.enabled) == {CachePolicy.budget(4), CachePolicy.full()}
    for policy, enabled in plan.enabled.items():
        states = apply_policy(root, policy)
        assert enabled == tuple(t for t, state in states.items() if state == LIVE)


def test_plan_rejects_parent_outside_leaf_context(chain):
    root = dtree_from_shape(chain, [["A", "B"], "C"])  # C's leaf has context {B}
    annotate(root)
    doc = chain_doc()
    doc["cpts"][2]["parents"] = ["A"]  # the same dtree is wrong for C with parent A
    rewired = parse_network(json.dumps(doc))
    with pytest.raises(RuntimeError, match="malformed dtree"):
        rc_query(rewired, root, {2: 0})


def mixed_noisy_or_network():
    """Binary roots X0..X11; Z is noisy-or over X0 and X1 (8 cells expanded),
    Y noisy-or over all twelve (8,192 cells, over NOISY_OR_TABLE_CELLS)."""
    roots = [f"X{i}" for i in range(12)]
    binary = ["0", "1"]
    doc = {
        "variables": [{"name": v, "states": binary} for v in roots + ["Z", "Y"]],
        "cpts": [{"child": v, "parents": [], "kind": "table", "table": [0.3 + 0.03 * i, 0.7 - 0.03 * i]}
                 for i, v in enumerate(roots)],
    }
    doc["cpts"].append({"child": "Z", "parents": roots[:2], "kind": "noisy_or",
                        "trigger": ["1", "0"], "inhibitor": [0.3, 0.6], "leak": 0.05})
    doc["cpts"].append({"child": "Y", "parents": roots, "kind": "noisy_or",
                        "trigger": ["1"] * 12, "inhibitor": [0.5 + 0.03 * i for i in range(12)],
                        "leak": 0.1})
    return parse_network(json.dumps(doc))


def count_noisy_or_calls(monkeypatch):
    calls = []
    prob = NoisyOrCpt.prob

    def counted(self, child_state, parent_states):
        calls.append(self.child)
        return prob(self, child_state, parent_states)

    monkeypatch.setattr(NoisyOrCpt, "prob", counted)
    return calls


def test_small_noisy_or_families_are_lowered_to_tables(monkeypatch):
    net = mixed_noisy_or_network()
    z, y = net.var_id("Z"), net.var_id("Y")
    assert 2 * 2 ** 2 <= NOISY_OR_TABLE_CELLS < 2 * 2 ** 12
    root = prepare_dtree(net)
    evidence = {z: 1, y: 1, net.var_id("X3"): 0}
    expected = brute_force_probability(net, evidence)
    for log_domain in (False, True):
        assert rel_err(rc_query(net, root, evidence, log_domain=log_domain).probability,
                       expected) <= 1e-12
    leaf = {node.var: node.id for node in iter_nodes(root) if node.is_leaf}
    tables = root.plan.tables
    assert tables[leaf[z]] == expand_to_table(net, z).entries
    assert tables[leaf[y]] is None  # too large: answered by NoisyOrCpt.prob
    calls = count_noisy_or_calls(monkeypatch)
    rc_query(net, root, evidence)
    assert calls and set(calls) == {y}


def test_grid_query_makes_no_noisy_or_calls(monkeypatch):
    net = grid_network(4, seed=8, noisy_or=True)
    assert sum(isinstance(cpt, NoisyOrCpt) for cpt in net.cpts) == 15
    root = prepare_dtree(net)
    rng = random.Random(8)
    queries = [{v: rng.randrange(2) for v in rng.sample(range(net.n), 5)} for _ in range(4)]
    expected = [brute_force_probability(net, evidence) for evidence in queries]
    rc_query(net, root, queries[0])  # lowers the plan, which expands the tables
    calls = count_noisy_or_calls(monkeypatch)
    for evidence, want in zip(queries, expected):
        for kb in (None, compile_kb(net)):
            assert rel_err(rc_query(net, root, evidence, kb=kb).probability, want) <= 1e-12
    assert calls == []
    monkeypatch.setattr("rcnet.engine.NOISY_OR_TABLE_CELLS", 0)
    root = prepare_dtree(net)  # a fresh plan, with every noisy-or leaf called out
    assert rel_err(rc_query(net, root, queries[0]).probability, expected[0]) <= 1e-12
    assert calls


def underflow_spine():
    """A 1,200-level spine dtree and evidence whose probability underflows
    linear arithmetic, with the document and the observed state names."""
    n = 1199
    doc = spine_chain_doc(n, seed=5)
    net = parse_network(json.dumps(doc))
    root = dtree_from_shape(net, right_linear_shape(n))
    annotate(root)
    mark_dead_caches(root)
    observed = {v.name: 1 for v in net.variables}  # every variable in its second state
    evidence = {net.var_id(name): s for name, s in observed.items()}
    return net, root, evidence, doc, observed


def test_linear_underflow_is_answered_in_the_log_domain():
    net, root, evidence, doc, observed = underflow_spine()
    res = rc_query(net, root, evidence)  # linear: 10**-434.96 would underflow to 0.0
    assert res.log_value == pytest.approx(forward_log_probability(doc, observed), rel=1e-12)
    assert res.log10 == pytest.approx(-434.96, abs=0.005)


def heap_peak(query):
    """query()'s result and its heap high-water mark in bytes."""
    gc.collect()
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        res = query()
        return res, tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()


def test_linear_pass_is_freed_before_the_log_domain_retry():
    net, root, evidence, _, _ = underflow_spine()
    rc_query(net, root, evidence)  # lowers the plan and its log tables outside the window
    retried, retried_peak = heap_peak(lambda: rc_query(net, root, evidence))
    direct, direct_peak = heap_peak(lambda: rc_query(net, root, evidence, log_domain=True))
    assert retried.log_domain and retried.log_value == direct.log_value
    assert retried_peak <= 1.1 * direct_peak
