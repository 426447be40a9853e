import json
import re
import random
import sys
import time
import tracemalloc

import pytest

import rcnet.dtree
from rcnet import (
    CachePolicy,
    annotate,
    build_dtree,
    dtree_from_json,
    dtree_from_shape,
    dtree_stats,
    dtree_to_dot,
    dtree_to_json,
    mark_dead_caches,
    min_fill_order,
    parse_network,
    prepare_dtree,
    rc_query,
)
from rcnet.dtree import (
    DEAD, LIVE, greedy_fill_order, induced_order, iter_nodes, moral_graph,
)
from rcnet.randnet import random_network

from helpers import (
    chain_network,
    gate_network,
    grid_doc,
    grid_network,
    right_linear_shape,
    spine_chain_doc,
    star_network,
)
from oracles import (
    brute_fill_counts,
    dtree_shape,
    elimination_cliques,
    exact_treewidth,
    forward_log_probability,
    naive_annotations,
    recount_fill_order,
    reference_build_dtree,
    reference_fill_order,
)


def names(net, ids):
    return {net.variables[v].name for v in ids}


# --- elimination orders ----------------------------------------------------


def test_min_fill_chain_eliminates_endpoint_first():
    net = chain_network()
    order = min_fill_order(net)
    assert sorted(order) == [0, 1, 2]
    assert order[0] in (0, 2)  # an endpoint of the chain
    assert order == reference_fill_order(moral_graph(net))


def test_min_fill_disconnected_all_zero_fill():
    net = parse_network(json.dumps({
        "variables": [{"name": n, "states": ["0", "1"]} for n in "ABC"],
        "cpts": [{"child": n, "parents": [], "kind": "table", "table": [0.5, 0.5]}
                 for n in "ABC"],
    }))
    assert min_fill_order(net) == [0, 1, 2]


def test_min_fill_four_cycle_graph():
    # A-B-C-D-A: every vertex needs exactly one fill edge; ids break the tie
    adj = [set() for _ in range(4)]
    for a, b in [(0, 1), (1, 2), (2, 3), (3, 0)]:
        adj[a].add(b)
        adj[b].add(a)
    counts = brute_fill_counts(adj, {0, 1, 2, 3})
    assert counts == {0: 1, 1: 1, 2: 1, 3: 1}
    order = greedy_fill_order(adj)
    assert order[0] == 0
    assert order == reference_fill_order(adj)


def test_min_fill_matches_reference_on_random_networks():
    rng = random.Random(42)
    for _ in range(40):
        net = random_network(rng, max_vars=30, max_states=2, max_joint=2**30)
        assert min_fill_order(net) == reference_fill_order(moral_graph(net))
    grid = grid_network(7, seed=2)
    assert min_fill_order(grid) == reference_fill_order(moral_graph(grid))


def test_min_fill_matches_recount_oracle():
    rng = random.Random(43)
    nets = [random_network(rng, max_vars=60, max_states=rng.randint(2, 4),
                           max_joint=float("inf"))
            for _ in range(120)]
    nets += [grid_network(9, seed=1), parse_network(json.dumps(grid_doc(30, 3)))]
    for net in nets:
        assert min_fill_order(net) == recount_fill_order(moral_graph(net))


def test_min_fill_counts_each_vertex_from_scratch_once(monkeypatch):
    # the 30x30 grid's 900 initial counts; a recount per changed key
    # would add about 15,000 more
    net = parse_network(json.dumps(grid_doc(30, 3)))
    calls = []
    count = rcnet.dtree._fill_count

    def counting(work, v):
        calls.append(v)
        return count(work, v)

    monkeypatch.setattr(rcnet.dtree, "_fill_count", counting)
    min_fill_order(net)
    assert sorted(calls) == list(range(net.n))


@pytest.mark.parametrize("adj, message", [
    ([{1}, set(), set()], "not symmetric"),
    ([{1}, {0, 1}, set()], "its own neighbour"),
    ([{-1, 1}, {0}], "outside"),
    ([{2}, set()], "outside"),
])
def test_greedy_fill_order_rejects_malformed_adjacency(adj, message):
    with pytest.raises(ValueError, match=message):
        greedy_fill_order(adj)


# --- construction ----------------------------------------------------------


def test_build_single_variable():
    net = parse_network(json.dumps({
        "variables": [{"name": "A", "states": ["0", "1"]}],
        "cpts": [{"child": "A", "parents": [], "kind": "table", "table": [0.4, 0.6]}],
    }))
    root = build_dtree(net, [0])
    assert root.is_leaf
    stats = annotate(root)
    assert stats.width == 0
    assert stats.cache_cells_all == 0


def test_build_chain_explicit_order():
    net = chain_network()
    root = build_dtree(net, [0, 2, 1])  # A, C, B
    stats = annotate(root)
    leaves = [n for n in iter_nodes(root) if n.is_leaf]
    assert sorted(names(net, leaf.cluster) for leaf in leaves) == [
        {"A"}, {"A", "B"}, {"B", "C"},
    ]
    assert stats.width == 1
    assert names(net, root.cutset) == {"B"}
    assert root.context == frozenset()
    internal = [n for n in iter_nodes(root) if not n.is_leaf and n is not root]
    assert len(internal) == 1
    assert names(net, internal[0].cutset) == {"A"}
    assert names(net, internal[0].context) == {"B"}


def test_build_rejects_bad_order():
    net = chain_network()
    with pytest.raises(ValueError, match="permutation"):
        build_dtree(net, [0, 1])
    with pytest.raises(ValueError, match="permutation"):
        build_dtree(net, [0, 1, 1])


def test_build_disconnected_components_fold_with_empty_cutset():
    net = parse_network(json.dumps({
        "variables": [{"name": "A", "states": ["0", "1"]},
                      {"name": "B", "states": ["0", "1"]}],
        "cpts": [{"child": "A", "parents": [], "kind": "table", "table": [0.5, 0.5]},
                 {"child": "B", "parents": [], "kind": "table", "table": [0.5, 0.5]}],
    }))
    root = build_dtree(net, [0, 1])
    annotate(root)
    assert not root.is_leaf
    assert root.cutset == frozenset()


def random_orders(rng, count):
    """Random networks, each with its min-fill order and with a shuffled order."""
    for _ in range(count):
        net = random_network(rng, max_vars=12)
        yield net, min_fill_order(net)
        yield net, rng.sample(range(net.n), net.n)


def test_build_matches_the_list_scan_reference():
    rng = random.Random(17)
    for net, order in random_orders(rng, 100):
        root = build_dtree(net, order)
        expected = reference_build_dtree(net, order)
        assert dtree_shape(root) == dtree_shape(expected)


def test_shape_builder_validates_leaf_cover():
    net = chain_network()
    root = dtree_from_shape(net, ["A", "B"])
    with pytest.raises(ValueError, match="every network variable"):
        annotate(root)
    root = dtree_from_shape(net, ["A", ["A", ["B", "C"]]])
    with pytest.raises(ValueError, match="every network variable"):
        annotate(root)


# --- annotation ------------------------------------------------------------


def test_annotations_match_naive_recomputation():
    rng = random.Random(5)
    for net, order in random_orders(rng, 100):
        root = build_dtree(net, order)
        annotate(root)
        expected = naive_annotations(root, net)
        for node in iter_nodes(root):
            want = expected[node.id]
            assert node.cutset == want["cutset"]
            assert node.context == want["context"]
            assert node.cluster == want["cluster"]


def test_structural_invariants_on_random_networks():
    rng = random.Random(6)
    for _ in range(30):
        net = random_network(rng, max_vars=10)
        root = build_dtree(net, min_fill_order(net))
        annotate(root)
        ann = naive_annotations(root, net)
        seen_leaf_vars = []
        for node in iter_nodes(root):
            assert node.cutset & node.context == frozenset()
            if node.is_leaf:
                seen_leaf_vars.append(node.var)
                assert node.cluster == ann[node.id]["vars"]
            else:
                assert node.cluster == node.cutset | node.context
                shared = ann[node.left.id]["vars"] & ann[node.right.id]["vars"]
                assert shared <= node.cutset | ann[node.id]["acutset"]
            if node.parent is not None:
                assert node.context <= node.parent.cluster
        assert sorted(seen_leaf_vars) == list(range(net.n))
        assert root.context == frozenset()


def test_annotate_memory_is_linear_on_a_deep_chain():
    # a vars set per node would hold about 2M entries here, some 85 MB
    net = parse_network(json.dumps(spine_chain_doc(1999, 1)))
    root = build_dtree(net, min_fill_order(net))
    tracemalloc.start()
    try:
        annotate(root)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert dtree_stats(root).height == 2000
    assert peak < 10 * 2**20


def test_annotate_shares_equal_variable_sets():
    # each frozenset costs 216 bytes or more, so equal sets of one node are one object
    nodes = list(iter_nodes(prepare_dtree(grid_network(9, seed=1))))
    sets = [s for t in nodes for s in (t.cutset, t.context, t.cluster)]
    assert len({id(s) for s in sets if not s}) == 1
    leaves = [t for t in nodes if t.is_leaf and t.context == t.cluster]
    assert len(leaves) == 80 and all(t.context is t.cluster for t in leaves)
    uncut = [t for t in nodes if not t.is_leaf and not t.cutset]
    assert uncut and all(t.cluster is t.context for t in uncut)


def test_prepares_and_answers_a_5000_variable_chain():
    doc = spine_chain_doc(4999, 3)
    net = parse_network(json.dumps(doc))
    started = time.perf_counter()
    root = prepare_dtree(net)
    # about 0.1 s; a step quadratic in the chain's length takes tens of seconds
    assert time.perf_counter() - started < 10
    stats = dtree_stats(root)
    assert (stats.width, stats.height) == (1, 5000)
    evidence = {v: v % 2 for v in range(0, net.n, 3)}
    result = rc_query(net, root, evidence, policy=CachePolicy.full(), log_domain=True)
    by_name = {net.variables[v].name: s for v, s in evidence.items()}
    assert result.log_value == pytest.approx(forward_log_probability(doc, by_name), rel=1e-12)


def test_root_context_always_empty():
    net = gate_network()
    root = build_dtree(net, min_fill_order(net))
    annotate(root)
    assert root.context == frozenset()


def test_width_bounds_exact_treewidth():
    rng = random.Random(9)
    checked = 0
    while checked < 12:
        net = random_network(rng, max_vars=7, max_joint=200)
        if net.n > 7:
            continue
        root = build_dtree(net, min_fill_order(net))
        stats = annotate(root)
        assert stats.width >= exact_treewidth(moral_graph(net))
        checked += 1


def random_shape(rng, names):
    """A random full binary tree over the names."""
    trees = list(names)
    while len(trees) > 1:
        a = trees.pop(rng.randrange(len(trees)))
        b = trees.pop(rng.randrange(len(trees)))
        trees.append([a, b])
    return trees[0]


def test_induced_order_cliques_fit_the_eliminating_clusters():
    rng = random.Random(12)
    for i in range(30):
        net = random_network(rng, max_vars=9, max_joint=10**6)
        if i % 2:
            root = build_dtree(net, min_fill_order(net))
        else:
            root = dtree_from_shape(net, random_shape(rng, [v.name for v in net.variables]))
        annotate(root)
        order = induced_order(root)
        assert sorted(order) == list(range(net.n))
        eliminated_at = {
            v: node for node in iter_nodes(root) for v in node.cluster - node.context
        }
        # so the order's induced width is at most the dtree's width
        for v, clique in zip(order, elimination_cliques(moral_graph(net), order)):
            assert clique <= eliminated_at[v].cluster


def test_context_width_at_most_width_plus_one():
    rng = random.Random(10)
    for _ in range(25):
        net = random_network(rng, max_vars=10)
        root = build_dtree(net, min_fill_order(net))
        stats = annotate(root)
        assert stats.context_width <= stats.width + 1
        assert stats.cache_cells_live <= stats.cache_cells_all


# --- dead caches -------------------------------------------------------


def test_chain_dead_cache_arithmetic():
    net = chain_network()
    root = build_dtree(net, [0, 2, 1])
    annotate(root)
    marked = mark_dead_caches(root)
    assert marked == 1
    stats = dtree_stats(root)
    assert stats.cache_cells_all == 2  # one binary context cell pair
    assert stats.cache_cells_live == 0


def test_star_all_caches_dead():
    for n in (2, 3, 5, 8):
        net = star_network(n)
        root = dtree_from_shape(net, right_linear_shape(n))
        annotate(root)
        marked = mark_dead_caches(root)
        internal_nonroot = [
            t for t in iter_nodes(root) if not t.is_leaf and t.parent is not None
        ]
        assert marked == len(internal_nonroot) == n - 1
        assert all(t.cache_state == DEAD for t in internal_nonroot)
        assert dtree_stats(root).cache_cells_live == 0


def test_star_spine_contexts_grow():
    net = star_network(3)
    root = dtree_from_shape(net, right_linear_shape(3))
    annotate(root)
    spine = []
    node = root
    while not node.is_leaf:
        spine.append(node)
        node = node.right
    assert [names(net, t.context) for t in spine] == [set(), {"X1"}, {"X1", "X2"}]
    for child, parent in zip(spine[1:], spine):
        assert child.context >= parent.context


def test_dead_rule_is_exact_and_live_caches_exist():
    rng = random.Random(12)
    live_seen = 0
    for _ in range(40):
        net = random_network(rng, max_vars=10)
        root = build_dtree(net, min_fill_order(net))
        before = annotate(root)
        mark_dead_caches(root)
        after = dtree_stats(root)
        assert (after.width, after.context_width) == (before.width, before.context_width)
        assert after.cache_cells_all == before.cache_cells_all
        for node in iter_nodes(root):
            if node.is_leaf or node.parent is None:
                continue
            if node.context >= node.parent.context:
                assert node.cache_state == DEAD
            else:
                assert node.cache_state == LIVE  # context omits a parent-context var
                live_seen += 1
    assert live_seen > 0


# --- export ------------------------------------------------------------


def test_json_round_trip_preserves_shape_and_stats():
    net = gate_network()
    root = build_dtree(net, min_fill_order(net))
    annotate(root)
    mark_dead_caches(root)
    text = dtree_to_json(root)
    rebuilt = dtree_from_json(net, text)
    annotate(rebuilt)
    mark_dead_caches(rebuilt)
    assert dtree_to_json(rebuilt) == text
    assert dtree_stats(rebuilt) == dtree_stats(root)


def test_json_refuses_dtrees_deeper_than_its_limit(monkeypatch):
    monkeypatch.setattr("rcnet.dtree.JSON_DEPTH_LIMIT", 50)
    limit = sys.getrecursionlimit()
    # deeper than the default recursion limit too, so only the ceiling stops them
    net = parse_network(json.dumps(spine_chain_doc(2999, seed=4)))
    with pytest.raises(ValueError, match="deeper than 50 levels"):
        dtree_to_json(dtree_from_shape(net, right_linear_shape(2999)))
    text = '{"left": {"leaf": "A"}, "right": ' * 3000 + '{"leaf": "B"}' + "}" * 3000
    with pytest.raises(ValueError, match="deeper than 50 levels"):
        dtree_from_json(chain_network(), text)
    assert sys.getrecursionlimit() == limit


def test_dot_export_mentions_every_node():
    net = gate_network()
    root = build_dtree(net, min_fill_order(net))
    annotate(root)
    dot = dtree_to_dot(root)
    assert dot.startswith("digraph")
    for node in iter_nodes(root):
        assert f"n{node.id} " in dot


def unquote_dot(text):
    """The characters a double-quoted DOT string stands for; \\n is a line break."""
    return re.sub(r"\\(.)", lambda m: "\n" if m.group(1) == "n" else m.group(1), text)


def test_dot_export_escapes_names():
    doc = spine_chain_doc(3, seed=1)
    names = ['A"x', "B\\", 'C\\"q', '"']
    rename = dict(zip([v["name"] for v in doc["variables"]], names))
    for v in doc["variables"]:
        v["name"] = rename[v["name"]]
    for cpt in doc["cpts"]:
        cpt["child"] = rename[cpt["child"]]
        cpt["parents"] = [rename[p] for p in cpt["parents"]]
    net = parse_network(json.dumps(doc))
    root = prepare_dtree(net)
    lines = dtree_to_dot(root).splitlines()
    labels = {}
    for line in lines:
        if "[label=" in line:
            m = re.fullmatch(r'  n(\d+) \[label="((?:[^"\\]|\\.)*)"\];', line)
            assert m, line
            labels[int(m.group(1))] = unquote_dot(m.group(2))
    nodes = list(iter_nodes(root))
    assert set(labels) == {node.id for node in nodes}

    def named(ids):
        return {net.variables[v].name for v in ids}

    for node in nodes:
        if node.is_leaf:
            child, _, parents = labels[node.id].partition(" | ")
            fam = net.family(node.var)
            assert child == net.variables[node.var].name
            assert (parents.split(",") if parents else []) == [net.variables[p].name
                                                               for p in fam[1:]]
        else:
            cut, ctx, state = labels[node.id].split("\n")
            for text, ids in ((cut, node.cutset), (ctx, node.context)):
                inner = text.split(" ", 1)[1][1:-1]
                assert set(inner.split(",")) - {"-"} == named(ids)
            assert state == node.cache_state
