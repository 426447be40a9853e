import json
import math
import random

import pytest

from rcnet import (
    annotate,
    build_dtree,
    dtree_from_shape,
    dtree_stats,
    hugin_space,
    induce_jointree,
    mark_dead_caches,
    min_fill_order,
    parse_network,
    shenoy_shafer_space,
    space_report,
    ve_space,
)
from rcnet.dtree import iter_nodes, moral_graph
from rcnet.randnet import random_network

from helpers import chain_network, right_linear_shape, star_network
from oracles import check_running_intersection, elimination_cliques


def single_var_net():
    return parse_network(json.dumps({
        "variables": [{"name": "A", "states": ["0", "1"]}],
        "cpts": [{"child": "A", "parents": [], "kind": "table", "table": [0.5, 0.5]}],
    }))


def chain_dtree():
    net = chain_network()
    root = build_dtree(net, [0, 2, 1])
    annotate(root)
    mark_dead_caches(root)
    return net, root


def test_single_leaf_jointree():
    net = single_var_net()
    root = build_dtree(net, [0])
    annotate(root)
    jt = induce_jointree(root)
    assert len(jt.nodes) == 1
    assert jt.edges == ()
    assert shenoy_shafer_space(jt) == 0
    assert hugin_space(jt) == 2  # the lone binary cluster


def test_chain_fixture_sums():
    # Clusters: root {B}, inner {A,B}, leaves {A}, {A,B}, {B,C}: 2+4+2+4+4 = 16.
    # Separators (context of each non-root node): inner {B}, leaves {A},
    # {A,B}, {B,C}->{B}: 2+2+4+2 = 10.
    net, root = chain_dtree()
    jt = induce_jointree(root)
    assert shenoy_shafer_space(jt) == 10
    assert hugin_space(jt) == 26
    assert shenoy_shafer_space(jt, internal_child_edges_only=True) == 2
    stats = dtree_stats(root)
    assert (stats.cache_cells_all, stats.cache_cells_live) == (2, 0)


def test_chain_separator_into_inner_subtree():
    net, root = chain_dtree()
    inner = [n for n in iter_nodes(root) if not n.is_leaf and n.parent is not None][0]
    jt = induce_jointree(root)
    seps = {(p, c): sep for p, c, sep in jt.edges}
    idx = list(iter_nodes(root))
    pos = {node.id: i for i, node in enumerate(idx)}
    sep = seps[(pos[root.id], pos[inner.id])]
    assert {net.variables[v].name for v in sep} == {"B"}


def test_ve_space_single_binary_variable():
    assert ve_space(single_var_net(), [0]) == 2


def test_ve_space_chain_hand_simulation():
    # eliminate A: {A,B} -> 4; then C: {C,B} -> 4; then B: {B} -> 2
    net = chain_network()
    assert ve_space(net, [0, 2, 1]) == 10


def test_ve_space_rejects_bad_order():
    net = chain_network()
    with pytest.raises(ValueError, match="permutation"):
        ve_space(net, [0, 1])


def test_star_rc_cells_live_zero():
    net = star_network(4)
    root = dtree_from_shape(net, right_linear_shape(4))
    annotate(root)
    mark_dead_caches(root)
    stats = dtree_stats(root)
    assert stats.cache_cells_live == 0
    assert stats.cache_cells_all == 3 + 9 + 27


def test_rc_matches_shenoy_shafer_on_internal_edges():
    rng = random.Random(21)
    for _ in range(40):
        net = random_network(rng, max_vars=10)
        root = build_dtree(net, min_fill_order(net))
        annotate(root)
        mark_dead_caches(root)
        jt = induce_jointree(root)
        stats = dtree_stats(root)
        assert stats.cache_cells_all == shenoy_shafer_space(jt, internal_child_edges_only=True)
        assert stats.cache_cells_live <= stats.cache_cells_all
        assert hugin_space(jt) >= shenoy_shafer_space(jt)


def test_induced_jointree_running_intersection():
    rng = random.Random(22)
    for _ in range(100):
        net = random_network(rng, max_vars=10)
        root = build_dtree(net, min_fill_order(net))
        annotate(root)
        jt = induce_jointree(root)
        assert check_running_intersection(jt)
        for parent, child, sep in jt.edges:
            assert sep <= jt.nodes[parent]
            assert sep <= jt.nodes[child]


def test_dead_cache_removal_strictly_reduces_when_rule_fires():
    net, root = chain_dtree()
    stats = dtree_stats(root)
    assert stats.cache_cells_live < stats.cache_cells_all


def test_ve_space_equals_elimination_clique_cells():
    rng = random.Random(23)
    for _ in range(60):
        net = random_network(rng, max_vars=30, max_joint=float("inf"))
        for order in (min_fill_order(net), rng.sample(range(net.n), net.n)):
            cliques = elimination_cliques(moral_graph(net), order)
            clique_cells = sum(math.prod(net.cards[v] for v in c) for c in cliques)
            assert ve_space(net, order) == clique_cells


def test_space_report_fields_match_components():
    net, root = chain_dtree()
    order = [0, 2, 1]
    report = space_report(net, order, root)
    jt = induce_jointree(root)
    assert report.hugin_cells == hugin_space(jt)
    assert report.shenoy_shafer_cells == shenoy_shafer_space(jt)
    assert report.ve_cells == ve_space(net, order)
    stats = dtree_stats(root)
    assert (report.rc_cells_all, report.rc_cells_live) == (stats.cache_cells_all,
                                                           stats.cache_cells_live)
    assert report.bytes()["rc_all"] == report.rc_cells_all * 8
