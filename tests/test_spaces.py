import json
import math
import random

import pytest

from rcnet import (
    annotate,
    build_dtree,
    dtree_from_shape,
    dtree_stats,
    mark_dead_caches,
    min_fill_order,
    parse_network,
    prepare_dtree,
    space_report,
    ve_space,
)
from rcnet.dtree import iter_nodes, moral_graph

from helpers import chain_network, right_linear_shape, star_network
from oracles import check_running_intersection, dtree_separators, elimination_cliques
from randnet import random_network


def cells(net, variables):
    return math.prod(net.cards[v] for v in variables)


def separator_cells(root, internal_only=False):
    """Separator cells of the dtree's jointree, from the oracle's separators;
    internal_only keeps the edges into internal nodes, where rc caches."""
    net = root.network
    return sum(cells(net, sep) for node, sep in dtree_separators(root)
               if not (internal_only and node.is_leaf))


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
    assert dtree_separators(root) == []
    report = space_report(net, [0], root)
    assert report.shenoy_shafer_cells == 0
    assert report.hugin_cells == 2  # the lone binary cluster


def test_chain_fixture_sums():
    # Clusters: root {B}, inner {A,B}, leaves {A}, {A,B}, {B,C}: 2+4+2+4+4 = 16.
    # Separators (context of each non-root node): inner {B}, leaves {A},
    # {A,B}, {B,C}->{B}: 2+2+4+2 = 10.
    net, root = chain_dtree()
    report = space_report(net, [0, 2, 1], root)
    assert report.shenoy_shafer_cells == separator_cells(root) == 10
    assert report.hugin_cells == 26
    assert separator_cells(root, internal_only=True) == 2
    stats = dtree_stats(root)
    assert (stats.cache_cells_all, stats.cache_cells_live) == (2, 0)


def test_chain_separator_into_inner_subtree():
    net, root = chain_dtree()
    inner = [n for n in iter_nodes(root) if not n.is_leaf and n.parent is not None][0]
    seps = {node.id: sep for node, sep in dtree_separators(root)}
    assert inner.parent is root
    assert {net.variables[v].name for v in seps[inner.id]} == {"B"}


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
        order = min_fill_order(net)
        root = prepare_dtree(net, order)
        report = space_report(net, order, root)
        stats = dtree_stats(root)
        assert stats.cache_cells_all == separator_cells(root, internal_only=True)
        assert stats.cache_cells_live <= stats.cache_cells_all
        assert report.shenoy_shafer_cells == separator_cells(root)
        assert report.hugin_cells >= report.shenoy_shafer_cells


def test_induced_jointree_running_intersection():
    rng = random.Random(22)
    for _ in range(100):
        net = random_network(rng, max_vars=10)
        root = build_dtree(net, min_fill_order(net))
        annotate(root)
        assert check_running_intersection(root)
        for node, sep in dtree_separators(root):
            assert set(sep) <= set(node.parent.cluster)
            assert set(sep) <= set(node.cluster)


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
    cluster_cells = sum(cells(net, node.cluster) for node in iter_nodes(root))
    assert report.hugin_cells == cluster_cells + separator_cells(root)
    assert report.shenoy_shafer_cells == separator_cells(root)
    assert report.ve_cells == ve_space(net, order)
    stats = dtree_stats(root)
    assert (report.rc_cells_all, report.rc_cells_live) == (stats.cache_cells_all,
                                                           stats.cache_cells_live)

# (network, shuffled, (hugin, shenoy_shafer, ve, rc_all, rc_live)): every
# SpaceReport field, recorded with the space_report that built the induced
# jointree as an object; see space_case.
PINNED_SPACE = [
    ("chain", False, (26, 10, 10, 2, 0)),
    ("chain", True, (26, 10, 14, 2, 0)),
    ("star", False, (426, 132, 242, 39, 0)),
    ("star", True, (426, 132, 255, 39, 0)),
    ("single", False, (2, 0, 2, 0, 0)),
    ("single", True, (2, 0, 2, 0, 0)),
    (6000, False, (108, 39, 49, 15, 3)),
    (6000, True, (124, 47, 57, 23, 3)),
    (6001, False, (479, 188, 157, 91, 42)),
    (6001, True, (503, 182, 352, 85, 6)),
    (6002, False, (186, 70, 70, 24, 6)),
    (6002, True, (246, 94, 165, 48, 3)),
    (6003, False, (131, 54, 45, 17, 7)),
    (6003, True, (203, 84, 236, 47, 27)),
    (6004, False, (207, 78, 82, 23, 4)),
    (6004, True, (207, 78, 82, 23, 0)),
    (6005, False, (467, 189, 144, 85, 12)),
    (6005, True, (435, 173, 198, 69, 36)),
    (6006, False, (24, 10, 6, 1, 0)),
    (6006, True, (24, 10, 6, 1, 0)),
    (6007, False, (166, 54, 78, 10, 0)),
    (6007, True, (168, 55, 82, 11, 0)),
    (6008, False, (562, 212, 225, 102, 42)),
    (6008, True, (862, 326, 1296, 216, 132)),
    (6009, False, (902, 345, 304, 116, 72)),
    (6009, True, (862, 325, 340, 96, 8)),
    (6010, False, (153, 61, 50, 27, 6)),
    (6010, True, (143, 56, 77, 22, 2)),
    (6011, False, (222, 64, 150, 17, 4)),
    (6011, True, (218, 62, 167, 15, 4)),
    (6012, False, (552, 206, 217, 85, 20)),
    (6012, True, (536, 198, 244, 77, 4)),
    (6013, False, (191, 65, 110, 29, 4)),
    (6013, True, (191, 65, 152, 29, 4)),
    (6014, False, (166, 52, 138, 21, 3)),
    (6014, True, (185, 57, 203, 26, 12)),
    (6015, False, (664, 218, 315, 61, 28)),
    (6015, True, (826, 311, 313, 154, 20)),
    (6016, False, (364, 140, 140, 84, 12)),
    (6016, True, (364, 140, 244, 84, 12)),
    (6017, False, (802, 278, 374, 128, 66)),
    (6017, True, (774, 264, 444, 114, 54)),
    (6018, False, (466, 146, 252, 61, 24)),
    (6018, True, (674, 234, 571, 149, 8)),
    (6019, False, (10, 2, 7, 0, 0)),
    (6019, True, (10, 2, 7, 0, 0)),
    (6020, False, (343, 94, 218, 27, 16)),
    (6020, True, (343, 94, 346, 27, 16)),
    (6021, False, (726, 258, 312, 122, 48)),
    (6021, True, (1518, 606, 1123, 470, 8)),
    (6022, False, (466, 187, 158, 124, 32)),
    (6022, True, (410, 159, 244, 96, 8)),
    (6023, False, (156, 53, 83, 16, 8)),
    (6023, True, (368, 139, 204, 102, 36)),
    (6024, False, (196, 62, 107, 16, 3)),
    (6024, True, (204, 66, 146, 20, 0)),
    (6025, False, (363, 144, 110, 53, 20)),
    (6025, True, (363, 144, 240, 53, 20)),
    (6026, False, (450, 154, 210, 60, 24)),
    (6026, True, (458, 158, 446, 64, 6)),
    (6027, False, (185, 73, 64, 25, 5)),
    (6027, True, (339, 134, 388, 86, 6)),
    (6028, False, (118, 41, 60, 14, 0)),
    (6028, True, (120, 42, 64, 15, 0)),
    (6029, False, (124, 38, 87, 8, 0)),
    (6029, True, (128, 40, 80, 10, 0)),
    (6030, False, (65, 23, 29, 7, 0)),
    (6030, True, (65, 23, 29, 7, 0)),
    (6031, False, (81, 27, 47, 8, 0)),
    (6031, True, (77, 25, 41, 6, 0)),
    (6032, False, (228, 80, 103, 33, 9)),
    (6032, True, (200, 66, 103, 19, 2)),
    (6033, False, (361, 116, 189, 53, 21)),
    (6033, True, (443, 157, 424, 94, 33)),
    (6034, False, (29, 8, 19, 2, 0)),
    (6034, True, (29, 8, 19, 2, 0)),
    (6035, False, (50, 13, 36, 2, 0)),
    (6035, True, (52, 14, 39, 3, 0)),
    (6036, False, (192, 68, 94, 27, 5)),
    (6036, True, (196, 70, 116, 29, 2)),
    (6037, False, (137, 50, 59, 17, 0)),
    (6037, True, (221, 84, 215, 51, 9)),
    (6038, False, (158, 57, 62, 16, 9)),
    (6038, True, (152, 54, 61, 13, 0)),
    (6039, False, (147, 46, 95, 17, 8)),
    (6039, True, (175, 56, 494, 27, 4)),
]

SPACE_FIXTURES = {
    "chain": chain_network,
    "star": lambda: star_network(4),
    "single": single_var_net,
}


def space_case(name, shuffled):
    """A fixture network or random_network(Random(seed), max_vars=30), with
    its min-fill order or a seeded shuffle of its variables."""
    if name in SPACE_FIXTURES:
        net, rng = SPACE_FIXTURES[name](), random.Random(0)
    else:
        rng = random.Random(name)
        net = random_network(rng, max_vars=30)
    order = rng.sample(range(net.n), net.n) if shuffled else min_fill_order(net)
    return net, order


@pytest.mark.parametrize("name,shuffled,fields", PINNED_SPACE)
def test_space_report_pinned(name, shuffled, fields):
    net, order = space_case(name, shuffled)
    report = space_report(net, order, prepare_dtree(net, order))
    got = (report.hugin_cells, report.shenoy_shafer_cells, report.ve_cells,
           report.rc_cells_all, report.rc_cells_live)
    assert got == fields
