"""Memory accounting for exact inference over one network.

Four space models, all counted in table cells (one stored probability
each, 8 bytes if you want bytes):

    hugin          one table per jointree cluster plus one per separator
    shenoy_shafer  one table per separator (inward pass)
    ve             one table per cluster created while eliminating
    rc             one cell per context instantiation at caching dtree
                   nodes, reported with and without dead caches; a
                   query's tables hold 8 bytes per instantiation of the
                   context variables its evidence leaves open, at most
                   these counts

The jointree counted is the one a dtree induces: a cluster per dtree
node, and on the edge into each non-root node t a separator equal to
context(t), so both jointree counts come from one walk over the
annotated dtree.  The rc counts are those of dtree_stats.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

from .dtree import DtreeNode, dtree_stats, iter_nodes, moral_graph
from .model import Network

__all__ = [
    "SpaceReport",
    "ve_space",
    "space_report",
]


@dataclass(frozen=True)
class SpaceReport:
    hugin_cells: int
    shenoy_shafer_cells: int
    ve_cells: int
    rc_cells_all: int
    rc_cells_live: int


def ve_space(network: Network, order: Sequence[int]) -> int:
    """Cells of the tables built while eliminating along the order."""
    if sorted(order) != list(range(network.n)):
        raise ValueError("elimination order is not a permutation of the variable ids")
    adj = moral_graph(network)
    cards = network.cards
    total = 0
    for v in order:
        neigh = adj[v]
        total += cards[v] * math.prod(cards[a] for a in neigh)
        for a in neigh:
            near = adj[a]
            near |= neigh
            near.discard(a)
            near.discard(v)
        adj[v] = None
    return total


def space_report(network: Network, order: Sequence[int], root: DtreeNode) -> SpaceReport:
    """All four space models for an annotated dtree and an elimination order."""
    cards = network.cards
    cluster_cells = separator_cells = 0
    for node in iter_nodes(root):
        cluster_cells += math.prod(cards[v] for v in node.cluster)
        if node.parent is not None:
            separator_cells += math.prod(cards[v] for v in node.context)
    stats = dtree_stats(root)
    return SpaceReport(
        hugin_cells=cluster_cells + separator_cells,
        shenoy_shafer_cells=separator_cells,
        ve_cells=ve_space(network, order),
        rc_cells_all=stats.cache_cells_all,
        rc_cells_live=stats.cache_cells_live,
    )
