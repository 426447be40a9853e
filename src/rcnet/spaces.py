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

The jointree induced by a dtree has one cluster per dtree node and a
separator per edge equal to the child's context.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

from .dtree import DtreeNode, dtree_stats, iter_nodes, moral_graph
from .model import Network

__all__ = [
    "Jointree",
    "SpaceReport",
    "induce_jointree",
    "hugin_space",
    "shenoy_shafer_space",
    "ve_space",
    "space_report",
]


@dataclass(frozen=True)
class Jointree:
    """Tree of clusters with separator-labelled edges.

    nodes[i] is a cluster (frozenset of variable ids); leaf_flags[i]
    says whether it came from a dtree leaf.  Edges are
    (parent_index, child_index, separator).
    """

    nodes: tuple[frozenset[int], ...]
    leaf_flags: tuple[bool, ...]
    edges: tuple[tuple[int, int, frozenset[int]], ...]
    cards: tuple[int, ...]


@dataclass(frozen=True)
class SpaceReport:
    hugin_cells: int
    shenoy_shafer_cells: int
    ve_cells: int
    rc_cells_all: int
    rc_cells_live: int

    def bytes(self) -> dict[str, int]:
        """Sizes at 8 bytes per cell."""
        return {
            "hugin": self.hugin_cells * 8,
            "shenoy_shafer": self.shenoy_shafer_cells * 8,
            "ve": self.ve_cells * 8,
            "rc_all": self.rc_cells_all * 8,
            "rc_live": self.rc_cells_live * 8,
        }


def induce_jointree(root: DtreeNode) -> Jointree:
    """Jointree whose clusters are the dtree clusters.

    Edges mirror the dtree's parent-child edges; the separator on the
    edge into child t is context(t).  The result is binary (at most
    three neighbors per cluster).
    """
    network = root.network
    nodes = []
    leaf_flags = []
    edges = []
    index: dict[int, int] = {}
    for node in iter_nodes(root):
        index[node.id] = len(nodes)
        nodes.append(node.cluster)
        leaf_flags.append(node.is_leaf)
    for node in iter_nodes(root):
        if node.parent is not None:
            edges.append((index[node.parent.id], index[node.id], node.context))
    return Jointree(
        nodes=tuple(nodes),
        leaf_flags=tuple(leaf_flags),
        edges=tuple(edges),
        cards=network.cards,
    )


def shenoy_shafer_space(jt: Jointree, internal_child_edges_only: bool = False) -> int:
    """Total separator cells.

    internal_child_edges_only restricts to edges whose child cluster
    came from an internal dtree node, the portion that mirrors rc
    caching.
    """
    total = 0
    for _, child, sep in jt.edges:
        if internal_child_edges_only and jt.leaf_flags[child]:
            continue
        total += math.prod(jt.cards[v] for v in sep)
    return total


def hugin_space(jt: Jointree) -> int:
    """Cluster cells plus separator cells."""
    total = sum(math.prod(jt.cards[v] for v in cluster) for cluster in jt.nodes)
    return total + shenoy_shafer_space(jt)


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
    jt = induce_jointree(root)
    stats = dtree_stats(root)
    return SpaceReport(
        hugin_cells=hugin_space(jt),
        shenoy_shafer_cells=shenoy_shafer_space(jt),
        ve_cells=ve_space(network, order),
        rc_cells_all=stats.cache_cells_all,
        rc_cells_live=stats.cache_cells_live,
    )
