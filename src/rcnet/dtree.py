"""Decomposition trees over a network's CPT families.

A dtree is a full binary tree with one leaf per network variable; the
leaf for X covers the family {X} union parents(X).  Each internal node
splits the network in two: conditioning on its cutset disconnects the
subtrees, and its context indexes the cache of results for the subtree.

Annotations per node t:

    vars(t)     leaf: family;  internal: vars(left) | vars(right)
    acutset(t)  union of cutsets of t's ancestors
    cutset(t)   vars(left) & vars(right) - acutset(t)   (internal only)
    context(t)  vars(t) & acutset(t)
    cluster(t)  cutset | context (internal), vars(t) (leaf)

annotate() computes these top down, as cutset(t) = vars(left) &
vars(right) - context(t) and context(child) = vars(child) & cluster(t),
so no node stores its acutset; the acutset property walks the parent
chain when asked.

Width is the largest cluster size minus one; context width is the
largest context size.  Cache accounting counts one cell per context
instantiation at caching nodes; the root and the leaves never cache, and
a node whose context contains its parent's context is dead (its entries
would never be looked up again).  annotate() sets each node's cell
count once; dtree_stats, the space report and the query plan read it.
"""

from __future__ import annotations

import itertools
import json
import math
import sys
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Iterator, Sequence

from .model import Network

LIVE = "live"
DEAD = "dead"
DISABLED = "disabled"

# frames a deep walk may need beyond one per level: comprehensions, CPT and KB calls
RECURSION_HEADROOM = 100

# deepest dtree that JSON export and import accept: the C json module recurses
# on the C stack, which a raised recursion limit does not enlarge
JSON_DEPTH_LIMIT = 10_000

__all__ = [
    "LIVE",
    "DEAD",
    "DISABLED",
    "DtreeNode",
    "DtreeStats",
    "moral_graph",
    "greedy_fill_order",
    "min_fill_order",
    "build_dtree",
    "dtree_from_shape",
    "prepare_dtree",
    "annotate",
    "mark_dead_caches",
    "dtree_stats",
    "induced_order",
    "iter_nodes",
    "recursion_room",
    "dtree_to_json",
    "dtree_from_json",
    "dtree_to_dot",
]


class DtreeNode:
    """One dtree node; annotations are filled by annotate()."""

    __slots__ = (
        "id", "var", "left", "right", "parent",
        "vars", "cutset", "context", "cluster",
        "cache_state", "cells", "network", "plan",
    )

    def __init__(self, var: int | None = None,
                 left: "DtreeNode | None" = None,
                 right: "DtreeNode | None" = None):
        self.id = -1
        self.var = var
        self.left = left
        self.right = right
        self.parent: DtreeNode | None = None
        self.vars: frozenset[int] = frozenset()
        self.cutset: frozenset[int] = frozenset()
        self.context: frozenset[int] = frozenset()
        self.cluster: frozenset[int] = frozenset()
        self.cache_state = DEAD
        self.cells = 0
        self.network: Network | None = None
        self.plan = None  # the root's query plan (engine.QueryPlan), cleared by annotate()

    @property
    def is_leaf(self) -> bool:
        return self.left is None

    @property
    def acutset(self) -> frozenset[int]:
        """Union of the ancestors' cutsets, gathered along the parent chain."""
        out: set[int] = set()
        node = self.parent
        while node is not None:
            out |= node.cutset
            node = node.parent
        return frozenset(out)

    def __repr__(self) -> str:
        if self.is_leaf:
            return f"DtreeNode(leaf var={self.var})"
        return f"DtreeNode(id={self.id})"


@dataclass(frozen=True)
class DtreeStats:
    width: int
    context_width: int
    cache_cells_all: int
    cache_cells_live: int


# ---------------------------------------------------------------------------
# elimination orders


def moral_graph(network: Network) -> list[set[int]]:
    """Undirected adjacency: skeleton edges plus married co-parents."""
    adj: list[set[int]] = [set() for _ in range(network.n)]

    def connect(a: int, b: int) -> None:
        if a != b:
            adj[a].add(b)
            adj[b].add(a)

    for cpt in network.cpts:
        for p in cpt.parents:
            connect(cpt.child, p)
        for a, b in itertools.combinations(cpt.parents, 2):
            connect(a, b)
    return adj


def greedy_fill_order(adj: Sequence[set[int]]) -> list[int]:
    """Min-fill elimination order over an undirected adjacency structure.

    Ties break by smaller current neighborhood, then smaller vertex id,
    so the order is deterministic.
    """
    work = [set(s) for s in adj]
    remaining = set(range(len(work)))
    order = []

    def fill_count(v: int) -> int:
        neigh = list(work[v])
        count = 0
        for i, a in enumerate(neigh):
            for b in neigh[i + 1:]:
                if b not in work[a]:
                    count += 1
        return count

    while remaining:
        best = min(remaining, key=lambda v: (fill_count(v), len(work[v]), v))
        order.append(best)
        neigh = list(work[best])
        for i, a in enumerate(neigh):
            for b in neigh[i + 1:]:
                work[a].add(b)
                work[b].add(a)
        for a in neigh:
            work[a].discard(best)
        work[best].clear()
        remaining.discard(best)
    return order


def min_fill_order(network: Network) -> list[int]:
    """Elimination order for the network's moral graph via min-fill."""
    return greedy_fill_order(moral_graph(network))


# ---------------------------------------------------------------------------
# construction


def _compose_balanced(trees: list[tuple[DtreeNode, set[int]]]) -> tuple[DtreeNode, set[int]]:
    """Fold a list of (tree, vars) pairwise per level, keeping queue order."""
    while len(trees) > 1:
        nxt = []
        for i in range(0, len(trees) - 1, 2):
            (l, lv), (r, rv) = trees[i], trees[i + 1]
            nxt.append((DtreeNode(left=l, right=r), lv | rv))
        if len(trees) % 2:
            nxt.append(trees[-1])
        trees = nxt
    return trees[0]


def _finish(root: DtreeNode, network: Network) -> DtreeNode:
    root.network = network
    for i, node in enumerate(iter_nodes(root)):
        node.id = i
    return root


def build_dtree(network: Network, order: Sequence[int]) -> DtreeNode:
    """Build a dtree from an elimination order.

    Starts with one leaf per CPT family; each variable in the order
    merges every tree whose vars mention it (balanced fold, queue
    order); leftover component trees are folded at the end.
    """
    if sorted(order) != list(range(network.n)):
        raise ValueError("elimination order is not a permutation of the variable ids")
    trees: list[tuple[DtreeNode, set[int]]] = [
        (DtreeNode(var=v), set(network.family(v))) for v in range(network.n)
    ]
    for v in order:
        matched = [t for t in trees if v in t[1]]
        if len(matched) <= 1:
            continue
        composite = _compose_balanced(matched)
        merged = []
        placed = False
        for t in trees:
            if v in t[1]:
                if not placed:
                    merged.append(composite)
                    placed = True
            else:
                merged.append(t)
        trees = merged
    root, _ = _compose_balanced(trees)
    return _finish(root, network)


def dtree_from_shape(network: Network, shape) -> DtreeNode:
    """Build a dtree from an explicit nested shape.

    A shape is either a variable name (leaf for that variable's family)
    or a two-element sequence [left_shape, right_shape].
    """
    # an explicit stack, so that shapes deeper than the recursion limit build
    built: list[DtreeNode] = []
    stack = [(shape, False)]
    while stack:
        s, children_built = stack.pop()
        if isinstance(s, str):
            built.append(DtreeNode(var=network.var_id(s)))
        elif not (isinstance(s, (list, tuple)) and len(s) == 2):
            raise ValueError(f"bad dtree shape element: {s!r}")
        elif children_built:
            right = built.pop()
            built.append(DtreeNode(left=built.pop(), right=right))
        else:
            stack += [(s, True), (s[1], False), (s[0], False)]
    return _finish(built[0], network)


def prepare_dtree(network: Network, order: Sequence[int] | None = None) -> DtreeNode:
    """Build, annotate, and mark dead caches; min-fill order by default."""
    root = build_dtree(network, min_fill_order(network) if order is None else order)
    annotate(root)
    mark_dead_caches(root)
    return root


# ---------------------------------------------------------------------------
# annotation


def iter_nodes(root: DtreeNode) -> Iterator[DtreeNode]:
    """Preorder traversal, iterative so deep spines do not hit the recursion limit."""
    stack = [root]
    while stack:
        node = stack.pop()
        yield node
        if not node.is_leaf:
            stack.append(node.right)
            stack.append(node.left)


def annotate(root: DtreeNode) -> DtreeStats:
    """Fill vars/cutset/context/cluster and reset cache states and the query plan.

    Caching candidates (internal non-root nodes) start live; the root
    and the leaves never cache.  Raises ValueError when the leaves do
    not match the network families exactly.
    """
    network = root.network
    if network is None:
        raise ValueError("dtree root is not attached to a network")

    seen_vars: list[int] = []
    postorder: list[DtreeNode] = []
    stack: list[tuple[DtreeNode, bool]] = [(root, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded or node.is_leaf:
            postorder.append(node)
            continue
        stack.append((node, True))
        stack.append((node.right, False))
        stack.append((node.left, False))

    for node in postorder:
        if node.is_leaf:
            if node.var is None or not (0 <= node.var < network.n):
                raise ValueError(f"leaf references unknown variable {node.var!r}")
            seen_vars.append(node.var)
            node.vars = frozenset(network.family(node.var))
        else:
            node.vars = node.left.vars | node.right.vars

    if sorted(seen_vars) != list(range(network.n)):
        raise ValueError("dtree leaves do not cover every network variable exactly once")

    # Top down: a child's context is its vars within its parent's cluster,
    # which holds every ancestor cutset variable the child mentions, so no
    # node stores its acutset.
    cards = network.cards
    root.plan = None
    root.parent = None
    root.context = frozenset()
    for node in iter_nodes(root):
        if node.is_leaf:
            node.cutset = frozenset()
            node.cluster = node.vars
            node.cache_state = DEAD
            node.cells = 0
            continue
        node.cutset = (node.left.vars & node.right.vars) - node.context
        node.cluster = node.cutset | node.context
        node.cells = math.prod(cards[v] for v in node.context)
        node.cache_state = DEAD if node.parent is None else LIVE
        for child in (node.left, node.right):
            child.parent = node
            child.context = child.vars & node.cluster
    return dtree_stats(root)


def mark_dead_caches(root: DtreeNode) -> int:
    """Mark caches whose entries can never be looked up again.

    An internal non-root node whose context contains its parent's
    context is dead: by the time the parent recomputes, its own cache
    already answers.  Returns the number of nodes marked.
    """
    marked = 0
    for node in iter_nodes(root):
        if node.is_leaf or node.parent is None:
            continue
        if node.context >= node.parent.context:
            if node.cache_state == LIVE:
                marked += 1
            node.cache_state = DEAD
    return marked


def dtree_stats(root: DtreeNode) -> DtreeStats:
    """Width, context width, and cache-cell counts under the current states."""
    width = 0
    context_width = 0
    cells_all = 0
    cells_live = 0
    for node in iter_nodes(root):
        width = max(width, len(node.cluster) - 1)
        context_width = max(context_width, len(node.context))
        if not node.is_leaf and node.parent is not None:
            cells_all += node.cells
            if node.cache_state == LIVE:
                cells_live += node.cells
    return DtreeStats(
        width=width,
        context_width=context_width,
        cache_cells_all=cells_all,
        cache_cells_live=cells_live,
    )


def induced_order(root: DtreeNode) -> list[int]:
    """The elimination order an annotated dtree induces: in postorder, each
    node eliminates its cluster minus its context, the variables its
    parent's cluster lacks, so every variable is eliminated exactly once."""
    nodes, stack = [], [root]
    while stack:  # node, then its right subtree, then its left: reversed, a postorder
        node = stack.pop()
        nodes.append(node)
        if not node.is_leaf:
            stack += (node.left, node.right)
    order: list[int] = []
    for node in reversed(nodes):
        order += sorted(node.cluster - node.context)
    return order


@contextmanager
def recursion_room(frames: int) -> Iterator[None]:
    """Room for `frames` nested calls below the caller: the recursion
    limit is raised only when it is too low, and restored on exit."""
    depth, frame = 0, sys._getframe()
    while frame is not None:
        depth, frame = depth + 1, frame.f_back
    limit = sys.getrecursionlimit()
    needed = depth + frames + RECURSION_HEADROOM
    if needed > limit:
        sys.setrecursionlimit(needed)
    try:
        yield
    finally:
        if needed > limit:
            sys.setrecursionlimit(limit)


# ---------------------------------------------------------------------------
# export / import


def _names(network: Network, ids) -> list[str]:
    return sorted(network.variables[v].name for v in ids)


def dtree_to_json(root: DtreeNode) -> str:
    """Unindented JSON, since indentation grows quadratically with depth;
    a dtree more than about JSON_DEPTH_LIMIT levels deep raises ValueError."""
    network = root.network

    def render(node: DtreeNode) -> dict:
        if node.is_leaf:
            return {"leaf": network.variables[node.var].name}
        return {
            "left": render(node.left),
            "right": render(node.right),
            "cutset": _names(network, node.cutset),
            "context": _names(network, node.context),
        }

    # a dtree is no deeper than it has leaves
    with recursion_room(min(network.n, JSON_DEPTH_LIMIT)):
        try:
            return json.dumps(render(root))
        except RecursionError:
            raise ValueError(f"dtree is deeper than {JSON_DEPTH_LIMIT} levels") from None


def dtree_from_json(network: Network, text: str) -> DtreeNode:
    """Rebuild a dtree from exported JSON; annotations are recomputed.
    A document nested more than about JSON_DEPTH_LIMIT levels deep raises
    ValueError."""

    def shape(node) -> object:
        if not isinstance(node, dict):
            raise ValueError(f"bad dtree node: {node!r}")
        if "leaf" in node:
            return node["leaf"]
        if "left" in node and "right" in node:
            return [shape(node["left"]), shape(node["right"])]
        raise ValueError("dtree node needs either 'leaf' or 'left'/'right'")

    # a document nests no deeper than it has objects
    with recursion_room(min(text.count("{"), JSON_DEPTH_LIMIT)):
        try:
            nested = shape(json.loads(text))
        except json.JSONDecodeError as exc:
            raise ValueError(f"malformed dtree document: {exc}") from None
        except RecursionError:
            raise ValueError(f"dtree document is deeper than {JSON_DEPTH_LIMIT} levels") from None
    return dtree_from_shape(network, nested)


def dtree_to_dot(root: DtreeNode) -> str:
    network = root.network
    lines = ["digraph dtree {", "  node [shape=box];"]
    for node in iter_nodes(root):
        if node.is_leaf:
            fam = network.family(node.var)
            label = network.variables[node.var].name
            if len(fam) > 1:
                label += " | " + ",".join(network.variables[p].name for p in fam[1:])
            lines.append(f'  n{node.id} [label="{label}"];')
        else:
            cut = ",".join(_names(network, node.cutset)) or "-"
            ctx = ",".join(_names(network, node.context)) or "-"
            lines.append(
                f'  n{node.id} [label="cut {{{cut}}}\\nctx {{{ctx}}}\\n{node.cache_state}"];'
            )
    for node in iter_nodes(root):
        if not node.is_leaf:
            lines.append(f"  n{node.id} -> n{node.left.id};")
            lines.append(f"  n{node.id} -> n{node.right.id};")
    lines.append("}")
    return "\n".join(lines)
