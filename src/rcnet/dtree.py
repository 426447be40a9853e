"""Decomposition trees over a network's CPT families.

A dtree is a full binary tree with one leaf per network variable; the
leaf for X covers the family {X} union parents(X).  Each internal node
splits the network in two: conditioning on its cutset disconnects the
subtrees, and its context indexes the cache of results for the subtree.

Annotations per node t, by definition:

    vars(t)     leaf: family;  internal: vars(left) | vars(right)
    acutset(t)  union of cutsets of t's ancestors
    cutset(t)   vars(left) & vars(right) - acutset(t)   (internal only)
    context(t)  vars(t) & acutset(t)
    cluster(t)  cutset | context (internal), vars(t) (leaf)

vars and acutset are definitions only: annotate() stores cutset, context
and cluster and neither of them, so its memory is linear in the dtree's
size.  With the leaves numbered left to right, and first(v) and last(v)
the leftmost and rightmost leaves whose family mentions v, annotate()
works bottom up:

    context(t)  the variables of t that also occur outside t's leaf
                range [lo, hi]: a leaf's family variables with first(v)
                != last(v); for an internal t, the variables of
                context(left) | context(right) with first(v) < lo or
                last(v) > hi
    cutset(t)   context(left) & context(right) - context(t)

These agree with the definitions: a variable is in vars(left) &
vars(right) of exactly the lowest common ancestor of its leaves, so it
is in acutset(t) & vars(t) exactly when it occurs both inside and
outside t, and vars(left) & vars(right) = context(left) &
context(right).  So cutset(t) is the set of variables whose first and
last leaf have t as their lowest common ancestor.

Width is the largest cluster size minus one; context width is the
largest context size.  Cache accounting counts one cell per context
instantiation at caching nodes; the root and the leaves never cache, and
a node whose context contains its parent's context is dead (its entries
would never be looked up again).  annotate() sets each node's cell
count once; dtree_stats, the space report and the query plan read it.
"""

from __future__ import annotations

import heapq
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

# the one empty variable set every node shares: CPython makes each frozenset()
# anew, 216 bytes apiece
_NO_VARS: frozenset[int] = frozenset()

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
        "cutset", "context", "cluster",
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
        self.cutset: frozenset[int] = _NO_VARS
        self.context: frozenset[int] = _NO_VARS
        self.cluster: frozenset[int] = _NO_VARS
        self.cache_state = DEAD
        self.cells = 0
        self.network: Network | None = None
        self.plan = None  # the root's query plan (engine.QueryPlan), cleared by
        # annotate() and mark_dead_caches()

    @property
    def is_leaf(self) -> bool:
        return self.left is None

    def __repr__(self) -> str:
        if self.is_leaf:
            return f"DtreeNode(leaf var={self.var})"
        return f"DtreeNode(id={self.id})"


@dataclass(frozen=True)
class DtreeStats:
    width: int
    height: int  # nodes on the longest root-to-leaf path
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


def _fill_count(work: list[set[int]], v: int) -> int:
    """Fill edges that eliminating v would add: its non-adjacent neighbour pairs."""
    neigh = work[v]
    d = len(neigh)
    twice_edges = sum(len(neigh & work[a]) for a in neigh)
    return d * (d - 1) // 2 - twice_edges // 2


def greedy_fill_order(adj: Sequence[set[int]]) -> list[int]:
    """Min-fill elimination order over a simple undirected graph.

    adj[v] is the set of v's neighbours, ids in range(len(adj)); it must
    be symmetric and free of self-loops, or ValueError is raised.  Ties
    break by smaller current neighborhood, then smaller vertex id, so
    the order is deterministic.

    Each vertex's fill count (its non-adjacent neighbour pairs) is
    counted from scratch once, then kept exact under each elimination
    (Kjaerulff, "Triangulation of graphs: algorithms giving small total
    state space", 1990).  Eliminating v with neighbourhood N lowers each
    a in N by |N(a) - N| once v is gone: the open pairs (v, w) that
    leave with v.  Each fill edge (a, b), added in turn, closes one open
    pair at every common neighbour, and opens |N(a)| - |N(a) & N(b)|
    pairs at a (and likewise at b).  (fill, degree, id) keys sit in a
    heap; a vertex gets a new entry only when its key changes, and an
    entry is stale unless it is the one last queued for its vertex.  No
    fill count is recounted, so an elimination costs set operations over
    the neighbourhoods it changes: about 0.07 s on a 30x30 binary grid
    and 0.02 s on a 5,000-variable chain (2-core x86 host, Python 3.11).
    """
    n = len(adj)
    for v, neigh in enumerate(adj):
        if neigh and not (0 <= min(neigh) and max(neigh) < n):
            raise ValueError(f"vertex {v} has a neighbour outside 0..{n - 1}")
        if v in neigh:
            raise ValueError(f"vertex {v} is its own neighbour")
        for u in neigh:
            if v not in adj[u]:
                raise ValueError(f"edge {v}-{u} is not symmetric")
    work = [set(s) for s in adj]
    fill = [_fill_count(work, v) for v in range(n)]
    queued = [(fill[v], len(work[v]), v) for v in range(n)]  # None once eliminated
    heap = list(queued)
    heapq.heapify(heap)
    order = []
    while heap:
        entry = heapq.heappop(heap)
        v = entry[2]
        if queued[v] is not entry:
            continue  # stale: v was eliminated or requeued since
        queued[v] = None
        order.append(v)
        neigh = work[v]
        work[v] = None
        for a in neigh:
            near = work[a]
            near.discard(v)
            fill[a] -= len(near) - len(near & neigh)
        touched = set(neigh)
        for a in neigh:
            near = work[a]
            for b in neigh - near:
                if a < b:
                    other = work[b]
                    common = near & other
                    for u in common:
                        fill[u] -= 1
                    fill[a] += len(near) - len(common)
                    fill[b] += len(other) - len(common)
                    near.add(b)
                    other.add(a)
                    touched |= common
        for u in touched:
            f, d = fill[u], len(work[u])
            key = queued[u]
            if f != key[0] or d != key[1]:
                key = queued[u] = (f, d, u)
                heapq.heappush(heap, key)
    return order


def min_fill_order(network: Network) -> list[int]:
    """Elimination order for the network's moral graph via min-fill."""
    return greedy_fill_order(moral_graph(network))


# ---------------------------------------------------------------------------
# construction


def _compose_balanced(trees: list[DtreeNode]) -> DtreeNode:
    """Fold a list of trees pairwise per level, keeping queue order."""
    while len(trees) > 1:
        nxt = [DtreeNode(left=trees[i], right=trees[i + 1]) for i in range(0, len(trees) - 1, 2)]
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

    Starts with one leaf per CPT family, in variable-id order; each
    variable in the order merges every tree with a leaf whose family
    mentions it (balanced fold, queue order); leftover component trees
    are folded at the end.  Trees are the classes of a union-find over
    the leaves, each represented by its least leaf, which is also its
    place in the queue.
    """
    n = network.n
    if sorted(order) != list(range(n)):
        raise ValueError("elimination order is not a permutation of the variable ids")
    mentions: list[list[int]] = [[] for _ in range(n)]  # leaves whose family has v
    for leaf in range(n):
        for v in network.family(leaf):
            mentions[v].append(leaf)
    owner = list(range(n))  # union-find links; a class's root is its least leaf
    tree: list[DtreeNode | None] = [DtreeNode(var=v) for v in range(n)]

    def find(leaf: int) -> int:
        root = leaf
        while owner[root] != root:
            root = owner[root]
        while owner[leaf] != root:
            owner[leaf], leaf = root, owner[leaf]
        return root

    for v in order:
        roots = sorted({find(leaf) for leaf in mentions[v]})
        if len(roots) <= 1:
            continue
        first = roots[0]
        tree[first] = _compose_balanced([tree[r] for r in roots])
        for r in roots[1:]:
            owner[r] = first
            tree[r] = None
    return _finish(_compose_balanced([tree[r] for r in range(n) if owner[r] == r]), network)


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
    """Fill cutset/context/cluster and reset cache states and the query plan.

    Caching candidates (internal non-root nodes) start live; the root
    and the leaves never cache.  Raises ValueError when the leaves do
    not match the network families exactly.
    """
    network = root.network
    if network is None:
        raise ValueError("dtree root is not attached to a network")

    # Preorder, setting parents: the leaves come left to right.
    nodes: list[DtreeNode] = []
    stack: list[DtreeNode] = [root]
    root.parent = None
    while stack:
        node = stack.pop()
        nodes.append(node)
        if node.left is not None:
            node.left.parent = node.right.parent = node
            stack.append(node.right)
            stack.append(node.left)
    seen_vars = [node.var for node in nodes if node.left is None]
    for var in seen_vars:
        if var is None or not (0 <= var < network.n):
            raise ValueError(f"leaf references unknown variable {var!r}")
    if sorted(seen_vars) != list(range(network.n)):
        raise ValueError("dtree leaves do not cover every network variable exactly once")

    # first[v], last[v]: the leftmost and rightmost positions of the leaves
    # whose family mentions v; `shared` holds the variables of two leaves or more
    first = [-1] * network.n
    last = [-1] * network.n
    for pos, var in enumerate(seen_vars):
        for v in network.family(var):
            if first[v] < 0:
                first[v] = pos
            last[v] = pos
    shared = frozenset(v for v in range(network.n) if first[v] != last[v])

    # Children before parents: reversed preorder visits a node's right
    # subtree, then its left one, then the node, so `below` holds the
    # (context, first leaf, last leaf) of the left child on top of the
    # right child's.  context(t) is the variables of t that also occur
    # outside its leaf range; those of an internal t come from its
    # children's contexts, and cutset(t) is what the children's contexts
    # share that t's context lacks.
    cards = network.cards
    below: list[tuple[frozenset[int], int, int]] = []
    pos = len(seen_vars)
    for node in reversed(nodes):
        if node.left is None:
            pos -= 1
            node.cluster = frozenset(network.family(node.var))
            # equal sets share one object: a frozenset costs 216 bytes or more
            context = node.cluster if node.cluster <= shared else node.cluster & shared or _NO_VARS
            node.cutset = _NO_VARS
            node.cache_state = DEAD
            node.cells = 0
            lo = hi = pos
        else:
            left, lo, _ = below.pop()
            right, _, hi = below.pop()
            context = frozenset(v for v in left | right if first[v] < lo or last[v] > hi) or _NO_VARS
            node.cutset = (left & right) - context or _NO_VARS
            node.cluster = node.cutset | context if node.cutset else context
            node.cells = math.prod(cards[v] for v in context)
            node.cache_state = LIVE if node.parent is not None else DEAD
        node.context = context
        below.append((context, lo, hi))
    root.plan = None
    return dtree_stats(root)


def mark_dead_caches(root: DtreeNode) -> int:
    """Mark caches whose entries can never be looked up again.

    An internal non-root node whose context contains its parent's
    context is dead: by the time the parent recomputes, its own cache
    already answers.  Clears the root's query plan, which holds the
    cache states it resolved.  Returns the number of nodes marked.
    """
    root.plan = None
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
    """Width, height, context width, and cache-cell counts under the current states."""
    width = 0
    height = 0
    context_width = 0
    cells_all = 0
    cells_live = 0
    level = [root]
    while level:  # one dtree level per pass
        height += 1
        below = []
        for node in level:
            width = max(width, len(node.cluster) - 1)
            context_width = max(context_width, len(node.context))
            if node.is_leaf:
                continue
            below += (node.left, node.right)
            if node.parent is not None:
                cells_all += node.cells
                if node.cache_state == LIVE:
                    cells_live += node.cells
        level = below
    return DtreeStats(
        width=width,
        height=height,
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


def _dot_escape(name: str) -> str:
    """A name as it may stand inside a double-quoted DOT string."""
    return name.replace("\\", "\\\\").replace('"', '\\"')


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
            label = _dot_escape(network.variables[node.var].name)
            if len(fam) > 1:
                label += " | " + ",".join(
                    _dot_escape(network.variables[p].name) for p in fam[1:]
                )
            lines.append(f'  n{node.id} [label="{label}"];')
        else:
            cut = ",".join(map(_dot_escape, _names(network, node.cutset))) or "-"
            ctx = ",".join(map(_dot_escape, _names(network, node.context))) or "-"
            lines.append(
                f'  n{node.id} [label="cut {{{cut}}}\\nctx {{{ctx}}}\\n{node.cache_state}"];'
            )
    for node in iter_nodes(root):
        if not node.is_leaf:
            lines.append(f"  n{node.id} -> n{node.left.id};")
            lines.append(f"  n{node.id} -> n{node.right.id};")
    lines.append("}")
    return "\n".join(lines)
