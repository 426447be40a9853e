"""Independent oracles the tests check the package against.

Everything here recomputes from first principles with simple data
structures; none of it shares code paths with the package internals.
"""

from __future__ import annotations

import heapq
import itertools
import math
from functools import lru_cache

from rcnet import Network
from rcnet.dtree import DtreeNode

from helpers import literal_of


def reference_build_dtree(network: Network, order: list[int]) -> DtreeNode:
    """Dtree from an elimination order by scanning every tree's variable
    set for each variable: the trees that mention it, in queue order,
    fold pairwise per level into one, which takes the first one's place;
    the leftover trees fold the same way at the end."""

    def fold(trees):
        while len(trees) > 1:
            nxt = [
                (DtreeNode(left=l, right=r), lv | rv)
                for (l, lv), (r, rv) in zip(trees[0::2], trees[1::2])
            ]
            if len(trees) % 2:
                nxt.append(trees[-1])
            trees = nxt
        return trees[0]

    trees = [(DtreeNode(var=v), set(network.family(v))) for v in range(network.n)]
    for v in order:
        matched = [t for t in trees if v in t[1]]
        if len(matched) <= 1:
            continue
        composite = fold(matched)
        at = trees.index(matched[0])
        trees = [t for t in trees if v not in t[1]]
        trees.insert(at, composite)
    return fold(trees)[0]


def dtree_shape(root: DtreeNode) -> list[int | None]:
    """Leaf variables in preorder, None at internal nodes: for a full binary
    tree this determines the shape."""
    out, stack = [], [root]
    while stack:
        node = stack.pop()
        out.append(node.var if node.is_leaf else None)
        if not node.is_leaf:
            stack += (node.right, node.left)
    return out


def naive_annotations(root: DtreeNode, network: Network) -> dict[int, dict]:
    """Recompute every dtree annotation straight from the definitions."""
    def vars_of(t: DtreeNode) -> frozenset[int]:
        if t.is_leaf:
            return frozenset((t.var,) + network.cpts[t.var].parents)
        return vars_of(t.left) | vars_of(t.right)

    out: dict[int, dict] = {}

    def walk(t: DtreeNode, ancestor_cutsets: list[frozenset[int]]) -> None:
        vs = vars_of(t)
        acutset = frozenset().union(*ancestor_cutsets) if ancestor_cutsets else frozenset()
        context = vs & acutset
        if t.is_leaf:
            cutset = frozenset()
            cluster = vs
        else:
            cutset = (vars_of(t.left) & vars_of(t.right)) - acutset
            cluster = cutset | context
        out[t.id] = {
            "vars": vs, "acutset": acutset, "cutset": cutset,
            "context": context, "cluster": cluster,
        }
        if not t.is_leaf:
            walk(t.left, ancestor_cutsets + [cutset])
            walk(t.right, ancestor_cutsets + [cutset])

    walk(root, [])
    return out


def exact_treewidth(adj: list[set[int]]) -> int:
    """Exact treewidth by dynamic programming over elimination subsets.

    Exponential in the vertex count; keep graphs at 8 vertices or fewer.
    The neighborhood of v after eliminating a set S is every vertex
    outside S reachable from v through S.
    """
    n = len(adj)
    if n == 0:
        return -1

    def degree_after(v: int, mask: int) -> int:
        seen = 1 << v
        stack = [v]
        count = 0
        while stack:
            u = stack.pop()
            for w in adj[u]:
                bit = 1 << w
                if seen & bit:
                    continue
                seen |= bit
                if mask & bit:
                    stack.append(w)
                else:
                    count += 1
        return count

    @lru_cache(maxsize=None)
    def best(mask: int) -> int:
        if mask == 0:
            return -1
        out = n
        for v in range(n):
            bit = 1 << v
            if mask & bit:
                prev = mask ^ bit
                out = min(out, max(best(prev), degree_after(v, prev)))
        return out

    return best((1 << n) - 1)


def brute_fill_counts(adj: list[set[int]], remaining: set[int]) -> dict[int, int]:
    """Fill-edge counts for every candidate, counted pairwise from scratch."""
    counts = {}
    for v in remaining:
        neigh = [u for u in adj[v] if u in remaining]
        fills = 0
        for a, b in itertools.combinations(neigh, 2):
            if b not in adj[a]:
                fills += 1
        counts[v] = fills
    return counts


def reference_fill_order(adj: list[set[int]]) -> list[int]:
    """Greedy min-fill recomputed independently (same tie rule:
    fills, then neighborhood size, then id)."""
    work = [set(s) for s in adj]
    remaining = set(range(len(adj)))
    order = []
    while remaining:
        counts = brute_fill_counts(work, remaining)
        v = min(remaining, key=lambda u: (counts[u], len([w for w in work[u] if w in remaining]), u))
        order.append(v)
        neigh = [u for u in work[v] if u in remaining]
        for a, b in itertools.combinations(neigh, 2):
            work[a].add(b)
            work[b].add(a)
        remaining.discard(v)
    return order


def recount_fill_order(adj: list[set[int]]) -> list[int]:
    """Greedy min-fill by a heap with lazy entries that recounts, from
    scratch, the fill of every vertex an elimination can change: the
    eliminated vertex's neighbours and the common neighbours of each fill
    edge's ends (same tie rule: fills, then neighborhood size, then id)."""

    def fill_count(v: int) -> int:
        neigh = work[v]
        d = len(neigh)
        return d * (d - 1) // 2 - sum(len(neigh & work[a]) for a in neigh) // 2

    work = [set(s) for s in adj]
    fill = [fill_count(v) for v in range(len(work))]
    degree = [len(s) for s in work]
    heap = [(fill[v], degree[v], v) for v in range(len(work))]
    heapq.heapify(heap)
    eliminated = [False] * len(work)
    order = []
    while heap:
        f, d, v = heapq.heappop(heap)
        if eliminated[v] or f != fill[v] or d != degree[v]:
            continue
        eliminated[v] = True
        order.append(v)
        neigh = work[v]
        work[v] = set()
        fill_edges = []
        for a in neigh:
            work[a].discard(v)
            fill_edges += [(a, b) for b in neigh - work[a] if a < b]
        for a, b in fill_edges:
            work[a].add(b)
            work[b].add(a)
        touched = set(neigh)
        for a, b in fill_edges:
            touched |= work[a] & work[b]
        for u in touched:
            f, d = fill_count(u), len(work[u])
            if f != fill[u] or d != degree[u]:
                fill[u], degree[u] = f, d
                heapq.heappush(heap, (f, d, u))
    return order


def forward_log_probability(doc, evidence_by_name):
    """ln Pr(e) on a chain document by a scaled forward pass over its tables."""
    alpha = None
    log_scale = 0.0
    for cpt in doc["cpts"]:
        table = cpt["table"]
        if alpha is None:
            alpha = list(table)
        else:
            alpha = [sum(alpha[a] * table[2 * a + b] for a in range(2)) for b in range(2)]
        observed = evidence_by_name.get(cpt["child"])
        if observed is not None:
            alpha = [p if b == observed else 0.0 for b, p in enumerate(alpha)]
        z = sum(alpha)
        log_scale += math.log(z)
        alpha = [p / z for p in alpha]
    return log_scale


def dtree_separators(root: DtreeNode) -> list[tuple[DtreeNode, tuple[int, ...]]]:
    """(t, cluster(t) & cluster(parent(t))) for every non-root node t, in
    preorder, each separator an ascending tuple: the separators of the
    jointree whose clusters are the dtree clusters, found from the
    clusters alone."""
    out = []
    stack = [root]
    while stack:
        node = stack.pop()
        if node.parent is not None:
            above = set(node.parent.cluster)
            out.append((node, tuple(sorted(v for v in node.cluster if v in above))))
        if node.left is not None:
            stack += (node.right, node.left)
    return out


def check_running_intersection(root: DtreeNode) -> bool:
    """Each non-root node's separator with its parent is its context, and
    the clusters holding any one variable form a connected subtree."""
    separators = dtree_separators(root)
    if any(sep != node.context for node, sep in separators):
        return False
    nodes = [root] + [node for node, _ in separators]
    for v in set().union(*(node.cluster for node in nodes)):
        holders = [node for node in nodes if v in node.cluster]
        # a set of nodes in a rooted tree is connected when exactly one of
        # them has no parent in the set
        tops = [t for t in holders if t.parent is None or v not in t.parent.cluster]
        if len(tops) != 1:
            return False
    return True


def elimination_cliques(adj: list[set[int]], order: list[int]) -> list[frozenset[int]]:
    """The clique {v} | neighbors(v) formed at each elimination step."""
    work = [set(s) for s in adj]
    cliques = []
    for v in order:
        neigh = list(work[v])
        cliques.append(frozenset([v] + neigh))
        for a, b in itertools.combinations(neigh, 2):
            work[a].add(b)
            work[b].add(a)
        for a in neigh:
            work[a].discard(v)
        work[v].clear()
    return cliques


def replay_kb(kb_factory, surviving_asserts):
    """Fresh KB with the surviving assertion sequence, literal codes,
    replayed onto it."""
    fresh = kb_factory()
    for code in surviving_asserts:
        ok = fresh.assert_literal(code)
        assert ok, "replay oracle hit a contradiction the original run survived"
    return fresh


def unit_closure(cards, clauses, asserted):
    """Each variable's domain bitmask once unit resolution has run to its
    fixpoint over `clauses` and the `asserted` literals, or None on a
    contradiction.  Literals are codes, decoded from `cards` alone by
    helpers.literal_of.  Domains are sets of states, and every clause is
    rescanned until a whole pass changes nothing; no watches."""
    domains = [set(range(card)) for card in cards]

    def decode(code):
        """(var, the states the literal allows)."""
        var, state, positive = literal_of(cards, code)
        return var, {state} if positive else set(range(cards[var])) - {state}

    for var, allowed in map(decode, asserted):
        domains[var] &= allowed
        if not domains[var]:
            return None
    decoded = [[decode(code) for code in clause] for clause in clauses]
    changed = True
    while changed:
        changed = False
        for clause in decoded:
            open_lits = [(var, allowed) for var, allowed in clause if domains[var] & allowed]
            if not open_lits:
                return None
            if len(open_lits) == 1:
                var, allowed = open_lits[0]
                narrowed = domains[var] & allowed
                if narrowed != domains[var]:
                    domains[var] = narrowed
                    changed = True
    return [sum(1 << s for s in domain) for domain in domains]
