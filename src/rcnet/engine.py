"""Probability-of-evidence queries by recursive conditioning.

A query walks the dtree: a leaf answers from its CPT (or 1 when its
variable is unobserved and unconditioned); an internal node sums, over
the instantiations of its not-yet-assigned cutset variables, the
product of its two subtree values, assigning each instantiation around
the recursion.  Results at an internal node are cached per context
instantiation, so caching trades memory for repeated work; any subset
of caches may be enabled without affecting the returned probability.

The walk runs over a QueryPlan, lists indexed by node id that are
lowered once per annotated dtree and network and kept on the dtree's
root (DtreeNode.plan) until annotate() or mark_dead_caches() runs again
or another network object is queried: each node's children, its cutset
(the ascending tuple annotate() stored, not a copy), and each node's key
as its parent sees it.  A key indexes a live cache by its context, or a
tabular leaf's CPT entries by its family, and is split in two: the
variables outside the parent's cutset, with their strides, and one
stride per position of the parent's cutset.  Log-domain leaf tables are
added the first time a log-domain query needs them, and the caches a
cache policy enables (apply_policy over the dead-cache marks) the first
time a query runs under that policy.

Each query builds only what depends on it: one arena for its cache
tables, one assignment list, its counters, and copies of the keys and
cutsets its evidence changes.  The arena is a single array('d') that
holds every enabled cache's table, one after another, each at its own
base offset: a table has a cell per instantiation of the context
variables the evidence leaves open, 8 bytes a cell and nothing more, and
+inf (EMPTY) in the cells not yet filled; a context the evidence fixes
has one cell.  A query whose tables would exceed MAX_CACHE_CELLS cells is
refused before the arena is made.  A cutset's observed variables leave
its loop, and their strides move into the fixed part of a leaf's key or
out of a cache's key.

One odometer walks each open cutset, the last variable fastest.  At
each expansion it sums the fixed part of both children's keys once, and
adds a level's stride to a key each time that level's state moves.
Cache hits and misses, tabular leaves and leaves that sum to one are
answered inside the walk.  A noisy-or leaf whose expanded table has at
most NOISY_OR_TABLE_CELLS cells is lowered to that table and answered
the same way; only uncached internal children are called, and lookup()
answers the larger noisy-or leaves and a leaf root, so the recursion
takes one Python frame per dtree level, and a deep dtree raises the
recursion limit for the query alone.

Without a knowledge base nothing is skipped, so every cell of every
enabled cache is needed.  Each table is then filled before the root is
expanded, in one walk of the same odometer with the node's open context
as levels in front of its open cutset, and children before parents, so
every lookup hits; uncached children are still called once per product.
With a knowledge base the caches fill on demand, one call per miss,
since which cells are needed depends on what the KB refutes along the
path.  Both orders compute each filled cell once, from the same children
in the same cutset order, so values and counters do not depend on it.

In the log domain a product is a sum of logs, and a sum is kept in place
as the online normalizer of Milakov and Gimelshein (arXiv 1805.02867)
keeps it: the largest term so far, and the sum of each term's exp
relative to it, rescaled when a larger term comes.  A -inf term never
reaches exp, where -inf - -inf would be NaN.

With a knowledge base attached, the walk asks the KB about a state only
where the answer can change what it does next.  At every open level but
the last, each state is asserted once per instantiation of the open
variables before it, under its own checkpoint, and retracted when the
walk moves past it.  At the last open level a state is asserted, the
same way, only when its product will call a child: an uncached internal
child, or a cache cell still EMPTY.  When both children are read from
filled cells, tables or lookup() (which never reads the KB), the product
is taken without asking, and nobody reads the KB in that state.  This
changes no answer.  At t's last open level all of t's cluster is
assigned.  Every clause that mentions a cutset variable of t comes from
a family in t's subtree, and propagation cannot leave the subtree
through its context, whose variables are assigned.  So a contradiction
there would prove that one child's value is exactly 0 (-inf in the log
domain), and the product adds +0 to the sum.  Only the counters could
tell: such a state counts as a product where an assertion would have
counted a KB skip.

A contradiction proves the branch carries zero probability; a state the
KB's current domain already excludes is not asserted at all.  Either way
the walk skips it together with every instantiation of the variables
after it, and counts each of those as a KB skip.  A state the domain
already implies is assigned without an assertion, and so is any state of
a variable no clause mentions, in the walk and in the evidence alike, so
a KB without clauses, or no KB, is never asked.  Only assigned evidence
and cutset values are visible to leaf lookups; KB-implied values never
are, which keeps the unobserved-leaf sum-to-1 shortcut exact.
"""

from __future__ import annotations

import itertools
import math
import sys
from array import array
from dataclasses import dataclass, field
from typing import Iterable, Mapping

from .dtree import DtreeNode, DISABLED, LIVE, dtree_stats, iter_nodes, recursion_room
from .kb import KnowledgeBase
from .model import Network, NoisyOrCpt, TabularCpt, expand_to_table, validate_evidence

LOG_ZERO = float("-inf")
UNASSIGNED = -1

# an unfilled cache cell: node values are at most about 1 (linear) or 0 (log),
# so no value is +inf, and array.count() finds the empty cells exactly
EMPTY = math.inf

# linear answers below this are re-answered in the log domain: node values never
# exceed 1, so rounding in the subnormal range moves any larger answer by at most
# 2**-105 of its value
LINEAR_FLOOR = sys.float_info.min / sys.float_info.epsilon  # 2**-970

# a noisy-or leaf whose expanded table has at most this many cells is answered
# from that table; a larger one computes each value from its parameters
NOISY_OR_TABLE_CELLS = 4096

# a query whose enabled cache tables would hold more cells than this (1 GiB of
# floats) is refused before any is made
MAX_CACHE_CELLS = 2**27

__all__ = [
    "LOG_ZERO",
    "UNASSIGNED",
    "CachePolicy",
    "QueryResult",
    "apply_policy",
    "lookup",
    "rc_query",
    "brute_force_probability",
]


@dataclass(frozen=True)
class CachePolicy:
    """How many cells of live caches a query may fill; None is no limit."""

    max_cells: int | None = None

    def __post_init__(self) -> None:
        if self.max_cells is not None and (type(self.max_cells) is not int or self.max_cells < 0):
            raise ValueError(f"cache budget must be a non-negative int, not {self.max_cells!r}")

    @classmethod
    def full(cls) -> "CachePolicy":
        return cls(None)

    @classmethod
    def none(cls) -> "CachePolicy":
        return cls(0)

    @classmethod
    def budget(cls, max_cells: int) -> "CachePolicy":
        return cls(max_cells)

    @classmethod
    def parse(cls, text: str) -> "CachePolicy":
        if text == "full":
            return cls.full()
        if text == "none":
            return cls.none()
        mode, _, cells = text.partition(":")
        if mode == "budget" and cells.isdecimal():
            return cls.budget(int(cells))
        raise ValueError(f"unknown cache policy {text!r} (use full, none, or budget:N)")


@dataclass
class QueryResult:
    probability: float
    rc_calls: int
    cache_hits: int
    cache_misses: int
    cache_cells: int  # cells of the query's arena, 8 bytes each: its tables, nothing more
    kb_enabled: bool = False
    kb_skips: int = 0
    kb_evidence_contradiction: bool = False
    log_domain: bool = False
    log_value: float | None = None  # natural log, kept exact in log-domain runs
    # cells filled per dtree node id, nodes that filled none left out
    per_node_misses: dict[int, int] = field(default_factory=dict)

    @property
    def entries_written(self) -> int:
        """Cells written: every miss fills exactly one cell."""
        return self.cache_misses

    @property
    def log10(self) -> float | None:
        if self.log_value is not None:
            return None if self.log_value == LOG_ZERO else self.log_value / math.log(10)
        if self.probability <= 0.0:
            return None
        return math.log10(self.probability)

    def to_json_dict(self) -> dict:
        return {
            "probability": self.probability,
            "log10": self.log10,
            "rc_calls": self.rc_calls,
            "cache": {
                "hits": self.cache_hits,
                "misses": self.cache_misses,
                "written": self.entries_written,
                "cells": self.cache_cells,
                "per_node": {str(t): misses for t, misses in self.per_node_misses.items()},
            },
            "kb": {"enabled": self.kb_enabled, "skips": self.kb_skips},
            "kb_evidence_contradiction": self.kb_evidence_contradiction,
            "log_domain": self.log_domain,
        }


def apply_policy(root: DtreeNode, policy: CachePolicy) -> dict[int, str]:
    """Resolve per-node cache states under a policy; rc_query resolves
    them once per query plan and policy.

    Dead caches stay dead under every policy.  A budget enables live
    candidates in ascending cell-count order (ties by node id) while
    they fit; every live cache has a cell at least, so a budget of 0
    enables none.  The dtree itself is left untouched.
    """
    states = {node.id: node.cache_state for node in iter_nodes(root)}
    if policy.max_cells is None:
        return states
    allocated = 0
    live = [node for node in iter_nodes(root) if states[node.id] == LIVE]
    for node in sorted(live, key=lambda t: (t.cells, t.id)):
        if allocated + node.cells <= policy.max_cells:
            allocated += node.cells
        else:
            states[node.id] = DISABLED
    return states


def lookup(network: Network, var: int, assign: list[int],
           log_domain: bool = False) -> float:
    """Leaf value of variable `var`: Pr(x|u) when it is assigned, else 1.

    `assign` holds a state per variable id, UNASSIGNED where there is
    none, as in a query.  All parents must be assigned whenever the
    variable is; anything else means the dtree does not cover the family
    and is malformed.  The walk calls it for the leaves it does not read
    from a table: a noisy-or leaf too large to lower, and a leaf root.
    """
    x = assign[var]
    if x == UNASSIGNED:
        return 0.0 if log_domain else 1.0
    cpt = network.cpts[var]
    parent_states = []
    for p in cpt.parents:
        s = assign[p]
        if s == UNASSIGNED:
            raise RuntimeError(
                f"parent {network.variables[p].name!r} unassigned at leaf lookup "
                f"for {network.variables[var].name!r}; malformed dtree"
            )
        parent_states.append(s)
    p = cpt.prob(x, parent_states)
    if log_domain:
        return math.log(p) if p > 0.0 else LOG_ZERO
    return p


def _strides(variables, cards) -> tuple[dict[int, int], int]:
    """Each variable's stride, in the given order with the last fastest,
    and the number of instantiations."""
    strides = {v: 0 for v in variables}  # dict.fromkeys would bypass the dict free list
    stride = 1
    for v in reversed(variables):
        strides[v] = stride
        stride *= cards[v]
    return strides, stride


class QueryPlan:
    """An annotated dtree lowered for one network into lists indexed by node id.

    Leaves have left == right == -1; internal nodes have leaf_var == -1.
    cutset[t] is node t's annotated cutset itself, an ascending tuple of
    variable ids (empty at a leaf).  keys[c] is node c's key as its parent
    p sees it, a triple: the key's variables outside p's cutset, their
    strides, and one stride per position of p's cutset.  The key of a live
    cache covers its context, and that of a tabular leaf the index of its
    family's entry in the CPT; both hold every variable of p's cutset.  A
    dead cache and a noisy-or leaf too large to lower
    (NOISY_OR_TABLE_CELLS), which nothing indexes, have no variables and
    stride 0 at every position; a smaller noisy-or leaf is lowered to its
    expanded table and keyed like a tabular one.  A live cache orders its
    cells by its context variables outside p's cutset, ascending, then p's
    cutset, the last fastest.  lone lists the tabular leaves whose variable
    is in no other family, and cut_node[v] is the node whose cutset holds
    variable v, or -1.  Queries never change a plan, except that the first
    log-domain query fills in log_tables and the first query under each
    cache policy records the caches it enables.
    """

    __slots__ = (
        "network", "root", "left", "right", "parent", "cutset", "cut_node", "keys",
        "leaf_var", "lone", "tables", "log_tables", "height", "levels", "enabled",
    )

    def __init__(self, root: DtreeNode, network: Network):
        nodes = list(iter_nodes(root))
        n = len(nodes)
        cards = network.cards
        self.network = network
        self.root = root.id
        self.left = [-1] * n
        self.right = [-1] * n
        self.parent = [-1] * n
        self.cutset: list[tuple[int, ...]] = [()] * n
        self.cut_node = [-1] * network.n
        self.keys: list[tuple[tuple[int, ...], ...]] = [((), (), ())] * n
        self.leaf_var = [-1] * n
        self.tables: list[tuple[float, ...] | None] = [None] * n
        self.log_tables: list[tuple[float, ...] | None] | None = None
        # per cache policy, the ids of the nodes whose cache it enables
        self.enabled: dict[CachePolicy, tuple[int, ...]] = {}
        lone = []
        shared: dict[tuple, tuple] = {}  # one object per distinct key tuple
        for node in nodes:  # preorder: a parent's cutset is lowered before its children
            i = node.id
            key: dict[int, int] = {}
            if not node.is_leaf:
                self.left[i] = node.left.id
                self.right[i] = node.right.id
                self.cutset[i] = node.cutset
                for v in node.cutset:
                    self.cut_node[v] = i
                if node.cache_state == LIVE:  # never the root
                    cut = node.parent.cutset
                    key = _strides([v for v in node.context if v not in cut] + [*cut], cards)[0]
            else:
                cpt = network.cpts[node.var]
                for p in cpt.parents:
                    if p not in node.context:
                        raise RuntimeError(
                            f"parent {network.variables[p].name!r} of "
                            f"{network.variables[node.var].name!r} is not in its leaf's "
                            f"context, so it may be unassigned at lookup; malformed dtree"
                        )
                self.leaf_var[i] = node.var
                if (isinstance(cpt, NoisyOrCpt)
                        and 2 * math.prod([cards[p] for p in cpt.parents]) <= NOISY_OR_TABLE_CELLS):
                    cpt = expand_to_table(network, node.var)
                if isinstance(cpt, TabularCpt):
                    key = _strides([*cpt.parents, node.var], cards)[0]
                    self.tables[i] = cpt.entries
                    if node.var not in node.context:
                        lone.append(i)
            if node.parent is None:
                continue
            self.parent[i] = node.parent.id
            cut = self.cutset[node.parent.id]
            fixed = [v for v in key if v not in cut]
            parts = (tuple(fixed), tuple([key[v] for v in fixed]),
                     tuple([key.get(u, 0) for u in cut]))
            split = tuple([shared.setdefault(part, part) for part in parts])
            self.keys[i] = shared.setdefault(split, split)
        self.lone = tuple(lone)
        self.height = dtree_stats(root).height
        # at least the most levels a walk has: a table fill walks a live
        # cache's context in front of its cutset
        self.levels = max(len(node.cluster) for node in nodes)

    def log_domain_tables(self) -> list[tuple[float, ...] | None]:
        if self.log_tables is None:
            self.log_tables = [
                None if table is None
                else tuple(math.log(p) if p > 0.0 else LOG_ZERO for p in table)
                for table in self.tables
            ]
        return self.log_tables


def _plan_for(root: DtreeNode, network: Network) -> QueryPlan:
    """The root's plan for this network, lowered on first use."""
    plan = root.plan
    if plan is None or plan.network is not network:
        plan = root.plan = QueryPlan(root, network)
    return plan


def _enabled_caches(plan: QueryPlan, root: DtreeNode, policy: CachePolicy) -> tuple[int, ...]:
    """The ids of the nodes whose cache the policy enables, resolved by
    apply_policy on the plan's first query under the policy, in preorder:
    _run_plan fills the tables in reverse, children first."""
    enabled = plan.enabled.get(policy)
    if enabled is None:
        states = apply_policy(root, policy)
        enabled = plan.enabled[policy] = tuple(t for t, s in states.items() if s == LIVE)
    return enabled


# the value source of a leaf whose unobserved variable is in no other family
# (it sums to one), and the mark of a cache whose table is still to be made
_ONE = (1.0,)
_LOG_ONE = (0.0,)
_OPEN = object()


def _open_query(plan: QueryPlan, enabled: tuple[int, ...], evidence: list[int],
                observed: Iterable[int], log_domain: bool) -> tuple[array, array, list, list, list]:
    """What one query adds to its plan: the arena that holds every enabled
    cache's table, each table's first cell in it, and per node the source,
    key and open cutset that _run_plan reads.

    A node's source is what its parent reads its value from: the arena for
    an enabled cache, its CPT entries for a tabular leaf, a one-cell table
    for a leaf that sums to one, or None when the parent must call out (a
    large noisy-or leaf, an uncached internal node).  The arena is one
    array('d'), all EMPTY, with a cell per instantiation of each enabled
    cache's context variables the evidence leaves open; the tables lie in
    it in the order of `enabled`, and bases[t] is the first cell of t's
    (0 at every other node).  A query whose tables would hold more than
    MAX_CACHE_CELLS cells raises ValueError before the arena is made.  The
    plan's keys and cutsets are copied on their first change: a cutset
    drops its observed variables, its children's keys drop their strides
    at those positions (a leaf moves them into its fixed part), and a
    cache whose context holds evidence is keyed over its open variables
    alone (an observed one keeps its place with stride 0; when its parent's
    cutset holds no evidence, it keeps the plan's steps).  Only the nodes
    whose cutset holds an `observed` variable, the enabled caches and the
    lone leaves are visited.
    """
    cards = plan.network.cards
    left, right, parent, cutset = plan.left, plan.right, plan.parent, plan.cutset
    sources = list(plan.log_domain_tables() if log_domain else plan.tables)
    keys, cuts = plan.keys, cutset  # each copied on its first change
    one = _LOG_ONE if log_domain else _ONE
    lone = [t for t in plan.lone if evidence[plan.leaf_var[t]] < 0]
    for t in lone:
        sources[t] = one
    for t in enabled:
        sources[t] = _OPEN
    cut_node = plan.cut_node  # each variable is in at most one cutset
    changed = {cut_node[v] for v in observed}
    changed.discard(-1)
    if changed:
        cuts, keys = list(cuts), list(keys)
    for t in changed:
        cut = cutset[t]
        cuts[t] = tuple([v for v in cut if evidence[v] < 0])
        for c in (left[t], right[t]):
            if sources[c] is _OPEN or sources[c] is one:
                continue  # keyed below
            fixed, strides, steps = keys[c]
            moved = [i for i, u in enumerate(cut) if evidence[u] >= 0 and steps[i]]
            keys[c] = (fixed + tuple([cut[i] for i in moved]),
                       strides + tuple([steps[i] for i in moved]),
                       tuple([steps[i] for i, u in enumerate(cut) if evidence[u] < 0]))
    # an array, not a list: most bases exceed 256, and a list would box each
    bases = array("q", [0]) * len(left)
    total = 0
    for c in enabled:  # a cache's context holds all of its parent's cutset
        cut, open_cut = cutset[parent[c]], cuts[parent[c]]
        fixed = keys[c][0]
        if open_cut is cut and all(evidence[v] < 0 for v in fixed):
            cells = math.prod([cards[v] for v in fixed + cut])
        else:  # observed variables keep their place in fixed, with stride 0
            # [*open_cut], not list(open_cut): list() bypasses the list free
            # list that the freed copy is then parked on, one per cache
            open_context = [v for v in fixed if evidence[v] < 0] + [*open_cut]
            table, cells = _strides(open_context, cards)
            if keys is plan.keys:
                keys = list(keys)
            # the parent's cutset comes last, so its strides are the plan's
            # unless the evidence shortened it
            steps = keys[c][2] if open_cut is cut else tuple([table[u] for u in open_cut])
            keys[c] = (fixed, tuple([table.get(v, 0) for v in fixed]), steps)
        if total <= MAX_CACHE_CELLS:  # past it, the query is refused below
            bases[c] = total
        total += cells
    if total > MAX_CACHE_CELLS:
        raise ValueError(
            f"the enabled cache tables need {total:,} cells ({8 * total:,} bytes), more than "
            f"the limit of {MAX_CACHE_CELLS:,}; a cache policy of budget:N with N at most "
            f"{MAX_CACHE_CELLS} always fits")
    arena = array("d", [EMPTY]) * total
    for c in enabled:
        sources[c] = arena
    if lone and keys is plan.keys:
        keys = list(keys)
    for t in lone:
        if parent[t] >= 0:
            keys[t] = ((), (), (0,) * len(cuts[parent[t]]))
    return arena, bases, sources, keys, cuts


def _run_plan(plan: QueryPlan, enabled: tuple[int, ...], bases: array, sources: list,
              keys: list, cuts: list, assign: list[int], kb: KnowledgeBase | None,
              log_domain: bool) -> tuple[float, int, int, int]:
    """Value of the plan's root under `assign`, with the cache lookups,
    the cutset instantiations evaluated and the KB skips, over a query's
    enabled caches, table bases, sources, keys and open cutsets
    (_open_query).  A cached child's key, and a table fill's cell, count
    from the table's base in the arena.  `assign` is back to its entry
    state on return.

    Without a KB every cell of every enabled cache is needed, so each
    table is filled in one walk, children first, before the root is
    expanded, and every lookup hits.  With one, the caches fill on
    demand: the KB's skips depend on the assignments along the path, and
    a cell under a refuted branch is never computed.  Either way each
    filled cell is computed once, from the same children in the same
    cutset order, so the counters and values do not depend on the order.
    A log-domain cell keeps its largest term so far in `top` and the sum of
    exp(term - top) in `total`, and closes to top + log(total), or LOG_ZERO.
    """
    left, right, parent, leaf_var = plan.left, plan.right, plan.parent, plan.leaf_var
    network = plan.network
    cards = network.cards
    if kb is None:
        mentioned = bytes(network.n)  # no variable: the KB is never asked
        domain = positive = checkpoint = assert_literal = retract_to = None
    else:
        domain, mentioned, positive = kb.domain, kb.mentioned, kb.positive
        checkpoint, assert_literal, retract_to = kb.checkpoint, kb.assert_literal, kb.retract_to
    empty = EMPTY
    lookups = evaluated = skips = 0
    # a level's checkpoint is kept only with a KB and two or more open levels;
    # otherwise every token is -1, and this list, as long as any walk's
    # levels, stands in for them all
    no_tokens = [-1] * plan.levels
    # a table fill's levels and the children's steps on them; fills never
    # nest, so the query keeps one of each
    fill_vars: list[int] = []
    fill_l: list[int] = []
    fill_r: list[int] = []

    def expand(t: int, table: array | None = None) -> float:
        """Sum over the open cutset of t of its children's product; given
        the arena, fill every cell of t's table in it instead."""
        nonlocal lookups, evaluated, skips
        l, r = left[t], right[t]
        lsource, rsource = sources[l], sources[r]
        lfixed, lstrides, lstep = keys[l]
        rfixed, rstrides, rstep = keys[r]
        open_vars = cuts[t]
        ctx = 0  # the levels in front of the open cutset: t's open context
        if table is not None:
            # The open context goes in front, in the order of the table's
            # cells (the open variables of t's fixed part, then its parent's
            # open cutset, the last fastest), so the cell index counts up by
            # one from t's base; on each of its variables a child's key moves
            # by the stride its fixed part gives that variable.  Each starts
            # at state 0, which the keys below are computed at.
            cell = bases[t]
            fill_vars.clear()
            fill_l.clear()
            fill_r.clear()
            for v in keys[t][0]:
                if assign[v] < 0:
                    fill_vars.append(v)
            fill_vars.extend(cuts[parent[t]])
            ctx = len(fill_vars)
            for v in fill_vars:
                assign[v] = 0
                fill_l.append(lstrides[lfixed.index(v)] if v in lfixed else 0)
                fill_r.append(rstrides[rfixed.index(v)] if v in rfixed else 0)
            fill_vars.extend(open_vars)
            fill_l.extend(lstep)
            fill_r.extend(rstep)
            open_vars, lstep, rstep = fill_vars, fill_l, fill_r
        kl = bases[l]  # 0 unless l is an enabled cache
        if lsource is None:
            lvar = leaf_var[l]
        else:
            for v, stride in zip(lfixed, lstrides):
                kl += assign[v] * stride
        kr = bases[r]
        if rsource is None:
            rvar = leaf_var[r]
        else:
            for v, stride in zip(rfixed, rstrides):
                kr += assign[v] * stride
        # An odometer over the levels, the last fastest: level i holds
        # open_vars[i] and, while a state of it is assigned, the checkpoint
        # from which that state was asserted (-1 when nothing was).  kl and
        # kr are the children's keys at the current states.  A cell is
        # complete when the open cutset's levels have all been walked.  A
        # state the KB's domain excludes is skipped along with every
        # instantiation of the levels below it; a state the domain implies,
        # or any state of a variable no clause mentions, is assigned
        # without asking the KB, and so is a state of the last level whose
        # product calls no child: its value would be exact even if the KB
        # refuted it (see the module docstring).
        k = len(open_vars)
        last = k - 1
        tokens = [-1] * last if last > 0 and kb is not None else no_tokens
        top = LOG_ZERO
        total = 0.0
        n = i = s = 0
        token = -1
        while True:
            if k:
                v = open_vars[i]
                if s == cards[v]:
                    assign[v] = UNASSIGNED
                    kl -= s * lstep[i]
                    kr -= s * rstep[i]
                    if i == ctx:  # the open cutset is walked: a cell is complete
                        if table is None:
                            break
                        if log_domain:
                            table[cell] = top + math.log(total) if total else LOG_ZERO
                            top = LOG_ZERO
                        else:
                            table[cell] = total
                        total = 0.0
                        cell += 1
                    if i == 0:
                        break
                    i -= 1
                    if tokens[i] >= 0:
                        retract_to(tokens[i])
                    s = assign[open_vars[i]] + 1
                    kl += lstep[i]
                    kr += rstep[i]
                    continue
                token = -1
                if mentioned[v]:
                    bit = 1 << s
                    d = domain[v]
                    # at the last level, ask only before a child is called
                    if d & bit and d != bit and (
                            i < last
                            or (lvar < 0 if lsource is None else lsource[kl] == empty)
                            or (rvar < 0 if rsource is None else rsource[kr] == empty)):
                        token = checkpoint()
                        if not assert_literal(positive[v][s]):
                            retract_to(token)
                            d = 0  # refuted
                    if not d & bit:
                        skips += 1 if i == last else math.prod(
                            [cards[u] for u in open_vars[i + 1:]])
                        s += 1
                        kl += lstep[i]
                        kr += rstep[i]
                        continue
                assign[v] = s
                if i < last:
                    tokens[i] = token
                    i += 1
                    s = 0
                    continue
            n += 1
            if lsource is None:  # lookup is read from the module at each call
                a = expand(l) if lvar < 0 else lookup(network, lvar, assign, log_domain)
            else:
                a = lsource[kl]
                if a == empty:
                    a = lsource[kl] = expand(l)
            if rsource is None:
                b = expand(r) if rvar < 0 else lookup(network, rvar, assign, log_domain)
            else:
                b = rsource[kr]
                if b == empty:
                    b = rsource[kr] = expand(r)
            if log_domain:  # a -inf term never reaches exp: -inf - -inf is NaN
                x = a + b
                if x > top:
                    total = total * math.exp(top - x) + 1.0
                    top = x
                elif x > LOG_ZERO:
                    total += math.exp(x - top)
            else:
                total += a * b
            if last < ctx:  # no open cutset: each product is a cell
                if table is None:
                    break
                if log_domain:
                    table[cell] = top + math.log(total) if total else LOG_ZERO
                    top = LOG_ZERO
                else:
                    table[cell] = total
                total = 0.0
                cell += 1
                if not k:
                    break
            if token >= 0:
                retract_to(token)
            s += 1
            kl += lstep[i]
            kr += rstep[i]
        evaluated += n
        lookups += n * ((type(lsource) is array) + (type(rsource) is array))
        if log_domain:
            return top + math.log(total) if total else LOG_ZERO
        return total

    try:
        if kb is None:
            # apply_policy lists the nodes in preorder, so in reverse every
            # cache comes after all the caches below it
            for t in reversed(enabled):
                expand(t, sources[t])
        root = plan.root
        var = leaf_var[root]
        value = lookup(network, var, assign, log_domain) if var >= 0 else expand(root)
        return value, lookups, evaluated, skips
    finally:
        expand = None  # expand refers to itself: break the cycle


def rc_query(
    network: Network,
    root: DtreeNode,
    evidence: Mapping[int, int],
    policy: CachePolicy | None = None,
    kb: KnowledgeBase | None = None,
    log_domain: bool = False,
) -> QueryResult:
    """Probability of the evidence under the dtree's decomposition.

    The dtree must be annotated (and normally dead-cache marked) for
    this network.  The cache policy defaults to full.  A supplied KB is
    used only to skip provably-zero cutset instantiations; it is
    restored to its entry state before returning.  A KB over other
    cardinalities than the network's raises ValueError before anything
    is asserted; one compiled from another network with the same
    cardinalities but other CPTs cannot be told apart, and gives wrong
    answers.  A linear answer below LINEAR_FLOOR, zero included, that
    the KB has not refuted is answered again in the log domain, and that
    result is returned.
    """
    validate_evidence(network, evidence)
    if kb is not None and kb.cards != network.cards:
        raise ValueError("the KB was compiled for a network with other cardinalities")
    plan = _plan_for(root, network)
    expected = [UNASSIGNED] * network.n
    for var, state in evidence.items():
        expected[var] = state
    assign = list(expected)

    kb_token = kb.checkpoint() if kb is not None else None
    # expand() takes one frame per dtree level: hits, tabular leaves and the
    # lookup around a miss stay in the parent's frame
    with recursion_room(plan.height):
        try:
            if kb is not None:
                for var, state in sorted(evidence.items()):
                    if kb.mentioned[var] and not kb.assert_literal(kb.positive[var][state]):
                        return QueryResult(
                            probability=0.0,
                            rc_calls=0,
                            cache_hits=0,
                            cache_misses=0,
                            cache_cells=0,
                            kb_enabled=True,
                            kb_skips=0,
                            kb_evidence_contradiction=True,
                            log_domain=log_domain,
                            log_value=LOG_ZERO if log_domain else None,
                        )
            enabled = _enabled_caches(plan, root, policy or CachePolicy.full())
            arena, bases, sources, keys, cuts = _open_query(
                plan, enabled, expected, evidence, log_domain)
            value, lookups, evaluated, skips = _run_plan(
                plan, enabled, bases, sources, keys, cuts, assign, kb, log_domain)
        finally:
            if kb_token is not None:
                kb.retract_to(kb_token)

    if assign != expected:
        var = next(v for v in range(network.n) if assign[v] != expected[v])
        raise RuntimeError(f"query leaked an assignment on variable {var}")
    if not log_domain and value < LINEAR_FLOOR:
        del arena, bases, sources, keys, cuts  # free the linear pass first
        return rc_query(network, root, evidence, policy, kb, log_domain=True)

    # every miss fills exactly one cell, and every other lookup is a hit; one
    # forward pass, copying one table at a time, keeps the dict in preorder
    per_node_misses = {}
    cells = len(arena)
    for i, t in enumerate(enabled):
        start = bases[t]
        stop = bases[enabled[i + 1]] if i + 1 < len(enabled) else cells
        filled = stop - start - arena[start:stop].count(EMPTY)
        if filled:
            per_node_misses[t] = filled
    misses = sum(per_node_misses.values())

    if log_domain:
        probability = 0.0 if value == LOG_ZERO else math.exp(value)
        log_value = value
    else:
        probability = value
        log_value = None
    return QueryResult(
        probability=probability,
        rc_calls=1 + 2 * evaluated,
        cache_hits=lookups - misses,
        cache_misses=misses,
        cache_cells=cells,
        kb_enabled=kb is not None,
        kb_skips=skips,
        log_domain=log_domain,
        log_value=log_value,
        per_node_misses=per_node_misses,
    )


def brute_force_probability(
    network: Network,
    evidence: Mapping[int, int],
    max_instantiations: int = 10**7,
) -> float:
    """Probability of evidence by complete enumeration (oracle)."""
    validate_evidence(network, evidence)
    joint_size = math.prod(network.cards)
    if joint_size > max_instantiations:
        raise ValueError(
            f"state space of {joint_size} exceeds the enumeration "
            f"limit of {max_instantiations}"
        )
    free = [v for v in range(network.n) if v not in evidence]
    assign = [0] * network.n
    for var, state in evidence.items():
        assign[var] = state
    cpts = network.cpts
    total = 0.0
    for combo in itertools.product(*(range(network.cards[v]) for v in free)):
        for v, s in zip(free, combo):
            assign[v] = s
        p = 1.0
        for cpt in cpts:
            p *= cpt.prob(assign[cpt.child], [assign[q] for q in cpt.parents])
            if p == 0.0:
                break
        total += p
    return total
