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
as a sorted tuple, its context as (variable, stride) pairs, and at each
leaf its variable and the (parent, stride) pairs that index its
family's row of the CPT entries directly.  Log-domain leaf tables are
added the first time a log-domain query needs them, and the caches a
cache policy enables (apply_policy over the dead-cache marks) the first
time a query runs under that policy.  Each query builds only what
depends on it: the cache tables, one assignment list and its counters.
A cache table is one array('d') with a cell per instantiation of the
context variables the evidence leaves open, 8 bytes a cell, and +inf
(EMPTY) in the cells not yet filled; a context the evidence fixes has
one cell.  Its (variable, stride) pairs are the plan's up to the first
observed variable and are recomputed past it, in one pass per query.  Leaves and
cache hits are answered in one function and the cutset loop runs in
another; the recursion takes two Python frames per dtree level, and a
deep dtree raises the recursion limit for the query alone.

With a knowledge base attached, the cutset loop becomes an odometer
walk in the same order, in the same Python frame: each open variable's
state is asserted once per instantiation of the open variables before
it, under its own checkpoint, and retracted when the walk moves past
it.  A contradiction proves the branch carries zero probability; a
state the KB's current domain already excludes is not asserted at all.
Either way the walk skips it together with every instantiation of the
variables after it, and counts each of those as a KB skip.  A state the
domain already implies is assigned without an assertion, and so is any
state of a variable no clause mentions, in the walk and in the evidence
alike, so a KB without clauses is never asked.  Only assigned
evidence and cutset values are visible to leaf lookups; KB-implied
values never are, which keeps the unobserved-leaf sum-to-1 shortcut
exact.
"""

from __future__ import annotations

import itertools
import math
import sys
from array import array
from dataclasses import dataclass, field
from typing import Mapping

from .dtree import DtreeNode, DISABLED, LIVE, dtree_stats, iter_nodes, recursion_room
from .kb import KnowledgeBase
from .model import Network, TabularCpt, validate_evidence

LOG_ZERO = float("-inf")
UNASSIGNED = -1

# an unfilled cache cell: node values are at most about 1 (linear) or 0 (log),
# so no value is +inf, and array.count() finds the empty cells exactly
EMPTY = math.inf

# linear answers below this are re-answered in the log domain: node values never
# exceed 1, so rounding in the subnormal range moves any larger answer by at most
# 2**-105 of its value
LINEAR_FLOOR = sys.float_info.min / sys.float_info.epsilon  # 2**-970

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
    """Which caches a query may fill: all live ones, none, or a cell budget."""

    mode: str  # "full" | "none" | "budget"
    max_cells: int | None = None

    @classmethod
    def full(cls) -> "CachePolicy":
        return cls("full")

    @classmethod
    def none(cls) -> "CachePolicy":
        return cls("none")

    @classmethod
    def budget(cls, max_cells: int) -> "CachePolicy":
        if max_cells < 0:
            raise ValueError("cache budget must be non-negative")
        return cls("budget", max_cells)

    @classmethod
    def parse(cls, text: str) -> "CachePolicy":
        if text == "full":
            return cls.full()
        if text == "none":
            return cls.none()
        if text.startswith("budget:"):
            return cls.budget(int(text.split(":", 1)[1]))
        raise ValueError(f"unknown cache policy {text!r} (use full, none, or budget:N)")


@dataclass
class QueryResult:
    probability: float
    rc_calls: int
    cache_hits: int
    cache_misses: int
    entries_written: int
    cache_cells: int  # table cells allocated, 8 bytes each
    kb_enabled: bool = False
    kb_skips: int = 0
    kb_evidence_contradiction: bool = False
    log_domain: bool = False
    log_value: float | None = None  # natural log, kept exact in log-domain runs
    per_node_misses: dict[int, int] = field(default_factory=dict)

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
            },
            "kb": {"enabled": self.kb_enabled, "skips": self.kb_skips},
            "kb_evidence_contradiction": self.kb_evidence_contradiction,
        }


def apply_policy(root: DtreeNode, policy: CachePolicy) -> dict[int, str]:
    """Resolve per-node cache states under a policy; rc_query resolves
    them once per query plan and policy.

    Dead caches stay dead under every policy.  A budget enables live
    candidates in ascending cell-count order (ties by node id) while
    they fit.  The dtree itself is left untouched.
    """
    states = {node.id: node.cache_state for node in iter_nodes(root)}
    live = [node for node in iter_nodes(root) if states[node.id] == LIVE]
    if policy.mode == "full":
        return states
    if policy.mode == "none":
        for node in live:
            states[node.id] = DISABLED
        return states
    if policy.mode != "budget":
        raise ValueError(f"unknown cache policy mode {policy.mode!r}")
    allocated = 0
    for node in sorted(live, key=lambda t: (t.cells, t.id)):
        if allocated + node.cells <= policy.max_cells:
            allocated += node.cells
        else:
            states[node.id] = DISABLED
    return states


def lookup(network: Network, leaf: DtreeNode, assign: list[int],
           log_domain: bool = False) -> float:
    """Leaf value: Pr(x|u) when the leaf variable is assigned, else 1.

    `assign` holds a state per variable id, UNASSIGNED where there is
    none, as in a query.  All parents must be assigned whenever the
    variable is; anything else means the dtree does not cover the family
    and is malformed.
    """
    x = assign[leaf.var]
    if x == UNASSIGNED:
        return 0.0 if log_domain else 1.0
    cpt = network.cpts[leaf.var]
    parent_states = []
    for p in cpt.parents:
        s = assign[p]
        if s == UNASSIGNED:
            raise RuntimeError(
                f"parent {network.variables[p].name!r} unassigned at leaf lookup "
                f"for {network.variables[leaf.var].name!r}; malformed dtree"
            )
        parent_states.append(s)
    p = cpt.prob(x, parent_states)
    if log_domain:
        return math.log(p) if p > 0.0 else LOG_ZERO
    return p


def _context_strides(variables, cards) -> tuple[tuple[int, int], ...]:
    """(var, stride) pairs under the ascending-id, last-fastest convention."""
    strides = []
    stride = 1
    for v in sorted(variables, reverse=True):
        strides.append((v, stride))
        stride *= cards[v]
    return tuple(strides)


class QueryPlan:
    """An annotated dtree lowered for one network into lists indexed by node id.

    Leaves have left == right == -1; internal nodes have leaf_var == -1.
    A tabular leaf reads entries[assign[var] + sum(assign[p] * stride)]
    over its leaf_terms; a noisy-or leaf has no table and asks its CPT.
    Queries never change a plan, except that the first log-domain query
    fills in log_tables and the first query under each cache policy
    records the caches it enables.
    """

    __slots__ = (
        "network", "root", "left", "right", "cutset", "context",
        "leaf_var", "leaf_terms", "tables", "log_tables", "height", "enabled",
    )

    def __init__(self, root: DtreeNode, network: Network):
        nodes = list(iter_nodes(root))
        n = len(nodes)
        cards = network.cards
        self.network = network
        self.root = root.id
        self.left = [-1] * n
        self.right = [-1] * n
        self.cutset: list[tuple[int, ...]] = [()] * n
        self.context: list[tuple[tuple[int, int], ...]] = [()] * n
        self.leaf_var = [-1] * n
        self.leaf_terms: list[tuple[tuple[int, int], ...]] = [()] * n
        self.tables: list[tuple[float, ...] | None] = [None] * n
        self.log_tables: list[tuple[float, ...] | None] | None = None
        # per cache policy, the ids of the nodes whose cache it enables
        self.enabled: dict[CachePolicy, tuple[int, ...]] = {}
        for node in nodes:
            i = node.id
            self.context[i] = _context_strides(node.context, cards)
            if not node.is_leaf:
                self.left[i] = node.left.id
                self.right[i] = node.right.id
                self.cutset[i] = tuple(sorted(node.cutset))
                continue
            cpt = network.cpts[node.var]
            for p in cpt.parents:
                if p not in node.context:
                    raise RuntimeError(
                        f"parent {network.variables[p].name!r} of "
                        f"{network.variables[node.var].name!r} is not in its leaf's "
                        f"context, so it may be unassigned at lookup; malformed dtree"
                    )
            self.leaf_var[i] = node.var
            if isinstance(cpt, TabularCpt):
                terms = []
                stride = cpt.child_card
                for p in reversed(cpt.parents):
                    terms.append((p, stride))
                    stride *= cards[p]
                self.leaf_terms[i] = tuple(terms)
                self.tables[i] = cpt.entries
        self.height = dtree_stats(root).height

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


def _log_sum(terms: list[float]) -> float:
    """Shifted exponent-sum of natural-log terms; empty or all-zero -> LOG_ZERO."""
    finite = [t for t in terms if t != LOG_ZERO]
    if not finite:
        return LOG_ZERO
    m = max(finite)
    return m + math.log(sum(math.exp(t - m) for t in finite))


def _enabled_caches(plan: QueryPlan, root: DtreeNode, policy: CachePolicy) -> tuple[int, ...]:
    """The ids of the nodes whose cache the policy enables, resolved by
    apply_policy on the plan's first query under the policy."""
    enabled = plan.enabled.get(policy)
    if enabled is None:
        states = apply_policy(root, policy)
        enabled = plan.enabled[policy] = tuple(t for t, s in states.items() if s == LIVE)
    return enabled


def _open_caches(plan: QueryPlan, enabled: tuple[int, ...],
                 evidence: list[int]) -> tuple[list[array | None], list]:
    """One table per enabled cache, over the context variables the evidence
    leaves open, and the (variable, stride) pairs that index it.

    A table has a cell per open-context instantiation, all EMPTY; a
    context the evidence fixes entirely gets one cell.  A context with no
    observed variable keeps the plan's pairs, and so does every pair whose
    stride the projection leaves unchanged.
    """
    cards = plan.network.cards
    caches: list[array | None] = [None] * len(plan.left)
    contexts = plan.context  # copied on the first context that changes
    for t in enabled:
        pairs = plan.context[t]
        open_pairs = []
        cells = 1
        for pair in pairs:  # ascending stride
            v = pair[0]
            if evidence[v] < 0:
                open_pairs.append(pair if pair[1] == cells else (v, cells))
                cells *= cards[v]
        if len(open_pairs) < len(pairs):
            if contexts is plan.context:
                contexts = list(contexts)
            contexts[t] = tuple(open_pairs)
        caches[t] = array("d", [EMPTY]) * cells
    return caches, contexts


def _run_plan(plan: QueryPlan, caches: list, contexts: list, assign: list[int],
              kb: KnowledgeBase | None, log_domain: bool) -> tuple[float, int, int, int]:
    """Value of the plan's root under `assign`, with the hits, the cutset
    instantiations evaluated and the KB skips.  A cached node t keys its
    table by contexts[t].  `assign` is back to its entry state on return."""
    left, right, cutset = plan.left, plan.right, plan.cutset
    leaf_var, leaf_terms = plan.leaf_var, plan.leaf_terms
    tables = plan.log_domain_tables() if log_domain else plan.tables
    cpts = plan.network.cpts
    states = [range(c) for c in plan.network.cards]
    walk = None if kb is None else (
        kb.cards, kb.domain, kb.mentioned, kb.positive,
        kb.checkpoint, kb.assert_literal, kb.retract_to,
    )
    one = 0.0 if log_domain else 1.0
    empty = EMPTY
    hits = evaluated = skips = 0

    def value(t: int) -> float:
        nonlocal hits
        var = leaf_var[t]
        if var >= 0:
            x = assign[var]
            if x < 0:
                return one
            table = tables[t]
            if table is None:
                cpt = cpts[var]
                p = cpt.prob(x, [assign[q] for q in cpt.parents])
                if log_domain:
                    return math.log(p) if p > 0.0 else LOG_ZERO
                return p
            for q, stride in leaf_terms[t]:
                x += assign[q] * stride
            return table[x]
        cache = caches[t]
        if cache is None:
            return expand(t)
        key = 0
        for v, stride in contexts[t]:
            key += assign[v] * stride
        result = cache[key]
        if result == empty:
            result = cache[key] = expand(t)
        else:
            hits += 1
        return result

    def expand(t: int) -> float:
        nonlocal evaluated, skips
        l, r = left[t], right[t]
        open_vars = [v for v in cutset[t] if assign[v] < 0]
        if not open_vars:
            evaluated += 1
            return value(l) + value(r) if log_domain else value(l) * value(r)
        terms: list[float] = []
        total = 0.0
        if walk is None:
            # the last open variable varies fastest, in the innermost loop
            *outer, last = open_vars
            for prefix in itertools.product(*[states[v] for v in outer]):
                for v, s in zip(outer, prefix):
                    assign[v] = s
                for s in states[last]:
                    assign[last] = s
                    evaluated += 1
                    if log_domain:
                        terms.append(value(l) + value(r))
                    else:
                        total += value(l) * value(r)
            for v in open_vars:
                assign[v] = UNASSIGNED
            return _log_sum(terms) if log_domain else total
        # An odometer over the same order: level i holds open_vars[i] and,
        # while a state of it is assigned, the checkpoint from which that
        # state was asserted (-1 when nothing was asserted).  A state the
        # KB's domain excludes is skipped along with every instantiation of
        # the levels below it; a state the domain implies, or any state of a
        # variable no clause mentions, is assigned without asking the KB.
        cards, domain, mentioned, positive, checkpoint, assert_literal, retract_to = walk
        k = len(open_vars)
        below = [1] * k  # instantiations of the levels under each level
        for i in range(k - 1, 0, -1):
            below[i - 1] = below[i] * cards[open_vars[i]]
        tokens = [-1] * k
        i = s = 0
        while True:
            v = open_vars[i]
            if s == cards[v]:
                assign[v] = UNASSIGNED
                if i == 0:
                    break
                i -= 1
                if tokens[i] >= 0:
                    retract_to(tokens[i])
                s = assign[open_vars[i]] + 1
                continue
            token = -1
            if mentioned[v]:
                bit = 1 << s
                d = domain[v]
                if not d & bit:
                    skips += below[i]
                    s += 1
                    continue
                if d != bit:
                    token = checkpoint()
                    if not assert_literal(positive[v][s]):
                        retract_to(token)
                        skips += below[i]
                        s += 1
                        continue
            assign[v] = s
            if i < k - 1:
                tokens[i] = token
                i += 1
                s = 0
                continue
            evaluated += 1
            if log_domain:
                terms.append(value(l) + value(r))
            else:
                total += value(l) * value(r)
            if token >= 0:
                retract_to(token)
            s += 1
        return _log_sum(terms) if log_domain else total

    try:
        return value(plan.root), hits, evaluated, skips
    finally:
        value = expand = None  # the two closures refer to each other: break the cycle


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
    restored to its entry state before returning.  A linear answer below
    LINEAR_FLOOR, zero included, that the KB has not refuted is answered
    again in the log domain, and that result is returned.
    """
    validate_evidence(network, evidence)
    plan = _plan_for(root, network)
    expected = [UNASSIGNED] * network.n
    for var, state in evidence.items():
        expected[var] = state
    assign = list(expected)

    kb_token = kb.checkpoint() if kb is not None else None
    # value() and expand() take two frames per dtree level
    with recursion_room(2 * plan.height):
        try:
            if kb is not None:
                for var, state in sorted(evidence.items()):
                    if kb.mentioned[var] and not kb.assert_literal(kb.positive[var][state]):
                        return QueryResult(
                            probability=0.0,
                            rc_calls=0,
                            cache_hits=0,
                            cache_misses=0,
                            entries_written=0,
                            cache_cells=0,
                            kb_enabled=True,
                            kb_skips=0,
                            kb_evidence_contradiction=True,
                            log_domain=log_domain,
                            log_value=LOG_ZERO if log_domain else None,
                        )
            enabled = _enabled_caches(plan, root, policy or CachePolicy.full())
            caches, contexts = _open_caches(plan, enabled, expected)
            value, hits, evaluated, skips = _run_plan(
                plan, caches, contexts, assign, kb, log_domain)
        finally:
            if kb_token is not None:
                kb.retract_to(kb_token)

    if assign != expected:
        var = next(v for v in range(network.n) if assign[v] != expected[v])
        raise RuntimeError(f"query leaked an assignment on variable {var}")
    if not log_domain and value < LINEAR_FLOOR:
        return rc_query(network, root, evidence, policy, kb, log_domain=True)

    # every miss fills exactly one cell
    per_node_misses = {}
    cells = 0
    for node_id, cache in enumerate(caches):
        if cache is not None:
            cells += len(cache)
            filled = len(cache) - cache.count(EMPTY)
            if filled:
                per_node_misses[node_id] = filled
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
        cache_hits=hits,
        cache_misses=misses,
        entries_written=misses,
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
