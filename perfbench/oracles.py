"""Reference answers computed without rcnet.

Both oracles read the generator's `Model`, never rcnet's parsed network,
and both return the natural log of Pr(e) so that tiny probabilities
stay representable.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

from generators import Model


def ve_log_probability(model: Model, evidence: dict[int, int]) -> float:
    """ln Pr(e) by variable elimination over numpy factors.

    The order is chosen greedily as it goes: next comes the variable
    whose elimination builds the smallest table.  Every new table is
    rescaled to a maximum of 1, its scale kept in log form.
    """
    factors: dict[int, tuple[list[int], np.ndarray]] = {}
    holders: dict[int, set[int]] = {}  # variable -> ids of the factors over it

    ids = itertools.count()

    def add(scope, table):
        fid = next(ids)
        factors[fid] = (scope, table)
        for u in scope:
            holders.setdefault(u, set()).add(fid)

    for v in range(model.n):
        scope = model.parents[v] + (v,)
        index = tuple(evidence.get(u, slice(None)) for u in scope)
        add([u for u in scope if u not in evidence], model.factor(v)[index])

    def joined_scope(u):
        return {w for fid in holders[u] for w in factors[fid][0]}

    def table_size(u):
        return math.prod(model.cards[w] for w in joined_scope(u)), u

    log_scale = 0.0
    while holders:
        var = min(holders, key=table_size)
        joined = sorted(joined_scope(var))
        label = {w: i for i, w in enumerate(joined)}
        operands = []
        for fid in holders[var]:
            scope, table = factors.pop(fid)
            operands += [table, [label[w] for w in scope]]
            for u in scope:
                if u != var:
                    holders[u].discard(fid)
        del holders[var]
        keep = [w for w in joined if w != var]
        table = np.einsum(*operands, [label[w] for w in keep], optimize="greedy")
        peak = float(table.max())
        if peak == 0.0:
            return -math.inf
        log_scale += math.log(peak)
        add(keep, table / peak)
    for _, table in factors.values():  # scopes emptied by evidence: plain numbers
        value = float(table)
        if value == 0.0:
            return -math.inf
        log_scale += math.log(value)
    return log_scale


def _log_add(a: float, b: float) -> float:
    if a < b:
        a, b = b, a
    if b == -math.inf:
        return a
    return a + math.log1p(math.exp(b - a))


def chain_log_probability(model: Model, evidence: dict[int, int]) -> float:
    """ln Pr(e) on a chain X0 -> X1 -> ... by a log-space forward recursion."""
    alpha = [0.0]  # before X0: one empty state with probability 1
    for v in range(model.n):
        table = model.factor(v)
        rows = table.reshape(-1, model.cards[v])
        nxt = []
        for x in range(model.cards[v]):
            if evidence.get(v, x) != x:
                nxt.append(-math.inf)
                continue
            total = -math.inf
            for prev, a in enumerate(alpha):
                p = float(rows[prev, x])
                if p > 0.0:
                    total = _log_add(total, a + math.log(p))
            nxt.append(total)
        alpha = nxt
    total = -math.inf
    for a in alpha:
        total = _log_add(total, a)
    return total
