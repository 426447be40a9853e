"""Determinism extraction and unit resolution over multi-valued variables.

Zero/one entries in tabular CPTs compile into clauses over literals
(X = x) and (X != x).  For each parent instantiation u of child C:

  * some state c has Pr(c|u) exactly 1.0  ->  one clause
        (C = c  or  P1 != u1  or ... or  Pk != uk)
  * otherwise, each state c with Pr(c|u) exactly 0.0 yields
        (C != c  or  P1 != u1  or ... or  Pk != uk)

Detection is exact floating-point equality: near-zero entries are
probabilities, not constraints.  Noisy-or CPTs contribute nothing.

Asserting a positive literal fixes a variable; a negative literal
removes a state from its domain.  When all but one literal of a clause
are falsified the survivor is asserted, recursively.  Every state change
lands on a trail, so any prefix can be restored exactly through
checkpoint()/retract_to().  A contradiction leaves the propagated state
in place; the caller rolls back to its checkpoint.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterable

from .model import Network, TabularCpt

__all__ = [
    "Literal",
    "KnowledgeBase",
    "compile_kb",
]


@dataclass(frozen=True)
class Literal:
    var: int
    state: int
    positive: bool


Clause = tuple[Literal, ...]

# trail records: ("fix", var, previous_fixed) | ("remove", var, state)
#              | ("count", clause_index)


class KnowledgeBase:
    """Clause set plus per-variable domain state supporting assert/retract.

    Single-threaded mutable state; one query owns one KB at a time.
    """

    def __init__(self, cards: Iterable[int], clauses: Iterable[Clause] = ()):
        self.cards = tuple(cards)
        self.possible: list[set[int]] = [set(range(c)) for c in self.cards]
        self.fixed: list[int | None] = [None] * len(self.cards)
        self.clauses: list[Clause] = []
        self.counts: list[int] = []
        self.trail: list[tuple] = []
        # occurrence lists: (var, state) -> clause indices holding that literal
        self._pos_occ: dict[tuple[int, int], list[int]] = {}
        self._neg_occ: dict[tuple[int, int], list[int]] = {}
        for clause in clauses:
            self._add_clause(clause)

    # -- construction ------------------------------------------------------

    def _add_clause(self, clause: Clause) -> None:
        clause = tuple(dict.fromkeys(clause))  # drop duplicate literals, keep order
        for lit in clause:
            if not (0 <= lit.var < len(self.cards) and 0 <= lit.state < self.cards[lit.var]):
                raise ValueError(f"literal {lit} out of range")
        idx = len(self.clauses)
        self.clauses.append(clause)
        self.counts.append(0)
        for lit in clause:
            occ = self._pos_occ if lit.positive else self._neg_occ
            occ.setdefault((lit.var, lit.state), []).append(idx)

    @property
    def n_clauses(self) -> int:
        return len(self.clauses)

    @property
    def n_literals(self) -> int:
        return sum(len(c) for c in self.clauses)

    # -- assertion and propagation -----------------------------------------

    def assert_literal(self, literal: Literal) -> bool:
        """Apply a literal and propagate; False means contradiction.

        On contradiction the KB keeps the partially propagated state;
        retract_to() a prior checkpoint to recover.
        """
        if literal.positive:
            return self._fix(literal.var, literal.state)
        return self._remove(literal.var, literal.state)

    def _fix(self, var: int, state: int) -> bool:
        fixed = self.fixed[var]
        if fixed is not None:
            return fixed == state
        if state not in self.possible[var]:
            return False
        self.trail.append(("fix", var, None))
        self.fixed[var] = state
        # removing the other states falsifies their positive literals
        for other in sorted(self.possible[var] - {state}):
            if not self._remove(var, other):
                return False
        for idx in self._neg_occ.get((var, state), ()):
            if not self._bump(idx):
                return False
        return True

    def _remove(self, var: int, state: int) -> bool:
        if self.fixed[var] == state:
            return False
        domain = self.possible[var]
        if state not in domain:
            return True  # already eliminated, nothing to do
        self.trail.append(("remove", var, state))
        domain.discard(state)
        if not domain:
            return False
        for idx in self._pos_occ.get((var, state), ()):
            if not self._bump(idx):
                return False
        if len(domain) == 1 and self.fixed[var] is None:
            return self._fix(var, next(iter(domain)))
        return True

    def _bump(self, idx: int) -> bool:
        """One more falsified literal in clause idx; force or contradict."""
        self.trail.append(("count", idx))
        self.counts[idx] += 1
        clause = self.clauses[idx]
        remaining = len(clause) - self.counts[idx]
        if remaining > 1:
            return True
        if remaining == 0:
            return False
        for lit in clause:
            if not self._is_falsified(lit):
                return self.assert_literal(lit)
        return False  # counter said one literal is open but none found

    def _is_falsified(self, lit: Literal) -> bool:
        if lit.positive:
            return lit.state not in self.possible[lit.var]
        return self.fixed[lit.var] == lit.state

    # -- trail -------------------------------------------------------------

    def checkpoint(self) -> int:
        return len(self.trail)

    def retract_to(self, token: int) -> None:
        """Undo every change after the checkpoint, restoring exact state."""
        if not (0 <= token <= len(self.trail)):
            raise ValueError(f"stale or out-of-order checkpoint token {token}")
        while len(self.trail) > token:
            op = self.trail.pop()
            kind = op[0]
            if kind == "remove":
                self.possible[op[1]].add(op[2])
            elif kind == "fix":
                self.fixed[op[1]] = op[2]
            else:  # count
                self.counts[op[1]] -= 1

    # -- audits --------------------------------------------------------

    def recount(self) -> list[int]:
        """Per-clause falsified-literal counts recomputed from scratch."""
        return [sum(1 for lit in clause if self._is_falsified(lit)) for clause in self.clauses]

    def snapshot(self) -> tuple:
        """Comparable copy of the full domain state (for tests)."""
        return (
            tuple(frozenset(d) for d in self.possible),
            tuple(self.fixed),
            tuple(self.counts),
        )

    def format_clauses(self, network: Network) -> str:
        """One clause per line, literals as name=label / name!=label."""
        lines = []
        for clause in self.clauses:
            parts = []
            for lit in clause:
                var = network.variables[lit.var]
                op = "=" if lit.positive else "!="
                parts.append(f"{var.name}{op}{var.states[lit.state]}")
            lines.append(" ".join(parts))
        return "\n".join(lines)


def _clauses_from_cpt(cpt: TabularCpt) -> Iterable[Clause]:
    card = cpt.child_card
    for row, inst in enumerate(itertools.product(*(range(c) for c in cpt.parent_cards))):
        parent_lits = tuple(
            Literal(p, s, positive=False) for p, s in zip(cpt.parents, inst)
        )
        row_entries = cpt.entries[row * card : (row + 1) * card]
        one_state = next((c for c, p in enumerate(row_entries) if p == 1.0), None)
        if one_state is not None:
            yield (Literal(cpt.child, one_state, positive=True),) + parent_lits
        else:
            for c, p in enumerate(row_entries):
                if p == 0.0:
                    yield (Literal(cpt.child, c, positive=False),) + parent_lits


def compile_kb(network: Network) -> KnowledgeBase:
    """Compile a network's tabular determinism into a propagating KB.

    Duplicate clauses are dropped.  Unit clauses (deterministic roots)
    are propagated immediately; a validated network cannot contradict
    itself here, so a contradiction raises.
    """
    seen: set[frozenset[Literal]] = set()
    clauses: list[Clause] = []
    for cpt in network.cpts:
        if not isinstance(cpt, TabularCpt):
            continue
        for clause in _clauses_from_cpt(cpt):
            key = frozenset(clause)
            if key not in seen:
                seen.add(key)
                clauses.append(clause)
    kb = KnowledgeBase(network.cards, clauses)
    for idx, clause in enumerate(kb.clauses):
        if len(clause) - kb.counts[idx] == 1:
            open_lits = [lit for lit in clause if not kb._is_falsified(lit)]
            if open_lits and not kb.assert_literal(open_lits[0]):
                raise RuntimeError("contradictory knowledge base from a validated network")
    return kb

