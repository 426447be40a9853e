"""Determinism extraction and unit resolution over multi-valued variables.

Zero/one entries in tabular CPTs compile into clauses over literals
(X = x) and (X != x).  For each parent instantiation u of child C:

  * some state c has Pr(c|u) exactly 1.0  ->  one clause
        (C = c  or  P1 != u1  or ... or  Pk != uk)
  * otherwise, each state c with Pr(c|u) exactly 0.0 yields
        (C != c  or  P1 != u1  or ... or  Pk != uk)

Detection is exact floating-point equality: near-zero entries are
probabilities, not constraints.  Noisy-or CPTs contribute nothing.

Each variable's domain is an int bitmask of its possible states.  A
positive literal (X = x) is falsified once bit x leaves the domain; a
negative literal (X != x) once the domain is exactly bit x.  Internally
a literal is the int 2 * (offset[X] + x) + negative.

Propagation uses two watched literals per clause (Moskewicz et al.,
"Chaff", DAC 2001).  A clause is looked at only when one of its two
watches is falsified: it then watches another literal that is not
falsified, or, when none is left, asserts its other watch, or reports a
contradiction when that one is falsified too.  Falsified literals wait
in an explicit queue, so a long chain of implications costs no Python
recursion.  Unit clauses propagate when the KB is built; that state is
the base a checkpoint can never go below.

The trail records only domain changes (variable, previous domain).
Watches need no undo: a watch moves only to a literal that is not
falsified, and retracting only unfalsifies literals.  checkpoint() /
retract_to() restore any prefix of the trail exactly.  A contradiction
leaves the partly propagated state in place; the caller must roll back
to its checkpoint before asserting anything else.
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


class KnowledgeBase:
    """Clause set plus per-variable domain state supporting assert/retract.

    Single-threaded mutable state; one query owns one KB at a time.
    `domain[v]` is variable v's bitmask of possible states,
    `mentioned[v]` tells whether any clause has a literal on v, and
    `positive[v][s]` is the literal (v = s).  Building a KB whose unit
    clauses propagate to a contradiction raises ValueError.
    """

    def __init__(self, cards: Iterable[int], clauses: Iterable[Clause] = ()):
        self.cards = tuple(cards)
        self.domain = [(1 << c) - 1 for c in self.cards]
        self.mentioned = [False] * len(self.cards)
        self.positive = [[Literal(v, s, True) for s in range(c)]
                         for v, c in enumerate(self.cards)]
        self._offset = list(itertools.accumulate(self.cards, initial=0))
        # per (var, state) slot, i.e. literal >> 1: its variable and state bit
        self._slot_var = [v for v, c in enumerate(self.cards) for _ in range(c)]
        self._slot_bit = [1 << s for c in self.cards for s in range(c)]
        self.clauses: list[Clause] = []
        self._lits: list[list[int]] = []  # per clause; positions 0 and 1 are watched
        self._watches: list[list[int]] = [[] for _ in range(2 * self._offset[-1])]
        self._queue: list[int] = []  # falsified literals whose watches are not yet visited
        self._trail_var: list[int] = []
        self._trail_old: list[int] = []
        units = []
        for clause in clauses:
            if self._add_clause(clause):
                units.append(self._lits[-1][0])
        for lit in units:
            if not (self._assign(lit) and self._propagate()):
                raise ValueError("contradictory clause set")
        self._trail_var.clear()
        self._trail_old.clear()

    # -- construction ------------------------------------------------------

    def _add_clause(self, clause: Clause) -> bool:
        """Store a clause and watch two of its literals; True when it is unit."""
        cards, offset, mentioned = self.cards, self._offset, self.mentioned
        kept = []  # the clause's literals, repeats dropped in order
        codes = []  # their codes, those not falsified from the start first
        falsified = []  # (X != 0) on a cardinality-1 X: false from the start
        for lit in clause:
            var, state = lit.var, lit.state
            if not (0 <= var < len(cards) and 0 <= state < cards[var]):
                raise ValueError(f"literal {lit} out of range")
            mentioned[var] = True
            code = 2 * (offset[var] + state) + (not lit.positive)
            if code in codes or code in falsified:
                continue
            kept.append(lit)
            if cards[var] == 1 and not lit.positive:
                falsified.append(code)
            else:
                codes.append(code)
        if not kept:
            raise ValueError("empty clause")
        idx = len(self.clauses)
        self.clauses.append(tuple(kept))
        unit = len(codes) < 2
        codes += falsified
        self._lits.append(codes)
        if len(codes) == 1:
            return True
        self._watches[codes[0]].append(idx)
        self._watches[codes[1]].append(idx)
        return unit

    @property
    def n_clauses(self) -> int:
        return len(self.clauses)

    @property
    def n_literals(self) -> int:
        return sum(len(c) for c in self.clauses)

    # -- literal status ------------------------------------------------------

    def _falsified(self, lit: int) -> bool:
        slot = lit >> 1
        domain = self.domain[self._slot_var[slot]]
        if lit & 1:
            return domain == self._slot_bit[slot]
        return not domain & self._slot_bit[slot]

    def _satisfied(self, lit: int) -> bool:
        slot = lit >> 1
        domain = self.domain[self._slot_var[slot]]
        if lit & 1:
            return not domain & self._slot_bit[slot]
        return domain == self._slot_bit[slot]

    # -- assertion and propagation -----------------------------------------

    def assert_literal(self, literal: Literal) -> bool:
        """Apply a literal and propagate; False means contradiction.

        On contradiction the KB keeps the partially propagated state;
        retract_to() a prior checkpoint to recover.
        """
        code = 2 * (self._offset[literal.var] + literal.state) + (not literal.positive)
        return self._assign(code) and self._propagate()

    def _assign(self, lit: int) -> bool:
        """Make a literal true in its variable's domain and queue the
        watched literals that this falsifies; False when the domain empties."""
        slot = lit >> 1
        var = self._slot_var[slot]
        bit = self._slot_bit[slot]
        old = self.domain[var]
        new = old & ~bit if lit & 1 else old & bit
        if new == old:
            return True
        if not new:
            self._queue.clear()
            return False
        self._trail_var.append(var)
        self._trail_old.append(old)
        self.domain[var] = new
        queue, watches = self._queue, self._watches
        base = 2 * self._offset[var]
        removed = old ^ new
        while removed:  # (X = s) is falsified for every state s that left
            low = removed & -removed
            removed ^= low
            code = base + 2 * low.bit_length() - 2
            if watches[code]:
                queue.append(code)
        if not new & (new - 1):  # a single state is left: (X != s) is falsified
            code = base + 2 * new.bit_length() - 1
            if watches[code]:
                queue.append(code)
        return True

    def _propagate(self) -> bool:
        """Visit the clauses watching each queued literal until the queue
        is empty; False on a contradiction."""
        queue, watches, lits = self._queue, self._watches, self._lits
        domain, slot_var, slot_bit = self.domain, self._slot_var, self._slot_bit
        while queue:
            lit = queue.pop()
            watching = watches[lit]
            i = 0
            while i < len(watching):
                idx = watching[i]
                codes = lits[idx]
                other = codes[0]
                if other == lit:
                    other = codes[0] = codes[1]
                    codes[1] = lit
                slot = other >> 1
                d = domain[slot_var[slot]]
                if (d & slot_bit[slot] == 0) if other & 1 else (d == slot_bit[slot]):
                    i += 1  # the other watch is satisfied
                    continue
                for j in range(2, len(codes)):
                    candidate = codes[j]
                    slot = candidate >> 1
                    d = domain[slot_var[slot]]
                    if (d != slot_bit[slot]) if candidate & 1 else (d & slot_bit[slot]):
                        codes[1] = candidate  # not falsified: watch it instead
                        codes[j] = lit
                        watches[candidate].append(idx)
                        watching[i] = watching[-1]
                        watching.pop()
                        break
                else:
                    if not self._assign(other):
                        return False
                    i += 1
        return True

    # -- trail -------------------------------------------------------------

    def checkpoint(self) -> int:
        return len(self._trail_var)

    def retract_to(self, token: int) -> None:
        """Undo every domain change after the checkpoint, restoring exact state."""
        trail_var, trail_old = self._trail_var, self._trail_old
        if not (0 <= token <= len(trail_var)):
            raise ValueError(f"stale or out-of-order checkpoint token {token}")
        domain = self.domain
        while len(trail_var) > token:
            domain[trail_var.pop()] = trail_old.pop()

    # -- views and audits ------------------------------------------------

    @property
    def possible(self) -> list[set[int]]:
        """Each variable's possible states, as sets."""
        return [{s for s in range(c) if d >> s & 1} for d, c in zip(self.domain, self.cards)]

    @property
    def fixed(self) -> list[int | None]:
        """Each variable's state when its domain is a single one, else None."""
        return [d.bit_length() - 1 if d and not d & (d - 1) else None for d in self.domain]

    def snapshot(self) -> tuple:
        """Comparable copy of the full domain state (for tests)."""
        return tuple(frozenset(d) for d in self.possible), tuple(self.fixed)

    def audit(self) -> list[str]:
        """Watch invariants checked from scratch; empty when they hold.

        Every clause of two or more literals watches two distinct
        literals of its own, a falsified watch has a satisfied partner,
        no clause is falsified, and a clause with one literal left that
        is not falsified has that literal asserted.  Call it outside a
        contradiction.
        """
        problems = []
        watched = {}
        for lit, clause_ids in enumerate(self._watches):
            for idx in clause_ids:
                watched.setdefault(idx, []).append(lit)
        for idx, codes in enumerate(self._lits):
            if len(codes) >= 2:
                pair = sorted(codes[:2])
                if pair[0] == pair[1] or sorted(watched.get(idx, [])) != pair:
                    problems.append(f"clause {idx} watches {watched.get(idx)}, not {pair}")
                for a, b in (codes[:2], codes[1::-1]):
                    if self._falsified(a) and not self._satisfied(b):
                        problems.append(f"clause {idx}: falsified watch {a}, open partner {b}")
            elif idx in watched:
                problems.append(f"unit clause {idx} is watched")
            open_lits = [lit for lit in codes if not self._falsified(lit)]
            if not open_lits:
                problems.append(f"clause {idx} is falsified")
            elif len(open_lits) == 1 and not self._satisfied(open_lits[0]):
                problems.append(f"clause {idx} leaves its last literal unasserted")
        return problems

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


def _clauses_from_cpt(cpt: TabularCpt, literals) -> Iterable[Clause]:
    card, entries, child = cpt.child_card, cpt.entries, literals[cpt.child]
    # rows run over the parents' instantiations in product order, so each
    # row's parent literals are one tuple of the product of the parents'
    # negative literals
    negatives = [[states[False] for states in literals[p]] for p in cpt.parents]
    for row, parent_lits in enumerate(itertools.product(*negatives)):
        row_entries = entries[row * card : (row + 1) * card]
        if 1.0 in row_entries:
            yield (child[row_entries.index(1.0)][True],) + parent_lits
        elif 0.0 in row_entries:
            for c, p in enumerate(row_entries):
                if p == 0.0:
                    yield (child[c][False],) + parent_lits


def compile_kb(network: Network) -> KnowledgeBase:
    """Compile a network's tabular determinism into a propagating KB.

    No clause repeats: two rows of one CPT differ on a parent literal,
    and two CPTs' clauses differ on the child's literal, which a clause
    of the other CPT could only hold if the network had a cycle.  Unit
    clauses (deterministic roots) propagate as the KB is built; a
    validated network cannot contradict itself there.
    """
    # one Literal object per (var, state, sign), shared by every clause
    literals = [[(Literal(v, s, False), Literal(v, s, True)) for s in range(card)]
                for v, card in enumerate(network.cards)]
    clauses: list[Clause] = []
    for cpt in network.cpts:
        if isinstance(cpt, TabularCpt):
            clauses.extend(_clauses_from_cpt(cpt, literals))
    return KnowledgeBase(network.cards, clauses)
