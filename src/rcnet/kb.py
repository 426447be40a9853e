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
literal is only ever an int code, 2 * (offset[X] + x) + negative, where
offset[X] is the sum of the cardinalities of the variables before X:
clauses are given and kept as codes, assert_literal takes one, and
format_clauses decodes them for printing.  Each code has its variable
and the mask of the states it allows: bit x for (X = x), every other
state's bit for (X != x).  Against its variable's domain d, a literal
with mask m is falsified when d & m is 0, satisfied when d & ~m is 0,
and asserted by d &= m, whatever its sign.  The mask of the states a
literal excludes is its negation's mask, kept per code as well, so the
satisfied test complements nothing.

Propagation uses two watched literals per clause (Moskewicz et al.,
"Chaff", DAC 2001).  A clause is looked at only when one of its two
watches is falsified: it then watches another literal that is not
falsified, or, when none is left, asserts its other watch, or reports a
contradiction when that one is falsified too.  A clause's literals are
one list whose positions 0 and 1 are its watches, and each literal's
watch list holds those lists themselves, so a visit reads the clause
without an index.  One loop in assert_literal does all of it: it assigns
each implied literal inline and pushes the watched literals that the
change falsifies on a local stack, so a long chain of implications costs
neither a Python call per implication nor Python recursion.  The (X = s)
literals a change falsifies are read from a table with one tuple per
mask of states below 8, or below the KB's largest cardinality when that
is less; a wider variable's removed states are read a byte at a time, so
no table grows past 256 entries.  Unit clauses go through the same loop
when the KB is built; that state is the base a checkpoint can never go
below.

The trail records only domain changes (variable, previous domain).
Watches need no undo: a watch moves only to a literal that is not
falsified, and retracting only unfalsifies literals.  checkpoint() /
retract_to() restore any prefix of the trail exactly.  A contradiction
leaves the partly propagated state in place; the caller must roll back
to its checkpoint before asserting anything else.
"""

from __future__ import annotations

import functools
import itertools
from typing import Iterable

from .model import Network, TabularCpt

__all__ = [
    "KnowledgeBase",
    "compile_kb",
]


class KnowledgeBase:
    """Clause set plus per-variable domain state supporting assert/retract.

    Single-threaded mutable state; one query owns one KB at a time.
    A clause is a sequence of literal codes, and `clauses` holds each as
    a tuple with its repeated codes dropped.  `domain[v]` is variable v's
    bitmask of possible states, `mentioned[v]` tells whether any clause
    has a literal on v, and `positive[v][s]` is the code of (v = s).
    Per clause, `_lits` holds the list of its literals that can hold,
    watched at positions 0 and 1; `_watches[code]` holds those same
    lists, one for each clause that watches the literal.
    Building a KB from an empty clause, a code out of range, or unit
    clauses that propagate to a contradiction raises ValueError.
    """

    def __init__(self, cards: Iterable[int], clauses: Iterable[Iterable[int]] = ()):
        self.cards = tuple(cards)
        self.domain = [(1 << c) - 1 for c in self.cards]
        self.mentioned = [False] * len(self.cards)
        bases = self._base = _code_bases(self.cards)  # per variable X, the code of (X = 0)
        self.positive = [range(bases[v], bases[v + 1], 2) for v in range(len(self.cards))]
        # per literal code: its variable, and the mask of the states it allows
        self._lit_var = [v for v, c in enumerate(self.cards) for _ in range(2 * c)]
        masks = {c: [mask for s in range(c) for mask in (1 << s, ((1 << c) - 1) ^ (1 << s))]
                 for c in set(self.cards)}
        self._lit_allowed = list(itertools.chain.from_iterable(map(masks.__getitem__, self.cards)))
        # per code, the mask of the states it excludes, which its negation
        # allows: the literal is satisfied when the domain holds none of them
        self._lit_excluded = [self._lit_allowed[code ^ 1] for code in range(len(self._lit_var))]
        # per mask of removed states below 256, the offsets of the (X = s)
        # codes that falsifies
        self._offsets = _offset_table(min(max(self.cards, default=0), 8))
        # per code, the literal lists of the clauses that watch it
        self._watches: list[list[list[int]]] = [[] for _ in self._lit_var]
        self._trail_var: list[int] = []
        self._trail_old: list[int] = []
        self.clauses: list[tuple[int, ...]] = []
        # per clause, the codes of its literals that are not false from the
        # start, (X != 0) on a cardinality-1 X being one; positions 0 and 1
        # are watched
        self._lits: list[list[int]] = []
        lit_var, allowed, watches = self._lit_var, self._lit_allowed, self._watches
        units = []
        for clause in clauses:
            codes = tuple(dict.fromkeys(clause))
            if not codes:
                raise ValueError("empty clause")
            if min(codes) < 0 or max(codes) >= len(lit_var):
                raise ValueError(f"literal code out of range in clause {codes}")
            lits = [c for c in codes if allowed[c]]
            if len(lits) > 1:
                watches[lits[0]].append(lits)
                watches[lits[1]].append(lits)
            elif not lits:
                raise ValueError("contradictory clause set")
            else:
                units.append(lits[0])
            self.clauses.append(codes)
            self._lits.append(lits)
        for v in {lit_var[c] for codes in self.clauses for c in codes}:
            self.mentioned[v] = True
        for code in units:
            if not self.assert_literal(code):
                raise ValueError("contradictory clause set")
        self._trail_var.clear()
        self._trail_old.clear()

    @property
    def n_clauses(self) -> int:
        return len(self.clauses)

    @property
    def n_literals(self) -> int:
        return sum(len(c) for c in self.clauses)

    # -- literal status ------------------------------------------------------

    def _falsified(self, lit: int) -> bool:
        return not self.domain[self._lit_var[lit]] & self._lit_allowed[lit]

    def _satisfied(self, lit: int) -> bool:
        return not self.domain[self._lit_var[lit]] & self._lit_excluded[lit]

    # -- assertion and propagation -----------------------------------------

    def assert_literal(self, code: int) -> bool:
        """Apply the literal with this code and propagate; False means
        contradiction.

        On contradiction the KB keeps the partially propagated state;
        retract_to() a prior checkpoint to recover.
        """
        domain, lit_var, allowed, excluded = (
            self.domain, self._lit_var, self._lit_allowed, self._lit_excluded)
        watches, bases, offsets = self._watches, self._base, self._offsets
        trail_var, trail_old = self._trail_var, self._trail_old
        stack = []  # watched literals falsified, whose clauses are not yet visited
        watching: list[list[int]] = []  # the clauses watching lit, visited from i up to end
        lit = i = end = 0
        while True:
            # assign code: the asserted literal first, then each implied one
            var = lit_var[code]
            old = domain[var]
            new = old & allowed[code]
            if new != old:
                if not new:
                    return False
                trail_var.append(var)
                trail_old.append(old)
                domain[var] = new
                base = bases[var]
                removed = old ^ new  # (X = s) is falsified for every state s that left
                for falsified in (offsets[removed] if removed < 256
                                  else _wide_offsets(removed)):
                    falsified += base
                    if watches[falsified]:
                        stack.append(falsified)
                if not new & (new - 1):  # a single state is left: (X != s) is falsified
                    falsified = base + 2 * new.bit_length() - 1
                    if watches[falsified]:
                        stack.append(falsified)
            # visit watching clauses until one implies a literal
            while True:
                if i == end:
                    if not stack:
                        return True
                    lit = stack.pop()
                    watching = watches[lit]
                    i, end = 0, len(watching)
                    continue
                codes = watching[i]
                other = codes[0]
                if other == lit:
                    other = codes[0] = codes[1]
                    codes[1] = lit
                if not domain[lit_var[other]] & excluded[other]:
                    i += 1  # the other watch is satisfied
                    continue
                for j in range(2, len(codes)):
                    candidate = codes[j]
                    if domain[lit_var[candidate]] & allowed[candidate]:
                        codes[1] = candidate  # not falsified: watch it instead
                        codes[j] = lit
                        watches[candidate].append(codes)
                        end -= 1
                        watching[i] = watching[end]
                        watching.pop()
                        break
                else:
                    i += 1
                    code = other  # the clause is unit on other
                    break

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

    # -- audits ----------------------------------------------------------

    def audit(self) -> list[str]:
        """Watch invariants checked from scratch; empty when they hold.

        Every clause of two or more literals watches two distinct
        literals of its own (its list is in the watch lists of exactly
        those two), every list in a watch list is a clause's, a falsified
        watch has a satisfied partner, no clause is falsified, and a
        clause with one literal left that is not falsified has that
        literal asserted.  Call it outside a contradiction.
        """
        problems = []
        clause_of = {id(codes): idx for idx, codes in enumerate(self._lits)}
        watched = {}
        for lit, watching in enumerate(self._watches):
            for codes in watching:
                watched.setdefault(clause_of.get(id(codes)), []).append(lit)
        if None in watched:
            problems.append(f"literals {watched.pop(None)} watch a list of no clause")
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
        for codes in self.clauses:
            parts = []
            for code in codes:
                v = self._lit_var[code]
                var = network.variables[v]
                op = "!=" if code & 1 else "="
                parts.append(f"{var.name}{op}{var.states[(code - self._base[v]) >> 1]}")
            lines.append(" ".join(parts))
        return "\n".join(lines)


@functools.cache
def _offset_table(width: int) -> tuple[tuple[int, ...], ...]:
    """Per mask of states below `width`, at most 8, the offsets from the
    code of (X = 0) of the codes (X = s) of its states s, 2 * s each.  A
    wider mask is read a byte at a time (_wide_offsets), so no table grows
    with a variable's cardinality; one table per width serves every KB."""
    return tuple(tuple(2 * s for s in range(width) if mask >> s & 1) for mask in range(1 << width))


def _wide_offsets(mask: int) -> list[int]:
    """The offsets of the codes (X = s) of a mask with a state of 8 or more."""
    offsets = []
    shift = 0
    while mask:
        offsets += [shift + offset for offset in _offset_table(8)[mask & 255]]
        mask >>= 8
        shift += 16
    return offsets


def _code_bases(cards: Iterable[int]) -> list[int]:
    """Per variable X, the code of (X = 0), 2 * offset[X]; last, the number
    of codes."""
    return list(itertools.accumulate((2 * card for card in cards), initial=0))


def _clauses_from_cpt(cpt: TabularCpt, bases: list[int]) -> Iterable[tuple[int, ...]]:
    """The CPT's clauses, as codes."""
    card, entries, base = cpt.child_card, cpt.entries, bases[cpt.child]
    # rows run over the parents' instantiations in product order, so each
    # row's parent literals are one tuple of the product of the parents'
    # negative codes
    negatives = [range(bases[p] + 1, bases[p + 1], 2) for p in cpt.parents]
    for row, parent_codes in enumerate(itertools.product(*negatives)):
        row_entries = entries[row * card : (row + 1) * card]
        if 1.0 in row_entries:
            yield (base + 2 * row_entries.index(1.0),) + parent_codes
        elif 0.0 in row_entries:
            for c, p in enumerate(row_entries):
                if p == 0.0:
                    yield (base + 2 * c + 1,) + parent_codes


def compile_kb(network: Network) -> KnowledgeBase:
    """Compile a network's tabular determinism into a propagating KB.

    No clause repeats: two rows of one CPT differ on a parent literal,
    and two CPTs' clauses differ on the child's literal, which a clause
    of the other CPT could only hold if the network had a cycle.  Unit
    clauses (deterministic roots) propagate as the KB is built; a
    validated network cannot contradict itself there.
    """
    bases = _code_bases(network.cards)
    return KnowledgeBase(network.cards, itertools.chain.from_iterable(
        _clauses_from_cpt(cpt, bases) for cpt in network.cpts if isinstance(cpt, TabularCpt)))
