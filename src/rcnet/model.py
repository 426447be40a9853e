"""Discrete Bayesian-network model: variables, CPTs, and the JSON file formats.

A network document is a JSON object with two arrays:

    {"variables": [{"name": "A", "states": ["1", "2"]}, ...],
     "cpts": [{"child": "C", "parents": ["A", "B"], "kind": "table",
               "table": [1, 0, 0,  0, 1, 0,  0.2, 0.8, 0,  0.7, 0.3, 0]},
              {"child": "Y", "parents": ["X1", "X2"], "kind": "noisy_or",
               "trigger": ["2", "2"], "inhibitor": [0.4, 0.5], "leak": 0.0}]}

Table layout: for parents [P1..Pk] the parent instantiations run in
mixed-radix order with Pk varying fastest; within each parent
instantiation the child states are contiguous, in declared state order.

An evidence document maps variable names to state labels:
{"C": "3", "A": "1"}.

Variable ids are dense integers assigned in document order.  All indexing
over *sets* of variables elsewhere in the package (cache keys, cutset
enumeration) uses ids ascending with the last variable varying fastest.
"""

from __future__ import annotations

import itertools
import json
import math
from dataclasses import dataclass
from typing import Mapping, Sequence

ROW_SUM_TOL = 1e-9

__all__ = [
    "ROW_SUM_TOL",
    "NetworkFormatError",
    "Variable",
    "TabularCpt",
    "NoisyOrCpt",
    "Network",
    "parse_network",
    "serialize_network",
    "parse_evidence",
    "validate_evidence",
    "expand_to_table",
]


class NetworkFormatError(ValueError):
    """A network or evidence document failed validation."""


@dataclass(frozen=True)
class Variable:
    id: int
    name: str
    states: tuple[str, ...]

    @property
    def cardinality(self) -> int:
        return len(self.states)


@dataclass(frozen=True)
class TabularCpt:
    """Dense conditional probability table for one child variable."""

    child: int
    parents: tuple[int, ...]
    entries: tuple[float, ...]
    child_card: int
    parent_cards: tuple[int, ...]

    def row_of(self, parent_states: Sequence[int]) -> int:
        idx = 0
        for card, state in zip(self.parent_cards, parent_states):
            idx = idx * card + state
        return idx

    def prob(self, child_state: int, parent_states: Sequence[int]) -> float:
        return self.entries[self.row_of(parent_states) * self.child_card + child_state]


@dataclass(frozen=True)
class NoisyOrCpt:
    """Factored CPT for a binary child: state 0 is 'effect absent'.

    Each parent whose value equals its trigger state independently fails
    to produce the effect with its inhibitor probability; the leak is the
    probability of the effect with no triggered parent.  Storage is one
    (trigger, inhibitor) pair per parent, never the expanded table.
    """

    child: int
    parents: tuple[int, ...]
    trigger: tuple[int, ...]
    inhibitor: tuple[float, ...]
    leak: float

    def prob(self, child_state: int, parent_states: Sequence[int]) -> float:
        p_off = 1.0 - self.leak
        for t, q, s in zip(self.trigger, self.inhibitor, parent_states):
            if s == t:
                p_off *= q
        return p_off if child_state == 0 else 1.0 - p_off


Cpt = TabularCpt | NoisyOrCpt


class Network:
    """Immutable network: variables plus exactly one CPT per variable.

    Construction does not validate; use parse_network for checked input.
    Safe to share across threads once built.
    """

    def __init__(self, variables: Sequence[Variable], cpts: Sequence[Cpt]):
        self.variables: tuple[Variable, ...] = tuple(variables)
        self.cpts: tuple[Cpt, ...] = tuple(cpts)
        self.cards: tuple[int, ...] = tuple(v.cardinality for v in self.variables)
        self.n: int = len(self.variables)
        self._by_name: dict[str, int] = {v.name: v.id for v in self.variables}

    def var_id(self, name: str) -> int:
        try:
            return self._by_name[name]
        except KeyError:
            raise NetworkFormatError(f"unknown variable {name!r}") from None

    def family(self, var: int) -> tuple[int, ...]:
        return (var,) + self.cpts[var].parents

    def cpt_prob(
        self,
        child: int,
        child_state: int,
        parent_inst: Mapping[int, int] | Sequence[int],
    ) -> float:
        """Pr(child=child_state | parents), parents given as a full
        instantiation (id->state map, or states in declared parent order)."""
        cpt = self.cpts[child]
        if isinstance(parent_inst, Mapping):
            try:
                states = tuple(parent_inst[p] for p in cpt.parents)
            except KeyError as exc:
                raise ValueError(
                    f"missing parent assignment for variable {exc.args[0]}"
                ) from None
        else:
            states = tuple(parent_inst)
            if len(states) != len(cpt.parents):
                raise ValueError(
                    f"expected {len(cpt.parents)} parent states, got {len(states)}"
                )
        return cpt.prob(child_state, states)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Network)
            and self.variables == other.variables
            and self.cpts == other.cpts
        )

    def __repr__(self) -> str:
        return f"Network({self.n} variables)"


def _parse_variables(doc: dict) -> list[Variable]:
    raw = doc.get("variables")
    if not (isinstance(raw, list) and raw):
        raise NetworkFormatError("document must declare a non-empty 'variables' list")
    variables = []
    seen = set()
    for i, entry in enumerate(raw):
        if not isinstance(entry, dict):
            raise NetworkFormatError(f"variable #{i} is not an object")
        name = entry.get("name")
        if not (isinstance(name, str) and name):
            raise NetworkFormatError(f"variable #{i} needs a non-empty name")
        if name in seen:
            raise NetworkFormatError(f"duplicate variable name {name!r}")
        seen.add(name)
        states = entry.get("states")
        if not (isinstance(states, list) and states and all(isinstance(s, str) for s in states)):
            raise NetworkFormatError(f"variable {name!r} needs a non-empty list of state labels")
        if len(set(states)) != len(states):
            raise NetworkFormatError(f"variable {name!r} has duplicate state labels")
        variables.append(Variable(id=i, name=name, states=tuple(states)))
    return variables


def _parse_table_cpt(entry: dict, child: Variable, parents: list[Variable]) -> TabularCpt:
    table = entry.get("table")
    if not isinstance(table, list):
        raise NetworkFormatError(f"CPT for {child.name!r}: 'table' must be a list")
    n_rows = math.prod(p.cardinality for p in parents)
    expected = n_rows * child.cardinality
    if len(table) != expected:
        raise NetworkFormatError(
            f"CPT for {child.name!r}: expected {expected} entries, got {len(table)}"
        )
    entries = []
    for x in table:
        if not (isinstance(x, (int, float)) and not isinstance(x, bool)):
            raise NetworkFormatError(f"CPT for {child.name!r}: non-numeric entry {x!r}")
        x = float(x)
        if not 0.0 <= x <= 1.0:
            raise NetworkFormatError(f"CPT for {child.name!r}: entry {x!r} outside [0,1]")
        entries.append(x)
    card = child.cardinality
    for row in range(n_rows):
        s = sum(entries[row * card : (row + 1) * card])
        if not abs(s - 1.0) <= ROW_SUM_TOL:
            raise NetworkFormatError(f"CPT for {child.name!r}: row {row} sums to {s!r}, not 1")
    return TabularCpt(
        child=child.id,
        parents=tuple(p.id for p in parents),
        entries=tuple(entries),
        child_card=card,
        parent_cards=tuple(p.cardinality for p in parents),
    )


def _parse_noisy_or_cpt(entry: dict, child: Variable, parents: list[Variable]) -> NoisyOrCpt:
    if child.cardinality != 2:
        raise NetworkFormatError(
            f"noisy-or child {child.name!r} must be binary, has {child.cardinality} states"
        )
    trigger = entry.get("trigger")
    inhibitor = entry.get("inhibitor")
    if not (isinstance(trigger, list) and len(trigger) == len(parents)):
        raise NetworkFormatError(
            f"noisy-or CPT for {child.name!r}: 'trigger' must list one state per parent"
        )
    if not (isinstance(inhibitor, list) and len(inhibitor) == len(parents)):
        raise NetworkFormatError(
            f"noisy-or CPT for {child.name!r}: 'inhibitor' must list one probability per parent"
        )
    trig_idx = []
    for label, p in zip(trigger, parents):
        if not (isinstance(label, str) and label in p.states):
            raise NetworkFormatError(
                f"noisy-or CPT for {child.name!r}: {label!r} is not a state of {p.name!r}"
            )
        trig_idx.append(p.states.index(label))
    inh = []
    for q in inhibitor:
        if not (isinstance(q, (int, float)) and not isinstance(q, bool) and 0.0 <= q <= 1.0):
            raise NetworkFormatError(
                f"noisy-or CPT for {child.name!r}: inhibitor {q!r} outside [0,1]"
            )
        inh.append(float(q))
    leak = entry.get("leak", 0.0)
    if not (isinstance(leak, (int, float)) and not isinstance(leak, bool) and 0.0 <= leak <= 1.0):
        raise NetworkFormatError(f"noisy-or CPT for {child.name!r}: leak {leak!r} outside [0,1]")
    return NoisyOrCpt(
        child=child.id,
        parents=tuple(p.id for p in parents),
        trigger=tuple(trig_idx),
        inhibitor=tuple(inh),
        leak=float(leak),
    )


def _check_acyclic(variables: list[Variable], cpts: list[Cpt]) -> None:
    # Kahn's algorithm over parent -> child edges.
    n = len(variables)
    children: list[list[int]] = [[] for _ in range(n)]
    indeg = [0] * n
    for cpt in cpts:
        for p in cpt.parents:
            children[p].append(cpt.child)
            indeg[cpt.child] += 1
    queue = [v for v in range(n) if indeg[v] == 0]
    done = 0
    while queue:
        v = queue.pop()
        done += 1
        for c in children[v]:
            indeg[c] -= 1
            if indeg[c] == 0:
                queue.append(c)
    if done != n:
        stuck = sorted(variables[v].name for v in range(n) if indeg[v] > 0)
        raise NetworkFormatError(f"cycle detected among variables {stuck}")


def parse_network(text: str) -> Network:
    """Parse and validate a network document; raises NetworkFormatError."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise NetworkFormatError(f"malformed network document: {exc}") from None
    if not isinstance(doc, dict):
        raise NetworkFormatError("network document must be a JSON object")
    variables = _parse_variables(doc)
    by_name = {v.name: v for v in variables}

    raw_cpts = doc.get("cpts")
    if not isinstance(raw_cpts, list):
        raise NetworkFormatError("document must declare a 'cpts' list")
    cpt_by_child: dict[int, Cpt] = {}
    for i, entry in enumerate(raw_cpts):
        if not isinstance(entry, dict):
            raise NetworkFormatError(f"CPT #{i} is not an object")
        child_name = entry.get("child")
        if child_name not in by_name:
            raise NetworkFormatError(f"CPT #{i}: unknown child {child_name!r}")
        child = by_name[child_name]
        if child.id in cpt_by_child:
            raise NetworkFormatError(f"duplicate CPT for {child_name!r}")
        raw_parents = entry.get("parents", [])
        if not isinstance(raw_parents, list):
            raise NetworkFormatError(f"CPT for {child_name!r}: 'parents' must be a list")
        parents = []
        for pname in raw_parents:
            if pname not in by_name:
                raise NetworkFormatError(f"CPT for {child_name!r}: unknown parent name {pname!r}")
            if pname == child_name:
                raise NetworkFormatError(f"CPT for {child_name!r}: variable cannot parent itself")
            parents.append(by_name[pname])
        if len({p.id for p in parents}) != len(parents):
            raise NetworkFormatError(f"CPT for {child_name!r}: duplicate parent")
        kind = entry.get("kind", "table")
        if kind == "table":
            cpt: Cpt = _parse_table_cpt(entry, child, parents)
        elif kind == "noisy_or":
            cpt = _parse_noisy_or_cpt(entry, child, parents)
        else:
            raise NetworkFormatError(f"CPT for {child_name!r}: unknown kind {kind!r}")
        cpt_by_child[child.id] = cpt

    missing = [v.name for v in variables if v.id not in cpt_by_child]
    if missing:
        raise NetworkFormatError(f"variables without a CPT: {missing}")
    cpts = [cpt_by_child[v.id] for v in variables]
    _check_acyclic(variables, cpts)
    return Network(variables, cpts)


def serialize_network(network: Network) -> str:
    """Render a network back to document text; parse(serialize(n)) == n."""
    var_docs = [{"name": v.name, "states": list(v.states)} for v in network.variables]
    cpt_docs = []
    for cpt in network.cpts:
        child = network.variables[cpt.child]
        parents = [network.variables[p].name for p in cpt.parents]
        if isinstance(cpt, TabularCpt):
            cpt_docs.append(
                {"child": child.name, "parents": parents, "kind": "table",
                 "table": list(cpt.entries)}
            )
        else:
            trigger = [
                network.variables[p].states[t] for p, t in zip(cpt.parents, cpt.trigger)
            ]
            cpt_docs.append(
                {"child": child.name, "parents": parents, "kind": "noisy_or",
                 "trigger": trigger, "inhibitor": list(cpt.inhibitor), "leak": cpt.leak}
            )
    return json.dumps({"variables": var_docs, "cpts": cpt_docs}, indent=2)


def parse_evidence(text: str, network: Network) -> dict[int, int]:
    """Parse an evidence document into an id -> state-index map."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise NetworkFormatError(f"malformed evidence document: {exc}") from None
    if not isinstance(doc, dict):
        raise NetworkFormatError("evidence document must be a JSON object")
    evidence = {}
    for name, label in doc.items():
        var = network.variables[network.var_id(name)]
        if not isinstance(label, str):
            raise NetworkFormatError(f"evidence for {name!r} must be a state label string")
        if label not in var.states:
            raise NetworkFormatError(f"evidence: {label!r} is not a state of {name!r}")
        evidence[var.id] = var.states.index(label)
    return evidence


def validate_evidence(network: Network, evidence: Mapping[int, int]) -> None:
    """Raise ValueError unless each key is a variable id and each value one
    of its states, both ints; a bool is refused, not read as 0 or 1."""
    for var, state in evidence.items():
        if not (type(var) is int and 0 <= var < network.n):
            raise ValueError(f"evidence references unknown variable id {var!r}")
        if not (type(state) is int and 0 <= state < network.cards[var]):
            raise ValueError(
                f"evidence state {state!r} out of range for variable "
                f"{network.variables[var].name!r}"
            )


def expand_to_table(network: Network, child: int, max_cells: int = 1 << 22) -> TabularCpt:
    """Materialize a noisy-or CPT as an equivalent dense table.

    The query plan lowers each noisy-or family whose table has at most
    engine.NOISY_OR_TABLE_CELLS cells this way, and tests use it as an
    oracle; raises ValueError when the table would exceed max_cells.
    Each entry is bitwise what NoisyOrCpt.prob returns.
    """
    cpt = network.cpts[child]
    if not isinstance(cpt, NoisyOrCpt):
        raise ValueError(f"variable {network.variables[child].name!r} has a tabular CPT already")
    parent_cards = tuple(network.cards[p] for p in cpt.parents)
    cells = 2 * math.prod(parent_cards)
    if cells > max_cells:
        raise ValueError(
            f"expanded table needs {cells} cells, exceeding the budget of {max_cells}"
        )
    entries = []
    for inst in itertools.product(*(range(c) for c in parent_cards)):
        p_off = cpt.prob(0, inst)
        entries.append(p_off)
        entries.append(1.0 - p_off)
    return TabularCpt(
        child=cpt.child,
        parents=cpt.parents,
        entries=tuple(entries),
        child_card=2,
        parent_cards=parent_cards,
    )
