"""Shared fixture builders for the test suite."""

from __future__ import annotations

import json
import random

from rcnet import Network, parse_network

# Ternary-gate fixture: binary A and B feed a ternary C whose table mixes
# hard 0/1 rows with soft rows.  Flat table rows (A,B varying, B fastest):
#   A=1,B=1: [1, 0, 0]     A=1,B=2: [0, 1, 0]
#   A=2,B=1: [.2, .8, 0]   A=2,B=2: [.7, .3, 0]
GATE_TABLE = [1, 0, 0, 0, 1, 0, 0.2, 0.8, 0, 0.7, 0.3, 0]


def gate_doc() -> dict:
    return {
        "variables": [
            {"name": "A", "states": ["1", "2"]},
            {"name": "B", "states": ["1", "2"]},
            {"name": "C", "states": ["1", "2", "3"]},
        ],
        "cpts": [
            {"child": "A", "parents": [], "kind": "table", "table": [0.6, 0.4]},
            {"child": "B", "parents": [], "kind": "table", "table": [0.5, 0.5]},
            {"child": "C", "parents": ["A", "B"], "kind": "table", "table": GATE_TABLE},
        ],
    }


def gate_network() -> Network:
    return parse_network(json.dumps(gate_doc()))


def chain_doc() -> dict:
    """Binary chain A -> B -> C with strictly positive tables."""
    return {
        "variables": [
            {"name": "A", "states": ["0", "1"]},
            {"name": "B", "states": ["0", "1"]},
            {"name": "C", "states": ["0", "1"]},
        ],
        "cpts": [
            {"child": "A", "parents": [], "kind": "table", "table": [0.6, 0.4]},
            {"child": "B", "parents": ["A"], "kind": "table",
             "table": [0.7, 0.3, 0.2, 0.8]},
            {"child": "C", "parents": ["B"], "kind": "table",
             "table": [0.9, 0.1, 0.4, 0.6]},
        ],
    }


def chain_network() -> Network:
    return parse_network(json.dumps(chain_doc()))


def star_doc(n: int, kind: str = "noisy_or", parent_card: int = 3) -> dict:
    """X1..Xn all parents of a binary Y; Y noisy-or (or tabular for tiny n)."""
    states = [str(i) for i in range(parent_card)]
    variables = [{"name": f"X{i}", "states": states} for i in range(1, n + 1)]
    variables.append({"name": "Y", "states": ["f", "t"]})
    prior = [round(1.0 / parent_card, 12)] * (parent_card - 1)
    prior.append(1.0 - sum(prior))
    cpts = [
        {"child": f"X{i}", "parents": [], "kind": "table", "table": list(prior)}
        for i in range(1, n + 1)
    ]
    parents = [f"X{i}" for i in range(1, n + 1)]
    if kind == "noisy_or":
        cpts.append(
            {
                "child": "Y",
                "parents": parents,
                "kind": "noisy_or",
                "trigger": [states[-1]] * n,
                "inhibitor": [0.4] * n,
                "leak": 0.1,
            }
        )
    else:
        rows = parent_card ** n
        table = []
        for _ in range(rows):
            table.extend([0.25, 0.75])
        cpts.append({"child": "Y", "parents": parents, "kind": "table", "table": table})
    return {"variables": variables, "cpts": cpts}


def star_network(n: int, **kwargs) -> Network:
    return parse_network(json.dumps(star_doc(n, **kwargs)))


def right_linear_shape(n: int):
    """Spine X1, X2, ..., Xn with the Y-family leaf at the bottom."""
    shape: object = "Y"
    for i in range(n, 0, -1):
        shape = [f"X{i}", shape]
    return shape


def random_shape(rng: random.Random, network: Network):
    """A random dtree shape over the network's families: two random trees
    are joined until one is left."""
    trees: list = [v.name for v in network.variables]
    while len(trees) > 1:
        left = trees.pop(rng.randrange(len(trees)))
        right = trees.pop(rng.randrange(len(trees)))
        trees.append([left, right])
    return trees[0]


def _binary_rows(rng, rows: int) -> list[float]:
    table: list[float] = []
    for _ in range(rows):
        p = round(rng.uniform(0.1, 0.9), 6)
        table.extend([p, 1.0 - p])
    return table


def spine_chain_doc(n: int, seed: int) -> dict:
    """Binary chain X1 -> X2 -> ... -> Xn -> Y with seeded tables; its names
    fit right_linear_shape(n)."""
    rng = random.Random(seed)
    names = [f"X{i}" for i in range(1, n + 1)] + ["Y"]
    cpts = [{"child": names[0], "parents": [], "kind": "table", "table": _binary_rows(rng, 1)}]
    for parent, child in zip(names, names[1:]):
        cpts.append(
            {"child": child, "parents": [parent], "kind": "table", "table": _binary_rows(rng, 2)}
        )
    return {"variables": [{"name": v, "states": ["0", "1"]} for v in names], "cpts": cpts}


def grid_doc(side: int, seed: int, noisy_or: bool = False) -> dict:
    """Binary side x side grid; each cell's parents are its upper and left
    neighbours.  With noisy_or, every cell that has parents is noisy-or."""
    rng = random.Random(seed)
    name = lambda r, c: f"G{r}_{c}"
    variables, cpts = [], []
    for r in range(side):
        for c in range(side):
            parents = ([name(r - 1, c)] if r else []) + ([name(r, c - 1)] if c else [])
            variables.append({"name": name(r, c), "states": ["0", "1"]})
            if noisy_or and parents:
                cpts.append({"child": name(r, c), "parents": parents, "kind": "noisy_or",
                             "trigger": ["1"] * len(parents),
                             "inhibitor": [round(rng.uniform(0.1, 0.9), 6) for _ in parents],
                             "leak": round(rng.uniform(0.0, 0.3), 6)})
            else:
                cpts.append({"child": name(r, c), "parents": parents, "kind": "table",
                             "table": _binary_rows(rng, 2 ** len(parents))})
    return {"variables": variables, "cpts": cpts}


def grid_network(side: int, seed: int, noisy_or: bool = False) -> Network:
    return parse_network(json.dumps(grid_doc(side, seed, noisy_or)))


def literal_code(cards, var: int, state: int, positive: bool = True) -> int:
    """The KB code of (var = state), or of (var != state) when not positive:
    2 * (offset + state) + negative, where offset is the sum of the
    cardinalities of the variables before var."""
    return 2 * (sum(cards[:var]) + state) + (not positive)


def literal_of(cards, code: int) -> tuple[int, int, bool]:
    """(var, state, positive) of a KB literal code; inverts literal_code."""
    state, negative = divmod(code, 2)
    var = 0
    while state >= cards[var]:
        state -= cards[var]
        var += 1
    return var, state, not negative
