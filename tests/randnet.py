"""Seeded random networks and evidence for the test suites.

Documents are generated and run back through the parser, so every
network produced here is valid by construction and exercises the format
layer for free.  With a determinism fraction, individual CPT cells are
zeroed and each row renormalized over the survivors, producing the
exact 0.0/1.0 entries the clause compiler keys on.
"""

from __future__ import annotations

import json
import random

from rcnet import Network, parse_network

__all__ = ["random_network", "random_evidence"]


def _random_row(rng: random.Random, card: int, determinism: float) -> list[float]:
    if card == 1:
        return [1.0]
    alive = [rng.random() >= determinism for _ in range(card)]
    if not any(alive):
        alive[rng.randrange(card)] = True
    weights = [rng.random() + 1e-3 if a else 0.0 for a in alive]
    total = sum(weights)
    row = [w / total for w in weights]
    # pin the row sum: make the last surviving entry the exact remainder
    last = max(i for i, a in enumerate(alive) if a)
    row[last] = 1.0 - sum(p for i, p in enumerate(row) if i != last)
    return row


def random_network(
    rng: random.Random,
    max_vars: int = 10,
    max_states: int = 4,
    determinism: float = 0.0,
    max_parents: int = 3,
    max_joint: int = 4000,
    noisy_or_prob: float = 0.0,
) -> Network:
    """One random network; structure, cardinalities, and CPTs all seeded.

    The joint state space is capped so enumeration oracles stay cheap.
    """
    n = rng.randint(2, max(2, max_vars))
    for _ in range(50):
        cards = [
            1 if (max_states >= 2 and rng.random() < 0.06) else rng.randint(2, max(2, max_states))
            for _ in range(n)
        ]
        joint = 1
        for c in cards:
            joint *= c
        if joint <= max_joint:
            break
        n = max(2, n - 1)
    else:
        n, cards = 2, [2, 2]

    variables = [
        {"name": f"V{i}", "states": [f"s{j}" for j in range(cards[i])]} for i in range(n)
    ]
    cpts = []
    for i in range(n):
        k = rng.randint(0, min(i, max_parents))
        parents = sorted(rng.sample(range(i), k))
        parent_names = [f"V{p}" for p in parents]
        if (
            noisy_or_prob > 0.0
            and cards[i] == 2
            and parents
            and rng.random() < noisy_or_prob
        ):
            cpts.append(
                {
                    "child": f"V{i}",
                    "parents": parent_names,
                    "kind": "noisy_or",
                    "trigger": [f"s{rng.randrange(cards[p])}" for p in parents],
                    "inhibitor": [round(rng.uniform(0.05, 0.95), 6) for _ in parents],
                    "leak": round(rng.uniform(0.0, 0.3), 6),
                }
            )
            continue
        rows = 1
        for p in parents:
            rows *= cards[p]
        table: list[float] = []
        for _ in range(rows):
            table.extend(_random_row(rng, cards[i], determinism))
        cpts.append(
            {"child": f"V{i}", "parents": parent_names, "kind": "table", "table": table}
        )
    return parse_network(json.dumps({"variables": variables, "cpts": cpts}))


def random_evidence(
    rng: random.Random, network: Network, p_observe: float = 0.3
) -> dict[int, int]:
    return {
        v: rng.randrange(network.cards[v])
        for v in range(network.n)
        if rng.random() < p_observe
    }
