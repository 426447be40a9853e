"""A workload's inputs and their reference answers, made from a seed.

    python3 perfbench/inputs.py --workload grid-full --seed 1 [--small]

prints one JSON object: `docs`, the network documents rcnet parses, and
`queries`, each `{"net", "evidence", "expected"}` with `expected` the
oracle's ln Pr(e).  run.py runs this as a child process before it
measures, so that numpy, the generators' models and the oracles' tables
never live in the measured process.
"""

from __future__ import annotations

import argparse
import json
import math
import random
import sys

import generators
import oracles


# Which variables a query observes is part of a workload's definition and
# the same for every seed; the seed draws the networks' parameters and
# the observed values.  rc's work depends on which variables are
# observed far more than on their values, and with a fresh observed set
# per seed the work itself moved 12-45% from seed to seed.
def _observed_sets(workload: str, n: int, share: float, count: int) -> list[list[int]]:
    rng = random.Random(f"{workload} observed")
    return [rng.sample(range(n), round(share * n)) for _ in range(count)]


def _grids(rng, small):
    side, networks, queries = (4, 2, 3) if small else (9, 8, 5)
    observed = iter(_observed_sets("grid-full", side * side, 0.3, networks * queries))
    out = []
    for _ in range(networks):
        model = generators.grid(rng, side)
        out.append(
            (model, [generators.sampled_evidence(rng, model, next(observed)) for _ in range(queries)])
        )
    return out


UNTYPED = (0, 2)  # two founders, grandfathers in different families, are never genotyped


def _pedigrees(rng, small):
    loci, networks, queries = (2, 1, 4) if small else (3, 2, 8)
    out = []
    for _ in range(networks):
        model, genotypes = generators.pedigree(rng, loci, alleles=3)
        observed = [v for i, vs in enumerate(genotypes) if i not in UNTYPED for v in vs]
        out.append(
            (model, [generators.sampled_evidence(rng, model, observed) for _ in range(queries)])
        )
    return out


def _chains(rng, small):
    length, queries = (200, 4) if small else (2000, 20)
    model = generators.chain(rng, length)
    observed = _observed_sets("chain-prep-log", length, 0.3, queries)
    return [(model, [generators.sampled_evidence(rng, model, o) for o in observed])]


# workload -> (networks and their evidence maps from a random.Random, oracle)
FAMILIES = {
    "grid-full": (_grids, oracles.ve_log_probability),
    "linkage-kb-budget": (_pedigrees, oracles.ve_log_probability),
    "chain-prep-log": (_chains, oracles.chain_log_probability),
}


def make(workload: str, seed: int, small: bool) -> dict:
    draw, oracle = FAMILIES[workload]
    drawn = draw(random.Random(f"{workload}/{seed}"), small)
    queries = []
    for net, (model, evidence_maps) in enumerate(drawn):
        for evidence in evidence_maps:
            expected = oracle(model, evidence)
            if expected == -math.inf:
                raise RuntimeError("the oracle gives Pr(e) = 0 for sampled evidence")
            queries.append({"net": net, "evidence": evidence, "expected": expected})
    return {"docs": [model.document() for model, _ in drawn], "queries": queries}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(FAMILIES))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--small", action="store_true")
    args = parser.parse_args(argv)
    json.dump(make(args.workload, args.seed, args.small), sys.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main())
