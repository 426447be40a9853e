"""Seeded network families and forward-sampled evidence.

Each generator returns a `Model`: the benchmark's own description of a
network, kept apart from rcnet so that the oracles never read rcnet's
parsed objects.  `Model.document()` renders it as the JSON network text
that rcnet parses; variable ids are document order, so an evidence map
built here ({variable index: state index}) is what rcnet receives.

Variables are created parents-first, so index order is a topological
order and forward sampling is one pass.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field

import numpy as np


@dataclass(frozen=True)
class NoisyOr:
    """Binary child; state 0 means 'effect absent'."""

    trigger: tuple[int, ...]
    inhibitor: tuple[float, ...]
    leak: float


@dataclass
class Model:
    names: list[str] = field(default_factory=list)
    cards: list[int] = field(default_factory=list)
    parents: list[tuple[int, ...]] = field(default_factory=list)
    cpts: list = field(default_factory=list)  # np.ndarray (table) or NoisyOr

    def add(self, name: str, card: int, parents=(), cpt=None) -> int:
        self.names.append(name)
        self.cards.append(card)
        self.parents.append(tuple(parents))
        self.cpts.append(cpt)
        return len(self.names) - 1

    @property
    def n(self) -> int:
        return len(self.names)

    def factor(self, v: int) -> np.ndarray:
        """Pr(v | parents) as an array indexed [parent states..., child state]."""
        cpt = self.cpts[v]
        if isinstance(cpt, np.ndarray):
            return cpt
        shape = tuple(self.cards[p] for p in self.parents[v])
        off = np.full(shape, 1.0 - cpt.leak)
        for axis, (t, q) in enumerate(zip(cpt.trigger, cpt.inhibitor)):
            scale = np.ones(shape[axis])
            scale[t] = q
            off = off * scale.reshape([-1 if a == axis else 1 for a in range(len(shape))])
        return np.stack([off, 1.0 - off], axis=-1)

    def document(self) -> str:
        variables = [
            {"name": name, "states": [str(s) for s in range(card)]}
            for name, card in zip(self.names, self.cards)
        ]
        cpts = []
        for v, cpt in enumerate(self.cpts):
            entry = {"child": self.names[v], "parents": [self.names[p] for p in self.parents[v]]}
            if isinstance(cpt, np.ndarray):
                entry.update(kind="table", table=cpt.ravel().tolist())
            else:
                entry.update(
                    kind="noisy_or",
                    trigger=[str(t) for t in cpt.trigger],
                    inhibitor=list(cpt.inhibitor),
                    leak=cpt.leak,
                )
            cpts.append(entry)
        return json.dumps({"variables": variables, "cpts": cpts})

    def sample(self, rng: random.Random) -> list[int]:
        """One joint instantiation drawn by forward sampling."""
        tables = [self.factor(v) for v in range(self.n)]
        values: list[int] = []
        for v in range(self.n):
            row = tables[v][tuple(values[p] for p in self.parents[v])]
            u = rng.random()
            state = len(row) - 1
            acc = 0.0
            for s, p in enumerate(row):
                acc += p
                if u < acc:
                    state = s
                    break
            values.append(state)
        return values


def _binary_table(rng: random.Random, n_parents: int) -> np.ndarray:
    rows = []
    for _ in range(2**n_parents):
        p = rng.uniform(0.1, 0.9)
        rows.append([p, 1.0 - p])
    return np.array(rows).reshape((2,) * n_parents + (2,))


def grid(rng: random.Random, side: int) -> Model:
    """Binary side x side grid; parents are the upper and left neighbours.

    About 30% of the nodes that have parents get a noisy-or CPT, the
    rest random tables without determinism.
    """
    m = Model()
    ids = {}
    for r in range(side):
        for c in range(side):
            parents = tuple(ids[q] for q in ((r - 1, c), (r, c - 1)) if q in ids)
            if parents and rng.random() < 0.3:
                cpt = NoisyOr(
                    trigger=tuple(rng.randrange(2) for _ in parents),
                    inhibitor=tuple(rng.uniform(0.1, 0.9) for _ in parents),
                    leak=rng.uniform(0.01, 0.2),
                )
            else:
                cpt = _binary_table(rng, len(parents))
            ids[r, c] = m.add(f"g{r}_{c}", 2, parents, cpt)
    return m


def chain(rng: random.Random, length: int) -> Model:
    """Binary chain X0 -> X1 -> ... with random transition tables."""
    m = Model()
    prev = None
    for i in range(length):
        parents = () if prev is None else (prev,)
        prev = m.add(f"c{i}", 2, parents, _binary_table(rng, len(parents)))
    return m


# The pedigree: eight founders in four couples, one child per couple,
# and one grandchild of each pair of those children (fathers listed
# first).  Loops none; its shape is the same for every seed.
FOUNDERS = 8
FAMILIES = ((0, 1), (2, 3), (4, 5), (6, 7), (8, 9), (10, 11))
PEOPLE = FOUNDERS + len(FAMILIES)


def _onehot(shape: tuple[int, ...], choose) -> np.ndarray:
    """Deterministic CPT: for each parent row, child state choose(row) has 1.0."""
    table = np.zeros(shape)
    for row in np.ndindex(*shape[:-1]):
        table[row + (choose(row),)] = 1.0
    return table


def pedigree(rng: random.Random, loci: int, alleles: int) -> tuple[Model, list[list[int]]]:
    """Genetic-linkage network in the style of Fishelson & Geiger (2002).

    Per person and locus: a paternal and a maternal allele and an
    unordered genotype.  Founders' alleles follow the locus' allele
    frequencies.  A child's paternal allele copies one of the father's
    two alleles as a binary selector says (likewise maternal); each
    selector depends on the same selector at the previous locus through
    that interval's recombination fraction.  Allele transmission and
    genotypes are deterministic CPTs.

    Returns the model and, per person, the ids of its genotype variables.
    """
    freqs = []
    for _ in range(loci):
        w = [rng.uniform(0.2, 1.0) for _ in range(alleles)]
        freqs.append(np.array([x / sum(w) for x in w]))
    thetas = [rng.uniform(0.05, 0.3) for _ in range(loci - 1)]
    pairs = [(a, b) for a in range(alleles) for b in range(a, alleles)]
    genotype = _onehot(
        (alleles, alleles, len(pairs)),
        lambda row: pairs.index((min(row), max(row))),
    )
    transmit = _onehot((alleles, alleles, 2, alleles), lambda row: row[row[2]])
    m = Model()
    pat: dict[tuple[int, int], int] = {}
    mat: dict[tuple[int, int], int] = {}
    sel: dict[tuple[int, int, int], int] = {}
    typed: list[list[int]] = []
    for i in range(PEOPLE):
        genotypes = []
        for loc in range(loci):
            if i < FOUNDERS:
                pat[i, loc] = m.add(f"p{i}_{loc}_pa", alleles, (), freqs[loc])
                mat[i, loc] = m.add(f"p{i}_{loc}_ma", alleles, (), freqs[loc])
            else:
                father, mother = FAMILIES[i - FOUNDERS]
                for side, parent, alleles_of in ((0, father, pat), (1, mother, mat)):
                    prev = sel.get((i, side, loc - 1))
                    if prev is None:
                        s_cpt = np.array([0.5, 0.5])
                    else:
                        th = thetas[loc - 1]
                        s_cpt = np.array([[1.0 - th, th], [th, 1.0 - th]])
                    sel[i, side, loc] = m.add(
                        f"p{i}_{loc}_s{'pm'[side]}", 2, () if prev is None else (prev,), s_cpt
                    )
                    alleles_of[i, loc] = m.add(
                        f"p{i}_{loc}_{'pm'[side]}a",
                        alleles,
                        (pat[parent, loc], mat[parent, loc], sel[i, side, loc]),
                        transmit,
                    )
            genotypes.append(
                m.add(f"p{i}_{loc}_g", len(pairs), (pat[i, loc], mat[i, loc]), genotype)
            )
        typed.append(genotypes)
    return m, typed


def sampled_evidence(rng: random.Random, model: Model, observed) -> dict[int, int]:
    """Forward-sample the model, then reveal the values of `observed`."""
    values = model.sample(rng)
    return {v: values[v] for v in sorted(observed)}
