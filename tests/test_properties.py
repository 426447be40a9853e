"""Property test: every query mode agrees with enumeration on random
deterministic networks and dtree shapes, and the KB comes back from every
query as it went in, a query that raises included."""

import math
import random

import pytest
from hypothesis import given, settings, strategies as st

from rcnet import (
    CachePolicy,
    KnowledgeBase,
    annotate,
    brute_force_probability,
    compile_kb,
    dtree_from_shape,
    dtree_stats,
    mark_dead_caches,
    prepare_dtree,
    rc_query,
)
from rcnet.randnet import random_evidence, random_network

from helpers import random_shape


def rel_err(a, b):
    m = max(abs(a), abs(b))
    return 0.0 if m == 0.0 else abs(a - b) / m


class Interrupted(Exception):
    pass


class RaisingKB(KnowledgeBase):
    """A KB that counts its assert_literal calls and raises Interrupted
    from the call after the first `allowed` ones."""

    calls = 0
    allowed = math.inf

    def assert_literal(self, code: int) -> bool:
        if self.calls >= self.allowed:
            raise Interrupted(code)
        self.calls += 1
        return super().assert_literal(code)


@settings(derandomize=True, max_examples=200, deadline=None, database=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    determinism=st.sampled_from([0.3, 0.5, 0.8]),
    noisy_or=st.sampled_from([0.0, 0.3]),
    p_observe=st.sampled_from([0.2, 0.5]),
    budget_share=st.floats(0.0, 1.0),
    shape=st.sampled_from(["min-fill", "random"]),
)
def test_every_mode_matches_enumeration_and_restores_the_kb(
        seed, determinism, noisy_or, p_observe, budget_share, shape):
    rng = random.Random(seed)
    net = random_network(rng, max_vars=8, determinism=determinism, max_joint=2000,
                         noisy_or_prob=noisy_or)
    if shape == "random":
        root = dtree_from_shape(net, random_shape(rng, net))
        annotate(root)
        mark_dead_caches(root)
    else:
        root = prepare_dtree(net)
    kb = RaisingKB(net.cards, compile_kb(net).clauses)
    before = (list(kb.domain), kb.checkpoint())
    budget = int(budget_share * dtree_stats(root).cache_cells_live)
    # a full instantiation of zero probability contradicts a clause, so it is
    # refuted at the evidence unless a noisy-or holds its zero
    full = {v: rng.randrange(card) for v, card in enumerate(net.cards)}
    for evidence in (random_evidence(rng, net, p_observe), full):
        expected = brute_force_probability(net, evidence)
        for policy in (CachePolicy.full(), CachePolicy.none(), CachePolicy.budget(budget)):
            for log_domain in (False, True):
                off = rc_query(net, root, evidence, policy=policy, log_domain=log_domain)
                kb.calls = 0
                on = rc_query(net, root, evidence, policy=policy, kb=kb, log_domain=log_domain)
                assert kb.audit() == []
                assert (kb.domain, kb.checkpoint()) == before
                assert rel_err(off.probability, expected) <= (1e-6 if log_domain else 1e-9)
                assert on.probability == off.probability
                if evidence is full and not noisy_or:
                    assert on.kb_evidence_contradiction == (expected == 0.0)
                if kb.calls:  # the same query again, interrupted at one of its asserts
                    kb.calls, kb.allowed = 0, rng.randrange(kb.calls)
                    with pytest.raises(Interrupted):
                        rc_query(net, root, evidence, policy=policy, kb=kb, log_domain=log_domain)
                    kb.allowed = math.inf
                    assert kb.audit() == []
                    assert (kb.domain, kb.checkpoint()) == before
