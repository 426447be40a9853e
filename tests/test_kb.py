import itertools
import json
import random
import sys

import pytest

from rcnet import (
    KnowledgeBase,
    Literal,
    brute_force_probability,
    compile_kb,
    parse_network,
    prepare_dtree,
    rc_query,
)
from rcnet.randnet import random_evidence, random_network

from helpers import gate_network

from oracles import replay_kb, unit_closure


def clause_key(clause):
    return frozenset(clause)


def lit(var, state, positive=True):
    return Literal(var, state, positive)


# --- compilation -------------------------------------------------------


def test_gate_compiles_to_exactly_four_clauses(gate):
    kb = compile_kb(gate)
    a, b, c = 0, 1, 2
    expected = {
        clause_key((lit(c, 0), lit(a, 0, False), lit(b, 0, False))),
        clause_key((lit(c, 1), lit(a, 0, False), lit(b, 1, False))),
        clause_key((lit(c, 2, False), lit(a, 1, False), lit(b, 0, False))),
        clause_key((lit(c, 2, False), lit(a, 1, False), lit(b, 1, False))),
    }
    assert {clause_key(cl) for cl in kb.clauses} == expected
    assert kb.n_clauses == 4


def test_strictly_positive_network_compiles_empty():
    net = parse_network(json.dumps({
        "variables": [{"name": "A", "states": ["0", "1"]},
                      {"name": "B", "states": ["0", "1"]}],
        "cpts": [
            {"child": "A", "parents": [], "kind": "table", "table": [0.5, 0.5]},
            {"child": "B", "parents": ["A"], "kind": "table",
             "table": [0.3, 0.7, 0.6, 0.4]},
        ],
    }))
    kb = compile_kb(net)
    assert kb.n_clauses == 0
    assert kb.n_literals == 0


def test_deterministic_root_yields_unit_clause():
    net = parse_network(json.dumps({
        "variables": [{"name": "A", "states": ["1", "2"]}],
        "cpts": [{"child": "A", "parents": [], "kind": "table", "table": [0.0, 1.0]}],
    }))
    kb = compile_kb(net)
    assert clause_key((lit(0, 1),)) in {clause_key(cl) for cl in kb.clauses}
    # the unit clause propagates at compile time
    assert kb.fixed[0] == 1


def test_noisy_or_contributes_no_clauses():
    net = parse_network(json.dumps({
        "variables": [{"name": "X", "states": ["0", "1"]},
                      {"name": "Y", "states": ["f", "t"]}],
        "cpts": [
            {"child": "X", "parents": [], "kind": "table", "table": [0.5, 0.5]},
            {"child": "Y", "parents": ["X"], "kind": "noisy_or",
             "trigger": ["1"], "inhibitor": [0.0], "leak": 0.0},
        ],
    }))
    assert compile_kb(net).n_clauses == 0


def test_duplicate_clauses_are_deduplicated():
    # two identical deterministic rows produce one clause each, but a repeated
    # (child state, parent inst) pattern across rows cannot repeat literals;
    # force a duplicate via hand-built clauses instead
    kb = KnowledgeBase([2, 2], [(lit(0, 0), lit(1, 0, False))])
    assert kb.n_clauses == 1


def test_compiled_clauses_never_repeat():
    # compile_kb keeps every clause it derives: none can repeat in a DAG
    rng = random.Random(34)
    for _ in range(40):
        net = random_network(rng, max_vars=8, determinism=0.6)
        clauses = compile_kb(net).clauses
        assert len({clause_key(cl) for cl in clauses}) == len(clauses)


def test_positive_rule_wins_over_zero_rows(gate):
    # rows with a probability-1 state emit only the positive clause
    kb = compile_kb(gate)
    for clause in kb.clauses:
        positives = [l for l in clause if l.positive]
        assert len(positives) <= 1


# --- assertion and propagation -----------------------------------------


def test_unit_resolution_forces_gate_child(gate):
    kb = compile_kb(gate)
    assert kb.assert_literal(lit(0, 0))  # A=1
    assert kb.assert_literal(lit(1, 0))  # B=1
    assert kb.fixed[2] == 0              # C forced to state "1"


def test_contradiction_after_forced_value(gate):
    kb = compile_kb(gate)
    token = kb.checkpoint()
    assert kb.assert_literal(lit(0, 0))
    assert kb.assert_literal(lit(1, 0))
    assert not kb.assert_literal(lit(2, 1))  # C=2 conflicts with forced C=1
    kb.retract_to(token)
    assert kb.snapshot() == compile_kb(gate).snapshot()


def test_empty_kb_accepts_everything():
    kb = KnowledgeBase([2, 3])
    assert kb.assert_literal(lit(0, 1))
    assert kb.assert_literal(lit(1, 2, False))
    assert kb.fixed[0] == 1
    assert kb.possible[1] == {0, 1}


def test_negative_literal_shrinks_domain_and_collapses():
    kb = KnowledgeBase([3])
    assert kb.assert_literal(lit(0, 0, False))
    assert kb.fixed[0] is None
    assert kb.assert_literal(lit(0, 1, False))
    assert kb.fixed[0] == 2  # singleton domain collapses to a positive fix


def test_domain_empty_is_contradiction():
    kb = KnowledgeBase([2])
    assert kb.assert_literal(lit(0, 0, False))
    assert kb.fixed[0] == 1
    assert not kb.assert_literal(lit(0, 1, False))


def test_asserting_satisfied_literal_is_noop(gate):
    kb = compile_kb(gate)
    assert kb.assert_literal(lit(0, 0))
    snap = kb.snapshot()
    assert kb.assert_literal(lit(0, 0))
    assert kb.snapshot() == snap


def test_cardinality_one_variable_is_known_from_the_start():
    # V0 has one state, so (V0 != 0) is false and the clause forces V1 = 0
    kb = KnowledgeBase([1, 2], [(lit(1, 0), lit(0, 0, False))])
    assert kb.fixed == [0, 0]
    assert kb.audit() == []


# --- checkpoints -------------------------------------------------------


def test_checkpoints_unwind_lifo(gate):
    kb = compile_kb(gate)
    base = kb.snapshot()
    t1 = kb.checkpoint()
    kb.assert_literal(lit(0, 0))
    mid = kb.snapshot()
    t2 = kb.checkpoint()
    kb.assert_literal(lit(1, 0))
    kb.retract_to(t2)
    assert kb.snapshot() == mid
    kb.retract_to(t1)
    assert kb.snapshot() == base


def test_stale_token_rejected():
    kb = KnowledgeBase([2])
    token = kb.checkpoint()
    kb.assert_literal(lit(0, 0))
    kb.retract_to(token)
    with pytest.raises(ValueError, match="stale"):
        kb.retract_to(token + 5)


def test_watches_pass_audit_after_random_ops():
    rng = random.Random(31)
    net = random_network(rng, max_vars=8, determinism=0.5)
    kb = compile_kb(net)
    tokens = []
    for _ in range(300):
        action = rng.random()
        if action < 0.55:
            var = rng.randrange(net.n)
            state = rng.randrange(net.cards[var])
            tok = kb.checkpoint()
            if not kb.assert_literal(Literal(var, state, rng.random() < 0.7)):
                kb.retract_to(tok)
        elif action < 0.8 or not tokens:
            tokens.append(kb.checkpoint())
        else:
            kb.retract_to(tokens.pop())
        assert kb.audit() == []


def test_audit_reports_a_broken_watch(gate):
    kb = compile_kb(gate)
    assert kb.audit() == []
    codes = kb._lits[0]
    codes[1], codes[2] = codes[2], codes[1]  # watch lists now disagree with the clause
    assert any("watches" in problem for problem in kb.audit())


def test_audit_reports_an_unasserted_unit_clause():
    kb = KnowledgeBase([2, 2], [(lit(0, 0), lit(1, 0))])
    assert kb.audit() == []
    kb.domain[1] = 0b10  # falsify (V1 = 0) behind the KB's back
    assert any("unasserted" in problem for problem in kb.audit())


def test_fuzz_against_replay_oracle():
    rng = random.Random(32)
    net = random_network(rng, max_vars=8, determinism=0.5)
    kb = compile_kb(net)
    # frames of (token, asserts committed inside that frame)
    frames: list[tuple[int, list[Literal]]] = [(kb.checkpoint(), [])]
    for _ in range(2000):
        action = rng.random()
        if action < 0.6:
            var = rng.randrange(net.n)
            state = rng.randrange(net.cards[var])
            literal = Literal(var, state, rng.random() < 0.7)
            tok = kb.checkpoint()
            if kb.assert_literal(literal):
                frames[-1][1].append(literal)
            else:
                kb.retract_to(tok)
        elif action < 0.8:
            frames.append((kb.checkpoint(), []))
        elif len(frames) > 1:
            token, _ = frames.pop()
            kb.retract_to(token)
        surviving = [l for _, lits in frames for l in lits]
        oracle = replay_kb(lambda: compile_kb(net), surviving)
        assert kb.snapshot() == oracle.snapshot()


def networks_with_a_false_literal(rng, count):
    """Random deterministic networks in which a clause holds (V != 0) on a
    cardinality-1 V, a literal that is false from the start."""
    found = []
    while len(found) < count:
        net = random_network(rng, max_vars=8, determinism=0.5)
        if any(net.cards[l.var] == 1 for clause in compile_kb(net).clauses for l in clause):
            found.append(net)
    return found


def test_fuzz_against_unit_closure_oracle():
    rng = random.Random(36)
    for net in networks_with_a_false_literal(rng, 6):
        kb = compile_kb(net)
        clauses = list(kb.clauses)
        # frames of (token, asserts committed inside that frame)
        frames: list[tuple[int, list[Literal]]] = [(kb.checkpoint(), [])]
        for _ in range(300):
            action = rng.random()
            surviving = [l for _, lits in frames for l in lits]
            if action < 0.6:
                var = rng.randrange(net.n)
                literal = Literal(var, rng.randrange(net.cards[var]), rng.random() < 0.7)
                tok = kb.checkpoint()
                if kb.assert_literal(literal):
                    frames[-1][1].append(literal)
                else:
                    assert unit_closure(net.cards, clauses, surviving + [literal]) is None
                    kb.retract_to(tok)
            elif action < 0.8:
                frames.append((kb.checkpoint(), []))
            elif len(frames) > 1:
                token, _ = frames.pop()
                kb.retract_to(token)
            surviving = [l for _, lits in frames for l in lits]
            assert kb.domain == unit_closure(net.cards, clauses, surviving)
            assert kb.audit() == []


def test_handed_codes_build_the_same_kb_as_literals():
    rng = random.Random(37)
    for _ in range(20):
        net = random_network(rng, max_vars=8, determinism=0.5)
        compiled = compile_kb(net)
        rebuilt = KnowledgeBase(net.cards, compiled.clauses)
        assert rebuilt.clauses == compiled.clauses
        assert rebuilt.mentioned == compiled.mentioned
        assert rebuilt.domain == compiled.domain
        assert rebuilt._lits == compiled._lits


# --- soundness ---------------------------------------------------------


def test_gate_inconsistent_partial_rejected_by_oracle(gate):
    assert not brute_force_probability(gate, {0: 0, 1: 0, 2: 1}) > 0  # A=1,B=1,C=2
    assert brute_force_probability(gate, {}) > 0


def test_contradictions_are_sound_on_random_networks():
    rng = random.Random(33)
    contradictions = 0
    for _ in range(60):
        net = random_network(rng, max_vars=7, determinism=0.5, max_joint=800)
        kb = compile_kb(net)
        assignment = random_evidence(rng, net, p_observe=0.7)
        token = kb.checkpoint()
        ok = True
        for var, state in sorted(assignment.items()):
            if not kb.assert_literal(Literal(var, state, True)):
                ok = False
                break
        kb.retract_to(token)
        if not ok:
            contradictions += 1
            assert not brute_force_probability(net, assignment) > 0
    assert contradictions > 0  # the suite must actually exercise the rule


# --- long implication chains -------------------------------------------


def copy_chain(n, root_table):
    """Binary chain X0 -> X1 -> ... in which every Xi copies Xi-1 exactly."""
    names = [f"X{i}" for i in range(n)]
    cpts = [{"child": "X0", "parents": [], "kind": "table", "table": root_table}]
    cpts += [{"child": c, "parents": [p], "kind": "table", "table": [1.0, 0.0, 0.0, 1.0]}
             for p, c in zip(names, names[1:])]
    return parse_network(json.dumps({
        "variables": [{"name": v, "states": ["0", "1"]} for v in names], "cpts": cpts,
    }))


def test_query_propagates_a_long_copy_chain():
    net = copy_chain(300, [0.5, 0.5])
    root = prepare_dtree(net)
    kb = compile_kb(net)
    limit = sys.getrecursionlimit()
    res = rc_query(net, root, {299: 1}, kb=kb)  # asserting X299 fixes all 300
    assert sys.getrecursionlimit() == limit
    assert res.probability == pytest.approx(0.5, rel=1e-12)
    assert kb.fixed == [None] * 300


def test_compile_propagates_a_long_deterministic_chain():
    limit = sys.getrecursionlimit()
    kb = compile_kb(copy_chain(1000, [0.0, 1.0]))  # the root's unit clause fixes all
    assert sys.getrecursionlimit() == limit
    assert kb.fixed == [1] * 1000
    assert kb.audit() == []
