import functools
import hashlib
import json
import random
import sys

import pytest

from rcnet import (
    KnowledgeBase,
    brute_force_probability,
    compile_kb,
    parse_network,
    prepare_dtree,
    rc_query,
)
from rcnet.randnet import random_evidence, random_network

from helpers import chain_network, gate_network, literal_code, literal_of

from oracles import replay_kb, unit_closure


def clause_key(clause):
    return frozenset(clause)


# --- compilation -------------------------------------------------------


def test_gate_compiles_to_exactly_four_clauses(gate):
    kb = compile_kb(gate)
    a, b, c = 0, 1, 2
    lit = functools.partial(literal_code, kb.cards)
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
    assert clause_key((literal_code(kb.cards, 0, 1),)) in {clause_key(cl) for cl in kb.clauses}
    # the unit clause propagates at compile time
    assert kb.domain[0] == 0b10


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
    kb = KnowledgeBase([2, 2], [(literal_code([2, 2], 0, 0), literal_code([2, 2], 1, 0, False))])
    assert kb.n_clauses == 1


def test_hand_built_clauses_are_checked():
    lit = functools.partial(literal_code, [2, 3])
    kb = KnowledgeBase([2, 3], [(lit(1, 2), lit(0, 0, False), lit(1, 2))])
    assert kb.clauses == [(lit(1, 2), lit(0, 0, False))]  # the repeat is dropped
    assert (kb.n_clauses, kb.n_literals) == (1, 2)
    for clauses, problem in (([()], "empty clause"), ([(0, -1)], "out of range"),
                             ([(lit(1, 2), 10)], "out of range"),
                             ([(lit(0, 0),), (lit(0, 1),)], "contradictory")):
        with pytest.raises(ValueError, match=problem):
            KnowledgeBase([2, 3], clauses)


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
        positives = [code for code in clause if literal_of(kb.cards, code)[2]]
        assert len(positives) <= 1


# --- assertion and propagation -----------------------------------------


def test_unit_resolution_forces_gate_child(gate):
    kb = compile_kb(gate)
    assert kb.assert_literal(literal_code(kb.cards, 0, 0))  # A=1
    assert kb.assert_literal(literal_code(kb.cards, 1, 0))  # B=1
    assert kb.domain[2] == 0b001         # C forced to state "1"


def test_contradiction_after_forced_value(gate):
    kb = compile_kb(gate)
    token = kb.checkpoint()
    assert kb.assert_literal(literal_code(kb.cards, 0, 0))
    assert kb.assert_literal(literal_code(kb.cards, 1, 0))
    assert not kb.assert_literal(literal_code(kb.cards, 2, 1))  # C=2 conflicts with forced C=1
    kb.retract_to(token)
    assert kb.domain == compile_kb(gate).domain
    assert kb.checkpoint() == token


def test_empty_kb_accepts_everything():
    kb = KnowledgeBase([2, 3])
    assert kb.assert_literal(literal_code(kb.cards, 0, 1))
    assert kb.assert_literal(literal_code(kb.cards, 1, 2, False))
    assert kb.domain == [0b10, 0b011]


def test_negative_literal_shrinks_domain_and_collapses():
    kb = KnowledgeBase([3])
    assert kb.assert_literal(literal_code(kb.cards, 0, 0, False))
    assert kb.domain[0] == 0b110
    assert kb.assert_literal(literal_code(kb.cards, 0, 1, False))
    assert kb.domain[0] == 0b100  # singleton domain: a positive fix


def test_domain_empty_is_contradiction():
    kb = KnowledgeBase([2])
    assert kb.assert_literal(literal_code(kb.cards, 0, 0, False))
    assert kb.domain[0] == 0b10
    assert not kb.assert_literal(literal_code(kb.cards, 0, 1, False))


def test_asserting_satisfied_literal_is_noop(gate):
    kb = compile_kb(gate)
    assert kb.assert_literal(literal_code(kb.cards, 0, 0))
    snap, token = list(kb.domain), kb.checkpoint()
    assert kb.assert_literal(literal_code(kb.cards, 0, 0))
    assert (kb.domain, kb.checkpoint()) == (snap, token)


def test_cardinality_one_variable_is_known_from_the_start():
    # V0 has one state, so (V0 != 0) is false and the clause forces V1 = 0
    kb = KnowledgeBase([1, 2], [(literal_code([1, 2], 1, 0), literal_code([1, 2], 0, 0, False))])
    assert kb.domain == [0b1, 0b01]
    assert kb.audit() == []


# --- checkpoints -------------------------------------------------------


def test_checkpoints_unwind_lifo(gate):
    kb = compile_kb(gate)
    base = list(kb.domain)
    t1 = kb.checkpoint()
    kb.assert_literal(literal_code(kb.cards, 0, 0))
    mid = list(kb.domain)
    t2 = kb.checkpoint()
    kb.assert_literal(literal_code(kb.cards, 1, 0))
    kb.retract_to(t2)
    assert (kb.domain, kb.checkpoint()) == (mid, t2)
    kb.retract_to(t1)
    assert (kb.domain, kb.checkpoint()) == (base, t1)


def test_stale_token_rejected():
    kb = KnowledgeBase([2])
    token = kb.checkpoint()
    kb.assert_literal(literal_code(kb.cards, 0, 0))
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
            if not kb.assert_literal(literal_code(net.cards, var, state, rng.random() < 0.7)):
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
    kb = KnowledgeBase([2, 2], [(literal_code([2, 2], 0, 0), literal_code([2, 2], 1, 0))])
    assert kb.audit() == []
    kb.domain[1] = 0b10  # falsify (V1 = 0) behind the KB's back
    assert any("unasserted" in problem for problem in kb.audit())


def test_fuzz_against_replay_oracle():
    rng = random.Random(32)
    net = random_network(rng, max_vars=8, determinism=0.5)
    kb = compile_kb(net)
    # frames of (token, asserts committed inside that frame)
    frames: list[tuple[int, list[int]]] = [(kb.checkpoint(), [])]
    for _ in range(2000):
        action = rng.random()
        if action < 0.6:
            var = rng.randrange(net.n)
            state = rng.randrange(net.cards[var])
            literal = literal_code(net.cards, var, state, rng.random() < 0.7)
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
        assert kb.domain == oracle.domain


def networks_with_a_false_literal(rng, count):
    """Random deterministic networks in which a clause holds (V != 0) on a
    cardinality-1 V, a literal that is false from the start."""
    found = []
    while len(found) < count:
        net = random_network(rng, max_vars=8, determinism=0.5)
        if any(net.cards[literal_of(net.cards, code)[0]] == 1
               for clause in compile_kb(net).clauses for code in clause):
            found.append(net)
    return found


def test_fuzz_against_unit_closure_oracle():
    rng = random.Random(36)
    for net in networks_with_a_false_literal(rng, 6):
        kb = compile_kb(net)
        clauses = list(kb.clauses)
        # frames of (token, asserts committed inside that frame)
        frames: list[tuple[int, list[int]]] = [(kb.checkpoint(), [])]
        for _ in range(300):
            action = rng.random()
            surviving = [l for _, lits in frames for l in lits]
            if action < 0.6:
                var = rng.randrange(net.n)
                state = rng.randrange(net.cards[var])
                literal = literal_code(net.cards, var, state, rng.random() < 0.7)
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
            if not kb.assert_literal(literal_code(net.cards, var, state)):
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
    assert kb.domain == [0b11] * 300


def test_compile_propagates_a_long_deterministic_chain():
    limit = sys.getrecursionlimit()
    kb = compile_kb(copy_chain(1000, [0.0, 1.0]))  # the root's unit clause fixes all
    assert sys.getrecursionlimit() == limit
    assert kb.domain == [0b10] * 1000
    assert kb.audit() == []


# --- the compiled clause table ------------------------------------------

# (network, sha256 of format_clauses, n_clauses, n_literals, initial domain),
# recorded with the compiler that made an object per literal, which the
# code-only compiler must reproduce exactly; see pinned_networks.
PINNED_CLAUSES = [
    ("gate", "5be5a6b513283869bbb5eb0e38a53489a19ddca7753aa435a241a6ab6ed5da85", 4, 12, (3, 3, 7)),
    ("chain", "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855", 0, 0, (3, 3, 3)),
    ("copy300", "46844c3e0b0e26f4c2c52631f9d3c91ac0e258612079519f115877fd8a2b396d", 598, 1196, (3,) * 300),
    ("random0", "a8f9679dd31d76f8d24a4d46e7ca7eea8b22e627ff9c05ec5d7965355f94ba4c", 5, 7, (2, 2, 3, 2, 4, 3)),
    ("random1", "07a54992e4777a30be376eefb89f9ad5e7b2d3b84d63283f9c3bc6ec4cd003ae", 36, 110, (4, 1, 4, 2, 1, 1, 1, 1)),
    ("random2", "cefa1be3c7f44e52214ec63d3ebf5bad97713f2bee7e1f2747c7ce82aef7d9d0", 35, 113, (13, 1, 1, 7, 7, 2, 1)),
    ("random3", "ffdeee2e1593f2cc9df79b9ec057a876b49455ac79ba6c4a061b812129f2c08b", 31, 79, (4, 2, 1, 2, 3, 7, 3, 15)),
    ("random4", "e0cf4cc36c7533a007ddbc68bff32bd5b422bf361f782a416a7d6dddb5132fc1", 25, 65, (7, 2, 15, 3, 3, 5)),
    ("random5", "7ee78678a612c044cbeccc29cebda78d7c9af5274bc3e09c3837deaffacbfde7", 39, 125, (10, 3, 7, 3, 15, 7, 3)),
    ("random6", "be89c342caf2cf12908c632efe84fe81e86876e77a22fd3a66f70bc6df25c1eb", 19, 41, (2, 15, 7, 1, 1, 14, 2, 2)),
    ("random7", "018ed52ce3e65b6faf38987cacfdb9c01bc4793a94351e3773f89ab176db780c", 55, 199, (3, 5, 3, 7, 7, 6, 1)),
    ("random8", "f8df6f93db253013acadc9988a9fe383ade85b4dc31142bf731e32f34573435d", 13, 25, (1, 1, 6, 9, 15, 7)),
    ("random9", "037e3b65a40319ffe23a0d5c7f0ca9cba7528b41b4b49a70370e0170806a9c50", 9, 16, (2, 5, 2, 13)),
    ("random10", "7ca3502a368c9686bd0179cac1cdb9a3a31d693a50a4a4afb0fce1ae091f9c24", 65, 242, (2, 1, 7, 15, 7, 15, 7)),
    ("random11", "0ba9936e43644244f310333f67667bf3c2f4792186b2a7f38815a14dd0910d35", 67, 221, (9, 11, 2, 15, 1, 3, 3, 3)),
    ("random12", "b70eabcae641fb8f68e6cf8ef0a6e7c5ff0ca39344d1958a06ed7e78ec999289", 13, 22, (2, 1, 1, 1, 3, 9)),
    ("random13", "e2ef34b0079a771eb5c30bf6f44ef65e6db5384ec6ce576a92126a1dfed08fef", 44, 150, (4, 2, 1, 2, 9, 2)),
    ("random14", "a199a90aa518df812c0dd7cd5b31099066c3d0b5f977797b2ebbcb58b91d32ed", 1, 1, (15, 1)),
    ("random15", "b07cecf39ec83512220cc19f452af690a680104f013e81144f52480ccb6565b2", 11, 23, (3, 4, 2, 1, 7)),
    ("random16", "995cf89f4885d7fcaeddaf553d80a0ff5beb925300eca3a0961639ffefe1d7b8", 40, 141, (12, 15, 3, 1, 8)),
    ("random17", "3e54738a70433ce3eb060cec4120ad74a81dc8bd6e912099f39120f09486c460", 22, 57, (6, 2, 1, 2, 3, 6)),
    ("random18", "9d07bb0b2055c1c6ed16a93d75c0d800798d4af3b2fb55ea13177cae5c96078e", 24, 59, (7, 1, 5, 1, 4, 3, 7, 3)),
    ("random19", "7814a5440f1914f85150ad69ca7ce0ea70c37a0dcff3d905945b52a70bf0cc46", 16, 39, (1, 1, 1, 1, 5, 3, 4, 1)),
    ("random20", "bba71b2a4b3163d341df12bdc5ccb0dca2048bb96586356ec39ca2adf2377538", 8, 15, (3, 7, 15)),
    ("random21", "ad166344fe9cd024f5966f1ba4121d6ebe9e2bb8b68e5aa4da08f1389993de32", 17, 42, (3, 3, 15, 7, 7)),
    ("random22", "94416f4890163f6a14e5ebb7305a002e6be0f66820922f43eb52ed79788b76ea", 59, 215, (1, 3, 15, 4, 15, 1, 3)),
    ("random23", "62629ae076811a31ed81cc54773dc6859d099b9b31c17589d90ee7cfdfd57e0a", 4, 5, (1, 1, 2, 1)),
    ("random24", "0afe88be4165b506297f1f4ced50bbb7e205043d6d0a48c0307e9a760e0f2065", 41, 143, (2, 4, 1, 1, 1, 6, 1)),
    ("random25", "d8adfcb7f5295542fe7a3bccc223a36cd0dba15622b27277b5a581483d372a03", 4, 7, (4, 2)),
    ("random26", "f6ccf0fb5b3e64edd7d734c9cb359e85e172a76ecc673dfc3dc22c0a2c309e8d", 9, 16, (4, 2, 1, 5)),
    ("random27", "41eab47610a6e8f912ff0dfc0e1232bb092e632b3ec1e4cdc866abb504b9692a", 39, 122, (2, 2, 9, 3, 1, 7, 7, 15)),
    ("random28", "4b1f3d88bd4ac156e7b48d36fce15cfbfb05b0daac8c0bf35157fd64d8191b0f", 19, 46, (3, 15, 1, 8, 7, 1, 2, 4)),
    ("random29", "b011b8240ba217c6353ff15e5ddd364fbd962e6ee1c22dd7fad45b0968f718bf", 6, 8, (1, 4, 3, 2)),
    ("random30", "859fd40c7b741bd1e6cd3d2faae416b6d5e2b058f335231d9b8ad59a685a2c94", 39, 108, (8, 1, 3, 7, 15, 15, 3)),
    ("random31", "f63645a332aafef7c3eba112238b4de7cdedfa0f44713ad496939f59c6de6d3c", 20, 53, (1, 12, 8, 7)),
    ("random32", "89763dfc04caede5ca6f5cd147e512b44af7d63fe5326608da1b383d59af8f5b", 66, 229, (4, 3, 2, 7, 1, 5, 15)),
    ("random33", "4f13f4fbb21f12a20a8cf6d7bd85f06da6cbdc6ceb8794721c91bbba90f83f1f", 12, 30, (4, 7, 4, 3)),
    ("random34", "65e80581c45feeb53785e9e11ddf84c5a48ede2e6106bbaa34df67eb51b66d91", 21, 64, (1, 1, 2, 2, 10, 2, 1)),
    ("random35", "e925b00630e70ced936c09f2a5d688bb0f4a9514c35db87c22bae0e30e2118df", 2, 2, (4, 4)),
    ("random36", "93c7acea654eee21e8d4cea89e8a1439a5fbb37238f13af04330b000642a0392", 68, 248, (6, 1, 7, 6, 4, 15, 3, 7)),
    ("random37", "7d473bf42d22bd5e69daf4dc0b3f2baf13a2245ac1f3b3b0b1962b39cb0dd927", 2, 2, (5, 2)),
    ("random38", "111c87c39299eeb621dc9439f86aad63da1f1ea6b402f27e68f5da07ce82e3b2", 6, 12, (1, 3, 3, 10)),
    ("random39", "844a2f3688390ceca597b635d940c8e584c866a32aedd0c99fc27ed7cd29e328", 1, 1, (7, 8)),
]


def pinned_networks():
    """The networks of PINNED_CLAUSES, by name: the gate and chain fixtures,
    a 300-variable copy chain, and 40 deterministic random networks drawn
    in turn from one seeded generator."""
    nets = {"gate": gate_network(), "chain": chain_network(),
            "copy300": copy_chain(300, [0.5, 0.5])}
    rng = random.Random(38)
    for i in range(40):
        nets[f"random{i}"] = random_network(rng, determinism=0.5)
    return nets


def test_compiled_clause_table_is_pinned():
    nets = pinned_networks()
    assert len(nets) == len(PINNED_CLAUSES)
    for name, digest, n_clauses, n_literals, domain in PINNED_CLAUSES:
        net = nets[name]
        kb = compile_kb(net)
        text = kb.format_clauses(net)
        assert hashlib.sha256(text.encode()).hexdigest() == digest, name
        assert (kb.n_clauses, kb.n_literals, tuple(kb.domain)) == (n_clauses, n_literals, domain), name
