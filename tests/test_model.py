import itertools
import json
import math
import random

import pytest

from rcnet import (
    NetworkFormatError,
    NoisyOrCpt,
    expand_to_table,
    parse_evidence,
    parse_network,
)

from helpers import gate_doc, gate_network, serialize_network
from randnet import random_network


def net_from(doc):
    return parse_network(json.dumps(doc))


def test_single_variable_network():
    net = net_from({
        "variables": [{"name": "A", "states": ["1", "2"]}],
        "cpts": [{"child": "A", "parents": [], "kind": "table", "table": [0.4, 0.6]}],
    })
    assert net.n == 1
    assert net.cpts[0].prob(0, ()) == 0.4


def test_gate_table_layout(gate):
    c = gate.var_id("C")
    # row order: (A,B) = (1,1), (1,2), (2,1), (2,2) with B fastest
    assert gate.cpts[c].prob(1, (0, 1)) == 1.0   # Pr(C=2 | A=1, B=2)
    assert gate.cpts[c].prob(2, (1, 0)) == 0.0   # Pr(C=3 | A=2, B=1)
    assert gate.cpts[c].prob(1, (1, 0)) == 0.8
    assert gate.cpts[c].prob(0, (1, 1)) == 0.7


def test_row_sum_error():
    doc = gate_doc()
    doc["cpts"][0]["table"] = [0.5, 0.4]
    with pytest.raises(NetworkFormatError, match="sums to"):
        net_from(doc)


def test_unknown_parent_name():
    doc = gate_doc()
    doc["cpts"][2]["parents"] = ["A", "Z"]
    with pytest.raises(NetworkFormatError, match="unknown parent name"):
        net_from(doc)


def test_cycle_detected():
    doc = {
        "variables": [
            {"name": "A", "states": ["0", "1"]},
            {"name": "B", "states": ["0", "1"]},
        ],
        "cpts": [
            {"child": "A", "parents": ["B"], "kind": "table", "table": [0.5, 0.5, 0.5, 0.5]},
            {"child": "B", "parents": ["A"], "kind": "table", "table": [0.5, 0.5, 0.5, 0.5]},
        ],
    }
    with pytest.raises(NetworkFormatError, match="cycle"):
        net_from(doc)


def test_length_mismatch():
    doc = gate_doc()
    doc["cpts"][2]["table"] = doc["cpts"][2]["table"][:-1]
    with pytest.raises(NetworkFormatError, match="expected 12 entries"):
        net_from(doc)


def test_entry_outside_unit_interval():
    doc = gate_doc()
    doc["cpts"][0]["table"] = [1.2, -0.2]
    with pytest.raises(NetworkFormatError, match="outside"):
        net_from(doc)


def test_duplicate_and_missing_cpts():
    doc = gate_doc()
    doc["cpts"].append(doc["cpts"][0])
    with pytest.raises(NetworkFormatError, match="duplicate CPT"):
        net_from(doc)
    doc = gate_doc()
    doc["cpts"] = doc["cpts"][:2]
    with pytest.raises(NetworkFormatError, match="without a CPT"):
        net_from(doc)


def test_malformed_document():
    with pytest.raises(NetworkFormatError, match="malformed"):
        parse_network("{not json")
    with pytest.raises(NetworkFormatError):
        parse_network("[]")


def test_duplicate_state_labels():
    doc = gate_doc()
    doc["variables"][0]["states"] = ["1", "1"]
    with pytest.raises(NetworkFormatError, match="duplicate state"):
        net_from(doc)


def test_cardinality_one_is_legal():
    doc = {
        "variables": [
            {"name": "K", "states": ["only"]},
            {"name": "B", "states": ["0", "1"]},
        ],
        "cpts": [
            {"child": "K", "parents": [], "kind": "table", "table": [1.0]},
            {"child": "B", "parents": ["K"], "kind": "table", "table": [0.3, 0.7]},
        ],
    }
    net = net_from(doc)
    assert net.cpts[1].prob(1, (0,)) == 0.7


def noisy_doc(n_parents, parent_card, trigger, inhibitor, leak):
    states = [str(i) for i in range(parent_card)]
    variables = [{"name": f"X{i}", "states": states} for i in range(n_parents)]
    variables.append({"name": "Y", "states": ["f", "t"]})
    cpts = [
        {"child": f"X{i}", "parents": [], "kind": "table",
         "table": [1.0 / parent_card] * (parent_card - 1)
                  + [1.0 - (parent_card - 1) / parent_card]}
        for i in range(n_parents)
    ]
    cpts.append({
        "child": "Y", "parents": [f"X{i}" for i in range(n_parents)],
        "kind": "noisy_or", "trigger": [states[t] for t in trigger],
        "inhibitor": inhibitor, "leak": leak,
    })
    return {"variables": variables, "cpts": cpts}


def test_noisy_or_leak_only():
    net = net_from(noisy_doc(1, 2, [1], [0.5], 0.1))
    y = net.var_id("Y")
    # parent at the non-trigger state: only the leak can fire
    assert net.cpts[y].prob(1, (0,)) == pytest.approx(0.1, rel=1e-15)
    assert net.cpts[y].prob(0, (0,)) == 0.9


def test_noisy_or_two_triggered_parents():
    net = net_from(noisy_doc(2, 2, [1, 1], [0.5, 0.5], 0.0))
    y = net.var_id("Y")
    assert net.cpts[y].prob(0, (1, 1)) == 0.25


def test_noisy_or_child_not_binary():
    doc = noisy_doc(1, 2, [1], [0.5], 0.0)
    doc["variables"][-1]["states"] = ["f", "t", "x"]
    with pytest.raises(NetworkFormatError, match="must be binary"):
        net_from(doc)


def test_expand_no_parents():
    net = net_from(noisy_doc(0, 2, [], [], 0.3))
    table = expand_to_table(net, net.var_id("Y"))
    assert table.entries == (0.7, pytest.approx(0.3, rel=1e-15))


def test_expand_one_ternary_parent():
    net = net_from(noisy_doc(1, 3, [2], [0.4], 0.0))
    table = expand_to_table(net, net.var_id("Y"))
    # parent states 0 and 1 never trigger; state 2 is inhibited with 0.4
    assert table.entries == (1.0, 0.0, 1.0, 0.0, 0.4, pytest.approx(0.6))


def test_expand_budget_exceeded():
    # 2 * 3**14 cells, over EXPAND_MAX_CELLS; the size check runs before any expansion
    net = net_from(noisy_doc(14, 3, [0] * 14, [0.5] * 14, 0.1))
    with pytest.raises(ValueError, match="9565938 cells, exceeding the budget"):
        expand_to_table(net, net.var_id("Y"))


def test_expand_matches_noisy_or_everywhere():
    rng = random.Random(7)
    for _ in range(10):
        k = rng.randint(0, 6)
        card = rng.randint(2, 3)
        trigger = [rng.randrange(card) for _ in range(k)]
        inhibitor = [round(rng.random(), 6) for _ in range(k)]
        leak = round(rng.random() * 0.5, 6)
        net = net_from(noisy_doc(k, card, trigger, inhibitor, leak))
        y = net.var_id("Y")
        cpt = net.cpts[y]
        table = expand_to_table(net, y)
        for inst in itertools.product(*(range(card) for _ in range(k))):
            for state in (0, 1):
                assert table.prob(state, inst) == cpt.prob(state, inst)


def test_noisy_or_rows_sum_to_one():
    net = net_from(noisy_doc(3, 3, [0, 1, 2], [0.3, 0.6, 0.9], 0.2))
    cpt = net.cpts[net.var_id("Y")]
    assert isinstance(cpt, NoisyOrCpt)
    for inst in itertools.product(range(3), repeat=3):
        assert cpt.prob(0, inst) + cpt.prob(1, inst) == 1.0


def test_tabular_rows_sum_within_tolerance():
    rng = random.Random(11)
    for _ in range(20):
        net = random_network(rng, max_vars=6, determinism=0.4)
        for cpt in net.cpts:
            if not hasattr(cpt, "entries"):
                continue
            card = cpt.child_card
            for row in range(math.prod(cpt.parent_cards)):
                total = sum(cpt.entries[row * card : (row + 1) * card])
                assert abs(total - 1.0) <= 1e-9


def test_serialize_round_trip(gate):
    assert parse_network(serialize_network(gate)) == gate


def test_serialize_round_trip_noisy_or():
    net = net_from(noisy_doc(3, 3, [2, 0, 1], [0.123456789012, 0.5, 0.9], 0.0625))
    assert parse_network(serialize_network(net)) == net


def test_serialize_round_trip_random():
    rng = random.Random(3)
    for _ in range(15):
        net = random_network(rng, max_vars=8, determinism=0.3, noisy_or_prob=0.3)
        assert parse_network(serialize_network(net)) == net


def test_parse_evidence(gate):
    evidence = parse_evidence('{"C": "3", "A": "1"}', gate)
    assert evidence == {2: 2, 0: 0}
    with pytest.raises(NetworkFormatError, match="unknown variable"):
        parse_evidence('{"Z": "1"}', gate)
    with pytest.raises(NetworkFormatError, match="not a state"):
        parse_evidence('{"C": "9"}', gate)
