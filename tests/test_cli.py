import json
import re
import sys
import time
import tracemalloc

import pytest

from rcnet import parse_evidence, parse_network, prepare_dtree, rc_query
from rcnet.dtree import LIVE, annotate, dtree_from_json, induced_order, iter_nodes
from rcnet.cli import main
from rcnet.spaces import ve_space

from helpers import (
    chain_doc,
    gate_doc,
    grid_doc,
    right_linear_shape,
    spine_chain_doc,
    star_doc,
)


@pytest.fixture
def gate_file(tmp_path):
    path = tmp_path / "gate.json"
    path.write_text(json.dumps(gate_doc()))
    return str(path)


def write_json(tmp_path, name, doc):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


def run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, argv):
    code, out, err = run(capsys, argv)
    assert code == 0, err
    return json.loads(out)


def test_query_zero_probability_evidence(capsys, tmp_path, gate_file):
    evidence = write_json(tmp_path, "e.json", {"C": "3"})
    report = run_json(capsys, ["query", "--net", gate_file, "--evidence", evidence])
    assert report["query"]["probability"] == 0.0
    assert report["network"] == gate_file
    assert report["dtree"]["width"] >= 1
    assert report["wall_time_s"] >= 0


def test_query_empty_evidence_is_one(capsys, gate_file):
    report = run_json(capsys, ["query", "--net", gate_file])
    assert report["query"]["probability"] == pytest.approx(1.0, abs=1e-9)


def test_query_kb_on_off_agree(capsys, tmp_path, gate_file):
    evidence = write_json(tmp_path, "e.json", {"C": "2"})
    off = run_json(capsys, ["query", "--net", gate_file, "--evidence", evidence])
    on = run_json(capsys, ["query", "--net", gate_file, "--evidence", evidence,
                           "--kb", "on"])
    assert on["query"]["probability"] == off["query"]["probability"]
    assert on["query"]["rc_calls"] <= off["query"]["rc_calls"]
    assert on["kb_size"] == {"clauses": 4, "literals": 12}
    assert off["kb_size"] is None


def test_query_cache_policies_agree(capsys, tmp_path, gate_file):
    evidence = write_json(tmp_path, "e.json", {"C": "2"})
    results = {
        cache: run_json(capsys, ["query", "--net", gate_file, "--evidence", evidence,
                                 "--cache", cache])["query"]["probability"]
        for cache in ("full", "none", "budget:1")
    }
    assert len(set(results.values())) == 1


def test_query_log_space(capsys, tmp_path, gate_file):
    evidence = write_json(tmp_path, "e.json", {"C": "2"})
    report = run_json(capsys, ["query", "--net", gate_file, "--evidence", evidence,
                               "--log-space", "on"])
    assert report["query"]["probability"] == pytest.approx(0.52, rel=1e-6)


def test_query_reports_an_answer_from_the_log_domain(capsys, tmp_path, gate_file):
    doc = spine_chain_doc(1199, seed=5)
    net_path = write_json(tmp_path, "spine.json", doc)
    # every variable in its second state: 10**-434.96, below any float
    evidence = write_json(tmp_path, "e.json", {v["name"]: "1" for v in doc["variables"]})
    spine = run_json(capsys, ["query", "--net", net_path, "--evidence", evidence,
                              "--log-space", "off"])["query"]
    assert spine["log_domain"] is True
    assert spine["log10"] == pytest.approx(-434.96, abs=0.005)
    gate = run_json(capsys, ["query", "--net", gate_file, "--log-space", "off"])["query"]
    assert gate["log_domain"] is False


def test_query_reports_the_cache_cells_it_allocated(capsys, tmp_path):
    doc = grid_doc(4, seed=2)
    observed = {"G0_1": "1", "G1_1": "0", "G2_0": "1", "G3_2": "0"}
    net_path = write_json(tmp_path, "grid.json", doc)
    evidence = write_json(tmp_path, "e.json", observed)
    full = run_json(capsys, ["query", "--net", net_path, "--evidence", evidence])
    none = run_json(capsys, ["query", "--net", net_path, "--evidence", evidence,
                             "--cache", "none"])
    net = parse_network(json.dumps(doc))
    expected = rc_query(net, prepare_dtree(net), parse_evidence(json.dumps(observed), net))
    cells = full["query"]["cache"]["cells"]
    assert cells == expected.cache_cells
    # the evidence fixes part of some context, so fewer cells than live ones
    assert 0 < cells < full["dtree"]["cache_cells_live"]
    assert none["query"]["cache"]["cells"] == 0


@pytest.mark.parametrize("kb", ["off", "on"])
def test_query_reports_cells_filled_per_node(capsys, tmp_path, kb):
    doc = grid_doc(4, seed=2)
    net_path = write_json(tmp_path, "grid.json", doc)
    evidence = write_json(tmp_path, "e.json", {"G0_1": "1", "G3_2": "0"})
    cache = run_json(capsys, ["query", "--net", net_path, "--evidence", evidence,
                              "--kb", kb])["query"]["cache"]
    per_node = cache["per_node"]
    assert per_node and all(key.isdecimal() for key in per_node)
    assert sum(per_node.values()) == cache["misses"] > 0
    root = prepare_dtree(parse_network(json.dumps(doc)))
    live = {str(node.id) for node in iter_nodes(root) if node.cache_state == LIVE}
    assert set(per_node) <= live


def test_query_kb_evidence_contradiction_flag(capsys, tmp_path, gate_file):
    evidence = write_json(tmp_path, "e.json", {"A": "1", "B": "1", "C": "2"})
    report = run_json(capsys, ["query", "--net", gate_file, "--evidence", evidence,
                               "--kb", "on"])
    assert report["query"]["probability"] == 0.0
    assert report["query"]["kb_evidence_contradiction"] is True


def test_query_writes_dtree(capsys, tmp_path, gate_file):
    out = tmp_path / "dtree.json"
    run_json(capsys, ["query", "--net", gate_file, "--dtree-out", str(out)])
    doc = json.loads(out.read_text())
    assert "left" in doc and "right" in doc


def test_query_bad_network_exits_2(capsys, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{broken")
    code, out, err = run(capsys, ["query", "--net", str(bad)])
    assert code == 2
    assert err.strip().startswith("error:")
    assert len(err.strip().splitlines()) == 1


def test_query_missing_file_exits_2(capsys, tmp_path):
    code, _, err = run(capsys, ["query", "--net", str(tmp_path / "nope.json")])
    assert code == 2
    assert "error:" in err


def test_query_bad_cache_policy_exits_2_before_reading(capsys, tmp_path):
    for cache in ("budget:-1", "budget:x", "half"):
        code, _, err = run(capsys, ["query", "--net", str(tmp_path / "nope.json"),
                                    "--cache", cache])
        assert code == 2
        assert "budget" in err or "cache policy" in err, err


@pytest.mark.parametrize("side, cells", [
    (24, 1_069_159_240),
    (30, 69_700_700_176),
    (52, 75_502_809_138_977_169_592),  # past 2**63: no table offset could hold it
])
def test_query_past_the_cell_limit_exits_2_before_any_table(capsys, tmp_path, side, cells):
    # under --cache full these grids' tables would take 7.97 GiB, 519 GiB and more
    net_path = write_json(tmp_path, "grid.json", grid_doc(side, 1))
    started = time.perf_counter()
    tracemalloc.start()
    try:
        code, out, err = run(capsys, ["query", "--net", net_path])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 2 and out == ""
    assert len(err.strip().splitlines()) == 1
    assert f"{cells:,} cells ({8 * cells:,} bytes)" in err and "budget:N" in err
    assert peak < 64 * 2**20
    assert time.perf_counter() - started < 30


def test_stats_star_fixture_no_live_cells(capsys, tmp_path):
    net_path = write_json(tmp_path, "star.json", star_doc(5))
    # build the right-linear dtree by exporting a shape document
    shape = right_linear_shape(5)

    def as_doc(s):
        if isinstance(s, str):
            return {"leaf": s}
        return {"left": as_doc(s[0]), "right": as_doc(s[1])}

    dtree_path = write_json(tmp_path, "dtree.json", as_doc(shape))
    report = run_json(capsys, ["stats", "--net", net_path, "--dtree-in", dtree_path])
    assert report["space"]["rc_cells_live"] == 0
    assert report["dtree"]["cache_cells_live"] == 0
    assert report["dtree"]["dead_caches"] == 4


def spine_dtree_text(n):
    """A right-linear dtree document for spine_chain_doc(n), built flat."""
    return ("".join(f'{{"left": {{"leaf": "X{i}"}}, "right": ' for i in range(1, n + 1))
            + '{"leaf": "Y"}' + "}" * n)


def test_stats_deep_dtree_round_trip(capsys, tmp_path):
    n = 1199  # 1,200 levels, deeper than the default recursion limit
    net_path = write_json(tmp_path, "spine.json", spine_chain_doc(n, seed=4))
    spine = tmp_path / "spine_dtree.json"
    spine.write_text(spine_dtree_text(n))
    first, second = tmp_path / "first.json", tmp_path / "second.json"
    limit = sys.getrecursionlimit()
    exported = run_json(capsys, ["stats", "--net", net_path, "--dtree-in", str(spine),
                                 "--dtree-out", str(first)])
    reimported = run_json(capsys, ["stats", "--net", net_path, "--dtree-in", str(first),
                                   "--dtree-out", str(second)])
    assert sys.getrecursionlimit() == limit
    assert reimported["dtree"] == exported["dtree"]
    assert second.read_text() == first.read_text()
    assert len(first.read_bytes()) < 200_000  # no indentation growing with depth


def test_stats_dtree_in_reports_its_induced_order_without_min_fill(capsys, tmp_path,
                                                                     monkeypatch):
    doc = grid_doc(4, seed=5)
    net_path = write_json(tmp_path, "grid.json", doc)
    dtree_path = tmp_path / "d.json"
    run_json(capsys, ["stats", "--net", net_path, "--dtree-out", str(dtree_path)])

    def refuse(network):
        raise AssertionError("min_fill_order called")

    monkeypatch.setattr("rcnet.cli.min_fill_order", refuse)
    monkeypatch.setattr("rcnet.dtree.min_fill_order", refuse)
    report = run_json(capsys, ["stats", "--net", net_path, "--dtree-in", str(dtree_path)])
    net = parse_network(json.dumps(doc))
    root = dtree_from_json(net, dtree_path.read_text())
    annotate(root)
    assert report["space"]["ve_cells"] == ve_space(net, induced_order(root))


def test_stats_chain_fixture_cells(capsys, tmp_path):
    net_path = write_json(tmp_path, "chain.json", chain_doc())
    report = run_json(capsys, ["stats", "--net", net_path])
    assert report["dtree"]["width"] == 1
    assert report["space"]["rc_cells_all"] == 2
    assert report["space"]["rc_cells_live"] == 0
    assert report["space"]["hugin_cells"] >= report["space"]["shenoy_shafer_cells"]


def test_stats_single_variable_minimal(capsys, tmp_path):
    net_path = write_json(tmp_path, "one.json", {
        "variables": [{"name": "A", "states": ["0", "1"]}],
        "cpts": [{"child": "A", "parents": [], "kind": "table", "table": [0.5, 0.5]}],
    })
    report = run_json(capsys, ["stats", "--net", net_path])
    assert report["dtree"]["width"] == 0
    assert report["space"]["rc_cells_all"] == 0
    assert report["space"]["shenoy_shafer_cells"] == 0
    assert report["space"]["hugin_cells"] == 2
    assert report["space"]["ve_cells"] == 2


def test_stats_dtree_exports(capsys, tmp_path, gate_file):
    out_json = tmp_path / "d.json"
    out_dot = tmp_path / "d.dot"
    run_json(capsys, ["stats", "--net", gate_file,
                      "--dtree-out", str(out_json), "--dtree-dot", str(out_dot)])
    assert json.loads(out_json.read_text())
    assert out_dot.read_text().startswith("digraph")


PREPARATION_STAGES = {"parse", "min_fill", "build", "annotate", "mark_dead", "space"}


def test_query_reports_height_and_stage_timings(capsys, tmp_path, gate_file):
    evidence = write_json(tmp_path, "e.json", {"C": "2"})
    report = run_json(capsys, ["query", "--net", gate_file, "--evidence", evidence,
                               "--kb", "on"])
    assert report["dtree"]["height"] == 3  # three leaves under a two-level fold
    timings = report["timings_s"]
    assert set(timings) == PREPARATION_STAGES | {"kb_compile", "query"}
    assert all(t >= 0 for t in timings.values())
    assert sum(timings.values()) <= report["wall_time_s"]
    off = run_json(capsys, ["query", "--net", gate_file])
    assert off["timings_s"]["kb_compile"] is None


def test_stats_reports_height_and_stage_timings(capsys, tmp_path):
    n = 199
    net_path = write_json(tmp_path, "spine.json", spine_chain_doc(n, seed=4))
    spine = tmp_path / "spine_dtree.json"
    spine.write_text(spine_dtree_text(n))
    report = run_json(capsys, ["stats", "--net", net_path])
    assert report["dtree"]["height"] == n + 1  # min-fill folds the chain into a spine
    timings = report["timings_s"]
    assert set(timings) == PREPARATION_STAGES | {"kb_compile"}
    assert timings["kb_compile"] is None
    assert all(timings[stage] >= 0 for stage in PREPARATION_STAGES)
    imported = run_json(capsys, ["stats", "--net", net_path, "--dtree-in", str(spine)])
    assert imported["dtree"]["height"] == n + 1
    assert imported["timings_s"]["min_fill"] is None
    assert imported["timings_s"]["build"] >= 0


def test_query_engine_failure_is_not_swallowed(monkeypatch, gate_file):
    # only format, validation and I/O errors exit 2; anything else reaches the
    # console script, which then exits 1
    def broken(*args, **kwargs):
        raise RuntimeError("engine down")

    monkeypatch.setattr("rcnet.cli.rc_query", broken)
    with pytest.raises(RuntimeError, match="engine down"):
        main(["query", "--net", gate_file])


def test_only_query_stats_and_kb_dump_are_commands(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["bench", "--instances", "1"])
    assert exc.value.code == 2
    assert "invalid choice: 'bench'" in capsys.readouterr().err
    with pytest.raises(SystemExit) as exc:
        main(["--help"])
    assert exc.value.code == 0
    commands = re.search(r"\{([^}]*)\}", capsys.readouterr().out).group(1)
    assert commands.split(",") == ["query", "stats", "kb-dump"]


def test_kb_dump_gate(capsys, gate_file):
    code, out, _ = run(capsys, ["kb-dump", "--net", gate_file])
    assert code == 0
    lines = set(out.strip().splitlines())
    assert lines == {
        "C=1 A!=1 B!=1",
        "C=2 A!=1 B!=2",
        "C!=3 A!=2 B!=1",
        "C!=3 A!=2 B!=2",
    }


def test_kb_dump_to_file(capsys, tmp_path, gate_file):
    out_path = tmp_path / "clauses.txt"
    code, _, _ = run(capsys, ["kb-dump", "--net", gate_file, "--out", str(out_path)])
    assert code == 0
    assert len(out_path.read_text().strip().splitlines()) == 4
