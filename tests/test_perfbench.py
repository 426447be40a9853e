"""The benchmark's rounds against the current engine.

The traced round of perfbench/run.py wraps rcnet.engine.lookup and
subclasses the knowledge base to time each layer, so an engine change
can break it, or blind it, without failing any other test.  The untraced
round computes the end-to-end metrics that BENCHMARK.json gates, among
them the query heap peak under tracemalloc.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
RUN = ROOT / "perfbench" / "run.py"
END_TO_END = {m["name"] for m in json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]}


def small_round(workload: str, trace: int) -> dict:
    """The metrics of one correct one-second round on small inputs."""
    cmd = [sys.executable, str(RUN), "--workload", workload, "--small",
           "--seconds", "1", "--seed", "7", "--trace", str(trace)]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr[-2000:]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] is True
    assert result["failed"] == 0
    assert result["attempted"] > 0
    return result["metrics"]


@pytest.mark.parametrize("workload", ["grid-full", "linkage-kb-budget", "chain-prep-log"])
def test_untraced_benchmark_round_reports_the_gated_metrics(workload):
    metrics = small_round(workload, trace=0)
    assert END_TO_END <= set(metrics)
    assert metrics["query_peak_kb"]["value"] > 0


@pytest.mark.parametrize("workload", ["grid-full", "linkage-kb-budget", "chain-prep-log"])
def test_traced_benchmark_round_is_correct(workload):
    metrics = small_round(workload, trace=1)
    if workload == "grid-full":
        # the round reads the engine's work off the query results; a walk that
        # stopped counting its table fills would leave these at zero
        assert metrics["engine.rc_calls_per_query"]["value"] > 0
        assert metrics["engine.cache_misses_per_query"]["value"] > 0
    if workload == "linkage-kb-budget":
        # the round times the KB through its instance methods; an engine
        # that bypassed them would leave these at zero
        assert metrics["kb.asserts_per_query"]["value"] > 0
        assert metrics["kb.assert_s_per_query"]["value"] > 0
        # and the KB still prunes: a walk that stopped asking it where its
        # answer counts would run without a skip and call as often as KB-off
        assert metrics["kb.skips_per_query"]["value"] > 0
        assert metrics["kb.call_ratio"]["value"] > 1
