"""The traced run's layer counts must reconcile with the run report.

Run from the repository root:

    python3 -m pytest perfbench/tests

Each workload is cut to a few thousand requests; `scale` still builds its
N=200,000 topology and needs about 2.7 GB of memory.
"""

import json
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

import run  # noqa: E402

run.import_sococ()

N_REQUESTS = 3_000
SEED = 7


@pytest.mark.parametrize("workload", sorted(run.WORKLOADS))
def test_layer_counts_reconcile_with_report(workload, tmp_path):
    p = run.workload_preset(workload, N_REQUESTS)
    plain = run.run_once(p, SEED, tmp_path / "plain", traced=False)
    traced = run.run_once(p, SEED, tmp_path / "traced", traced=True)
    assert plain.problems == [] and traced.problems == []

    probe = traced.probe
    calls = run.layer_calls(probe)
    unsatisfied = traced.outputs["unsatisfied"]
    assert calls["market.auction"] == N_REQUESTS
    assert calls["workload.stream"] == N_REQUESTS
    assert calls["metrics.record"] == N_REQUESTS
    assert calls["engine.commit"] == N_REQUESTS - unsatisfied
    assert calls["engine.release"] == traced.outputs["completed"]
    assert len(probe.won) == N_REQUESTS - unsatisfied
    assert probe.fail_no_leader + probe.fail_assembly + probe.fail_pool == unsatisfied
    assert traced.outputs == plain.outputs


def test_c1_bypasses_election_and_assembly(tmp_path):
    p = run.workload_preset("c1-pool", N_REQUESTS)
    probe = run.run_once(p, SEED, tmp_path, traced=True).probe
    calls = run.layer_calls(probe)
    assert calls["market.invite"] == calls["market.elect"] == calls["market.assemble"] == 0
    assert calls["market.sort_ids"] == N_REQUESTS
    assert probe.fail_no_leader == probe.fail_assembly == 0


def test_metric_names_match_benchmark_json(tmp_path):
    bench = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    p = run.workload_preset("c1-pool", N_REQUESTS)
    plain = [run.run_once(p, SEED, tmp_path, traced=False)]
    traced = [run.run_once(p, SEED, tmp_path, traced=True)]
    for declared, measured in (
        (bench["end_to_end"], run.end_to_end(plain)),
        (bench["per_layer"], run.per_layer(plain, traced)),
    ):
        assert [(m["name"], m["unit"]) for m in declared] == [
            (name, unit) for name, (_, unit) in measured.items()
        ]
