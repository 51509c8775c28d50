"""Smoke tests of the benchmark itself (not part of the tier-1 suite).

Run from the repository root::

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
sys.path.insert(0, str(ROOT / "perfbench"))
from run import WORKLOAD_NAMES as WORKLOADS  # noqa: E402
#: The end-to-end names every workload prints, with their units.
PRINTED = {
    "host_queries_per_s": "1/s", "host_peak_rss_mb": "MB", "setup_s": "s",
    "sim_goodput_qps": "1/s", "sim_latency_p50_s": "s", "sim_latency_tail_s": "s",
    "sim_unserved_share": "share",
}
PAPER_ONLY = {"paper_claims_held": "count", "paper_fig14_error_pct": "%"}
#: The README's per-layer predictions: layers each workload must enter
#: (non-zero) and layers it never enters (zero).  A wrapper in layers.py
#: that stops binding reads 0 and fails the first set.
ENTERED = {
    "paper_grid": {"runner.jobs", "runner.row_s", "core.plan.calls", "sim.build.calls",
                   "sim.turbo.attempts", "sim.turbo.taken", "workload.report.s"},
    "contended": {"core.plan.calls", "sim.build.calls", "sim.collect.s", "sim.loop.events",
                  "workload.allocate.calls", "workload.scheduling_decisions",
                  "workload.report.s"},
    "cluster_elastic": {"core.plan.calls", "sim.build.calls", "sim.collect.s",
                        "sim.turbo.attempts", "sim.turbo.hosted_rollbacks", "sim.loop.events",
                        "workload.allocate.calls", "cluster.placement.calls",
                        "cluster.shard.s_max", "cluster.dispatches", "cluster.scale_ups"},
    "cluster_failover": {"core.plan.calls", "sim.build.calls", "sim.collect.s",
                         "sim.loop.events", "workload.allocate.calls", "cluster.dispatches",
                         "cluster.hedges"},
}
NOT_ENTERED = {
    "paper_grid": {"sim.loop.events", "workload.allocate.calls", "cluster.dispatches",
                   "cluster.placement.calls"},
    "contended": {"runner.jobs", "cluster.dispatches", "cluster.placement.calls"},
    "cluster_elastic": {"runner.jobs", "cluster.hedges"},
    "cluster_failover": {"runner.jobs", "cluster.placement.calls", "cluster.shard.s_max",
                         "cluster.scale_ups"},
}


def bench(workload: str, trace: int, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "1",
         "--seconds", "1", "--trace", str(trace), "--smoke"],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )


def result_of(done: subprocess.CompletedProcess) -> dict:
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", WORKLOADS)
def test_untraced_run_prints_every_metric_and_passes_its_checks(workload):
    done = bench(workload, trace=0)
    result = result_of(done)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    expected = {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    printed = dict(PRINTED, **(PAPER_ONLY if workload == "paper_grid" else {}))
    for name, unit in printed.items():
        assert re.search(rf"^  {name}\s+\S+ {re.escape(unit)}(\s|$)", done.stdout, re.M), name
    assert "checks: all passed" in done.stdout


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_run_reports_every_layer_with_identical_rows(workload):
    done = bench(workload, trace=1)
    result = result_of(done)
    # run.py fails a run whose traced rows differ from the untraced rows.
    assert result["correct"] and result["failed"] == 0
    expected = {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    values = {name: entry["value"] for name, entry in result["metrics"].items()}
    assert values["trace.spans"] > 0
    assert {name for name in ENTERED[workload] if not values[name] > 0} == set()
    assert {name for name in NOT_ENTERED[workload] if values[name] != 0} == set()
    if workload == "paper_grid":
        # Every grid point takes the owned turbo path.
        assert values["sim.turbo.taken"] == values["runner.jobs"]


def test_without_the_program_it_fails_without_a_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = bench("contended", trace=0, cwd=tmp_path)
    assert done.returncode != 0
    assert not done.stdout.strip()


def test_gated_workloads_are_runnable():
    assert {w["name"] for w in BENCHMARK["workloads"]} <= set(WORKLOADS)
