"""Cluster routing: the 1-shard golden identity, worker-count replay
invariance, and result aggregation."""

import importlib.util
import pathlib

import pytest

from repro import api
from repro.workload.metrics import percentile
from repro.cluster import (
    SHARD_SEED_STRIDE,
    Trace,
    shard_seed,
    split_clients,
    synthesize_trace,
)

GOLDEN_DIR = pathlib.Path(__file__).resolve().parent.parent / "golden"


@pytest.fixture(scope="module")
def generators():
    """The golden fixture-generator module, loaded from its file."""
    spec = importlib.util.spec_from_file_location(
        "golden_fixture_generators", GOLDEN_DIR / "generate_fixtures.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def fixture_bytes(name: str) -> bytes:
    data = (GOLDEN_DIR / f"{name}.jsonl").read_bytes()
    assert data
    return data


class TestSingleShardGoldenIdentity:
    """A 1-shard static cluster IS run_workload: same knobs, same
    bytes, pinned against the pre-cluster golden fixtures."""

    def test_workload_open_identical(self, tmp_path):
        out = tmp_path / "cluster_open.jsonl"
        api.run_cluster(
            "wide_bushy",
            shards=1,
            arrivals="poisson",
            rate=0.4,
            duration=40.0,
            seed=7,
            machine_size=40,
            policy="exclusive",
            strategy="FP",
            cardinality=2_000,
        ).write_jsonl(out)
        assert out.read_bytes() == fixture_bytes("workload_open")

    def test_workload_closed_identical(self, tmp_path):
        out = tmp_path / "cluster_closed.jsonl"
        api.run_cluster(
            "paper",
            shards=1,
            arrivals="closed",
            clients=3,
            think_time=5.0,
            queries_per_client=4,
            duration=500.0,
            seed=11,
            machine_size=40,
            policy="round_robin",
            share=16,
            strategy="SE",
            cardinality=1_000,
            deadline=400.0,
        ).write_jsonl(out)
        assert out.read_bytes() == fixture_bytes("workload_closed")

    def test_single_shard_rows_carry_no_shard_key(self):
        result = api.run_cluster(
            "wide_bushy", shards=1, rate=0.3, duration=10.0, seed=2,
        )
        assert all("shard" not in row for row in result.rows())


class TestReplayInvariance:
    def test_workers_do_not_change_the_bytes(self, fast_config, tmp_path):
        trace = synthesize_trace(
            "wide_bushy", rate=0.8, duration=40.0, seed=9
        )
        outputs = []
        for workers in (1, 4):
            result = api.run_cluster(
                trace=trace, shards=4, placement="hash", seed=9,
                machine_size=12, policy="exclusive", share=12,
                config=fast_config, workers=workers,
            )
            out = tmp_path / f"replay_w{workers}.jsonl"
            result.write_jsonl(out)
            outputs.append(out.read_bytes())
        assert outputs[0] == outputs[1]

    def test_replaying_the_same_trace_twice_is_identical(self, fast_config):
        trace = synthesize_trace(
            "wide_bushy", rate=0.8, duration=30.0, seed=4
        )
        runs = [
            api.run_cluster(
                trace=trace, shards=2, seed=4, machine_size=12,
                policy="exclusive", share=12, config=fast_config,
            ).rows()
            for _ in range(2)
        ]
        assert runs[0] == runs[1]


class TestAggregation:
    def run(self, fast_config, **overrides):
        options = dict(
            rate=0.5, duration=30.0, seed=3, shards=3,
            machine_size=12, policy="exclusive", share=12,
            config=fast_config,
        )
        options.update(overrides)
        return api.run_cluster("wide_bushy", **options)

    def test_rows_tag_their_shard(self, fast_config):
        result = self.run(fast_config)
        shards = {row["shard"] for row in result.rows()}
        assert shards <= {0, 1, 2} and len(shards) > 1

    def test_counts_sum_over_shards(self, fast_config):
        result = self.run(fast_config)
        assert result.submitted_count() == sum(
            len(report.rows) for report in result.shards
        )
        assert result.machine_size() == 36
        assert result.makespan == max(
            report.makespan for report in result.shards
        )

    def test_latency_stats_cover_all_shards(self, fast_config):
        result = self.run(fast_config)
        merged = result.latency_stats()
        assert merged["p50"] is not None
        per_shard = [
            result.latency_stats(shard=report.shard)["p50"]
            for report in result.shards
        ]
        assert min(p for p in per_shard if p is not None) <= merged["p50"]


    def test_trace_and_closed_are_exclusive(self, fast_config):
        """A trace is an open-loop stream; both cluster paths (plain,
        and coordinated by ``hedge`` or ``retry_budget``) refuse to
        serve it to closed-loop clients."""
        trace = synthesize_trace("wide_bushy", rate=0.5, duration=10.0, seed=1)
        for resilience in ({}, {"hedge": True}, {"retry_budget": 1}):
            with pytest.raises(ValueError, match="open-loop stream"):
                api.run_cluster(
                    trace=trace, arrivals="closed", clients=2, shards=2,
                    machine_size=12, share=12, config=fast_config,
                    **resilience,
                )

    @pytest.mark.parametrize(
        "resilience", [{}, {"retry_budget": 1}],
        ids=["pre_routed", "coordinated"],
    )
    def test_counts_and_latency_equal_per_shard_sums(
        self, fast_config, resilience
    ):
        """One row-derived accounting path on both cluster paths; on a
        pre-routed run the merged counts and latency stats are exactly
        the per-shard ones, summed in shard order."""
        result = self.run(
            fast_config, rate=1.5, queue_limit=1, shed="drop_newest",
            **resilience,
        )
        rows = result.rows()
        latencies = [
            row["latency"] for row in rows if row["completed"] is not None
        ]
        assert result.latency_stats() == {
            "mean": sum(latencies) / len(latencies),
            "p50": percentile(latencies, 50.0),
            "p95": percentile(latencies, 95.0),
            "p99": percentile(latencies, 99.0),
        }
        assert result.submitted_count() == len(rows)
        assert result.rejected_count() == sum(row["rejected"] for row in rows)
        assert result.failed_count() == sum(row["failed"] for row in rows)
        if resilience:
            return
        reports = result.shards
        assert len(reports) == 3
        assert result.rejected_count() > 0
        assert result.submitted_count() == sum(len(r.rows) for r in reports)
        assert result.completed_count() == sum(
            r.completed_count() for r in reports
        )
        assert result.useful_count() == sum(r.useful_count() for r in reports)
        per_shard = [lat for r in reports for lat in r.latencies()]
        assert per_shard == latencies
        shed = {}
        for report in reports:
            for row in report.rows:
                if row["shed"] is not None:
                    shed[row["shed"]] = shed.get(row["shed"], 0) + 1
        assert result.shed_counts() == shed


class TestEngineKnobIdentity:
    """Every shared engine knob reaches the shard's engine: a 1-shard
    static cluster with the knobs set away from their defaults still
    writes run_workload's bytes.  Each knob below changes the rows on
    its own, so a knob dropped on either path fails the comparison."""

    def test_knob_rich_single_shard_matches_run_workload(
        self, fast_config, tmp_path
    ):
        from repro.faults import FaultSchedule
        from repro.workload import QueryMix, QuerySpec

        mix = QueryMix((
            QuerySpec("wide_bushy", 400, "SE"),
            QuerySpec("left_linear", 1_000, "SE"),
        ))
        knobs = dict(
            duration=60.0, seed=5, machine_size=12, policy="exclusive",
            share=3, config=fast_config,
            max_concurrent=2, queue_limit=4,
            memory_budget_bytes=6 * 1024 * 1024,
            scheduler="wfq", pool_size=1, scheduling_cost=0.05,
            shed="drop_oldest", deadline=(20.0, 40.0),
            tenants=[
                {"name": "gold", "weight": 2.0, "rate": 0.15},
                {"name": "bronze", "rate": 0.15},
            ],
            faults=FaultSchedule.generate(
                machine_size=12, horizon=60.0, seed=5, crash_rate=0.08,
                repair_time=10.0,
            ),
            recovery="restart",
        )
        single = api.run_workload(mix, **knobs)
        cluster = api.run_cluster(mix, shards=1, **knobs)
        single.write_jsonl(tmp_path / "single.jsonl")
        cluster.write_jsonl(tmp_path / "cluster.jsonl")
        assert (tmp_path / "single.jsonl").read_bytes() == (
            tmp_path / "cluster.jsonl"
        ).read_bytes()
        rows = single.rows()
        assert any(row["shed"] for row in rows)
        assert any(row["aborts"] for row in rows)
        assert any(row["completed"] is not None for row in rows)
        assert {row.get("tenant") for row in rows} == {"gold", "bronze"}


class TestShardSeeds:
    def test_shard_zero_keeps_the_caller_seed(self):
        assert shard_seed(7, 0) == 7

    def test_other_shards_stride(self):
        assert shard_seed(7, 2) == 7 + 2 * SHARD_SEED_STRIDE
        assert len({shard_seed(7, s) for s in range(16)}) == 16


class TestSplitClients:
    def test_round_robin_split(self):
        assert split_clients(7, 3) == [3, 2, 2]
        assert sum(split_clients(10, 4)) == 10
        assert split_clients(2, 4) == [1, 1, 0, 0]


class TestTraceFromFile:
    def test_run_cluster_reads_a_trace_path(self, fast_config, tmp_path):
        trace = synthesize_trace("wide_bushy", rate=0.5, duration=20.0, seed=6)
        path = trace.write(tmp_path / "trace.json")
        from_path = api.run_cluster(
            trace=path, shards=2, seed=6, machine_size=12,
            policy="exclusive", share=12, config=fast_config,
        )
        in_memory = api.run_cluster(
            trace=trace, shards=2, seed=6, machine_size=12,
            policy="exclusive", share=12, config=fast_config,
        )
        assert from_path.rows() == in_memory.rows()


class TestTraceRecording:
    def test_from_workload_replays_identically(self, fast_config):
        """Recording a run's arrivals and replaying the trace through a
        1-shard static cluster reproduces the run."""
        knobs = dict(
            arrivals="poisson", rate=0.5, duration=30.0, seed=5,
            machine_size=12, policy="exclusive", share=12,
            strategy="FP", cardinality=1_000, config=fast_config,
        )
        original = api.run_workload("wide_bushy", **knobs)
        trace = Trace.from_workload(original, seed=5)
        replayed = api.run_cluster(
            trace=trace, shards=1, seed=5, machine_size=12,
            policy="exclusive", share=12, config=fast_config,
        )
        assert replayed.rows() == original.rows()
