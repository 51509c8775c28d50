"""Per-run interval marks on the shared machine.

A hosted :class:`~repro.sim.run.ScheduleSimulation` records how long
each pooled processor's trace was when it registered that processor.
Attribution (``result()``) and abort refunds (``wasted_seconds``)
then scan only the trace past that mark.  These tests hold the marks
to two contracts:

* **Differential:** the marked scan returns exactly what a filter over
  the processor's *full* history by the run's label prefix returns —
  every interval list and every refunded float, bit for bit — across
  crashes with restarts, hosted fast-path rollbacks, and a hedged
  coordinated cluster with a shard crash and retries.  The only trace
  truncation (``turbo._rollback``) never cuts below a mark held by an
  in-flight run.
* **Flat cost:** a processor preloaded with a large foreign history is
  never iterated in full by attribution or refund.
"""

from repro import api
from repro.faults import CrashFault, FaultSchedule, StallFault
from repro.sim import MachineConfig, turbo
from repro.sim.run import ScheduleSimulation
from repro.workload import QuerySpec, RoundRobinPolicy, WorkloadEngine

FAST = MachineConfig(
    tuple_unit=0.001, process_startup=0.008, handshake=0.012,
    network_latency=0.05, batches=8,
)


def full_history_intervals(sim):
    """The reference attribution: scan each processor's whole trace."""
    prefix = sim.label_prefix
    return {
        ident: [
            span for span in proc.intervals if span[2].startswith(prefix)
        ]
        for ident, proc in sorted(sim.processors.items())
    }


def full_history_refund(engine, allocation, prefix):
    """The reference refund: allocation order, one sum per processor,
    each over the processor's whole trace."""
    wasted = 0.0
    for physical in allocation.processors:
        processor = engine.machine.processors[physical]
        wasted += sum(
            end - start
            for start, end, label in processor.intervals
            if label.startswith(prefix)
        )
    return wasted


class Audit:
    """Checks every collection, refund and rollback of a run against
    the full-history reference while it happens."""

    def __init__(self, monkeypatch):
        self.hosted = []
        self.collected = 0
        self.refunds = 0
        self.rollbacks = 0

        build = ScheduleSimulation._build

        def audited_build(sim):
            build(sim)
            if sim._pool is not None:
                self.hosted.append(sim)

        result = ScheduleSimulation.result

        def audited_result(sim):
            answer = result(sim)
            if sim._pool is not None:
                assert answer.intervals == full_history_intervals(sim)
                self.collected += 1
            return answer

        abort_active = WorkloadEngine._abort_active

        def audited_abort_active(engine, record, reason):
            _, sim, allocation, _ = engine._active[record.index]
            before = record.wasted_seconds
            out = abort_active(engine, record, reason)
            assert record.wasted_seconds == before + full_history_refund(
                engine, allocation, sim.label_prefix
            )
            self.refunds += 1
            return out

        rollback = turbo._rollback

        def audited_rollback(sim, marks):
            in_flight = [
                run
                for run in self.hosted
                if run.finished_at is None and run.aborted_reason is None
            ]
            for processor, mark, _busy in marks:
                for run in in_flight:
                    for ident, held in run.processors.items():
                        if held is processor:
                            assert mark >= run._marks[ident]
            self.rollbacks += 1
            rollback(sim, marks)

        monkeypatch.setattr(ScheduleSimulation, "_build", audited_build)
        monkeypatch.setattr(ScheduleSimulation, "result", audited_result)
        monkeypatch.setattr(
            WorkloadEngine, "_abort_active", audited_abort_active
        )
        monkeypatch.setattr(turbo, "_rollback", audited_rollback)


class TestDifferentialAttribution:
    def test_crash_restart_on_a_shared_pool(self, monkeypatch):
        audit = Audit(monkeypatch)
        faults = FaultSchedule(
            crashes=(
                CrashFault(processor=1, at=4.0, repair_at=9.0),
                CrashFault(processor=5, at=13.0, repair_at=20.0),
            ),
            seed=0,
        )
        result = api.run_workload(
            "wide_bushy", arrivals="poisson", rate=1.5, duration=25.0,
            seed=2, machine_size=12, policy="round_robin", share=6,
            strategy="SE", cardinality=500, config=FAST, faults=faults,
            recovery="restart", max_retries=3, retry_backoff=0.5,
        )
        assert audit.refunds > 0
        assert result.wasted_seconds() > 0
        assert any(record.attempts > 1 for record in result.records)
        assert audit.collected == len(result.completed()) > 0

    def test_hosted_fast_path_rollbacks(self, monkeypatch):
        audit = Audit(monkeypatch)
        turbo.clear_cache()
        result = api.run_workload(
            "wide_bushy", arrivals="poisson", rate=0.3, duration=120.0,
            seed=1, machine_size=12, policy="exclusive", strategy="FP",
            cardinality=1000, config=FAST,
        )
        assert audit.rollbacks > 0
        assert result.fast_path_queries > 0
        assert audit.collected == len(result.completed())

    def test_hedged_coordinated_cluster(self, monkeypatch):
        audit = Audit(monkeypatch)
        result = api.run_cluster(
            "wide_bushy", arrivals="poisson", rate=0.45, duration=120.0,
            seed=3, shards=4, machine_size=12, policy="exclusive",
            share=12, strategy="FP", cardinality=1000, placement="hash",
            config=FAST, retry_budget=2, hedge=50.0,
            # Shard-level faults: shard 0 crashes, shard 1 straggles.
            shard_faults=FaultSchedule(
                crashes=(CrashFault(0, at=20.0, repair_at=60.0),),
                stalls=(StallFault(1, start=0.0, end=500.0, factor=6.0),),
                seed=0,
            ),
        )
        assert result.resilience["hedges"] > 0
        assert result.resilience["retries"] > 0
        assert audit.refunds > 0
        assert audit.collected > 0


class CountingTrace(list):
    """A processor trace that counts every full iteration."""

    iterations = 0

    def __iter__(self):
        CountingTrace.iterations += 1
        return super().__iter__()


class TestFlatCost:
    FOREIGN = 100_000

    def test_attribution_and_refund_skip_foreign_history(self):
        """Preload a shared processor with a large foreign history,
        host one query on it and cancel a second one there mid-run:
        neither attribution nor the refund walks the foreign trace."""
        seen = []
        engine = WorkloadEngine(
            8, RoundRobinPolicy(8), config=FAST,
            on_query_done=lambda record: seen.append(
                CountingTrace.iterations
            ),
        )
        processor = engine.machine.processors[0]
        processor.intervals = CountingTrace(
            [(0.0, 1e-6, "Z:J0")] * self.FOREIGN
        )
        spec = QuerySpec("wide_bushy", 500, "SE")
        engine.cancel_at(0.5, 1)
        CountingTrace.iterations = 0
        result = engine.run_open([(0.0, spec), (0.0, spec)])
        # Sampled as each query turned terminal: after the hosted one's
        # attribution and the cancelled one's refund, before the
        # machine-wide busy-time report.
        assert seen == [0, 0]
        hosted, cancelled = result.records
        assert hosted.completed is not None
        assert cancelled.cancelled and cancelled.wasted_seconds > 0
        own = processor.intervals[self.FOREIGN:]
        assert hosted.result.intervals[0] == [
            span for span in own if span[2].startswith("Q0:")
        ]
