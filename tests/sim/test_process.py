"""Operation-process state machines, driven directly."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim import (
    MachineConfig,
    PipeliningHashJoinProcess,
    Port,
    Processor,
    SimulationClock,
)
from repro.sim.process import SimpleHashJoinProcess
from repro.sim.streams import ConsumerGroup


def make_port(mode, producers, total):
    coeff = 1.0 if mode == "base" else 2.0
    return Port(
        side="x", mode=mode, coefficient=coeff,
        expected_producers=producers, local_total=total,
    )


def build_process(
    cls,
    left_mode="base",
    right_mode="base",
    left_total=100.0,
    right_total=100.0,
    result_local=100.0,
    config=None,
    producers=1,
    **kwargs,
):
    clock = SimulationClock()
    processor = Processor(0)
    done = []
    process = cls(
        name="J0",
        processor=processor,
        clock=clock,
        config=config or MachineConfig.ideal(batches=4),
        left=make_port(left_mode, 0 if left_mode == "base" else producers, left_total),
        right=make_port(right_mode, 0 if right_mode == "base" else producers, right_total),
        result_local=result_local,
        result_coeff=2.0,
        output=None,
        output_pipelined=False,
        on_done=done.append,
        **kwargs,
    )
    return process, clock, processor, done


class TestLifecycle:
    def test_needs_both_init_and_release(self):
        process, clock, _, done = build_process(PipeliningHashJoinProcess)
        process.init_ready()
        clock.run()
        assert not process.started
        process.release()
        clock.run()
        assert process.started and process.done
        assert done == [process]

    def test_base_operands_processed_to_completion(self):
        process, clock, proc, _ = build_process(
            PipeliningHashJoinProcess, left_total=50.0, right_total=50.0,
            result_local=25.0,
        )
        process.init_ready()
        process.release()
        clock.run()
        # Work: 50*1 + 50*1 + 25*2 = 150 units at 1s each.
        assert proc.busy_time() == pytest.approx(150.0)
        assert process.out_total == pytest.approx(25.0)

    def test_zero_work_process_finishes_immediately(self):
        process, clock, proc, done = build_process(
            PipeliningHashJoinProcess, left_total=0.0, right_total=0.0,
            result_local=0.0,
        )
        process.init_ready()
        process.release()
        clock.run()
        assert process.done
        assert proc.busy_time() == 0.0


class TestChunkGuards:
    @pytest.mark.parametrize(
        "cls", [SimpleHashJoinProcess, PipeliningHashJoinProcess]
    )
    def test_negative_chunk_duration_rejected(self, cls):
        process, clock, _, _ = build_process(cls, work_scale=-1.0)
        process.init_ready()
        with pytest.raises(ValueError, match="negative duration"):
            process.release()

    @pytest.mark.parametrize(
        "cls", [SimpleHashJoinProcess, PipeliningHashJoinProcess]
    )
    def test_aborted_process_ignores_queued_chunk(self, cls):
        process, clock, proc, done = build_process(cls)
        process.init_ready()
        process.release()
        busy = proc.busy_time()
        assert busy > 0  # the first chunk is queued
        process.abort()
        clock.run()
        assert proc.busy_time() == busy
        assert not process.done and done == []


class TestSimpleHashJoinProcess:
    def test_probe_buffered_until_build_drained(self):
        """Arriving probe tuples must wait for the build phase."""
        process, clock, proc, _ = build_process(
            SimpleHashJoinProcess,
            left_mode="materialized", right_mode="pipelined",
            left_total=40.0, right_total=40.0, result_local=40.0,
            config=MachineConfig.ideal(batches=2),
        )
        process.init_ready()
        process.release()
        # Probe (right) data arrives before any build data.
        process.right.receive(40.0, 1, now=0.0)
        clock.run()
        assert process.right.processed == 0.0
        assert not process.done
        # Now the build operand arrives and completes; probing follows.
        process.left.receive(40.0, 1, now=clock.now)
        clock.run()
        assert process.left.processed == pytest.approx(40.0)
        assert process.right.processed == pytest.approx(40.0)
        assert process.done
        assert process.out_total == pytest.approx(40.0)

    def test_output_proportional_to_probe_progress(self):
        process, clock, _, _ = build_process(
            SimpleHashJoinProcess,
            left_total=10.0, right_total=100.0, result_local=50.0,
            config=MachineConfig.ideal(batches=10),
        )
        process.init_ready()
        process.release()
        clock.run()
        assert process.out_total == pytest.approx(50.0)

    def test_build_side_right(self):
        process, clock, _, _ = build_process(
            SimpleHashJoinProcess, build_side="right",
            left_total=100.0, right_total=10.0, result_local=5.0,
        )
        assert process.build is process.right
        assert process.probe is process.left
        process.init_ready()
        process.release()
        clock.run()
        assert process.done

    def test_bad_build_side(self):
        with pytest.raises(ValueError):
            build_process(SimpleHashJoinProcess, build_side="middle")


class TestPipeliningHashJoinProcess:
    def test_output_total_exact(self):
        process, clock, _, _ = build_process(
            PipeliningHashJoinProcess,
            left_total=60.0, right_total=40.0, result_local=30.0,
            config=MachineConfig.ideal(batches=8),
        )
        process.init_ready()
        process.release()
        clock.run()
        assert process.out_total == pytest.approx(30.0)

    @given(
        st.lists(st.floats(0.5, 30.0), min_size=1, max_size=8),
        st.lists(st.floats(0.5, 30.0), min_size=1, max_size=8),
        st.floats(0.0, 100.0),
    )
    @settings(max_examples=40, deadline=None)
    def test_property_output_conserved_under_any_arrival_pattern(
        self, left_batches, right_batches, result_local
    ):
        """Whatever the interleaving and batch sizes, the total output
        equals result_local (the matching-density invariant)."""
        process, clock, _, _ = build_process(
            PipeliningHashJoinProcess,
            left_mode="pipelined", right_mode="pipelined",
            left_total=sum(left_batches), right_total=sum(right_batches),
            result_local=result_local,
            config=MachineConfig.ideal(batches=3),
        )
        process.init_ready()
        process.release()
        t = 0.0
        for i, batch in enumerate(left_batches):
            eos = 1 if i == len(left_batches) - 1 else 0
            clock.at(t, process.left.receive, batch, eos, t)
            t += 0.7
        t = 0.3
        for i, batch in enumerate(right_batches):
            eos = 1 if i == len(right_batches) - 1 else 0
            clock.at(t, process.right.receive, batch, eos, t)
            t += 1.1
        clock.run()
        assert process.done
        assert process.out_total == pytest.approx(result_local, rel=1e-9, abs=1e-9)

    def test_consumes_both_sides_fairly(self):
        process, clock, _, _ = build_process(
            PipeliningHashJoinProcess,
            left_total=100.0, right_total=100.0, result_local=0.0,
            config=MachineConfig.ideal(batches=10),
        )
        process.init_ready()
        process.release()
        clock.run(until=50.0)
        # After half the work, both sides should have progressed.
        assert process.left.processed > 0
        assert process.right.processed > 0


class TestHandshakes:
    def test_consumer_side_handshakes_charged_at_start(self):
        config = MachineConfig.ideal(batches=2).scaled(handshake=3.0)
        process, clock, proc, _ = build_process(
            PipeliningHashJoinProcess,
            left_mode="pipelined", right_mode="base",
            left_total=0.0, right_total=0.0, result_local=0.0,
            config=config, producers=5,
        )
        process.init_ready()
        process.release()
        process.left.receive(0.0, 5, now=0.0)
        clock.run()
        # 5 producers on the network port, none on the base port.
        assert proc.busy_time_for("J0:hs") == pytest.approx(15.0)

    def test_producer_side_handshakes_for_materialized_output(self):
        config = MachineConfig.ideal(batches=2).scaled(handshake=2.0)
        clock = SimulationClock()
        processor = Processor(0)
        consumer_ports = [make_port("materialized", 1, 0.0) for _ in range(4)]
        done = []
        process = SimpleHashJoinProcess(
            name="J0", processor=processor, clock=clock, config=config,
            left=make_port("base", 0, 10.0), right=make_port("base", 0, 10.0),
            result_local=10.0, result_coeff=2.0,
            output=ConsumerGroup(consumer_ports, latency=0.0),
            output_pipelined=False,
            on_done=done.append,
        )
        process.init_ready()
        process.release()
        clock.run()
        # Send setup: 4 consumers × 2.0 before completion.
        assert processor.busy_time_for("J0:hs") == pytest.approx(8.0)
        assert done
