"""Regenerate the golden-equivalence fixtures.

The fixtures in this directory were produced by the *pre-batching*
simulator (the PR-5 seed) and pin its exact observable behaviour:
JSONL rows byte for byte, including response times, utilization and
logical event counts.  The batched/coalesced event core must reproduce
them unchanged — batching is an internal representation change, not a
semantics change.

Run from the repository root::

    PYTHONPATH=src python tests/golden/generate_fixtures.py

``classic_path.json`` goes below the rows: for three runs that never
take the analytic fast path it holds each clock's dispatched-event
count, each link's carried tuples and a digest of every processor's
busy intervals.  It was captured before the per-event path of
``repro.sim.process`` was fused (tests/sim/test_classic_pins.py).

Regenerating on purpose (after a *deliberate, documented* semantics
change) rewrites the files; tests/sim/test_golden_identity.py and
tests/sim/test_classic_pins.py then pin the new behaviour.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
from pathlib import Path

HERE = Path(__file__).resolve().parent


def sweep_spec():
    """The pinned runner grid: every strategy, mixed processor counts,
    a skewed point, and a second shape for structural breadth."""
    from repro.runner import SweepSpec

    return SweepSpec(
        shapes=("wide_bushy", "left_linear"),
        strategies=("SP", "SE", "RD", "FP"),
        processors=(20, 40),
        cardinalities=(2_000,),
        skew_thetas=(0.0, 0.7),
    )


def sweep_rows():
    from repro.runner import run_sweep

    run = run_sweep(sweep_spec(), workers=1, cache=False)
    return run.rows()


def workload_open(**overrides):
    """Open-loop poisson traffic, exclusive allocation (the fused path).

    ``overrides`` let the identity tests re-run the pinned workload
    with strictly-equivalent knobs (e.g. ``scheduler="fifo"``) and
    demand the same bytes.
    """
    from repro import api

    return api.run_workload(
        "wide_bushy",
        arrivals="poisson",
        rate=0.4,
        duration=40.0,
        seed=7,
        machine_size=40,
        policy="exclusive",
        strategy="FP",
        cardinality=2_000,
        **overrides,
    )


def workload_closed(**overrides):
    """Closed-loop traffic on a *shared* allocation policy plus a
    deadline — paths on which event coalescing must stand down."""
    from repro import api

    return api.run_workload(
        "paper",
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
        **overrides,
    )


@contextlib.contextmanager
def _recorded_machines():
    """Collect every :class:`SharedMachine` built inside the block, so
    a pin can read engine internals the result rows do not carry."""
    from repro.workload import engine

    machines = []
    original = engine.SharedMachine.__init__

    def recording(self, *args, **kwargs):
        original(self, *args, **kwargs)
        machines.append(self)

    engine.SharedMachine.__init__ = recording
    try:
        yield machines
    finally:
        engine.SharedMachine.__init__ = original


def _observables(machines):
    """Per machine: dispatched events of its clock, the tuples its link
    carried, and per processor the count and SHA-256 of the ``repr`` of
    its busy intervals (``repr`` keeps every float digit)."""
    return [
        {
            "events_dispatched": machine.clock.events_dispatched,
            "transferred": machine.network.transferred,
            "intervals": {
                str(ident): [
                    len(processor.intervals),
                    hashlib.sha256(repr(processor.intervals).encode()).hexdigest(),
                ]
                for ident, processor in sorted(machine.processors.items())
            },
        }
        for machine in machines
    ]


def classic_mixed():
    """Open-loop SP/SE/RD/FP traffic on a shared policy with the fast
    path off: every event runs through the classic loop."""
    from repro import api
    from repro.workload import QueryMix

    return api.run_workload(
        QueryMix.paper(cardinalities=(1_000,)),
        arrivals="poisson",
        rate=0.5,
        duration=40.0,
        seed=5,
        machine_size=40,
        policy="guideline",
        fast_path=False,
    )


def classic_cluster():
    """The coordinated cluster: a shard crash that lands mid-chunk, a
    straggler window installed after build, and hedged requests."""
    from repro import api
    from repro.faults import CrashFault, FaultSchedule, StallFault
    from repro.sim import MachineConfig

    config = MachineConfig(
        tuple_unit=0.001, process_startup=0.008, handshake=0.012,
        network_latency=0.05, batches=8,
    )
    faults = FaultSchedule(
        crashes=(CrashFault(1, at=13.37, repair_at=25.0),),
        stalls=(StallFault(0, start=8.0, end=20.0, factor=5.0),),
        seed=2,
    )
    return api.run_cluster(
        "wide_bushy", arrivals="poisson", rate=0.5, duration=40.0, seed=4,
        shards=3, machine_size=12, share=12, policy="exclusive",
        strategy="FP", cardinality=500, config=config, retry_budget=2,
        hedge=True, shard_faults=faults,
    )


def classic_lossy():
    """A link loss window (with extra delay) and straggler windows over
    the paper mix: the dropped-batch path of ``ConsumerGroup.deliver``
    and stalled chunks of both join classes."""
    from repro import api
    from repro.faults import FaultSchedule, LinkFault, StallFault
    from repro.workload import QueryMix

    faults = FaultSchedule(
        stalls=tuple(
            StallFault(processor, start=3.0, end=40.0, factor=3.0)
            for processor in (0, 7, 13, 19)
        ),
        link_faults=(LinkFault(start=5.0, end=30.0, extra_delay=0.2, loss=0.3),),
        seed=9,
    )
    return api.run_workload(
        QueryMix.paper(cardinalities=(1_000,)), arrivals="poisson",
        rate=0.3, duration=30.0, seed=6, machine_size=20,
        policy="exclusive", faults=faults,
    )


CLASSIC_RUNS = {
    "mixed": classic_mixed,
    "cluster": classic_cluster,
    "lossy": classic_lossy,
}


def classic_path_observables(name: str):
    with _recorded_machines() as machines:
        CLASSIC_RUNS[name]()
    return _observables(machines)


def main() -> None:
    from repro.runner.results import write_jsonl

    write_jsonl(HERE / "runner_sweep.jsonl", sweep_rows())
    workload_open().write_jsonl(HERE / "workload_open.jsonl")
    workload_closed().write_jsonl(HERE / "workload_closed.jsonl")
    pins = {name: classic_path_observables(name) for name in CLASSIC_RUNS}
    (HERE / "classic_path.json").write_text(json.dumps(pins, indent=1) + "\n")
    for name in ("runner_sweep", "workload_open", "workload_closed"):
        path = HERE / f"{name}.jsonl"
        print(f"{path.name}: {len(path.read_bytes())} bytes")
    print(f"classic_path.json: {(HERE / 'classic_path.json').stat().st_size} bytes")


if __name__ == "__main__":
    main()
