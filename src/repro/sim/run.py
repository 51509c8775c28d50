"""Wiring a :class:`~repro.core.schedule.ParallelSchedule` onto the
simulated machine and running it.

This is the simulated counterpart of PRISMA's query execution engine
(Section 2.2): a single scheduler process serially initializes one
operation process per (join, processor) pair, the processes coordinate
among themselves through tuple streams, and the run ends when the last
process finishes.

A :class:`ScheduleSimulation` normally owns its clock and processors —
one query on a dedicated machine, exactly the paper's setting.  It can
instead be *hosted*: handed an external clock, a mapping of logical to
shared physical processors, a start time, and a completion callback,
so several queries run concurrently on one machine (the substrate of
:mod:`repro.workload`).  A hosted run with the identity mapping
starting at time zero takes the same code path and produces the same
event sequence as an owned run, which is what keeps single-query
results bit-identical.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import (
    Callable,
    Collection,
    Dict,
    FrozenSet,
    List,
    Mapping,
    Optional,
    Tuple,
)

from ..core.cost import Catalog, CostModel, JoinCost
from ..core.schedule import JoinTask, ParallelSchedule
from .events import SimulationClock
from .machine import MachineConfig, NetworkLink, Processor
from .metrics import SimulationResult, TaskTiming
from .process import (
    OperationProcess,
    PipeliningHashJoinProcess,
    SimpleHashJoinProcess,
)
from .skew import zipf_shares
from .streams import ConsumerGroup, Port


class QueryAbortedError(RuntimeError):
    """The query was crash-stopped mid-execution — by an injected
    fault, by its deadline (``reason="deadline"``), or by an explicit
    cancellation.

    Raised by :meth:`ScheduleSimulation.run` for an owned (single-query)
    run; a hosted run never raises — the workload engine observes the
    abort through its fault-recovery and lifecycle paths instead.
    """

    def __init__(self, reason: str, at: float):
        super().__init__(f"query aborted at t={at:.3f}s: {reason}")
        self.reason = reason
        self.at = at


@dataclass
class _TaskRuntime:
    """Mutable bookkeeping for one join task during the run."""

    task: JoinTask
    cost: JoinCost
    processes: List[OperationProcess] = field(default_factory=list)
    remaining_deps: int = 0
    dependents: List["_TaskRuntime"] = field(default_factory=list)
    done_processes: int = 0
    released_at: float = 0.0
    completion: Optional[float] = None
    output_group: Optional[ConsumerGroup] = None
    output_pipelined: bool = False
    #: Fragment share per process (uniform or Zipf), in process order.
    shares: List[float] = field(default_factory=list)


class ScheduleSimulation:
    """One simulated execution of a parallel schedule."""

    def __init__(
        self,
        schedule: ParallelSchedule,
        catalog: Catalog,
        config: Optional[MachineConfig] = None,
        cost_model: Optional[CostModel] = None,
        skew_theta: float = 0.0,
        *,
        clock: Optional[SimulationClock] = None,
        processor_pool: Optional[Mapping[int, Processor]] = None,
        start_at: float = 0.0,
        label_prefix: str = "",
        on_complete: Optional[Callable[["ScheduleSimulation"], None]] = None,
        network: Optional[NetworkLink] = None,
        skip_tasks: Collection[int] = (),
        deadline: Optional[float] = None,
    ):
        """``skew_theta`` relaxes the paper's non-skew assumption: the
        fragments of every operand follow Zipf(theta) shares instead of
        a uniform split (0.0 reproduces the paper).

        The keyword-only arguments host the run on a shared machine:
        ``clock`` is an external event loop (the run no longer drives
        it — call :meth:`result` from ``on_complete`` instead of
        :meth:`run`), ``processor_pool`` maps this schedule's logical
        processor ids to shared physical :class:`Processor` objects,
        ``start_at`` is the simulated time the scheduler begins
        claiming processes, and ``label_prefix`` distinguishes this
        query's busy intervals on shared processor traces.

        ``skip_tasks`` lists join tasks whose materialized results
        survive from an earlier attempt (the ``reassign`` recovery
        policy): they run no processes and instead replay their stored
        output at ``start_at``.  The set is closed under input sources
        (a reused task's feeders are reused too); the root is never
        reusable, and a reused task whose live consumer expects a
        *pipelined* input is rejected — pipelined (FP) dataflow holds
        its state in the crashed processes, so it must rebuild.

        ``deadline`` is an absolute simulated time (> ``start_at``);
        a query still unfinished then is aborted through the same
        inert-process machinery faults use
        (:class:`QueryAbortedError` with ``reason="deadline"``).  The
        deadline event is cancellable, so a deadline the query beats —
        and ``deadline=None`` — leave the run bit-for-bit identical to
        a deadline-free one.
        """
        self.schedule = schedule
        self.catalog = catalog
        self.config = config or MachineConfig.paper()
        if cost_model is None:
            cost_model = CostModel()
        self.cost_model = cost_model
        self.skew_theta = skew_theta
        self._owns_clock = clock is None
        self.clock = clock if clock is not None else SimulationClock()
        self._pool = processor_pool
        self.start_at = start_at
        self.label_prefix = label_prefix
        self.on_complete = on_complete
        self.finished_at: Optional[float] = None
        self.aborted_reason: Optional[str] = None
        self.aborted_at: Optional[float] = None
        #: Set by FaultInjector.attach_simulation when any perturbation
        #: (crash, stall, link fault) targets this run; keeps the
        #: analytic fast path (repro.sim.turbo) off perturbed runs.
        self.perturbed = False
        if deadline is not None and deadline <= start_at:
            raise ValueError(
                f"deadline {deadline} must lie after the query's start "
                f"({start_at}); an already-expired query should be shed "
                "at admission, not started"
            )
        self.deadline = deadline
        self._deadline_handle = None
        self._completed_tasks = 0
        self.processors: Dict[int, Processor] = {}
        #: Per pooled processor, the length of its shared trace when
        #: this run registered it: nothing before the mark can carry
        #: this run's unique ``label_prefix``, so attribution and
        #: refunds scan only the run's own lifetime, not the machine's
        #: whole history.
        self._marks: Dict[int, int] = {}
        self.network = (
            network
            if network is not None
            else NetworkLink(self.config.network_bandwidth)
        )
        self.skip_tasks: FrozenSet[int] = self._close_skips(skip_tasks)
        annotation = cost_model.annotate(schedule.tree, catalog)
        self.runtimes: List[_TaskRuntime] = [
            _TaskRuntime(task=task, cost=annotation[task.join])
            for task in schedule.tasks
        ]
        self._build()

    # -- construction -----------------------------------------------------

    def _close_skips(self, requested: Collection[int]) -> FrozenSet[int]:
        """Validate and close ``skip_tasks`` under input sources.

        If a task's result is being replayed, everything that only fed
        that task has nothing left to produce, so it is reused too.
        """
        if not requested:
            return frozenset()
        tasks = {task.index: task for task in self.schedule.tasks}
        for index in requested:
            if index not in tasks:
                raise ValueError(f"skip_tasks references unknown task {index}")
        skip = set(requested)
        stack = list(skip)
        while stack:
            task = tasks[stack.pop()]
            for spec in (task.left_input, task.right_input):
                if not spec.is_base and spec.source not in skip:
                    skip.add(spec.source)
                    stack.append(spec.source)
        root = self.schedule.tasks[-1].index
        if root in skip:
            raise ValueError(
                "the root task's result cannot be reused; nothing would run"
            )
        return frozenset(skip)

    def _processor(self, ident: int) -> Processor:
        if ident not in self.processors:
            if self._pool is not None:
                processor = self._pool[ident]
                # An empty prefix matches every label, so it must keep
                # scanning the whole history.
                self._marks[ident] = (
                    len(processor.intervals) if self.label_prefix else 0
                )
                self.processors[ident] = processor
            else:
                self.processors[ident] = Processor(ident)
        return self.processors[ident]

    def _build(self) -> None:
        # Who consumes each task's output, and through which side.
        consumer_of: Dict[int, Tuple[_TaskRuntime, str]] = {}
        for runtime in self.runtimes:
            for side, spec in (
                ("left", runtime.task.left_input),
                ("right", runtime.task.right_input),
            ):
                if not spec.is_base:
                    consumer_of[spec.source] = (runtime, side)

        # Create processes with their input ports.  Fragment shares
        # are uniform under the paper's assumption, Zipfian under skew.
        # Everything constant across a task's processes (coefficients,
        # work scale, name, completion hook) is computed once per task.
        ports_by_task_side: Dict[Tuple[int, str], List[Port]] = {}
        shares_of: Dict[int, List[float]] = {}
        base_coeff = self.cost_model.base_coeff
        intermediate_coeff = self.cost_model.intermediate_coeff
        result_coeff = self.cost_model.result_coeff
        for runtime in self.runtimes:
            task = runtime.task
            shares = zipf_shares(task.parallelism, self.skew_theta)
            shares_of[task.index] = shares
            runtime.shares = shares
            if task.index in self.skip_tasks:
                continue  # replayed from a surviving materialized result
            cost = runtime.cost
            side_params = []
            for side, spec, total in (
                ("left", task.left_input, cost.n1),
                ("right", task.right_input, cost.n2),
            ):
                if spec.is_base:
                    side_params.append((side, spec.mode, base_coeff, 0, total))
                else:
                    side_params.append(
                        (
                            side,
                            spec.mode,
                            intermediate_coeff,
                            self.schedule.tasks[spec.source].parallelism,
                            total,
                        )
                    )
            natural = self.cost_model.join_cost(
                cost.n1, cost.n2, cost.result, cost.left_base, cost.right_base
            )
            work_scale = cost.cost / natural if natural > 0 else 1.0
            name = f"{self.label_prefix}J{task.index}"
            on_done = lambda process, rt=runtime: self._process_done(rt, process)
            simple = task.algorithm == "simple"
            result_total = cost.result
            left_ports = ports_by_task_side.setdefault((task.index, "left"), [])
            right_ports = ports_by_task_side.setdefault((task.index, "right"), [])
            for proc_id, share in zip(task.processors, shares):
                sides = []
                for side, mode, coeff, producers, total in side_params:
                    sides.append(
                        Port(
                            side=side,
                            mode=mode,
                            coefficient=coeff,
                            expected_producers=producers,
                            local_total=total * share,
                        )
                    )
                left, right = sides
                left_ports.append(left)
                right_ports.append(right)
                kwargs = dict(
                    name=name,
                    processor=self._processor(proc_id),
                    clock=self.clock,
                    config=self.config,
                    left=left,
                    right=right,
                    result_local=result_total * share,
                    result_coeff=result_coeff,
                    output=None,             # wired afterwards
                    output_pipelined=False,  # wired afterwards
                    on_done=on_done,
                    work_scale=work_scale,
                )
                if simple:
                    process = SimpleHashJoinProcess(
                        build_side=task.build_side, **kwargs
                    )
                else:
                    process = PipeliningHashJoinProcess(**kwargs)
                runtime.processes.append(process)

        # Wire outputs: a task's processes share one consumer group.
        for runtime in self.runtimes:
            target = consumer_of.get(runtime.task.index)
            if target is None:
                continue  # root: result stays in local memories
            consumer_runtime, side = target
            if consumer_runtime.task.index in self.skip_tasks:
                # Closure guarantees the producer is skipped too: its
                # output is already folded into the consumer's result.
                continue
            spec = (
                consumer_runtime.task.left_input
                if side == "left"
                else consumer_runtime.task.right_input
            )
            if runtime.task.index in self.skip_tasks and spec.mode == "pipelined":
                raise ValueError(
                    f"task {runtime.task.index} cannot be reused: its output "
                    "is pipelined into a live consumer, and pipelined "
                    "dataflow state died with the crashed processes"
                )
            ports = ports_by_task_side[(consumer_runtime.task.index, side)]
            group = ConsumerGroup(
                ports,
                self.config.network_latency,
                shares=shares_of[consumer_runtime.task.index],
                network=self.network,
            )
            runtime.output_group = group
            runtime.output_pipelined = spec.mode == "pipelined"
            for process in runtime.processes:
                process.output = group
                process.output_pipelined = runtime.output_pipelined

        # Barriers.
        by_index = {rt.task.index: rt for rt in self.runtimes}
        for runtime in self.runtimes:
            runtime.remaining_deps = len(runtime.task.start_after)
            for dep in runtime.task.start_after:
                by_index[dep].dependents.append(runtime)

        # Serial scheduler initialization: one process after another,
        # in task order then processor order (Section 2.2).  Hosted
        # runs schedule cancellably and keep the handles: the epoch
        # fast path (repro.sim.turbo.execute_hosted) simulates these
        # events analytically and must then unschedule them.  A
        # cancellable entry that is never cancelled dispatches exactly
        # like a plain one, so the classic hosted path is unchanged.
        hosted = self._pool is not None
        self._build_handles = [] if hosted else None
        schedule_event = (
            self.clock.at_cancellable if hosted else self.clock.at
        )
        sequence = 0
        for runtime in self.runtimes:
            for process in runtime.processes:
                sequence += 1
                handle = schedule_event(
                    self.start_at + sequence * self.config.process_startup,
                    process.init_ready,
                )
                if hosted:
                    self._build_handles.append(handle)

        # Release unbarriered tasks at query start; replay the stored
        # results of reused tasks (they bypass barriers — the work that
        # produced them already happened in the aborted attempt).
        for runtime in self.runtimes:
            if runtime.task.index in self.skip_tasks:
                handle = schedule_event(
                    self.start_at, self._complete_skipped, runtime
                )
            elif runtime.remaining_deps == 0:
                handle = schedule_event(self.start_at, self._release, runtime)
            else:
                continue
            if hosted:
                self._build_handles.append(handle)

        # The deadline is a cancellable event: completion cancels it,
        # so a met deadline never dispatches, never counts, and never
        # advances the clock (bit-for-bit deadline-free identity).
        if self.deadline is not None:
            self._deadline_handle = self.clock.at_cancellable(
                self.deadline, self._deadline_expired
            )

        # Everything scheduled so far is _build's own; anything pushed
        # after this point (by tests, hosts or tools) disqualifies the
        # analytic fast path, which only replays _build's events.
        self._build_seq = self.clock._seq

    # -- run-time callbacks -------------------------------------------------

    def _release(self, runtime: _TaskRuntime) -> None:
        if runtime.task.index in self.skip_tasks:
            return  # replayed from memo; completes via _complete_skipped
        runtime.released_at = self.clock.now
        for process in runtime.processes:
            process.release()

    def _process_done(self, runtime: _TaskRuntime, process: OperationProcess) -> None:
        runtime.done_processes += 1
        if runtime.done_processes < len(runtime.processes):
            return
        total = sum(p.out_total for p in runtime.processes)
        self._task_complete(runtime, total, len(runtime.processes))

    def _complete_skipped(self, runtime: _TaskRuntime) -> None:
        """Replay a reused task's stored result at query start."""
        if self.aborted_reason is not None:
            return
        runtime.released_at = self.clock.now
        self._task_complete(
            runtime, runtime.cost.result, runtime.task.parallelism
        )

    def _task_complete(
        self, runtime: _TaskRuntime, total: float, producers: int
    ) -> None:
        runtime.completion = self.clock.now
        if runtime.output_group is not None and not runtime.output_pipelined:
            runtime.output_group.deliver_store(self.clock, total, producers)
        for dependent in runtime.dependents:
            dependent.remaining_deps -= 1
            if dependent.remaining_deps == 0:
                self._release(dependent)
        self._completed_tasks += 1
        if self._completed_tasks == len(self.runtimes):
            self.finished_at = self.clock.now
            if self._deadline_handle is not None:
                self._deadline_handle.cancel()
            if self.on_complete is not None:
                self.on_complete(self)

    # -- lifecycle and fault handling -------------------------------------

    def _deadline_expired(self) -> None:
        """The deadline fired before the query finished: crash-stop it
        through the same inert-process machinery faults use."""
        if self.finished_at is not None or self.aborted_reason is not None:
            return
        self.abort("deadline")

    def abort(self, reason: str) -> None:
        """Crash-stop the whole query: every process becomes inert, so
        all of its already-queued events are no-ops and the shared clock
        drains past the wreck instead of deadlocking on half-finished
        pipelines.  Idempotent; a no-op after normal completion."""
        if self.finished_at is not None or self.aborted_reason is not None:
            return
        self.aborted_reason = reason
        self.aborted_at = self.clock.now
        if self._deadline_handle is not None:
            self._deadline_handle.cancel()
        for runtime in self.runtimes:
            for process in runtime.processes:
                process.abort()

    # -- execution ------------------------------------------------------------

    def run(self) -> SimulationResult:
        """Run to completion and package the result."""
        if not self._owns_clock:
            raise RuntimeError(
                "hosted simulations share an external clock; drive that "
                "clock and collect the result from on_complete/result()"
            )
        from . import turbo

        if not turbo.execute(self):
            self.clock.run()
        if self.aborted_reason is not None:
            raise QueryAbortedError(self.aborted_reason, self.aborted_at or 0.0)
        return self.result()

    def result(self) -> SimulationResult:
        """Package the finished run as a :class:`SimulationResult`.

        Response time is relative to ``start_at`` — for an owned run
        exactly the paper's measure, for a hosted run the query's
        service time on the shared machine.  On shared processors only
        the busy intervals carrying this run's ``label_prefix`` are
        attributed to the query.
        """
        if self.aborted_reason is not None:
            raise QueryAbortedError(self.aborted_reason, self.aborted_at or 0.0)
        unfinished = [rt.task.index for rt in self.runtimes if rt.completion is None]
        if unfinished:
            raise RuntimeError(
                f"simulation drained its event queue with tasks {unfinished} "
                "incomplete; schedule wiring bug"
            )
        response = max(rt.completion for rt in self.runtimes) - self.start_at
        timings = []
        for runtime in self.runtimes:
            starts = [
                p.start_time for p in runtime.processes if p.start_time is not None
            ]
            timings.append(
                TaskTiming(
                    index=runtime.task.index,
                    label=runtime.task.join.label or str(runtime.task.index),
                    released=runtime.released_at,
                    first_work=min(starts) if starts else None,
                    completion=runtime.completion,
                )
            )
        root = self.runtimes[-1]
        return SimulationResult(
            strategy=self.schedule.strategy,
            processors=self.schedule.processors,
            response_time=response,
            config=self.config,
            task_timings=timings,
            intervals={
                ident: self.attributed_intervals(ident)
                for ident in sorted(self.processors)
            },
            operation_processes=sum(len(rt.processes) for rt in self.runtimes),
            stream_count=self.schedule.stream_count(),
            events=self.clock.events_dispatched,
            result_tuples=sum(p.out_total for p in root.processes),
        )

    def attributed_intervals(self, ident: int) -> List[Tuple[float, float, str]]:
        """Logical processor ``ident``'s busy intervals belonging to
        this run.

        An owned run is alone on its processors, so everything is its
        own.  On a shared pool the ``label_prefix`` identifies it, and
        only the trace past the run's registration mark is scanned:
        the cost follows the run's own lifetime, not the machine's.
        """
        processor = self.processors[ident]
        if self._pool is None:
            return list(processor.intervals)
        prefix = self.label_prefix
        return [
            span
            for span in processor.intervals[self._marks[ident]:]
            if span[2].startswith(prefix)
        ]


def simulate(
    schedule: ParallelSchedule,
    catalog: Catalog,
    config: Optional[MachineConfig] = None,
    *,
    cost_model: Optional[CostModel] = None,
    skew_theta: float = 0.0,
    faults=None,
    deadline: Optional[float] = None,
) -> SimulationResult:
    """Build and run a :class:`ScheduleSimulation` in one call.

    ``faults`` accepts a :class:`repro.faults.FaultSchedule` (or a
    prepared :class:`repro.faults.FaultInjector`); a crash that hits
    the query raises :class:`QueryAbortedError` — recovery policies
    live in the workload engine, not here.  ``None`` stays on the exact
    fault-free code path.

    ``deadline`` bounds the query's simulated response time: a run
    still unfinished then raises :class:`QueryAbortedError` with
    ``reason="deadline"``.  A deadline the query beats is a strict
    no-op.
    """
    sim = ScheduleSimulation(
        schedule, catalog, config, cost_model, skew_theta, deadline=deadline
    )
    if faults is not None:
        from ..faults import FaultInjector

        injector = (
            faults if isinstance(faults, FaultInjector) else FaultInjector(faults)
        )
        injector.attach_simulation(sim)
    return sim.run()
