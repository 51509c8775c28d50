"""Operation-process state machines.

PRISMA/DB executes a query as a set of *operation processes*: one
relational operation on one processor, coordinating among themselves
(Section 2.2).  This module models one such process for each of the
paper's two join algorithms.  A process:

1. becomes *ready* when the (serial) scheduler has initialized it;
2. is *released* when its strategy barriers (``start_after``) resolve;
3. at start, pays the stream handshakes of its network input ports
   (consumer side: one per producer process) and, for a pipelined
   output, of its output streams (producer side: one per consumer);
4. consumes operand tuples in CPU chunks, paying §4.3 unit costs, and
   emits result tuples (pipelined: forwarded per chunk; materialized:
   accumulated for delivery at task completion);
5. when both operands are drained, pays the send-setup handshakes of a
   materialized output and reports completion.

The two subclasses encode exactly what distinguishes the algorithms:
the simple hash-join refuses to touch probe tuples before its build
operand is complete, while the pipelining hash-join consumes both
sides symmetrically and produces matches proportional to the product
of arrived fractions — the source of the bushy-pipeline ramp-up delay
of Section 2.3.3.

These state machines are the *reference* semantics, and each
subclass's :meth:`~OperationProcess.kick` is where they live: one
method that chooses the next chunk, takes it from its port, counts
its output, occupies the CPU and pushes the completion onto the
clock's heap, with :meth:`Processor.acquire` and
:meth:`SimulationClock.at` inlined so that a contended or coordinated
run pays one or two Python calls per event.  The inlined copies must
stay operation-for-operation equal to the originals (same float
expressions, same event order, same guards); the classic-path pins
(``tests/sim/test_classic_pins.py``) check event counts, every busy
interval and link totals against the pre-fusion code.

Owned, fault-free, deadline-free runs are normally executed by the
analytic engine in :mod:`repro.sim.turbo`, which mirrors these
``kick`` methods and must reproduce every observable of this module
bit for bit (chunk boundaries, batch emission times, tie-breaks
between arrivals and completions, interval coalescing).  Any
behavioural change here therefore needs a matching change there — the
golden-identity and turbo-equivalence tests pin the pairing.  Turbo
additionally *caches* replayable timing profiles keyed on the inputs
these state machines read (algorithm, work scale, port modes and
coefficients, chunk policy), so any change to the chunking or
emission policy here must also bump
:data:`repro.sim.turbo.STRUCTURE_VERSION` — otherwise a stale cached
profile from before the change could replay the old semantics.
Inlining helpers into ``kick`` executes the same policy, so it is not
such a change and leaves the version alone.
"""

from __future__ import annotations

from heapq import heappush
from typing import Callable, Optional

from .events import SimulationClock
from .machine import MachineConfig, Processor
from .streams import ConsumerGroup, EPSILON, Port


class OperationProcess:
    """Base class: lifecycle, CPU chunking, and output bookkeeping."""

    #: Subclasses set this to the paper's algorithm name.
    algorithm = "?"

    def __init__(
        self,
        *,
        name: str,
        processor: Processor,
        clock: SimulationClock,
        config: MachineConfig,
        left: Port,
        right: Port,
        result_local: float,
        result_coeff: float,
        output: Optional[ConsumerGroup],
        output_pipelined: bool,
        on_done: Callable[["OperationProcess"], None],
        work_scale: float = 1.0,
    ):
        self.name = name
        self.processor = processor
        self.clock = clock
        self.config = config
        self.left = left
        self.right = right
        left.process = self
        right.process = self
        self.result_local = result_local
        self.result_coeff = result_coeff
        self.output = output
        self.output_pipelined = output_pipelined
        self.on_done = on_done
        # Scales tuple-work durations so a join with an explicit
        # ``work`` override (the Figure 2 example tree) spends exactly
        # that much relative CPU time, preserving the flow shape.
        self.work_scale = work_scale

        self.ready = False
        self.released = False
        self.started = False
        self.cpu_busy = False
        self.closing = False
        self.done = False
        self.aborted = False
        self.done_time: Optional[float] = None
        self.start_time: Optional[float] = None
        self.out_total = 0.0

    # -- lifecycle ------------------------------------------------------

    def abort(self) -> None:
        """Crash-stop this process: every already-queued event for it
        (chunk completions, handshake completions, batch arrivals that
        would kick it) becomes a no-op, so the clock drains cleanly
        instead of deadlocking while the process never reports done."""
        if not self.done:
            self.aborted = True

    def init_ready(self) -> None:
        """The scheduler finished initializing this process."""
        if self.aborted:
            return
        self.ready = True
        self._maybe_start()

    def release(self) -> None:
        """All strategy barriers of this process's task completed."""
        if self.aborted:
            return
        self.released = True
        self._maybe_start()

    def _maybe_start(self) -> None:
        if self.started or not (self.ready and self.released):
            return
        self.started = True
        self.start_time = self.clock.now
        self._prepare()
        # Hold the CPU through startup: injecting a base port fires
        # kick() re-entrantly, and work must not begin before both
        # ports are populated and the handshakes are paid.
        self.cpu_busy = True
        for port in (self.left, self.right):
            if port.mode == "base" and port.local_total > 0:
                port.inject(port.local_total, self.clock.now)
        handshakes = self._startup_handshakes()
        duration = handshakes * self.config.handshake
        if duration > 0:
            end = self.processor.acquire(self.clock.now, duration, f"{self.name}:hs")
            self.clock.at(end, self._handshake_done)
        else:
            self.cpu_busy = False
            self.kick()

    def _startup_handshakes(self) -> int:
        """Stream handshakes paid at start: consumer side of each
        network input port, plus producer side of a pipelined output."""
        count = 0
        for port in (self.left, self.right):
            if port.mode != "base":
                count += port.expected_producers
        if self.output is not None and self.output_pipelined:
            count += len(self.output.ports)
        return count

    def _handshake_done(self) -> None:
        if self.aborted:
            return
        self.cpu_busy = False
        self.kick()

    # -- work loop ------------------------------------------------------

    def _prepare(self) -> None:
        """Compute, once, the constants :meth:`kick` reads: fragment
        sizes and the batch count never change after build.  Called at
        start, so processes the analytic engine completes never pay
        for it."""
        raise NotImplementedError

    def kick(self) -> None:
        """Try to make progress; called on every arrival and completion.

        Each subclass implements it in one piece, with no helper calls
        on the common path: pick the next chunk, take it from its port,
        count its output, occupy the CPU (:meth:`Processor.acquire`,
        inlined) and push the completion onto the clock's heap
        (:meth:`SimulationClock.at`, inlined).
        """
        raise NotImplementedError

    def _chunk_done(self, port: Port, chunk: float, out: float) -> None:
        if self.aborted:
            return
        port.processed += chunk
        self.cpu_busy = False
        if out > 0:
            self.out_total += out
            if self.output is not None and self.output_pipelined:
                self.output.deliver(self.clock, out)
        self.kick()

    # -- completion -------------------------------------------------------

    def _maybe_finish(self) -> None:
        if self.done or self.cpu_busy:
            return
        # Port.drained for both ports, inlined: this runs whenever a
        # kick finds nothing to take.
        for port in (self.left, self.right):
            if port.pending > EPSILON or (
                port.mode != "base"
                and port.eos_received < port.expected_producers
            ):
                return
        if not self.closing:
            self.closing = True
            # Send setup for a stored (materialized) output: the
            # producer must open its n×m streams before it can ship the
            # stored fragments; paid before completion so a dependent
            # task's barrier sees it.
            if self.output is not None and not self.output_pipelined:
                duration = len(self.output.ports) * self.config.handshake
                if duration > 0:
                    self.cpu_busy = True
                    end = self.processor.acquire(
                        self.clock.now, duration, f"{self.name}:hs"
                    )
                    self.clock.at(end, self._handshake_done)
                    return
        self.done = True
        self.done_time = self.clock.now
        if self.output is not None and self.output_pipelined:
            self.output.deliver_eos(self.clock)
        self.on_done(self)


class SimpleHashJoinProcess(OperationProcess):
    """Two-phase build/probe join: probing blocked until build drained."""

    algorithm = "simple"

    def __init__(self, *, build_side: str = "left", **kwargs):
        super().__init__(**kwargs)
        if build_side not in ("left", "right"):
            raise ValueError("build_side must be 'left' or 'right'")
        self.build = self.left if build_side == "left" else self.right
        self.probe = self.right if build_side == "left" else self.left

    def _prepare(self) -> None:
        batches = self.config.batches
        self._build_cap = self.build.chunk_cap(batches)
        self._probe_cap = self.probe.chunk_cap(batches)

    def kick(self) -> None:
        if not self.started or self.cpu_busy or self.done or self.aborted:
            return
        build = self.build
        # ``not build.drained``, inlined: the build stream is still open
        # or has tuples left.
        if build.pending > EPSILON or (
            build.mode != "base"
            and build.eos_received < build.expected_producers
        ):
            port, cap = build, self._build_cap
        else:
            port, cap = self.probe, self._probe_cap
        pending = port.pending
        chunk = cap if cap < pending else pending  # Port.take
        if chunk <= 0:
            self._maybe_finish()
            return
        rest = pending - chunk
        port.pending = 0.0 if rest < EPSILON else rest
        probe_total = self.probe.local_total
        if port is build or probe_total <= 0:
            out = 0.0
        else:
            # Probing a complete hash table: results proportional to
            # probe progress (exactly the simple hash-join's output
            # timing).
            out = chunk * self.result_local / probe_total
        duration = (
            (chunk * port.coefficient + out * self.result_coeff)
            * self.config.tuple_unit
            * self.work_scale
        )
        # Processor.acquire and SimulationClock.at, inlined.  The
        # completion cannot lie in the past: start >= now, duration
        # >= 0, and stall factors are positive.
        if duration < 0:
            raise ValueError("negative duration")
        self.cpu_busy = True
        clock = self.clock
        processor = self.processor
        now = clock.now
        busy = processor.busy_until
        start = busy if busy > now else now
        if duration > 0:
            if processor.stalls:
                duration *= processor.stall_factor(start)
            end = start + duration
            processor.busy_until = end
            intervals = processor.intervals
            name = self.name
            if intervals:
                last = intervals[-1]
                if last[2] == name and -1e-12 < last[1] - start < 1e-12:
                    intervals[-1] = (last[0], end, name)
                else:
                    intervals.append((start, end, name))
            else:
                intervals.append((start, end, name))
        else:
            end = start + duration
            processor.busy_until = end
        heappush(
            clock._queue,
            (end, clock._seq, None, self._chunk_done, (port, chunk, out)),
        )
        clock._seq += 1


class PipeliningHashJoinProcess(OperationProcess):
    """Symmetric one-phase join: consumes both sides as they arrive."""

    algorithm = "pipelining"

    def _prepare(self) -> None:
        batches = self.config.batches
        self._left_cap = self.left.chunk_cap(batches)
        self._right_cap = self.right.chunk_cap(batches)
        left_total = self.left.local_total
        right_total = self.right.local_total
        # A new tuple matches the part of the other operand's hash
        # table built so far; every match is produced exactly once, by
        # whichever side is processed later.  Summed over the run this
        # yields exactly result_local tuples.  An empty operand makes
        # the density 0.0, so every chunk's output is exactly 0.0.
        if left_total <= 0 or right_total <= 0:
            self._density = 0.0
        else:
            self._density = self.result_local / (left_total * right_total)

    def kick(self) -> None:
        if not self.started or self.cpu_busy or self.done or self.aborted:
            return
        left = self.left
        right = self.right
        if left.pending > EPSILON:
            if right.pending > EPSILON:
                # Favour the operand that is furthest behind, mimicking
                # the symmetric algorithm's fair consumption of both
                # inputs; a tie goes to the left.
                total = left.local_total
                left_progress = left.processed / total if total > 0 else 1.0
                total = right.local_total
                right_progress = right.processed / total if total > 0 else 1.0
                if right_progress < left_progress:
                    port, cap, other = right, self._right_cap, left
                else:
                    port, cap, other = left, self._left_cap, right
            else:
                port, cap, other = left, self._left_cap, right
        elif right.pending > EPSILON:
            port, cap, other = right, self._right_cap, left
        else:
            self._maybe_finish()
            return
        pending = port.pending
        chunk = cap if cap < pending else pending  # Port.take
        rest = pending - chunk
        port.pending = 0.0 if rest < EPSILON else rest
        out = chunk * other.processed * self._density
        duration = (
            (chunk * port.coefficient + out * self.result_coeff)
            * self.config.tuple_unit
            * self.work_scale
        )
        # Processor.acquire and SimulationClock.at, inlined exactly as
        # in SimpleHashJoinProcess.kick.
        if duration < 0:
            raise ValueError("negative duration")
        self.cpu_busy = True
        clock = self.clock
        processor = self.processor
        now = clock.now
        busy = processor.busy_until
        start = busy if busy > now else now
        if duration > 0:
            if processor.stalls:
                duration *= processor.stall_factor(start)
            end = start + duration
            processor.busy_until = end
            intervals = processor.intervals
            name = self.name
            if intervals:
                last = intervals[-1]
                if last[2] == name and -1e-12 < last[1] - start < 1e-12:
                    intervals[-1] = (last[0], end, name)
                else:
                    intervals.append((start, end, name))
            else:
                intervals.append((start, end, name))
        else:
            end = start + duration
            processor.busy_until = end
        heappush(
            clock._queue,
            (end, clock._seq, None, self._chunk_done, (port, chunk, out)),
        )
        clock._seq += 1
