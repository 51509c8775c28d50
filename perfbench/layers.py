"""Outside-in layer tracing: wrappers installed at runtime around the
program's per-query (or coarser) entry points, and the per-layer table
computed from the spans they record.

Nothing under ``src/`` changes.  :meth:`Tracer.install` replaces a
function or method on its module or class with a wrapper that records
a span (name, start, end, parent, query id) and restores nothing: the
traced process exits when the run ends.  No per-event call
(``Watchdog.observe``, ``process.kick``, stream or machine methods) is
wrapped, because a wrapper there would measure a different program;
their cost stays inside ``sim.loop``'s self time.

The spans of one query share an identifier: a sweep job's label, or
``e<engine>.q<index>`` for a workload query (the engine's admission
call names it; builds, plans and allocations inside it inherit it, and
collection and hosted fast-path calls find it through their simulation).
"""

from __future__ import annotations

import functools
import json
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Dict, List, Optional

from repro import api, cluster
from repro.cluster import placement, router
from repro.core.strategies.base import Strategy
from repro.runner import execute
from repro.sim import events, run, turbo
from repro.workload import engine, policies


@dataclass
class Span:
    ident: int
    name: str
    start: float
    parent: Optional[int]
    query: Optional[str]
    end: float = 0.0
    child_s: float = 0.0          # time covered by direct children
    note: object = None           # per-layer detail (taken, granted, events)

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def self_s(self) -> float:
        return self.duration - self.child_s


class Tracer:
    """In-memory span recorder for one single-threaded process."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self._stack: List[Span] = []
        self._engines: Dict[int, int] = {}
        self._sim_query: Dict[int, Optional[str]] = {}

    # -- recording -----------------------------------------------------------

    def open(self, name: str, query: Optional[str] = None) -> Span:
        parent = self._stack[-1] if self._stack else None
        if query is None and parent is not None:
            query = parent.query
        span = Span(len(self.spans), name, time.perf_counter(),
                    parent.ident if parent else None, query)
        self.spans.append(span)
        self._stack.append(span)
        return span

    def close(self, span: Span) -> None:
        span.end = time.perf_counter()
        self._stack.pop()
        if span.parent is not None:
            self.spans[span.parent].child_s += span.duration

    def wrap(self, owner, attr: str, name: str,
             query: Optional[Callable] = None,
             note: Optional[Callable] = None,
             before: Optional[Callable] = None) -> None:
        """Replace ``owner.attr`` with a span-recording wrapper.

        ``query(args)`` names the query the call serves (default: the
        parent span's); ``before(args)`` captures state on entry and
        ``note(args, result, captured)`` stores the layer detail."""
        original = getattr(owner, attr)
        tracer = self

        @functools.wraps(original)
        def traced(*args, **kwargs):
            captured = before(args) if before else None
            span = tracer.open(name, query(args) if query else None)
            result = None
            try:
                result = original(*args, **kwargs)
                return result
            finally:
                tracer.close(span)
                if note is not None:
                    span.note = note(args, result, captured)

        setattr(owner, attr, traced)

    def install(self) -> None:
        """Wrap every layer boundary the per-layer table reads."""
        self.wrap(execute, "run_job", "runner.job", query=lambda a: a[0].label())
        self.wrap(Strategy, "schedule", "core.plan")
        self.wrap(run.ScheduleSimulation, "__init__", "sim.build",
                  before=lambda a: self._stack[-1].query if self._stack else None,
                  note=lambda a, r, query: self._sim_query.__setitem__(id(a[0]), query))
        self.wrap(run.ScheduleSimulation, "result", "sim.collect",
                  query=lambda a: self._sim_query.get(id(a[0])))
        self.wrap(turbo, "execute", "sim.turbo", note=lambda a, r, c: bool(r))
        self.wrap(turbo, "execute_hosted", "sim.turbo",
                  query=lambda a: self._sim_query.get(id(a[0])),
                  note=lambda a, r, c: r is not None)
        self.wrap(events.SimulationClock, "run", "sim.loop",
                  before=lambda a: a[0].events_dispatched,
                  note=lambda a, r, c: a[0].events_dispatched - c)
        self.wrap(engine.WorkloadEngine, "run_open", "workload.run")
        self.wrap(engine.WorkloadEngine, "_admit", "workload.admit",
                  query=lambda a: f"e{self._engine(a[0])}.q{a[1].index}")
        for policy in _subclasses(policies.AllocationPolicy):
            if "allocate" in vars(policy):
                self.wrap(policy, "allocate", "workload.allocate",
                          note=lambda a, r, c: r is not None)
        self.wrap(api, "run_cluster", "cluster.run")
        self.wrap(cluster, "run_cluster_shards", "cluster.route")
        self.wrap(cluster, "run_resilient_cluster", "cluster.coordinated")
        self.wrap(router, "run_shard", "cluster.shard")
        for policy in _subclasses(placement.PlacementPolicy):
            if "place" in vars(policy):
                self.wrap(policy, "place", "cluster.placement")

    def _engine(self, workload_engine) -> int:
        return self._engines.setdefault(id(workload_engine), len(self._engines))

    # -- output --------------------------------------------------------------

    def write(self, path: Path) -> None:
        """Write the spans as JSON Lines (called once, after the run)."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w", encoding="utf-8") as handle:
            for span in self.spans:
                handle.write(json.dumps({
                    "id": span.ident, "name": span.name, "parent": span.parent,
                    "query": span.query, "start": span.start, "end": span.end,
                    "self_s": span.self_s,
                }) + "\n")

    def layer_metrics(self, queries: int, counts: Dict[str, float]) -> Dict[str, float]:
        """The per-layer table from the spans, ``turbo.cache_stats()`` and
        the workload's own result counters (``counts``).  Layers a
        workload never enters are left out; ``BENCHMARK.json`` names the
        full table."""
        by_name: Dict[str, List[Span]] = {}
        for span in self.spans:
            by_name.setdefault(span.name, []).append(span)

        def spans(name: str) -> List[Span]:
            return by_name.get(name, [])

        def total(name: str) -> float:
            return sum(s.duration for s in spans(name))

        plans = len(spans("core.plan"))
        turbo_spans = spans("sim.turbo")
        taken = sum(1 for s in turbo_spans if s.note)
        loop_self = sum(s.self_s for s in spans("sim.loop"))
        loop_events = sum(s.note or 0 for s in spans("sim.loop"))
        allocations = spans("workload.allocate")
        collect = [s.duration for s in sorted(spans("sim.collect"), key=lambda s: s.start)]
        quarter = max(1, len(collect) // 4)
        first = 1000.0 * _mean(collect[:quarter])
        last = 1000.0 * _mean(collect[-quarter:])
        stats = turbo.cache_stats()
        metrics = {
            "runner.jobs": len(spans("runner.job")),
            "runner.row_s": sum(s.self_s for s in spans("runner.job")),
            "core.plan.calls": plans,
            "core.plan.s": total("core.plan"),
            "core.plan.per_query": plans / queries,
            "sim.build.calls": len(spans("sim.build")),
            "sim.build.s": total("sim.build"),
            "sim.collect.s": sum(collect),
            "sim.collect.ms_first_quarter": first,
            "sim.collect.ms_last_quarter": last,
            "sim.collect.last_over_first": last / first if first else 0.0,
            "sim.turbo.attempts": len(turbo_spans),
            "sim.turbo.taken": taken,
            "sim.turbo.s": sum(s.duration for s in turbo_spans),
            "sim.turbo.taken_share": taken / len(turbo_spans) if turbo_spans else 0.0,
            "sim.turbo.profile_hits": stats["profile_hits"],
            "sim.turbo.profile_misses": stats["profile_misses"],
            "sim.turbo.hosted_rollbacks": stats["hosted_rollbacks"],
            "sim.loop.events": loop_events,
            "sim.loop.self_s": loop_self,
            "sim.loop.events_per_s": loop_events / loop_self if loop_self > 0 else 0.0,
            "workload.allocate.calls": len(allocations),
            "workload.allocate.granted_share": (
                sum(1 for s in allocations if s.note) / len(allocations) if allocations else 0.0
            ),
            "workload.report.s": total("workload.report"),
            "cluster.placement.calls": len(spans("cluster.placement")),
            "cluster.placement.s": total("cluster.placement"),
            "cluster.shard.s_max": max((s.duration for s in spans("cluster.shard")), default=0.0),
            "trace.spans": len(self.spans),
        }
        metrics.update(counts)
        return metrics


def _subclasses(cls) -> List[type]:
    found, stack = [], [cls]
    while stack:
        current = stack.pop()
        found.append(current)
        stack.extend(current.__subclasses__())
    return found


def _mean(values: List[float]) -> float:
    return sum(values) / len(values) if values else 0.0
