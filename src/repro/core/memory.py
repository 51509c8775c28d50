"""Memory accounting for parallel schedules.

PRISMA/DB is a main-memory system: each node has 16 MB, and memory
constraints surface twice in the paper —

* Section 4.2: "The total size of the 40K query was too large to run
  on fewer than 30 processors", which is why the 40K sweeps start at
  30; and
* Section 5: "RD uses less memory than FP because only one hash-table
  needs to be built" (the pipelining hash-join keeps a table per
  operand).

This module computes, for any schedule, the peak per-processor memory
demand over the schedule's execution phases: resident base fragments,
stored intermediate results, and the hash tables of the joins active
on each processor.  It exposes the two checks above as first-class
analyses: :func:`peak_memory_per_processor`,
:func:`minimum_processors`, and :func:`fits_in_memory`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

from .cost import Catalog, CostModel, JoinCost
from .schedule import ParallelSchedule

#: PRISMA/DB node memory (Section 2.1): 16 MB.
PRISMA_NODE_BYTES = 16 * 1024 * 1024

#: Wisconsin tuple width (Section 4.1).
DEFAULT_TUPLE_BYTES = 208


@dataclass(frozen=True)
class MemoryModel:
    """Parameters of the per-node memory estimate.

    ``hash_overhead`` scales tuple storage inside a hash table (bucket
    arrays, chains); ``runtime_bytes`` is the fixed footprint per node
    (operation-process pool, buffers, OS).  With the defaults, the 40K
    query's FP plan first fits at exactly 30 nodes — reproducing the
    Section 4.2 floor of the 40K sweeps — while every strategy fits the
    5K query at 20 nodes.
    """

    tuple_bytes: int = DEFAULT_TUPLE_BYTES
    hash_overhead: float = 1.2
    runtime_bytes: int = 2 * 1024 * 1024
    node_bytes: int = PRISMA_NODE_BYTES

    def table_bytes(self, tuples: float) -> float:
        """Bytes of a resident hash table holding ``tuples`` tuples."""
        return tuples * self.tuple_bytes * self.hash_overhead

    def stored_bytes(self, tuples: float) -> float:
        """Bytes of a stored (non-hashed) fragment."""
        return tuples * self.tuple_bytes


@dataclass
class TaskMemory:
    """Peak memory of one join task, per participating processor."""

    index: int
    hash_tables: int          # 1 for simple, 2 for pipelining
    table_tuples: float       # tuples resident in tables per processor
    bytes_per_processor: float


def _annotation(
    schedule: ParallelSchedule, catalog: Catalog, cost_model: CostModel
) -> Dict[int, JoinCost]:
    per_join = cost_model.annotate(schedule.tree, catalog)
    return {task.index: per_join[task.join] for task in schedule.tasks}


def task_memory(
    schedule: ParallelSchedule,
    catalog: Catalog,
    model: MemoryModel = MemoryModel(),
    cost_model: CostModel = CostModel(),
) -> List[TaskMemory]:
    """Hash-table memory demand of each task, per processor.

    The simple hash-join holds its build operand's fragment; the
    pipelining hash-join holds both operands' fragments (Section 2.3.2:
    "at the cost of using more memory to store a second hash-table").
    """
    costs = _annotation(schedule, catalog, cost_model)
    out: List[TaskMemory] = []
    for task in schedule.tasks:
        cost = costs[task.index]
        m = task.parallelism
        if task.algorithm == "pipelining":
            tables = 2
            tuples = (cost.n1 + cost.n2) / m
        else:
            tables = 1
            build_total = cost.n1 if task.build_side == "left" else cost.n2
            tuples = build_total / m
        out.append(
            TaskMemory(
                index=task.index,
                hash_tables=tables,
                table_tuples=tuples,
                bytes_per_processor=model.table_bytes(tuples),
            )
        )
    return out


def peak_memory_per_processor(
    schedule: ParallelSchedule,
    catalog: Catalog,
    model: MemoryModel = MemoryModel(),
    cost_model: CostModel = CostModel(),
) -> Dict[int, float]:
    """Peak bytes demanded on each processor over the whole execution.

    Components per processor:

    * its share of every base relation consumed by a task it runs (the
      ideal initial fragmentation stores base fragments locally);
    * its share of stored intermediate results that must coexist
      (a materialized result lives from producer completion until its
      consumer has drained it — conservatively counted against every
      overlap-possible task);
    * the hash tables of its tasks, with concurrent tasks summed and
      sequential tasks maxed.
    """
    costs = _annotation(schedule, catalog, cost_model)
    peak: Dict[int, float] = {p: 0.0 for t in schedule.tasks for p in t.processors}

    # Base fragments resident per processor.
    base_bytes: Dict[int, float] = {p: 0.0 for p in peak}
    for task in schedule.tasks:
        for side, spec in (("left", task.left_input), ("right", task.right_input)):
            if spec.is_base:
                total = costs[task.index].n1 if side == "left" else costs[task.index].n2
                share = model.stored_bytes(total / task.parallelism)
                for p in task.processors:
                    base_bytes[p] += share

    # Stored intermediates: a materialized producer's result occupies
    # its own processors until consumed; count it while the consumer
    # runs (the conservative window).
    stored_bytes: Dict[int, float] = {p: 0.0 for p in peak}
    for task in schedule.tasks:
        for spec in (task.left_input, task.right_input):
            if spec.mode == "materialized":
                producer = schedule.tasks[spec.source]
                share = model.stored_bytes(
                    costs[producer.index].result / producer.parallelism
                )
                for p in producer.processors:
                    stored_bytes[p] += share

    # Hash tables: sum over mutually concurrent tasks per processor.
    tables = {tm.index: tm for tm in task_memory(schedule, catalog, model, cost_model)}
    before = schedule.happens_before()
    for p in peak:
        tasks_here = [t for t in schedule.tasks if p in t.processors]
        concurrent_peak = 0.0
        for task in tasks_here:
            demand = tables[task.index].bytes_per_processor
            for other in tasks_here:
                if other.index != task.index and schedule.may_overlap(
                    task, other, before
                ):
                    demand += tables[other.index].bytes_per_processor
            concurrent_peak = max(concurrent_peak, demand)
        peak[p] = base_bytes[p] + stored_bytes[p] + concurrent_peak
    return peak


def fits_in_memory(
    schedule: ParallelSchedule,
    catalog: Catalog,
    model: MemoryModel = MemoryModel(),
    cost_model: CostModel = CostModel(),
) -> bool:
    """Whether every node's peak demand fits under its memory."""
    headroom = model.node_bytes - model.runtime_bytes
    peaks = peak_memory_per_processor(schedule, catalog, model, cost_model)
    return all(demand <= headroom for demand in peaks.values())


def minimum_processors(
    strategy,
    tree,
    catalog: Catalog,
    model: MemoryModel = MemoryModel(),
    cost_model: CostModel = CostModel(),
    upper: int = 512,
) -> Optional[int]:
    """Smallest processor count at which the strategy's plan fits.

    This reproduces the Section 4.2 observation that the 40K query was
    too large for fewer than 30 of PRISMA's nodes.  Returns ``None``
    when even ``upper`` processors do not fit.
    """
    from .strategies.base import Strategy

    assert isinstance(strategy, Strategy)
    from .trees import num_joins

    lower = max(1, num_joins(tree) if strategy.name == "FP" else 1)
    for processors in range(lower, upper + 1):
        try:
            schedule = strategy.schedule(tree, catalog, processors, cost_model)
        except ValueError:
            continue
        if fits_in_memory(schedule, catalog, model, cost_model):
            return processors
    return None


def memory_report(
    schedule: ParallelSchedule,
    catalog: Catalog,
    model: MemoryModel = MemoryModel(),
    cost_model: CostModel = CostModel(),
) -> str:
    """Human-readable per-schedule memory summary."""
    peaks = peak_memory_per_processor(schedule, catalog, model, cost_model)
    worst = max(peaks.values())
    headroom = model.node_bytes - model.runtime_bytes
    tables = task_memory(schedule, catalog, model, cost_model)
    lines = [
        f"{schedule.strategy} on {schedule.processors} processors:",
        f"  peak node demand {worst / 2**20:.2f} MB "
        f"(headroom {headroom / 2**20:.2f} MB) — "
        f"{'fits' if worst <= headroom else 'DOES NOT FIT'}",
        f"  hash tables: "
        + ", ".join(
            f"J{tm.index}:{tm.hash_tables}x{tm.table_tuples:.0f}t" for tm in tables
        ),
    ]
    return "\n".join(lines)
