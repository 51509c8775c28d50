"""The benchmark's four workloads: inputs, the timed call, checks, answers.

Each workload is a :class:`Workload` with four steps, all driven by
``worker.py`` in a fresh process:

``make_inputs(seed, smoke)``
    Generates every input from the seed (jobs, arrivals, traces, fault
    schedules).  Counted in ``setup_s``.
``run(inputs)`` then ``report(raw, inputs, scratch)``
    The timed call: the simulation itself, then the report phase a
    user would run on its result (statistics, ``rows()``, JSONL to a
    scratch file), which returns an :class:`Outcome`.
``check(outcome, inputs)``
    Output checks; each failure is a message.  Not timed.
``layer_counts(outcome)``
    Counters the program already reports on its result objects, for the
    traced run's per-layer table.

Every run is serial and single-process (``workers=1`` for the sweep
runner, ``workers=None`` for clusters) with the runner's disk cache off.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence

from repro import api
from repro.bench.paperdata import PAPER_FIGURE_14, claims_for_figure
from repro.bench.workloads import all_paper_experiments
from repro.cluster import Trace
from repro.cluster.chaos import check_invariants
from repro.faults import CrashFault, FaultSchedule, StallFault
from repro.runner import SweepSpec, run_sweep, to_sweep_result
from repro.sim import MachineConfig
from repro.workload import QueryMix, QuerySpec, TenantSpec, WorkloadEngine, make_policy
from repro.workload.arrivals import poisson_arrivals
from repro.workload.metrics import percentile

#: The coarse machine the cluster benchmarks (``bench_cluster.py``,
#: ``bench_resilience.py``) use, so one cluster query costs milliseconds.
FAST = MachineConfig(
    tuple_unit=0.001, process_startup=0.008, handshake=0.012,
    network_latency=0.05, batches=8,
)

#: Relative tolerance on result cardinalities: the simulator moves
#: fluid tuple counts as floats (e.g. 4999.999999999999).
CARDINALITY_RTOL = 1e-9
#: Absolute tolerance of the latency decomposition check.
DECOMPOSITION_ATOL = 1e-9
#: Section 4.4 claims recorded for Figures 9-13, each checked at 5K and 40K.
PAPER_CLAIMS = 38


@dataclass
class Outcome:
    """What one timed call produced."""

    queries: int                 # simulated queries (grid points) finished
    rows: List[Dict]             # the program's deterministic result rows
    answers: Dict[str, Dict]     # simulated answers: name -> {value, unit, ...}
    result: object = None        # the program's own result object
    extra: Dict = field(default_factory=dict)


@dataclass(frozen=True)
class Workload:
    name: str
    make_inputs: Callable[[int, bool], Dict]
    run: Callable[[Dict], object]
    report: Callable[[object, Dict, Path], Outcome]
    check: Callable[[Outcome, Dict], List[str]]
    layer_counts: Callable[[Outcome], Dict[str, float]]


# -- shared answer helpers ---------------------------------------------------


def tail_latency(values: Sequence[float]) -> Dict:
    """The highest of these percentiles with at least ten samples beyond it."""
    for q in (99.9, 99.0, 95.0, 90.0, 75.0, 50.0):
        value = percentile(values, q)
        beyond = sum(1 for v in values if v > value)
        if beyond >= 10:
            return {"value": value, "unit": "s", "percentile": q, "beyond": beyond}
    return {"value": max(values), "unit": "s", "percentile": 100.0, "beyond": 0}


def latency_answers(latencies: Sequence[float], useful: int, span: float,
                    arrivals: int) -> Dict[str, Dict]:
    """The simulated answers every workload reports."""
    return {
        "sim_goodput_qps": {"value": useful / span, "unit": "1/s"},
        "sim_latency_p50_s": {"value": percentile(latencies, 50.0), "unit": "s"},
        "sim_latency_tail_s": tail_latency(latencies),
        "sim_unserved_share": {"value": (arrivals - useful) / arrivals, "unit": "share"},
    }


def unserved(row: Dict) -> bool:
    """Failed, shed, rejected or deadline-missed: anything but a useful completion."""
    return row["completed"] is None or bool(row["deadline_missed"])


def terminal_violations(rows: Sequence[Dict]) -> List[str]:
    """Each row must end in exactly one terminal state."""
    bad = []
    for row in rows:
        states = (row["completed"] is not None, bool(row["rejected"]),
                  bool(row["failed"]), bool(row["cancelled"]))
        if sum(states) != 1:
            bad.append(f"query {row['query']} ended in {sum(states)} terminal states")
    return bad


# -- paper_grid --------------------------------------------------------------


def grid_inputs(seed: int, smoke: bool) -> Dict:
    """Figures 9-14: 5 shapes x {5K, 40K} x SP/SE/RD/FP x the paper's
    processor counts.  Deterministic, so ``seed`` is unused."""
    del seed
    experiments = all_paper_experiments()
    if smoke:
        experiments = experiments[:2]
    jobs = []
    for experiment in experiments:
        jobs.extend(SweepSpec(
            shapes=(experiment.shape,),
            processors=tuple(experiment.processor_counts),
            cardinalities=(experiment.cardinality,),
        ).expand())
    return {"experiments": experiments, "jobs": jobs}


def grid_run(inputs: Dict):
    return run_sweep(inputs["jobs"], workers=1, cache=False)


def grid_report(run, inputs: Dict, scratch: Path) -> Outcome:
    rows = run.rows()
    held = counted = 0
    errors = []
    for experiment in inputs["experiments"]:
        mine = [r for r in rows
                if (r["shape"], r["cardinality"]) == (experiment.shape, experiment.cardinality)]
        sweep = to_sweep_result(mine, experiment)
        for claim in claims_for_figure(experiment.figure):
            counted += 1
            held += claim.holds(sweep)
        paper_seconds = PAPER_FIGURE_14[(experiment.shape, experiment.size_label)][0]
        errors.append(abs(sweep.best_cell()[0] - paper_seconds) / paper_seconds)
    run.write_jsonl(scratch / "paper_grid.jsonl")
    times = [r["metrics"]["response_time"] for r in rows]
    answers = latency_answers(times, len(rows), sum(times), len(rows))
    answers["paper_claims_held"] = {"value": held, "unit": "count", "of": counted}
    answers["paper_fig14_error_pct"] = {
        "value": 100.0 * sum(errors) / len(errors), "unit": "%",
        "max": 100.0 * max(errors), "note": "calibration target, not held out",
    }
    return Outcome(len(rows), rows, answers, run, {"claims_counted": counted})


def grid_check(outcome: Outcome, inputs: Dict) -> List[str]:
    failures = []
    if len(outcome.rows) != len(inputs["jobs"]):
        failures.append(f"{len(outcome.rows)} rows for {len(inputs['jobs'])} grid points")
    for row in outcome.rows:
        metrics = row["metrics"]
        if metrics.get("aborted"):
            failures.append(f"{row['shape']}/{row['strategy']}/{row['processors']} aborted")
            continue
        expected = row["cardinality"]
        if abs(metrics["result_tuples"] - expected) > CARDINALITY_RTOL * expected:
            failures.append(
                f"{row['shape']}/{row['strategy']}/{row['processors']}: "
                f"{metrics['result_tuples']} result tuples, expected {expected}"
            )
    expected_claims = PAPER_CLAIMS if len(inputs["experiments"]) == 10 else None
    counted = outcome.extra["claims_counted"]
    if expected_claims is not None and counted != expected_claims:
        failures.append(f"{counted} paper claims counted, expected {expected_claims}")
    held = outcome.answers["paper_claims_held"]["value"]
    if held != counted:
        failures.append(f"{counted - held} of {counted} paper claims do not hold")
    return failures


def grid_counts(outcome: Outcome) -> Dict[str, float]:
    return {"runner.jobs": len(outcome.rows)}


# -- contended ---------------------------------------------------------------

#: Offered load on the shared 40-processor machine, queries per simulated
#: second: about 90% of measured capacity for the 5K paper mix.
CONTENDED_RATE = 0.09
CONTENDED_TENANTS = {
    "interactive": TenantSpec("interactive", weight=2.0, deadline=60.0),
    "batch": TenantSpec("batch", weight=1.0),
}


def contended_inputs(seed: int, smoke: bool) -> Dict:
    """Two equal-rate Poisson tenants merged into one stream of
    ``rounds`` x 20 arrivals.  Each round holds every (shape, strategy)
    of the 5K paper mix once, in seeded order, so the seed moves arrival
    times, order and tenancy but not the mix's composition."""
    rng = random.Random(seed)
    rounds = 1 if smoke else 3
    specs: List[QuerySpec] = []
    for _ in range(rounds):
        batch = list(QueryMix.paper(cardinalities=(5_000,)).specs)
        rng.shuffle(batch)
        specs.extend(batch)
    tenants = ["interactive", "batch"] * (len(specs) // 2)
    rng.shuffle(tenants)
    pairs, now = [], 0.0
    for spec, tenant in zip(specs, tenants):
        now += rng.expovariate(CONTENDED_RATE)
        pairs.append((now, replace(spec, tenant=tenant)))
    return {"pairs": pairs, "seed": seed}


def contended_run(inputs: Dict):
    engine = WorkloadEngine(
        40, make_policy("guideline"),
        scheduler="wfq", shed="deadline_aware",
        tenants=CONTENDED_TENANTS, deadline_seed=inputs["seed"],
    )
    return engine.run_open(inputs["pairs"])


def contended_report(result, inputs: Dict, scratch: Path) -> Outcome:
    rows = result.rows()
    result.write_jsonl(scratch / "contended.jsonl")
    useful = sum(1 for row in rows if not unserved(row))
    answers = latency_answers(result.latencies(), useful, result.makespan, len(inputs["pairs"]))
    extra = {
        "throughput": result.throughput(),
        "goodput": result.goodput(),
        "tenant_counts": {t: len(result.tenant_records(t)) for t in result.tenants()},
    }
    return Outcome(len(rows), rows, answers, result, extra)


def contended_check(outcome: Outcome, inputs: Dict) -> List[str]:
    rows = outcome.rows
    failures = terminal_violations(rows)
    if len(rows) != len(inputs["pairs"]):
        failures.append(f"{len(rows)} rows for {len(inputs['pairs'])} arrivals")
    for row in rows:
        if row["completed"] is None:
            continue
        gap = row["latency"] - (row["queue_delay"] + row["service_time"])
        if abs(gap) > DECOMPOSITION_ATOL:
            failures.append(f"query {row['query']}: latency != queue_delay + service_time")
    if sum(outcome.extra["tenant_counts"].values()) != len(rows):
        failures.append(f"tenant counts {outcome.extra['tenant_counts']} do not sum to {len(rows)}")
    if outcome.extra["goodput"] > outcome.extra["throughput"]:
        failures.append("goodput exceeds throughput")
    return failures


def contended_counts(outcome: Outcome) -> Dict[str, float]:
    result = outcome.result
    return {
        "workload.peak_queued": result.peak_queued,
        "workload.peak_in_flight": result.peak_in_flight,
        "workload.scheduling_decisions": result.scheduling_decisions,
        "workload.fast_path_queries": result.fast_path_queries,
        "workload.queue_delay_mean_s": result.mean_queue_delay(),
    }


# -- the two clusters --------------------------------------------------------

CLUSTER_SPEC = QuerySpec("wide_bushy", 1_000, "FP")
#: Elastic surge: base-rate window, 2x window, base-rate window.
ELASTIC_RATE = 0.6
ELASTIC_WINDOW = 600.0
#: Failover: open-loop Poisson at ~80% of 4 x 12 processors.
FAILOVER_RATE = 0.45
FAILOVER_DURATION = 1_000.0
FAILOVER_SHARDS = 4


def elastic_inputs(seed: int, smoke: bool) -> Dict:
    window = ELASTIC_WINDOW / (10 if smoke else 1)
    pairs = []
    for index, (rate, start) in enumerate(
        [(ELASTIC_RATE, 0.0), (2 * ELASTIC_RATE, window), (ELASTIC_RATE, 2 * window)]
    ):
        times = poisson_arrivals(rate, window, seed * 1_009 + 31 * index, start=start)
        pairs.extend((time, CLUSTER_SPEC) for time in times)
    return {"trace": Trace.from_arrivals(pairs, seed=seed)}


def elastic_run(inputs: Dict):
    return api.run_cluster(
        trace=inputs["trace"], shards=4, machine_size=10, share=10,
        policy="exclusive", autoscale="reactive", scale_max=30,
        placement="least_loaded", config=FAST, workers=None,
    )


def failover_inputs(seed: int, smoke: bool) -> Dict:
    """Poisson arrivals plus one shard crash with repair and one straggler
    stall window, at seeded shards and times."""
    rng = random.Random(seed)
    duration = FAILOVER_DURATION / (10 if smoke else 1)
    times = poisson_arrivals(FAILOVER_RATE, duration, seed)
    crashed, straggler = rng.sample(range(FAILOVER_SHARDS), 2)
    crash_at = rng.uniform(0.2, 0.4) * duration
    stall_at = rng.uniform(0.5, 0.7) * duration
    faults = FaultSchedule(
        crashes=(CrashFault(crashed, at=crash_at, repair_at=crash_at + 0.1 * duration),),
        stalls=(StallFault(straggler, start=stall_at, end=stall_at + 0.15 * duration,
                           factor=6.0),),
        seed=seed,
    )
    trace = Trace.from_arrivals([(time, CLUSTER_SPEC) for time in times], seed=seed)
    return {"trace": trace, "faults": faults}


def failover_run(inputs: Dict):
    return api.run_cluster(
        trace=inputs["trace"], shards=FAILOVER_SHARDS, machine_size=12, share=12,
        policy="exclusive", placement="hash", retry_budget=3, hedge=True,
        shard_faults=inputs["faults"], config=FAST, workers=None,
    )


def cluster_report(result, inputs: Dict, scratch: Path) -> Outcome:
    # Unserved counts come from rows: only the coordinated result has failed_count().
    arrivals = len(inputs["trace"])
    rows = result.rows()
    result.write_jsonl(scratch / "cluster.jsonl")
    latencies = [row["latency"] for row in rows if row["completed"] is not None]
    useful = sum(1 for row in rows if not unserved(row))
    answers = latency_answers(latencies, useful, result.makespan, arrivals)
    extra = {"arrivals": arrivals, "useful": useful, "invariants": check_invariants(result)}
    return Outcome(len(rows), rows, answers, result, extra)


def cluster_check(outcome: Outcome, inputs: Dict) -> List[str]:
    failures = [f"{name}: {detail}" for name, detail in outcome.extra["invariants"]]
    submitted = outcome.result.submitted_count()
    if submitted != outcome.extra["arrivals"]:
        failures.append(f"{submitted} submitted for {outcome.extra['arrivals']} arrivals")
    return failures


def cluster_counts(outcome: Outcome) -> Dict[str, float]:
    result = outcome.result
    reports = result.shards
    rows = outcome.rows
    delays = [row["queue_delay"] for row in rows if row["queue_delay"] is not None]
    resilience: Optional[Dict] = getattr(result, "resilience", None)
    counts = {
        "workload.peak_queued": max(r.peak_queued for r in reports),
        "workload.peak_in_flight": max(r.peak_in_flight for r in reports),
        "workload.scheduling_decisions": sum(r.scheduling_decisions for r in reports),
        "workload.fast_path_queries": sum(r.fast_path_queries for r in reports),
        "workload.queue_delay_mean_s": sum(delays) / len(delays) if delays else 0.0,
        "cluster.scale_ups": result.scale_ups(),
        "cluster.scale_downs": result.scale_downs(),
        "cluster.busy_per_useful_s": (
            sum(r.busy_seconds for r in reports) / max(1, outcome.extra["useful"])
        ),
    }
    if resilience:
        counts.update({
            "cluster.dispatches": sum(s["dispatches"] for s in resilience["per_shard"]),
            "cluster.hedges": resilience["hedges"],
            "cluster.hedge_wins": resilience["hedge_wins"],
            "cluster.retries": resilience["retries"],
            "cluster.rerouted": resilience["rerouted"],
        })
    else:
        # The pre-routed router dispatches every arrival exactly once.
        counts["cluster.dispatches"] = len(rows)
    counts["cluster.hedge_rate"] = counts.get("cluster.hedges", 0) / len(rows)
    return counts


WORKLOADS: Dict[str, Workload] = {
    "paper_grid": Workload("paper_grid", grid_inputs, grid_run, grid_report,
                           grid_check, grid_counts),
    "contended": Workload("contended", contended_inputs, contended_run, contended_report,
                          contended_check, contended_counts),
    "cluster_elastic": Workload("cluster_elastic", elastic_inputs, elastic_run,
                                cluster_report, cluster_check, cluster_counts),
    "cluster_failover": Workload("cluster_failover", failover_inputs, failover_run,
                                 cluster_report, cluster_check, cluster_counts),
}
