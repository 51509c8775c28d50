"""Request handling for the JSONL query service.

Requests and responses are plain dicts so the service is trivially
testable without any I/O; :func:`serve` adds the line-delimited JSON
transport.  Every response carries ``"ok"``; failures come back as
``{"ok": False, "error": ...}`` instead of raising, so one malformed
request never kills the stream.

Only the simulating backends (``sim`` / ``ideal``) are served: they
are deterministic, run in simulated time, and cannot be wedged by a
request — a network-facing front-end must not fork real-data executor
threads per request.
"""

from __future__ import annotations

import json
from typing import Dict, IO, Optional

from ..api import RUN_CLUSTER_KEYWORDS, RUN_WORKLOAD_KEYWORDS
from ..core.shapes import SHAPE_NAMES

#: Backends a service request may ask for.
SERVICE_BACKENDS = ("sim", "ideal")

#: Keys an ``op: "query"`` request may carry.  Every op validates its
#: request strictly: an unknown key (``"deadine"``) is an error naming
#: the accepted keys, never a silently ignored typo.
_QUERY_KEYS = (
    "shape", "strategy", "processors", "backend", "cardinality",
    "skew_theta", "deadline",
)

#: Facade keywords no request may pass: machine configs and cost
#: models are not JSON, and the rejection retry delay and the watchdog
#: are server-side safety settings.
_SERVER_SIDE = (
    "config", "cost_model", "rejected_retry_delay", "watchdog_limit",
)

#: Keys an ``op: "workload"`` request may pass through to
#: :func:`repro.api.run_workload`.
_WORKLOAD_KEYS = tuple(
    key for key in RUN_WORKLOAD_KEYWORDS if key not in _SERVER_SIDE
)

#: Keys an ``op: "cluster"`` request may pass through to
#: :func:`repro.api.run_cluster`.  ``faults``/``recovery`` inject
#: per-shard engine-level fault schedules; ``shard_faults`` through
#: ``failover`` are the resilience surface (passing any of them runs
#: the coordinated single-clock cluster).  ``workers`` stays
#: server-side too: a request must not choose how many processes the
#: server forks (the output is identical at any worker count).
_CLUSTER_KEYS = tuple(
    key for key in RUN_CLUSTER_KEYWORDS
    if key not in _SERVER_SIDE and key != "workers"
)

#: Keys a stats request may carry (``{"stats": true}`` or
#: ``{"op": "stats"}``).
_STATS_KEYS = ("stats",)


class QueryService:
    """Handler mapping request dicts to response dicts.

    Request handling is stateless; the service additionally keeps two
    pieces of observability state for the ``stats`` op — per-op served
    counters, and the engine/per-shard occupancy snapshot of the most
    recent workload or cluster run.
    """

    def __init__(self) -> None:
        self._served: Dict[str, int] = {}
        self._engine_stats: Optional[Dict] = None

    def handle(self, request) -> Dict:
        """Serve one request; never raises on bad input."""
        if not isinstance(request, dict):
            return self._error("request must be a JSON object")
        op = request.get("op")
        if op is None and request.get("stats"):
            op = "stats"
        try:
            if op == "query":
                return self._count(op, self._query(request))
            if op == "workload":
                return self._count(op, self._workload(request))
            if op == "cluster":
                return self._count(op, self._cluster(request))
            if op == "stats":
                return self._stats(request)
        except (ValueError, TypeError, KeyError) as exc:
            return self._error(str(exc))
        return self._error(
            f"unknown op {op!r}; expected 'query', 'workload', "
            f"'cluster', or 'stats'"
        )

    def _count(self, op: str, response: Dict) -> Dict:
        if response.get("ok"):
            self._served[op] = self._served.get(op, 0) + 1
        return response

    # -- the two operations -----------------------------------------------

    def _query(self, request: Dict) -> Dict:
        from ..api import DEFAULT_CARDINALITY, run
        from ..sim.run import QueryAbortedError

        unknown = self._unknown_keys(request, _QUERY_KEYS)
        if unknown:
            return self._error(
                f"unknown query parameters {unknown}; "
                f"accepted keys: {sorted(_QUERY_KEYS)}"
            )
        shape = request.get("shape", "wide_bushy")
        if shape not in SHAPE_NAMES:
            return self._error(
                f"unknown shape {shape!r}; expected one of {SHAPE_NAMES}"
            )
        backend = request.get("backend", "sim")
        if backend not in SERVICE_BACKENDS:
            return self._error(
                f"service backends are {SERVICE_BACKENDS}; got {backend!r}"
            )
        try:
            result = run(
                shape,
                request.get("strategy", "FP"),
                request.get("processors", 40),
                backend,
                cardinality=request.get("cardinality", DEFAULT_CARDINALITY),
                skew_theta=request.get("skew_theta", 0.0),
                deadline=request.get("deadline"),
            )
        except QueryAbortedError as exc:
            # The deadline fired: a well-formed request with a definite
            # (deterministic) outcome, not a service error.
            return {
                "ok": True,
                "op": "query",
                "shape": shape,
                "backend": backend,
                "aborted": True,
                "aborted_at": exc.at,
                "reason": exc.reason,
            }
        return {
            "ok": True,
            "op": "query",
            "shape": shape,
            "strategy": result.strategy,
            "processors": result.processors,
            "backend": backend,
            "response_time": result.response_time,
            "busy_time": result.busy_time(),
            "utilization": result.utilization(),
            "events": result.events,
            "result_tuples": result.result_tuples,
        }

    def _workload(self, request: Dict) -> Dict:
        from ..api import run_workload

        unknown = self._unknown_keys(
            request, _WORKLOAD_KEYS + ("shape", "rows")
        )
        if unknown:
            return self._error(
                f"unknown workload parameters {unknown}; accepted keys: "
                f"{sorted(_WORKLOAD_KEYS + ('shape', 'rows'))}"
            )
        from ..faults import FaultSchedule

        options = _decode_options(
            request, _WORKLOAD_KEYS, FaultSchedule.from_payload
        )
        result = run_workload(request.get("shape", "wide_bushy"), **options)
        response = {
            "ok": True,
            "op": "workload",
            "policy": result.policy,
            "machine_size": result.machine_size,
            "submitted": len(result.records),
            "completed": len(result.completed()),
            "rejected": result.rejected_count(),
            "makespan": result.makespan,
            "throughput": result.throughput(),
            "utilization": result.utilization(),
            "latency": result.latency_stats(),
            "queue_delay_mean": result.mean_queue_delay(),
            "peak_in_flight": result.peak_in_flight,
        }
        if result.scheduler is not None:
            response["scheduler"] = result.scheduler
            response["scheduling_decisions"] = result.scheduling_decisions
        tenants = result.tenants()
        if tenants:
            response["tenants"] = result.tenant_summary()
        if result.faults_injected or result.failed_count():
            response["resilience"] = result.resilience_summary()
        if (
            result.shed_count()
            or result.cancelled_count()
            or result.deadline_missed_count()
        ):
            lifecycle = dict(result.lifecycle_summary())
            if tenants:
                lifecycle["tenants"] = {
                    name: {
                        "shed": result.shed_count(name),
                        "expired": result.expired_count(name),
                    }
                    for name in tenants
                }
            response["lifecycle"] = lifecycle
        if request.get("rows"):
            response["rows"] = result.rows()
        self._engine_stats = {
            "op": "workload",
            "machine_size": result.machine_size,
            "utilization": result.utilization(),
            "peak_in_flight": result.peak_in_flight,
            "peak_queued": result.peak_queued,
            "lifecycle": {
                "submitted": len(result.records),
                "completed": len(result.completed()),
                "rejected": result.rejected_count(),
                "shed": result.shed_count(),
                "expired": result.deadline_missed_count(),
                "cancelled": result.cancelled_count(),
                "failed": result.failed_count(),
            },
        }
        return response

    def _cluster(self, request: Dict) -> Dict:
        from ..api import run_cluster

        accepted = _CLUSTER_KEYS + ("shape", "rows")
        unknown = self._unknown_keys(request, accepted)
        if unknown:
            return self._error(
                f"unknown cluster parameters {unknown}; accepted keys: "
                f"{sorted(accepted)}"
            )
        # Engine-level faults: one schedule for every shard, a per-shard
        # list (null = fault-free shard), or a {shard: payload} map.
        options = _decode_options(
            request, _CLUSTER_KEYS, self._parse_cluster_faults
        )
        result = run_cluster(request.get("shape", "wide_bushy"), **options)
        response = {
            "ok": True,
            "op": "cluster",
            "shards": len(result.shards),
            "placement": result.placement,
            "autoscale": result.autoscale,
            "submitted": result.submitted_count(),
            "completed": result.completed_count(),
            "rejected": result.rejected_count(),
            "makespan": result.makespan,
            "goodput": result.goodput(),
            "latency": result.latency_stats(),
            "migrations": result.migrations,
            "per_shard": result.per_shard(),
        }
        if result.scale_ups() or result.scale_downs():
            response["scale_ups"] = result.scale_ups()
            response["scale_downs"] = result.scale_downs()
        resilience = getattr(result, "resilience", None)
        if resilience:
            # Coordinated-cluster runs carry the full resilience
            # telemetry, including per-shard abort/retry/hedge counts.
            response["resilience"] = resilience
            response["failed"] = result.failed_count()
        if request.get("rows"):
            response["rows"] = result.rows()
        lifecycle = {
            "submitted": result.submitted_count(),
            "completed": result.completed_count(),
            "useful": result.useful_count(),
            "rejected": result.rejected_count(),
        }
        if resilience:
            lifecycle["failed"] = result.failed_count()
        self._engine_stats = {
            "op": "cluster",
            "shards": result.per_shard(),
            "placement": result.placement,
            "autoscale": result.autoscale,
            "migrations": result.migrations,
            "lifecycle": lifecycle,
        }
        if resilience:
            self._engine_stats["resilience"] = resilience
        return response

    def _stats(self, request: Dict) -> Dict:
        unknown = self._unknown_keys(request, _STATS_KEYS)
        if unknown:
            return self._error(
                f"unknown stats parameters {unknown}; accepted keys: "
                f"{sorted(_STATS_KEYS)}"
            )
        return {
            "ok": True,
            "op": "stats",
            "served": dict(sorted(self._served.items())),
            "engine": self._engine_stats,
        }

    @staticmethod
    def _parse_cluster_faults(value):
        # JSON object keys are strings: the map form converts them back
        # to shard indices.
        from ..faults import FaultSchedule

        if isinstance(value, dict) and "seed" in value:
            return FaultSchedule.from_payload(value)
        if isinstance(value, dict):
            return {
                int(shard): (
                    None
                    if payload is None
                    else FaultSchedule.from_payload(payload)
                )
                for shard, payload in value.items()
            }
        if isinstance(value, list):
            return [
                None if payload is None else FaultSchedule.from_payload(payload)
                for payload in value
            ]
        raise TypeError(
            "faults must be a FaultSchedule payload, a per-shard list, "
            "or a {shard: payload} map"
        )

    @staticmethod
    def _unknown_keys(request: Dict, accepted) -> list:
        return sorted(key for key in request if key not in accepted + ("op",))

    @staticmethod
    def _error(message: str) -> Dict:
        return {"ok": False, "error": message}


def _decode_options(request: Dict, keys, decode_faults) -> Dict:
    """The facade keywords a workload or cluster request carries,
    decoded from their JSON forms (``decode_faults`` reads the
    ``faults`` payload).  A malformed payload raises
    :class:`ValueError` naming it."""
    options = {key: request[key] for key in keys if key in request}
    if isinstance(options.get("deadline"), list):
        # JSON has no tuples; a two-element list is the (lo, hi)
        # deadline range form.
        options["deadline"] = tuple(options["deadline"])
    if "cancellations" in options:
        try:
            options["cancellations"] = [
                (float(when), int(index))
                for when, index in options["cancellations"]
            ]
        except (TypeError, ValueError) as exc:
            raise ValueError(
                f"bad cancellations (expected [time, query] pairs): {exc}"
            ) from None
    # Traces and fault schedules arrive as their to_payload() dicts.
    if "trace" in options:
        from ..cluster import Trace

        _decode(options, "trace", Trace.from_payload, "bad trace")
    if "shard_faults" in options:
        from ..faults import FaultSchedule

        _decode(
            options, "shard_faults", FaultSchedule.from_payload,
            "bad fault schedule",
        )
    if "faults" in options:
        _decode(options, "faults", decode_faults, "bad fault schedule")
    return options


def _decode(options: Dict, key: str, decode, label: str) -> None:
    try:
        options[key] = decode(options[key])
    except (TypeError, KeyError, ValueError) as exc:
        raise ValueError(f"{label}: {exc}") from None


def serve(
    in_stream: IO[str],
    out_stream: IO[str],
    service: Optional[QueryService] = None,
) -> int:
    """Pump line-delimited JSON requests through a service.

    Blank lines are skipped; unparseable lines produce an error
    response on their line rather than aborting the stream.  Returns
    the number of requests served.
    """
    service = service or QueryService()
    served = 0
    for line in in_stream:
        line = line.strip()
        if not line:
            continue
        try:
            request = json.loads(line)
        except json.JSONDecodeError as exc:
            response = {"ok": False, "error": f"bad JSON: {exc}"}
        else:
            response = service.handle(request)
        out_stream.write(json.dumps(response, sort_keys=True) + "\n")
        out_stream.flush()
        served += 1
    return served
