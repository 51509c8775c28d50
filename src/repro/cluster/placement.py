"""Tenant-to-shard placement policies.

The router assigns every arriving query to one of N shards before any
shard starts simulating, so placement must be a pure function of the
arrival stream — never of simulated execution state.  Three policies:

``hash``
    A consistent-hash ring over SHA-1 digests (never Python's
    randomized ``hash()``) with virtual nodes per shard.  Keyed on the
    query's tenant (untenanted queries key on their submission index,
    which spreads them uniformly).  Adding or removing a shard moves
    only ~1/N of the tenants — the classic stability property, pinned
    by a test.

``least_loaded``
    Tracks an analytic occupancy forecast per shard: each placement
    advances the chosen shard's forecasted busy-until horizon by the
    query's predicted service time (the Section 3 cost model at
    advised parallelism, cached per spec).  Ties break to the lowest
    shard index, so tied forecasts place deterministically.

``round_robin``
    Submission order modulo the shard count.
"""

from __future__ import annotations

import bisect
import hashlib
from typing import Dict, List, Optional, Tuple

from ..workload.mix import QuerySpec

#: The placement policies :func:`make_placement` accepts.
PLACEMENT_NAMES = ("hash", "least_loaded", "round_robin")

#: Virtual nodes per shard on the consistent-hash ring.  More replicas
#: smooth the key distribution; 64 keeps the ring small while holding
#: the add-a-shard movement near the ideal 1/N.
RING_REPLICAS = 64

#: Forecasted service seconds charged for a spec the analytic model
#: cannot cost (infeasible plans are rejected at admission anyway).
_FALLBACK_SERVICE = 1.0


def _digest(key: str) -> int:
    """Stable 64-bit hash point (SHA-1 prefix) — identical across
    processes and Python versions, unlike built-in ``hash``."""
    return int.from_bytes(
        hashlib.sha1(key.encode("utf-8")).digest()[:8], "big"
    )


class PlacementPolicy:
    """Base: stateful per-run, deterministic, reset before each run."""

    name = "base"

    def reset(self, shards: int, context: Optional[Dict] = None) -> None:
        if shards < 1:
            raise ValueError("a cluster needs at least one shard")
        self.shards = shards

    def place(self, index: int, arrival: float, spec: QuerySpec) -> int:
        raise NotImplementedError


class HashPlacement(PlacementPolicy):
    """Consistent tenant→shard hashing with virtual nodes."""

    name = "hash"

    def reset(self, shards: int, context: Optional[Dict] = None) -> None:
        super().reset(shards, context)
        self._ring = build_ring(shards)

    def key_of(self, index: int, spec: QuerySpec) -> str:
        return spec.tenant if spec.tenant is not None else f"query:{index}"

    def place(self, index: int, arrival: float, spec: QuerySpec) -> int:
        return ring_lookup(self._ring, self.key_of(index, spec))


class LeastLoadedPlacement(PlacementPolicy):
    """Route to the shard with the earliest analytic busy-until
    forecast; deterministic tie-break on the lowest shard index."""

    name = "least_loaded"

    def reset(self, shards: int, context: Optional[Dict] = None) -> None:
        super().reset(shards, context)
        context = context or {}
        self._machine_size = context.get("machine_size", 40)
        self._config = context.get("config")
        self._cost_model = context.get("cost_model")
        self._busy_until = [0.0] * shards
        self._estimates: Dict[Tuple, float] = {}

    def place(self, index: int, arrival: float, spec: QuerySpec) -> int:
        # min() is stable: on tied forecasts the lowest index wins.
        shard = min(
            range(self.shards),
            key=lambda s: max(self._busy_until[s], arrival),
        )
        estimate = estimate_service_time(
            self._estimates, spec, self._machine_size, self._config,
            self._cost_model,
        )
        self._busy_until[shard] = (
            max(self._busy_until[shard], arrival) + estimate
        )
        return shard


class RoundRobinPlacement(PlacementPolicy):
    """Submission order modulo the shard count."""

    name = "round_robin"

    def place(self, index: int, arrival: float, spec: QuerySpec) -> int:
        return index % self.shards


def make_placement(policy) -> PlacementPolicy:
    """Resolve a policy name (or pass an instance through)."""
    if isinstance(policy, PlacementPolicy):
        return policy
    if policy == "hash":
        return HashPlacement()
    if policy == "least_loaded":
        return LeastLoadedPlacement()
    if policy == "round_robin":
        return RoundRobinPlacement()
    raise ValueError(
        f"unknown placement policy {policy!r}; expected one of "
        f"{PLACEMENT_NAMES}"
    )


# -- the consistent-hash ring ---------------------------------------------


def build_ring(
    shards: int, replicas: int = RING_REPLICAS
) -> Tuple[List[int], List[int]]:
    """``(points, owners)`` sorted by hash point; ``owners[i]`` is the
    shard owning ``points[i]``."""
    if shards < 1:
        raise ValueError("a ring needs at least one shard")
    pairs = sorted(
        (_digest(f"shard:{shard}:replica:{replica}"), shard)
        for shard in range(shards)
        for replica in range(replicas)
    )
    return [point for point, _ in pairs], [owner for _, owner in pairs]


def ring_lookup(ring: Tuple[List[int], List[int]], key: str) -> int:
    """First ring point clockwise of the key's hash (wrapping)."""
    points, owners = ring
    position = bisect.bisect_right(points, _digest(key))
    if position == len(points):
        position = 0
    return owners[position]


def ring_lookup_live(
    ring: Tuple[List[int], List[int]], key: str, alive
) -> Optional[int]:
    """First ring point clockwise of the key whose owner is in
    ``alive`` (wrapping).  This is consistent-hash failover: a dead
    shard's keys walk clockwise onto the *next* live owner, so only
    ~1/N of the keyspace moves per dead shard, and a repaired shard's
    keys snap back to their original owner (the walk stops at the
    first point again).  Returns ``None`` when no live shard exists.
    """
    points, owners = ring
    if not alive:
        return None
    start = bisect.bisect_right(points, _digest(key))
    for offset in range(len(points)):
        owner = owners[(start + offset) % len(points)]
        if owner in alive:
            return owner
    return None


def ring_assignments(keys, shards: int) -> Dict[str, int]:
    """Map every key to its shard on a fresh ring — the stability
    test's helper (compare assignments at N and N+1 shards)."""
    ring = build_ring(shards)
    return {key: ring_lookup(ring, key) for key in keys}


# -- the analytic service-time forecast -----------------------------------


def predict_service_time(
    spec: QuerySpec,
    machine_size: int,
    config=None,
    cost_model=None,
) -> Optional[float]:
    """Analytic response time of ``spec`` at advised parallelism on a
    ``machine_size`` shard — delegates to
    :func:`repro.model.analytic.predict_spec_service_time`, where the
    model lives alongside the other Section 3 forecasts.  Returns
    ``None`` for an infeasible spec.
    """
    from ..model.analytic import predict_spec_service_time

    return predict_spec_service_time(spec, machine_size, config, cost_model)


def estimate_service_time(
    cache: Dict[Tuple, float],
    spec: QuerySpec,
    machine_size: int,
    config=None,
    cost_model=None,
) -> float:
    """:func:`predict_service_time`, memoized in the caller's ``cache``
    and never ``None``: a spec the model cannot cost is charged
    ``_FALLBACK_SERVICE``.  The forecast reads only the spec's shape,
    cardinality, strategy and relation count, so those are the key."""
    key = (spec.shape, spec.cardinality, spec.strategy, spec.relations)
    estimate = cache.get(key)
    if estimate is None:
        estimate = predict_service_time(spec, machine_size, config, cost_model)
        if estimate is None:
            estimate = _FALLBACK_SERVICE
        cache[key] = estimate
    return estimate
