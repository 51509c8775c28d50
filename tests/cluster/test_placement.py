"""Placement policies: consistent-hash stability, load-forecast tie
determinism, and positional round-robin."""

import pytest

from repro.cluster import (
    HashPlacement,
    LeastLoadedPlacement,
    RoundRobinPlacement,
    build_ring,
    make_placement,
    ring_assignments,
    ring_lookup,
)
from repro.workload import QuerySpec

SPEC = QuerySpec("wide_bushy", 1_000, "FP")


class TestHashRing:
    KEYS = [f"tenant-{i}" for i in range(600)]

    def test_adding_a_shard_moves_about_one_over_n(self):
        """The consistent-hashing contract: growing 8 -> 9 shards
        remaps roughly 1/9 of the keys, far from the (N-1)/N churn of
        naive modulo placement."""
        before = ring_assignments(self.KEYS, 8)
        after = ring_assignments(self.KEYS, 9)
        moved = sum(1 for key in self.KEYS if before[key] != after[key])
        fraction = moved / len(self.KEYS)
        assert 0 < fraction < 2 / 9

    def test_moved_keys_land_on_the_new_shard_only(self):
        before = ring_assignments(self.KEYS, 8)
        after = ring_assignments(self.KEYS, 9)
        for key in self.KEYS:
            if before[key] != after[key]:
                assert after[key] == 8

    def test_removing_a_shard_moves_only_its_keys(self):
        """Shrinking 9 -> 8 only re-homes keys that lived on the
        removed shard."""
        before = ring_assignments(self.KEYS, 9)
        after = ring_assignments(self.KEYS, 8)
        for key in self.KEYS:
            if before[key] != 8:
                assert after[key] == before[key]

    def test_lookup_is_deterministic(self):
        ring = build_ring(4)
        assert [ring_lookup(ring, k) for k in self.KEYS[:50]] == [
            ring_lookup(build_ring(4), k) for k in self.KEYS[:50]
        ]

    def test_every_shard_owns_keys(self):
        owners = set(ring_assignments(self.KEYS, 8).values())
        assert owners == set(range(8))

    def test_empty_ring_rejected(self):
        with pytest.raises(ValueError):
            build_ring(0)


class TestHashPlacement:
    def test_tenant_keyed_affinity(self):
        placement = HashPlacement()
        placement.reset(4)
        tenant_spec = QuerySpec("wide_bushy", 1_000, "FP", tenant="acme")
        shards = {placement.place(i, 0.0, tenant_spec) for i in range(20)}
        assert len(shards) == 1  # same tenant, same shard, always

    def test_untenanted_queries_spread_by_index(self):
        placement = HashPlacement()
        placement.reset(4)
        shards = {placement.place(i, 0.0, SPEC) for i in range(100)}
        assert len(shards) > 1


class TestLeastLoaded:
    def test_ties_break_to_the_lowest_index(self):
        placement = LeastLoadedPlacement()
        placement.reset(3)
        # All forecasts are 0.0 at the first arrival: shard 0 wins.
        assert placement.place(0, 0.0, SPEC) == 0

    def test_sequence_is_deterministic(self):
        def sequence():
            placement = LeastLoadedPlacement()
            placement.reset(3, {"machine_size": 40})
            return [placement.place(i, 0.5 * i, SPEC) for i in range(30)]

        first = sequence()
        assert first == sequence()
        assert set(first) == {0, 1, 2}  # the forecast rotates the load

    def test_busy_shard_is_avoided(self):
        placement = LeastLoadedPlacement()
        placement.reset(2, {"machine_size": 40})
        first = placement.place(0, 0.0, SPEC)
        second = placement.place(1, 0.0, SPEC)
        assert first == 0
        assert second == 1


class TestRoundRobin:
    def test_positional_modulo(self):
        placement = RoundRobinPlacement()
        placement.reset(3)
        assert [placement.place(i, 0.0, SPEC) for i in range(7)] == [
            0, 1, 2, 0, 1, 2, 0,
        ]


class TestMakePlacement:
    def test_names_resolve(self):
        for name in ("hash", "least_loaded", "round_robin"):
            assert make_placement(name).name == name

    def test_instance_passes_through(self):
        placement = HashPlacement()
        assert make_placement(placement) is placement

    def test_unknown_name_rejected(self):
        with pytest.raises(ValueError, match="zone_aware"):
            make_placement("zone_aware")


class TestEstimateServiceTime:
    """The one memoized forecast behind least_loaded placement, the
    coordinated router and the predictive autoscaler."""

    def test_cached_on_the_fields_the_forecast_reads(self):
        from dataclasses import replace

        from repro.cluster.placement import (
            estimate_service_time,
            predict_service_time,
        )

        cache = {}
        spec = QuerySpec("wide_bushy", 500, "SE")
        estimate = estimate_service_time(cache, spec, 12)
        assert estimate == predict_service_time(spec, 12)
        tagged = replace(spec, tenant="gold", deadline=5.0)
        assert estimate_service_time(cache, tagged, 12) == estimate
        assert len(cache) == 1

    def test_infeasible_spec_costs_the_fallback(self):
        from repro.cluster.placement import estimate_service_time

        # FP needs one processor per join (9); four cannot run it.
        spec = QuerySpec("wide_bushy", 500, "FP")
        assert estimate_service_time({}, spec, 4) == 1.0
