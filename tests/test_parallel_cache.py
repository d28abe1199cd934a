"""Unit tests for the convergence cache and baseline-sharing safety.

Covers the cache's contract end to end: content-derived keys invalidate
on topology or policy changes, eviction respects the capacity bound, and
— the property everything else rests on — a hijack pass computed on top
of a cached baseline never mutates it (checksum before/after, plus the
freeze() hard guarantee and an order-independence regression test).
"""

from __future__ import annotations

import pytest

from repro.bgp.engine import RouteState, RoutingEngine
from repro.bgp.policy import PolicyConfig
from repro.parallel.cache import CacheStats, ConvergenceCache, context_digest
from repro.topology.relationships import Relationship
from repro.topology.view import RoutingView

from tests.conftest import build_mini_graph


@pytest.fixture
def engine(mini_view: RoutingView) -> RoutingEngine:
    return RoutingEngine(mini_view)


class TestKeying:
    def test_hit_returns_same_object(self, engine):
        cache = ConvergenceCache()
        first = cache.baseline(engine, 0)
        second = cache.baseline(engine, 0)
        assert first is second
        assert cache.stats.hits == 1 and cache.stats.misses == 1

    def test_distinct_origins_are_distinct_entries(self, engine):
        cache = ConvergenceCache()
        a = cache.baseline(engine, 0)
        b = cache.baseline(engine, 1)
        assert a is not b
        assert a.origin == 0 and b.origin == 1
        assert len(cache) == 2

    def test_topology_change_invalidates(self):
        cache = ConvergenceCache()
        graph = build_mini_graph()
        engine = RoutingEngine(RoutingView.from_graph(graph))
        before = cache.baseline(engine, 0)

        graph.add_as(99)
        graph.add_relationship(1, 99, Relationship.CUSTOMER)
        changed = RoutingEngine(RoutingView.from_graph(graph))
        after = cache.baseline(changed, 0)

        assert after is not before
        assert cache.stats.misses == 2
        # The old context's entry is still present (only eviction removes
        # entries), but unreachable through the changed engine.
        assert len(cache) == 2

    def test_policy_change_invalidates(self, mini_view):
        cache = ConvergenceCache()
        default = RoutingEngine(mini_view, PolicyConfig())
        ablated = RoutingEngine(mini_view, PolicyConfig(tier1_shortest_path=False))
        assert cache.baseline(default, 0) is not cache.baseline(ablated, 0)
        assert cache.stats.misses == 2

    def test_context_digest_is_content_derived(self, mini_view):
        rebuilt = RoutingView.from_graph(build_mini_graph())
        policy = PolicyConfig()
        assert context_digest(mini_view, policy) == context_digest(rebuilt, policy)
        assert context_digest(mini_view, policy) != context_digest(
            mini_view, PolicyConfig(max_generations=3)
        )

    def test_backend_switch_is_a_cold_miss(self, mini_view):
        """Regression: the cache key must include the engine's backend
        knob. Entries are shared *objects*; handing an array-backend
        engine a state computed by a reference-backend engine (or vice
        versa) would mask any divergence between the kernels — each
        backend must converge its own baseline so the checksum
        equivalence battery actually compares independent computations."""
        cache = ConvergenceCache()
        reference = RoutingEngine(mini_view)
        array = RoutingEngine(mini_view, backend="array")
        ref_state = cache.baseline(reference, 0)
        assert cache.contains(array, 0) is False
        arr_state = cache.baseline(array, 0)
        assert arr_state is not ref_state
        assert cache.stats.misses == 2 and cache.stats.hits == 0
        assert len(cache) == 2
        # Same content regardless — the backend contract — but through
        # two distinct entries.
        assert ref_state.checksum() == arr_state.checksum()
        assert context_digest(mini_view, PolicyConfig()) != context_digest(
            mini_view, PolicyConfig(), "array"
        )

    def test_batch_prewarm_serves_scalar_lookups(self, mini_view):
        """A ``baseline_batch`` prewarm and a scalar ``baseline`` lookup
        are one computation — on the array backend both run the single
        batched kernel — so they share one key per (view, policy,
        backend): the prewarmed entry is served to the scalar lookup as a
        hit. Backends still never alias: the reference engine converges
        its own baseline."""
        cache = ConvergenceCache()
        array = RoutingEngine(mini_view, backend="array")
        reference = RoutingEngine(mini_view)
        prewarmed = cache.baseline_batch(array, (0, 1))
        assert cache.stats.misses == 2 and cache.stats.hits == 0
        assert cache.contains(array, 0) and cache.contains(array, 1)
        assert cache.baseline(array, 0) is prewarmed[0]
        assert cache.baseline(array, 1) is prewarmed[1]
        assert cache.stats.hits == 2 and len(cache) == 2
        # And the other way round: a scalar entry serves a batch request.
        scalar = cache.baseline(array, 2)
        again = cache.baseline_batch(array, (2, 0))
        assert again[0] is scalar and again[1] is prewarmed[0]
        assert cache.stats.hits == 4 and cache.stats.misses == 3
        # The backend stays part of the key.
        assert cache.contains(reference, 0) is False
        ref_state = cache.baseline(reference, 0)
        assert ref_state is not prewarmed[0]
        assert ref_state.checksum() == prewarmed[0].checksum()
        assert cache.stats.misses == 4 and len(cache) == 4

    def test_equal_views_share_entries_across_engines(self, mini_view):
        """Two separately compiled views of the same graph hit one entry."""
        cache = ConvergenceCache()
        cache.baseline(RoutingEngine(mini_view), 2)
        rebuilt = RoutingEngine(RoutingView.from_graph(build_mini_graph()))
        cache.baseline(rebuilt, 2)
        assert cache.stats.hits == 1 and len(cache) == 1


class TestEviction:
    def test_capacity_bound_holds(self, engine):
        cache = ConvergenceCache(capacity=4)
        for origin in range(8):
            cache.baseline(engine, origin)
        assert len(cache) == 4
        assert cache.stats.evictions == 4

    def test_lru_order(self, engine):
        cache = ConvergenceCache(capacity=2)
        cache.baseline(engine, 0)
        cache.baseline(engine, 1)
        cache.baseline(engine, 0)  # refresh 0 → 1 is now the LRU entry
        cache.baseline(engine, 2)  # evicts 1
        assert cache.contains(engine, 0) and cache.contains(engine, 2)
        assert not cache.contains(engine, 1)

    def test_evicted_entry_recomputes_identically(self, engine):
        cache = ConvergenceCache(capacity=1)
        checksum = cache.baseline(engine, 0).checksum()
        cache.baseline(engine, 1)
        assert not cache.contains(engine, 0)
        assert cache.baseline(engine, 0).checksum() == checksum

    def test_rejects_nonpositive_capacity(self):
        with pytest.raises(ValueError):
            ConvergenceCache(capacity=0)

    def test_stats_shape(self):
        stats = CacheStats(hits=3, misses=1)
        assert stats.lookups == 4
        assert stats.hit_rate == 0.75
        assert stats.as_dict()["hit_rate"] == 0.75
        assert CacheStats().hit_rate == 0.0


class TestBaselineSharing:
    """The bugfix regression layer: cached baselines are immutable."""

    def test_hijack_pass_leaves_baseline_untouched(self, engine):
        cache = ConvergenceCache()
        baseline = cache.baseline(engine, 0)
        checksum = baseline.checksum()
        engine.hijack(0, 5, legitimate=baseline)
        engine.converge(7, base=baseline)
        assert baseline.checksum() == checksum

    def test_cached_baselines_are_frozen(self, engine):
        baseline = ConvergenceCache().baseline(engine, 0)
        assert baseline.is_frozen
        with pytest.raises(TypeError):
            baseline.cls[0] = 0
        with pytest.raises(TypeError):
            baseline.origin_of[3] = 99

    def test_two_hijacks_from_one_baseline_do_not_contaminate(self, engine):
        """The same baseline must serve any number of attacks in any order."""
        cache = ConvergenceCache()
        baseline = cache.baseline(engine, 0)
        first_then_second = (
            engine.hijack(0, 4, legitimate=baseline).polluted_nodes,
            engine.hijack(0, 6, legitimate=baseline).polluted_nodes,
        )
        second_then_first = (
            engine.hijack(0, 6, legitimate=baseline).polluted_nodes,
            engine.hijack(0, 4, legitimate=baseline).polluted_nodes,
        )
        fresh = RoutingEngine(engine.view)
        independent = (
            fresh.hijack(0, 4).polluted_nodes,
            fresh.hijack(0, 6).polluted_nodes,
        )
        assert first_then_second == (second_then_first[1], second_then_first[0])
        assert first_then_second == independent

    def test_verify_mode_detects_mutation(self, engine):
        cache = ConvergenceCache(verify=True)
        baseline = cache.baseline(engine, 0)
        assert cache.baseline(engine, 0) is baseline  # clean hit passes
        # Simulate a buggy caller writing through the freeze guard.
        baseline.length = list(baseline.length)
        baseline.length[1] += 1
        with pytest.raises(RuntimeError, match="mutated"):
            cache.baseline(engine, 0)

    def test_entries_always_record_checksums(self, engine):
        """The insert-time checksum is stored even with verify off — it is
        what whole-cache coherence audits compare against."""
        cache = ConvergenceCache()
        state = cache.baseline(engine, 0)
        [(key, (cached, checksum))] = cache.entries()
        assert key[1] == 0
        assert cached is state
        assert checksum == state.checksum()
        cache.verify_coherence()  # a clean cache audits silently

    def test_freeze_is_idempotent_and_copyable(self, engine):
        state = engine.converge(0)
        frozen = state.freeze().freeze()
        copy = frozen.copy_for(frozen.origin)
        assert not copy.is_frozen
        copy.cls[0] = 0  # the copy is writable again
        assert frozen.checksum() != RouteState.empty(len(engine.view), 0).checksum()
