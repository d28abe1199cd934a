"""Memoized clean-baseline convergence.

Every origin hijack is two convergences: the legitimate origin over a
clean network, then the attacker on top of that state. The legitimate
half depends only on *(topology, policy, origin)* — never on the
attacker, the defense, or the prefix — so across the paper's workloads
(42,696-attacker sweeps, 8,000 random detection attacks, a sweep per
deployment rung) the same baselines recur constantly.

:class:`ConvergenceCache` memoizes those baselines under a key that is
*content-derived*: a BLAKE2 digest of the compiled
:class:`~repro.topology.view.RoutingView` adjacency plus the
:class:`~repro.bgp.policy.PolicyConfig` fields. Handing the same cache to
labs over different topologies or policies is therefore always safe —
entries can never be confused, only evicted. Cached states are
:meth:`frozen <repro.bgp.engine.RouteState.freeze>` on insert, so a buggy
caller that tries to write into a shared baseline fails loudly, and an
optional ``verify`` mode re-checksums entries on every hit as a belt-and-
braces mutation detector.

The cache is fork-friendly by design: a parent process that pre-warms it
before creating a worker pool shares every baseline with the workers
through copy-on-write memory, which is what makes the parallel sweep
executor cheap (see :mod:`repro.parallel.executor`).
"""

from __future__ import annotations

import hashlib
import weakref
from collections import OrderedDict
from dataclasses import dataclass, fields
from typing import Sequence

from repro.bgp.engine import RouteState, RoutingEngine
from repro.bgp.policy import PolicyConfig
from repro.obs.metrics import NULL_METRICS, Metrics
from repro.topology.view import RoutingView

__all__ = ["CacheStats", "ConvergenceCache", "context_digest"]

# Digest memo keyed by object id (RoutingView holds a dict, so it is not
# hashable); a weakref callback evicts entries when the view is collected,
# which also guards against id reuse.
_VIEW_DIGESTS: dict[int, tuple["weakref.ref[RoutingView]", str]] = {}


def _view_digest(view: RoutingView) -> str:
    """Content digest of the compiled adjacency (memoized per object)."""
    key = id(view)
    entry = _VIEW_DIGESTS.get(key)
    if entry is not None and entry[0]() is view:
        return entry[1]
    digest = hashlib.blake2b(digest_size=16)
    for adjacency in (view.customers, view.peers, view.providers, view.members):
        digest.update(b"#")
        for neighbors in adjacency:
            digest.update(",".join(map(str, neighbors)).encode())
            digest.update(b";")
    digest.update("".join("1" if flag else "0" for flag in view.is_tier1).encode())
    value = digest.hexdigest()
    _VIEW_DIGESTS[key] = (
        weakref.ref(view, lambda _ref, key=key: _VIEW_DIGESTS.pop(key, None)),
        value,
    )
    return value


def _policy_digest(policy: PolicyConfig) -> str:
    parts = [
        f"{field.name}={getattr(policy, field.name)!r}" for field in fields(policy)
    ]
    return hashlib.blake2b("|".join(parts).encode(), digest_size=8).hexdigest()


def context_digest(
    view: RoutingView,
    policy: PolicyConfig,
    backend: str = "reference",
) -> str:
    """The cache-key prefix identifying one (topology, policy, backend)
    context.

    The backend is part of the key even though both kernels are
    checksum-identical by contract: a cached state must always be
    attributable to the engine configuration that produced it, so a
    backend regression can never hide behind a warm cache (a backend
    switch is a cold start, by design — see the regression test in
    ``tests/test_parallel_cache.py``). Within one backend a baseline is
    the same computation however it was requested: on the array backend
    :meth:`baseline` and :meth:`ConvergenceCache.baseline_batch` both run
    the one batched kernel, so their entries share one key space.
    """
    return f"{_view_digest(view)}:{_policy_digest(policy)}:{backend}"


@dataclass
class CacheStats:
    """Hit/miss/eviction counters for one cache instance."""

    hits: int = 0
    misses: int = 0
    evictions: int = 0

    @property
    def lookups(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        return self.hits / self.lookups if self.lookups else 0.0

    def as_dict(self) -> dict[str, float]:
        return {
            "hits": self.hits,
            "misses": self.misses,
            "evictions": self.evictions,
            "hit_rate": round(self.hit_rate, 4),
        }


class ConvergenceCache:
    """LRU cache of clean converged baselines, keyed by content digest.

    ``capacity`` bounds the number of retained states (each is four
    arrays of topology size, so the default keeps a 4,270-AS topology's
    cache around ~70 MB at the very worst). ``verify=True`` re-checksums
    each entry on every hit and raises if a cached baseline was mutated
    since insertion — cheap insurance for long-running services, off by
    default because :meth:`RouteState.freeze` already blocks in-place
    writes. ``metrics`` mirrors hit/miss/insert/eviction counts into a
    :class:`repro.obs.Metrics` sink (``cache.*`` counters) alongside the
    always-on local :class:`CacheStats`.
    """

    def __init__(
        self,
        capacity: int = 1024,
        *,
        verify: bool = False,
        metrics: Metrics | None = None,
    ) -> None:
        if capacity < 1:
            raise ValueError("capacity must be positive")
        self.capacity = capacity
        self.verify = verify
        self.metrics = metrics if metrics is not None else NULL_METRICS
        self.stats = CacheStats()
        self._entries: OrderedDict[tuple[str, int], tuple[RouteState, str | None]] = (
            OrderedDict()
        )

    def __len__(self) -> int:
        return len(self._entries)

    def clear(self) -> None:
        self._entries.clear()

    def entries(self) -> list[tuple[tuple[str, int], tuple[RouteState, str | None]]]:
        """Snapshot of ``((context, origin), (state, checksum))`` pairs.

        The read surface for coherence audits
        (:func:`repro.oracle.invariants.check_cache_coherence`); the
        checksum is the content digest recorded at insert time.
        """
        return list(self._entries.items())

    def verify_coherence(self) -> None:
        """Audit every cached baseline: frozen and unmutated since insert.

        Raises :class:`repro.oracle.invariants.InvariantViolation` on the
        first incoherent entry. Unlike ``verify=True`` (which re-checks
        one entry per hit), this sweeps the whole cache — the right tool
        after a parallel sweep or before persisting results.
        """
        from repro.oracle.invariants import check_cache_coherence

        check_cache_coherence(self)

    def contains(self, engine: RoutingEngine, origin: int) -> bool:
        return (
            context_digest(engine.view, engine.policy, engine.backend),
            origin,
        ) in self._entries

    def baseline(self, engine: RoutingEngine, origin: int) -> RouteState:
        """The clean converged state for *origin* under *engine*'s context.

        Computes and memoizes on first use; returned states are frozen and
        must be treated as immutable (run hijack passes *on top of* them
        via ``converge(..., base=state)``, which copies).
        """
        key = (context_digest(engine.view, engine.policy, engine.backend), origin)
        entry = self._entries.get(key)
        if entry is not None:
            state, inserted_checksum = entry
            if self.verify and inserted_checksum != state.checksum():
                raise RuntimeError(
                    f"cached baseline for origin {origin} was mutated in place"
                )
            self._entries.move_to_end(key)
            self.stats.hits += 1
            self.metrics.count("cache.hits")
            return state
        self.stats.misses += 1
        self.metrics.count("cache.misses")
        state = engine.converge(origin).freeze()
        # The checksum is always recorded (one digest per distinct origin
        # is noise next to the convergence itself); ``verify`` only
        # controls whether every *hit* re-checks it.
        self._entries[key] = (state, state.checksum())
        self.metrics.count("cache.inserts")
        while len(self._entries) > self.capacity:
            self._entries.popitem(last=False)
            self.stats.evictions += 1
            self.metrics.count("cache.evictions")
        return state

    def baseline_batch(
        self, engine: RoutingEngine, origins: "Sequence[int]"
    ) -> list[RouteState]:
        """Clean converged states for several origins, one fused miss pass.

        The batched analogue of :meth:`baseline` and the prewarm API:
        hits are served from the same entries :meth:`baseline` uses, and
        every miss in the request is converged in a single
        :meth:`RoutingEngine.converge_batch
        <repro.bgp.engine.RoutingEngine.converge_batch>` call before
        being frozen and inserted. Returns the states in request order;
        duplicate origins share one entry.
        """
        context = context_digest(engine.view, engine.policy, engine.backend)
        found: dict[int, RouteState] = {}
        missing: list[int] = []
        for origin in origins:
            if origin in found or origin in missing:
                continue
            key = (context, origin)
            entry = self._entries.get(key)
            if entry is None:
                self.stats.misses += 1
                self.metrics.count("cache.misses")
                missing.append(origin)
                continue
            state, inserted_checksum = entry
            if self.verify and inserted_checksum != state.checksum():
                raise RuntimeError(
                    f"cached baseline for origin {origin} was mutated in place"
                )
            self._entries.move_to_end(key)
            self.stats.hits += 1
            self.metrics.count("cache.hits")
            found[origin] = state
        if missing:
            for origin, state in zip(missing, engine.converge_batch(missing)):
                state.freeze()
                self._entries[(context, origin)] = (state, state.checksum())
                self.metrics.count("cache.inserts")
                found[origin] = state
            while len(self._entries) > self.capacity:
                self._entries.popitem(last=False)
                self.stats.evictions += 1
                self.metrics.count("cache.evictions")
        return [found[origin] for origin in origins]
