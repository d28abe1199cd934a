"""The per-layer metric list and the helpers that derive its values.

``PER_LAYER`` is the single list behind ``BENCHMARK.json``'s
``per_layer`` entries; every traced run prints each of them (a layer a
workload does not use reads 0). Self times are seconds of the one
traced unit of work (one replay, one sweep job, the fixed-rate service
phase); counts and ratios do not depend on the host.
"""

from __future__ import annotations

import sys
import types
from typing import Any

from tracing import Tracer

#: (name, unit, better) for every per-layer metric, grouped by layer.
PER_LAYER: list[tuple[str, str, str]] = [
    ("topology.generate_s", "s", "lower"),
    ("attacks.lab.init_s", "s", "lower"),
    ("ingest.records.self_s", "s", "lower"),
    ("ingest.records.records", "count", "higher"),
    ("ingest.records.malformed", "count", "higher"),
    ("ingest.compiler.rib_s", "s", "lower"),
    ("ingest.compiler.updates.self_s", "s", "lower"),
    ("stream.events.parse.self_s", "s", "lower"),
    ("service.api.request.self_s", "s", "lower"),
    ("service.api.requests", "count", "higher"),
    ("service.shards.route.self_s", "s", "lower"),
    ("service.shards.skew", "ratio", "lower"),
    ("service.tenants.match.self_s", "s", "lower"),
    ("stream.replay.submit.self_s", "s", "lower"),
    ("stream.replay.flush.self_s", "s", "lower"),
    ("stream.replay.report.self_s", "s", "lower"),
    ("stream.replay.flushes_per_event", "ratio", "lower"),
    ("stream.replay.coalesced_ratio", "ratio", "higher"),
    ("stream.replay.noop_ratio", "ratio", "higher"),
    ("defense.blocking_nodes.calls", "count", "lower"),
    ("defense.blocking_nodes.self_s", "s", "lower"),
    ("stream.incremental.announce.self_s", "s", "lower"),
    ("stream.incremental.withdraw.self_s", "s", "lower"),
    ("stream.incremental.convergences_per_event", "ratio", "lower"),
    ("stream.incremental.replays_per_withdraw", "ratio", "lower"),
    ("stream.incremental.live_prefixes", "count", "higher"),
    ("stream.incremental.bytes_per_live_prefix", "bytes", "lower"),
    ("bgp.engine.converge_delta.calls", "count", "lower"),
    ("bgp.engine.converge_delta.self_s", "s", "lower"),
    ("bgp.engine.converge_delta.p50_us", "us", "lower"),
    ("bgp.delta.revert.self_s", "s", "lower"),
    ("bgp.engine.cells_journaled_per_event", "ratio", "lower"),
    ("bgp.engine.converge.calls", "count", "lower"),
    ("bgp.engine.converge.self_s", "s", "lower"),
    ("bgp.engine.hijack.calls", "count", "lower"),
    ("bgp.engine.hijack.self_s", "s", "lower"),
    ("stream.monitor.observe.calls", "count", "lower"),
    ("stream.monitor.observe.self_s", "s", "lower"),
    ("detection.observe_conflict.self_s", "s", "lower"),
    ("stream.monitor.alarms", "count", "higher"),
    ("service.daemon.poll.self_s", "s", "lower"),
    ("service.daemon.mitigate.calls", "count", "lower"),
    ("service.daemon.mitigate.self_s", "s", "lower"),
    ("service.daemon.victim_coverage.self_s", "s", "lower"),
    ("attacks.lab.sweep_target.self_s", "s", "lower"),
    ("attacks.lab.random_attacks.self_s", "s", "lower"),
    ("core.compare_strategies.self_s", "s", "lower"),
    ("core.compare_detectors.self_s", "s", "lower"),
    ("detection.analysis.study.self_s", "s", "lower"),
    ("parallel.cache.hit_ratio", "ratio", "higher"),
    ("parallel.cache.lookups", "count", "lower"),
    ("loadgen.lag_p99_ms", "ms", "lower"),
    ("loadgen.backlog_max", "count", "lower"),
    ("trace.overhead_ratio", "ratio", "lower"),
    ("trace.unattributed_s", "s", "lower"),
]

#: Counts that repeat exactly for one seed (the host does not move them).
HOST_INDEPENDENT = [
    name for name, unit, _better in PER_LAYER
    if unit in ("count", "ratio") and not name.startswith(("trace.", "loadgen."))
    and name != "service.api.requests"
] + ["stream.incremental.bytes_per_live_prefix"]


def fill_layers(values: dict[str, float]) -> dict[str, tuple[float, str]]:
    """Every per-layer metric with its unit; layers not exercised read 0."""
    return {name: (float(values.get(name, 0.0)), unit) for name, unit, _ in PER_LAYER}


def stream_metrics(tracer: Tracer, events: int, counts: dict[str, int],
                   ledgers: list[Any]) -> dict[str, float]:
    """Host-independent replay/ledger/kernel ratios per stream event.

    *counts* holds the replay counters (``flushes``, ``coalesced``,
    ``noop``) over the traced window, *ledgers* the live ledgers at its
    end (a sample of up to 12 is sized for ``bytes_per_live_prefix``).
    """
    events = max(1, events)
    by_name = tracer.by_name()
    withdraws = tracer.counts.get("stream.incremental.withdraws_applied", 0.0)
    replays = descendants(tracer, "bgp.engine.converge_delta", "stream.incremental.withdraw")
    sample = ledgers[:: max(1, len(ledgers) // 12)][:12]
    return {
        "stream.replay.flushes_per_event": counts["flushes"] / events,
        "stream.replay.coalesced_ratio": counts["coalesced"] / events,
        "stream.replay.noop_ratio": counts["noop"] / events,
        "stream.incremental.convergences_per_event":
            by_name.get("bgp.engine.converge_delta", {}).get("calls", 0) / events,
        "stream.incremental.replays_per_withdraw": replays / withdraws if withdraws else 0.0,
        "stream.incremental.live_prefixes": float(len(ledgers)),
        "stream.incremental.bytes_per_live_prefix":
            sum(deep_size(ledger) for ledger in sample) / len(sample) if sample else 0.0,
        "bgp.engine.cells_journaled_per_event":
            tracer.counts.get("bgp.engine.cells_journaled", 0.0) / events,
    }


def descendants(tracer: Tracer, child: str, ancestor: str) -> int:
    """How many *child* spans ran (at any depth) inside an *ancestor* span."""
    names = {span[6]: span[0] for span in tracer.spans}
    parents = {span[6]: span[3] for span in tracer.spans}
    found = 0
    for span_id, name in names.items():
        if name != child:
            continue
        parent = parents[span_id]
        while parent != -1:
            if names.get(parent) == ancestor:
                found += 1
                break
            parent = parents.get(parent, -1)
    return found


def deep_size(root: Any) -> int:
    """Bytes held by *root* and everything it reaches, each object once.

    Shared machinery (the routing engine, metrics sinks, modules, classes
    and functions) is not counted: the figure is what one more live
    prefix costs.
    """
    from repro.bgp.engine import RoutingEngine

    shared = (RoutingEngine, type, types.ModuleType, types.FunctionType,
               types.MethodType, types.BuiltinFunctionType)
    seen: set[int] = set()
    stack = [root]
    total = 0
    while stack:
        obj = stack.pop()
        if id(obj) in seen:
            continue
        seen.add(id(obj))
        if isinstance(obj, shared) or type(obj).__module__ == "repro.obs.metrics":
            continue
        total += sys.getsizeof(obj)
        if isinstance(obj, dict):
            stack.extend(obj.keys())
            stack.extend(obj.values())
        elif isinstance(obj, (list, tuple, set, frozenset)):
            stack.extend(obj)
        else:
            attrs = getattr(obj, "__dict__", None)
            if attrs is not None:
                stack.append(attrs)
            for slot in getattr(type(obj), "__slots__", ()):
                if hasattr(obj, slot):
                    stack.append(getattr(obj, slot))
    return total
