"""Shared pieces: percentiles, RSS, set-up, the layer wrapper table."""

from __future__ import annotations

import gc
import math
import resource
import statistics
import sys
import time
from dataclasses import dataclass, field
from typing import Any, Callable

from tracing import Tracer, interval_union

#: The repository's default topology size (``repro-bgp serve/ingest``).
AS_COUNT = 4270
#: Topology seed shared by every workload; the benchmark seed varies the
#: traffic, not the network, so runs with different seeds stay comparable.
TOPOLOGY_SEED = 2014
#: Set-up is repeated this many times per run and its median reported.
SETUP_REPEATS = 5


class CheckFailed(AssertionError):
    """An output check failed: the run is incorrect."""


def check(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile (``q`` in 0..100) of a non-empty list."""
    ordered = sorted(values)
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    return ordered[rank - 1]


def supported(values: list[float], q: float) -> bool:
    """True when at least ten samples lie beyond the ``q`` percentile."""
    return len(values) - math.ceil(q / 100.0 * len(values)) >= 10


def highest_supported(values: list[float], cap: float = 99.0) -> float:
    """The highest whole percentile up to *cap* with ten samples beyond it."""
    q = cap
    while q > 50.0 and not supported(values, q):
        q -= 1.0
    return q


# -- host speed -------------------------------------------------------------
#
# A shared 2-vCPU VM's speed swung by up to 1.5x over minutes (the same
# pure-Python loop took 0.23 s or 0.39 s), far more than the regressions
# the gate should catch. Every timed section is therefore also measured
# against a fixed pure-Python loop run just before and after it, and the
# gated times are scaled to the speed at which that loop takes
# REFERENCE_LOOP_S. Raw wall-clock figures are printed beside them.

#: Seconds the calibration loop takes on the reference host.
REFERENCE_LOOP_S = 0.010


def _calibration_loop() -> int:
    # List indexing, comparisons, dict stores and int arithmetic: the
    # operations the pure-Python routing kernel spends its time on.
    table: dict[int, int] = {}
    cells = [0] * 512
    total = 0
    for step in range(60_000):
        slot = step & 511
        cells[slot] += step
        total += cells[slot] if cells[slot] < total else 1
        if step % 7 == 0:
            table[slot] = total
    return total + len(table)


def loop_time(repeats: int = 3) -> float:
    """Median of *repeats* timings of the calibration loop, in seconds."""
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        _calibration_loop()
        times.append(time.perf_counter() - start)
    return statistics.median(times)


class HostClock:
    """Accumulates wall time, raw and scaled to the reference host speed.

    ``start()`` opens a segment; each ``checkpoint()`` closes it, runs the
    calibration loop (not counted) and opens the next. A segment's scaled
    time is its wall time × REFERENCE_LOOP_S ÷ the mean loop time at its
    two ends.
    """

    def __init__(self) -> None:
        self.raw = 0.0
        self.scaled = 0.0
        self._loop = 0.0
        self.segment_start = 0.0

    def start(self) -> "HostClock":
        self._loop = loop_time()
        self.segment_start = time.perf_counter()
        return self

    def checkpoint(self) -> None:
        elapsed = time.perf_counter() - self.segment_start
        loop = loop_time()
        self.raw += elapsed
        self.scaled += elapsed * REFERENCE_LOOP_S / ((self._loop + loop) / 2)
        self._loop = loop
        self.segment_start = time.perf_counter()


def peak_rss_mb() -> float:
    """Peak resident set size of this process in MB (Linux reports kB)."""
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return peak / (1024.0 * 1024.0) if sys.platform == "darwin" else peak / 1024.0


@dataclass
class Env:
    """What every workload shares: topology, lab, probes."""

    graph: Any
    lab: Any
    probes: Any


def build_env(as_count: int = AS_COUNT, tracer: Tracer | None = None) -> Env:
    """Topology generation, :class:`HijackLab` and the top-degree probes.

    The lab is built with the defaults a user gets (reference backend,
    ``batch_origins=1``, ``workers=1``). With a tracer the three steps
    are recorded as ``topology.generate``, ``attacks.lab.init`` and
    ``detection.probes``.
    """
    from repro.attacks import HijackLab
    from repro.detection.probes import top_degree_probes
    from repro.topology import GeneratorConfig, generate_topology

    def step(name: str, fn: Callable[[], Any]) -> Any:
        frame = tracer.open(name) if tracer is not None else None
        try:
            return fn()
        finally:
            if tracer is not None:
                tracer.close(frame)

    graph = step(
        "topology.generate",
        lambda: generate_topology(GeneratorConfig.scaled(as_count, seed=TOPOLOGY_SEED)),
    )
    lab = step("attacks.lab.init", lambda: HijackLab(graph, seed=TOPOLOGY_SEED))
    probes = step("detection.probes", lambda: top_degree_probes(graph))
    return Env(graph=graph, lab=lab, probes=probes)


def timed_setups(setup: Callable[[], Any], teardown: Callable[[Any], None],
                 repeats: int = SETUP_REPEATS) -> tuple[Any, float, float]:
    """Run *setup* several times; keep the last result.

    Returns the result and the median set-up time, raw and scaled to the
    reference host speed. Earlier results are torn down and collected
    before the next attempt, so the peak RSS reflects one live set-up.
    """
    raw: list[float] = []
    scaled: list[float] = []
    result = None
    for _attempt in range(repeats):
        if result is not None:
            teardown(result)
            result = None
            gc.collect()
        clock = HostClock().start()
        result = setup()
        clock.checkpoint()
        raw.append(clock.raw)
        scaled.append(clock.scaled)
    return result, statistics.median(raw), statistics.median(scaled)


@dataclass
class Outcome:
    """What one workload run produced."""

    attempted: int = 0
    failed: int = 0
    failures: list[str] = field(default_factory=list)
    metrics: dict[str, tuple[float, str]] = field(default_factory=dict)
    detail: list[tuple[str, float, str, str]] = field(default_factory=list)

    def fail(self, message: str) -> None:
        self.failed += 1
        if len(self.failures) < 20:
            self.failures.append(message)

    def report(self, name: str, value: float, unit: str, note: str = "") -> None:
        """A named figure printed for a reader (not part of the result line)."""
        self.detail.append((name, value, unit, note))


# -- the layer table ----------------------------------------------------------


def _converge_name(args: tuple, kwargs: dict) -> str:
    # The lab never calls RoutingEngine.hijack: its attack pass is
    # converge(base=legitimate state). Split converge spans on that.
    return "bgp.engine.hijack" if kwargs.get("base") is not None else "bgp.engine.converge"


def _note_delta(tracer: Tracer, result: Any, args: tuple, kwargs: dict) -> None:
    tracer.count("bgp.engine.cells_journaled", getattr(result, "touched", 0))


def _note_withdraw(tracer: Tracer, result: Any, args: tuple, kwargs: dict) -> None:
    if result:
        tracer.count("stream.incremental.withdraws_applied")


#: (target, span name, kind[, result hook]) for every wrapped entry point.
LAYER_TABLE: list[tuple] = [
    # bgp
    ("repro.bgp.engine:RoutingEngine.converge", _converge_name, "call"),
    ("repro.bgp.engine:RoutingEngine.hijack", "bgp.engine.hijack", "call"),
    ("repro.bgp.engine:RoutingEngine.converge_delta", "bgp.engine.converge_delta", "call",
     _note_delta),
    ("repro.bgp.engine:ConvergenceDelta.revert", "bgp.delta.revert", "call"),
    # defense
    ("repro.defense.deployment:Defense.blocking_nodes", "defense.blocking_nodes", "call"),
    # attacks / parallel
    ("repro.attacks.lab:HijackLab.sweep_target", "attacks.lab.sweep_target", "call"),
    ("repro.attacks.lab:HijackLab.random_attacks", "attacks.lab.random_attacks", "call"),
    # detection
    ("repro.detection.analysis:DetectionStudy.run", "detection.analysis.study", "classmethod"),
    ("repro.detection.detector:HijackDetector.observe_conflict",
     "detection.observe_conflict", "call"),
    # stream
    ("repro.stream.replay:parse_event_line", "stream.events.parse", "call"),
    ("repro.service.api:parse_event_line", "stream.events.parse", "call"),
    ("repro.service.shards:parse_event_line", "stream.events.parse", "call"),
    ("repro.stream.replay:StreamReplayer.submit", "stream.replay.submit", "call"),
    ("repro.stream.replay:StreamReplayer.flush", "stream.replay.flush", "call"),
    ("repro.stream.replay:StreamReplayer.report", "stream.replay.report", "call"),
    ("repro.stream.incremental:PrefixLedger.announce", "stream.incremental.announce", "call"),
    ("repro.stream.incremental:PrefixLedger.withdraw", "stream.incremental.withdraw", "call",
     _note_withdraw),
    ("repro.stream.monitor:OnlineMonitor.observe", "stream.monitor.observe", "call"),
    # ingest
    ("repro.ingest.records:TraceReader.__iter__", "ingest.records", "iter"),
    ("repro.ingest.pipeline:compile_rib", "ingest.compiler.rib", "call"),
    ("repro.ingest.compiler:UpdateCompiler.__iter__", "ingest.compiler.updates", "iter"),
    # service
    ("repro.service.api:ServiceDaemon._handle", "service.api.request", "call"),
    ("repro.service.shards:ShardPlane.route", "service.shards.route", "call"),
    ("repro.service.shards:ShardPlane.apply", "service.shards.apply", "call"),
    ("repro.service.tenants:TenantRegistry.match", "service.tenants.match", "call"),
    ("repro.service.daemon:MonitorService.poll", "service.daemon.poll", "call"),
    ("repro.service.daemon:MonitorService._mitigate", "service.daemon.mitigate", "call"),
    ("repro.service.daemon:MonitorService.victim_coverage",
     "service.daemon.victim_coverage", "call"),
]


def span_metrics(tracer: Tracer, wall_s: float) -> dict[str, float]:
    """Self time, call counts and percentiles per wrapped layer.

    Keys follow ``<span>.self_s``, ``<span>.calls``, ``<span>.total_s``
    and (for the delta kernel) ``<span>.p50_us``; ``trace.unattributed_s``
    is the part of *wall_s* that no root span covers.
    """
    out: dict[str, float] = {}
    for name, entry in tracer.by_name().items():
        out[f"{name}.self_s"] = entry["self_s"]
        out[f"{name}.total_s"] = entry["total_s"]
        out[f"{name}.calls"] = float(entry["calls"])
        out[f"{name}.p50_us"] = percentile(entry["durations"], 50) * 1e6
    out["trace.unattributed_s"] = max(0.0, wall_s - interval_union(tracer.root_intervals()))
    return out
