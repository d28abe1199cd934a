"""Workload ``trace_replay``: a RIB dump and an update feed through ingest.

What an operator runs as ``repro-bgp ingest --rib R --updates U``:
``TracePipeline`` → ``run_ingest`` with the top-degree probes on and a
nonzero ``batch_window``. Every event goes parse → compile →
queue/coalesce → ledger → kernel (``converge_delta`` and journal
rewinds) → monitor. Several hundred prefixes stay live, so ledger
memory dominates the process's RSS.

The same trace is replayed ``seconds / REPLAY_SECONDS`` times;
throughput and time-to-report are medians over those replays, at
reference host speed (see ``common.HostClock``).
"""

from __future__ import annotations

import statistics
from pathlib import Path
from typing import Any, Iterator

from common import (
    LAYER_TABLE,
    CheckFailed,
    HostClock,
    Outcome,
    build_env,
    check,
    peak_rss_mb,
    span_metrics,
    timed_setups,
)
from inputs import TraceInputs, make_trace
from layers import fill_layers, stream_metrics
from sizing import Sizes
from tracing import Tracer, install_wrappers

#: Coalescing window in virtual seconds: one collector burst per batch.
BATCH_WINDOW = 0.5
#: Events between two host-speed calibrations inside a replay.
CALIBRATE_EVERY = 400
#: Measured seconds per replay: a run makes seconds / this many replays.
REPLAY_SECONDS = 8.0


class _Feed:
    """The pipeline as ``run_ingest`` sees it.

    Each event's position in the trace becomes the tracer's operation id,
    and with a clock the host-speed calibration runs every
    ``CALIBRATE_EVERY`` events, between two events and outside the
    program; its time is not counted (see :class:`common.HostClock`).
    """

    def __init__(self, pipeline: Any, clock: HostClock | None, tracer: Tracer | None) -> None:
        self.pipeline = pipeline
        self.clock = clock
        self.tracer = tracer

    def events(self) -> Iterator[Any]:
        for count, event in enumerate(self.pipeline.events(), start=1):
            if self.tracer is not None:
                self.tracer.op_id = count
            yield event
            if self.clock is not None and count % CALIBRATE_EVERY == 0:
                self.clock.checkpoint()

    def baseline(self) -> Any:
        return self.pipeline.baseline()

    def stats(self) -> dict[str, object]:
        return self.pipeline.stats()


def _replay(env: Any, inputs: TraceInputs, capture: bool = False, calibrate: bool = True,
            tracer: Tracer | None = None) -> dict[str, Any]:
    """One full ingest of the trace; returns the result and its timings.

    ``wall`` is the raw time from opening the trace to the final report,
    ``scaled`` the same scaled to the reference host speed (calibrating
    every ``CALIBRATE_EVERY`` events; without *calibrate*, only at the
    ends).
    """
    import repro.ingest.pipeline as pipeline_module
    from repro.ingest import TracePipeline, run_ingest

    captured: list[Any] = []
    original = pipeline_module.StreamReplayer
    if capture:
        # Keep a handle on the replayer run_ingest builds, so the check
        # can read its ledgers; behaviour is the original class's.
        class Captured(original):  # type: ignore[misc, valid-type]
            def __init__(self, *args: Any, **kwargs: Any) -> None:
                super().__init__(*args, **kwargs)
                captured.append(self)

        pipeline_module.StreamReplayer = Captured
    clock = HostClock()
    try:
        clock.start()
        pipeline = TracePipeline(rib_path=inputs.rib_path, updates_path=inputs.updates_path)
        feed = _Feed(pipeline, clock if calibrate else None, tracer)
        result = run_ingest(env.lab, feed, probes=env.probes, batch_window=BATCH_WINDOW)
        clock.checkpoint()
    finally:
        pipeline_module.StreamReplayer = original
    return {
        "result": result,
        "wall": clock.raw,
        "scaled": clock.scaled,
        "replayer": captured[0] if captured else None,
    }


def _check_replay(env: Any, inputs: TraceInputs, run: dict[str, Any]) -> None:
    """Ledger checksums against cold convergence, counters, malformed lines."""
    from repro.stream import full_converge

    result = run["result"]
    report = result.report
    stats = result.stats
    replayer = run["replayer"]
    submitted = inputs.prefixes + inputs.update_records
    check(report.events_submitted == submitted,
          f"submitted {report.events_submitted} events, the trace holds {submitted}")
    check(report.events_applied + report.events_coalesced + len(report.errors)
          + report.errors_dropped == submitted,
          "applied + coalesced + errors does not reconcile with submitted")
    check(not report.errors and report.errors_dropped == 0,
          f"replay errors: {list(report.errors)[:3]}")
    check(report.events_out_of_order == 0, "the feed is ordered, none may be out of order")
    check(report.events_noop <= report.events_applied, "more no-ops than applied events")
    check(report.flushes >= 1 and report.flushes <= report.events_applied,
          "flush count out of range")
    check(stats["rib"]["malformed"] == inputs.rib_garbage,
          f"RIB malformed {stats['rib']['malformed']} != injected {inputs.rib_garbage}")
    check(stats["updates"]["malformed"] == inputs.update_garbage,
          f"update malformed {stats['updates']['malformed']} != injected "
          f"{inputs.update_garbage}")
    check(stats["rib"]["entries"] == inputs.rib_lines, "RIB entries lost")
    check(stats["updates"]["records"] == inputs.update_records, "update records lost")
    check(len(report.prefixes) == inputs.prefixes,
          f"{len(report.prefixes)} prefixes reported, the RIB holds {inputs.prefixes}")
    check(report.monitor is not None, "the monitor did not report")
    check(replayer is not None, "no replayer captured")
    ledgers = replayer.ledgers()
    check(len(ledgers) == len(report.prefixes), "ledger count differs from the report")
    for prefix, ledger in ledgers.items():
        entry = report.prefixes[str(prefix)]
        check(entry["active_origins"] == sorted(ledger.origin_asns().values()),
              f"{prefix}: reported origins differ from the ledger")
        cold = full_converge(env.lab.engine, ledger.entries)
        expected = cold.checksum() if cold is not None else None
        check(entry["checksum"] == expected,
              f"{prefix}: ledger checksum {entry['checksum']} != cold {expected}")


def _traced_layers(replay: dict[str, Any], tracer: Tracer) -> dict[str, float]:
    report = replay["result"].report
    stats = replay["result"].stats
    ledgers = [ledger for ledger in replay["replayer"].ledgers().values()
               if ledger.state is not None]
    metrics = span_metrics(tracer, replay["wall"])
    metrics.update(stream_metrics(tracer, report.events_submitted, {
        "flushes": report.flushes,
        "coalesced": report.events_coalesced,
        "noop": report.events_noop,
    }, ledgers))
    metrics.update({
        "ingest.records.records": float(stats["rib"]["records"] + stats["updates"]["records"]),
        "ingest.records.malformed": float(stats["rib"]["malformed"]
                                          + stats["updates"]["malformed"]),
        "ingest.compiler.rib_s":
            tracer.by_name().get("ingest.compiler.rib", {}).get("total_s", 0.0),
        "stream.monitor.alarms": float(len(report.monitor.alarms)) if report.monitor else 0.0,
    })
    return metrics


def run(seed: int, seconds: float, traced: bool, sizes: Sizes, work: Path) -> Outcome:
    out = Outcome()
    setup_tracer = Tracer()
    setup_tracer.enabled = traced
    env, setup_raw, setup_s = timed_setups(lambda: build_env(sizes.as_count, setup_tracer),
                                           lambda _env: None)
    inputs = make_trace(env.lab, seed, work / "trace", sizes.trace)

    runs: list[dict[str, Any]] = []
    reference = None
    tracer = Tracer()
    layer_metrics: dict[str, float] = {}
    # A fixed number of replays per measured second, so that every run
    # with the same --seconds does the same work whatever the host's
    # speed (the peak RSS, too, grows with the number of replays).
    count = 2 if traced else max(1, round(seconds / REPLAY_SECONDS))
    while len(runs) < count:
        index = len(runs)
        # The traced run makes one untraced replay (the overhead ratio's
        # base) and then one traced replay of the same trace.
        trace_this = traced and index == 1
        uninstall = None
        if trace_this:
            uninstall = install_wrappers(tracer, LAYER_TABLE)
            tracer.enabled = True
        try:
            replay = _replay(env, inputs, capture=(index == 0 or trace_this),
                             calibrate=not traced, tracer=tracer if trace_this else None)
        finally:
            tracer.enabled = False
            if uninstall is not None:
                uninstall()
        submitted = replay["result"].report.events_submitted
        out.attempted += submitted
        try:
            if index == 0:
                _check_replay(env, inputs, replay)
                reference = replay["result"].as_dict()
            else:
                check(replay["result"].as_dict() == reference,
                      f"replay {index} differs from the checked first replay")
        except CheckFailed as error:
            out.fail(str(error))
            out.failed += submitted - 1
        if trace_this:
            layer_metrics = _traced_layers(replay, tracer)
            layer_metrics["trace.overhead_ratio"] = replay["scaled"] / runs[0]["scaled"]
        # Keep the figures, not the replay: its ledgers would inflate the
        # next replay's peak RSS.
        runs.append({key: replay[key] for key in ("wall", "scaled")}
                    | {"report": replay["result"].report})
        del replay

    if traced:
        setup_spans = setup_tracer.by_name()
        layer_metrics["topology.generate_s"] = statistics.median(
            setup_spans["topology.generate"]["durations"])
        layer_metrics["attacks.lab.init_s"] = statistics.median(
            setup_spans["attacks.lab.init"]["durations"])
        out.metrics = fill_layers(layer_metrics)
        tracer.write(work / "spans-trace_replay.jsonl")
        return out

    events = runs[0]["report"].events_submitted
    scaled = statistics.median(item["scaled"] for item in runs)
    raw = statistics.median(item["wall"] for item in runs)
    out.metrics = {
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
        "throughput_per_s": (events / scaled, "1/s"),
        "latency_p50_ms": (scaled * 1e3, "ms"),
    }
    report = runs[0]["report"]
    out.report("events_per_s", events / scaled, "events/s",
               f"median of {len(runs)} replays of {events} events, reference host speed")
    out.report("events_per_s_raw", events / raw, "events/s", "wall clock on this host")
    out.report("replay_p50_ms", scaled * 1e3, "ms",
               "trace opened to final ReplayReport, reference host speed")
    out.report("setup_s_raw", setup_raw, "s", "wall clock on this host")
    out.report("live_prefixes", float(sum(1 for entry in report.prefixes.values()
                                          if entry["active_origins"])), "count")
    out.report("alarms", float(len(report.monitor.alarms)), "count")
    return out
