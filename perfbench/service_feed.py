"""Workload ``service_feed``: the monitoring daemon under an open-loop feed.

The daemon runs in-process through ``ServiceThread`` with the defaults
of ``repro-bgp serve`` (two shards, top-degree probes, no batching).
Set-up onboards the tenants over HTTP, some with ``auto_mitigate``, and
posts the RIB baseline wave. One client thread then posts collector
bursts to ``POST /events`` as an open loop: each burst is due when the
offered rate (in lines per second) says so, whether or not the previous
response has arrived, and its latency runs from when it was due. The
daemon closes every connection after its response, so the client opens
one connection per request and never has two in flight.

The measured window has two phases. A fixed-rate phase gives the
acknowledgement and verdict latency at that rate, and the capacity:
lines per second of time spent answering requests. A ladder then offers
fixed fractions of that capacity, upward until a rung fails;
``sustainable_eps`` is the highest rung whose acknowledgement latency
meets ``LIMIT_MS`` at the highest percentile its sample supports and
whose backlog did not grow.

Most lines re-announce an active origin (no-ops for the kernel), a
minority are attacks from the 13-cell grid; at the median the API,
parsing, sharding and replay bookkeeping dominate, and the tail comes
from cold sub-prefix convergences and auto-mitigation.
"""

from __future__ import annotations

import http.client
import json
import statistics
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

from common import (
    LAYER_TABLE,
    REFERENCE_LOOP_S,
    HostClock,
    Outcome,
    build_env,
    highest_supported,
    loop_time,
    peak_rss_mb,
    percentile,
    span_metrics,
    supported,
    timed_setups,
)
from inputs import Burst, ServiceInputs, make_service
from layers import fill_layers, stream_metrics
from sizing import Sizes
from tracing import Tracer, install_wrappers

#: Shards, as ``repro-bgp serve`` defaults to.
SHARDS = 2
#: Acknowledgement latency limit a ladder rung must meet, in ms.
LIMIT_MS = 200.0
#: Share of the measured window the fixed-rate phase takes; the ladder
#: takes the rest.
MAIN_SHARE = 0.6
#: Ladder rungs as fractions of the measured capacity, tried upward
#: until one fails.
LADDER = (0.6, 0.7, 0.8, 0.9, 1.0)
#: Seconds between two host-speed calibrations in the open loop.
CALIBRATE_S = 0.5
#: Sleep before a calibration, so the daemon thread has finished the
#: previous response and the loop does not compete with it.
SETTLE_S = 0.003
#: Fields of a verdict that do not depend on how events were sharded.
VERDICT_FIELDS = ("tenant", "prefix", "verdict", "origins", "invalid_origins",
                  "culprit_paths", "confirmed")


@dataclass
class Sent:
    """One posted burst and what came back."""

    burst: Burst
    due: float
    sent: float
    done: float
    backlog: int
    ok: bool
    #: Reference host speed ÷ measured speed when the burst was sent.
    factor: float = 1.0
    verdicts: list[dict[str, Any]] = field(default_factory=list)
    accepted: int = 0
    malformed: int = 0

    @property
    def latency(self) -> float:
        return self.done - self.due

    @property
    def scaled_latency(self) -> float:
        return self.latency * self.factor


@dataclass
class Phase:
    rate: float
    requests: list[Sent]
    unsent: int

    def acks(self) -> list[float]:
        return [item.latency if item.ok else float("inf") for item in self.requests]


class Client:
    """One sender; opens a connection per request (the daemon closes it)."""

    def __init__(self, port: int) -> None:
        self.port = port

    def post(self, path: str, body: str) -> dict[str, Any] | None:
        connection = http.client.HTTPConnection("127.0.0.1", self.port, timeout=60)
        try:
            connection.request("POST", path, body=body.encode("utf-8"),
                               headers={"Content-Type": "application/json"})
            response = connection.getresponse()
            payload = response.read()
            if response.status != 200:
                return None
            return json.loads(payload)
        except (OSError, http.client.HTTPException, json.JSONDecodeError):
            return None
        finally:
            connection.close()


def _start(sizes: Sizes, inputs: ServiceInputs, tracer: Tracer | None) -> dict[str, Any]:
    """Everything before the measured window: env, daemon, tenants, RIB wave."""
    from repro.service import MonitorService, ServiceThread

    env = build_env(sizes.as_count, tracer)
    service = MonitorService(env.lab, shards=SHARDS, probes=env.probes)
    thread = ServiceThread(service).start()
    client = Client(thread.port)
    for registration in inputs.registrations:
        reply = client.post(
            f"/tenants/{registration['tenant']}/prefixes",
            json.dumps({key: registration[key]
                        for key in ("prefix", "origin", "auto_mitigate")}),
        )
        if reply is None:
            raise RuntimeError(f"registration of {registration['prefix']} failed")
    for wave in inputs.wave:
        if client.post("/events", "\n".join(wave)) is None:
            raise RuntimeError("the RIB baseline wave was refused")
    return {"env": env, "service": service, "thread": thread, "client": client}


def _stop(state: dict[str, Any]) -> None:
    state["thread"].stop()


def _open_loop(client: Client, bursts: list[Burst], start_index: int, rate: float,
               duration: float, tracer: Tracer | None = None) -> Phase:
    """Post bursts due at *rate* lines/s for *duration* seconds.

    Bursts due after the window are not sent; bursts due inside it but
    still unsent a full window later are counted as unsent (the rung
    has fallen behind for good).
    """
    sent: list[Sent] = []
    # The client calibrates the host speed in the gaps between bursts
    # (the daemon is idle then), at most every CALIBRATE_S seconds.
    loops = [loop_time()]
    calibrated = start = time.perf_counter()
    giveup = start + 2 * duration
    dues: list[float] = []
    lines = 0
    index = start_index
    while index < len(bursts):
        due = start + lines / rate
        if due - start >= duration:
            break
        dues.append(due)
        lines += len(bursts[index].lines)
        index += 1
    pending = 0
    for offset, due in enumerate(dues):
        now = time.perf_counter()
        if now > giveup:
            break
        if due - now > SETTLE_S + 2 * loops[-1] and now - calibrated > CALIBRATE_S:
            time.sleep(SETTLE_S)
            loops.append(loop_time(repeats=1))
            calibrated = now = time.perf_counter()
        if due > now:
            time.sleep(due - now)
            now = time.perf_counter()
        while pending < len(dues) and dues[pending] <= now:
            pending += 1
        if tracer is not None:
            tracer.op_id = start_index + offset  # one operation per request
        sent.append(_post(client, bursts[start_index + offset], due, now, pending - offset,
                          REFERENCE_LOOP_S / statistics.median(loops[-5:])))
    return Phase(rate=rate, requests=sent, unsent=len(dues) - len(sent))


def _post(client: Client, burst: Burst, due: float, sent: float, backlog: int,
          factor: float) -> Sent:
    reply = client.post("/events", "\n".join(burst.lines))
    item = Sent(burst=burst, due=due, sent=sent, done=time.perf_counter(),
                backlog=backlog, ok=reply is not None, factor=factor)
    if reply is not None:
        item.verdicts = reply.get("verdicts", [])
        item.accepted = reply.get("accepted", 0)
        item.malformed = reply.get("malformed", 0)
    return item


def _passes(phase: Phase) -> bool:
    acks = phase.acks()
    if not acks or phase.unsent:
        return False
    # The backlog grows when the generator falls further behind over the
    # rung: compare how late the last quarter ran with the first quarter.
    quarter = max(1, len(phase.requests) // 4)
    lag = [item.sent - item.due for item in phase.requests]
    early = sum(lag[:quarter]) / quarter
    late = sum(lag[-quarter:]) / quarter
    growing = (late - early) * 1e3 > LIMIT_MS / 4
    return percentile(acks, highest_supported(acks)) * 1e3 <= LIMIT_MS and not growing


def _capacity(phase: Phase) -> tuple[float, float]:
    """Lines per second of request time over *phase*: raw and scaled.

    One request is in flight at a time and the daemon works only while
    one is, so lines ÷ the summed request windows is the rate the daemon
    sustains back to back on that traffic.
    """
    lines = sum(len(item.burst.lines) for item in phase.requests)
    raw = sum(item.done - item.sent for item in phase.requests)
    scaled = sum((item.done - item.sent) * item.factor for item in phase.requests)
    return lines / raw, lines / scaled


def _ladder(client: Client, bursts: list[Burst], start_index: int, capacity: float,
            window: float) -> tuple[Phase | None, list[Phase]]:
    """Climb the ladder (fractions of *capacity*) until a rung fails.

    Returns the highest passing rung (``None`` if none passed) and every
    rung tried.
    """
    rung_s = window / len(LADDER) - 0.1
    best: Phase | None = None
    phases: list[Phase] = []
    index = start_index
    for fraction in LADDER:
        phase = _open_loop(client, bursts, index, capacity * fraction, rung_s)
        index += len(phase.requests)
        phases.append(phase)
        if not _passes(phase):
            break
        best = phase
        time.sleep(0.1)  # a gap between rungs, so one rung's tail does not start the next
    return best, phases


def _key(verdict: dict[str, Any]) -> str:
    return json.dumps({name: verdict.get(name) for name in VERDICT_FIELDS}, sort_keys=True)


def _closed_loop(env: Any, inputs: ServiceInputs, bursts: list[Burst],
                 tracer: Tracer | None = None) -> tuple[list[list[str]], float]:
    """Replay the same bursts through a one-shard service, one at a time.

    Returns each burst's verdict keys and the replay's time scaled to the
    reference host speed.
    """
    from repro.service import MonitorService

    service = MonitorService(env.lab, shards=1, probes=env.probes)
    for registration in inputs.registrations:
        service.register(registration["tenant"], registration["prefix"],
                         registration["origin"],
                         auto_mitigate=registration["auto_mitigate"])
    for wave in inputs.wave:
        for line in wave:
            service.ingest_line(line)
        service.poll()
    uninstall = None
    if tracer is not None:
        uninstall = install_wrappers(tracer, LAYER_TABLE)
        tracer.enabled = True
    verdicts: list[list[str]] = []
    clock = HostClock().start()
    try:
        for burst in bursts:
            for line in burst.lines:
                service.ingest_line(line)
            verdicts.append(sorted(_key(verdict.as_dict()) for verdict in service.poll()))
    finally:
        if tracer is not None:
            tracer.enabled = False
            uninstall()
    clock.checkpoint()
    return verdicts, clock.scaled


def _compare_verdicts(posted: list[Sent], replayed: list[list[str]]) -> list[str]:
    """One failure per answered burst whose verdicts differ from the replay."""
    return [
        f"burst {position}: verdicts differ from the one-shard replay"
        for position, (item, expected) in enumerate(zip(posted, replayed))
        if item.ok and sorted(_key(verdict) for verdict in item.verdicts) != expected
    ]


def _latency_figures(out: Outcome, name: str, values: list[float]) -> None:
    """Median and p99 of *values* (seconds), each with its sample count."""
    out.report(f"{name}_p50_ms", percentile(values, 50) * 1e3 if values else 0.0, "ms",
               f"n={len(values)}")
    if values and supported(values, 99):
        out.report(f"{name}_p99_ms", percentile(values, 99) * 1e3, "ms", f"n={len(values)}")
    elif values:
        q = highest_supported(values)
        out.report(f"{name}_p{q:.0f}_ms", percentile(values, q) * 1e3, "ms",
                   f"n={len(values)}; p99 needs 10 samples beyond it, "
                   f"so this is the highest percentile the sample supports")


def _traced_layers(tracer: Tracer, service: Any, main: Phase,
                   before: dict[str, int]) -> dict[str, float]:
    """Per-layer figures of the traced fixed-rate phase (daemon idle)."""
    counts = service.plane.counts()
    shard_load = [service.plane.replayer(shard).counts["submitted"]
                  for shard in range(SHARDS)]
    live = [ledger for ledger in service.plane.ledgers().values()
            if ledger.state is not None]
    lags = [item.sent - item.due for item in main.requests]
    # One request is in flight at a time and the daemon works only while
    # one is, so the request windows are the wall time spans should cover.
    layer = span_metrics(tracer, sum(item.done - item.sent for item in main.requests))
    layer.update(stream_metrics(tracer, counts["ingested"] - before["ingested"], {
        key: counts[key] - before[key] for key in ("flushes", "coalesced", "noop")
    }, live))
    layer.update({
        "service.api.requests": float(tracer.by_name()
                                      .get("service.api.request", {}).get("calls", 0)),
        "service.shards.skew": max(shard_load) * len(shard_load) / sum(shard_load),
        "stream.monitor.alarms": float(sum(len(item.verdicts) for item in main.requests)),
        "loadgen.lag_p99_ms": percentile(lags, highest_supported(lags)) * 1e3,
        "loadgen.backlog_max": float(max(item.backlog for item in main.requests)),
    })
    return layer


def _check_posted(out: Outcome, env: Any, inputs: ServiceInputs, posted: list[Sent]) -> float:
    """Every request answered and counted right, verdicts as in a replay.

    The verdicts must equal a closed-loop one-shard replay of the same
    bursts, burst by burst: sharding may change timing, never verdicts.
    Returns the replay's wall time.
    """
    out.attempted = len(posted)
    for item in posted:
        if not item.ok:
            out.fail(f"POST /events failed for a burst of {len(item.burst.lines)} lines")
        elif (item.malformed != item.burst.garbage
              or item.accepted != len(item.burst.lines) - item.burst.garbage):
            out.fail(f"accepted {item.accepted}/malformed {item.malformed} for a burst "
                     f"with {item.burst.garbage} garbage lines of {len(item.burst.lines)}")
    replayed, replay_s = _closed_loop(env, inputs, [item.burst for item in posted])
    for failure in _compare_verdicts(posted, replayed):
        out.fail(failure)
    return replay_s


def run(seed: int, seconds: float, traced: bool, sizes: Sizes, work: Path) -> Outcome:
    out = Outcome()
    inputs = make_service(build_env(sizes.as_count).lab, seed, sizes.service)
    setup_tracer = Tracer()
    setup_tracer.enabled = traced
    tracer = Tracer()
    main_s = seconds * MAIN_SHARE
    # The daemon binds its request handler when it starts, so the traced
    # run installs the wrappers before set-up and enables them only for
    # the fixed-rate phase (the traced run skips the ladder).
    uninstall = install_wrappers(tracer, LAYER_TABLE) if traced else None
    state = None
    layer: dict[str, float] = {}
    best, rungs = None, []
    try:
        state, setup_raw, setup_s = timed_setups(
            lambda: _start(sizes, inputs, setup_tracer), _stop)
        client = state["client"]
        before = state["service"].plane.counts()
        tracer.enabled = traced
        main = _open_loop(client, inputs.bursts, 0, sizes.service_rate, main_s,
                          tracer if traced else None)
        tracer.enabled = False
        if traced:
            layer = _traced_layers(tracer, state["service"], main, before)
        else:
            best, rungs = _ladder(client, inputs.bursts, len(main.requests),
                                  _capacity(main)[0], seconds * (1 - MAIN_SHARE))
    finally:
        tracer.enabled = False
        if uninstall is not None:
            uninstall()
        if state is not None:
            state["thread"].stop()
    env = state["env"]
    del state  # the daemon's ledgers must not overlap the replay's in RSS

    phases = [main] + rungs
    posted = [item for phase in phases for item in phase.requests]
    replay_s = _check_posted(out, env, inputs, posted)

    if traced:
        # Untraced, traced, untraced again: the traced replay is compared
        # with the mean of the replays either side of it.
        main_bursts = [item.burst for item in main.requests]
        _plain, before_s = _closed_loop(env, inputs, main_bursts)
        _traced, traced_s = _closed_loop(env, inputs, main_bursts, Tracer())
        _plain, after_s = _closed_loop(env, inputs, main_bursts)
        layer["trace.overhead_ratio"] = traced_s / ((before_s + after_s) / 2)
        setup_spans = setup_tracer.by_name()
        layer["topology.generate_s"] = statistics.median(
            setup_spans["topology.generate"]["durations"])
        layer["attacks.lab.init_s"] = statistics.median(
            setup_spans["attacks.lab.init"]["durations"])
        out.metrics = fill_layers(layer)
        tracer.write(work / "spans-service_feed.jsonl")
        return out

    capacity_raw, capacity = _capacity(main)
    scaled_acks = [item.scaled_latency if item.ok else float("inf")
                   for item in main.requests]
    lags = [item.sent - item.due for item in main.requests]
    lag_q = highest_supported(lags)
    out.metrics = {
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
        "throughput_per_s": (capacity, "1/s"),
        "latency_p50_ms": (percentile(scaled_acks, 50) * 1e3, "ms"),
    }
    out.report("offered_rate", sizes.service_rate, "lines/s",
               f"fixed-rate phase, {main_s:.1f} s, {len(main.requests)} requests, "
               f"{sum(len(item.burst.lines) for item in main.requests)} lines")
    _latency_figures(out, "ack", main.acks())
    _latency_figures(out, "verdict", [item.latency if item.ok else float("inf")
                                      for item in main.requests
                                      if item.verdicts or not item.ok])
    out.report("capacity_eps", capacity, "lines/s",
               "fixed-rate phase lines ÷ time spent answering them, reference host speed")
    out.report("capacity_eps_raw", capacity_raw, "lines/s", "wall clock on this host")
    out.report("sustainable_eps", best.rate if best is not None else 0.0, "lines/s",
               f"highest rung meeting the {LIMIT_MS:.0f} ms ack limit without a growing "
               "backlog; rungs tried: "
               + ", ".join(f"{phase.rate:.0f}{'+' if _passes(phase) else '-'}"
                           for phase in rungs))
    out.report(f"loadgen_lag_p{lag_q:.0f}_ms", percentile(lags, lag_q) * 1e3, "ms",
               f"n={len(lags)}")
    out.report("loadgen_backlog_max", float(max(item.backlog for item in main.requests)),
               "requests")
    out.report("setup_s_raw", setup_raw, "s", "wall clock on this host")
    out.report("closed_loop_replay_s", replay_s, "s",
               f"{len(posted)} bursts, one shard, reference host speed")
    return out
