"""The replay engine: simulated clock, bounded queue, error isolation.

:class:`StreamReplayer` is the piece that makes the stream subsystem a
*system* rather than a data structure: it consumes events (typed or raw
JSONL lines), advances a virtual clock, batches events through a bounded
queue, applies them to per-prefix :class:`~repro.stream.incremental
.PrefixLedger`\\ s, keeps the defensive configuration live (ROAs publish
and revoke, deployers activate mid-stream), and feeds the
:class:`~repro.stream.monitor.OnlineMonitor` after every flush.

Operational semantics, chosen to be boring and explicit:

* **clock** — the max event timestamp seen; an event older than the
  clock is counted ``out_of_order`` but still applied (BGP collectors
  deliver such updates too; dropping them would hide data).
* **batching** — events accumulate in the pending queue until either the
  incoming event's timestamp is more than ``batch_window`` past the
  oldest pending one (time flush — the flush happens at the window's
  virtual *deadline*, so the clock never jumps over it) or the queue
  hits ``queue_limit`` (backpressure flush). ``batch_window=0``
  degenerates to per-event application. Announce/withdraw ground truth
  is anchored at *arrival*, so time spent queued is charged to
  detection latency.
* **coalescing** — an announce and a later withdraw of the same
  (prefix, origin) *within one batch* cancel, together with any
  duplicate announces between them: the route never existed for any
  observer. A withdraw whose announcement predates the batch is
  never cancelled against a batch announce — that would resurrect the
  pre-existing route. Cancellation is outcome-preserving (the surviving
  ledger chain is identical), so batched and unbatched replays of the
  same stream converge to checksum-identical states; only the monitor's
  sampling times — and therefore detection latency — differ.
* **error isolation** — a malformed line or a failing event is counted
  and recorded (bounded), never fatal: one bad update must not take the
  monitor down.

Defense changes are not retroactive: each announce captures the blocked
set in force at apply time (a later ``RoaPublish`` does not evict an
installed bogus route — exactly the paper's receiver-side blocking,
which drops announcements, not RIB entries).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable

from repro.attacks.lab import HijackLab
from repro.defense.deployment import Defense
from repro.defense.strategies import DeploymentStrategy
from repro.obs.metrics import NULL_METRICS, Metrics
from repro.prefixes.prefix import Prefix
from repro.registry.roa import RoaTable, RouteOriginAuthorization
from repro.stream.events import (
    Announce,
    DefenseActivate,
    RoaPublish,
    RoaRevoke,
    StreamEvent,
    StreamFormatError,
    Withdraw,
    parse_event_line,
)
from repro.stream.incremental import PrefixLedger
from repro.stream.monitor import MonitorReport, OnlineMonitor

__all__ = ["ReplayReport", "StreamReplayer"]


@dataclass(frozen=True)
class ReplayReport:
    """End-of-stream accounting: what arrived, what applied, what broke."""

    clock: float
    events_submitted: int
    events_applied: int
    events_coalesced: int
    events_malformed: int
    events_out_of_order: int
    events_noop: int
    flushes: int
    backpressure_flushes: int
    errors: tuple[str, ...]
    errors_dropped: int
    prefixes: dict[str, dict[str, object]] = field(default_factory=dict)
    monitor: MonitorReport | None = None

    def as_dict(self) -> dict[str, object]:
        payload: dict[str, object] = {
            "clock": self.clock,
            "events": {
                "submitted": self.events_submitted,
                "applied": self.events_applied,
                "coalesced": self.events_coalesced,
                "malformed": self.events_malformed,
                "out_of_order": self.events_out_of_order,
                "noop": self.events_noop,
            },
            "flushes": self.flushes,
            "backpressure_flushes": self.backpressure_flushes,
            "errors": list(self.errors),
            "errors_dropped": self.errors_dropped,
            "prefixes": self.prefixes,
        }
        if self.monitor is not None:
            payload["monitor"] = self.monitor.as_dict()
        return payload


class StreamReplayer:
    """Drive a stream of control-plane events over a lab's network.

    Built on a :class:`~repro.attacks.lab.HijackLab` for its view,
    engine, address plan and *initial* defense; the replayer owns a
    mutable copy of the defensive state (a live :class:`RoaTable` seeded
    from the lab's authority when that is iterable, plus a growable
    deployer set) so ``RoaPublish``/``RoaRevoke``/``DefenseActivate``
    events take effect mid-stream. Expose :attr:`authority` to the
    monitor's detector and published ROAs change its verdicts live.
    """

    def __init__(
        self,
        lab: HijackLab,
        *,
        monitor: OnlineMonitor | None = None,
        batch_window: float = 0.0,
        queue_limit: int = 64,
        max_errors: int = 32,
        metrics: Metrics | None = None,
    ) -> None:
        if queue_limit < 1:
            raise ValueError("queue_limit must be >= 1")
        if batch_window < 0:
            raise ValueError("batch_window must be >= 0")
        self.lab = lab
        self.monitor = monitor
        self.batch_window = batch_window
        self.queue_limit = queue_limit
        self.max_errors = max_errors
        self.metrics = metrics if metrics is not None else NULL_METRICS
        base = lab.defense
        seed_roas = base.authority if isinstance(base.authority, Iterable) else ()
        self.authority = RoaTable(seed_roas)
        self._deployers: set[int] = set(base.strategy.deployers)
        self._base_defense = base
        self._ledgers: dict[Prefix, PrefixLedger] = {}
        self._pending: list[StreamEvent] = []
        self.clock = 0.0
        self.errors: list[str] = []
        self._errors_dropped = 0
        self._counts = {
            "submitted": 0,
            "applied": 0,
            "coalesced": 0,
            "malformed": 0,
            "out_of_order": 0,
            "noop": 0,
            "flushes": 0,
            "backpressure_flushes": 0,
        }

    # -- queries -----------------------------------------------------------

    def ledger(self, prefix: Prefix) -> PrefixLedger | None:
        """The ledger for *prefix*, or ``None`` if never announced."""
        return self._ledgers.get(prefix)

    def ledgers(self) -> dict[Prefix, PrefixLedger]:
        """A snapshot of every live per-prefix ledger (prefix → ledger)."""
        return dict(self._ledgers)

    @property
    def counts(self) -> dict[str, int]:
        """A copy of the running event counters (``submitted`` … ``flushes``)."""
        return dict(self._counts)

    def defense(self) -> Defense:
        """The defensive configuration currently in force."""
        return Defense(
            strategy=DeploymentStrategy("stream", frozenset(self._deployers)),
            authority=self.authority if len(self.authority) else None,
            manual_filters=self._base_defense.manual_filters,
            stub_filter=self._base_defense.stub_filter,
            neighbors=self._base_defense.neighbors,
            path_check=self._base_defense.path_check,
        )

    @property
    def pending(self) -> int:
        return len(self._pending)

    # -- ingestion ---------------------------------------------------------

    def submit(self, event: StreamEvent) -> None:
        """Queue one typed event; may trigger a time or backpressure flush."""
        if self._pending and event.at - self._pending[0].at > self.batch_window:
            # The pending batch's window expired before this event: it
            # flushed (in virtual time) at its deadline, not at event.at
            # — and strictly before this event exists to the monitor.
            deadline = self._pending[0].at + self.batch_window
            if deadline > self.clock:
                self.clock = deadline
            self.flush()
        self._counts["submitted"] += 1
        self.metrics.count("stream.replay.submitted")
        if self.monitor is not None:
            self.monitor.note_event()
            # Ground-truth anchoring happens at *arrival*: detection
            # latency must include time an update spends queued.
            if isinstance(event, Announce):
                self.monitor.note_announce(event.prefix, event.origin_asn, event.at)
            elif isinstance(event, Withdraw):
                self.monitor.note_withdraw(event.prefix, event.origin_asn)
        if event.at < self.clock:
            self._counts["out_of_order"] += 1
            self.metrics.count("stream.replay.out_of_order")
        else:
            self.clock = event.at
        self._pending.append(event)
        if len(self._pending) >= self.queue_limit:
            self._counts["backpressure_flushes"] += 1
            self.metrics.count("stream.replay.backpressure_flushes")
            self.flush()

    def submit_line(self, line: str) -> None:
        """Parse and queue one JSONL line; malformed lines are counted."""
        try:
            event = parse_event_line(line)
        except StreamFormatError as error:
            self._counts["malformed"] += 1
            self.metrics.count("stream.replay.malformed")
            self._record_error(f"malformed line: {error}")
            return
        self.submit(event)

    def submit_lines(self, lines: Iterable[str]) -> int:
        """Feed an iterable of JSONL lines through the tolerant path.

        Blank lines are skipped; malformed ones are counted per the
        :meth:`submit_line` contract. Returns the number of non-blank
        lines consumed — the streaming entry point for feed files and
        the ingest pipeline, which never hold the whole stream.
        """
        consumed = 0
        for raw in lines:
            line = raw.strip()
            if not line:
                continue
            consumed += 1
            self.submit_line(line)
        return consumed

    def run(self, events: Iterable[StreamEvent]) -> ReplayReport:
        """Replay a whole event sequence and return the final report."""
        for event in events:
            self.submit(event)
        return self.finish()

    def finish(self) -> ReplayReport:
        """Flush whatever is pending and assemble the report."""
        self.flush()
        return self.report()

    # -- batch machinery ---------------------------------------------------

    def flush(self) -> int:
        """Apply the pending batch now; returns events applied."""
        if not self._pending:
            return 0
        batch, coalesced = self._coalesce(self._pending)
        self._pending.clear()
        self._counts["coalesced"] += coalesced
        self._counts["flushes"] += 1
        self.metrics.count("stream.replay.coalesced", coalesced)
        self.metrics.count("stream.replay.flushes")
        touched: set[Prefix] = set()
        applied = 0
        with self.metrics.span("stream.replay.flush"):
            for event in batch:
                try:
                    self._apply(event, touched)
                except Exception as error:  # per-event isolation, by contract
                    self.metrics.count("stream.replay.errors")
                    self._record_error(f"{type(event).__name__} at {event.at}: {error}")
                else:
                    applied += 1
        self._counts["applied"] += applied
        self.metrics.count("stream.replay.applied", applied)
        if self.monitor is not None:
            for prefix in sorted(touched, key=str):
                ledger = self._ledgers.get(prefix)
                if ledger is not None:
                    self.monitor.observe(self.clock, prefix, ledger)
        return applied

    def _coalesce(
        self, pending: list[StreamEvent]
    ) -> tuple[list[StreamEvent], int]:
        """Cancel announce→withdraw pairs opened *within* this batch.

        Tracked per (prefix, origin) against the pre-batch active state:
        only a withdraw that closes an announcement opened earlier in the
        same batch cancels with it, together with every duplicate
        announce that fell inside the pair (each would be a no-op under
        per-event replay; kept alone, it would resurrect the route).
        Removing such a group leaves the surviving ledger chain — and
        hence the flushed state — identical.
        """
        removed: set[int] = set()
        # Per key, the in-batch opening announce and its duplicates.
        open_groups: dict[tuple[Prefix, int], list[int]] = {}
        active: dict[tuple[Prefix, int], bool] = {}
        for index, event in enumerate(pending):
            if not isinstance(event, (Announce, Withdraw)):
                continue
            key = (event.prefix, event.origin_asn)
            if key not in active:
                ledger = self._ledgers.get(event.prefix)
                view = self.lab.view
                active[key] = bool(
                    ledger is not None
                    and view.has_asn(event.origin_asn)
                    and ledger.is_active(view.node_of(event.origin_asn))
                )
            if isinstance(event, Announce):
                if not active[key]:
                    active[key] = True
                    open_groups[key] = [index]
                elif key in open_groups:
                    open_groups[key].append(index)
            elif active[key]:
                active[key] = False
                group = open_groups.pop(key, None)
                if group:
                    removed.update(group)
                    removed.add(index)
        kept = [event for index, event in enumerate(pending) if index not in removed]
        return kept, len(removed)

    def _apply(self, event: StreamEvent, touched: set[Prefix]) -> None:
        if isinstance(event, Announce):
            self._apply_announce(event, touched)
        elif isinstance(event, Withdraw):
            self._apply_withdraw(event, touched)
        elif isinstance(event, RoaPublish):
            self.authority.add(
                RouteOriginAuthorization(
                    event.prefix, event.origin_asn, event.max_length
                )
            )
        elif isinstance(event, RoaRevoke):
            try:
                self.authority.remove(
                    RouteOriginAuthorization(
                        event.prefix, event.origin_asn, event.max_length
                    )
                )
            except KeyError:
                self._note_noop()
        elif isinstance(event, DefenseActivate):
            self._deployers.update(event.deployer_asns)
        else:  # pragma: no cover - the event union is closed
            raise TypeError(f"unknown event {event!r}")

    def _apply_announce(self, event: Announce, touched: set[Prefix]) -> None:
        view = self.lab.view
        if not view.has_asn(event.origin_asn):
            raise ValueError(f"unknown origin AS{event.origin_asn}")
        node = view.node_of(event.origin_asn)
        if event.replay:
            # A type-U replay / route leak reuses the route the announcer
            # currently holds; with nothing to reuse the event is a noop
            # — the attack never launches, exactly as in the batch lab.
            tail = self._resolve_replay(event, node)
            if tail is None:
                self._note_noop()
                return
        elif event.path:
            tail = tuple(event.path)
        else:
            tail = None
        ledger = self._ledgers.get(event.prefix)
        if ledger is None:
            ledger = PrefixLedger(self.lab.engine, metrics=self.metrics)
            self._ledgers[event.prefix] = ledger
        defense = self.defense()
        blocked = defense.blocking_nodes(
            view, event.prefix, event.origin_asn, claimed_path=tail
        )
        first_hop = (
            defense.stub_filter
            and not self.lab.graph.customers(event.origin_asn)
            and self.lab.plan.origin_of(event.prefix) != event.origin_asn
        )
        applied = ledger.announce(
            node,
            origin_asn=event.origin_asn,
            blocked=blocked,
            first_hop_filtered=first_hop,
            path=tail,
        )
        if not applied:
            self._note_noop()
            return
        touched.add(event.prefix)

    def _resolve_replay(self, event: Announce, node: int) -> tuple[int, ...] | None:
        """The claimed path a replay marker resolves to right now.

        Longest-match lookup over the live ledgers covering the announced
        prefix: the announcer's currently selected route for that space
        is the one it re-announces. The tail is the announcer's received
        AS path (parent chain ASNs, claimed origin last — the announcer
        itself absent, as on the wire); a leak prepends the announcer.
        ``None`` when no covering ledger gives the announcer a route.
        """
        view = self.lab.view
        covering = sorted(
            (
                (prefix, ledger)
                for prefix, ledger in self._ledgers.items()
                if prefix.contains(event.prefix)
            ),
            key=lambda item: -item[0].length,
        )
        for _prefix, ledger in covering:
            state = ledger.state
            if state is None or not state.has_route(node):
                continue
            chain = state.path_from(node)
            if not chain:
                continue  # the announcer originates this one itself
            origin_asns = ledger.origin_asns()
            tail = tuple(
                origin_asns.get(hop, view.asn_of(hop)) for hop in chain
            )
            if event.replay == "leak":
                return (event.origin_asn, *tail)
            return tail
        return None

    def _apply_withdraw(self, event: Withdraw, touched: set[Prefix]) -> None:
        view = self.lab.view
        if not view.has_asn(event.origin_asn):
            raise ValueError(f"unknown origin AS{event.origin_asn}")
        ledger = self._ledgers.get(event.prefix)
        applied = bool(
            ledger is not None and ledger.withdraw(view.node_of(event.origin_asn))
        )
        if not applied:
            self._note_noop()
            return
        touched.add(event.prefix)

    def _note_noop(self) -> None:
        self._counts["noop"] += 1
        self.metrics.count("stream.replay.noops")

    def _record_error(self, message: str) -> None:
        if len(self.errors) < self.max_errors:
            self.errors.append(message)
        else:
            self._errors_dropped += 1

    # -- summary -----------------------------------------------------------

    def report(self) -> ReplayReport:
        prefixes: dict[str, dict[str, object]] = {}
        for prefix, ledger in sorted(self._ledgers.items(), key=lambda kv: str(kv[0])):
            checksum = ledger.checksum()
            prefixes[str(prefix)] = {
                "active_origins": sorted(ledger.origin_asns().values()),
                "checksum": checksum,
            }
        return ReplayReport(
            clock=self.clock,
            events_submitted=self._counts["submitted"],
            events_applied=self._counts["applied"],
            events_coalesced=self._counts["coalesced"],
            events_malformed=self._counts["malformed"],
            events_out_of_order=self._counts["out_of_order"],
            events_noop=self._counts["noop"],
            flushes=self._counts["flushes"],
            backpressure_flushes=self._counts["backpressure_flushes"],
            errors=tuple(self.errors),
            errors_dropped=self._errors_dropped,
            prefixes=prefixes,
            monitor=self.monitor.report() if self.monitor is not None else None,
        )
