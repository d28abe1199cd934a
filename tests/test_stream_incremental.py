"""Unit tests for the per-prefix incremental convergence ledger, plus the
stream-side half of the attack-taxonomy conformance matrix: every grid
cell compiled to events must raise the same verdict from the online
monitor that the batch detector reaches on the finished outcome."""

import pytest

from repro.attacks.lab import HijackLab
from repro.bgp.engine import RoutingEngine
from repro.detection.detector import HijackDetector
from repro.detection.probes import top_degree_probes
from repro.detection.taxonomy import grid_cells
from repro.obs.metrics import Metrics
from repro.registry.neighbors import NeighborRegistry
from repro.registry.publication import PublicationState
from repro.stream.events import Announce, compile_scenario
from repro.stream.incremental import AnnounceEntry, PrefixLedger, full_converge
from repro.stream.monitor import OnlineMonitor
from repro.stream.replay import StreamReplayer


@pytest.fixture
def engine(mini_view) -> RoutingEngine:
    return RoutingEngine(mini_view)


def node(view, asn: int) -> int:
    return view.node_of(asn)


class TestLedgerBasics:
    def test_empty_ledger_has_no_state(self, engine):
        ledger = PrefixLedger(engine)
        assert len(ledger) == 0
        assert ledger.state is None
        assert ledger.checksum() is None
        assert ledger.entries == ()
        assert full_converge(engine, ledger.entries) is None

    def test_single_announce_equals_cold_converge(self, engine, mini_view):
        ledger = PrefixLedger(engine)
        origin = node(mini_view, 50)
        assert ledger.announce(origin, origin_asn=50)
        assert ledger.checksum() == engine.converge(origin).checksum()
        assert ledger.origin_asns() == {origin: 50}

    def test_duplicate_announce_is_noop(self, engine, mini_view):
        ledger = PrefixLedger(engine)
        origin = node(mini_view, 50)
        assert ledger.announce(origin)
        before = ledger.checksum()
        assert not ledger.announce(origin)
        assert len(ledger) == 1 and ledger.checksum() == before

    def test_withdraw_of_inactive_origin_is_noop(self, engine, mini_view):
        ledger = PrefixLedger(engine)
        assert not ledger.withdraw(node(mini_view, 50))
        assert ledger.announce(node(mini_view, 50))
        assert not ledger.withdraw(node(mini_view, 60))

    def test_captured_parameters_reach_the_pass(self, engine, mini_view):
        blocked = frozenset({node(mini_view, 40)})
        ledger = PrefixLedger(engine)
        assert ledger.announce(node(mini_view, 60), blocked=blocked,
                               first_hop_filtered=True)
        entry = ledger.entries[0]
        assert entry.blocked == blocked and entry.first_hop_filtered
        reference = engine.converge(
            node(mini_view, 60), blocked=blocked, filter_first_hop_providers=True
        )
        assert ledger.checksum() == reference.checksum()


class TestWithdrawRewind:
    def test_newest_withdraw_restores_previous_state(self, engine, mini_view):
        ledger = PrefixLedger(engine)
        assert ledger.announce(node(mini_view, 50))
        before = ledger.checksum()
        assert ledger.announce(node(mini_view, 60))
        assert ledger.withdraw(node(mini_view, 60))
        assert ledger.checksum() == before

    def test_interior_withdraw_replays_suffix(self, engine, mini_view):
        ledger = PrefixLedger(engine)
        for asn in (50, 60, 70):
            assert ledger.announce(node(mini_view, asn))
        assert ledger.withdraw(node(mini_view, 50))
        assert ledger.active_origins() == (
            node(mini_view, 60), node(mini_view, 70)
        )
        assert ledger.checksum() == full_converge(
            engine,
            (AnnounceEntry(node(mini_view, 60), 60),
             AnnounceEntry(node(mini_view, 70), 70)),
        ).checksum()

    def test_withdraw_to_empty(self, engine, mini_view):
        ledger = PrefixLedger(engine)
        assert ledger.announce(node(mini_view, 50))
        assert ledger.withdraw(node(mini_view, 50))
        assert ledger.state is None and ledger.checksum() is None

    def test_withdraw_to_empty_frees_the_buffer(self, engine, mini_view):
        ledger = PrefixLedger(engine)
        assert ledger.announce(node(mini_view, 50), blocked={node(mini_view, 40)})
        assert ledger.announce(node(mini_view, 60))
        assert ledger.withdraw(node(mini_view, 60))
        assert ledger._state is not None  # one announcement still live
        assert ledger.withdraw(node(mini_view, 50))
        assert ledger._state is None

    def test_reannounce_after_free_equals_cold_converge(self, engine, mini_view):
        ledger = PrefixLedger(engine)
        assert ledger.announce(node(mini_view, 50))
        assert ledger.withdraw(node(mini_view, 50))
        assert ledger.announce(node(mini_view, 60), origin_asn=60)
        assert ledger.checksum() == full_converge(
            engine, (AnnounceEntry(node(mini_view, 60), 60),)
        ).checksum()

    def test_oldest_withdraw_reapplies_the_survivor(self, engine, mini_view):
        ledger = PrefixLedger(engine)
        assert ledger.announce(node(mini_view, 50))
        assert ledger.announce(node(mini_view, 60), origin_asn=60)
        assert ledger.withdraw(node(mini_view, 50))
        assert ledger._state is not None
        assert ledger.active_origins() == (node(mini_view, 60),)
        assert ledger.checksum() == engine.converge(node(mini_view, 60)).checksum()


class TestValidateMode:
    def test_validated_ledger_records_checksums(self, mini_view):
        ledger = PrefixLedger(RoutingEngine(mini_view, validate=True))
        assert ledger.announce(node(mini_view, 50))
        assert ledger.announce(node(mini_view, 60))
        assert all(slot.checksum for slot in ledger._slots)
        assert ledger.withdraw(node(mini_view, 60))  # tripwire passes

    def test_rewind_tripwire_catches_external_corruption(self, mini_view):
        ledger = PrefixLedger(RoutingEngine(mini_view, validate=True))
        origin_a = node(mini_view, 50)
        assert ledger.announce(origin_a)
        assert ledger.announce(node(mini_view, 60))
        # Corrupt a cell the second delta never touched: the first
        # origin's own entry (an origin route is never displaced).
        ledger._state.length[origin_a] += 7
        with pytest.raises(RuntimeError, match="journal corruption"):
            ledger.withdraw(node(mini_view, 60))


class TestClaimedPaths:
    """The ledger carries and pads claimed AS paths like the batch lab."""

    def test_honest_announce_claims_itself(self, engine, mini_view):
        ledger = PrefixLedger(engine)
        origin = node(mini_view, 50)
        assert ledger.announce(origin, origin_asn=50)
        assert ledger.claimed_paths() == {origin: (50,)}
        assert ledger.entries[0].origin_length == 0

    def test_forged_path_sets_claimed_padding(self, engine, mini_view):
        ledger = PrefixLedger(engine)
        origin = node(mini_view, 60)
        path = (60, 64512, 50)
        assert ledger.announce(origin, origin_asn=60, path=path)
        entry = ledger.entries[0]
        assert entry.claimed_path == path
        assert entry.origin_length == 2
        assert ledger.claimed_paths() == {origin: path}
        # The padding reaches the pass: identical to a cold converge at
        # the claimed length.
        reference = engine.converge(origin, origin_length=2)
        assert ledger.checksum() == reference.checksum()

    def test_padded_route_loses_where_honest_wins(self, engine, mini_view):
        """A deep forged claim competes at its claimed length — receivers
        that a type-0 squat would capture keep the legitimate route."""
        honest = PrefixLedger(engine)
        padded = PrefixLedger(engine)
        for ledger, path in ((honest, None), (padded, (60, 64512, 64513, 50))):
            assert ledger.announce(node(mini_view, 50), origin_asn=50)
            assert ledger.announce(node(mini_view, 60), origin_asn=60, path=path)
        attacker = node(mini_view, 60)
        assert honest.state.holders_of(attacker) > padded.state.holders_of(attacker)

    def test_rewind_restores_paths(self, engine, mini_view):
        ledger = PrefixLedger(engine)
        legit = node(mini_view, 50)
        assert ledger.announce(legit, origin_asn=50)
        assert ledger.announce(node(mini_view, 60), origin_asn=60,
                               path=(60, 50))
        assert ledger.withdraw(node(mini_view, 60))
        assert ledger.claimed_paths() == {legit: (50,)}


class TestStreamTaxonomy:
    """Stream half of the conformance matrix (``tests/test_taxonomy.py``
    holds the batch half): compile each grid cell, replay it, and demand
    the monitor's live verdict equal the batch detector's postmortem."""

    TARGET, ATTACKER = 50, 60

    @pytest.fixture
    def lab(self, mini_graph) -> HijackLab:
        return HijackLab(mini_graph, seed=0)

    def full_detector(self, lab) -> HijackDetector:
        return HijackDetector(
            probes=top_degree_probes(lab.graph, count=4),
            authority=PublicationState.full(lab.plan).table(),
            neighbors=NeighborRegistry.from_graph(lab.graph),
            relationships=lab.graph,
        )

    def replayed(self, lab, scenario):
        replayer = StreamReplayer(lab)
        replayer.monitor = OnlineMonitor(lab.view, self.full_detector(lab))
        report = replayer.run(compile_scenario(scenario))
        return replayer, report

    @pytest.mark.parametrize(
        "kind,path_kind", grid_cells(),
        ids=[f"{k.value}-{p.value}" for k, p in grid_cells()],
    )
    def test_stream_verdict_matches_batch(self, lab, kind, path_kind):
        scenario = lab.build_scenario(
            self.TARGET, self.ATTACKER, kind=kind, path_kind=path_kind,
            forged_depth=2,
        )
        batch = self.full_detector(lab).observe(lab.run_scenario(scenario))
        assert batch.detected  # the full ladder classifies every cell
        _replayer, report = self.replayed(lab, scenario)
        alarm = report.monitor.first_alarm
        assert alarm is not None, f"{kind.value}/{path_kind.value} never alarmed"
        assert alarm.verdict == batch.verdict.value
        assert alarm.prefix == scenario.prefix
        # Per-event replay judges the announcement the instant it lands.
        assert (alarm.latency_time, alarm.latency_events) == (0.0, 0)

    def test_replayed_claims_reach_the_monitor(self, lab):
        """The resolved type-U / leak tails are the batch lab's, hop for
        hop — the monitor indicts the same claimed paths."""
        expected = {
            "unmodified": (40, 20, 10, 30, 50),
            "leak": (60, 40, 20, 10, 30, 50),
        }
        from repro.attacks.scenario import HijackKind, PathKind

        for kind, marker in (
            (HijackKind.ORIGIN, "unmodified"),
            (HijackKind.ROUTE_LEAK, "leak"),
        ):
            scenario = lab.build_scenario(
                self.TARGET, self.ATTACKER, kind=kind, path_kind=PathKind.TYPE_U
            )
            replayer, report = self.replayed(lab, scenario)
            ledger = replayer.ledger(scenario.prefix)
            attacker_node = lab.view.node_of(self.ATTACKER)
            assert ledger.claimed_paths()[attacker_node] == expected[marker]
            assert report.monitor.first_alarm.culprit_paths == (
                expected[marker],
            )

    def test_replay_with_no_route_is_a_noop(self, lab):
        """A replay marker with nothing to replay fizzles: counted as a
        noop, no ledger entry, no alarm — the batch fizzle, streamed."""
        prefix = lab.target_prefix(self.TARGET)
        replayer = StreamReplayer(lab)
        replayer.monitor = OnlineMonitor(lab.view, self.full_detector(lab))
        report = replayer.run([
            Announce(at=0.0, prefix=prefix, origin_asn=self.ATTACKER,
                     replay="unmodified"),
        ])
        assert report.events_noop == 1
        assert report.events_applied == 1  # applied, resolved to nothing
        assert replayer.ledger(prefix) is None
        assert report.monitor.alarms == ()

    def test_batched_taxonomy_alarm_charges_queue_time(self, lab):
        """Latency accounting holds for path-forged cells too: a type-1
        claim queued behind a batch window pays the window in latency."""
        from repro.attacks.scenario import HijackKind, PathKind

        scenario = lab.build_scenario(
            self.TARGET, self.ATTACKER,
            kind=HijackKind.ORIGIN, path_kind=PathKind.TYPE_1,
        )
        replayer = StreamReplayer(lab, batch_window=2.0)
        replayer.monitor = OnlineMonitor(lab.view, self.full_detector(lab))
        for event in compile_scenario(scenario):
            replayer.submit(event)
        from repro.stream.events import Withdraw

        # Push the clock past the window so the batch flushes at its
        # virtual deadline (t = 0 + 2), one second after the forged
        # announce at t=1.
        replayer.submit(
            Withdraw(at=10.0, prefix=scenario.prefix, origin_asn=self.ATTACKER)
        )
        report = replayer.finish()
        alarm = report.monitor.first_alarm
        assert alarm is not None
        assert alarm.verdict == "forged-path"
        assert alarm.at == 2.0
        assert alarm.latency_time == 1.0


class TestMetrics:
    def test_ledger_counters(self, mini_view):
        metrics = Metrics()
        ledger = PrefixLedger(RoutingEngine(mini_view), metrics=metrics)
        for asn in (50, 60, 70):
            assert ledger.announce(node(mini_view, asn))
        assert ledger.withdraw(node(mini_view, 50))  # rewinds 3, replays 2
        counters = metrics.snapshot()["counters"]
        assert counters["stream.ledger.convergences"] == 5
        assert counters["stream.ledger.reverts"] == 3
        assert counters["stream.ledger.replays"] == 2
        assert counters["stream.ledger.cells_installed"] > 0
