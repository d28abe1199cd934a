"""Unit tests for the replay engine and the online monitor.

The batch cross-check class is the load-bearing one: a compiled scenario
stream must land on exactly the pollution set the batch lab computes for
the same scenario — cold and cache-warm, sequential and parallel.
"""

import pytest

from repro.attacks.lab import HijackLab
from repro.attacks.scenario import HijackScenario
from repro.detection.detector import HijackDetector
from repro.detection.probes import custom_probes
from repro.stream.events import (
    Announce,
    DefenseActivate,
    RoaPublish,
    Withdraw,
    compile_campaign,
    compile_scenario,
)
from repro.stream.monitor import OnlineMonitor
from repro.stream.replay import StreamReplayer
from repro.util.rng import make_rng


@pytest.fixture
def lab(mini_graph) -> HijackLab:
    return HijackLab(mini_graph, seed=1)


def polluted_by_stream(lab: HijackLab, replayer: StreamReplayer,
                       scenario: HijackScenario) -> frozenset[int]:
    """The stream-side pollution set, in the batch lab's vocabulary."""
    ledger = replayer.ledger(scenario.prefix)
    assert ledger is not None and ledger.state is not None
    attacker_node = lab.view.node_of(scenario.attacker_asn)
    holders = ledger.state.holders_of(attacker_node)
    return lab.view.expand(holders) - {scenario.attacker_asn}


class TestBatching:
    def test_coalesces_announce_withdraw_opened_in_batch(self, lab):
        prefix = lab.target_prefix(50)
        replayer = StreamReplayer(lab, batch_window=10.0)
        report = replayer.run([
            Announce(at=0.0, prefix=prefix, origin_asn=50),
            Announce(at=1.0, prefix=prefix, origin_asn=60),
            Withdraw(at=2.0, prefix=prefix, origin_asn=60),
        ])
        assert report.events_coalesced == 2
        assert report.prefixes[str(prefix)]["active_origins"] == [50]
        solo = StreamReplayer(lab).run(
            [Announce(at=0.0, prefix=prefix, origin_asn=50)]
        )
        assert (report.prefixes[str(prefix)]["checksum"]
                == solo.prefixes[str(prefix)]["checksum"])

    def test_never_cancels_a_pre_batch_announcement(self, lab):
        prefix = lab.target_prefix(50)
        replayer = StreamReplayer(lab, batch_window=10.0)
        replayer.submit(Announce(at=0.0, prefix=prefix, origin_asn=60))
        replayer.flush()
        # The withdraw closes the *pre-batch* announcement; the duplicate
        # announce in the same batch must not pair with it.
        replayer.submit(Announce(at=1.0, prefix=prefix, origin_asn=60))
        replayer.submit(Withdraw(at=2.0, prefix=prefix, origin_asn=60))
        report = replayer.finish()
        assert report.events_coalesced == 0
        assert report.events_noop == 1  # the duplicate announce
        assert report.prefixes[str(prefix)]["active_origins"] == []

    def test_duplicate_inside_a_cancelled_pair_is_cancelled_too(self, lab):
        """Regression: announce A, duplicate announce A, withdraw A in one
        batch. Per-event replay ends with A withdrawn; coalescing used to
        cancel only the outer pair and leave the duplicate to resurrect A."""
        prefix = lab.target_prefix(50)
        events = [
            Announce(at=0.0, prefix=prefix, origin_asn=60),
            Announce(at=1.0, prefix=prefix, origin_asn=60),
            Withdraw(at=2.0, prefix=prefix, origin_asn=60),
        ]
        per_event = StreamReplayer(lab).run(events)
        batched = StreamReplayer(lab, batch_window=5.0).run(events)
        assert per_event.prefixes[str(prefix)]["active_origins"] == []
        assert batched.prefixes.get(str(prefix), {}).get("active_origins", []) == []
        assert batched.events_coalesced == 3
        assert (batched.events_applied + batched.events_coalesced
                + len(batched.errors)) == batched.events_submitted

    def test_backpressure_flush_at_queue_limit(self, lab):
        prefix = lab.target_prefix(50)
        replayer = StreamReplayer(lab, batch_window=100.0, queue_limit=2)
        replayer.submit(Announce(at=0.0, prefix=prefix, origin_asn=50))
        assert replayer.pending == 1
        replayer.submit(Announce(at=1.0, prefix=prefix, origin_asn=60))
        assert replayer.pending == 0
        report = replayer.finish()
        assert report.backpressure_flushes == 1

    def test_batched_and_unbatched_replays_converge_identically(self, lab):
        scenarios = [
            HijackScenario(50, 60, lab.target_prefix(50)),
            HijackScenario(70, 80, lab.target_prefix(70)),
        ]
        events = compile_campaign(scenarios, stagger=0.5, dwell=2.0)
        per_event = StreamReplayer(lab).run(events)
        batched = StreamReplayer(lab, batch_window=3.0).run(events)
        assert {p: d["checksum"] for p, d in per_event.prefixes.items()} == {
            p: d["checksum"] for p, d in batched.prefixes.items()
        }

    def test_out_of_order_events_counted_not_dropped(self, lab):
        prefix = lab.target_prefix(50)
        replayer = StreamReplayer(lab, batch_window=100.0)
        replayer.submit(Announce(at=5.0, prefix=prefix, origin_asn=50))
        replayer.submit(Announce(at=1.0, prefix=prefix, origin_asn=60))
        report = replayer.finish()
        assert report.events_out_of_order == 1
        assert report.clock == 5.0
        assert report.prefixes[str(prefix)]["active_origins"] == [50, 60]


class TestErrorIsolation:
    def test_malformed_lines_counted_not_fatal(self, lab):
        replayer = StreamReplayer(lab)
        replayer.submit_line("{broken")
        replayer.submit_line('{"kind":"teleport","at":1.0}')
        prefix = lab.target_prefix(50)
        replayer.submit_line(
            '{"at":0.0,"kind":"announce","origin":50,"prefix":"%s"}' % prefix
        )
        report = replayer.finish()
        assert report.events_malformed == 2
        assert report.events_applied == 1
        assert len(report.errors) == 2

    def test_failing_event_does_not_kill_the_batch(self, lab):
        prefix = lab.target_prefix(50)
        report = StreamReplayer(lab).run([
            Announce(at=0.0, prefix=prefix, origin_asn=999999),
            Announce(at=0.0, prefix=prefix, origin_asn=50),
        ])
        assert report.events_applied == 1
        assert any("unknown origin AS999999" in error for error in report.errors)
        assert report.prefixes[str(prefix)]["active_origins"] == [50]

    def test_error_log_is_bounded(self, lab):
        prefix = lab.target_prefix(50)
        replayer = StreamReplayer(lab, max_errors=1)
        report = replayer.run([
            Announce(at=0.0, prefix=prefix, origin_asn=999998),
            Announce(at=0.0, prefix=prefix, origin_asn=999999),
        ])
        assert len(report.errors) == 1 and report.errors_dropped == 1

    def test_spurious_withdraw_is_a_noop(self, lab):
        report = StreamReplayer(lab).run([
            Withdraw(at=0.0, prefix=lab.target_prefix(50), origin_asn=50)
        ])
        assert report.events_noop == 1 and not report.errors

    def test_fully_withdrawn_prefix_reports_no_route_and_frees_state(self, lab):
        prefix = lab.target_prefix(50)
        replayer = StreamReplayer(lab)
        report = replayer.run([
            Announce(at=0.0, prefix=prefix, origin_asn=50),
            Withdraw(at=1.0, prefix=prefix, origin_asn=50),
        ])
        assert report.prefixes[str(prefix)] == {"active_origins": [], "checksum": None}
        assert replayer.ledger(prefix)._state is None


class TestLiveDefense:
    def test_roa_and_deployers_block_later_announcements(self, lab):
        prefix = lab.target_prefix(50)
        replayer = StreamReplayer(lab)
        replayer.run([
            RoaPublish(at=0.0, prefix=prefix, origin_asn=50),
            DefenseActivate(at=0.0, deployer_asns=(40,)),
            Announce(at=1.0, prefix=prefix, origin_asn=50),
            Announce(at=2.0, prefix=prefix, origin_asn=60),
        ])
        assert 40 in replayer.defense().strategy.deployers
        assert len(replayer.authority) == 1
        ledger = replayer.ledger(prefix)
        legit, attack = ledger.entries
        assert legit.blocked == frozenset()
        assert attack.blocked == frozenset({lab.view.node_of(40)})

    def test_defense_changes_are_not_retroactive(self, lab):
        prefix = lab.target_prefix(50)
        replayer = StreamReplayer(lab)
        replayer.run([
            Announce(at=0.0, prefix=prefix, origin_asn=60),
            RoaPublish(at=1.0, prefix=prefix, origin_asn=50),
            DefenseActivate(at=1.0, deployer_asns=(40,)),
        ])
        installed = replayer.ledger(prefix)
        assert installed.entries[0].blocked == frozenset()
        before = installed.checksum()
        # Re-announcing after the defense landed does pick it up.
        replayer.run([
            Withdraw(at=2.0, prefix=prefix, origin_asn=60),
            Announce(at=3.0, prefix=prefix, origin_asn=60),
        ])
        after = replayer.ledger(prefix)
        assert after.entries[0].blocked == frozenset({lab.view.node_of(40)})
        assert after.checksum() != before


class TestMonitor:
    def events(self, prefix):
        return [
            RoaPublish(at=0.0, prefix=prefix, origin_asn=50),
            Announce(at=0.0, prefix=prefix, origin_asn=50),
            Announce(at=1.0, prefix=prefix, origin_asn=60),
        ]

    def monitored(self, lab, *, batch_window=0.0):
        replayer = StreamReplayer(lab, batch_window=batch_window)
        detector = HijackDetector(
            custom_probes("pair", [10, 20]), replayer.authority
        )
        replayer.monitor = OnlineMonitor(lab.view, detector)
        return replayer

    def test_hijack_alarm_charges_queue_time_to_latency(self, lab):
        prefix = lab.target_prefix(50)
        replayer = self.monitored(lab, batch_window=2.0)
        for event in self.events(prefix):
            replayer.submit(event)
        # This event lands past the window: the pending batch flushes at
        # its virtual deadline (t=2) before the withdraw exists.
        replayer.submit(Withdraw(at=10.0, prefix=prefix, origin_asn=60))
        report = replayer.finish()
        monitor = report.monitor
        assert monitor.conflicts_judged >= 1
        alarm = monitor.first_alarm
        assert alarm.at == 2.0 and alarm.verdict == "hijack"
        assert alarm.origins == (50, 60)
        assert alarm.invalid_origins == (60,)
        assert alarm.triggered_probes == (20,)
        # Announced at t=1, judged at the t=2 flush: one virtual second.
        assert alarm.latency_time == 1.0
        assert monitor.detection_latency_time == 1.0

    def test_unbatched_alarm_has_zero_latency(self, lab):
        prefix = lab.target_prefix(50)
        replayer = self.monitored(lab)
        report = replayer.run(self.events(prefix))
        assert report.monitor.detection_latency_time == 0.0

    def test_repeated_conflict_pages_once(self, lab):
        prefix = lab.target_prefix(50)
        replayer = self.monitored(lab)
        replayer.run(self.events(prefix))
        replayer.run([
            Withdraw(at=2.0, prefix=prefix, origin_asn=60),
            Announce(at=3.0, prefix=prefix, origin_asn=60),
        ])
        monitor = replayer.monitor.report()
        assert len(monitor.alarms) == 1

    def test_coalesced_flap_never_alarms(self, lab):
        prefix = lab.target_prefix(50)
        replayer = self.monitored(lab, batch_window=10.0)
        report = replayer.run([
            Announce(at=0.0, prefix=prefix, origin_asn=50),
            Announce(at=1.0, prefix=prefix, origin_asn=60),
            Withdraw(at=2.0, prefix=prefix, origin_asn=60),
        ])
        assert report.events_coalesced == 2
        assert report.monitor.alarms == ()

    def test_report_serializes(self, lab):
        import json

        prefix = lab.target_prefix(50)
        replayer = self.monitored(lab)
        report = replayer.run(self.events(prefix))
        payload = json.loads(json.dumps(report.as_dict()))
        assert payload["monitor"]["alarm_count"] == 1
        assert payload["monitor"]["probe_set"] == "pair"
        assert payload["events"]["submitted"] == 3


class TestMonitorSchema:
    """The JSON contract the service API serves verbatim.

    Adding a key is fine; removing or renaming one breaks every consumer
    of ``/verdicts`` and the stream report files — change this snapshot
    and docs/service.md together.
    """

    def report(self, lab):
        prefix = lab.target_prefix(50)
        replayer = StreamReplayer(lab)
        detector = HijackDetector(
            custom_probes("pair", [10, 20]), replayer.authority
        )
        replayer.monitor = OnlineMonitor(lab.view, detector)
        replayer.run([
            RoaPublish(at=0.0, prefix=prefix, origin_asn=50),
            Announce(at=0.0, prefix=prefix, origin_asn=50),
            Announce(at=1.0, prefix=prefix, origin_asn=60),
        ])
        return replayer.monitor.report()

    def test_alarm_schema_snapshot(self, lab):
        alarm = self.report(lab).first_alarm
        assert set(alarm.as_dict()) == {
            "at", "prefix", "origins", "verdict", "invalid_origins",
            "latency_time", "latency_events", "triggered_probes",
            "culprit_paths",
        }

    def test_report_schema_snapshot(self, lab):
        assert set(self.report(lab).as_dict()) == {
            "probe_set", "probe_count", "events_seen", "conflicts_judged",
            "alarm_count", "detection_latency_time",
            "detection_latency_events", "alarms",
        }

    def test_round_trip_is_json_stable(self, lab):
        import json

        payload = self.report(lab).as_dict()
        once = json.dumps(payload, sort_keys=True)
        twice = json.dumps(json.loads(once), sort_keys=True)
        assert once == twice
        decoded = json.loads(once)
        assert decoded["alarms"][0]["prefix"] == str(lab.target_prefix(50))
        assert decoded["alarms"][0]["origins"] == [50, 60]
        assert decoded["alarms"][0]["invalid_origins"] == [60]


class TestBatchCrossCheck:
    """Compiled scenario streams reproduce the batch lab bit-for-bit."""

    def scenarios(self, lab: HijackLab, count: int) -> list[HijackScenario]:
        rng = make_rng(3, "stream-crosscheck")
        pool = lab.attacker_pool()
        picked: list[HijackScenario] = []
        while len(picked) < count:
            target, attacker = rng.sample(pool, 2)
            if lab.view.node_of(target) == lab.view.node_of(attacker):
                continue
            picked.append(HijackScenario(target, attacker, lab.target_prefix(target)))
        return picked

    def test_stream_matches_batch_cold_and_warm_all_worker_counts(
        self, medium_graph
    ):
        lab = HijackLab(medium_graph, seed=7)  # fresh: cold cache
        scenarios = self.scenarios(lab, 5)
        cold = lab.run_scenarios(scenarios, workers=1)
        warm_parallel = lab.run_scenarios(scenarios, workers=4)  # cache-warm
        warm_serial = lab.run_scenarios(scenarios, workers=1)
        for batch in (warm_parallel, warm_serial):
            assert [o.polluted_asns for o in batch] == [
                o.polluted_asns for o in cold
            ]
        for outcome in cold:
            replayer = StreamReplayer(lab)
            replayer.run(compile_scenario(outcome.scenario))
            assert (
                polluted_by_stream(lab, replayer, outcome.scenario)
                == outcome.polluted_asns
            )

    def test_subprefix_stream_matches_batch(self, lab):
        outcome = lab.subprefix_hijack(50, 60)
        replayer = StreamReplayer(lab)
        replayer.run(compile_scenario(outcome.scenario))
        assert (
            polluted_by_stream(lab, replayer, outcome.scenario)
            == outcome.polluted_asns
        )
