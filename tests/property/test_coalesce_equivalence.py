"""Batched replay with coalescing lands where per-event replay lands.

``StreamReplayer`` cancels an announce→withdraw pair opened within one
batch (``docs/streaming.md``). The contract is outcome preservation: for
any stream of announces, duplicate announces and withdraws, a replay with
``batch_window > 0`` ends with the same per-prefix active origins and the
same ledger checksums as per-event replay (``batch_window=0``). Per-prefix
sequences are drawn over a few origins so duplicates, spurious withdraws
and re-announces after a withdraw all occur often.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.attacks.lab import HijackLab
from repro.oracle.strategies import example_budget
from repro.stream.events import Announce, Withdraw
from repro.stream.replay import StreamReplayer

from tests.conftest import build_mini_graph

_ORIGINS = (50, 60, 70, 80)
_PREFIX_OWNERS = (50, 70)


@st.composite
def update_streams(draw, *, max_events: int = 24):
    """A time-ordered list of ``(at, kind, prefix_owner, origin)`` ops."""
    count = draw(st.integers(min_value=1, max_value=max_events))
    ops = []
    at = 0.0
    for _ in range(count):
        at += draw(st.sampled_from((0.0, 0.25, 1.0, 4.0)))
        kind = draw(st.sampled_from(("announce", "announce", "withdraw")))
        ops.append(
            (at, kind, draw(st.sampled_from(_PREFIX_OWNERS)),
             draw(st.sampled_from(_ORIGINS)))
        )
    return ops


def _events(lab: HijackLab, ops):
    events = []
    for at, kind, owner, origin in ops:
        prefix = lab.target_prefix(owner)
        cls = Announce if kind == "announce" else Withdraw
        events.append(cls(at=at, prefix=prefix, origin_asn=origin))
    return events


def _outcome(report) -> dict[str, tuple[list[int], str | None]]:
    # A prefix whose every route was withdrawn has an empty ledger under
    # per-event replay and may have none at all once coalesced: both
    # mean "no route", so only prefixes with active origins are compared.
    return {
        prefix: (entry["active_origins"], entry["checksum"])
        for prefix, entry in report.prefixes.items()
        if entry["active_origins"]
    }


@settings(max_examples=example_budget(80), deadline=None)
@given(
    update_streams(),
    st.sampled_from((0.5, 1.0, 3.0, 100.0)),
    st.integers(min_value=2, max_value=64),
)
def test_coalesced_replay_matches_per_event_replay(ops, window, queue_limit):
    lab = HijackLab(build_mini_graph(), seed=1)
    events = _events(lab, ops)
    per_event = StreamReplayer(lab).run(events)
    batched = StreamReplayer(
        lab, batch_window=window, queue_limit=queue_limit
    ).run(events)
    assert _outcome(batched) == _outcome(per_event)
    assert batched.events_submitted == per_event.events_submitted == len(events)
    assert (
        batched.events_applied + batched.events_coalesced + len(batched.errors)
        == batched.events_submitted
    )
