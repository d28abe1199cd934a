"""Model calibration: the repository's answer to the paper's RouteViews check.

The paper validated its simulator by comparing computed routes against
RouteViews RIBs (62% exact/topologically-equivalent matches) and grounded
it on the CAIDA snapshot's structure. Without network access we validate
differently but more strictly:

* **structural calibration** — the synthetic topology's headline numbers
  against the paper's CAIDA constants (17 tier-1s, 14.7% transit, ~3.26
  links per AS, depths reaching 5+);
* **dual-engine agreement** — the fraction of sampled hijacks where the
  fast engine and the message simulator agree *exactly* on the polluted
  set (the analogue of the RIB-match rate; must be 1.0);
* **path realism** — mean inflation of policy-path lengths over plain
  shortest paths for sampled AS pairs. Valley-free routing inflates paths
  only mildly on internet-like graphs; large inflation would flag a
  mis-shaped topology.

``repro-bgp``'s users get this as a one-call health report before trusting
experiment output on a new topology.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

from repro.attacks.lab import HijackLab
from repro.bgp.simulator import BGPSimulator
from repro.topology.asgraph import ASGraph
from repro.topology.classify import summarize
from repro.util.rng import make_rng
from repro.util.tables import render_table

__all__ = ["CalibrationReport", "calibrate"]

PAPER_CONSTANTS: Mapping[str, float] = {
    "as_count": 42_697,
    "link_count": 139_156,
    "links_per_as": 139_156 / 42_697,
    "tier1_count": 17,
    "transit_fraction": 6_318 / 42_697,
    "routeviews_match": 0.62,
}


@dataclass(frozen=True)
class CalibrationReport:
    """Topology and model health metrics, with the paper's references."""

    as_count: int
    link_count: int
    tier1_count: int
    transit_fraction: float
    max_depth: int
    depth_histogram: Mapping[int, int]
    engine_simulator_agreement: float
    agreement_samples: int
    path_inflation_mean: float
    path_samples: int

    @property
    def links_per_as(self) -> float:
        return self.link_count / self.as_count if self.as_count else 0.0

    def healthy(self) -> bool:
        """The gates experiments rely on."""
        return (
            self.engine_simulator_agreement == 1.0
            and 0.08 <= self.transit_fraction <= 0.25
            and self.max_depth >= 4
            and self.path_inflation_mean < 1.6
        )

    def render(self) -> str:
        rows = [
            ("ASes", self.as_count, int(PAPER_CONSTANTS["as_count"])),
            ("links", self.link_count, int(PAPER_CONSTANTS["link_count"])),
            ("links/AS", round(self.links_per_as, 2),
             round(PAPER_CONSTANTS["links_per_as"], 2)),
            ("tier-1 ASes", self.tier1_count, int(PAPER_CONSTANTS["tier1_count"])),
            ("transit fraction", f"{self.transit_fraction:.1%}",
             f"{PAPER_CONSTANTS['transit_fraction']:.1%}"),
            ("max depth", self.max_depth, "5+"),
            ("engine/simulator agreement",
             f"{self.engine_simulator_agreement:.0%}",
             f"(paper RIB match: {PAPER_CONSTANTS['routeviews_match']:.0%})"),
            ("policy path inflation", f"{self.path_inflation_mean:.2f}x", "-"),
        ]
        return render_table(
            ("metric", "this topology", "paper / CAIDA"),
            rows,
            title="Calibration report"
            + ("  [healthy]" if self.healthy() else "  [NEEDS ATTENTION]"),
        )


def _hop_distance(graph: ASGraph, source: int, target: int) -> int | None:
    """Undirected hop count from *source* to *target* by BFS, ignoring
    relationships; ``None`` when they are disconnected."""
    if source == target:
        return 0
    seen = {source}
    frontier = [source]
    hops = 0
    while frontier:
        hops += 1
        next_frontier = []
        for asn in frontier:
            for neighbor in graph.neighbors(asn):
                if neighbor == target:
                    return hops
                if neighbor not in seen:
                    seen.add(neighbor)
                    next_frontier.append(neighbor)
        frontier = next_frontier
    return None


def calibrate(
    lab: HijackLab,
    *,
    agreement_samples: int = 10,
    path_samples: int = 60,
    seed: int = 0,
) -> CalibrationReport:
    """Measure structural and model health for one lab."""
    stats = summarize(lab.graph)
    view = lab.view
    rng = make_rng(seed, "calibration")

    # Dual-engine agreement over random hijacks (exact polluted-set match).
    agreements = 0
    pairs = 0
    while pairs < agreement_samples:
        target, attacker = rng.sample(range(len(view)), 2)
        prefix = lab.target_prefix(view.asn_of(target))
        simulator = BGPSimulator(view, lab.policy)
        simulator.announce(target, prefix)
        report = simulator.announce(attacker, prefix)
        result = lab.engine.hijack(target, attacker)
        if frozenset(report.adopters) == result.polluted_nodes:
            agreements += 1
        pairs += 1

    # Path inflation vs undirected shortest paths.
    inflation_total = 0.0
    measured = 0
    attempts = 0
    while measured < path_samples and attempts < path_samples * 5:
        attempts += 1
        origin = rng.randrange(len(view))
        node = rng.randrange(len(view))
        if node == origin:
            continue
        state = lab._legitimate_state(origin)
        if not state.has_route(node) or state.length[node] == 0:
            continue
        shortest = _hop_distance(lab.graph, view.asn_of(node), view.asn_of(origin))
        if not shortest:
            continue
        inflation_total += state.length[node] / shortest
        measured += 1

    return CalibrationReport(
        as_count=stats.as_count,
        link_count=stats.link_count,
        tier1_count=len(stats.tier1),
        transit_fraction=stats.transit_fraction,
        max_depth=stats.max_depth,
        depth_histogram=dict(stats.depth_histogram),
        engine_simulator_agreement=agreements / max(1, pairs),
        agreement_samples=pairs,
        path_inflation_mean=inflation_total / max(1, measured),
        path_samples=measured,
    )
