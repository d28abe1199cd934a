"""Seeded input generators for the three workloads.

Every generator takes the benchmark seed and returns (or writes) plain
inputs; the program under test only ever sees those inputs. The same
seed always gives byte-identical inputs, because every random draw goes
through one ``random.Random`` seeded from a string.

Traffic shapes (see README.md):

* **trace** — a RIB dump plus an update feed. Origins announce
  heavy-tailed numbers of prefixes, updates arrive in collector-style
  bursts, most updates change a prefix's origin set, withdrawals hit any
  position of a prefix's announcement stack, and a few garbage lines are
  injected into both files.
* **service** — tenant registrations, a RIB baseline wave, then bursts
  of JSONL lines in which most lines re-announce an origin that is
  already active, a minority are attacks drawn from the 13-cell attack
  grid (withdrawn again a few bursts later), and a few lines are garbage.
* **sweep** — per job, a Fig. 2 target, a Figs. 5/6 target and a Fig. 7
  workload seed.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Any

GARBAGE_LINES = (
    "this line is garbage",
    '{"type": "announce", "prefix": "10.0.0.0/8"',
    "17.0\tannounce\tnot-an-asn\t10.0.0.0/8\t1 2",
    '{"path":[1],"peer":1,"prefix":"300.0.0.0/8","ts":1.0,"type":"announce"}',
)


def _rng(seed: int, stream: str) -> random.Random:
    return random.Random(f"perfbench/{stream}/{seed}")


def _heavy_tail(rng: random.Random, alpha: float, cap: int) -> int:
    """A Pareto-distributed whole number in 1..cap."""
    return min(cap, int(rng.paretovariate(alpha)))


# -- trace_replay ---------------------------------------------------------------


@dataclass
class TraceSize:
    origins: int = 80
    prefixes: int = 240
    peers: int = 4
    updates: int = 2400
    garbage_every: int = 400
    announcers: int = 150


@dataclass
class TraceInputs:
    rib_path: Path
    updates_path: Path
    prefixes: int
    rib_lines: int
    rib_garbage: int
    update_records: int
    update_garbage: int
    announces: int
    withdraws: int
    interior_withdraws: int
    redundant: int


def _record(kind: str, ts: float, peer: int, prefix: str, path: list[int]) -> str:
    # Key-sorted compact JSON: the repository's own trace encoding.
    return json.dumps(
        {"path": path, "peer": peer, "prefix": prefix, "ts": ts, "type": kind},
        sort_keys=True, separators=(",", ":"),
    )


def make_trace(lab: Any, seed: int, directory: Path, size: TraceSize) -> TraceInputs:
    """Write ``rib.jsonl`` and ``updates.jsonl`` for one trace_replay run."""
    rng = _rng(seed, "trace")
    view = lab.view
    everyone = sorted(lab.graph.asns())
    transit = list(lab.attacker_pool(transit_only=True))

    # Origins with heavy-tailed (Zipf-shaped) prefix counts summing to a
    # fixed total, each prefix a more-specific of the origin's own
    # allocation (so the address plan still names the owner). The owners
    # and the announcing ASes are fixed sets drawn once from the topology:
    # how far an announcement spreads depends on who makes it, and
    # per-seed sets changed the work of a run by a third. The seed ranks
    # the owners and draws every sequence.
    owners = random.Random("perfbench/trace-owners").sample(everyone, size.origins)
    rng.shuffle(owners)
    rooms = [2 ** max(0, 24 - lab.plan.primary_prefix(owner).length) for owner in owners]
    shape = [1.0 / (rank + 1) ** 1.1 for rank in range(size.origins)]
    counts = [0] * size.origins
    owed = 0.0
    for rank, weight in enumerate(shape):
        owed += size.prefixes * weight / sum(shape)
        counts[rank] = max(1, min(rooms[rank], round(owed)))
        owed -= counts[rank]
    for rank in range(size.origins):  # place what small allocations could not hold
        while sum(counts) < size.prefixes and counts[rank] < rooms[rank]:
            counts[rank] += 1
    prefixes: list[tuple[str, int]] = []
    for owner, count in zip(owners, counts):
        primary = lab.plan.primary_prefix(owner)
        bits = max(0, (count - 1).bit_length())
        subnets = list(primary.subnets(primary.length + bits))[:count]
        prefixes.extend((str(subnet), owner) for subnet in subnets)
    prefixes = prefixes[: size.prefixes]

    peers = rng.sample(transit, size.peers)
    directory.mkdir(parents=True, exist_ok=True)
    rib_path = directory / "rib.jsonl"
    rib_lines = 0
    rib_garbage = 0
    with rib_path.open("w", encoding="utf-8") as handle:
        for index, (prefix, owner) in enumerate(prefixes):
            for peer in peers:
                path = [owner] if peer == owner else [peer, owner]
                handle.write(_record("rib", 0.0, peer, prefix, path) + "\n")
                rib_lines += 1
            if index % 97 == 48:
                handle.write(GARBAGE_LINES[rib_garbage % len(GARBAGE_LINES)] + "\n")
                rib_garbage += 1

    # The announcement stack per prefix, tracked by routing node (sibling
    # ASes share a node, and the ledger treats them as one origin).
    stacks: dict[str, list[tuple[int, int]]] = {
        prefix: [(view.node_of(owner), owner)] for prefix, owner in prefixes
    }
    owner_of = dict(prefixes)
    # Churn concentrates on a minority of prefixes, as in real feeds.
    weights = [1.0 / (rank + 1) ** 0.8 for rank in range(len(prefixes))]
    order = [prefix for prefix, _owner in prefixes]
    rng.shuffle(order)
    announcers = random.Random("perfbench/trace-announcers").sample(
        transit, min(len(transit), size.announcers))

    updates_path = directory / "updates.jsonl"
    ts = 1.0
    written = 0
    garbage = 0
    tally = {"announce": 0, "withdraw": 0, "interior": 0, "redundant": 0}
    with updates_path.open("w", encoding="utf-8") as handle:
        while written < size.updates:
            # One collector burst: heavy-tailed size, 10 ms apart inside
            # the burst, exponential gaps between bursts.
            burst = _heavy_tail(rng, 1.1, 60)
            ts += rng.expovariate(0.5)
            for _ in range(burst):
                if written >= size.updates:
                    break
                ts += 0.01
                stamp = round(ts, 3)
                prefix = rng.choices(order, weights)[0]
                stack = stacks[prefix]
                withdraw_p = 0.12 + 0.22 * (len(stack) - 1)
                if stack and rng.random() < withdraw_p:
                    position = rng.randrange(len(stack))
                    node, asn = stack.pop(position)
                    tally["withdraw"] += 1
                    if position < len(stack):
                        tally["interior"] += 1
                    handle.write(_record("withdraw", stamp, asn, prefix, [asn]) + "\n")
                elif stack and rng.random() < 0.1:
                    node, asn = stack[rng.randrange(len(stack))]
                    tally["redundant"] += 1
                    tally["announce"] += 1
                    handle.write(_record("announce", stamp, asn, prefix, [asn]) + "\n")
                else:
                    active = {node for node, _asn in stack}
                    owner = owner_of[prefix]
                    if view.node_of(owner) not in active and rng.random() < 0.3:
                        asn = owner  # the owner comes back
                    else:
                        asn = rng.choice(announcers)
                        while view.node_of(asn) in active:
                            asn = rng.choice(transit)
                    stack.append((view.node_of(asn), asn))
                    # A minority claims a forged type-1 path to the owner.
                    path = [asn, owner] if asn != owner and rng.random() < 0.15 else [asn]
                    tally["announce"] += 1
                    handle.write(_record("announce", stamp, asn, prefix, path) + "\n")
                written += 1
                if written % size.garbage_every == 0:
                    handle.write(GARBAGE_LINES[garbage % len(GARBAGE_LINES)] + "\n")
                    garbage += 1
    return TraceInputs(
        rib_path=rib_path,
        updates_path=updates_path,
        prefixes=len(prefixes),
        rib_lines=rib_lines,
        rib_garbage=rib_garbage,
        update_records=written,
        update_garbage=garbage,
        announces=tally["announce"],
        withdraws=tally["withdraw"],
        interior_withdraws=tally["interior"],
        redundant=tally["redundant"],
    )


# -- service_feed ------------------------------------------------------------------


@dataclass
class ServiceSize:
    tenants: int = 120
    mitigating_share: float = 0.25
    bursts: int = 12000
    attack_share: float = 0.12
    garbage_share: float = 0.004
    max_burst: int = 40


@dataclass
class Burst:
    lines: list[str]
    #: Injected garbage lines among *lines* (the daemon must reject them).
    garbage: int


@dataclass
class ServiceInputs:
    registrations: list[dict[str, Any]]
    wave: list[list[str]]
    bursts: list[Burst]


def _event_line(event: Any) -> str:
    from repro.stream.events import event_to_dict

    return json.dumps(event_to_dict(event), sort_keys=True, separators=(",", ":"))


def make_service(lab: Any, seed: int, size: ServiceSize) -> ServiceInputs:
    """Registrations, the RIB baseline wave and the timed bursts."""
    from repro.detection.taxonomy import grid_cells
    from repro.stream.events import Announce, Withdraw, compile_scenario

    rng = _rng(seed, "service")
    view = lab.view
    everyone = sorted(lab.graph.asns())
    transit = list(lab.attacker_pool(transit_only=True))

    tenants: list[int] = []
    seen_nodes: set[int] = set()
    for asn in rng.sample(everyone, len(everyone)):
        node = view.node_of(asn)
        if node in seen_nodes:
            continue
        seen_nodes.add(node)
        tenants.append(asn)
        if len(tenants) == size.tenants:
            break
    registrations = [
        {
            "tenant": f"as{asn}",
            "prefix": str(lab.target_prefix(asn)),
            "origin": asn,
            "auto_mitigate": rng.random() < size.mitigating_share,
        }
        for asn in tenants
    ]
    announce_lines = [
        _event_line(Announce(at=0.0, prefix=lab.target_prefix(asn), origin_asn=asn))
        for asn in tenants
    ]
    wave = [announce_lines[start:start + 20] for start in range(0, len(announce_lines), 20)]

    cells = grid_cells()
    # (withdraw in burst, prefix, attacker): every attack is withdrawn a
    # few bursts later, stamped with the burst that carries it.
    outstanding: list[tuple[int, Any, int]] = []
    bursts: list[Burst] = []
    for index in range(size.bursts):
        at = round(1.0 + index * 0.05, 3)
        count = _heavy_tail(rng, 1.3, size.max_burst)
        lines: list[str] = []
        garbage = 0
        while outstanding and outstanding[0][0] <= index:
            _due, prefix, attacker = outstanding.pop(0)
            lines.append(_event_line(Withdraw(at=at, prefix=prefix, origin_asn=attacker)))
        for _ in range(count):
            draw = rng.random()
            if draw < size.garbage_share:
                lines.append(GARBAGE_LINES[rng.randrange(len(GARBAGE_LINES))])
                garbage += 1
            elif draw < size.garbage_share + size.attack_share:
                target = rng.choice(tenants)
                attacker = rng.choice(transit)
                if view.node_of(attacker) == view.node_of(target):
                    continue
                kind, path_kind = cells[rng.randrange(len(cells))]
                scenario = lab.build_scenario(
                    target, attacker, kind=kind, path_kind=path_kind,
                    forged_depth=rng.randint(1, 3),
                )
                for event in compile_scenario(
                    scenario, start=at, spacing=0.0, announce_legitimate=False
                ):
                    lines.append(_event_line(event))
                outstanding.append((index + rng.randint(1, 8), scenario.prefix, attacker))
                outstanding.sort(key=lambda item: item[0])
            else:
                asn = rng.choice(tenants)
                lines.append(_event_line(
                    Announce(at=at, prefix=lab.target_prefix(asn), origin_asn=asn)
                ))
        bursts.append(Burst(lines=lines, garbage=garbage))
    return ServiceInputs(registrations=registrations, wave=wave, bursts=bursts)


# -- paper_sweep ---------------------------------------------------------------------


@dataclass
class SweepSize:
    sweep_attackers: int = 500
    ladder_rungs: tuple[int, ...] = (0, 3, 5, 7)
    ladder_attackers: int = 120
    detector_attacks: int = 100
    #: Measured-window seconds per job: a run does seconds / this many jobs.
    job_seconds: float = 5.0


@dataclass
class SweepJob:
    sweep_target: int
    ladder_target: int
    detector_seed: int
    sample_seed: int


def make_sweep_jobs(lab: Any, seed: int, count: int) -> list[SweepJob]:
    """*count* jobs; targets are fixed per job index, samples follow *seed*.

    A target's depth sets how much of the network its attackers capture,
    and with it the cost of its sweep by several times. Fixing the
    targets (drawn once from the topology) keeps the work of a run the
    same for every seed; the seed varies the sampled attackers and the
    Fig. 7 attack pairs.
    """
    transit = list(lab.attacker_pool(transit_only=True))
    targets = random.Random("perfbench/sweep-targets").sample(transit, 16)
    rng = _rng(seed, "sweep")
    jobs = []
    for index in range(count):
        jobs.append(SweepJob(
            sweep_target=targets[(2 * index) % len(targets)],
            ladder_target=targets[(2 * index + 1) % len(targets)],
            detector_seed=rng.randrange(1 << 30),
            sample_seed=rng.randrange(1 << 30),
        ))
    return jobs
