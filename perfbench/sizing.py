"""Workload sizes: the full size the command runs, and a tiny one for tests."""

from __future__ import annotations

from dataclasses import dataclass, field

from common import AS_COUNT
from inputs import ServiceSize, SweepSize, TraceSize


@dataclass
class Sizes:
    #: ASes in the generated topology (the repository's default is 4,270).
    as_count: int = AS_COUNT
    trace: TraceSize = field(default_factory=TraceSize)
    service: ServiceSize = field(default_factory=ServiceSize)
    sweep: SweepSize = field(default_factory=SweepSize)
    #: Offered rate of the service's fixed-rate phase, in lines/s.
    service_rate: float = 260.0


FULL = Sizes()

TINY = Sizes(
    as_count=300,
    trace=TraceSize(origins=10, prefixes=20, peers=2, updates=150, garbage_every=40,
                    announcers=30),
    service=ServiceSize(tenants=12, bursts=400),
    sweep=SweepSize(sweep_attackers=20, ladder_attackers=10, detector_attacks=10),
    service_rate=400.0,
)
