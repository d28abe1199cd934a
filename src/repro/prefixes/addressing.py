"""Address-space allocation: which AS originates which prefixes.

The paper measures attack impact two ways: polluted-AS counts and the share
of IP address space that is drawn away from the rightful origin (Fig. 1:
"96% of the internet address space can no longer reach the target"; node
sizes in the polar graphs reflect owned address space). Reproducing those
metrics requires an explicit, disjoint allocation of prefixes to ASes.

:class:`AddressPlan` carves the unicast IPv4 space into per-AS blocks whose
sizes follow the allocation reality the paper's CAIDA-derived topology has:
a handful of tier-1/tier-2 carriers own enormous aggregates while the tail
of stub ASes originates a /22–/24 or two. Block sizes are driven by a caller
supplied weight per AS (the topology layer passes degree-derived weights),
so any topology — synthetic or real CAIDA — obtains a plausible plan.

Allocation is deterministic for a given input ordering and seed.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import repeat
from typing import Iterable, Mapping, Sequence

from repro.prefixes.prefix import Prefix
from repro.prefixes.trie import PrefixTrie
from repro.util.rng import make_rng

__all__ = ["AddressPlan", "AllocationError"]

# Allocate inside 1.0.0.0/8 .. 223.255.255.255 (classic unicast space),
# skipping the loopback /8. The simulator never needs the reserved ranges
# and skipping them keeps printed prefixes plausible.
_POOL_START = 1 << 24  # 1.0.0.0
_POOL_END = 224 << 24  # first address past 223.255.255.255
_LOOPBACK = Prefix.parse("127.0.0.0/8")


class AllocationError(RuntimeError):
    """Raised when the pool cannot satisfy the requested allocation."""


def _weight_to_length(weight: float, max_weight: float) -> int:
    """Map a relative weight to a prefix length.

    The heaviest AS receives a /10; weight decays map down to /24, roughly
    log-scaled so the resulting size distribution is heavy-tailed like real
    RIR allocations.
    """
    if max_weight <= 0 or weight <= 0:
        return 24
    import math

    # ratio in (0, 1]; log2 spread over the /10../24 range (14 steps).
    ratio = min(1.0, weight / max_weight)
    steps = int(round(-math.log2(max(ratio, 2.0 ** -14))))
    return min(24, 10 + steps)


@dataclass
class AddressPlan:
    """A disjoint assignment of IPv4 prefixes to autonomous systems."""

    _by_asn: dict[int, list[Prefix]] = field(default_factory=dict)
    _origins: PrefixTrie[int] = field(default_factory=PrefixTrie)
    _total_size: int = 0
    # Per-ASN address count, kept in step with _by_asn by assign/transfer.
    _space: dict[int, int] = field(default_factory=dict)

    # -- construction ------------------------------------------------------

    @classmethod
    def build(
        cls,
        weights: Mapping[int, float],
        *,
        seed: int = 0,
        extra_prefix_probability: float = 0.15,
    ) -> "AddressPlan":
        """Allocate one block per AS (heaviest first), sized by weight.

        ``weights`` maps ASN → relative size weight (e.g. AS degree).
        With probability ``extra_prefix_probability`` an AS receives a second
        smaller block, which gives the sub-prefix and multi-origin
        experiments realistic material to work with.
        """
        if not weights:
            return cls()
        rng = make_rng(seed, "address-plan")
        max_weight = max(weights.values())
        requests: list[tuple[int, int]] = []  # (length, asn)
        for asn in sorted(weights):
            length = _weight_to_length(weights[asn], max_weight)
            requests.append((length, asn))
            if rng.random() < extra_prefix_probability:
                requests.append((min(24, length + 2), asn))
        # Largest blocks first: with aligned carving this never fragments.
        requests.sort(key=lambda item: (item[0], item[1]))
        plan = cls()
        cursor = _POOL_START
        for length, asn in requests:
            block = 1 << (32 - length)
            cursor = (cursor + block - 1) // block * block  # align up
            prefix = Prefix(cursor, length)
            if _LOOPBACK.overlaps(prefix):
                cursor = _LOOPBACK.last_address() + 1
                cursor = (cursor + block - 1) // block * block
                prefix = Prefix(cursor, length)
            if cursor + block > _POOL_END:
                raise AllocationError(
                    f"pool exhausted allocating /{length} for AS{asn}"
                )
            plan.assign(asn, prefix)
            cursor += block
        return plan

    def assign(self, asn: int, prefix: Prefix) -> None:
        """Record that *asn* originates *prefix*. Overlaps are rejected."""
        clash = self._origins.longest_match_prefix(prefix)
        if clash is not None:
            raise AllocationError(f"{prefix} overlaps allocated {clash[0]}")
        if any(True for _ in self._origins.covered_by(prefix)):
            raise AllocationError(f"{prefix} covers an existing allocation")
        self._by_asn.setdefault(asn, []).append(prefix)
        self._origins.insert(prefix, asn)
        self._total_size += prefix.size()
        self._space[asn] = self._space.get(asn, 0) + prefix.size()

    def transfer(self, prefix: Prefix, new_asn: int) -> int:
        """Reassign an allocated *prefix* to *new_asn*; returns the old owner.

        Models real-world churn — mergers, address sales, re-homing of
        customer blocks — which is exactly what makes *historical* origin
        data go stale (see :mod:`repro.registry.history`).
        """
        bucket = self._by_asn.get(self._origins.get(prefix, -1))
        if bucket is None or prefix not in bucket:
            raise KeyError(f"{prefix} is not an allocated block")
        old_asn = self._origins[prefix]
        bucket.remove(prefix)
        self._space[old_asn] -= prefix.size()
        if not bucket:
            del self._by_asn[old_asn]
            del self._space[old_asn]
        self._by_asn.setdefault(new_asn, []).append(prefix)
        self._space[new_asn] = self._space.get(new_asn, 0) + prefix.size()
        self._origins.insert(prefix, new_asn)
        return old_asn

    # -- queries -----------------------------------------------------------

    def prefixes_of(self, asn: int) -> Sequence[Prefix]:
        """Prefixes originated by *asn* (empty if none allocated)."""
        return tuple(self._by_asn.get(asn, ()))

    def primary_prefix(self, asn: int) -> Prefix:
        """The largest (first-allocated) prefix of *asn*."""
        prefixes = self._by_asn.get(asn)
        if not prefixes:
            raise KeyError(f"AS{asn} has no allocation")
        return min(prefixes, key=lambda p: (p.length, p.network))

    def origin_of(self, prefix: Prefix) -> int | None:
        """The AS whose allocation contains *prefix*, if any."""
        match = self._origins.longest_match_prefix(prefix)
        return None if match is None else match[1]

    def address_space_of(self, asn: int) -> int:
        return self._space.get(asn, 0)

    def total_allocated(self) -> int:
        """Total number of allocated addresses across all ASes."""
        return self._total_size

    def fraction_owned(self, asns: Iterable[int]) -> float:
        """Share of *allocated* space owned by the given ASes.

        This is the paper's "% of the internet address space" metric: when a
        set of ASes routes traffic to the hijacker, the space they serve is
        proportional to the space behind them, approximated here by the space
        the polluted ASes themselves originate.
        """
        if self._total_size == 0:
            return 0.0
        unique = asns if isinstance(asns, (set, frozenset)) else set(asns)
        owned = sum(map(self._space.get, unique, repeat(0)))
        return owned / self._total_size

    def all_asns(self) -> Sequence[int]:
        return tuple(sorted(self._by_asn))

    def items(self) -> Iterable[tuple[Prefix, int]]:
        """All ``(prefix, origin ASN)`` pairs in prefix order."""
        return self._origins.items()

    def __len__(self) -> int:
        return sum(len(prefixes) for prefixes in self._by_asn.values())

    def __contains__(self, asn: int) -> bool:
        return asn in self._by_asn
