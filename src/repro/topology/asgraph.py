"""The AS-level topology graph.

:class:`ASGraph` stores autonomous systems and their typed business
relationships (provider/customer, peer, sibling) plus per-AS metadata the
experiments need: region tags (Section VII's New-Zealand-style regional
analysis) and an optional explicit tier-1 marking from the generator.

The structure is mutable because Section VII's self-interest playbook edits
it: *re-homing* a vulnerable AS to a lower-depth provider and *multi-homing*
it to additional providers are first-class operations here.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Iterator

from repro.topology.relationships import Relationship

__all__ = ["ASGraph", "TopologyError"]


class TopologyError(ValueError):
    """Raised on inconsistent topology edits (unknown AS, conflicting link)."""


@dataclass
class _ASRecord:
    providers: set[int] = field(default_factory=set)
    customers: set[int] = field(default_factory=set)
    peers: set[int] = field(default_factory=set)
    siblings: set[int] = field(default_factory=set)
    region: str | None = None
    tier1: bool = False

    def neighbor_sets(self) -> tuple[set[int], ...]:
        return (self.providers, self.customers, self.peers, self.siblings)


class ASGraph:
    """Mutable AS topology with relationship-typed adjacency."""

    def __init__(self) -> None:
        self._nodes: dict[int, _ASRecord] = {}

    # -- nodes ---------------------------------------------------------------

    def add_as(self, asn: int, *, region: str | None = None, tier1: bool = False) -> None:
        """Add an AS (idempotent; metadata is updated if already present)."""
        record = self._nodes.get(asn)
        if record is None:
            self._nodes[asn] = _ASRecord(region=region, tier1=tier1)
        else:
            if region is not None:
                record.region = region
            record.tier1 = record.tier1 or tier1

    def __contains__(self, asn: int) -> bool:
        return asn in self._nodes

    def __len__(self) -> int:
        return len(self._nodes)

    def asns(self) -> list[int]:
        """All ASNs in ascending order."""
        return sorted(self._nodes)

    def region_of(self, asn: int) -> str | None:
        return self._record(asn).region

    def set_region(self, asn: int, region: str | None) -> None:
        self._record(asn).region = region

    def is_marked_tier1(self, asn: int) -> bool:
        """True if the generator explicitly marked this AS tier-1."""
        return self._record(asn).tier1

    def marked_tier1(self) -> frozenset[int]:
        return frozenset(asn for asn, rec in self._nodes.items() if rec.tier1)

    def regions(self) -> dict[str, list[int]]:
        """Region name → sorted member ASNs (unregioned ASes omitted)."""
        result: dict[str, list[int]] = {}
        for asn, record in self._nodes.items():
            if record.region is not None:
                result.setdefault(record.region, []).append(asn)
        for members in result.values():
            members.sort()
        return result

    def _record(self, asn: int) -> _ASRecord:
        try:
            return self._nodes[asn]
        except KeyError:
            raise TopologyError(f"unknown AS{asn}") from None

    # -- edges ---------------------------------------------------------------

    def add_relationship(self, asn: int, neighbor: int, relationship: Relationship) -> None:
        """Record that *neighbor* is a ``relationship`` of *asn*.

        ``add_relationship(a, b, CUSTOMER)`` means *b buys transit from a*.
        Both directions are stored. Adding a second, conflicting
        relationship between the same pair raises :class:`TopologyError`.
        """
        if asn == neighbor:
            raise TopologyError(f"self-link on AS{asn}")
        record = self._record(asn)
        other = self._record(neighbor)
        existing = self.relationship(asn, neighbor)
        if existing is relationship:
            return
        if existing is not None:
            raise TopologyError(
                f"AS{asn}–AS{neighbor} already {existing.value}, "
                f"refusing to also mark {relationship.value}"
            )
        if relationship is Relationship.CUSTOMER:
            record.customers.add(neighbor)
            other.providers.add(asn)
        elif relationship is Relationship.PROVIDER:
            record.providers.add(neighbor)
            other.customers.add(asn)
        elif relationship is Relationship.PEER:
            record.peers.add(neighbor)
            other.peers.add(asn)
        else:
            record.siblings.add(neighbor)
            other.siblings.add(asn)

    def remove_relationship(self, asn: int, neighbor: int) -> None:
        """Remove whatever link exists between the pair (error if none)."""
        existing = self.relationship(asn, neighbor)
        if existing is None:
            raise TopologyError(f"no link AS{asn}–AS{neighbor}")
        record = self._record(asn)
        other = self._record(neighbor)
        for bucket in record.neighbor_sets():
            bucket.discard(neighbor)
        for bucket in other.neighbor_sets():
            bucket.discard(asn)

    def relationship(self, asn: int, neighbor: int) -> Relationship | None:
        """The relationship *neighbor* has to *asn*, or None."""
        record = self._record(asn)
        if neighbor in record.customers:
            return Relationship.CUSTOMER
        if neighbor in record.providers:
            return Relationship.PROVIDER
        if neighbor in record.peers:
            return Relationship.PEER
        if neighbor in record.siblings:
            return Relationship.SIBLING
        return None

    # -- neighbor queries ------------------------------------------------------

    def providers(self, asn: int) -> frozenset[int]:
        return frozenset(self._record(asn).providers)

    def customers(self, asn: int) -> frozenset[int]:
        return frozenset(self._record(asn).customers)

    def peers(self, asn: int) -> frozenset[int]:
        return frozenset(self._record(asn).peers)

    def siblings(self, asn: int) -> frozenset[int]:
        return frozenset(self._record(asn).siblings)

    def neighbors(self, asn: int) -> frozenset[int]:
        record = self._record(asn)
        return frozenset().union(*record.neighbor_sets())

    def degree(self, asn: int) -> int:
        record = self._record(asn)
        return sum(len(bucket) for bucket in record.neighbor_sets())

    def edge_count(self) -> int:
        """Number of undirected relationship links."""
        return sum(self.degree(asn) for asn in self._nodes) // 2

    def edges(self) -> Iterator[tuple[int, int, Relationship]]:
        """Each link once, as ``(asn, neighbor, relationship-of-neighbor)``.

        Provider/customer links are reported from the provider side
        (``relationship`` = CUSTOMER); symmetric links from the lower ASN.
        """
        for asn in sorted(self._nodes):
            record = self._nodes[asn]
            for customer in sorted(record.customers):
                yield asn, customer, Relationship.CUSTOMER
            for peer in sorted(record.peers):
                if asn < peer:
                    yield asn, peer, Relationship.PEER
            for sibling in sorted(record.siblings):
                if asn < sibling:
                    yield asn, sibling, Relationship.SIBLING

    # -- mutation used by the self-interest playbook ---------------------------

    def rehome(self, asn: int, old_provider: int, new_provider: int) -> None:
        """Replace one provider link: the Section VII re-homing action."""
        if self.relationship(asn, old_provider) is not Relationship.PROVIDER:
            raise TopologyError(f"AS{old_provider} is not a provider of AS{asn}")
        self.remove_relationship(asn, old_provider)
        self.add_relationship(new_provider, asn, Relationship.CUSTOMER)

    def multihome(self, asn: int, new_provider: int) -> None:
        """Add a provider link: the Section VII multi-homing action."""
        self.add_relationship(new_provider, asn, Relationship.CUSTOMER)

    # -- derived views -----------------------------------------------------------

    def copy(self) -> "ASGraph":
        clone = ASGraph()
        for asn, record in self._nodes.items():
            clone._nodes[asn] = _ASRecord(
                providers=set(record.providers),
                customers=set(record.customers),
                peers=set(record.peers),
                siblings=set(record.siblings),
                region=record.region,
                tier1=record.tier1,
            )
        return clone

    def subgraph(self, asns: Iterable[int]) -> "ASGraph":
        """The induced subgraph on *asns* (links with both ends kept)."""
        keep = set(asns)
        clone = ASGraph()
        for asn in keep:
            record = self._record(asn)
            clone.add_as(asn, region=record.region, tier1=record.tier1)
        for asn, neighbor, relationship in self.edges():
            if asn in keep and neighbor in keep:
                clone.add_relationship(asn, neighbor, relationship)
        return clone

    # -- consistency -----------------------------------------------------------

    def validate(self) -> None:
        """Check adjacency symmetry; raises :class:`TopologyError` on damage."""
        for asn, record in self._nodes.items():
            for provider in record.providers:
                if asn not in self._record(provider).customers:
                    raise TopologyError(f"asymmetric p2c AS{provider}→AS{asn}")
            for customer in record.customers:
                if asn not in self._record(customer).providers:
                    raise TopologyError(f"asymmetric p2c AS{asn}→AS{customer}")
            for peer in record.peers:
                if asn not in self._record(peer).peers:
                    raise TopologyError(f"asymmetric peering AS{asn}–AS{peer}")
            for sibling in record.siblings:
                if asn not in self._record(sibling).siblings:
                    raise TopologyError(f"asymmetric sibling AS{asn}–AS{sibling}")
            buckets = record.neighbor_sets()
            for i in range(len(buckets)):
                for j in range(i + 1, len(buckets)):
                    overlap = buckets[i] & buckets[j]
                    if overlap:
                        raise TopologyError(
                            f"AS{asn} has conflicting relationships with {sorted(overlap)}"
                        )
