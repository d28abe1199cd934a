"""Unit tests for the compiled routing view (sibling collapse)."""

import pytest

from repro.topology.asgraph import ASGraph
from repro.topology.relationships import Relationship
from repro.topology.view import RoutingView


class TestBasics:
    def test_node_count_without_siblings(self, mini_graph):
        view = RoutingView.from_graph(mini_graph)
        assert len(view) == len(mini_graph)

    def test_adjacency_matches_graph(self, mini_graph):
        view = RoutingView.from_graph(mini_graph)
        node_10 = view.node_of(10)
        assert {view.asn_of(c) for c in view.customers[node_10]} == {30, 80}
        assert {view.asn_of(p) for p in view.peers[node_10]} == {20}
        assert {view.asn_of(p) for p in view.providers[node_10]} == {1}

    def test_tier1_flags(self, mini_graph):
        view = RoutingView.from_graph(mini_graph)
        assert view.is_tier1[view.node_of(1)]
        assert not view.is_tier1[view.node_of(10)]

    def test_has_asn_and_node_roundtrip(self, mini_graph):
        view = RoutingView.from_graph(mini_graph)
        for asn in mini_graph.asns():
            assert view.has_asn(asn)
            assert asn in view.members[view.node_of(asn)]
        assert not view.has_asn(999)

    def test_neighbor_nodes(self, mini_graph):
        view = RoutingView.from_graph(mini_graph)
        node = view.node_of(30)
        assert {view.asn_of(n) for n in view.neighbor_nodes(node)} == {10, 50}


def sibling_graph() -> ASGraph:
    """Siblings 30+31 jointly buy from 10 and serve customer 50."""
    graph = ASGraph()
    for asn in (1, 10, 30, 31, 50):
        graph.add_as(asn, tier1=asn == 1)
    graph.add_relationship(1, 10, Relationship.CUSTOMER)
    graph.add_relationship(10, 30, Relationship.CUSTOMER)
    graph.add_relationship(30, 31, Relationship.SIBLING)
    graph.add_relationship(31, 50, Relationship.CUSTOMER)
    return graph


class TestSiblingCollapse:
    def test_group_becomes_one_node(self):
        view = RoutingView.from_graph(sibling_graph())
        assert len(view) == 4
        assert view.node_of(30) == view.node_of(31)
        assert view.members[view.node_of(30)] == (30, 31)

    def test_merged_adjacency(self):
        view = RoutingView.from_graph(sibling_graph())
        group = view.node_of(30)
        assert {view.asn_of(p) for p in view.providers[group]} == {10}
        assert {view.asn_of(c) for c in view.customers[group]} == {50}

    def test_expand_returns_all_members(self):
        view = RoutingView.from_graph(sibling_graph())
        assert view.expand([view.node_of(30)]) == frozenset({30, 31})

    def test_expand_mixes_groups_and_singletons_and_dedupes(self):
        view = RoutingView.from_graph(sibling_graph())
        group, single = view.node_of(31), view.node_of(50)
        nodes = (node for node in (group, single, group))
        assert view.expand(nodes) == frozenset({30, 31, 50})
        assert view.expand(frozenset({group})) == frozenset({30, 31})
        assert view.expand([]) == frozenset()

    def test_member_count(self):
        view = RoutingView.from_graph(sibling_graph())
        assert view.member_count(view.node_of(31)) == 2
        assert view.member_count(view.node_of(50)) == 1

    def test_conflicting_merged_relationship_becomes_peer(self):
        graph = ASGraph()
        for asn in (30, 31, 40):
            graph.add_as(asn)
        graph.add_relationship(30, 31, Relationship.SIBLING)
        # 30 sells to 40 but 31 buys from 40: contradictory after merging.
        graph.add_relationship(30, 40, Relationship.CUSTOMER)
        graph.add_relationship(40, 31, Relationship.CUSTOMER)
        view = RoutingView.from_graph(graph)
        group = view.node_of(30)
        other = view.node_of(40)
        assert other in view.peers[group]
        assert group in view.peers[other]
        assert other not in view.customers[group]

    def test_sibling_chain_merges_transitively(self):
        graph = ASGraph()
        for asn in (1, 2, 3):
            graph.add_as(asn)
        graph.add_relationship(1, 2, Relationship.SIBLING)
        graph.add_relationship(2, 3, Relationship.SIBLING)
        view = RoutingView.from_graph(graph)
        assert len(view) == 1
        assert view.members[0] == (1, 2, 3)

    def test_nodes_of(self):
        view = RoutingView.from_graph(sibling_graph())
        assert view.nodes_of([30, 31]) == frozenset({view.node_of(30)})


class TestDeterminism:
    def test_same_graph_same_view(self, mini_graph):
        first = RoutingView.from_graph(mini_graph)
        second = RoutingView.from_graph(mini_graph)
        assert first.customers == second.customers
        assert first.members == second.members

    def test_unknown_asn_raises(self, mini_graph):
        view = RoutingView.from_graph(mini_graph)
        with pytest.raises(KeyError):
            view.node_of(12345)
