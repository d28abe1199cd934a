"""Unit tests for the fast routing engine (against hand-computed outcomes)."""

import pytest

from repro.bgp.engine import RouteState, RoutingEngine, UNREACHABLE
from repro.bgp.policy import PolicyConfig
from repro.topology.relationships import RouteClass


@pytest.fixture
def engine(mini_view):
    return RoutingEngine(mini_view)


class TestConverge:
    def test_everyone_reached(self, engine, mini_view):
        state = engine.converge(mini_view.node_of(50))
        assert all(state.has_route(node) for node in range(len(mini_view)))

    def test_classes_and_lengths(self, engine, mini_view):
        state = engine.converge(mini_view.node_of(50))
        expect = {
            50: (RouteClass.ORIGIN, 0), 30: (RouteClass.CUSTOMER, 1),
            10: (RouteClass.CUSTOMER, 2), 1: (RouteClass.CUSTOMER, 3),
            20: (RouteClass.PEER, 3), 2: (RouteClass.PEER, 4),
            80: (RouteClass.PROVIDER, 3), 40: (RouteClass.PROVIDER, 4),
            70: (RouteClass.PROVIDER, 4), 60: (RouteClass.PROVIDER, 5),
        }
        for asn, (route_class, length) in expect.items():
            node = mini_view.node_of(asn)
            assert state.route_class(node) is route_class, asn
            assert state.length[node] == length, asn

    def test_parent_paths_terminate_at_origin(self, engine, mini_view):
        origin = mini_view.node_of(50)
        state = engine.converge(origin)
        for asn in (60, 70, 2, 40):
            path = state.path_from(mini_view.node_of(asn))
            assert path[-1] == origin

    def test_path_lengths_match(self, engine, mini_view):
        state = engine.converge(mini_view.node_of(50))
        for node in range(len(mini_view)):
            assert len(state.path_from(node)) == state.length[node]

    def test_empty_state_shape(self):
        state = RouteState.empty(4, origin=0)
        assert state.length == [UNREACHABLE] * 4
        assert not state.has_route(2)
        assert state.route_class(1) is None


class TestHijack:
    def test_deep_stub_attacker(self, engine, mini_view):
        result = engine.hijack(mini_view.node_of(50), mini_view.node_of(60))
        assert result.polluted_asns(mini_view) == frozenset({40, 20, 2})
        assert result.pollution_count(mini_view) == 3

    def test_tier1_stub_attacker(self, engine, mini_view):
        result = engine.hijack(mini_view.node_of(50), mini_view.node_of(70))
        assert result.polluted_asns(mini_view) == frozenset({1, 2})

    def test_precomputed_legitimate_state_reused(self, engine, mini_view):
        target = mini_view.node_of(50)
        legit = engine.converge(target)
        result = engine.hijack(target, mini_view.node_of(60), legitimate=legit)
        assert result.polluted_asns(mini_view) == frozenset({40, 20, 2})
        # The legit state must not have been mutated by the attack pass.
        assert legit.origin_of[mini_view.node_of(40)] == target

    def test_wrong_legit_state_rejected(self, engine, mini_view):
        legit = engine.converge(mini_view.node_of(50))
        with pytest.raises(ValueError):
            engine.hijack(mini_view.node_of(60), mini_view.node_of(70), legitimate=legit)

    def test_self_attack_rejected(self, engine, mini_view):
        node = mini_view.node_of(50)
        with pytest.raises(ValueError):
            engine.hijack(node, node)

    def test_blocked_node_neither_adopts_nor_propagates(self, engine, mini_view):
        result = engine.hijack(
            mini_view.node_of(50),
            mini_view.node_of(60),
            blocked=[mini_view.node_of(20)],
        )
        assert result.polluted_asns(mini_view) == frozenset({40})

    def test_first_hop_stub_filter_stops_stub_attacker(self, engine, mini_view):
        result = engine.hijack(
            mini_view.node_of(50),
            mini_view.node_of(70),
            filter_first_hop_providers=True,
        )
        assert result.polluted_asns(mini_view) == frozenset()

    def test_first_hop_filter_ignores_transit_attackers(self, engine, mini_view):
        result = engine.hijack(
            mini_view.node_of(50),
            mini_view.node_of(40),
            filter_first_hop_providers=True,
        )
        # AS40 has a customer, so the filter does not apply.
        assert result.polluted_asns(mini_view)

    def test_is_polluted_map(self, engine, mini_view):
        result = engine.hijack(mini_view.node_of(50), mini_view.node_of(60))
        flags = result.is_polluted([mini_view.node_of(2), mini_view.node_of(10)])
        assert flags[mini_view.node_of(2)] is True
        assert flags[mini_view.node_of(10)] is False


class TestHijackTripwire:
    """``validate=True`` cross-checks the install-derived polluted set."""

    def test_dropped_install_raises(self, mini_view, monkeypatch):
        from repro.oracle import InvariantViolation

        engine = RoutingEngine(mini_view, validate=True)
        original = engine._propagate_reference

        def drop_one_install(*args, install_log=None):
            original(*args, install_log=install_log)
            if install_log:
                install_log.pop()

        monkeypatch.setattr(engine, "_propagate_reference", drop_one_install)
        legit = RoutingEngine(mini_view).converge(mini_view.node_of(50))
        with pytest.raises(InvariantViolation, match="pollution"):
            engine.hijack(mini_view.node_of(50), mini_view.node_of(60), legitimate=legit)

    @pytest.mark.parametrize("backend", ["reference", "array"])
    def test_exact_kernels_pass(self, mini_view, backend):
        engine = RoutingEngine(mini_view, validate=True, backend=backend)
        result = engine.hijack(
            mini_view.node_of(50), mini_view.node_of(60), origin_length=1
        )
        assert result.polluted_nodes == result.final.holders_of(result.attacker)


def _old_checksum(state: RouteState) -> str:
    """The checksum formula before digit rendering was memoized."""
    import hashlib

    digest = hashlib.blake2b(digest_size=16)
    digest.update(str(state.origin).encode())
    for array in (state.cls, state.length, state.parent, state.origin_of):
        digest.update(b"|")
        digest.update(",".join(map(str, array)).encode())
    return digest.hexdigest()


class TestChecksum:
    def test_matches_old_formula_on_list_and_frozen_states(self, engine, mini_view):
        empty = RouteState.empty(len(mini_view), 0)  # -1 parents, UNREACHABLE
        assert UNREACHABLE in empty.length and -1 in empty.parent
        legit = engine.converge(mini_view.node_of(50))
        hijacked = engine.hijack(
            mini_view.node_of(50), mini_view.node_of(60), legitimate=legit
        ).final
        for state in (empty, legit, hijacked):
            assert state.checksum() == _old_checksum(state)
            frozen = state.copy_for(state.origin).freeze()
            assert frozen.checksum() == _old_checksum(frozen) == state.checksum()

    def test_matches_old_formula_on_sibling_collapsed_view(self):
        from repro.topology.view import RoutingView
        from tests.test_view import sibling_graph

        view = RoutingView.from_graph(sibling_graph())
        assert len(view) == 4
        engine = RoutingEngine(view)
        result = engine.hijack(view.node_of(50), view.node_of(1), blocked=[view.node_of(10)])
        for state in (result.legitimate, result.final):
            assert state.checksum() == _old_checksum(state)
        assert result.final.checksum() != result.legitimate.checksum()


class TestPolicyVariants:
    @pytest.fixture
    def chain_view(self):
        """Tier-1 AS1 ends up with a long customer route (via a provider
        chain) and a shorter peer route (via AS2) to the target AS13."""
        from repro.topology.asgraph import ASGraph
        from repro.topology.relationships import Relationship
        from repro.topology.view import RoutingView

        graph = ASGraph()
        graph.add_as(1, tier1=True)
        graph.add_as(2, tier1=True)
        for asn in (10, 11, 12, 13, 20):
            graph.add_as(asn)
        graph.add_relationship(1, 2, Relationship.PEER)
        graph.add_relationship(1, 10, Relationship.CUSTOMER)
        graph.add_relationship(10, 11, Relationship.CUSTOMER)
        graph.add_relationship(11, 12, Relationship.CUSTOMER)
        graph.add_relationship(12, 13, Relationship.CUSTOMER)
        graph.add_relationship(2, 20, Relationship.CUSTOMER)
        graph.add_relationship(20, 13, Relationship.CUSTOMER)
        return RoutingView.from_graph(graph)

    def test_tier1_shortest_path_prefers_short_peer_route(self, chain_view):
        engine = RoutingEngine(chain_view)
        state = engine.converge(chain_view.node_of(13))
        node_1 = chain_view.node_of(1)
        assert state.route_class(node_1) is RouteClass.PEER
        assert state.length[node_1] == 3  # via 2 -> 20 -> 13

    def test_tier1_ablation_restores_class_preference(self, chain_view):
        engine = RoutingEngine(chain_view, PolicyConfig(tier1_shortest_path=False))
        state = engine.converge(chain_view.node_of(13))
        node_1 = chain_view.node_of(1)
        assert state.route_class(node_1) is RouteClass.CUSTOMER
        assert state.length[node_1] == 4  # via 10 -> 11 -> 12 -> 13


class TestReferenceKernelPin:
    """Pins the reference kernel's exact output on a generated topology.

    The figures below were recorded with the bucket-queue kernel; any
    rewrite must reproduce them bit for bit: the five ``engine.*``
    counters and one digest over every converged state checksum and every
    undo journal of a fixed chain that exercises blocked sets, the
    first-hop stub filter, padded origins and both tier-1 policies.
    """

    EXPECTED = {
        True: (
            {
                "engine.convergences": 48,
                "engine.messages": 8640,
                "engine.routes_installed": 4240,
                "engine.routes_replaced": 2452,
                "engine.convergence_rounds": 236,
            },
            "70b56fe5d1de2f46eff94a9561806c99",
        ),
        False: (
            {
                "engine.convergences": 48,
                "engine.messages": 8632,
                "engine.routes_installed": 4227,
                "engine.routes_replaced": 2439,
                "engine.convergence_rounds": 235,
            },
            "b08c922825c983cf3b0e28656e94adf4",
        ),
    }

    @pytest.fixture(scope="class")
    def view(self):
        from repro.topology.generator import GeneratorConfig, generate_topology
        from repro.topology.view import RoutingView

        return RoutingView.from_graph(generate_topology(GeneratorConfig.scaled(300, seed=3)))

    @staticmethod
    def run_chain(view, tier1_shortest_path):
        import hashlib
        import random

        from repro.obs.metrics import Metrics

        metrics = Metrics()
        engine = RoutingEngine(
            view, PolicyConfig(tier1_shortest_path=tier1_shortest_path), metrics=metrics
        )
        rng = random.Random(3)
        nodes = list(range(len(view)))
        stubs = [node for node in nodes if not view.customers[node]]
        digest = hashlib.blake2b(digest_size=16)
        for _ in range(6):
            target, attacker = rng.sample(nodes, 2)
            legit = engine.converge(target)
            digest.update(legit.checksum().encode())
            for blocked, first_hop, padding in (
                ((), False, 0),
                (rng.sample(nodes, 20), False, 1),
                (rng.sample(nodes, 5), True, 2),
            ):
                final = engine.converge(
                    rng.choice(stubs) if first_hop else attacker,
                    base=legit,
                    blocked=blocked,
                    filter_first_hop_providers=first_hop,
                    origin_length=padding,
                )
                digest.update(final.checksum().encode())
            state = legit.copy_for(target)
            deltas = []
            for step in range(4):
                deltas.append(
                    engine.converge_delta(
                        state,
                        rng.choice(stubs) if step % 2 else rng.choice(nodes),
                        blocked=rng.sample(nodes, 3 * step),
                        filter_first_hop_providers=step % 2 == 1,
                        origin_length=step % 3,
                    )
                )
                digest.update(repr(deltas[-1].journal).encode())
                digest.update(state.checksum().encode())
            for delta in reversed(deltas):
                delta.revert(state)
            assert state.checksum() == legit.checksum()
        counters = {
            name: value
            for name, value in metrics.counters.items()
            if name.startswith("engine.")
        }
        return counters, digest.hexdigest()

    @pytest.mark.parametrize("tier1_shortest_path", [True, False])
    def test_counters_and_journals_are_pinned(self, view, tier1_shortest_path):
        assert self.run_chain(view, tier1_shortest_path) == self.EXPECTED[tier1_shortest_path]
