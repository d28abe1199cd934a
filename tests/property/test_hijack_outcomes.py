"""Hijack outcomes taken from the attack pass's installs are exact.

:meth:`RoutingEngine.hijack` no longer scans all N cells for the
polluted set: it keeps the nodes the attack pass installs, which is the
same set because the legitimate base holds no attacker-origin route. The
lab builds exact-prefix outcomes from that set, with :meth:`RoutingView.expand`
and :meth:`AddressPlan.fraction_owned` written as C-level builtins.

These properties pin both changes on both backends against the formulas
they replace: ``final.holders_of(attacker)`` for the polluted set, and a
whole :class:`AttackOutcome` rebuilt from a ``converge`` pass with the
per-node ``expand`` loop and the per-ASN ``fraction_owned`` generator.
They cover random blocked sets, the first-hop stub filter, claimed-path
padding 0–3 and all four attack kinds (route leaks and type-N included).
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.attacks.lab import HijackLab
from repro.attacks.scenario import AttackOutcome, HijackKind
from repro.bgp.engine import RoutingEngine
from repro.defense.deployment import Defense
from repro.defense.strategies import custom_deployment
from repro.oracle.strategies import example_budget, hijack_cases, taxonomy_scenarios
from repro.registry.publication import PublicationState

BACKENDS = ("reference", "array")


def _old_expand(view, nodes):
    result = set()
    for node in nodes:
        result.update(view.members[node])
    return frozenset(result)


def _old_fraction_owned(plan, asns):
    if plan.total_allocated() == 0:
        return 0.0
    owned = sum(plan.address_space_of(asn) for asn in set(asns))
    return owned / plan.total_allocated()


def _old_outcome(lab, scenario):
    """``run_scenario`` as it was built before outcomes came from installs."""
    view = lab.view
    target_node = view.node_of(scenario.target_asn)
    attacker_node = view.node_of(scenario.attacker_asn)
    claimed = lab.claimed_path(scenario)
    if claimed is None:
        empty = frozenset()
        return AttackOutcome(
            scenario=scenario,
            polluted_asns=empty,
            blocked_asns=empty,
            address_fraction=_old_fraction_owned(lab.plan, empty),
            claimed_path=None,
        )
    blocked = lab.defense.blocking_nodes(
        view, scenario.prefix, scenario.attacker_asn, claimed_path=claimed
    )
    exact = scenario.kind in (HijackKind.ORIGIN, HijackKind.ROUTE_LEAK)
    state = lab.engine.converge(
        attacker_node,
        base=lab.cache.baseline(lab.engine, target_node) if exact else None,
        blocked=blocked,
        filter_first_hop_providers=(
            lab.defense.stub_filter and not lab.graph.customers(scenario.attacker_asn)
        ),
        origin_length=len(claimed) - 1,
    )
    polluted_asns = _old_expand(view, state.holders_of(attacker_node)) - {
        scenario.attacker_asn
    }
    return AttackOutcome(
        scenario=scenario,
        polluted_asns=polluted_asns,
        blocked_asns=_old_expand(view, blocked),
        address_fraction=_old_fraction_owned(lab.plan, polluted_asns),
        claimed_path=claimed,
    )


@pytest.mark.parametrize("backend", BACKENDS)
@settings(max_examples=example_budget(120), deadline=None)
@given(case=hijack_cases(), origin_length=st.integers(min_value=0, max_value=3))
def test_polluted_nodes_equal_holders(backend, case, origin_length):
    """The stored polluted set is the final state's holder scan, and the
    final state is the one ``converge(base=legitimate)`` produces."""
    engine = RoutingEngine(case.view, case.policy, backend=backend)
    result = engine.hijack(
        case.target,
        case.attacker,
        blocked=case.blocked,
        filter_first_hop_providers=case.first_hop_filtered,
        origin_length=origin_length,
    )
    assert result.polluted_nodes == result.final.holders_of(case.attacker)
    final = engine.converge(
        case.attacker,
        base=result.legitimate,
        blocked=case.blocked,
        filter_first_hop_providers=case.first_hop_filtered,
        origin_length=origin_length,
    )
    assert result.final.checksum() == final.checksum()


@pytest.mark.parametrize("backend", BACKENDS)
@settings(max_examples=example_budget(100), deadline=None)
@given(case=taxonomy_scenarios(), data=st.data())
def test_outcomes_equal_old_formulas(backend, case, data):
    """Every attack-grid cell under a random ROV deployment, with or
    without the stub filter, yields the outcome the old formulas build."""
    graph, scenario = case
    lab = HijackLab(graph, seed=0, backend=backend)
    deployers = data.draw(st.sets(st.sampled_from(sorted(graph.asns()))))
    lab = lab.with_defense(
        Defense(
            strategy=custom_deployment("drawn", deployers),
            authority=PublicationState.full(lab.plan).table(),
            stub_filter=data.draw(st.booleans()),
        )
    )
    outcome = lab.run_scenario(scenario)
    assert outcome == _old_outcome(lab, scenario)
