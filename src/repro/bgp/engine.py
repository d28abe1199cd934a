"""The fast stable-outcome routing engine.

The paper's sweeps attack one target from every other AS (42,696 attacks
per vulnerability curve). Running the generation-stepped message simulator
per attack would dominate the experiment budget, so this engine computes
the *identical* final state directly.

Why it is identical
-------------------

In the message simulator every announcement expands one hop per
generation, so a candidate route of length *L* always arrives in
generation *L*. Each node therefore sees its candidates in increasing
length order (best class first within a generation) and installs a
candidate exactly when it strictly beats the node's current entry
(the rule of :func:`repro.bgp.policy.prefers`). This engine sweeps the
same levels directly: every candidate of length *L + 1* is an export of
a node that installed at length *L*, so the nodes installed at one level
— customer-route holders exporting up and sideways, every holder
exporting down — generate the next level's candidates, customer class
first, in the simulator's arrival order. Per node the install sequence —
and hence the final RIB — matches the simulator's. The equivalence is
enforced by randomized property tests in
``tests/integration/test_engine_equivalence.py``.

Hijacks reuse the same procedure: converge the legitimate origin from a
clean state, then run the attacker's announcement *on top of* that state —
the bogus route only displaces entries it strictly beats, ties keeping the
incumbent, exactly the paper's announce-only RIB model. The legitimate
state holds no route to the attacker, so the polluted set is exactly the
set of nodes the attack pass installs: :meth:`RoutingEngine.hijack` takes
it from the kernel's per-level install lists instead of scanning all N
cells (``docs/performance.md``, "Outcome extraction").
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import Collection, Iterable, MutableSequence, Sequence

from repro.bgp.policy import PolicyConfig
from repro.obs.metrics import NULL_METRICS, Metrics
from repro.topology.relationships import RouteClass
from repro.topology.view import RoutingView

__all__ = ["ConvergenceDelta", "RouteState", "RoutingEngine", "UNREACHABLE"]

UNREACHABLE = 1 << 30
_NO_CLASS = 9  # worse than every RouteClass value

_CLASS_ORIGIN = int(RouteClass.ORIGIN)
_CLASS_CUSTOMER = int(RouteClass.CUSTOMER)
_CLASS_PEER = int(RouteClass.PEER)
_CLASS_PROVIDER = int(RouteClass.PROVIDER)


class _DigitMemo(dict):
    """``str(value)`` per distinct integer, rendered once per process."""

    def __missing__(self, value: int) -> str:
        text = self[value] = str(value)
        return text


# Checksum cells take few distinct values (node indices, path lengths,
# route classes), so a dict lookup replaces most str() calls.
_DIGITS = _DigitMemo()


@dataclass
class RouteState:
    """Per-node routing outcome for one prefix.

    Arrays are indexed by routing-node index. ``cls`` holds
    :class:`RouteClass` integer values (``_NO_CLASS`` when the node has no
    route), ``length`` AS-path lengths (``UNREACHABLE`` when none),
    ``parent`` the next-hop node (−1 for none/origin) and ``origin_of`` the
    origin node of the installed route (−1 when none). After a hijack pass
    the state mixes entries for the legitimate and the bogus origin.

    A state that will be shared — cached as a clean baseline and reused
    across many hijack passes, possibly from several worker processes —
    should be :meth:`frozen <freeze>` first: its arrays become tuples, so
    any accidental in-place write raises immediately instead of silently
    contaminating every later attack computed on top of it. A hijack pass
    never needs to write into its baseline: :meth:`RoutingEngine.converge`
    works on a :meth:`copy_for` copy of ``base`` (reference backend) or
    tiles it into the kernel's own scratch arrays (array backend).
    """

    origin: int
    cls: MutableSequence[int] | Sequence[int]
    length: MutableSequence[int] | Sequence[int]
    parent: MutableSequence[int] | Sequence[int]
    origin_of: MutableSequence[int] | Sequence[int]

    @classmethod
    def empty(cls, size: int, origin: int) -> "RouteState":
        return cls(
            origin=origin,
            cls=[_NO_CLASS] * size,
            length=[UNREACHABLE] * size,
            parent=[-1] * size,
            origin_of=[-1] * size,
        )

    def copy_for(self, origin: int) -> "RouteState":
        return RouteState(
            origin=origin,
            cls=list(self.cls),
            length=list(self.length),
            parent=list(self.parent),
            origin_of=list(self.origin_of),
        )

    def freeze(self) -> "RouteState":
        """Make the arrays immutable (idempotent); returns ``self``."""
        self.cls = tuple(self.cls)
        self.length = tuple(self.length)
        self.parent = tuple(self.parent)
        self.origin_of = tuple(self.origin_of)
        return self

    @property
    def is_frozen(self) -> bool:
        return isinstance(self.cls, tuple)

    def checksum(self) -> str:
        """Content digest over every array — detects in-place mutation."""
        digest = hashlib.blake2b(digest_size=16)
        digest.update(str(self.origin).encode())
        for array in (self.cls, self.length, self.parent, self.origin_of):
            digest.update(b"|")
            digest.update(",".join(map(_DIGITS.__getitem__, array)).encode())
        return digest.hexdigest()

    # -- queries -------------------------------------------------------------

    def has_route(self, node: int) -> bool:
        return self.cls[node] != _NO_CLASS

    def route_class(self, node: int) -> RouteClass | None:
        value = self.cls[node]
        return None if value == _NO_CLASS else RouteClass(value)

    def holders_of(self, origin: int) -> frozenset[int]:
        """Nodes (excluding *origin* itself) routing to *origin*."""
        return frozenset(
            node
            for node, holder in enumerate(self.origin_of)
            if holder == origin and node != origin
        )

    def path_from(self, node: int) -> tuple[int, ...]:
        """The next-hop chain from *node* toward its route's origin.

        This is the *forwarding* path through final-state parents. In the
        announce-only model a neighbor may upgrade its route after
        exporting, so this chain's hop count can differ from
        ``length[node]`` (which is the install-time AS-path length, as in
        the message simulator); use the simulator's recorded routes when
        the exact announced AS path matters.
        """
        path: list[int] = []
        current = node
        seen = set()
        while True:
            parent = self.parent[current]
            if parent < 0:
                break
            if parent in seen:  # defensive: corrupted parents
                raise RuntimeError(f"parent cycle at node {parent}")
            seen.add(parent)
            path.append(parent)
            current = parent
        return tuple(path)


class RoutingEngine:
    """Direct computation of converged routing states over a view.

    With ``validate=True`` every convergence is followed by the
    structural invariant suite from :mod:`repro.oracle.invariants`
    (loop-free parents, valley-free final classes, preference stability,
    blocked coherence) — a runtime tripwire for exactly the class of
    wrong-but-plausible outcomes a fast path can produce. The default
    (off) path costs one boolean test per convergence; the hot
    propagation loop is untouched either way.

    ``metrics`` (any :class:`repro.obs.Metrics`) receives per-convergence
    counters — messages propagated, routes installed/replaced,
    convergence rounds. The engine accumulates them in local integers and
    emits once per convergence, so the instrumented path costs a handful
    of dict updates per *convergence*, not per message; the default
    ``NULL_METRICS`` sink reduces that to four no-op calls.

    ``backend`` selects the propagation kernel: ``"reference"`` (default)
    is the pure-Python level sweep below; ``"array"`` is the batched
    flat-array kernel :func:`repro.bgp.kernel.propagate_array_batch`,
    which produces bit-identical :meth:`RouteState.checksum` outcomes at
    a fraction of the wall-clock on large topologies (see
    ``docs/performance.md``). On the array backend every call — scalar
    :meth:`converge`/:meth:`converge_delta` and both batch methods — runs
    that one kernel, a single origin being a batch of one column; on the
    reference backend the batch methods loop the scalar ones. The
    contract is enforced by ``tests/property/test_kernel_equivalence.py``
    and ``tests/property/test_batched_equivalence.py``.
    """

    def __init__(
        self,
        view: RoutingView,
        policy: PolicyConfig | None = None,
        *,
        validate: bool = False,
        metrics: Metrics | None = None,
        backend: str = "reference",
    ) -> None:
        self.view = view
        self.policy = policy or PolicyConfig()
        self.validate = validate
        self.metrics = metrics if metrics is not None else NULL_METRICS
        if backend != "reference":
            # Imported lazily: the reference path must not pay the numpy
            # import, and kernel.py type-checks against this module.
            from repro.bgp.kernel import (
                compile_view,
                propagate_array_batch,
                resolve_backend,
            )

            self.backend = resolve_backend(backend)
            self._compiled = compile_view(view)
            self._propagate_array_batch = propagate_array_batch
        else:
            self.backend = backend
            self._compiled = None
            self._propagate_array_batch = None
        # Nodes that rank routes by length only (the tier-1 exception).
        tier1 = self.policy.tier1_shortest_path
        self._length_only = view.is_tier1 if tier1 else (False,) * len(view)

    # -- public API ------------------------------------------------------------

    def converge(
        self,
        origin: int,
        *,
        base: RouteState | None = None,
        blocked: Collection[int] = (),
        filter_first_hop_providers: bool = False,
        origin_length: int = 0,
    ) -> RouteState:
        """Propagate an announcement from *origin* to the stable state.

        ``base`` is the pre-existing RIB state the announcement competes
        against (the legitimate state when *origin* is a hijacker); without
        it the network starts clean. ``blocked`` nodes drop the
        announcement entirely (prefix filters / ROV). With
        ``filter_first_hop_providers`` the origin's providers drop its
        direct announcement — the defensive stub filter of Section IV.
        ``origin_length`` pads the announced AS path: a path-forgery
        attack (type-1/type-N) or a route leak claims a path of that many
        hops behind the announcer, so its first receivers install at
        ``origin_length + 1`` and compete on that longer length — the
        honest default 0 is the plain one-hop origination.

        On the array backend this is :meth:`converge_batch` with one
        column.
        """
        if self._propagate_array_batch is not None:
            return self.converge_batch(
                (origin,),
                base=base,
                blocked_sets=(blocked,),
                first_hop_flags=(filter_first_hop_providers,),
                origin_lengths=(origin_length,),
            )[0]
        n = len(self.view)
        state = base.copy_for(origin) if base is not None else RouteState.empty(n, origin)
        blocked_set = frozenset(blocked)
        self._propagate_reference(
            state, origin, blocked_set, filter_first_hop_providers, None, origin_length
        )
        if self.validate:
            self._check(state, blocked_set, filter_first_hop_providers, origin_length)
        return state

    def _check(
        self,
        state: RouteState,
        blocked_set: frozenset[int],
        filter_first_hop_providers: bool,
        origin_length: int,
    ) -> None:
        """Run the structural invariant suite on one converged state."""
        # Imported lazily: the oracle package imports this module.
        from repro.oracle.invariants import check_route_state

        check_route_state(
            self.view,
            state,
            policy=self.policy,
            blocked=blocked_set,
            first_hop_filtered=filter_first_hop_providers,
            origin_lengths={state.origin: origin_length} if origin_length else None,
        )

    def _batch_params(
        self,
        count: int,
        blocked_sets: Sequence[Collection[int]] | None,
        first_hop_flags: Sequence[bool] | None,
        origin_lengths: Sequence[int] | None,
    ) -> tuple[list[frozenset[int]], list[bool], list[int]]:
        """Normalize per-column batch knobs, defaulting like the scalar API."""
        blocked = (
            [frozenset()] * count
            if blocked_sets is None
            else [frozenset(entry) for entry in blocked_sets]
        )
        first_hop = (
            [False] * count if first_hop_flags is None else list(first_hop_flags)
        )
        lengths = [0] * count if origin_lengths is None else list(origin_lengths)
        if not (len(blocked) == len(first_hop) == len(lengths) == count):
            raise ValueError("batch parameter lists must match the origin count")
        return blocked, first_hop, lengths

    def converge_batch(
        self,
        origins: Sequence[int],
        *,
        base: RouteState | None = None,
        blocked_sets: Sequence[Collection[int]] | None = None,
        first_hop_flags: Sequence[bool] | None = None,
        origin_lengths: Sequence[int] | None = None,
    ) -> list[RouteState]:
        """Converge K independent announcements in one fused pass.

        The batched analogue of :meth:`converge`: origin *i*'s returned
        state is checksum-identical to
        ``converge(origins[i], base=base, blocked=blocked_sets[i], ...)``
        — columns of the batch never interact, the shared ``base`` (the
        hijack-sweep shape: many attackers stacked on one legitimate
        baseline) is tiled, never mutated. Per-column knobs default
        exactly like the scalar API (no blocking, no stub filter, honest
        origination).

        On the array backend all K origins share one kernel invocation
        over the memoized CSR, which is where the multi-origin speedup in
        ``BENCH_scale.json`` comes from — a single origin is the same
        call with K=1. The reference backend falls back to a per-origin
        :meth:`converge` loop — the fallback rule documented in
        ``docs/performance.md``.
        """
        origins = list(origins)
        blocked, first_hop, lengths = self._batch_params(
            len(origins), blocked_sets, first_hop_flags, origin_lengths
        )
        if self._propagate_array_batch is None:
            return [
                self.converge(
                    origin,
                    base=base,
                    blocked=blocked[index],
                    filter_first_hop_providers=first_hop[index],
                    origin_length=lengths[index],
                )
                for index, origin in enumerate(origins)
            ]
        # Placeholder states: the kernel's write-back replaces every array,
        # so pre-filling K RouteState.empty copies would be pure waste.
        states = [
            RouteState(origin=origin, cls=[], length=[], parent=[], origin_of=[])
            for origin in origins
        ]
        messages, installs, replaced, rounds = self._propagate_array_batch(
            self._compiled,
            states,
            origins,
            blocked,
            first_hop,
            self.policy.tier1_shortest_path,
            None,
            lengths,
            base=base,
            fresh=base is None,
        )
        self._emit_convergence_metrics(messages, installs, replaced, rounds)
        if self.validate:
            for index, state in enumerate(states):
                self._check(state, blocked[index], first_hop[index], lengths[index])
        return states

    def converge_delta_batch(
        self,
        states: Sequence[RouteState],
        origins: Sequence[int],
        *,
        blocked_sets: Sequence[Collection[int]] | None = None,
        first_hop_flags: Sequence[bool] | None = None,
        origin_lengths: Sequence[int] | None = None,
    ) -> list["ConvergenceDelta"]:
        """Apply K in-place announcement passes in one fused sweep.

        The batched analogue of :meth:`converge_delta`: pass *i* mutates
        ``states[i]`` exactly as the scalar call would and returns the
        identical per-pass undo journal, so deltas revert independently
        in the usual newest-first order. This is the warm-start primitive
        behind deployment sweeps: keep one mutable state per attacker,
        apply a rung's blocked sets, read the outcome, revert, move to
        the adjacent rung — never paying a cold convergence per rung.

        On the array backend the K passes are one kernel invocation (the
        scalar :meth:`converge_delta` is the same call with K=1); the
        reference backend loops the scalar :meth:`converge_delta`. Like
        it, this path never runs the invariant suite itself.
        """
        states = list(states)
        origins = list(origins)
        if len(states) != len(origins):
            raise ValueError("converge_delta_batch needs one state per origin")
        blocked, first_hop, lengths = self._batch_params(
            len(origins), blocked_sets, first_hop_flags, origin_lengths
        )
        if self._propagate_array_batch is None:
            return [
                self.converge_delta(
                    state,
                    origin,
                    blocked=blocked[index],
                    filter_first_hop_providers=first_hop[index],
                    origin_length=lengths[index],
                )
                for index, (state, origin) in enumerate(zip(states, origins))
            ]
        for state in states:
            if state.is_frozen:
                raise ValueError(
                    "converge_delta_batch needs mutable states; unfreeze or copy them"
                )
        prev_origins = [state.origin for state in states]
        for state, origin in zip(states, origins):
            state.origin = origin
        journals: list[list[tuple[int, int, int, int, int]]] = [[] for _ in origins]
        messages, installs, replaced, rounds = self._propagate_array_batch(
            self._compiled,
            states,
            origins,
            blocked,
            first_hop,
            self.policy.tier1_shortest_path,
            journals,
            lengths,
        )
        self._emit_convergence_metrics(messages, installs, replaced, rounds)
        return [
            ConvergenceDelta(
                origin=origin,
                prev_origin=prev_origins[index],
                blocked=blocked[index],
                first_hop_filtered=first_hop[index],
                journal=journals[index],
                origin_length=lengths[index],
            )
            for index, origin in enumerate(origins)
        ]

    def converge_delta(
        self,
        state: RouteState,
        origin: int,
        *,
        blocked: Collection[int] = (),
        filter_first_hop_providers: bool = False,
        origin_length: int = 0,
    ) -> "ConvergenceDelta":
        """Apply *origin*'s announcement to *state* in place — the
        frontier re-propagation hook behind :mod:`repro.stream`.

        The announcement re-propagates from *origin* only where it
        strictly beats the entries already installed in *state*, so the
        install sequence — and hence the final arrays — is identical to
        ``converge(origin, base=state)``, but without the O(N) base copy.
        Every overwritten cell is recorded in the returned
        :class:`ConvergenceDelta`'s undo journal, so the caller can
        rewind the announcement exactly (:meth:`ConvergenceDelta.revert`)
        — which is what makes event-stream withdrawals cheap.

        *state* must be mutable (not :meth:`~RouteState.frozen
        <RouteState.freeze>`) and is mutated directly; its ``origin``
        field is updated to *origin* (the previous value is kept in the
        delta for the rewind).

        Unlike :meth:`converge`, this path never runs the invariant
        suite itself even with ``validate=True``: a state stacked from
        several announcements with *different* blocked sets cannot be
        described by one pass's parameters. The stream ledger validates
        instead, passing the full announcement ``history`` to
        :func:`repro.oracle.invariants.check_route_state`.
        """
        if state.is_frozen:
            raise ValueError("converge_delta needs a mutable state; unfreeze or copy it")
        if self._propagate_array_batch is not None:
            return self.converge_delta_batch(
                (state,),
                (origin,),
                blocked_sets=(blocked,),
                first_hop_flags=(filter_first_hop_providers,),
                origin_lengths=(origin_length,),
            )[0]
        journal: list[tuple[int, int, int, int, int]] = []
        prev_origin = state.origin
        state.origin = origin
        blocked_set = frozenset(blocked)
        self._propagate_reference(
            state, origin, blocked_set, filter_first_hop_providers, journal, origin_length
        )
        return ConvergenceDelta(
            origin=origin,
            prev_origin=prev_origin,
            blocked=blocked_set,
            first_hop_filtered=filter_first_hop_providers,
            journal=journal,
            origin_length=origin_length,
        )

    def _propagate_reference(
        self,
        state: RouteState,
        origin: int,
        blocked_set: frozenset[int],
        filter_first_hop_providers: bool,
        journal: list[tuple[int, int, int, int, int]] | None,
        origin_length: int = 0,
        install_log: list[int] | None = None,
    ) -> None:
        """The pure-Python level-synchronous propagation kernel.

        Mutates *state* in place. When *journal* is given, every install
        appends the overwritten ``(node, cls, length, parent, origin_of)``
        cells (pre-install values) so the pass can be reverted. When
        *install_log* is given, every level's installs are appended to it
        (the origin's own entry excluded; a node that upgrades its route
        within the pass appears once per install).

        Every candidate of length L+1 is an export of a node installed at
        length L. Per level, ``up`` lists the customer-route installs (which
        export to providers and peers) and ``everyone`` all installs (which
        export to customers), both in install order; sweeping providers of
        ``up``, peers of ``up``, then customers of ``everyone`` visits the
        next level's candidates in simulator arrival order.
        """
        cls = state.cls
        length = state.length
        parent = state.parent
        origin_of = state.origin_of
        providers = self.view.providers
        peers = self.view.peers
        customers = self.view.customers
        length_only = self._length_only

        # The origin installs its own route unconditionally. Its own
        # entry then beats every candidate, so it needs no special case.
        if journal is not None:
            journal.append(
                (origin, cls[origin], length[origin], parent[origin], origin_of[origin])
            )
        cls[origin] = _CLASS_ORIGIN
        length[origin] = origin_length
        parent[origin] = -1
        origin_of[origin] = origin

        up = everyone = [origin]
        # The first-hop stub filter drops only the origin's provider exports.
        to_providers = [] if filter_first_hop_providers and not customers[origin] else up
        route_length = origin_length
        installs = replaced = messages = rounds = 0
        while everyone:
            route_length += 1
            next_up: list[int] = []
            rest: list[int] = []
            sent = 0
            for route_class, senders, neighbors, installed in (
                (_CLASS_CUSTOMER, to_providers, providers, next_up),
                (_CLASS_PEER, up, peers, rest),
                (_CLASS_PROVIDER, everyone, customers, rest),
            ):
                if self.metrics.enabled:
                    # One message per sender-neighbor link, off the hot loop.
                    sent += sum(len(neighbors[sender]) for sender in senders)
                for sender in senders:
                    for node in neighbors[sender]:
                        current_class = cls[node]
                        if length_only[node]:
                            if length[node] <= route_length:
                                continue
                        elif current_class < route_class or (
                            current_class == route_class and length[node] <= route_length
                        ):
                            continue
                        if node in blocked_set:
                            continue
                        if current_class != _NO_CLASS:
                            replaced += 1
                        if journal is not None:
                            journal.append(
                                (node, current_class, length[node],
                                 parent[node], origin_of[node])
                            )
                        cls[node] = route_class
                        length[node] = route_length
                        parent[node] = sender
                        origin_of[node] = origin
                        installed.append(node)
            if sent:
                messages += sent
                rounds = route_length + 1
            installs += len(next_up) + len(rest)
            up = to_providers = next_up
            everyone = next_up + rest
            if install_log is not None:
                install_log += everyone
        self._emit_convergence_metrics(messages, installs, replaced, rounds)

    def _emit_convergence_metrics(
        self, messages: int, installs: int, replaced: int, rounds: int
    ) -> None:
        metrics = self.metrics
        if metrics.enabled:
            metrics.count("engine.convergences")
            metrics.count("engine.messages", messages)
            metrics.count("engine.routes_installed", installs)
            metrics.count("engine.routes_replaced", replaced)
            metrics.count("engine.convergence_rounds", rounds)

    def hijack(
        self,
        target: int,
        attacker: int,
        *,
        legitimate: RouteState | None = None,
        blocked: Collection[int] = (),
        filter_first_hop_providers: bool = False,
        origin_length: int = 0,
    ) -> "HijackResult":
        """Run an exact-prefix hijack: legitimate convergence, then attack.

        Pass a precomputed ``legitimate`` state (from :meth:`converge` on
        the target) when sweeping many attackers against one target — it is
        attacker-independent and dominates the cost otherwise. The attack
        pass is ``converge(attacker, base=legitimate, ...)`` with the same
        ``blocked``, ``filter_first_hop_providers`` and ``origin_length``
        knobs (a forged claimed path or a route leak pads the announcement).

        ``legitimate`` must hold no route originated by *attacker*, which a
        convergence of *target* on a clean state never does. Every holder
        of the bogus route then installed it during the attack pass, so
        :attr:`HijackResult.polluted_nodes` is collected from the
        reference kernel's per-level install lists in O(polluted) rather
        than by a scan of all N cells (the array backend takes the final
        column's nonzero cells). With ``validate=True`` the final state
        runs the invariant suite and the install-derived set is compared
        against :meth:`RouteState.holders_of`; a mismatch raises
        :class:`~repro.oracle.invariants.InvariantViolation`.
        """
        if target == attacker:
            raise ValueError("attacker and target must differ")
        if legitimate is None:
            legitimate = self.converge(target)
        elif legitimate.origin != target:
            raise ValueError(
                f"legitimate state is for origin {legitimate.origin}, not {target}"
            )
        blocked_set = frozenset(blocked)
        if self._propagate_array_batch is not None:
            import numpy as np

            final = self.converge_batch(
                (attacker,),
                base=legitimate,
                blocked_sets=(blocked_set,),
                first_hop_flags=(filter_first_hop_providers,),
                origin_lengths=(origin_length,),
            )[0]
            holders = np.flatnonzero(np.asarray(final.origin_of) == attacker)
            polluted = frozenset(holders.tolist()) - {attacker}
        else:
            # Not through converge(): the kernel must hand back its installs.
            final = legitimate.copy_for(attacker)
            install_log: list[int] = []
            self._propagate_reference(
                final,
                attacker,
                blocked_set,
                filter_first_hop_providers,
                None,
                origin_length,
                install_log=install_log,
            )
            polluted = frozenset(install_log)
            if self.validate:
                self._check(final, blocked_set, filter_first_hop_providers, origin_length)
        if self.validate:
            holders_scan = final.holders_of(attacker)
            if polluted != holders_scan:
                from repro.oracle.invariants import InvariantViolation

                raise InvariantViolation(
                    "[pollution] install-derived polluted set differs from the "
                    f"final state's holders: missing {sorted(holders_scan - polluted)}, "
                    f"extra {sorted(polluted - holders_scan)}"
                )
        return HijackResult(
            target=target,
            attacker=attacker,
            legitimate=legitimate,
            final=final,
            polluted_nodes=polluted,
        )


@dataclass
class ConvergenceDelta:
    """The reversible record of one in-place announcement pass.

    Produced by :meth:`RoutingEngine.converge_delta`. ``journal`` holds
    the pre-install ``(node, cls, length, parent, origin_of)`` cells in
    install order — a node can appear more than once when an early
    candidate is later displaced within the same pass, which is why
    :meth:`revert` replays the journal *backwards*. ``blocked`` and
    ``first_hop_filtered`` are the pass parameters captured at announce
    time; an exact re-application (after rewinding past this entry) must
    reuse them, not the current defense state. ``origin_length`` is the
    claimed-path padding of the pass (0 for an honest origination).
    """

    origin: int
    prev_origin: int
    blocked: frozenset[int]
    first_hop_filtered: bool
    journal: list[tuple[int, int, int, int, int]] = field(repr=False)
    origin_length: int = 0

    @property
    def touched(self) -> int:
        """Install count of the pass (journal length; ≥ 1 for the origin)."""
        return len(self.journal)

    def revert(self, state: RouteState) -> None:
        """Rewind the pass, restoring *state* to its exact prior content."""
        if state.is_frozen:
            raise ValueError("cannot revert into a frozen state")
        cls = state.cls
        length = state.length
        parent = state.parent
        origin_of = state.origin_of
        for node, old_cls, old_length, old_parent, old_origin in reversed(self.journal):
            cls[node] = old_cls
            length[node] = old_length
            parent[node] = old_parent
            origin_of[node] = old_origin
        state.origin = self.prev_origin


@dataclass
class HijackResult:
    """Outcome of one exact-prefix hijack computation.

    ``polluted_nodes`` are the routing nodes holding the bogus route in
    ``final``, the attacker excluded — equal to
    ``final.holders_of(attacker)``, but recorded by
    :meth:`RoutingEngine.hijack` from the attack pass's own installs.
    """

    target: int
    attacker: int
    legitimate: RouteState
    final: RouteState
    polluted_nodes: frozenset[int]

    def polluted_asns(self, view: RoutingView) -> frozenset[int]:
        """Polluted original ASNs (sibling groups expanded)."""
        return view.expand(self.polluted_nodes)

    def pollution_count(self, view: RoutingView) -> int:
        return len(self.polluted_asns(view))

    def is_polluted(self, nodes: Iterable[int]) -> dict[int, bool]:
        polluted = self.polluted_nodes
        return {node: node in polluted for node in nodes}
