"""The flat-array convergence backend (``backend="array"``).

The reference kernel in :meth:`repro.bgp.engine.RoutingEngine
._propagate_reference` pays Python-interpreter cost *per message*: every
announcement crossing every link is one tuple allocation, one ``prefers``
call and a handful of list indexings. At the 1/10-scale synthetic
topology that is comfortable; at the paper's real CAIDA snapshot (42,697
ASes, 139,156 links) a single origin convergence pushes hundreds of
thousands of messages and the interpreter dominates. This module
re-states the identical algorithm in bulk array operations so the
per-message cost drops to a few vectorized numpy instructions.

There is one kernel, :func:`propagate_array_batch`, and it converges K
independent announcements at once: each origin is one *column* of a flat
``K*N`` scratch layout (cell ``col*N + node``). A single-origin pass —
every :meth:`~repro.bgp.engine.RoutingEngine.converge` and
:meth:`~repro.bgp.engine.RoutingEngine.converge_delta` on this backend —
is the batch with K=1, where the only column is column 0 and cells are
plain node ids. The pieces:

* the compiled :class:`~repro.topology.view.RoutingView` adjacency is
  flattened once per view into CSR form (:class:`CompiledTopology` —
  int32 ``indptr``/``indices`` per relationship kind, memoized by view
  object identity exactly like the convergence cache's view digest);
* per-pass route state lives in preallocated int32/int64 scratch arrays,
  loaded from and written back to the :class:`~repro.bgp.engine
  .RouteState` lists around the hot loop;
* the bucketed frontier queue holds *array chunks* of ``(cell, sender)``
  candidates instead of per-candidate tuples, and each ``(length,
  class)`` bucket is resolved with one vectorized preference test plus a
  CSR neighbor gather for the winners' exports, over every column's
  candidates concatenated.

Why it is bit-identical
-----------------------

The reference kernel's observable behaviour per bucket is: candidates are
considered in push order; the *first* candidate for a node wins iff it
strictly beats the node's incumbent at bucket start (a later candidate in
the same bucket carries the same ``(length, class)`` and can never beat
an entry the first one just installed — ties keep the incumbent); winners
export at ``length + 1``, never back into the current bucket. The array
kernel reproduces exactly that: a reverse-order index scatter selects
each cell's first candidate in push order, the vectorized preference
test mirrors :func:`repro.bgp.policy.prefers` (including the tier-1
shortest-path exception), and winner exports are gathered in install
order with each winner's neighbors in adjacency order — the same
concatenation the reference's per-winner ``push_exports`` produces.
Columns never read or write each other's cells, and filtering preserves
relative order, so restricted to one column every step is the
single-origin algorithm. The undo journal is emitted in the same install
order with the same pre-install cells, so :meth:`ConvergenceDelta.revert
<repro.bgp.engine.ConvergenceDelta.revert>` parity holds too.

The contract — identical :meth:`RouteState.checksum()
<repro.bgp.engine.RouteState.checksum>` on every topology, origin,
blocked set and policy variant, per column — is enforced by
``tests/property/test_kernel_equivalence.py``,
``tests/property/test_batched_equivalence.py`` and the golden-figure
fixtures; see ``docs/model.md``.
"""
from __future__ import annotations

import weakref
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (engine imports us lazily)
    from repro.bgp.engine import RouteState
    from repro.topology.view import RoutingView

__all__ = [
    "BACKENDS",
    "CompiledTopology",
    "compile_view",
    "propagate_array_batch",
    "resolve_backend",
]

# The selectable convergence backends. "reference" is the pure-Python
# level-sweep kernel in repro.bgp.engine; "array" is this module.
BACKENDS = ("reference", "array")

_CLASS_ORIGIN = 0  # RouteClass.ORIGIN
_CLASS_CUSTOMER = 1  # RouteClass.CUSTOMER
_CLASS_PEER = 2  # RouteClass.PEER
_CLASS_PROVIDER = 3  # RouteClass.PROVIDER
_NO_CLASS = 9  # engine._NO_CLASS
_UNREACHABLE = 1 << 30  # engine.UNREACHABLE

# The hot loop packs (class, length) into one int64 — class in the high
# bits, length below — so the lexicographic Gao–Rexford preference
# (better class first, then shorter path) becomes a single integer
# comparison and route state needs one gather/scatter instead of two.
# Lengths are bounded by _UNREACHABLE < 2**31, so 31 bits suffice.
_LEN_BITS = 31
_LEN_MASK = (1 << _LEN_BITS) - 1
_EMPTY_KEY = (_NO_CLASS << _LEN_BITS) | _UNREACHABLE


def resolve_backend(backend: str) -> str:
    """Validate a ``backend=`` knob value; returns it unchanged."""
    if backend not in BACKENDS:
        raise ValueError(
            f"unknown convergence backend {backend!r}; choices: {BACKENDS}"
        )
    return backend


@dataclass(frozen=True)
class CompiledTopology:
    """CSR-flattened adjacency of one :class:`RoutingView`.

    ``<kind>_indptr[i] : <kind>_indptr[i+1]`` slices ``<kind>_indices``
    to node *i*'s neighbors of that kind, in the view's (sorted)
    adjacency order — the order the reference kernel iterates, which the
    within-bucket tie-breaking depends on. ``is_tier1`` mirrors the
    view's flag as a bool array for vectorized preference tests.
    """

    size: int
    customer_indptr: np.ndarray
    customer_indices: np.ndarray
    peer_indptr: np.ndarray
    peer_indices: np.ndarray
    provider_indptr: np.ndarray
    provider_indices: np.ndarray
    # The fused export adjacency: per node, providers then peers then
    # customers (each sub-list in adjacency order), with a parallel class
    # code per target (0 = route arrives as CUSTOMER at a provider,
    # 1 = PEER at a peer, 2 = PROVIDER at a customer). A full valley-free
    # export — the hot case, everything an own/customer route fans out to
    # — is then ONE range gather instead of three.
    export_indptr: np.ndarray
    export_indices: np.ndarray
    export_kinds: np.ndarray
    is_tier1: np.ndarray
    # Per CSR slot, the neighbor minus the slot's own node (int64). A
    # gathered sender *cell* plus its slot's offset is the neighbor's
    # cell in the sender's column — no column arithmetic in the hot loop.
    customer_offsets: np.ndarray
    peer_offsets: np.ndarray
    export_offsets: np.ndarray

    def gather(
        self, indptr: np.ndarray, cells: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """The flat positions of the given cells' CSR slices, concatenated
        in cell order — ``(positions, senders)`` where ``senders`` repeats
        each cell once per neighbor. A cell is ``column * size + node``
        (see :func:`propagate_array_batch`); with one column it is the
        node id itself."""
        nodes = cells % self.size
        starts = indptr[nodes]
        counts = indptr[nodes + 1] - starts
        total = int(counts.sum())
        if total == 0:
            return _EMPTY, _EMPTY
        # Standard vectorized multi-range gather: each output cell's flat
        # position is its running output index shifted by its node's
        # (slice start - output start), repeated once per slice cell.
        ends = np.cumsum(counts)
        shift = np.repeat(starts - (ends - counts), counts)
        positions = np.arange(total, dtype=np.int64) + shift
        return positions, np.repeat(cells, counts)


_EMPTY = np.empty(0, dtype=np.int64)

# Compiled-topology memo keyed by view object id, with a weakref callback
# evicting entries when the view is collected (same idiom as the
# convergence cache's view-digest memo).
_COMPILED: dict[int, tuple["weakref.ref[RoutingView]", CompiledTopology]] = {}


def _csr(adjacency: tuple[tuple[int, ...], ...]) -> tuple[np.ndarray, np.ndarray]:
    indptr = np.zeros(len(adjacency) + 1, dtype=np.int64)
    for node, neighbors in enumerate(adjacency):
        indptr[node + 1] = indptr[node] + len(neighbors)
    indices = np.fromiter(
        (neighbor for neighbors in adjacency for neighbor in neighbors),
        dtype=np.int32,
        count=int(indptr[-1]),
    )
    return indptr, indices


def _offsets(indptr: np.ndarray, indices: np.ndarray) -> np.ndarray:
    owners = np.repeat(np.arange(len(indptr) - 1, dtype=np.int64), np.diff(indptr))
    return indices.astype(np.int64) - owners


def compile_view(view: "RoutingView") -> CompiledTopology:
    """The CSR form of *view*, built once and memoized per view object."""
    key = id(view)
    entry = _COMPILED.get(key)
    if entry is not None and entry[0]() is view:
        return entry[1]
    customer_indptr, customer_indices = _csr(view.customers)
    peer_indptr, peer_indices = _csr(view.peers)
    provider_indptr, provider_indices = _csr(view.providers)
    export_indptr, export_indices = _csr(
        tuple(
            providers + peers + customers
            for providers, peers, customers in zip(
                view.providers, view.peers, view.customers
            )
        )
    )
    export_kinds = np.fromiter(
        (
            kind
            for providers, peers, customers in zip(
                view.providers, view.peers, view.customers
            )
            for kind, count in ((0, len(providers)), (1, len(peers)), (2, len(customers)))
            for _ in range(count)
        ),
        dtype=np.int8,
        count=int(export_indptr[-1]),
    )
    compiled = CompiledTopology(
        size=len(view),
        customer_indptr=customer_indptr,
        customer_indices=customer_indices,
        peer_indptr=peer_indptr,
        peer_indices=peer_indices,
        provider_indptr=provider_indptr,
        provider_indices=provider_indices,
        export_indptr=export_indptr,
        export_indices=export_indices,
        export_kinds=export_kinds,
        is_tier1=np.asarray(view.is_tier1, dtype=bool),
        customer_offsets=_offsets(customer_indptr, customer_indices),
        peer_offsets=_offsets(peer_indptr, peer_indices),
        export_offsets=_offsets(export_indptr, export_indices),
    )
    _COMPILED[key] = (
        weakref.ref(view, lambda _ref, key=key: _COMPILED.pop(key, None)),
        compiled,
    )
    return compiled


def propagate_array_batch(
    topology: CompiledTopology,
    states: "list[RouteState]",
    origins: "list[int]",
    blocked_sets: "list[frozenset[int]]",
    first_hop_flags: "list[bool]",
    tier1_shortest: bool,
    journals: list[list[tuple[int, int, int, int, int]]] | None,
    origin_lengths: "list[int]",
    base: "RouteState | None" = None,
    fresh: bool = False,
) -> tuple[int, int, int, int]:
    """Converge K independent announcement passes in one fused sweep.

    The only array kernel: a single-origin pass is the K=1 batch. Each
    origin is one *column* of a flat ``K*N`` scratch layout (cell
    ``col*N + node``): columns never read or write each other's cells, so
    the reverse-scatter tie-break, the packed-key preference test and the
    CSR export gathers all run once per ``(length, class)`` bucket over
    every column's candidates concatenated — numpy's per-call overhead is
    amortized over a whole sweep's origins, not just one frontier.

    Why each column is bit-identical to its independent pass: within a
    bucket the flat candidate array keeps per-column push order (chunks
    are appended in the same step order, and boolean filtering preserves
    relative order), the first-occurrence scatter operates on flat cells
    so selection restricted to one column picks exactly that column's
    first candidates, and the preference test is per-cell. By induction
    over bucket steps every column installs the same winners in the same
    order as the reference kernel — which is also why the per-column
    undo journals (distributed from the global install stream by a
    stable sort on the column index) match entry for entry.

    Loading modes: ``fresh=True`` fills pristine scratch directly
    (*states* may hold placeholder empty lists); ``base`` loads one
    shared base state and tiles it across columns (the hijack-sweep
    shape — K attackers stacked on one legitimate baseline) without K
    Python-list copies; otherwise each of the K *states* is loaded into
    its own column (the warm-start shape behind
    :meth:`RoutingEngine.converge_delta_batch
    <repro.bgp.engine.RoutingEngine.converge_delta_batch>`).

    Mutates every state in place (write-back per column) and returns the
    aggregate ``(messages, installs, replaced, rounds)``.
    """
    n = topology.size
    k = len(origins)
    total = n * k

    if fresh:
        key = np.full(total, _EMPTY_KEY, dtype=np.int64)
        parent = np.full(total, -1, dtype=np.int32)
        origin_of = np.full(total, -1, dtype=np.int32)
    elif base is not None:
        base_key = (np.asarray(base.cls, dtype=np.int64) << _LEN_BITS) | np.asarray(
            base.length, dtype=np.int64
        )
        key = np.tile(base_key, k)
        parent = np.tile(np.asarray(base.parent, dtype=np.int32), k)
        origin_of = np.tile(np.asarray(base.origin_of, dtype=np.int32), k)
    else:
        key = np.concatenate(
            [
                (np.asarray(state.cls, dtype=np.int64) << _LEN_BITS)
                | np.asarray(state.length, dtype=np.int64)
                for state in states
            ]
        )
        parent = np.concatenate(
            [np.asarray(state.parent, dtype=np.int32) for state in states]
        )
        origin_of = np.concatenate(
            [np.asarray(state.origin_of, dtype=np.int32) for state in states]
        )

    origins_np = np.asarray(origins, dtype=np.int32)
    is_tier1_flat = np.tile(topology.is_tier1, k)
    first_slot = np.full(total, -1, dtype=np.int64)

    # Candidates for a column's origin or one of its blocked nodes are
    # dropped at consideration time, exactly as the reference kernel's
    # per-candidate skip — one mask lookup replaces both tests.
    dropped = np.zeros(total, dtype=bool)
    for col, (origin, blocked_set) in enumerate(zip(origins, blocked_sets)):
        colbase = col * n
        if blocked_set:
            dropped[[colbase + node for node in blocked_set]] = True
        dropped[colbase + origin] = True

    for col, origin in enumerate(origins):
        cell = col * n + origin
        if journals is not None:
            origin_key = int(key[cell])
            journals[col].append(
                (
                    origin,
                    origin_key >> _LEN_BITS,
                    origin_key & _LEN_MASK,
                    int(parent[cell]),
                    int(origin_of[cell]),
                )
            )
        key[cell] = (_CLASS_ORIGIN << _LEN_BITS) | origin_lengths[col]
        parent[cell] = -1
        origin_of[cell] = origin

    # buckets[length] = None or three per-class chunk lists (customer,
    # peer, provider); each chunk is a (cells, sender cells) array pair
    # kept in push order — the array analogue of the reference bucket
    # queue.
    buckets: list[list[list[tuple[np.ndarray, np.ndarray]]] | None] = []

    def push(route_length: int, class_offset: int, cells: np.ndarray, senders: np.ndarray) -> None:
        if cells.size == 0:
            return
        while len(buckets) <= route_length:
            buckets.append(None)
        bucket = buckets[route_length]
        if bucket is None:
            bucket = [[], [], []]
            buckets[route_length] = bucket
        bucket[class_offset].append((cells, senders))

    def push_neighbors(
        class_offset: int, indptr: np.ndarray, offsets: np.ndarray,
        cells: np.ndarray, next_length: int,
    ) -> None:
        positions, senders = topology.gather(indptr, cells)
        if positions.size:
            push(next_length, class_offset, senders + offsets[positions], senders)

    def push_exports(cells: np.ndarray, route_class: int, next_length: int) -> None:
        if route_class in (_CLASS_ORIGIN, _CLASS_CUSTOMER):
            # Full valley-free export: one fused gather, split by target
            # kind. Compress preserves order, and per node the fused
            # adjacency is providers|peers|customers, so each per-class
            # subsequence matches the reference's per-winner push order.
            positions, senders = topology.gather(topology.export_indptr, cells)
            if positions.size == 0:
                return
            targets = senders + topology.export_offsets[positions]
            kinds = topology.export_kinds[positions]
            for class_offset in (0, 1, 2):
                mask = kinds == class_offset
                push(next_length, class_offset, targets[mask], senders[mask])
        else:
            push_neighbors(
                2, topology.customer_indptr, topology.customer_offsets, cells, next_length
            )

    for col, origin in enumerate(origins):
        origin_cell = np.array([col * n + origin], dtype=np.int64)
        # Claimed-path padding: first receivers install one hop past the
        # announced path length, exactly as in the reference kernel.
        first_hop_length = origin_lengths[col] + 1
        origin_is_stub = (
            topology.customer_indptr[origin + 1] == topology.customer_indptr[origin]
        )
        if first_hop_flags[col] and origin_is_stub:
            push_neighbors(
                1, topology.peer_indptr, topology.peer_offsets, origin_cell, first_hop_length
            )
            push_neighbors(
                2, topology.customer_indptr, topology.customer_offsets, origin_cell,
                first_hop_length,
            )
        else:
            push_exports(origin_cell, _CLASS_ORIGIN, first_hop_length)

    # Journal records accumulate as column-tagged arrays during the loop
    # and are distributed per column afterwards: a stable sort on the
    # column index keeps each column's global install order intact.
    j_cols: list[np.ndarray] = []
    j_nodes: list[np.ndarray] = []
    j_cls: list[np.ndarray] = []
    j_len: list[np.ndarray] = []
    j_parent: list[np.ndarray] = []
    j_origin: list[np.ndarray] = []

    messages = 0
    installs = 0
    replaced = 0
    route_length = 0
    while route_length < len(buckets):
        bucket = buckets[route_length]
        if bucket is not None:
            for class_offset, route_class in enumerate(
                (_CLASS_CUSTOMER, _CLASS_PEER, _CLASS_PROVIDER)
            ):
                chunks = bucket[class_offset]
                if not chunks:
                    continue
                if len(chunks) == 1:
                    cells, senders = chunks[0]
                else:
                    cells = np.concatenate([chunk[0] for chunk in chunks])
                    senders = np.concatenate([chunk[1] for chunk in chunks])
                messages += int(cells.size)
                keep = ~dropped[cells]
                if not keep.all():
                    cells = cells[keep]
                    senders = senders[keep]
                if cells.size == 0:
                    continue
                # First candidate per cell in push order: any later one in
                # this bucket carries the same (length, class) and ties
                # keep the incumbent. Scatter-assigning the candidate
                # indices in *reverse* leaves each cell's earliest index
                # in first_slot (fancy-index assignment is last-wins), so
                # comparing back picks exactly the first occurrences —
                # already in push order, no sort needed.
                slots = np.arange(cells.size, dtype=np.int64)
                first_slot[cells[::-1]] = slots[::-1]
                sel = first_slot[cells] == slots
                first_slot[cells] = -1  # reset only the touched cells
                cand_cells = cells[sel]
                cand_senders = senders[sel]
                incumbent_key = key[cand_cells]
                cand_key = (route_class << _LEN_BITS) | route_length
                # One packed comparison = better class, or same class and
                # strictly shorter path.
                beats = cand_key < incumbent_key
                if tier1_shortest:
                    beats = np.where(
                        is_tier1_flat[cand_cells],
                        route_length < (incumbent_key & _LEN_MASK),
                        beats,
                    )
                if not beats.any():
                    continue
                # Install order is push order of each winner's first
                # candidate — what the journal and export order encode.
                winners = cand_cells[beats]
                winner_senders = cand_senders[beats]
                displaced_key = incumbent_key[beats]
                installs += int(winners.size)
                replaced += int(((displaced_key >> _LEN_BITS) != _NO_CLASS).sum())
                cols = winners // n
                colbase = cols * n
                if journals is not None:
                    j_cols.append(cols)
                    j_nodes.append(winners - colbase)
                    j_cls.append(displaced_key >> _LEN_BITS)
                    j_len.append(displaced_key & _LEN_MASK)
                    j_parent.append(parent[winners].astype(np.int64))
                    j_origin.append(origin_of[winners].astype(np.int64))
                key[winners] = cand_key
                parent[winners] = winner_senders - colbase
                origin_of[winners] = origins_np[cols]
                push_exports(winners, route_class, route_length + 1)
        route_length += 1

    if journals is not None and j_cols:
        cols_all = np.concatenate(j_cols)
        order = np.argsort(cols_all, kind="stable")
        sorted_cols = cols_all[order]
        nodes_sorted = np.concatenate(j_nodes)[order]
        cls_sorted = np.concatenate(j_cls)[order]
        len_sorted = np.concatenate(j_len)[order]
        parent_sorted = np.concatenate(j_parent)[order]
        origin_sorted = np.concatenate(j_origin)[order]
        bounds = np.searchsorted(sorted_cols, np.arange(k + 1))
        for col in range(k):
            lo, hi = int(bounds[col]), int(bounds[col + 1])
            if lo == hi:
                continue
            journals[col].extend(
                zip(
                    nodes_sorted[lo:hi].tolist(),
                    cls_sorted[lo:hi].tolist(),
                    len_sorted[lo:hi].tolist(),
                    parent_sorted[lo:hi].tolist(),
                    origin_sorted[lo:hi].tolist(),
                )
            )

    key_grid = key.reshape(k, n)
    parent_grid = parent.reshape(k, n)
    origin_grid = origin_of.reshape(k, n)
    for col, state in enumerate(states):
        state.cls = (key_grid[col] >> _LEN_BITS).tolist()
        state.length = (key_grid[col] & _LEN_MASK).tolist()
        state.parent = parent_grid[col].tolist()
        state.origin_of = origin_grid[col].tolist()
    return messages, installs, replaced, len(buckets)
