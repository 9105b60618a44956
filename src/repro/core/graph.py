"""System model of the paper (Section 2).

The paper models the system as an undirected graph ``G = (V, E)`` with a
single predetermined destination node ``D``.  A *directed version* ``G'`` of
``G`` assigns exactly one direction to every undirected edge.  A fixed
*initial* directed version ``G'_init`` determines, for every node ``u``, the
constant neighbour sets

* ``nbrs(u)``      — all neighbours of ``u`` in ``G``,
* ``in_nbrs(u)``   — neighbours ``v`` with an edge ``v -> u`` in ``G'_init``,
* ``out_nbrs(u)``  — neighbours ``v`` with an edge ``u -> v`` in ``G'_init``.

These sets never change during an execution; only the current orientation of
the edges changes.  This module provides:

:class:`LinkReversalInstance`
    The immutable problem instance: nodes, undirected edges, destination and
    the initial orientation.
:class:`Orientation`
    A (cheaply copyable) assignment of a direction to every edge — the
    ``dir[u, v]`` state variables of the paper's automata.
:class:`EdgeDirection`
    The two values ``IN`` / ``OUT`` of a ``dir`` variable.
:func:`mask_is_acyclic`, :func:`mask_is_destination_oriented`, :func:`hop_distances`, :func:`link_splits`
    The structural searches over a reversal mask, one of each: a Kahn DAG
    test, one breadth-first search from the destination and one bridge
    test of the alive links.

Indexed representation
----------------------

The instance assigns every node and every undirected edge a dense integer
index in :meth:`LinkReversalInstance.__post_init__` and precomputes, once:

* a node → index map,
* CSR-style per-node incident-edge and neighbour-id lists, and
* per-node selector bitmasks over the global edge index.

The node-keyed views — the ordered-pair edge index (``edge_index(u, v)``),
``incident_neighbours`` and the ``nbrs`` / ``in_nbrs`` / ``out_nbrs`` sets —
are built on first use: the compiled engines work on ids alone, and the
legacy oracle's churn derives each repair phase's instance from the
previous one (:meth:`LinkReversalInstance.oriented_by`) without
revalidating it.

:class:`Orientation` stores the whole directed version as a *single Python
int bitmask* (bit ``e`` set iff edge ``e`` is currently reversed relative to
``G'_init``) plus per-node incoming-edge counters and an incrementally
maintained sink set.  ``dir`` / ``reverse_edge`` are O(1), ``sinks()`` needs
no rescan, ``copy()`` copies one int and one counter array, and
``signature()`` is the bitmask itself — a compact int the model checker can
dedup on directly.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from functools import cached_property
from typing import Dict, FrozenSet, Hashable, Iterable, Iterator, List, Mapping, Optional, Sequence, Tuple

Node = Hashable
UndirectedEdge = FrozenSet[Node]
DirectedEdge = Tuple[Node, Node]


class EdgeDirection(enum.Enum):
    """Value of a ``dir[u, v]`` state variable, from ``u``'s perspective.

    ``dir[u, v] = IN`` means the edge between ``u`` and ``v`` currently points
    *towards* ``u`` (i.e. the directed edge is ``v -> u``); ``OUT`` means it
    points away from ``u`` (``u -> v``).  Invariant 3.1 of the paper states
    that ``dir[u, v] = IN`` iff ``dir[v, u] = OUT`` — the :class:`Orientation`
    representation below enforces this by construction.
    """

    IN = "in"
    OUT = "out"

    def flipped(self) -> "EdgeDirection":
        """Return the opposite direction."""
        return EdgeDirection.OUT if self is EdgeDirection.IN else EdgeDirection.IN


class GraphValidationError(ValueError):
    """Raised when a problem instance violates the paper's system model."""


def undirected(u: Node, v: Node) -> UndirectedEdge:
    """Return the canonical (unordered) representation of the edge ``{u, v}``."""
    return frozenset((u, v))


@dataclass(frozen=True)
class LinkReversalInstance:
    """An immutable link-reversal problem instance.

    Parameters
    ----------
    nodes:
        All nodes ``V`` of the graph (order is preserved and used as a
        deterministic iteration order throughout the library).
    destination:
        The destination node ``D``; it never takes a step in any algorithm.
    initial_edges:
        The edges of ``G'_init`` as directed pairs ``(u, v)`` meaning
        ``u -> v`` initially.  Each undirected edge must appear exactly once.

    The instance exposes the constant neighbour sets ``nbrs``, ``in_nbrs`` and
    ``out_nbrs`` of the paper, plus convenience accessors used by the
    algorithms, the verification layer and the topology generators.
    """

    nodes: Tuple[Node, ...]
    destination: Node
    initial_edges: Tuple[DirectedEdge, ...]
    # indexed core (see module docstring); every field below is derived once
    _node_id: Mapping[Node, int] = field(init=False, repr=False, compare=False)
    _edge_node_ids: Tuple[Tuple[int, int], ...] = field(init=False, repr=False, compare=False)
    _incident_eids: Tuple[Tuple[int, ...], ...] = field(init=False, repr=False, compare=False)
    _incident_nbr_ids: Tuple[Tuple[int, ...], ...] = field(init=False, repr=False, compare=False)
    _incident_mask: Tuple[int, ...] = field(init=False, repr=False, compare=False)
    _tail_sel: Tuple[int, ...] = field(init=False, repr=False, compare=False)
    _degree: Tuple[int, ...] = field(init=False, repr=False, compare=False)
    _csr_offsets: Tuple[int, ...] = field(init=False, repr=False, compare=False)
    _init_in_count: Tuple[int, ...] = field(init=False, repr=False, compare=False)
    _init_sink_ids: FrozenSet[int] = field(init=False, repr=False, compare=False)
    _dest_id: int = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        node_id: Dict[Node, int] = {u: i for i, u in enumerate(self.nodes)}
        if len(node_id) != len(self.nodes):
            raise GraphValidationError("duplicate nodes in instance")
        if self.destination not in node_id:
            raise GraphValidationError(f"destination {self.destination!r} is not a node")
        try:
            edge_node_ids = [(node_id[u], node_id[v]) for u, v in self.initial_edges]
        except KeyError:
            bad = next(
                (u, v) for u, v in self.initial_edges
                if u not in node_id or v not in node_id
            )
            raise GraphValidationError(
                f"edge ({bad[0]!r}, {bad[1]!r}) references unknown node"
            ) from None
        self._index(node_id, edge_node_ids)
        if len(self._edge_id) != 2 * len(self.initial_edges):
            # a self loop or a repeated edge shares its _edge_id keys
            seen: set = set()
            for u, v in self.initial_edges:
                if u == v:
                    raise GraphValidationError(f"self loop on node {u!r} is not allowed")
                if (u, v) in seen:
                    raise GraphValidationError(
                        f"edge between {u!r} and {v!r} specified more than once"
                    )
                seen.update(((u, v), (v, u)))

    def _index(self, node_id: Dict[Node, int], edge_node_ids: Sequence[Tuple[int, int]]) -> None:
        """Derive every indexed field from the node ids of ``initial_edges``."""
        n = len(self.nodes)
        inc_eids: List[List[int]] = [[] for _ in range(n)]
        inc_ids: List[List[int]] = [[] for _ in range(n)]
        inc_mask = [0] * n
        tail_sel = [0] * n
        for e, (ui, vi) in enumerate(edge_node_ids):
            bit = 1 << e
            inc_eids[ui].append(e)
            inc_ids[ui].append(vi)
            inc_eids[vi].append(e)
            inc_ids[vi].append(ui)
            inc_mask[ui] |= bit
            inc_mask[vi] |= bit
            tail_sel[ui] |= bit
        self._store(
            node_id, tuple(edge_node_ids), tuple(map(tuple, inc_eids)),
            tuple(map(tuple, inc_ids)), tuple(inc_mask), tail_sel,
            [len(eids) for eids in inc_eids],
        )

    def _store(
        self, node_id, edge_node_ids, inc_eids, inc_ids, inc_mask, tail_sel, degree
    ) -> None:
        """Set the indexed fields, deriving the CSR offsets and initial sinks."""
        offsets = [0] * len(degree)
        running = 0
        for i, d in enumerate(degree):
            offsets[i] = running
            running += d
        set_attr = object.__setattr__
        set_attr(self, "_node_id", node_id)
        set_attr(self, "_edge_node_ids", edge_node_ids)
        set_attr(self, "_incident_eids", inc_eids)
        set_attr(self, "_incident_nbr_ids", inc_ids)
        set_attr(self, "_incident_mask", inc_mask)
        set_attr(self, "_tail_sel", tuple(tail_sel))
        set_attr(self, "_degree", tuple(degree))
        set_attr(self, "_csr_offsets", tuple(offsets))
        # a node's incoming edges are its incident edges it is not the tail of
        set_attr(self, "_init_in_count", tuple(
            [d - tail.bit_count() for d, tail in zip(degree, tail_sel)]
        ))
        # a sink: some incident edge, and it tails none of them
        set_attr(self, "_init_sink_ids", frozenset(
            [i for i, (d, tail) in enumerate(zip(degree, tail_sel)) if d and not tail]
        ))
        set_attr(self, "_dest_id", node_id[self.destination])

    # the node-keyed views are built on first use: the compiled engines work
    # on the id tables above, and the oracle's churn builds an instance per
    # repair
    @cached_property
    def _edge_id(self) -> Mapping[Tuple[Node, Node], int]:
        edge_id: Dict[Tuple[Node, Node], int] = {}
        for e, (u, v) in enumerate(self.initial_edges):
            edge_id[(u, v)] = e
            edge_id[(v, u)] = e
        return edge_id

    @cached_property
    def _incident_nbrs(self) -> Tuple[Tuple[Node, ...], ...]:
        nodes = self.nodes
        return tuple(tuple(nodes[j] for j in row) for row in self._incident_nbr_ids)

    @cached_property
    def _incident_pairs(self) -> Tuple[Tuple[Tuple[int, int], ...], ...]:
        """Per node id: its ``(edge bit, neighbour id)`` pairs, in CSR order.

        The compiled engine's incremental sink updates walk them, so every
        kernel of the instance shares one table.
        """
        return tuple(
            tuple([(1 << e, j) for e, j in zip(eids, ids)])
            for eids, ids in zip(self._incident_eids, self._incident_nbr_ids)
        )

    @cached_property
    def _nbrs(self) -> Mapping[Node, FrozenSet[Node]]:
        return {u: frozenset(row) for u, row in zip(self.nodes, self._incident_nbrs)}

    @cached_property
    def _nbr_pos(self) -> Tuple[Mapping[Node, int], ...]:
        """Per node: neighbour -> CSR position (for :meth:`pack_neighbour_sets`)."""
        return tuple(
            {v: pos for pos, v in enumerate(neighbours)}
            for neighbours in self._incident_nbrs
        )

    @cached_property
    def _in_nbrs(self) -> Mapping[Node, FrozenSet[Node]]:
        rows: List[List[Node]] = [[] for _ in self.nodes]
        for (u, _), (_, vi) in zip(self.initial_edges, self._edge_node_ids):
            rows[vi].append(u)
        return {u: frozenset(row) for u, row in zip(self.nodes, rows)}

    @cached_property
    def _out_nbrs(self) -> Mapping[Node, FrozenSet[Node]]:
        rows: List[List[Node]] = [[] for _ in self.nodes]
        for (_, v), (ui, _) in zip(self.initial_edges, self._edge_node_ids):
            rows[ui].append(v)
        return {u: frozenset(row) for u, row in zip(self.nodes, rows)}

    @cached_property
    def _derived(self) -> Dict[Hashable, object]:
        """Memo of tables other functions derive from this instance alone.

        Keyed by the deriving function: :func:`hop_distances` per alive
        mask, and the batch structural checks' packed rows.  The instance is
        immutable, so an entry never goes stale; it goes with the instance.
        """
        return {}

    # ------------------------------------------------------------------
    # construction helpers
    # ------------------------------------------------------------------
    @classmethod
    def from_directed_edges(
        cls,
        nodes: Sequence[Node],
        destination: Node,
        edges: Iterable[DirectedEdge],
    ) -> "LinkReversalInstance":
        """Build an instance from an explicit list of initially directed edges."""
        return cls(tuple(nodes), destination, tuple((u, v) for u, v in edges))

    @classmethod
    def from_networkx(cls, graph, destination: Node) -> "LinkReversalInstance":
        """Build an instance from a ``networkx.DiGraph`` (the initial orientation).

        The node iteration order of the DiGraph is preserved.
        """
        nodes = tuple(graph.nodes())
        edges = tuple(graph.edges())
        return cls(nodes, destination, edges)

    def to_networkx(self):
        """Return the initial orientation ``G'_init`` as a ``networkx.DiGraph``."""
        import networkx as nx

        graph = nx.DiGraph()
        graph.add_nodes_from(self.nodes)
        graph.add_edges_from(self.initial_edges)
        return graph

    # ------------------------------------------------------------------
    # basic structure
    # ------------------------------------------------------------------
    @property
    def non_destination_nodes(self) -> Tuple[Node, ...]:
        """All nodes except the destination (the nodes that may take steps)."""
        return tuple(u for u in self.nodes if u != self.destination)

    @cached_property
    def undirected_edges(self) -> FrozenSet[UndirectedEdge]:
        """The edge set ``E`` of the undirected graph ``G`` (built once)."""
        return frozenset(undirected(u, v) for u, v in self.initial_edges)

    @property
    def edge_count(self) -> int:
        """Number of undirected edges ``|E|``."""
        return len(self.initial_edges)

    @property
    def node_count(self) -> int:
        """Number of nodes ``|V|``."""
        return len(self.nodes)

    def nbrs(self, u: Node) -> FrozenSet[Node]:
        """Neighbours of ``u`` in the undirected graph ``G`` (constant)."""
        return self._nbrs[u]

    def in_nbrs(self, u: Node) -> FrozenSet[Node]:
        """Nodes with edges directed *towards* ``u`` in ``G'_init`` (constant)."""
        return self._in_nbrs[u]

    def out_nbrs(self, u: Node) -> FrozenSet[Node]:
        """Nodes with edges directed *away from* ``u`` in ``G'_init`` (constant)."""
        return self._out_nbrs[u]

    def degree(self, u: Node) -> int:
        """Degree of ``u`` in the undirected graph."""
        return len(self._nbrs[u])

    def has_edge(self, u: Node, v: Node) -> bool:
        """Whether ``{u, v}`` is an edge of ``G``."""
        return (u, v) in self._edge_id

    # ------------------------------------------------------------------
    # indexed views (built once in __post_init__)
    # ------------------------------------------------------------------
    def node_index(self, u: Node) -> int:
        """Dense integer index of node ``u`` (instance declaration order)."""
        return self._node_id[u]

    def edge_index(self, u: Node, v: Node) -> int:
        """Global index of the undirected edge ``{u, v}``.

        Raises ``KeyError`` if ``{u, v}`` is not an edge; the lookup allocates
        nothing beyond the key tuple (no frozensets).
        """
        return self._edge_id[(u, v)]

    def edge_endpoints(self, edge_index: int) -> DirectedEdge:
        """The ``(tail, head)`` pair of edge ``edge_index`` in ``G'_init``."""
        return self.initial_edges[edge_index]

    def incident_neighbours(self, u: Node) -> Tuple[Node, ...]:
        """Neighbours of ``u``, in the order of its incident edge indices."""
        return self._incident_nbrs[self._node_id[u]]

    def pack_neighbour_sets(self, sets: Mapping[Node, Iterable[Node]]) -> int:
        """Pack per-node neighbour subsets into one int (CSR bit layout).

        Each node owns ``degree(u)`` consecutive bits (offset by the CSR row
        start); bit ``k`` of node ``u``'s span is set iff ``u``'s ``k``-th
        incident neighbour is in ``sets[u]``.  Used by the algorithm states to
        turn ``list[u]`` / ``marked[u]`` bookkeeping into compact signature
        ints for the model checker.
        """
        packed = 0
        node_id = self._node_id
        offsets = self._csr_offsets
        for u, members in sets.items():
            if not members:
                continue
            i = node_id[u]
            base = offsets[i]
            pos = self._nbr_pos[i]
            for v in members:
                packed |= 1 << (base + pos[v])
        return packed

    def unpack_neighbour_sets(self, packed: int) -> Dict[Node, FrozenSet[Node]]:
        """Inverse of :meth:`pack_neighbour_sets`: decode per-node subsets.

        The model checker explores pure int signatures; this reconstructs the
        bookkeeping component (``list[u]`` per node) when a state object is
        needed again — predicate evaluation, counterexample replay.
        """
        result: Dict[Node, FrozenSet[Node]] = {}
        offsets = self._csr_offsets
        degrees = self._degree
        neighbours = self._incident_nbrs
        for i, u in enumerate(self.nodes):
            row = (packed >> offsets[i]) & ((1 << degrees[i]) - 1)
            if row:
                result[u] = frozenset(
                    v for k, v in enumerate(neighbours[i]) if (row >> k) & 1
                )
            else:
                result[u] = frozenset()
        return result

    # ------------------------------------------------------------------
    # initial-orientation structure
    # ------------------------------------------------------------------
    def initial_orientation(self) -> "Orientation":
        """Return the mutable orientation corresponding to ``G'_init``."""
        return Orientation(
            self, 0, list(self._init_in_count), set(self._init_sink_ids)
        )

    def initial_sinks(self) -> Tuple[Node, ...]:
        """Nodes that are sinks in ``G'_init`` (every incident edge incoming)."""
        return tuple(self.nodes[i] for i in sorted(self._init_sink_ids))

    def initial_sources(self) -> Tuple[Node, ...]:
        """Nodes that are sources in ``G'_init`` (every incident edge outgoing)."""
        return tuple(
            u
            for u in self.nodes
            if self._nbrs[u] and not self._in_nbrs[u]
        )

    def is_initially_acyclic(self) -> bool:
        """Whether ``G'_init`` is a DAG (a requirement of the system model).

        :func:`mask_is_acyclic` at mask 0, run once per instance (the
        oracle's mobility churn checks a carried-over candidate and then
        builds an automaton on it, which validates it again).
        """
        return self._initially_acyclic

    @cached_property
    def _initially_acyclic(self) -> bool:
        return mask_is_acyclic(self, 0)

    def is_connected(self, without_edge: Optional[int] = None) -> bool:
        """Whether the undirected graph ``G`` is connected.

        ``without_edge`` asks the question for ``G`` minus the edge with that
        id — whether failing the link would partition the network — without
        building the smaller instance.
        """
        return next(self._component_sizes(without_edge), 0) == len(self.nodes)

    def is_forest(self) -> bool:
        """Whether ``G`` has no undirected cycle (``|E| = |V| - components``).

        A directed cycle needs an undirected one, so no orientation of a
        forest has a directed cycle; the model checker skips its acyclicity
        check on forests.
        """
        return self._forest

    @cached_property
    def _forest(self) -> bool:
        components = sum(1 for _ in self._component_sizes())
        return self.edge_count == self.node_count - components

    def _component_sizes(self, without_edge: Optional[int] = None) -> Iterator[int]:
        """Sizes of the components of ``G`` minus ``without_edge``, lazily.

        The components come in the order of their lowest node id, so the
        first one holds node id 0.
        """
        eids = self._incident_eids
        nbr_ids = self._incident_nbr_ids
        seen = [False] * len(self.nodes)
        for root in range(len(seen)):
            if seen[root]:
                continue
            seen[root] = True
            frontier = [root]
            reached = 1
            while frontier:
                i = frontier.pop()
                for e, j in zip(eids[i], nbr_ids[i]):
                    if not seen[j] and e != without_edge:
                        seen[j] = True
                        reached += 1
                        frontier.append(j)
            yield reached

    def validate(self, require_dag: bool = True, require_connected: bool = False) -> None:
        """Raise :class:`GraphValidationError` if the instance violates the model.

        Parameters
        ----------
        require_dag:
            The paper assumes the initial graph is a DAG.  Set to ``False``
            only for experiments that deliberately start from a non-DAG.
        require_connected:
            Routing experiments typically need a connected graph.
        """
        if require_dag and not self.is_initially_acyclic():
            raise GraphValidationError("initial orientation contains a cycle")
        if require_connected and not self.is_connected():
            raise GraphValidationError("underlying undirected graph is not connected")

    def bad_nodes(self) -> FrozenSet[Node]:
        """Nodes with no directed path to the destination in ``G'_init``.

        This is the set whose cardinality ``n_b`` parameterises the
        Θ(n_b²) worst-case work bound discussed in Section 1 of the paper.
        """
        return self.initial_orientation().nodes_without_path_to_destination()

    @cached_property
    def bad_node_count(self) -> int:
        """``n_b = len(bad_nodes())``, computed once per instance."""
        return len(self.bad_nodes())

    def oriented_by(self, mask: int, drop: Optional[int] = None) -> "LinkReversalInstance":
        """This graph with the ``mask`` orientation as its initial one.

        Bit ``e`` of ``mask`` reverses edge ``e``; ``drop``, when given, is
        the id of an edge to leave out (a failed link).  The edges keep their
        order, so the result equals the instance built from the re-oriented
        edge list.  The nodes are unchanged and the edges are a subset of
        this instance's, so nothing is re-validated and no node is looked up
        again: the id tables are rebuilt from the edges' node ids, or, with
        no edge dropped, shared where re-orienting cannot change them.  The
        legacy oracle's churn re-packs its instances with this; the compiled
        engine keeps the topology and clears failed links' bits instead
        (:class:`repro.experiments.churn.Links`).
        """
        edges = [
            (v, u) if (mask >> e) & 1 else (u, v)
            for e, (u, v) in enumerate(self.initial_edges)
        ]
        edge_node_ids = [
            (j, i) if (mask >> e) & 1 else (i, j)
            for e, (i, j) in enumerate(self._edge_node_ids)
        ]
        if drop is not None:
            del edges[drop]
            del edge_node_ids[drop]
        derived = object.__new__(type(self))
        object.__setattr__(derived, "nodes", self.nodes)
        object.__setattr__(derived, "destination", self.destination)
        object.__setattr__(derived, "initial_edges", tuple(edges))
        if drop is not None:
            derived._index(self._node_id, edge_node_ids)
            return derived
        # same links under the same ids: only which endpoint tails an edge
        # changes, and the node-keyed views carry over as built
        for name in ("_edge_id", "_incident_nbrs", "_nbrs", "_nbr_pos", "undirected_edges"):
            if name in self.__dict__:
                derived.__dict__[name] = self.__dict__[name]
        derived._store(
            self._node_id, tuple(edge_node_ids), self._incident_eids,
            self._incident_nbr_ids, self._incident_mask,
            [tail ^ (mask & inc) for tail, inc in zip(self._tail_sel, self._incident_mask)],
            self._degree,
        )
        return derived

    # ------------------------------------------------------------------
    # misc
    # ------------------------------------------------------------------
    def relabelled(self, mapping: Mapping[Node, Node]) -> "LinkReversalInstance":
        """Return a copy of the instance with nodes renamed via ``mapping``."""
        return LinkReversalInstance(
            nodes=tuple(mapping[u] for u in self.nodes),
            destination=mapping[self.destination],
            initial_edges=tuple((mapping[u], mapping[v]) for u, v in self.initial_edges),
        )

    def __str__(self) -> str:  # pragma: no cover - repr convenience
        return (
            f"LinkReversalInstance(|V|={self.node_count}, |E|={self.edge_count}, "
            f"destination={self.destination!r})"
        )


def _derive_counters(
    instance: LinkReversalInstance, mask: int
) -> Tuple[List[int], set]:
    """Incoming-edge counters and sink ids of an arbitrary reversal mask."""
    in_count: List[int] = []
    sink_ids: set = set()
    degree = instance._degree
    tail_sel = instance._tail_sel
    incident_mask = instance._incident_mask
    for i in range(len(instance.nodes)):
        toward = ~(mask ^ tail_sel[i]) & incident_mask[i]
        count = toward.bit_count()
        in_count.append(count)
        if degree[i] and count == degree[i]:
            sink_ids.add(i)
    return in_count, sink_ids


# ----------------------------------------------------------------------
# searches over a reversal mask
# ----------------------------------------------------------------------
# Every structural question about an orientation is answered here, once, on
# the instance's id tables: bit ``e`` of ``mask`` reverses edge ``e``, and
# ``alive``, when given, keeps only the edges whose bit it sets (the links a
# churned run has left).  :class:`Orientation`, the compiled engines'
# final-state verdicts, churn's carry-over and partition tests and the
# distance-driven schedulers all call these.
def mask_directed_edges(
    instance: LinkReversalInstance, mask: int
) -> Tuple[DirectedEdge, ...]:
    """The ``(tail, head)`` edges of the ``mask`` orientation, in edge order."""
    return tuple(
        (head, tail) if (mask >> e) & 1 else (tail, head)
        for e, (tail, head) in enumerate(instance.initial_edges)
    )


def _successor_ids(
    instance: LinkReversalInstance, mask: int, alive: Optional[int] = None
) -> List[List[int]]:
    """Per node id: the ids its alive edges point at in the ``mask`` orientation."""
    succ: List[List[int]] = [[] for _ in instance.nodes]
    for e, (tail_id, head_id) in enumerate(instance._edge_node_ids):
        if alive is None or (alive >> e) & 1:
            if (mask >> e) & 1:
                succ[head_id].append(tail_id)
            else:
                succ[tail_id].append(head_id)
    return succ


def _predecessor_ids(
    instance: LinkReversalInstance, mask: int, alive: Optional[int] = None
) -> List[List[int]]:
    """Per node id: the ids whose alive edges point at it (``~mask`` turns every edge)."""
    return _successor_ids(instance, ~mask, alive)


def mask_is_acyclic(
    instance: LinkReversalInstance, mask: int, alive: Optional[int] = None
) -> bool:
    """Whether the ``mask`` orientation is a DAG."""
    return _is_dag(_successor_ids(instance, mask, alive))


def _is_dag(succ: List[List[int]]) -> bool:
    """Kahn's algorithm on successor lists: whether it removes every node."""
    indegree = [0] * len(succ)
    for row in succ:
        for j in row:
            indegree[j] += 1
    queue = [i for i, d in enumerate(indegree) if d == 0]
    removed = 0
    while queue:
        i = queue.pop()
        removed += 1
        for j in succ[i]:
            indegree[j] -= 1
            if indegree[j] == 0:
                queue.append(j)
    return removed == len(succ)


def _distances_from_destination(
    instance: LinkReversalInstance, adjacency: Sequence[Sequence[int]]
) -> List[int]:
    """Breadth-first hop distance from the destination to every node id.

    ``adjacency[i]`` lists the ids one hop from node ``i``: an orientation's
    predecessor lists give reverse reachability, the alive undirected
    neighbours give hop distances.  A node the search does not reach gets
    ``node_count + 1``, more hops than any path has.
    """
    unreached = len(adjacency) + 1
    distance = [unreached] * len(adjacency)
    dest = instance._dest_id
    distance[dest] = 0
    frontier = [dest]
    while frontier:
        next_frontier: List[int] = []
        for i in frontier:
            d = distance[i] + 1
            for j in adjacency[i]:
                if distance[j] == unreached:
                    distance[j] = d
                    next_frontier.append(j)
        frontier = next_frontier
    return distance


def reaching_destination(
    instance: LinkReversalInstance, predecessors: Sequence[Sequence[int]]
) -> List[bool]:
    """Per node id: whether it has a directed path to the destination.

    ``predecessors[i]`` lists the ids with an edge into node ``i``.  The
    message-passing networks pass lists derived from their heights.
    """
    unreached = instance.node_count + 1
    return [d != unreached for d in _distances_from_destination(instance, predecessors)]


def mask_is_destination_oriented(
    instance: LinkReversalInstance, mask: int, alive: Optional[int] = None
) -> bool:
    """Whether every node reaches the destination in the ``mask`` orientation."""
    return all(reaching_destination(instance, _predecessor_ids(instance, mask, alive)))


def mask_final_state_checks(
    instance: LinkReversalInstance, mask: int, alive: Optional[int] = None
) -> Tuple[bool, bool]:
    """``(is_acyclic, is_destination_oriented)`` of the ``mask`` orientation.

    What the scenario runner stamps on every finished run.  Following
    out-edges from any node of a DAG ends at a node without one, so a DAG
    is destination oriented iff the destination is its only such node, and
    only a cyclic orientation needs the search from the destination.
    """
    succ = _successor_ids(instance, mask, alive)
    if _is_dag(succ):
        dest = instance._dest_id
        return True, all([row for i, row in enumerate(succ) if i != dest])
    return False, mask_is_destination_oriented(instance, mask, alive)


def hop_distances(
    instance: LinkReversalInstance, alive: Optional[int] = None
) -> Tuple[int, ...]:
    """Per node id: its hop distance to the destination over the alive links.

    Links count in either direction.  ``node_count + 1`` marks a node the
    destination cannot reach.  The search runs once per instance and alive
    mask (every link alive when ``alive`` is ``None``): the compiled
    engine's repair phases ask again for the same links.
    """
    links = (1 << instance.edge_count) - 1
    alive = links if alive is None else alive & links
    key = ("hop_distances", alive)
    memo = instance._derived
    distances = memo.get(key)
    if distances is None:
        adjacency: List[Sequence[int]] = list(instance._incident_nbr_ids)
        dead = links & ~alive
        while dead:
            # a failed link leaves both endpoints' rows (a churned run has few)
            bit = dead & -dead
            dead ^= bit
            i, j = instance._edge_node_ids[bit.bit_length() - 1]
            adjacency[i] = [k for k in adjacency[i] if k != j]
            adjacency[j] = [k for k in adjacency[j] if k != i]
        distances = memo[key] = tuple(_distances_from_destination(instance, adjacency))
    return distances


def link_splits(instance: LinkReversalInstance, alive: int, link: int) -> bool:
    """Whether failing edge ``link`` separates its endpoints over the alive links.

    That is, whether ``link`` is a bridge of the ``alive`` links: on
    connected alive links, whether failing it would partition them.  The
    link-failure churn of every engine asks this before it fails a link.
    """
    alive &= ~(1 << link)
    source, target = instance._edge_node_ids[link]
    eids, ids = instance._incident_eids, instance._incident_nbr_ids
    seen = {source}
    frontier = [source]
    while frontier:
        i = frontier.pop()
        for e, j in zip(eids[i], ids[i]):
            if j not in seen and (alive >> e) & 1:
                if j == target:
                    return False
                seen.add(j)
                frontier.append(j)
    return True


class Orientation:
    """A directed version ``G'`` of the undirected graph ``G``.

    Internally the orientation is a single int bitmask over the instance's
    global edge index: bit ``e`` is clear when edge ``e`` points as in
    ``G'_init`` and set when it is reversed.  This representation makes the
    paper's Invariant 3.1 (``dir[u, v] = in`` iff ``dir[v, u] = out``) true by
    construction while keeping every ``dir`` lookup and ``reverse_edge`` O(1).
    Alongside the mask the orientation maintains per-node incoming-edge
    counters and the set of current sinks incrementally, so ``sinks()`` and
    ``is_sink()`` never rescan the graph, and ``copy()`` is one int plus one
    counter-array copy — the model checker copies orientations for every
    explored transition.
    """

    __slots__ = ("instance", "_mask", "_in_count", "_sink_ids")

    def __init__(
        self,
        instance: LinkReversalInstance,
        mask: int = 0,
        in_count: Optional[List[int]] = None,
        sink_ids: Optional[set] = None,
    ):
        self.instance = instance
        self._mask = mask
        if in_count is None:
            in_count, derived_sinks = _derive_counters(instance, mask)
            if sink_ids is None:
                sink_ids = derived_sinks
        elif sink_ids is None:
            degree = instance._degree
            sink_ids = {
                i
                for i in range(len(instance.nodes))
                if degree[i] and in_count[i] == degree[i]
            }
        self._in_count = in_count
        self._sink_ids = sink_ids

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    @classmethod
    def from_directed_edges(
        cls, instance: LinkReversalInstance, edges: Iterable[DirectedEdge]
    ) -> "Orientation":
        """Build an orientation from explicit directed edges ``u -> v``."""
        edge_id = instance._edge_id
        initial = instance.initial_edges
        mask = 0
        seen = 0
        for u, v in edges:
            e = edge_id.get((u, v))
            if e is None:
                raise GraphValidationError(f"({u!r}, {v!r}) is not an edge of the instance")
            bit = 1 << e
            # the declared head is ``v``; the edge is reversed iff that differs
            # from the initial head
            if initial[e][1] == v:
                mask &= ~bit
            else:
                mask |= bit
            seen |= bit
        missing_bits = seen ^ ((1 << len(initial)) - 1)
        if missing_bits:
            missing = [
                tuple(sorted(map(str, initial[e])))
                for e in range(len(initial))
                if (missing_bits >> e) & 1
            ]
            raise GraphValidationError(f"orientation missing directions for {sorted(missing)!r}")
        return cls(instance, mask)

    @classmethod
    def from_mask(cls, instance: LinkReversalInstance, mask: int) -> "Orientation":
        """Build an orientation directly from a reversal bitmask (a signature)."""
        return cls(instance, mask)

    def copy(self) -> "Orientation":
        """Return an independent copy of this orientation."""
        return Orientation(
            self.instance, self._mask, self._in_count.copy(), self._sink_ids.copy()
        )

    # ------------------------------------------------------------------
    # the paper's ``dir`` view
    # ------------------------------------------------------------------
    def _head_of(self, u: Node, v: Node) -> Node:
        """Current head of edge ``{u, v}`` via the edge index (no allocation)."""
        e = self.instance._edge_id[(u, v)]
        tail, head = self.instance.initial_edges[e]
        return tail if (self._mask >> e) & 1 else head

    def dir(self, u: Node, v: Node) -> EdgeDirection:
        """The paper's ``dir[u, v]`` variable: direction of ``{u, v}`` from ``u``."""
        return EdgeDirection.IN if self._head_of(u, v) == u else EdgeDirection.OUT

    def head(self, u: Node, v: Node) -> Node:
        """The node the edge ``{u, v}`` currently points to."""
        return self._head_of(u, v)

    def tail(self, u: Node, v: Node) -> Node:
        """The node the edge ``{u, v}`` currently points away from."""
        return v if self._head_of(u, v) == u else u

    def points_towards(self, u: Node, v: Node) -> bool:
        """Whether the edge between ``u`` and ``v`` is currently directed ``u -> v``."""
        return self._head_of(u, v) == v

    def _flip(self, e: int) -> None:
        """Flip edge ``e``, maintaining the counters and the sink set."""
        instance = self.instance
        tail_id, head_id = instance._edge_node_ids[e]
        if (self._mask >> e) & 1:
            old_head, new_head = tail_id, head_id
        else:
            old_head, new_head = head_id, tail_id
        self._mask ^= 1 << e
        in_count = self._in_count
        in_count[old_head] -= 1
        self._sink_ids.discard(old_head)
        gained = in_count[new_head] + 1
        in_count[new_head] = gained
        if gained == instance._degree[new_head]:
            self._sink_ids.add(new_head)

    def reverse_edge(self, u: Node, v: Node) -> None:
        """Flip the direction of the edge ``{u, v}`` (in place)."""
        self._flip(self.instance._edge_id[(u, v)])

    def reverse_edges_from(self, u: Node, targets: Iterable[Node]) -> Tuple[Node, ...]:
        """Reverse the edges between ``u`` and each node in ``targets``.

        Only edges currently directed *towards* ``u`` are flipped (matching the
        automata, where a reversing node is a sink so all its edges point at
        it); edges already directed away from ``u`` are left untouched.
        Returns the neighbours whose edge was actually flipped.
        """
        edge_id = self.instance._edge_id
        flipped: List[Node] = []
        for v in targets:
            e = edge_id[(u, v)]
            if self._head_bit_points_at_u(e, u):
                self._flip(e)
                flipped.append(v)
        return tuple(flipped)

    def _head_bit_points_at_u(self, e: int, u: Node) -> bool:
        """Whether edge ``e`` currently points at ``u`` (one of its endpoints)."""
        tail, head = self.instance.initial_edges[e]
        current_head = tail if (self._mask >> e) & 1 else head
        return current_head == u

    # ------------------------------------------------------------------
    # node-level structure
    # ------------------------------------------------------------------
    def _toward_mask(self, node_id: int) -> int:
        """Bitmask of the incident edges currently pointing at node ``node_id``.

        An incident edge points at the node iff its reversal bit differs from
        the node's tail-selector bit, hence one XOR + NOT + AND over the
        incident-edge selector.
        """
        instance = self.instance
        return ~(self._mask ^ instance._tail_sel[node_id]) & instance._incident_mask[node_id]

    def current_in_nbrs(self, u: Node) -> FrozenSet[Node]:
        """Neighbours whose edge currently points towards ``u``."""
        instance = self.instance
        i = instance._node_id[u]
        toward = self._toward_mask(i)
        return frozenset(
            v
            for e, v in zip(instance._incident_eids[i], instance._incident_nbrs[i])
            if (toward >> e) & 1
        )

    def current_out_nbrs(self, u: Node) -> FrozenSet[Node]:
        """Neighbours whose edge currently points away from ``u``."""
        instance = self.instance
        i = instance._node_id[u]
        toward = self._toward_mask(i)
        return frozenset(
            v
            for e, v in zip(instance._incident_eids[i], instance._incident_nbrs[i])
            if not (toward >> e) & 1
        )

    def is_sink(self, u: Node) -> bool:
        """Whether ``u`` is a sink: it has neighbours and every incident edge is incoming.

        The destination is never considered a sink for scheduling purposes by
        the automata (it never takes steps), but this predicate is purely
        structural and applies to any node.  O(1) via the incremental sink set.
        """
        return self.instance._node_id[u] in self._sink_ids

    def is_source(self, u: Node) -> bool:
        """Whether ``u`` has neighbours and every incident edge is outgoing."""
        i = self.instance._node_id[u]
        return self.instance._degree[i] > 0 and self._in_count[i] == 0

    def sinks(self, exclude_destination: bool = True) -> Tuple[Node, ...]:
        """All sink nodes, optionally excluding the destination.

        Served from the incrementally maintained sink set — no node rescan.
        The result is ordered by instance node order, as before.
        """
        instance = self.instance
        sink_ids = self._sink_ids
        if exclude_destination and instance._dest_id in sink_ids:
            sink_ids = sink_ids - {instance._dest_id}
        nodes = instance.nodes
        return tuple(nodes[i] for i in sorted(sink_ids))

    # ------------------------------------------------------------------
    # whole-graph structure
    # ------------------------------------------------------------------
    def directed_edges(self) -> Tuple[DirectedEdge, ...]:
        """All edges as directed pairs ``(tail, head)`` in instance edge order."""
        return mask_directed_edges(self.instance, self._mask)

    def to_networkx(self):
        """Return the current directed graph ``G'`` as a ``networkx.DiGraph``."""
        import networkx as nx

        graph = nx.DiGraph()
        graph.add_nodes_from(self.instance.nodes)
        graph.add_edges_from(self.directed_edges())
        return graph

    def is_acyclic(self) -> bool:
        """Whether the current directed graph is a DAG."""
        return mask_is_acyclic(self.instance, self._mask)

    def find_cycle(self) -> Tuple[Node, ...]:
        """Return a directed cycle as a node tuple, or ``()`` if none exists.

        Used by the verification layer to produce counterexample traces.
        """
        nodes = self.instance.nodes
        n = len(nodes)
        succ = _successor_ids(self.instance, self._mask)

        WHITE, GREY, BLACK = 0, 1, 2
        colour = [WHITE] * n
        parent = [0] * n

        for root in range(n):
            if colour[root] != WHITE:
                continue
            stack: List[Tuple[int, Iterator[int]]] = [(root, iter(succ[root]))]
            colour[root] = GREY
            while stack:
                node, it = stack[-1]
                advanced = False
                for nxt in it:
                    if colour[nxt] == WHITE:
                        colour[nxt] = GREY
                        parent[nxt] = node
                        stack.append((nxt, iter(succ[nxt])))
                        advanced = True
                        break
                    if colour[nxt] == GREY:
                        cycle = [nxt, node]
                        cur = node
                        while cur != nxt:
                            cur = parent[cur]
                            cycle.append(cur)
                        cycle.reverse()
                        return tuple(nodes[i] for i in cycle[:-1])
                if not advanced:
                    colour[node] = BLACK
                    stack.pop()
        return ()

    def nodes_with_path_to_destination(self) -> FrozenSet[Node]:
        """Nodes that currently have a directed path to the destination."""
        instance = self.instance
        reached = reaching_destination(instance, _predecessor_ids(instance, self._mask))
        return frozenset(u for u, ok in zip(instance.nodes, reached) if ok)

    def nodes_without_path_to_destination(self) -> FrozenSet[Node]:
        """Nodes with no directed path to the destination (the "bad" nodes)."""
        return frozenset(self.instance.nodes) - self.nodes_with_path_to_destination()

    def is_destination_oriented(self) -> bool:
        """Whether every node has a directed path to the destination.

        This is the goal condition of link-reversal routing: the graph is
        *destination oriented* when the only sink is the destination and every
        node can reach it.
        """
        return mask_is_destination_oriented(self.instance, self._mask)

    # ------------------------------------------------------------------
    # hashing / equality (used by the model checker)
    # ------------------------------------------------------------------
    def signature(self) -> int:
        """A canonical, hashable fingerprint of this orientation.

        The reversal bitmask itself: one compact int.  Signatures of
        orientations over the same instance are equal iff the orientations
        are; the model checker dedups on these directly.
        """
        return self._mask

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Orientation):
            return NotImplemented
        if self.instance is other.instance:
            return self._mask == other._mask
        # distinct instance objects: equal iff they orient the same undirected
        # edges the same way, independent of edge declaration order
        return frozenset(self.directed_edges()) == frozenset(other.directed_edges())

    def __hash__(self) -> int:
        return hash(frozenset(self.directed_edges()))

    def __repr__(self) -> str:  # pragma: no cover - repr convenience
        edges = ", ".join(f"{t}->{h}" for t, h in self.directed_edges())
        return f"Orientation({edges})"


def all_orientations(instance: LinkReversalInstance) -> Iterator[Orientation]:
    """Yield every possible orientation of the instance's undirected edges.

    Exponential in ``|E|``; intended for exhaustive testing on tiny graphs.
    Enumerates reversal bitmasks directly, one orientation per mask.
    """
    for mask in range(1 << instance.edge_count):
        yield Orientation(instance, mask)
