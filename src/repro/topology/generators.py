"""Deterministic and random topology generators.

Every generator returns a :class:`~repro.core.graph.LinkReversalInstance`
whose initial orientation is a DAG, as the paper's system model requires.
The families implemented here are the ones the experiment suite sweeps:

* ``chain_instance`` — a path ``D - v_1 - ... - v_n``; with all edges
  initially pointing *away* from the destination this is the classical
  worst-case family for total reversal work (``worst_case_chain_instance``);
* ``star_instance`` — destination in the centre or at a leaf;
* ``tree_instance`` — a random tree, edges oriented towards or away from the
  destination;
* ``grid_instance`` — a 2-D mesh with a corner destination;
* ``layered_instance`` — a layered DAG (each node connects to random nodes of
  the next layer), resembling the topologies used in the link-reversal
  literature's examples;
* ``random_dag_instance`` — an Erdős–Rényi-style random DAG.
"""

from __future__ import annotations

import random
from typing import Hashable, List, Optional, Sequence, Tuple

from repro.core.graph import LinkReversalInstance

Node = Hashable

#: The named topology families swept by the CLI and the experiment campaigns.
FAMILY_NAMES = (
    "chain",
    "oriented-chain",
    "star",
    "tree",
    "grid",
    "layered",
    "random-dag",
    "geometric",
)

#: Families whose :func:`build_family` output ignores the seed — every
#: replicate of a ``(family, size)`` cell is the *same* instance.  The
#: compiled engine keys its instance/kernel cache on this, sharing one compiled
#: kernel across all replicate lanes; keep this set in sync with the
#: dispatch below (a family belongs here iff its branch never reads ``seed``).
SEEDLESS_FAMILIES = frozenset({"chain", "oriented-chain", "star", "grid"})


def build_family(name: str, size: int, seed: int) -> LinkReversalInstance:
    """Build one of the named topology families at the requested size.

    This is the single entry point behind both the CLI's ``--topology`` flag
    and the experiment campaigns' ``family`` axis, so every layer agrees on
    what e.g. ``"chain"`` at ``size=20`` means.  Deterministic: the same
    ``(name, size, seed)`` triple always yields an identical instance.
    """
    if name == "chain":
        return worst_case_chain_instance(max(1, size - 1))
    if name == "oriented-chain":
        return chain_instance(size, towards_destination=True)
    if name == "star":
        return star_instance(max(1, size - 1), destination_is_center=True)
    if name == "tree":
        return tree_instance(size, seed=seed)
    if name == "grid":
        side = max(2, int(round(size ** 0.5)))
        return grid_instance(side, side, oriented_towards_destination=False)
    if name == "layered":
        width = max(1, size // 4)
        return layered_instance(4, width, seed=seed)
    if name == "random-dag":
        return random_dag_instance(size, edge_probability=min(0.5, 6.0 / size), seed=seed)
    if name == "geometric":
        from repro.topology.manet import random_geometric_instance

        instance, _ = random_geometric_instance(size, radius=0.4, seed=seed)
        return instance
    raise ValueError(f"unknown topology {name!r}")


def chain_instance(
    num_nodes: int,
    towards_destination: bool = True,
    destination_at_end: bool = True,
) -> LinkReversalInstance:
    """A path on ``num_nodes`` nodes with the destination at one end.

    Parameters
    ----------
    num_nodes:
        Total number of nodes, including the destination (must be >= 2).
    towards_destination:
        When ``True`` every edge initially points towards the destination (the
        graph starts destination oriented, no work to do).  When ``False``
        every edge points away from it, which makes every non-destination node
        initially "bad" — the worst-case family of Busch & Tirthapura.
    destination_at_end:
        When ``True`` the destination is node 0 of the path; otherwise it is
        placed in the middle.
    """
    if num_nodes < 2:
        raise ValueError("a chain needs at least 2 nodes")
    nodes = tuple(range(num_nodes))
    destination = 0 if destination_at_end else num_nodes // 2
    edges: List[Tuple[Node, Node]] = []
    for left in range(num_nodes - 1):
        right = left + 1
        # orient each path edge relative to the destination's position
        if abs(left - destination) < abs(right - destination):
            closer, farther = left, right
        else:
            closer, farther = right, left
        if towards_destination:
            edges.append((farther, closer))
        else:
            edges.append((closer, farther))
    return LinkReversalInstance(nodes, destination, tuple(edges))


def worst_case_chain_instance(num_bad_nodes: int) -> LinkReversalInstance:
    """The canonical Θ(n_b²) worst-case chain.

    ``num_bad_nodes`` non-destination nodes sit on a path with every edge
    initially directed *away* from the destination, so none of them has a path
    to it and reversal waves must sweep back and forth across the whole chain.
    """
    if num_bad_nodes < 1:
        raise ValueError("need at least one bad node")
    return chain_instance(num_bad_nodes + 1, towards_destination=False)


def star_instance(num_leaves: int, destination_is_center: bool = True) -> LinkReversalInstance:
    """A star with ``num_leaves`` leaves.

    With the destination at the centre and edges pointing outwards, every leaf
    is initially a sink and must take exactly one (or two, for NewPR's dummy
    step) steps — a best-case family.
    """
    if num_leaves < 1:
        raise ValueError("a star needs at least one leaf")
    center = 0
    leaves = tuple(range(1, num_leaves + 1))
    nodes = (center,) + leaves
    destination = center if destination_is_center else leaves[0]
    edges = []
    for leaf in leaves:
        if destination_is_center:
            edges.append((center, leaf))  # point away from the destination: leaves are bad
        else:
            edges.append((leaf, center))
    return LinkReversalInstance(nodes, destination, tuple(edges))


def tree_instance(
    num_nodes: int,
    seed: int = 0,
    oriented_towards_destination: bool = False,
) -> LinkReversalInstance:
    """A random tree rooted at the destination (node 0).

    Each non-root node attaches to a uniformly random earlier node.  Edges are
    oriented away from the root by default (all nodes bad) or towards it.
    """
    if num_nodes < 2:
        raise ValueError("a tree needs at least 2 nodes")
    rng = random.Random(seed)
    nodes = tuple(range(num_nodes))
    destination = 0
    edges: List[Tuple[Node, Node]] = []
    for child in range(1, num_nodes):
        parent = rng.randrange(0, child)
        if oriented_towards_destination:
            edges.append((child, parent))
        else:
            edges.append((parent, child))
    return LinkReversalInstance(nodes, destination, tuple(edges))


def grid_instance(
    rows: int,
    cols: int,
    oriented_towards_destination: bool = False,
) -> LinkReversalInstance:
    """A ``rows × cols`` mesh with the destination at the top-left corner.

    Edges connect horizontal and vertical neighbours; each edge is oriented
    towards the corner (destination oriented) or away from it.
    """
    if rows < 1 or cols < 1:
        raise ValueError("grid dimensions must be positive")
    if rows * cols < 2:
        raise ValueError("a grid needs at least 2 nodes")

    def node_id(r: int, c: int) -> int:
        return r * cols + c

    nodes = tuple(range(rows * cols))
    destination = node_id(0, 0)
    edges: List[Tuple[Node, Node]] = []
    for r in range(rows):
        for c in range(cols):
            here = node_id(r, c)
            if c + 1 < cols:
                right = node_id(r, c + 1)
                edges.append((right, here) if oriented_towards_destination else (here, right))
            if r + 1 < rows:
                below = node_id(r + 1, c)
                edges.append((below, here) if oriented_towards_destination else (here, below))
    return LinkReversalInstance(nodes, destination, tuple(edges))


def layered_instance(
    layers: int,
    width: int,
    seed: int = 0,
    edges_per_node: int = 2,
) -> LinkReversalInstance:
    """A layered DAG: the destination alone in layer 0, ``width`` nodes per later layer.

    Every node in layer ``i`` (``i >= 1``) receives ``edges_per_node`` edges
    from distinct random nodes of layer ``i - 1``, oriented away from the
    destination (so deeper layers are initially bad).
    """
    if layers < 2:
        raise ValueError("need at least 2 layers")
    if width < 1:
        raise ValueError("width must be positive")
    rng = random.Random(seed)
    destination = 0
    nodes: List[Node] = [destination]
    layer_nodes: List[List[Node]] = [[destination]]
    next_id = 1
    for _ in range(1, layers):
        layer = list(range(next_id, next_id + width))
        next_id += width
        nodes.extend(layer)
        layer_nodes.append(layer)

    edges: List[Tuple[Node, Node]] = []
    for depth in range(1, layers):
        previous = layer_nodes[depth - 1]
        for node in layer_nodes[depth]:
            fan_in = min(edges_per_node, len(previous))
            parents = rng.sample(previous, fan_in)
            for parent in parents:
                edges.append((parent, node))
    return LinkReversalInstance(tuple(nodes), destination, tuple(edges))


def random_dag_instance(
    num_nodes: int,
    edge_probability: float = 0.3,
    seed: int = 0,
    require_connected: bool = True,
    orient_fraction_towards_destination: float = 0.0,
) -> LinkReversalInstance:
    """A seeded Erdős–Rényi-style random DAG.

    Nodes are placed on a fixed topological order (node 0, the destination,
    first); each forward pair becomes an edge with probability
    ``edge_probability``.  A fraction of the edges incident to the destination
    side can be pre-oriented towards it via
    ``orient_fraction_towards_destination`` — with the default 0.0 every edge
    points away from node 0 along the order, maximising the initial bad set.

    When ``require_connected`` is set, extra path edges are added along the
    order until the underlying undirected graph is connected (keeping the
    orientation acyclic).
    """
    if num_nodes < 2:
        raise ValueError("need at least 2 nodes")
    if not 0.0 <= edge_probability <= 1.0:
        raise ValueError("edge_probability must be in [0, 1]")
    if not 0.0 <= orient_fraction_towards_destination <= 1.0:
        raise ValueError("orient_fraction_towards_destination must be in [0, 1]")

    rng = random.Random(seed)
    nodes = tuple(range(num_nodes))
    destination = 0
    chosen: List[Tuple[Node, Node]] = []
    for u in range(num_nodes):
        for v in range(u + 1, num_nodes):
            if rng.random() < edge_probability:
                chosen.append((u, v))

    if require_connected:
        # ensure connectivity by adding consecutive path edges where needed
        adjacency = {u: set() for u in nodes}
        for u, v in chosen:
            adjacency[u].add(v)
            adjacency[v].add(u)
        for u in range(num_nodes - 1):
            # connect u+1 to the prefix if it is isolated from it
            if not any(w <= u for w in adjacency[u + 1]):
                chosen.append((u, u + 1))
                adjacency[u].add(u + 1)
                adjacency[u + 1].add(u)

    edges: List[Tuple[Node, Node]] = []
    for u, v in chosen:
        # (u, v) points away from the destination along the order; optionally
        # flip a fraction of the edges whose lower endpoint is the destination
        # region so parts of the graph start destination oriented.
        if rng.random() < orient_fraction_towards_destination:
            edges.append((v, u))
        else:
            edges.append((u, v))

    instance = LinkReversalInstance(nodes, destination, tuple(edges))
    if not instance.is_initially_acyclic():
        # flipping edges can only create cycles if the flip set is non-trivial;
        # regenerate deterministically without flips in that case.
        edges = [(u, v) for u, v in chosen]
        instance = LinkReversalInstance(nodes, destination, tuple(edges))
    return instance
