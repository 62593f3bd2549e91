"""Bounded in-memory adjacency over all live graphs.

Nodes are keyed by ``(graph_id, node_id)``. Each node keeps its outgoing
and its incoming edges in arrival order. An edge older than its source's
newest stored out-edge is rejected, so out-lists are in timestamp order
too and inserting only appends.

Each stored edge carries its label: the edge type followed by the
destination's type, the two characters that it adds to a shingle. Labels
are interned, so edges with the same label share one string. A node
stays resident while it holds an edge, and a resident node's type never
changes, so a label never goes stale. Each node also keeps ``l1``, the
labels of its out-edges concatenated in arrival order, which is its
one-hop shingle without its type: inserting an edge appends its label to
its source's ``l1``, and removing one cuts its two characters at the
edge's index in its source's out-list. :attr:`GraphStore.nodes` is a
read-only view of the resident nodes' records.

A node's record keeps the key tuple that the node is stored under, and a
new edge takes its known endpoints' keys from their records instead of
holding two equal tuples of its own. Traced with ``tracemalloc`` on
Python 3.11, a stored edge, node records included, costs about 224 bytes
on the benchmark's training streams, down from 325 with tuples of its own.

:meth:`GraphStore.insert` adds an edge and evicts. ``shingles.edge_delta``
runs the same steps one at a time (:meth:`~GraphStore.prepare_edge`
validates and sequences, :meth:`~GraphStore.insert_prepared` appends,
:meth:`~GraphStore.evict_to_capacity` evicts) to read chunks in between,
while the store holds one edge over its capacity.

Nodes are kept in recency order: inserting an edge moves both endpoints
to the back, the smaller key first. Eviction takes the node at the front,
whose most recent incident edge is oldest (ties broken by node key),
drops that node's oldest incident edge, and repeats until back under
capacity. Nodes left with no incident edges are forgotten entirely,
including their type. :meth:`GraphStore.drop_graph` forgets a whole graph
at once.

The store is single-writer: exactly one stream-processing context may
mutate it, and a prepared edge must be inserted before the next edge is
prepared.
"""

from __future__ import annotations

import sys
from collections import OrderedDict
from dataclasses import dataclass
from types import MappingProxyType
from typing import Mapping

from .records import EdgeRecord

NodeKey = tuple[int, int]  # (graph_id, node_id)


class NodeTypeConflictError(ValueError):
    """A node reappeared with a different type symbol."""

    def __init__(self, node: NodeKey, existing: str, proposed: str):
        super().__init__(
            f"node {node} already has type {existing!r}, edge proposes {proposed!r}"
        )
        self.node = node
        self.existing = existing
        self.proposed = proposed


class OutOfOrderEdgeError(ValueError):
    """An edge is older than its source's newest stored out-edge."""


@dataclass(slots=True, eq=False)
class StoredEdge:
    """A resident edge; ``label`` is its edge type then its destination's type."""

    source: NodeKey
    dest: NodeKey
    label: str
    timestamp: int
    arrival_seq: int


@dataclass(slots=True)
class PendingEdge:
    """An edge validated and sequenced but not yet inserted."""

    edge: StoredEdge
    source_type: str
    dest_type: str


class StoredNode:
    """A resident node: its key, type, out- and in-edges in arrival order, and ``l1``."""

    __slots__ = ("key", "type", "out", "inc", "l1")

    def __init__(self, key: NodeKey, node_type: str):
        self.key = key  # the very tuple that the store and its edges hold
        self.type = node_type
        self.out: list[StoredEdge] = []
        self.inc: list[StoredEdge] = []
        self.l1 = ""  # the labels of ``out``, concatenated


_EMPTY: list[StoredEdge] = []


class GraphStore:
    """Adjacency store with a hard cap on resident edges.

    ``capacity`` of ``None`` disables eviction.
    """

    def __init__(self, capacity: int | None = None):
        if capacity is not None and capacity < 1:
            raise ValueError("capacity must be positive or None")
        self.capacity = capacity
        self.total_edges = 0
        self.peak_edges = 0
        # Least recently used first.
        self._nodes: OrderedDict[NodeKey, StoredNode] = OrderedDict()
        # Live and read-only; callers must not mutate the records either.
        self.nodes: Mapping[NodeKey, StoredNode] = MappingProxyType(self._nodes)
        self._graphs: dict[int, set[NodeKey]] = {}
        self._seq = 0

    # -- queries ---------------------------------------------------------

    def __len__(self) -> int:
        return self.total_edges

    def has_node(self, node: NodeKey) -> bool:
        return node in self._nodes

    def node_type(self, node: NodeKey) -> str | None:
        entry = self._nodes.get(node)
        return entry.type if entry is not None else None

    def out_edges(self, node: NodeKey) -> list[StoredEdge]:
        """Outgoing edges in arrival order, which is also timestamp order.

        Returns the live internal list for speed; callers must not mutate
        it. Unknown nodes yield an empty list.
        """
        entry = self._nodes.get(node)
        return entry.out if entry is not None else _EMPTY

    def in_edges(self, node: NodeKey) -> list[StoredEdge]:
        entry = self._nodes.get(node)
        return entry.inc if entry is not None else _EMPTY

    def graph_ids(self) -> list[int]:
        return sorted(self._graphs)

    def graph_nodes(self, graph_id: int) -> list[NodeKey]:
        return sorted(self._graphs.get(graph_id, ()))

    def reverse_reach(self, node: NodeKey, depth: int) -> set[NodeKey]:
        """All nodes with a directed path to ``node`` of length <= depth.

        Always contains ``node`` itself, whether or not it is stored.
        """
        if depth < 0:
            raise ValueError("depth must be non-negative")
        seen = {node}
        frontier = [node]
        for _ in range(depth):
            next_frontier = []
            for current in frontier:
                for edge in self.in_edges(current):
                    if edge.source not in seen:
                        seen.add(edge.source)
                        next_frontier.append(edge.source)
            if not next_frontier:
                break
            frontier = next_frontier
        return seen

    # -- mutation --------------------------------------------------------

    def prepare_edge(self, rec: EdgeRecord) -> PendingEdge:
        """Validate node types and the timestamp; assign the next arrival sequence.

        Does not mutate adjacency; the returned edge must be passed to
        :meth:`insert_prepared` before any further edge is prepared.
        """
        nodes = self._nodes
        source: NodeKey = (rec.graph_id, rec.source_id)
        loop = rec.dest_id == rec.source_id
        if loop and rec.source_type != rec.dest_type:
            raise NodeTypeConflictError(source, rec.source_type, rec.dest_type)
        out = _EMPTY
        entry = nodes.get(source)
        if entry is not None:
            if entry.type != rec.source_type:
                raise NodeTypeConflictError(source, entry.type, rec.source_type)
            source = entry.key  # share the stored key, not an equal new tuple
            out = entry.out
        if loop:
            dest = source
        else:
            dest = (rec.graph_id, rec.dest_id)
            entry = nodes.get(dest)
            if entry is not None:
                if entry.type != rec.dest_type:
                    raise NodeTypeConflictError(dest, entry.type, rec.dest_type)
                dest = entry.key
        if out and rec.timestamp < out[-1].timestamp:
            raise OutOfOrderEdgeError(
                f"node {source} has an out-edge at timestamp {out[-1].timestamp}, "
                f"edge proposes {rec.timestamp}"
            )
        label = sys.intern(rec.edge_type + rec.dest_type)
        edge = StoredEdge(source, dest, label, rec.timestamp, self._seq + 1)
        return PendingEdge(edge, rec.source_type, rec.dest_type)

    def insert(self, rec: EdgeRecord) -> list[StoredEdge]:
        """Prepare, insert and evict in one call; returns the evicted edges."""
        self.insert_prepared(self.prepare_edge(rec))
        return self.evict_to_capacity()

    def insert_prepared(self, pending: PendingEdge) -> None:
        """Append a prepared edge without evicting.

        The store may then hold one edge over its capacity until
        :meth:`evict_to_capacity` runs.
        """
        edge = pending.edge
        if edge.arrival_seq != self._seq + 1:
            raise RuntimeError("stale prepared edge; prepare and insert must alternate")
        self._seq += 1

        source = self._register(edge.source, pending.source_type)
        source.out.append(edge)
        source.l1 += edge.label
        self._register(edge.dest, pending.dest_type).inc.append(edge)
        self.total_edges += 1

        first, second = edge.source, edge.dest
        if second < first:
            first, second = second, first
        self._nodes.move_to_end(first)
        self._nodes.move_to_end(second)

    def evict_to_capacity(self) -> list[StoredEdge]:
        """Evict until the resident edge count is within capacity.

        Returns the evicted edges in eviction order. ``peak_edges`` is
        updated here, after evicting, so it never counts the transient
        edge over capacity.
        """
        evicted: list[StoredEdge] = []
        if self.capacity is not None:
            while self.total_edges > self.capacity:
                evicted.append(self._evict_one())
        if self.total_edges > self.peak_edges:
            self.peak_edges = self.total_edges
        return evicted

    def drop_graph(self, graph_id: int) -> set[NodeKey]:
        """Forget every node and edge of one graph; returns the forgotten nodes.

        Edges never cross graphs, so no other graph's node changes.
        """
        nodes = self._graphs.pop(graph_id, set())
        for node in nodes:
            self.total_edges -= len(self._nodes.pop(node).out)
        return nodes

    def _register(self, node: NodeKey, node_type: str) -> StoredNode:
        entry = self._nodes.get(node)
        if entry is None:
            # prepare_edge already rejected type conflicts.
            entry = self._nodes[node] = StoredNode(node, node_type)
            self._graphs.setdefault(node[0], set()).add(node)
        return entry

    def _evict_one(self) -> StoredEdge:
        # Every stored node holds an edge, and both lists are in arrival
        # order, so the oldest is the first of one of them.
        entry = next(iter(self._nodes.values()))
        out, inc = entry.out, entry.inc
        victim = out[0] if out and (not inc or out[0].arrival_seq < inc[0].arrival_seq) else inc[0]
        self._remove_edge(victim)
        return victim

    def _remove_edge(self, edge: StoredEdge) -> None:
        # The victim may be the front node's inc[0], which need not be
        # the first out-edge of its source.
        source = self._nodes[edge.source]
        index = source.out.index(edge)
        del source.out[index]
        source.l1 = source.l1[: 2 * index] + source.l1[2 * index + 2 :]
        dest = self._nodes[edge.dest]
        dest.inc.remove(edge)
        self.total_edges -= 1
        self._forget_if_bare(source)
        if dest is not source:
            self._forget_if_bare(dest)

    def _forget_if_bare(self, entry: StoredNode) -> None:
        if not entry.out and not entry.inc:
            node = entry.key
            del self._nodes[node]
            graph = self._graphs[node[0]]
            graph.discard(node)
            if not graph:
                del self._graphs[node[0]]
