"""Shingles: strings summarizing a node's ordered local neighborhood.

A node's shingle starts with its own type symbol. A breadth-first
traversal then expands each reached node's out-edges in arrival order
(which the store keeps in timestamp order), appending each traversed
edge's label (its edge type, then its destination's type), down to a
fixed hop depth or until no node is left to expand. A node reached
several times contributes its type once per traversed edge, but its
out-edges are expanded at most once per traversal. Shingles are always
read from the live store.

Shingles are split into fixed-length chunks, which are the unit actually
counted and hashed. The per-edge delta of a graph is the multiset of
chunks added and removed by one arriving edge. :func:`edge_delta` is the
whole write of one edge: it takes the chunks of the nodes whose shingle
the edge can change (those that reach its source within ``k - 1`` hops,
plus the destination when it is new), inserts the edge, reads them again
and only then evicts, so that a delta holds only what its own edge
changed and eviction never rolls a sketch back.

A :class:`ChunkMemo` keeps the chunk list that :func:`edge_delta` last
computed for each resident node, so the "before" side of a delta is a
lookup; a node without an entry is read from the store. Every entry
equals the node's chunks in the live store: evicting u->v, at the end of
:func:`edge_delta`, clears every node that reaches u within ``k - 1``
hops and v if v is forgotten, and :meth:`ChunkMemo.drop_graph` clears a
dropped graph's nodes.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from typing import Iterable

from .records import EdgeRecord
from .store import GraphStore, NodeKey


def node_shingle(store: GraphStore, node: NodeKey, hops: int) -> str:
    """Build the depth-limited ordered-traversal shingle of a stored node."""
    if hops < 1:
        raise ValueError("hops must be at least 1")
    node_type = store.node_type(node)
    if node_type is None:
        raise KeyError(f"unknown node {node}")
    parts = [node_type]
    expanded: set[NodeKey] = set()
    frontier = [node]
    for _ in range(hops):
        next_frontier = []
        for current in frontier:
            if current in expanded:
                continue
            expanded.add(current)
            for edge in store.out_edges(current):
                parts.append(edge.label)
                next_frontier.append(edge.dest)
        if not next_frontier:
            break
        frontier = next_frontier
    return "".join(parts)


def chunk_shingle(shingle: str, chunk_length: int) -> list[str]:
    """Split into consecutive chunks of ``chunk_length``; the last may be shorter."""
    if chunk_length < 1:
        raise ValueError("chunk_length must be at least 1")
    if not shingle:
        raise ValueError("shingle must not be empty")
    return [shingle[i : i + chunk_length] for i in range(0, len(shingle), chunk_length)]


@dataclass(frozen=True)
class ChunkDelta:
    """Chunks entering and leaving a graph's shingle multiset.

    ``net`` maps every chunk whose count changes to its signed change:
    chunks appearing on both sides with equal multiplicity cancel at
    construction. ``incoming`` and ``outgoing`` are its two sides.
    """

    net: dict[str, int]

    @classmethod
    def cancelled(cls, incoming: Iterable[str], outgoing: Iterable[str]) -> "ChunkDelta":
        net: dict[str, int] = {}
        for chunk in incoming:
            net[chunk] = net.get(chunk, 0) + 1
        for chunk in outgoing:
            net[chunk] = net.get(chunk, 0) - 1
        return cls({c: n for c, n in net.items() if n})

    @property
    def incoming(self) -> Counter:
        return Counter({c: n for c, n in self.net.items() if n > 0})

    @property
    def outgoing(self) -> Counter:
        return Counter({c: -n for c, n in self.net.items() if n < 0})


class ChunkMemo:
    """Last chunk list of each resident node at one hop depth and chunk length."""

    __slots__ = ("hops", "chunk_length", "chunks")

    def __init__(self, hops: int, chunk_length: int):
        if hops < 1:
            raise ValueError("hops must be at least 1")
        if chunk_length < 1:
            raise ValueError("chunk_length must be at least 1")
        self.hops = hops
        self.chunk_length = chunk_length
        self.chunks: dict[NodeKey, list[str]] = {}

    def drop_graph(self, store: GraphStore, graph_id: int) -> None:
        """Drop one graph from ``store`` and forget its nodes' entries."""
        for node in store.drop_graph(graph_id):
            self.chunks.pop(node, None)


def edge_delta(store: GraphStore, rec: EdgeRecord, memo: ChunkMemo) -> ChunkDelta:
    """Write one edge to the store and return the chunk delta it causes.

    A rejected edge changes nothing. For every affected node, the chunks
    before insertion go out (from ``memo``, rebuilt when it has no entry,
    none for brand-new nodes) and the chunks after insertion come in and
    are stored in ``memo``. A path that uses the new edge u->v has already
    passed through u, so the affected set taken before insertion is also
    the set after it. The store then evicts down to its capacity.
    """
    pending = store.prepare_edge(rec)
    edge = pending.edge
    hops, chunk_length, memo_chunks = memo.hops, memo.chunk_length, memo.chunks
    affected = store.reverse_reach(edge.source, hops - 1)
    if not store.has_node(edge.dest):
        affected.add(edge.dest)
    outgoing: list[str] = []
    for node in affected:
        before = memo_chunks.get(node)
        if before is None and store.has_node(node):
            before = chunk_shingle(node_shingle(store, node, hops), chunk_length)
        if before is not None:
            outgoing.extend(before)
    store.insert_prepared(pending)
    incoming: list[str] = []
    for node in affected:
        after = memo_chunks[node] = chunk_shingle(node_shingle(store, node, hops), chunk_length)
        incoming.extend(after)
    # Reach is taken after the whole eviction. A node whose path to an
    # evicted edge's source lost an edge a->b on the way still reaches a
    # within hops - 1, and a->b was evicted too.
    for evicted in store.evict_to_capacity():
        for node in store.reverse_reach(evicted.source, hops - 1):
            memo_chunks.pop(node, None)
        if not store.has_node(evicted.dest):
            memo_chunks.pop(evicted.dest, None)
    return ChunkDelta.cancelled(incoming, outgoing)


def shingle_vector(store: GraphStore, graph_id: int, hops: int, chunk_length: int) -> Counter:
    """Chunk-frequency vector over all of one graph's node shingles.

    The batch counterpart of folding :func:`edge_delta` over the graph's
    edges; unknown graphs yield an empty vector.
    """
    counts: Counter = Counter()
    for node in store.graph_nodes(graph_id):
        counts.update(chunk_shingle(node_shingle(store, node, hops), chunk_length))
    return counts


def exact_cosine(a: Counter, b: Counter) -> float:
    """Cosine similarity of two non-negative count vectors.

    Both zero gives 1.0, exactly one zero gives 0.0. The result is clamped
    to [0, 1] against float round-off.
    """
    if not a and not b:
        return 1.0
    if not a or not b:
        return 0.0
    if len(b) < len(a):
        a, b = b, a
    dot = sum(count * b[chunk] for chunk, count in a.items() if chunk in b)
    sq_a = sum(count * count for count in a.values())
    sq_b = sum(count * count for count in b.values())
    # One sqrt of the exact integer product: identical vectors give 1.0.
    return min(1.0, max(0.0, dot / math.sqrt(sq_a * sq_b)))


def exact_cosine_distance(a: Counter, b: Counter) -> float:
    return 1.0 - exact_cosine(a, b)
