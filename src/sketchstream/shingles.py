"""Shingles: strings summarizing a node's ordered local neighborhood.

A node's shingle starts with its own type symbol. A breadth-first
traversal then expands each reached node's out-edges in
``(timestamp, arrival_seq)`` order, appending the edge type and the
destination type for every edge traversed, down to a fixed hop depth.
A node reached several times contributes its type once per traversed
edge, but its out-edges are expanded at most once per traversal.
Shingles are always read from the live store.

Shingles are split into fixed-length chunks, which are the unit actually
counted and hashed. The per-edge delta of a graph is the multiset of
chunks added and removed by one arriving edge. :func:`edge_delta` takes
the nodes whose shingle the edge can change (those that reach its source
within ``k - 1`` hops, plus the destination when it is new), reads their
shingles, inserts the edge, reads them again and cancels the two sides.
It does not evict: the caller evicts afterwards, so that a delta holds
only what its own edge changed and eviction never rolls a sketch back.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from typing import Iterable

from .store import GraphStore, NodeKey, PendingEdge


def node_shingle(store: GraphStore, node: NodeKey, hops: int) -> str:
    """Build the depth-limited ordered-traversal shingle of a stored node."""
    if hops < 1:
        raise ValueError("hops must be at least 1")
    type_of = store.node_type
    node_type = type_of(node)
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
                parts.append(edge.edge_type)
                parts.append(type_of(edge.dest))
                next_frontier.append(edge.dest)
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

    The two sides are disjoint: chunks appearing on both with equal
    multiplicity cancel at construction.
    """

    incoming: Counter
    outgoing: Counter

    @classmethod
    def cancelled(cls, incoming: Iterable[str], outgoing: Iterable[str]) -> "ChunkDelta":
        net: dict[str, int] = {}
        for chunk in incoming:
            net[chunk] = net.get(chunk, 0) + 1
        for chunk in outgoing:
            net[chunk] = net.get(chunk, 0) - 1
        plus = Counter({c: n for c, n in net.items() if n > 0})
        minus = Counter({c: -n for c, n in net.items() if n < 0})
        return cls(plus, minus)


def edge_delta(store: GraphStore, pending: PendingEdge, hops: int, chunk_length: int) -> ChunkDelta:
    """Insert ``pending`` into the store and return the chunk delta it causes.

    For every affected node, the shingle before insertion (omitted for
    brand-new nodes) goes out and the shingle after insertion comes in;
    both sides are chunked and cancelled. A path that uses the new edge
    u->v has already passed through u, so the edge lets no new node reach
    u: the affected set taken before insertion is also the set after it.
    The store is left holding the edge but not evicted; eviction must
    follow the delta, never precede it.
    """
    edge = pending.edge
    affected = store.reverse_reach(edge.source, hops - 1)
    if not store.has_node(edge.dest):
        affected.add(edge.dest)
    outgoing: list[str] = []
    for node in affected:
        if store.has_node(node):
            outgoing.extend(chunk_shingle(node_shingle(store, node, hops), chunk_length))
    store.insert_prepared(pending)
    incoming: list[str] = []
    for node in affected:
        incoming.extend(chunk_shingle(node_shingle(store, node, hops), chunk_length))
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
