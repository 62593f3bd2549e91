"""Shingles: strings summarizing a node's ordered local neighborhood.

A node's shingle starts with its own type symbol. A breadth-first
traversal then expands each reached node's out-edges in arrival order
(which the store keeps in timestamp order), appending each traversed
edge's label (its edge type, then its destination's type), down to a
fixed hop depth or until no node is left to expand. A node reached
several times contributes its type once per traversed edge, but its
out-edges are expanded at most once per traversal. Expanding a node
appends its L1 string, the labels of its out-edges that the store keeps
concatenated, so a shingle is the node's type followed by the L1 strings
of the expanded nodes in breadth-first order. Shingles are always read
from the live store.

Shingles are split into fixed-length chunks, which are the unit actually
counted and hashed. The per-edge delta of a graph is the multiset of
chunks added and removed by one arriving edge. :func:`edge_delta` is the
whole write of one edge: it inserts the edge, takes the chunks of the
nodes whose shingle the edge changed (those that reach its source within
``k - 1`` hops, plus the destination when it is new) and only then
evicts, so that a delta holds only what its own edge changed and
eviction never rolls a sketch back.

At one and two hops, an edge u->v changes a shingle only by appending
its label to L1(u) and, at two hops when v is a new destination of u, by
appending L1(v) to u's own shingle. :func:`edge_delta` therefore builds
each affected node's new shingle once and gets the old one by cutting
those characters out again. Chunks that end before the cut are the same
on both sides, so only the chunks from there on are emitted. At three or
more hops the new edge can reorder a traversal, so the old and the new
shingles are both read from the store.

The splice stays for speed: reading both sides from the store at one and
two hops too, and emitting from the first chunk that differs, gave equal
deltas but cut the benchmark's stream rate by 3–15% on both workloads.
"""

from __future__ import annotations

import math
from collections import Counter
from operator import attrgetter
from typing import Iterable, Mapping, NamedTuple

from .records import EdgeRecord
from .store import GraphStore, NodeKey, PendingEdge, StoredNode

_DEST = attrgetter("dest")
_SOURCE = attrgetter("source")
_L1 = attrgetter("l1")


def node_shingle(store: GraphStore, node: NodeKey, hops: int) -> str:
    """Build the depth-limited ordered-traversal shingle of a stored node."""
    if hops < 1:
        raise ValueError("hops must be at least 1")
    nodes = store.nodes
    entry = nodes.get(node)
    if entry is None:
        raise KeyError(f"unknown node {node}")
    parts = [entry.type, entry.l1]
    expanded = {node}
    frontier = [entry]
    for _ in range(hops - 1):
        next_frontier = []
        for current in frontier:
            for edge in current.out:
                dest = edge.dest
                if dest not in expanded:
                    expanded.add(dest)
                    reached = nodes[dest]
                    parts.append(reached.l1)
                    next_frontier.append(reached)
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


class ChunkDelta(NamedTuple):
    """Chunks entering and leaving a graph's shingle multiset.

    ``net`` maps every chunk whose count changes to its signed change:
    chunks appearing on both sides with equal multiplicity cancel at
    construction. ``incoming`` and ``outgoing`` are its two sides. A
    named tuple, like :class:`EdgeRecord`, since one is built per edge.
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


def edge_delta(store: GraphStore, rec: EdgeRecord, hops: int, chunk_length: int) -> ChunkDelta:
    """Write one edge to the store and return the chunk delta it causes.

    A rejected edge changes nothing. For every affected node, the chunks
    of its shingle before insertion go out (none for brand-new nodes) and
    the chunks after insertion come in. A path that uses the new edge
    u->v has already passed through u, so the affected set taken before
    insertion is also the set after it. The store then evicts down to its
    capacity.
    """
    if hops < 1 or chunk_length < 1:
        raise ValueError("hops and chunk_length must be at least 1")
    pending = store.prepare_edge(rec)
    if hops <= 2:
        sides = _spliced_sides(store, pending, hops, chunk_length)
    else:
        sides = _traversed_sides(store, pending, hops)
    store.evict_to_capacity()
    net: dict[str, int] = {}
    get = net.get
    for text, offset, sign in sides:
        for i in range(offset, len(text), chunk_length):
            chunk = text[i : i + chunk_length]
            net[chunk] = get(chunk, 0) + sign
    if 0 in net.values():  # a chunk that left and came back
        net = {chunk: n for chunk, n in net.items() if n}
    return ChunkDelta(net)


# (text, offset, sign): the chunks of text[offset:] enter (+1) or leave (-1)
_Side = tuple[str, int, int]


def _spliced_sides(
    store: GraphStore, pending: PendingEdge, hops: int, length: int
) -> list[_Side]:
    """Insert the edge; return the shingle text entering and leaving at one or two hops.

    Each affected node that existed before the edge gives ``(S', cut,
    tail)``: its new shingle, the offset of the new label in it (the end
    of L1(u) less 2) and, for u at two hops, the length of L1(v) when v
    has just become a new destination of u, else 0. The old shingle is
    S' without the label at ``cut`` and without its last ``tail``
    characters. Both sides start at the chunk boundary at or before
    ``cut``, since the chunks before it are the same on both.
    """
    nodes = store.nodes
    edge = pending.edge
    u, v = edge.source, edge.dest
    u_known, v_new = u in nodes, v not in nodes
    if hops == 2:
        # L1(u) is the only L1 string that the edge changes, and u's own
        # second hop leaves u out.
        second = _second_hop(nodes, u) if u_known else {}
        grows = v != u and v not in second
        if grows:
            second[v] = None
    store.insert_prepared(pending)
    source = nodes[u]

    spliced: list[tuple[str, int, int]] = []
    cut = len(source.l1) - 1
    if hops == 1:
        after, tail = source.type + source.l1, 0
    else:
        l1s = list(map(_L1, map(nodes.__getitem__, second)))
        after = source.type + source.l1 + "".join(l1s)
        tail = len(l1s[-1]) if grows else 0
        for writer in dict.fromkeys(map(_SOURCE, source.inc)):
            if writer != u:
                dests = _second_hop(nodes, writer)
                l1s = list(map(_L1, map(nodes.__getitem__, dests)))
                entry = nodes[writer]
                head = entry.type + entry.l1
                # L1(u), which ends with the new label, is the last string summed.
                writer_cut = len(head) + sum(map(len, l1s[: list(dests).index(u) + 1])) - 2
                spliced.append((head + "".join(l1s), writer_cut, 0))

    sides: list[_Side] = []
    if u_known:
        spliced.append((after, cut, tail))
    else:
        sides.append((after, 0, 1))
    if v_new and v != u:
        sides.append((pending.dest_type, 0, 1))
    for after, cut, tail in spliced:
        start = cut - cut % length
        sides.append((after, start, 1))
        sides.append((after[start:cut] + after[cut + 2 : len(after) - tail], 0, -1))
    return sides


def _second_hop(nodes: Mapping[NodeKey, StoredNode], node: NodeKey) -> dict[NodeKey, None]:
    """The nodes that a two-hop traversal from ``node`` expands after it, in order."""
    second = dict.fromkeys(map(_DEST, nodes[node].out))
    second.pop(node, None)
    return second


def _traversed_sides(store: GraphStore, pending: PendingEdge, hops: int) -> list[_Side]:
    """Insert the edge; return the affected shingles, read from the store around it."""
    edge = pending.edge
    affected = store.reverse_reach(edge.source, hops - 1)
    if not store.has_node(edge.dest):
        affected.add(edge.dest)
    sides = [(node_shingle(store, node, hops), 0, -1) for node in affected if store.has_node(node)]
    store.insert_prepared(pending)
    sides += [(node_shingle(store, node, hops), 0, 1) for node in affected]
    return sides


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
    return _cosine(_dot(a, b), _squared_norm(a), _squared_norm(b))


def exact_cosine_distance(a: Counter, b: Counter) -> float:
    return 1.0 - exact_cosine(a, b)


def _squared_norm(vector: Counter) -> int:
    return sum(count * count for count in vector.values())


def _dot(a: Counter, b: Counter) -> int:
    return sum(a[chunk] * b[chunk] for chunk in a.keys() & b.keys())


def _cosine(dot: int, sq_a: int, sq_b: int) -> float:
    """The cosine rule of :func:`exact_cosine` on exact integer products."""
    if not sq_a or not sq_b:
        return 1.0 if sq_a == sq_b else 0.0
    # One sqrt of the exact integer product: identical vectors give 1.0.
    return min(1.0, max(0.0, dot / math.sqrt(sq_a * sq_b)))
