from collections import Counter

import pytest
from hypothesis import given
from hypothesis import strategies as st

from sketchstream import (
    ChunkMemo,
    GeneratorConfig,
    GraphStore,
    OutOfOrderEdgeError,
    chunk_shingle,
    edge_delta,
    exact_cosine,
    generate_stream,
    node_shingle,
    shingle_vector,
)
from sketchstream.shingles import ChunkDelta

from conftest import edge, build_store


def reference_shingle(store, start, hops):
    """Independent traversal: explicit frontier lists instead of a queue."""
    parts = [store.node_type(start)]
    frontier = [start]
    expanded = set()
    for _ in range(hops):
        next_frontier = []
        for node in frontier:
            if node in expanded:
                continue
            expanded.add(node)
            for e in sorted(store.out_edges(node), key=lambda e: (e.timestamp, e.arrival_seq)):
                parts.append(e.edge_type)
                parts.append(store.node_type(e.dest))
                next_frontier.append(e.dest)
        frontier = next_frontier
    return "".join(parts)


def test_isolated_node_shingle_is_its_type():
    # node 1 only receives an edge, so it has nothing to traverse
    store = build_store([edge(2, "b", 1, "a", 1)])
    assert node_shingle(store, (0, 1), 1) == "a"


def test_one_hop_shingle_orders_edges_by_timestamp():
    store = build_store(
        [edge(1, "a", 2, "b", 1, "x"), edge(1, "a", 3, "c", 2, "y")]
    )
    assert node_shingle(store, (0, 1), 1) == "axbyc"


def test_two_hop_shingle_expands_frontier_in_order():
    store = build_store(
        [
            edge(1, "a", 2, "b", 1, "x"),
            edge(1, "a", 3, "c", 2, "y"),
            edge(2, "b", 4, "d", 3, "z"),
        ]
    )
    assert node_shingle(store, (0, 1), 2) == "axbyczd"
    assert node_shingle(store, (0, 1), 2) == reference_shingle(store, (0, 1), 2)


def test_revisited_nodes_contribute_per_edge_but_expand_once():
    # b is reached twice; both traversed edges append "...b", yet b's own
    # out-edge is expanded only once.
    store = build_store(
        [
            edge(1, "a", 2, "b", 1, "x"),
            edge(1, "a", 3, "c", 2, "y"),
            edge(3, "c", 2, "b", 3, "w"),
            edge(2, "b", 4, "d", 4, "z"),
        ]
    )
    assert node_shingle(store, (0, 1), 3) == "axbyczdwb"
    assert node_shingle(store, (0, 1), 3) == reference_shingle(store, (0, 1), 3)


def test_shingle_stops_when_no_node_is_left_to_expand():
    store = build_store([edge(1, "a", 2, "b", 1, "x")])
    one_hop = node_shingle(store, (0, 1), 1)
    assert node_shingle(store, (0, 1), 10**9) == one_hop == "axb"


def test_shingle_against_reference_on_random_graphs(rng):
    def type_of(node_id):
        return "s" if node_id % 2 else "t"

    for trial in range(20):
        records = []
        for timestamp in range(1, 31):
            u = int(rng.integers(0, 10))
            v = int(rng.integers(0, 10))
            records.append(
                edge(u, type_of(u), v, type_of(v), timestamp, "eE"[v % 2])
            )
        store = build_store(records)
        hops = 1 + trial % 4
        for g in store.graph_ids():
            for v in store.graph_nodes(g):
                assert node_shingle(store, v, hops) == reference_shingle(store, v, hops)


@pytest.mark.parametrize(
    "shingle,length,expected",
    [
        ("axbyc", 2, ["ax", "by", "c"]),
        ("axbyc", 10, ["axbyc"]),
        ("axbyc", 1, ["a", "x", "b", "y", "c"]),
    ],
)
def test_chunking(shingle, length, expected):
    assert chunk_shingle(shingle, length) == expected


@given(st.text(alphabet="abcxyz", min_size=1, max_size=80), st.integers(1, 20))
def test_chunks_reassemble_the_shingle(shingle, length):
    chunks = chunk_shingle(shingle, length)
    assert "".join(chunks) == shingle
    assert all(1 <= len(c) <= length for c in chunks)
    assert all(len(c) == length for c in chunks[:-1])


def test_chunking_rejects_bad_inputs():
    with pytest.raises(ValueError):
        chunk_shingle("", 3)
    with pytest.raises(ValueError):
        chunk_shingle("abc", 0)


def test_delta_on_empty_graph():
    store = GraphStore()
    delta = edge_delta(store, edge(1, "a", 2, "b", 1, "x"), ChunkMemo(1, 10))
    assert delta.incoming == Counter({"axb": 1, "b": 1})
    assert delta.outgoing == Counter()


def test_delta_for_second_edge():
    store = build_store([edge(1, "a", 2, "b", 1, "x")])
    delta = edge_delta(store, edge(1, "a", 3, "c", 2, "y"), ChunkMemo(1, 10))
    assert delta.outgoing == Counter({"axb": 1})
    assert delta.incoming == Counter({"axbyc": 1, "c": 1})


def test_rejected_edge_changes_neither_store_nor_memo():
    store = GraphStore()
    memo = ChunkMemo(2, 3)
    edge_delta(store, edge(1, "a", 2, "b", 5, "x"), memo)
    chunks = {node: list(c) for node, c in memo.chunks.items()}
    with pytest.raises(OutOfOrderEdgeError):
        edge_delta(store, edge(1, "a", 3, "c", 4, "y"), memo)
    assert store.total_edges == 1 and not store.has_node((0, 3))
    assert memo.chunks == chunks


def test_delta_cancellation_with_short_chunks():
    store = build_store([edge(1, "a", 2, "b", 1, "x")])
    delta = edge_delta(store, edge(1, "a", 3, "c", 2, "y"), ChunkMemo(1, 2))
    # raw outgoing {ax, b}, raw incoming {ax, by, c, c}; "ax" cancels
    assert delta.outgoing == Counter({"b": 1})
    assert delta.incoming == Counter({"by": 1, "c": 2})


def test_delta_sides_are_disjoint_after_cancellation():
    delta = ChunkDelta.cancelled(["q", "q", "r"], ["q", "s"])
    assert delta.incoming == Counter({"q": 1, "r": 1})
    assert delta.outgoing == Counter({"s": 1})
    assert not (set(delta.incoming) & set(delta.outgoing))


def _delta_matches_batch_difference(records, hops, length):
    """The stated oracle: delta == vector(after) - vector(before)."""
    store = GraphStore()
    memo = ChunkMemo(hops, length)
    for rec in records:
        before = shingle_vector(store, rec.graph_id, hops, length)
        delta = edge_delta(store, rec, memo)
        after = shingle_vector(store, rec.graph_id, hops, length)
        gained = after.copy()
        gained.subtract(before)
        expected_in = Counter({c: n for c, n in gained.items() if n > 0})
        expected_out = Counter({c: -n for c, n in gained.items() if n < 0})
        assert delta.incoming == expected_in
        assert delta.outgoing == expected_out


def test_delta_equals_batch_difference_on_spec_cases():
    _delta_matches_batch_difference(
        [edge(1, "a", 2, "b", 1, "x"), edge(1, "a", 3, "c", 2, "y")], 1, 10
    )
    _delta_matches_batch_difference(
        [edge(1, "a", 2, "b", 1, "x"), edge(1, "a", 3, "c", 2, "y")], 1, 2
    )
    # self loop on a brand-new node
    _delta_matches_batch_difference([edge(5, "q", 5, "q", 1, "z")], 1, 4)


@pytest.mark.parametrize("hops,length", [(1, 4), (2, 3), (3, 7)])
def test_delta_equals_batch_difference_on_generated_streams(hops, length):
    config = GeneratorConfig(
        num_behavior_classes=2,
        graphs_per_class=2,
        anomaly_fraction=0.2,
        avg_nodes=10,
        avg_edges=30,
        interleave_width=2,
        separation=0.8,
        seed=hops * 10 + length,
    )
    records = [rec for rec, _ in generate_stream(config)]
    _delta_matches_batch_difference(records, hops, length)


def test_shingle_vector_cases():
    store = GraphStore()
    assert shingle_vector(store, 0, 1, 5) == Counter()
    store.insert(edge(2, "b", 1, "a", 1, "x"))
    assert shingle_vector(store, 0, 1, 5) == Counter({"a": 1, "bxa": 1})
    # isomorphic graphs in different graph ids have identical vectors
    for gid in (1, 2):
        store.insert(edge(1, "a", 2, "b", 1, "x", graph_id=gid))
        store.insert(edge(2, "b", 3, "c", 2, "y", graph_id=gid))
    assert shingle_vector(store, 1, 2, 3) == shingle_vector(store, 2, 2, 3)


def test_exact_cosine_basics():
    a = Counter({"a": 1, "b": 1})
    assert exact_cosine(a, a) == 1.0
    assert exact_cosine(Counter({"a": 1}), Counter({"b": 1})) == 0.0
    assert exact_cosine(a, Counter({"a": 1})) == pytest.approx(1 / 2**0.5)
    assert exact_cosine(Counter(), Counter()) == 1.0
    assert exact_cosine(Counter(), Counter({"a": 3})) == 0.0


@given(
    st.dictionaries(st.text("ab", min_size=1, max_size=3), st.integers(1, 50), max_size=8),
    st.dictionaries(st.text("ab", min_size=1, max_size=3), st.integers(1, 50), max_size=8),
)
def test_exact_cosine_stays_in_unit_interval(a, b):
    value = exact_cosine(Counter(a), Counter(b))
    assert 0.0 <= value <= 1.0
