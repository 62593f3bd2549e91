import numpy as np
import pytest

from sketchstream import GraphStore, NodeTypeConflictError, OutOfOrderEdgeError

from conftest import edge, build_store


def test_insert_under_capacity_reports_new_nodes():
    store = GraphStore(capacity=10)
    assert not store.has_node((0, 1)) and not store.has_node((0, 2))
    assert store.insert(edge(1, "a", 2, "b", 1)) == []
    assert store.has_node((0, 1)) and store.has_node((0, 2))
    assert store.total_edges == 1
    assert not store.has_node((0, 3))
    assert store.insert(edge(1, "a", 3, "c", 2)) == []
    assert store.has_node((0, 3))


def test_eviction_picks_oldest_edge_of_least_recently_touched_node():
    # e1 touches a,b at seq 1; e2 touches c,d at seq 2; e3 touches a,d at
    # seq 3. Node b has the stalest touch (1); its only edge is e1.
    store = GraphStore(capacity=2)
    store.insert(edge(0, "a", 1, "b", 1))  # a -> b
    store.insert(edge(2, "c", 3, "d", 2))  # c -> d
    evicted_edges = store.insert(edge(0, "a", 3, "d", 3))  # a -> d
    assert len(evicted_edges) == 1
    evicted = evicted_edges[0]
    assert evicted.source == (0, 0) and evicted.dest == (0, 1)
    assert store.total_edges == 2
    assert not store.has_node((0, 1))  # b had no other edges; dropped


def test_type_conflict_is_rejected():
    store = GraphStore()
    store.insert(edge(1, "a", 2, "b", 1))
    with pytest.raises(NodeTypeConflictError) as exc:
        store.insert(edge(1, "z", 3, "c", 2))
    assert exc.value.node == (0, 1)
    # node types are scoped per graph: same id in another graph is fine
    store.insert(edge(1, "z", 3, "c", 2, graph_id=1))


def test_self_loop_type_conflict_is_rejected():
    store = GraphStore()
    with pytest.raises(NodeTypeConflictError):
        store.insert(edge(1, "a", 1, "b", 1))


def test_out_of_order_edge_is_rejected_without_change():
    store = GraphStore()
    store.insert(edge(1, "a", 2, "b", 5))
    with pytest.raises(OutOfOrderEdgeError, match=r"node \(0, 1\) .* timestamp 5, edge proposes 3"):
        store.insert(edge(1, "a", 3, "c", 3))
    assert issubclass(OutOfOrderEdgeError, ValueError)
    assert store.total_edges == 1 and not store.has_node((0, 3))
    assert [(e.timestamp, e.dest) for e in store.out_edges((0, 1))] == [(5, (0, 2))]
    # the next insert is as if the rejected edge never came; an equal
    # timestamp is accepted, and only the source's own out-edges count
    store.insert(edge(1, "a", 3, "c", 5))
    store.insert(edge(2, "b", 1, "a", 1))
    out = store.out_edges((0, 1))
    assert [(e.timestamp, e.arrival_seq) for e in out] == [(5, 1), (5, 2)]
    assert store.total_edges == 3
    assert store.out_edges((9, 9)) == []


def test_out_edges_ties_break_by_arrival_seq():
    store = GraphStore()
    store.insert(edge(1, "a", 2, "b", 3))
    store.insert(edge(9, "z", 8, "y", 1, graph_id=1))  # push the global seq
    store.insert(edge(1, "a", 3, "c", 3))
    out = store.out_edges((0, 1))
    assert [(e.timestamp, e.arrival_seq) for e in out] == [(3, 1), (3, 3)]


def test_reverse_reach_zero_depth_is_identity():
    store = build_store([edge(1, "a", 2, "b", 1)])
    assert store.reverse_reach((0, 2), 0) == {(0, 2)}
    assert store.reverse_reach((5, 5), 0) == {(5, 5)}  # unknown node: itself


def test_reverse_reach_single_hop_chain():
    store = build_store([edge(1, "a", 2, "b", 1), edge(2, "b", 3, "c", 2)])
    assert store.reverse_reach((0, 3), 1) == {(0, 3), (0, 2)}


def test_reverse_reach_diamond_matches_brute_force():
    edges = [
        edge(0, "a", 1, "b", 1),
        edge(0, "a", 2, "c", 2),
        edge(1, "b", 3, "d", 3),
        edge(2, "c", 3, "d", 4),
    ]
    store = build_store(edges)
    # brute force all-pairs shortest paths over the 4-node graph
    nodes = [0, 1, 2, 3]
    dist = {(u, v): (0 if u == v else np.inf) for u in nodes for v in nodes}
    for rec in edges:
        dist[(rec.source_id, rec.dest_id)] = 1
    for k in nodes:
        for i in nodes:
            for j in nodes:
                dist[(i, j)] = min(dist[(i, j)], dist[(i, k)] + dist[(k, j)])
    for depth in range(4):
        expected = {(0, u) for u in nodes if dist[(u, 3)] <= depth}
        assert store.reverse_reach((0, 3), depth) == expected
    assert store.reverse_reach((0, 3), 2) == {(0, 3), (0, 1), (0, 2), (0, 0)}


def test_capacity_bound_holds_under_random_inserts(rng):
    capacity = 25
    store = GraphStore(capacity=capacity)
    timestamps = {}
    for i in range(400):
        graph = int(rng.integers(0, 3))
        timestamps[graph] = timestamps.get(graph, 0) + 1
        u = int(rng.integers(0, 30))
        v = int(rng.integers(0, 30))
        store.insert(
            edge(u, "t", v, "t", timestamps[graph], "E", graph_id=graph)
        )
        assert store.total_edges <= capacity
    assert store.peak_edges <= capacity
    # every stored edge is in exactly one out list and one in list
    out_edges = [e for g in store.graph_ids() for v in store.graph_nodes(g) for e in store.out_edges(v)]
    in_edges = [e for g in store.graph_ids() for v in store.graph_nodes(g) for e in store.in_edges(v)]
    assert len(out_edges) == store.total_edges
    assert len(in_edges) == store.total_edges
    assert {id(e) for e in out_edges} == {id(e) for e in in_edges}


def test_eviction_victim_has_globally_minimal_touch(rng):
    store = GraphStore(capacity=8)
    last_touch = {}
    for seq in range(1, 121):
        u = int(rng.integers(0, 12))
        v = int(rng.integers(0, 12))
        evicted_edges = store.insert(edge(u, "t", v, "t", seq))
        last_touch[(0, u)] = last_touch[(0, v)] = seq
        if not evicted_edges:
            continue
        assert len(evicted_edges) == 1  # one insert adds one edge
        evicted = evicted_edges[0]
        # nodes holding edges the moment eviction ran: those still stored
        # plus the evicted edge's endpoints, which it may have forgotten
        candidates = {node for g in store.graph_ids() for node in store.graph_nodes(g)}
        candidates |= {evicted.source, evicted.dest}
        min_touch = min(last_touch[node] for node in candidates)
        assert min(last_touch[owner] for owner in {evicted.source, evicted.dest}) == min_touch


class ReferenceStore:
    """Naive eviction oracle: a list of edges plus each node's last touch."""

    def __init__(self, capacity):
        self.capacity = capacity
        self.edges = []  # (arrival_seq, source, dest), in arrival order
        self.last_touch = {}
        self.seq = 0

    def insert(self, source, dest):
        self.seq += 1
        self.edges.append((self.seq, source, dest))
        self.last_touch[source] = self.last_touch[dest] = self.seq
        evicted = []
        while len(self.edges) > self.capacity:
            holders = {node for _, s, d in self.edges for node in (s, d)}
            node = min(holders, key=lambda n: (self.last_touch[n], n))
            victim = next(e for e in self.edges if node in e[1:])
            self.edges.remove(victim)
            evicted.append(victim)
        return evicted

    def drop_graph(self, graph_id):
        self.edges = [e for e in self.edges if e[1][0] != graph_id]


def test_eviction_matches_reference_store(rng):
    capacity = 12
    store = GraphStore(capacity=capacity)
    reference = ReferenceStore(capacity)
    clocks = {}  # each source's last timestamp; other nodes' run apart
    for seq in range(1, 1501):
        if rng.random() < 0.01:
            graph = int(rng.integers(0, 3))
            store.drop_graph(graph)
            reference.drop_graph(graph)
            assert store.total_edges == len(reference.edges)
            assert graph not in store.graph_ids()
            continue
        graph = int(rng.integers(0, 3))
        # few ids: self-loops, dest keys below source keys and ids that
        # come back after being forgotten all occur; each source's
        # timestamps never decrease, with ties
        u = int(rng.integers(0, 8))
        v = int(rng.integers(0, 8))
        timestamp = clocks[(graph, u)] = clocks.get((graph, u), 0) + int(rng.integers(0, 3))
        rec = edge(u, "abc"[u % 3], v, "abc"[v % 3], timestamp, graph_id=graph)
        got = [(e.arrival_seq, e.source, e.dest) for e in store.insert(rec)]
        assert got == reference.insert((graph, u), (graph, v))
        assert store.total_edges == len(reference.edges)


def test_drop_graph_forgets_its_nodes_and_edges():
    store = GraphStore()
    store.insert(edge(1, "a", 2, "b", 1))
    store.insert(edge(2, "b", 1, "a", 2))
    store.insert(edge(1, "a", 2, "b", 1, graph_id=1))
    store.drop_graph(0)
    assert store.total_edges == 1 and store.graph_ids() == [1]
    assert not store.has_node((0, 1)) and not store.has_node((0, 2))
    assert store.out_edges((1, 1))[0].dest == (1, 2)
    store.drop_graph(0)  # unknown graphs are ignored
    assert store.total_edges == 1
    # the id comes back with a brand-new type
    store.insert(edge(1, "q", 2, "b", 3))
    assert store.node_type((0, 1)) == "q"


def test_node_forgotten_after_losing_all_edges():
    store = GraphStore(capacity=1)
    store.insert(edge(1, "a", 2, "b", 1))
    store.insert(edge(3, "c", 4, "d", 2))
    assert store.total_edges == 1
    assert not store.has_node((0, 1)) and not store.has_node((0, 2))
    # the id can come back with a brand-new type
    store.insert(edge(1, "q", 5, "e", 3))
    assert store.node_type((0, 1)) == "q"


def test_eviction_waits_for_evict_to_capacity():
    store = GraphStore(capacity=1)
    store.insert(edge(1, "a", 2, "b", 1))
    store.insert_prepared(store.prepare_edge(edge(3, "c", 4, "d", 2)))
    # both edges stay readable until the caller evicts
    assert store.total_edges == 2
    assert store.has_node((0, 1)) and store.has_node((0, 4))
    assert store.peak_edges == 1
    evicted = store.evict_to_capacity()
    assert [(e.source, e.dest) for e in evicted] == [((0, 1), (0, 2))]
    assert store.total_edges == 1 and store.peak_edges == 1
    assert store.evict_to_capacity() == []


def test_stale_prepared_edge_is_rejected():
    store = GraphStore()
    pending = store.prepare_edge(edge(1, "a", 2, "b", 1))
    store.insert(edge(3, "c", 4, "d", 1))
    with pytest.raises(RuntimeError):
        store.insert_prepared(pending)
