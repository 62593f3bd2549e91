"""Checks of the program's outputs against the benchmark's own computations.

Nothing here compares against a stored copy of earlier output. Each
function returns a list of failure messages; an empty list means the check
passed.
"""

from __future__ import annotations

import math
from collections import Counter, defaultdict, deque

import numpy as np

RELATIVE_TOLERANCE = 1e-9


# -- model file ------------------------------------------------------------------


def parse_model_text(text: str) -> dict:
    """Header fields, cluster sizes and centroid rows of a model file."""
    lines = text.splitlines()
    fields = {}
    for line in lines[1:6]:
        key, _, value = line.partition(" ")
        fields[key] = int(value)
    n_clusters = fields["clusters"]
    sizes = np.zeros(n_clusters, dtype=np.int64)
    centroids = np.zeros((n_clusters, fields["sketch_bits"]), dtype=np.float64)
    for line in lines[6 : 6 + n_clusters]:
        parts = line.split(" ")
        sizes[int(parts[1])] = int(parts[3])
    for line in lines[6 + n_clusters : 6 + 2 * n_clusters]:
        parts = line.split(" ")
        centroids[int(parts[1])] = [float(v) for v in parts[2:]]
    return {**fields, "sizes": sizes, "centroids": centroids}


def check_model_sizes(model: dict, train_graphs: int) -> list[str]:
    total = int(model["sizes"].sum())
    if total != train_graphs:
        return [f"model: cluster sizes sum to {total}, expected {train_graphs} training graphs"]
    return []


# -- projections -------------------------------------------------------------------


def reference_chunk_counts(lines: list[str], hops: int, chunk_length: int) -> dict[int, Counter]:
    """Chunk-frequency vector of every graph, built from its raw edges.

    A node's shingle is its type, then a breadth-first walk that expands
    each reached node's out-edges (ordered by timestamp, then arrival) once,
    appending edge type and destination type, down to ``hops`` hops.
    """
    types: dict[tuple[int, int], str] = {}
    out: dict[tuple[int, int], list] = defaultdict(list)
    for arrival, line in enumerate(lines):
        src, src_type, dst, dst_type, ts, edge_type, graph = line.rstrip("\n").split("\t")
        source, dest = (int(graph), int(src)), (int(graph), int(dst))
        types[source] = src_type
        types[dest] = dst_type
        out[source].append((int(ts), arrival, edge_type, dest))
    for edges in out.values():
        edges.sort()

    counts: dict[int, Counter] = defaultdict(Counter)
    for node in types:
        parts = [types[node]]
        expanded = set()
        queue = deque([(node, 0)])
        while queue:
            current, depth = queue.popleft()
            if depth >= hops or current in expanded:
                continue
            expanded.add(current)
            for _, _, edge_type, dest in out.get(current, ()):
                parts.append(edge_type)
                parts.append(types[dest])
                queue.append((dest, depth + 1))
        shingle = "".join(parts)
        counts[node[0]].update(
            shingle[i : i + chunk_length] for i in range(0, len(shingle), chunk_length)
        )
    return counts


def parity_table(sketch_bits: int, chunk_length: int, family_seed: int) -> np.ndarray:
    """Low bits of the hash family's coefficients, regenerated from its seed."""
    rng = np.random.default_rng(family_seed)
    coefficients = rng.integers(
        0, 2**64, size=(sketch_bits, chunk_length + 1), dtype=np.uint64
    )
    return (coefficients & np.uint64(1)).astype(np.float64)


def reference_projection(counts: Counter, parity: np.ndarray) -> np.ndarray:
    """Signed-hash projection of a chunk vector via the parity identity.

    Function j maps chunk c to +1 when
    parity(a_j0) XOR XOR_i(parity(a_j,i+1) AND parity(ord(c_i))) is 1,
    else to -1.
    """
    chunks = list(counts)
    width = parity.shape[1] - 1
    odd = np.zeros((len(chunks), width), dtype=np.float64)
    for row, chunk in enumerate(chunks):
        odd[row, : len(chunk)] = [ord(char) & 1 for char in chunk]
    bits = (odd @ parity[:, 1:].T + parity[:, 0]).astype(np.int64) & 1
    weights = np.array([counts[c] for c in chunks], dtype=np.int64)
    return weights @ (2 * bits - 1)


def check_projections(lines: list[str], model: dict, states: dict) -> list[str]:
    """Each streamed projection equals the reference built from raw edges."""
    counts = reference_chunk_counts(lines, model["hops"], model["chunk_length"])
    parity = parity_table(model["sketch_bits"], model["chunk_length"], model["family_seed"])
    failures = []
    if set(counts) != set(states):
        failures.append(f"projections: streamed graphs {len(states)}, expected {len(counts)}")
    for graph_id in sorted(set(counts) & set(states)):
        expected = reference_projection(counts[graph_id], parity)
        if not np.array_equal(expected, states[graph_id]):
            wrong = int(np.count_nonzero(expected != states[graph_id]))
            failures.append(f"projections: graph {graph_id} differs in {wrong} entries")
    return failures


# -- centroids and memory ------------------------------------------------------------


def check_centroids(
    loaded: dict,
    centroids: np.ndarray,
    sizes: np.ndarray,
    live: np.ndarray,
    assignments: dict,
    projections: dict,
) -> list[str]:
    """Each live centroid is the mean of its training and streamed members."""
    failures = []
    for q in np.flatnonzero(live):
        members = [g for g, a in assignments.items() if isinstance(a, int) and a == q]
        expected_size = int(loaded["sizes"][q]) + len(members)
        if int(sizes[q]) != expected_size:
            failures.append(f"centroids: cluster {q} size {sizes[q]}, expected {expected_size}")
            continue
        expected = loaded["centroids"][q] * loaded["sizes"][q]
        for g in members:
            expected = expected + projections[g]
        scale = max(float(np.abs(expected).max()), 1.0)
        error = float(np.abs(centroids[q] * sizes[q] - expected).max()) / scale
        if error > RELATIVE_TOLERANCE:
            failures.append(f"centroids: cluster {q} sum off by relative {error:.3g}")
    return failures


def check_memory(peak_edges: int, final_edges: int, cap: int) -> list[str]:
    failures = []
    if peak_edges > cap:
        failures.append(f"memory: peak resident edges {peak_edges} above cap {cap}")
    if final_edges > cap:
        failures.append(f"memory: final resident edges {final_edges} above cap {cap}")
    return failures


# -- snapshots ---------------------------------------------------------------------


def parse_snapshots(csv_text: str) -> list[dict]:
    lines = csv_text.splitlines()
    if not lines or lines[0] != "edges_processed,graph_id,score,assignment,ap,auc":
        raise ValueError("snapshot CSV has an unexpected header")
    snapshots: list[dict] = []
    for line in lines[1:]:
        edges, graph_id, score, assignment, ap, auc = line.split(",")
        if not snapshots or snapshots[-1]["edges"] != int(edges):
            snapshots.append({"edges": int(edges), "rows": [], "ap": set(), "auc": set()})
        snapshot = snapshots[-1]
        snapshot["rows"].append((int(graph_id), float(score), assignment))
        snapshot["ap"].add(ap)
        snapshot["auc"].add(auc)
    return snapshots


def average_precision(ranked_ids: list[int], positives: set[int]) -> float:
    hits = 0
    total = 0.0
    for rank, graph_id in enumerate(ranked_ids, start=1):
        if graph_id in positives:
            hits += 1
            total += hits / rank
    return total / hits


def roc_auc(scored: list[tuple[int, float]], positives: set[int]) -> float:
    """Share of (positive, negative) pairs the positive wins; ties count half."""
    pos = [s for g, s in scored if g in positives]
    neg = [s for g, s in scored if g not in positives]
    wins = sum((p > n) + 0.5 * (p == n) for p in pos for n in neg)
    return wins / (len(pos) * len(neg))


def _close(a: float, b: float) -> bool:
    return abs(a - b) <= RELATIVE_TOLERANCE * max(1.0, abs(b))


def check_snapshots(
    snapshots: list[dict],
    labels: dict[int, str],
    sketch_bits: int,
    edges: int,
    interval: int,
) -> list[str]:
    """Snapshot count, row order, score lattice, and AP/AUC recomputed."""
    failures = []
    expected = math.ceil(edges / interval)
    if len(snapshots) != expected:
        failures.append(f"snapshots: {len(snapshots)} taken, expected {expected}")
    positives = {g for g, label in labels.items() if label == "anomaly"}
    for snapshot in snapshots:
        at = snapshot["edges"]
        rows = snapshot["rows"]
        if rows != sorted(rows, key=lambda r: (-r[1], r[0])):
            failures.append(f"snapshots: rows at {at} are not in descending score order")
        for graph_id, score, _ in rows:
            k = round(math.acos(max(-1.0, min(1.0, 1.0 - score))) * sketch_bits / math.pi)
            if not _close(1.0 - math.cos(math.pi * k / sketch_bits), score):
                failures.append(f"snapshots: score {score!r} of graph {graph_id} at {at} "
                                f"is not 1 - cos(pi k / {sketch_bits})")
                break
        if len(snapshot["ap"]) != 1 or len(snapshot["auc"]) != 1:
            failures.append(f"snapshots: ap/auc columns vary within the snapshot at {at}")
            continue
        (ap_text,), (auc_text,) = snapshot["ap"], snapshot["auc"]
        ranked = [(g, s) for g, s, _ in rows]
        n_pos = sum(1 for g, _ in ranked if g in positives)
        if not 0 < n_pos < len(ranked):
            if ap_text or auc_text:
                failures.append(f"snapshots: ap/auc at {at} filled without both classes")
            continue
        if not ap_text or not auc_text:
            failures.append(f"snapshots: ap/auc at {at} missing")
            continue
        ap = average_precision([g for g, _ in ranked], positives)
        auc = roc_auc(ranked, positives)
        if not _close(float(ap_text), ap):
            failures.append(f"snapshots: ap {ap_text} at {at}, recomputed {ap!r}")
        if not _close(float(auc_text), auc):
            failures.append(f"snapshots: auc {auc_text} at {at}, recomputed {auc!r}")
    return failures
