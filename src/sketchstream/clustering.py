"""Bootstrap clustering and streaming cluster maintenance.

Bootstrapping (:func:`bootstrap_model`) clusters every graph of a store.
It builds one exact-cosine distance matrix per candidate chunk length,
from one integer Gram product over the chunks that two or more graphs
share (bitwise equal to the per-pair integer rule), and picks a chunk
length by the entropy of the distances (a lone candidate is its own pick). It groups
the graphs with k-medoids at the cluster count maximizing the silhouette.
Both work on the matrix in array form: k-medoids prices every swap of a
medoid slot with one minimum against all candidate columns, and the
silhouette derives each point's terms from one row sum per cluster. Each
cluster becomes a centroid: the running mean of its members' projection
vectors, its sign sketch, and an anomaly threshold of mean plus three
standard deviations of the member-to-centroid sketch distances (a
one-sided tail bound caps the false-positive rate at 10%).

Each node's shingle is built once. The chunk vectors are built one
candidate length at a time and freed once that length's matrix is built;
the chosen length's vectors are built again for the centroids. So at its
peak, set-up holds the whole training store, every node shingle, one
candidate length's vectors and the matrices. While it builds a matrix it
also holds a set of that length's chunks, three arrays with one entry per
(graph, chunk) and one n-by-``_GRAM_BLOCK`` block of counts.

In streaming mode the model keeps each tracked graph's latest sketch
state, so it can take out of a mean exactly what it folded in. Every
update re-evaluates its graph against the nearest centroid: close enough
means the graph (re)joins that cluster and the centroid mean is adjusted
incrementally; too far means the graph is pulled out of its cluster and
marked as attack. Centroid projections are kept as real-valued running
means because the incremental updates divide by cluster sizes; each
change to a mean re-signs that centroid's row of bool sketches in place.
An update's score is its distance to the nearest centroid, counted again
only when the update moved that centroid. Every cluster holds at least one
member: a model refuses a size below 1, and a graph leaves a cluster only
after it joined through an add, so a cluster's size is its loaded size
plus its streamed members and a removal never empties it.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import Mapping, Sequence

import numpy as np

from .shingles import chunk_shingle, node_shingle
from .sketches import (
    HashFamily,
    SketchState,
    batch_projection,
    cosine_distance,
    sign_bits,
)
from .store import GraphStore

UNASSIGNED = "UNASSIGNED"
ATTACK = "ATTACK"

# Histogram resolution for the chunk-length entropy curve.
DEFAULT_ENTROPY_BINS = 10
# Chunk columns per dense block of the bootstrap's Gram product.
_GRAM_BLOCK = 64


def pairwise_entropy(distances: Sequence[float], bins: int) -> float:
    """Shannon entropy (nats) of distances histogrammed over [0, 1]."""
    if bins < 2:
        raise ValueError("bins must be at least 2")
    if len(distances) == 0:
        raise ValueError("distances must not be empty")
    values = np.asarray(distances, dtype=np.float64)
    if values.min() < 0.0 or values.max() > 1.0:
        raise ValueError("distances must lie in [0, 1]")
    counts, _ = np.histogram(values, bins=bins, range=(0.0, 1.0))
    p = counts[counts > 0] / counts.sum()
    return float(-(p * np.log(p)).sum())


def pairwise_distance_matrix(vectors: Sequence[Counter]) -> np.ndarray:
    """Symmetric exact-cosine distance matrix with zero diagonal.

    Entry (i, j) equals ``exact_cosine_distance(vectors[i], vectors[j])``.
    The dot products are one integer Gram product over the chunks that two
    or more vectors hold, summed over dense blocks of ``_GRAM_BLOCK`` chunk
    columns, one block alive at a time; the squared norms come from the
    counts. While every norm stays below 2**53, each integer converts to
    float64 exactly, and the cosine rounds the norm product and its square
    root once each, as the integer rule does.
    """
    n = len(vectors)
    # Two sets take less room than a count per chunk.
    seen, shared = set(), set()
    for v in vectors:
        shared.update(v.keys() & seen)
        seen.update(v.keys())
    del seen
    columns = {chunk: column for column, chunk in enumerate(shared)}
    # One entry per (vector, chunk); a chunk of one vector alone is column -1.
    ids = np.fromiter((columns.get(chunk, -1) for v in vectors for chunk in v), np.int32)
    counts = np.fromiter((k for v in vectors for k in v.values()), np.int64, ids.size)
    rows = np.repeat(np.arange(n), [len(v) for v in vectors])
    dots = np.zeros((n, n), dtype=np.int64)
    block = np.empty((n, _GRAM_BLOCK), dtype=np.int64)
    for start in range(0, len(columns), _GRAM_BLOCK):
        inside = np.flatnonzero((ids >= start) & (ids < start + _GRAM_BLOCK))
        block.fill(0)
        block[rows[inside], ids[inside] - start] = counts[inside]
        dots += block @ block.T
    norms = np.array([sum(k * k for k in v.values()) for v in vectors], dtype=np.float64)
    # The integer rule clamps to [0, 1]; counts are non-negative, so only
    # the top bound can bind.
    with np.errstate(divide="ignore", invalid="ignore"):
        cosine = np.minimum(dots / np.sqrt(np.outer(norms, norms)), 1.0)
    # The zero-vector rule: two zero vectors are identical, one is orthogonal.
    empty = norms == 0
    cosine[empty, :] = 0.0
    cosine[:, empty] = 0.0
    cosine[np.ix_(empty, empty)] = 1.0
    matrix = 1.0 - cosine
    np.fill_diagonal(matrix, 0.0)
    return matrix


def chunk_length_entropies(
    distances_by_length: Mapping[int, np.ndarray],
    bins: int = DEFAULT_ENTROPY_BINS,
) -> dict[int, float]:
    """Entropy of the pairwise-distance distribution per candidate chunk length."""
    return {
        length: pairwise_entropy(matrix[np.triu_indices(matrix.shape[0], k=1)], bins)
        for length, matrix in sorted(distances_by_length.items())
    }


def pick_chunk_length(entropies: Mapping[int, float]) -> int:
    """Smallest candidate strictly above the entropy argmax, else the argmax.

    The argmax marks where distances spread most evenly; choosing its right
    neighbor lands in the region that still separates dissimilar graphs
    without making similar ones drift apart. Entropy ties resolve to the
    smaller candidate, and a lone candidate is its own pick.
    """
    if not entropies:
        raise ValueError("need at least one candidate chunk length")
    candidates = sorted(entropies)
    best = max(candidates, key=lambda c: (entropies[c], -c))
    larger = [c for c in candidates if c > best]
    return min(larger) if larger else best


def kmedoids(
    distances: np.ndarray, n_clusters: int, seed: int
) -> tuple[list[int], np.ndarray]:
    """Partition-around-medoids on a precomputed distance matrix.

    Starts from seeded random distinct medoids, then repeatedly applies the
    single best cost-reducing (medoid, non-medoid) swap until none improves
    the total distance to assigned medoids. Each round prices all swaps of
    one medoid slot at once: the minimum over the other medoids' columns,
    taken once, against every candidate's column. The first minimum in
    (slot, candidate) order wins, and only a strict improvement is taken.
    Assignment ties go to the lower medoid position. Deterministic for a
    fixed seed.
    """
    n = distances.shape[0]
    if distances.shape != (n, n):
        raise ValueError("distance matrix must be square")
    if not 1 <= n_clusters <= n:
        raise ValueError(f"n_clusters must lie in [1, {n}]")
    rng = np.random.default_rng(seed)
    medoids = sorted(int(m) for m in rng.choice(n, size=n_clusters, replace=False))
    # Row c is column c, so each candidate's cost is a contiguous row sum
    # over the same values in the same order as a sum over its column.
    columns = np.ascontiguousarray(distances.T)
    cost = distances[:, medoids].min(axis=1).sum()
    swap_costs = np.empty((n_clusters, n))
    while True:
        for slot in range(n_clusters):
            others = distances[:, medoids[:slot] + medoids[slot + 1 :]]
            swap_costs[slot] = np.minimum(columns, others.min(axis=1, initial=np.inf)).sum(axis=1)
        swap_costs[:, medoids] = np.inf
        slot, candidate = divmod(int(swap_costs.argmin()), n)
        if not swap_costs[slot, candidate] < cost:
            break
        cost = swap_costs[slot, candidate]
        medoids[slot] = candidate
        medoids.sort()
    assignments = np.argmin(distances[:, medoids], axis=1)
    return medoids, assignments


def anomaly_threshold(distances: "Sequence[float] | np.ndarray") -> float:
    """Mean plus three population standard deviations of member distances."""
    values = np.asarray(distances, dtype=np.float64)
    if values.size == 0:
        raise ValueError("need at least one member distance")
    return float(values.mean() + 3.0 * values.std())


def silhouette(distances: np.ndarray, assignments: np.ndarray) -> float:
    """Mean silhouette over points; singleton-cluster points contribute 0."""
    labels, own, sizes = np.unique(assignments, return_inverse=True, return_counts=True)
    if labels.shape[0] < 2:
        raise ValueError("silhouette requires at least two clusters")
    n = distances.shape[0]
    # One row sum per cluster, over a C-contiguous copy of its columns, so
    # each point's sum adds its values in column order.
    sums = np.column_stack(
        [np.ascontiguousarray(distances[:, own == c]).sum(axis=1) for c in range(labels.size)]
    )
    rows = np.arange(n)
    counted = sizes[own] > 1
    a = sums[rows, own] / np.maximum(sizes[own] - 1, 1)
    means = sums / sizes
    means[rows, own] = np.inf
    b = means.min(axis=1)
    denom = np.maximum(a, b)
    terms = np.zeros(n)
    np.divide(b - a, denom, out=terms, where=counted & (denom > 0.0))
    # A running sum adds the terms in point order, one at a time.
    return float(np.add.accumulate(terms)[-1] / n)


@dataclass(slots=True)
class AnomalyEvent:
    """Result of re-scoring one graph after a sketch update."""

    score: float
    nearest: int
    flagged: bool


@dataclass
class BootstrapReport:
    chunk_length: int
    n_clusters: int
    silhouette: float
    entropy_by_chunk_length: dict[int, float]
    thresholds: list[float]
    cluster_sizes: list[int] = field(default_factory=list)


class ClusterModel:
    """Centroid sketches, sizes, and thresholds, maintained per edge."""

    def __init__(
        self,
        family: HashFamily,
        hops: int,
        chunk_length: int,
        centroids: np.ndarray,
        sizes: Sequence[int],
        thresholds: Sequence[float],
    ):
        centroids = np.array(centroids, dtype=np.float64)  # owned copy
        if centroids.ndim != 2 or centroids.shape[1] != family.sketch_bits:
            raise ValueError("centroids must be K x sketch_bits")
        self.family = family
        self.hops = hops
        self.chunk_length = chunk_length
        self.centroids = centroids
        self.sketches = sign_bits(centroids)
        self.sizes = np.asarray(sizes, dtype=np.int64).copy()
        self.thresholds = np.asarray(thresholds, dtype=np.float64).copy()
        if not (len(self.sizes) == len(self.thresholds) == centroids.shape[0]):
            raise ValueError("centroids, sizes and thresholds must align")
        if (self.sizes < 1).any():
            raise ValueError("every cluster size must be at least 1")
        # Estimated cosine distance for each count of matching sketch bits,
        # bit-identical to evaluating the formula on the counts themselves.
        matches = np.arange(family.sketch_bits + 1) / family.sketch_bits
        self._distance_of_matches = (1.0 - np.cos(np.pi * (1.0 - matches))).tolist()
        # Views of each row; the model updates both arrays in place and
        # never rebinds them.
        self._centroid_rows = list(centroids)
        self._sketch_rows = list(self.sketches)
        # Latest state per tracked graph, least recently updated first.
        self.states: dict[int, SketchState] = {}
        self.assignments: dict[int, int | str] = {}
        self.scores: dict[int, float] = {}

    @property
    def n_clusters(self) -> int:
        return int(self.centroids.shape[0])

    @property
    def sketch_bits(self) -> int:
        return self.family.sketch_bits

    @property
    def live(self) -> np.ndarray:
        """Which clusters hold a member: all of them, as no size drops below 1."""
        return self.sizes > 0

    def distances_to(self, sketch: np.ndarray) -> list[float]:
        """Estimated cosine distance to every centroid."""
        table = self._distance_of_matches
        return [table[np.count_nonzero(sketch == row)] for row in self._sketch_rows]

    def update_graph(self, graph_id: int, state: SketchState) -> AnomalyEvent:
        """Record a graph's new state and re-evaluate it against the clustering."""
        old_state = self.states.pop(graph_id, None)
        self.states[graph_id] = state
        sketch = state.sketch
        distances = self.distances_to(sketch)
        distance = min(distances)
        nearest = distances.index(distance)  # ties go to the lower index
        previous = self.assignments.get(graph_id, UNASSIGNED)
        flagged = distance > self.thresholds.item(nearest)

        if flagged:
            if isinstance(previous, int):
                self._remove(previous, old_state.projection)
            self.assignments[graph_id] = ATTACK
        elif previous == nearest:
            centroid = self._centroid_rows[nearest]
            centroid += (state.projection - old_state.projection) / self.sizes.item(nearest)
            self._resign(nearest)
        else:
            if isinstance(previous, int):
                self._remove(previous, old_state.projection)
            self._add(nearest, state.projection)
            self.assignments[graph_id] = nearest

        if flagged and previous != nearest:
            # A flag moves only the previous cluster's centroid, so the
            # distance to the nearest one is still the score.
            score = distance
        else:
            matches = np.count_nonzero(sketch == self._sketch_rows[nearest])
            score = self._distance_of_matches[matches]
        self.scores[graph_id] = score
        return AnomalyEvent(score=score, nearest=nearest, flagged=flagged)

    def ranking(self) -> list[tuple[int, float]]:
        """Scored graphs, highest score first; ties by lower graph id."""
        return sorted(self.scores.items(), key=lambda item: (-item[1], item[0]))

    def forget_graph(self, graph_id: int) -> None:
        """Drop a graph's detection state, unfolding it from its cluster."""
        state = self.states.pop(graph_id, None)
        assignment = self.assignments.pop(graph_id, UNASSIGNED)
        if isinstance(assignment, int):
            self._remove(assignment, state.projection)
        self.scores.pop(graph_id, None)

    # -- centroid maintenance ---------------------------------------------

    def _add(self, cluster: int, projection: np.ndarray) -> None:
        size = self.sizes.item(cluster)
        centroid = self._centroid_rows[cluster]
        np.divide(centroid * size + projection, size + 1, out=centroid)
        self.sizes[cluster] = size + 1
        self._resign(cluster)

    def _remove(self, cluster: int, projection: np.ndarray) -> None:
        # The graph joined through _add, so size - 1 still counts every loaded member.
        size = self.sizes.item(cluster)
        centroid = self._centroid_rows[cluster]
        np.divide(centroid * size - projection, size - 1, out=centroid)
        self.sizes[cluster] = size - 1
        self._resign(cluster)

    def _resign(self, cluster: int) -> None:
        sign_bits(self._centroid_rows[cluster], out=self._sketch_rows[cluster])


def _chunk_vectors(shingle_lists: Sequence[list[str]], length: int) -> list[Counter]:
    """Chunk-frequency vector of every graph, from its node shingles, at one length."""
    return [
        Counter(chunk for s in shingles for chunk in chunk_shingle(s, length))
        for shingles in shingle_lists
    ]


def bootstrap_model(
    store: GraphStore,
    *,
    hops: int,
    candidate_chunk_lengths: Sequence[int],
    candidate_cluster_counts: Sequence[int],
    sketch_bits: int,
    cluster_seed: int,
    family_seed: int,
) -> tuple[ClusterModel, BootstrapReport]:
    """Full bootstrap: chunk-length selection, cluster-count selection, model.

    Every graph in ``store`` is a training graph. After this returns, the
    caller may discard the store; the model keeps only centroids.
    """
    counts = sorted(set(candidate_cluster_counts))
    if not counts or counts[0] < 2:
        raise ValueError("candidate cluster counts must all be at least 2")
    graph_ids = store.graph_ids()
    if len(graph_ids) < counts[-1]:
        raise ValueError(
            f"need at least {counts[-1]} training graphs, have {len(graph_ids)}"
        )

    # Each node's shingle is built once and chunked at every length.
    shingle_lists = [
        [node_shingle(store, node, hops) for node in store.graph_nodes(g)]
        for g in graph_ids
    ]
    # Keep every matrix: the chosen length's one is reused for clustering.
    # Each length's vectors die with its call, before the next are built.
    distances_by_length = {
        length: pairwise_distance_matrix(_chunk_vectors(shingle_lists, length))
        for length in sorted(set(candidate_chunk_lengths))
    }
    entropies = chunk_length_entropies(distances_by_length)
    chunk_length = pick_chunk_length(entropies)
    distances = distances_by_length[chunk_length]

    best: tuple[float, int, np.ndarray] | None = None
    for n_clusters in counts:
        _, assignments = kmedoids(distances, n_clusters, cluster_seed)
        if np.unique(assignments).shape[0] < n_clusters:
            continue  # degenerate split (duplicate points); not comparable
        quality = silhouette(distances, assignments)
        if best is None or quality > best[0]:
            best = (quality, n_clusters, assignments)
    if best is None:
        raise ValueError("no candidate cluster count produced a valid clustering")
    quality, n_clusters, assignments = best

    family = HashFamily.generate(sketch_bits, chunk_length, family_seed)
    states = [batch_projection(v, family) for v in _chunk_vectors(shingle_lists, chunk_length)]
    projections = np.stack([state.projection for state in states])
    centroids = np.zeros((n_clusters, sketch_bits), dtype=np.float64)
    sizes = np.zeros(n_clusters, dtype=np.int64)
    thresholds = np.zeros(n_clusters, dtype=np.float64)
    for cluster in range(n_clusters):
        # Not empty: a split with an empty cluster was skipped above.
        members = np.flatnonzero(assignments == cluster)
        sizes[cluster] = members.size
        centroids[cluster] = projections[members].mean(axis=0)
        centroid_sketch = sign_bits(centroids[cluster])
        member_distances = [
            cosine_distance(states[m].sketch, centroid_sketch) for m in members
        ]
        thresholds[cluster] = anomaly_threshold(member_distances)
    model = ClusterModel(family, hops, chunk_length, centroids, sizes, thresholds)
    report = BootstrapReport(
        chunk_length=chunk_length,
        n_clusters=n_clusters,
        silhouette=quality,
        entropy_by_chunk_length=entropies,
        thresholds=[float(t) for t in model.thresholds],
        cluster_sizes=[int(s) for s in model.sizes],
    )
    return model, report
