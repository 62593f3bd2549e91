"""Bootstrap clustering and streaming cluster maintenance.

Bootstrapping (:func:`bootstrap_model`) clusters every graph of a store.
It builds one exact-cosine distance matrix per candidate chunk length,
with each vector's squared norm taken once, and picks a chunk length by
the entropy of the distances (a lone candidate is its own pick). It groups
the graphs with k-medoids at the cluster count maximizing the silhouette,
and turns each cluster into a centroid: the running mean of its members'
projection vectors, its sign sketch, and an anomaly threshold of mean plus
three standard deviations of the member-to-centroid sketch distances (a
one-sided tail bound caps the false-positive rate at 10%).

In streaming mode the model keeps each tracked graph's latest sketch
state, so it can take out of a mean exactly what it folded in. Every
update re-evaluates its graph against the nearest centroid: close enough
means the graph (re)joins that cluster and the centroid mean is adjusted
incrementally; too far means the graph is pulled out of its cluster and
marked as attack. Centroid projections are kept as real-valued running
means because the incremental updates divide by cluster sizes.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import Mapping, Sequence

import numpy as np

from .shingles import _cosine, _dot, _squared_norm, chunk_shingle, node_shingle
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

    Entry (i, j) equals ``exact_cosine_distance(vectors[i], vectors[j])``;
    each vector's squared norm is taken once.
    """
    n = len(vectors)
    norms = [_squared_norm(v) for v in vectors]
    matrix = np.zeros((n, n), dtype=np.float64)
    for i in range(n):
        for j in range(i + 1, n):
            d = 1.0 - _cosine(_dot(vectors[i], vectors[j]), norms[i], norms[j])
            matrix[i, j] = d
            matrix[j, i] = d
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
    the total distance to assigned medoids. Assignment ties go to the
    lower medoid position. Deterministic for a fixed seed.
    """
    n = distances.shape[0]
    if distances.shape != (n, n):
        raise ValueError("distance matrix must be square")
    if not 1 <= n_clusters <= n:
        raise ValueError(f"n_clusters must lie in [1, {n}]")
    rng = np.random.default_rng(seed)
    medoids = sorted(int(m) for m in rng.choice(n, size=n_clusters, replace=False))

    def cost_of(candidate: list[int]) -> float:
        return float(distances[:, candidate].min(axis=1).sum())

    cost = cost_of(medoids)
    improved = True
    while improved:
        improved = False
        best_swap: tuple[int, int] | None = None
        best_cost = cost
        medoid_set = set(medoids)
        for mi, medoid in enumerate(medoids):
            for other in range(n):
                if other in medoid_set:
                    continue
                trial = medoids.copy()
                trial[mi] = other
                trial_cost = cost_of(trial)
                if trial_cost < best_cost:
                    best_cost = trial_cost
                    best_swap = (mi, other)
        if best_swap is not None:
            medoids[best_swap[0]] = best_swap[1]
            medoids.sort()
            cost = best_cost
            improved = True
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
    labels = np.unique(assignments)
    if labels.shape[0] < 2:
        raise ValueError("silhouette requires at least two clusters")
    n = distances.shape[0]
    total = 0.0
    for i in range(n):
        own = assignments[i]
        own_mask = assignments == own
        own_size = int(own_mask.sum())
        if own_size == 1:
            continue
        a = distances[i, own_mask].sum() / (own_size - 1)
        b = min(
            float(distances[i, assignments == other].mean())
            for other in labels
            if other != own
        )
        denom = max(a, b)
        if denom > 0.0:
            total += (b - a) / denom
    return total / n


@dataclass(frozen=True)
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
        self.live = self.sizes > 0
        if not (len(self.sizes) == len(self.thresholds) == centroids.shape[0]):
            raise ValueError("centroids, sizes and thresholds must align")
        # Estimated cosine distance for each count of matching sketch bits,
        # bit-identical to evaluating the formula on the counts themselves.
        matches = np.arange(family.sketch_bits + 1) / family.sketch_bits
        self._distance_of_matches = 1.0 - np.cos(np.pi * (1.0 - matches))
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

    def distances_to(self, sketch: np.ndarray) -> np.ndarray:
        """Estimated cosine distance to every centroid; retired ones are inf."""
        distances = self._distance_of_matches[(self.sketches == sketch).sum(axis=1)]
        distances[~self.live] = np.inf
        return distances

    def update_graph(self, graph_id: int, state: SketchState) -> AnomalyEvent:
        """Record a graph's new state and re-evaluate it against the clustering."""
        old_state = self.states.pop(graph_id, None)
        self.states[graph_id] = state
        sketch = state.sketch
        distances = self.distances_to(sketch)
        nearest = int(distances.argmin())
        distance = float(distances[nearest])
        previous = self.assignments.get(graph_id, UNASSIGNED)
        flagged = distance > self.thresholds[nearest]

        if flagged:
            if isinstance(previous, int):
                self._remove(previous, old_state.projection)
            self.assignments[graph_id] = ATTACK
        elif previous == nearest:
            self.centroids[nearest] += (
                state.projection - old_state.projection
            ) / self.sizes[nearest]
            self._resign(nearest)
        else:
            if isinstance(previous, int):
                self._remove(previous, old_state.projection)
            self._add(nearest, state.projection)
            self.assignments[graph_id] = nearest

        score = self._score_against(nearest, sketch, distance)
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
        # Never called on a retired cluster: dead rows are inf in
        # distances_to, so they are never the nearest.
        size = int(self.sizes[cluster])
        self.centroids[cluster] = (self.centroids[cluster] * size + projection) / (size + 1)
        self.sizes[cluster] = size + 1
        self._resign(cluster)

    def _remove(self, cluster: int, projection: np.ndarray) -> None:
        size = int(self.sizes[cluster])
        if size <= 1:
            # Removing the last member would divide by zero; retire the
            # cluster instead. It is never matched again.
            self.sizes[cluster] = 0
            self.live[cluster] = False
            return
        self.centroids[cluster] = (self.centroids[cluster] * size - projection) / (size - 1)
        self.sizes[cluster] = size - 1
        self._resign(cluster)

    def _resign(self, cluster: int) -> None:
        self.sketches[cluster] = sign_bits(self.centroids[cluster])

    def _score_against(self, nearest: int, sketch: np.ndarray, fallback: float) -> float:
        if self.live[nearest]:
            matches = np.count_nonzero(sketch == self.sketches[nearest])
            return float(self._distance_of_matches[matches])
        if self.live.any():
            return float(self.distances_to(sketch).min())
        return fallback


def _vectors_by_length(
    store: GraphStore, graph_ids: Sequence[int], hops: int, lengths: Sequence[int]
) -> dict[int, list[Counter]]:
    """Chunk-frequency vector of every graph at every chunk length.

    Each node's shingle is built once and chunked at every length. The
    shingles are freed on return, before the distance matrices are built.
    """
    shingle_lists = [
        [node_shingle(store, node, hops) for node in store.graph_nodes(g)]
        for g in graph_ids
    ]
    return {
        length: [
            Counter(chunk for s in shingles for chunk in chunk_shingle(s, length))
            for shingles in shingle_lists
        ]
        for length in sorted(set(lengths))
    }


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

    vectors_by_length = _vectors_by_length(store, graph_ids, hops, candidate_chunk_lengths)
    # Keep every matrix: the chosen length's one is reused for clustering.
    distances_by_length = {
        length: pairwise_distance_matrix(vectors)
        for length, vectors in vectors_by_length.items()
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
    states = [batch_projection(v, family) for v in vectors_by_length[chunk_length]]
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
