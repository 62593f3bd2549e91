"""End-to-end runners: offline bootstrap and online stream detection.

The bootstrap runner loads a training stream whole (unbounded store),
clusters it, and writes a text model file. The stream runner replays a
test stream one edge at a time in arrival order against a loaded model:
chunk delta (which inserts the edge and then evicts), sketch update,
cluster update, score; a snapshot of the instantaneous ranking is
written every ``snapshot interval`` edges and once at stream end.

Per edge, the work follows what the edge changed. The store keeps each
node's out-edge labels concatenated, so at one and two hops the delta
builds each affected node's new shingle from these strings and cuts the
new label out again for the old one (see ``shingles.edge_delta``); no
chunk state outlives an edge. The sketch update hashes only the delta's
chunks that the hash family has not cached, all in one product, and adds
the delta to the graph's float64 projection of exact integers, into a new
array; the new sketch is its bool sign pattern.

Evicted edges never roll sketches back: a graph's projection accumulates
over everything it has seen, while deltas for later edges are computed on
the retained adjacency only. Detection state (sketch, assignment, score)
lives in the cluster model and outlives a graph's edges. An optional cap
on tracked graphs drops the least recently updated graph, its detection
state and its stored edges together, so a graph that comes back starts
from nothing.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from pathlib import Path
from typing import IO, Iterable, Sequence

from .clustering import UNASSIGNED, BootstrapReport, ClusterModel, bootstrap_model
from .generator import LABEL_ANOMALY, read_labels
from .metrics import average_precision, roc_auc
from .records import EdgeRecord, read_stream
from .shingles import edge_delta
from .sketches import MAX_EXACT_CHUNK_LEN, HashFamily, SketchState, apply_delta, fresh_state
from .store import GraphStore

MODEL_HEADER = "sketchstream model 1"


@dataclass
class RunConfig:
    """Knobs of the detection pipeline.

    ``run_stream`` reads only ``max_edges``, ``snapshot_interval`` and
    ``max_tracked_graphs``: hops, chunk length and sketch width come from
    the model. ``run_bootstrap`` reads the other fields.
    """

    hops: int = 1
    sketch_bits: int = 1000
    max_edges: int | None = None
    candidate_chunk_lengths: tuple[int, ...] = (4, 8, 16, 32)
    candidate_cluster_counts: tuple[int, ...] = (2, 3, 4, 5)
    snapshot_interval: int = 10_000
    cluster_seed: int = 0
    family_seed: int = 1
    max_tracked_graphs: int | None = None

    def __post_init__(self) -> None:
        if self.hops < 1:
            raise ValueError("hops must be at least 1")
        if self.sketch_bits < 1:
            raise ValueError("sketch_bits must be at least 1")
        if self.max_edges is not None and self.max_edges < 1:
            raise ValueError("max_edges must be positive or None")
        if self.snapshot_interval < 1:
            raise ValueError("snapshot_interval must be positive")
        if self.max_tracked_graphs is not None and self.max_tracked_graphs < 1:
            raise ValueError("max_tracked_graphs must be positive or None")
        for name in ("cluster_seed", "family_seed"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be non-negative")
        # Checked here, before run_bootstrap loads and shingles a training stream.
        if not self.candidate_chunk_lengths or not all(
            1 <= length <= MAX_EXACT_CHUNK_LEN for length in self.candidate_chunk_lengths
        ):
            raise ValueError(
                f"candidate_chunk_lengths must be a non-empty tuple of lengths "
                f"in [1, {MAX_EXACT_CHUNK_LEN}]"
            )
        if not self.candidate_cluster_counts or not all(
            count >= 2 for count in self.candidate_cluster_counts
        ):
            raise ValueError("candidate_cluster_counts must be a non-empty tuple of counts >= 2")


@dataclass
class SnapshotRecord:
    """A snapshot's edge count and ranking metrics; its rows go only to the CSV."""

    edges_processed: int
    ap: float | None = None
    auc: float | None = None


@dataclass
class StreamResult:
    snapshots: list[SnapshotRecord]
    edges_processed: int
    elapsed_seconds: float
    edges_per_second: float
    peak_edges: int
    model: ClusterModel
    store: GraphStore
    dropped_graphs: int  # graphs dropped by the tracked-graph cap
    graphs_seen: int  # distinct graphs in the stream

    @property
    def states(self) -> dict[int, SketchState]:
        """Latest sketch state of every tracked graph (the model's own map)."""
        return self.model.states


# -- model file ------------------------------------------------------------


def save_model(model: ClusterModel, fp: IO[str]) -> None:
    """Write the text model dump; floats use repr for exact round-trips."""
    fp.write(MODEL_HEADER + "\n")
    fp.write(f"sketch_bits {model.sketch_bits}\n")
    fp.write(f"chunk_length {model.chunk_length}\n")
    fp.write(f"hops {model.hops}\n")
    fp.write(f"family_seed {model.family.seed}\n")
    fp.write(f"clusters {model.n_clusters}\n")
    for q in range(model.n_clusters):
        fp.write(
            f"cluster {q} size {int(model.sizes[q])} threshold {float(model.thresholds[q])!r}\n"
        )
    for q in range(model.n_clusters):
        values = " ".join(repr(float(v)) for v in model.centroids[q])
        fp.write(f"projection {q} {values}\n")


# The header fields in file order, each with the least and the greatest
# value that a model may hold (None: no bound).
_MODEL_FIELDS = {
    "sketch_bits": (1, None),
    "chunk_length": (1, MAX_EXACT_CHUNK_LEN),
    "hops": (1, None),
    "family_seed": (0, None),
    "clusters": (1, None),
}


def load_model(fp: IO[str]) -> ClusterModel:
    """Read a model file written by :func:`save_model`.

    Raises ``ValueError`` naming the offending line unless the file is
    exactly the header, the five fields in order, the K cluster lines and
    the K projection lines, each section in cluster order, with
    ``sketch_bits`` finite values per projection and finite thresholds.
    Every number must be written as :func:`save_model` writes it (``str``
    of an int, ``repr`` of a float), so a file that loads saves back
    byte for byte.
    """
    lines = [line.rstrip("\n") for line in fp]
    if not lines or lines[0] != MODEL_HEADER:
        raise _model_error(1, "not a recognized model file")
    fields: dict[str, int] = {}
    for line_no, (key, bounds) in enumerate(_MODEL_FIELDS.items(), start=2):
        if line_no > len(lines):
            raise _model_error(line_no, f"missing {key}")
        name, _, value = lines[line_no - 1].partition(" ")
        if name != key:
            raise _model_error(line_no, f"expected {key}, found {name!r}")
        fields[key] = _model_value(int, value, line_no, *bounds)
    n_clusters = fields["clusters"]
    sketch_bits = fields["sketch_bits"]
    expected = 6 + 2 * n_clusters
    if len(lines) != expected:
        raise _model_error(
            min(len(lines), expected) + 1,
            f"{n_clusters} clusters need {expected} lines, file has {len(lines)}",
        )

    sizes, thresholds, centroids = [], [], []
    for q in range(n_clusters):
        line_no = 7 + q
        parts = lines[line_no - 1].split(" ")
        if len(parts) != 6 or parts[:3] != ["cluster", str(q), "size"] or parts[4] != "threshold":
            raise _model_error(line_no, f"expected 'cluster {q} size <n> threshold <t>'")
        sizes.append(_model_value(int, parts[3], line_no, 1, 2**63 - 1))  # held as int64
        thresholds.append(_model_value(float, parts[5], line_no))
    # Every row is checked before an array exists: a bad width allocates nothing.
    for q in range(n_clusters):
        line_no = 7 + n_clusters + q
        parts = lines[line_no - 1].split(" ")
        if parts[:2] != ["projection", str(q)] or len(parts) != 2 + sketch_bits:
            raise _model_error(line_no, f"expected 'projection {q}' and {sketch_bits} values")
        centroids.append([_model_value(float, v, line_no) for v in parts[2:]])

    family = HashFamily.generate(sketch_bits, fields["chunk_length"], fields["family_seed"])
    return ClusterModel(
        family, fields["hops"], fields["chunk_length"], centroids, sizes, thresholds
    )


def _model_error(line_no: int, message: str) -> ValueError:
    return ValueError(f"model file line {line_no}: {message}")


def _model_value(
    kind: type, text: str, line_no: int, minimum: int | None = None, maximum: int | None = None
):
    try:
        value = kind(text)
    except ValueError:
        raise _model_error(line_no, f"{text!r} is not a valid {kind.__name__}") from None
    if kind is float and not math.isfinite(value):
        raise _model_error(line_no, f"{text!r} is not finite")
    written = repr(value) if kind is float else str(value)
    if text != written:
        raise _model_error(line_no, f"{text!r} is not written as {written!r}")
    if minimum is not None and value < minimum:
        raise _model_error(line_no, f"{value} is below {minimum}")
    if maximum is not None and value > maximum:
        raise _model_error(line_no, f"{value} is above {maximum}")
    return value


# -- runners ----------------------------------------------------------------


def run_bootstrap(
    stream: Iterable[str] | str | Path,
    config: RunConfig,
    model_path: str | Path | None = None,
) -> tuple[ClusterModel, BootstrapReport]:
    """Cluster a training stream of complete graphs into a model.

    The training phase is static: every edge is held in memory regardless
    of ``max_edges``.
    """
    store = GraphStore(capacity=None)
    for rec in _iter_records(stream):
        store.insert(rec)
    model, report = bootstrap_model(
        store,
        hops=config.hops,
        candidate_chunk_lengths=config.candidate_chunk_lengths,
        candidate_cluster_counts=config.candidate_cluster_counts,
        sketch_bits=config.sketch_bits,
        cluster_seed=config.cluster_seed,
        family_seed=config.family_seed,
    )
    if model_path is not None:
        with open(model_path, "w", encoding="ascii") as fp:
            save_model(model, fp)
    return model, report


def report_text(report: BootstrapReport) -> str:
    lines = [
        f"chunk_length {report.chunk_length}",
        f"clusters {report.n_clusters}",
        f"silhouette {report.silhouette:.4f}",
    ]
    for length in sorted(report.entropy_by_chunk_length):
        lines.append(f"entropy C={length} {report.entropy_by_chunk_length[length]:.4f}")
    for q, (size, threshold) in enumerate(zip(report.cluster_sizes, report.thresholds)):
        lines.append(f"cluster {q} size {size} threshold {threshold:.6f}")
    return "\n".join(lines) + "\n"


def run_stream(
    model: ClusterModel,
    stream: Iterable[str] | str | Path,
    config: RunConfig,
    labels: dict[int, str] | None = None,
    csv_fp: IO[str] | None = None,
) -> StreamResult:
    """Replay a stream against a model, scoring each edge's graph.

    Snapshots are taken every ``config.snapshot_interval`` edges and once
    at stream end (not duplicated when the end falls on the interval).
    Ranking metrics are attached when ``labels`` is given and the current
    ranking has both positives and negatives. Given labels must cover every
    streamed graph: the first edge of an unlabelled graph raises
    ``ValueError`` naming the graph and the edge.
    """
    positives = (
        {g for g, label in labels.items() if label == LABEL_ANOMALY} if labels else None
    )
    store = GraphStore(capacity=config.max_edges)
    snapshots: list[SnapshotRecord] = []
    if csv_fp is not None:
        csv_fp.write("edges_processed,graph_id,score,assignment,ap,auc\n")

    hops, chunk_length, family = model.hops, model.chunk_length, model.family
    max_edges, interval = config.max_edges, config.snapshot_interval
    max_tracked = config.max_tracked_graphs
    states = model.states
    edges = dropped = 0
    seen: set[int] = set()
    started = time.perf_counter()
    for rec in _iter_records(stream):
        delta = edge_delta(store, rec, hops, chunk_length)
        if max_edges is not None and store.total_edges > max_edges:
            raise AssertionError("resident edges exceeded the configured bound")

        state = states.get(rec.graph_id)
        if state is None:  # each graph's first edge passes here
            if labels is not None and rec.graph_id not in labels:
                raise ValueError(f"edge {edges + 1}: graph {rec.graph_id} has no label")
            state = fresh_state(family.sketch_bits)
            seen.add(rec.graph_id)
        model.update_graph(rec.graph_id, apply_delta(state, family, delta))

        edges += 1
        if max_tracked is not None and len(states) > max_tracked:
            victim = next(iter(states))
            model.forget_graph(victim)
            store.drop_graph(victim)
            dropped += 1
        if edges % interval == 0:
            snapshots.append(_snapshot(model, edges, positives, csv_fp))
    if edges == 0 or edges % interval != 0:
        snapshots.append(_snapshot(model, edges, positives, csv_fp))
    elapsed = time.perf_counter() - started

    return StreamResult(
        snapshots=snapshots,
        edges_processed=edges,
        elapsed_seconds=elapsed,
        edges_per_second=edges / elapsed if elapsed > 0 else float("inf"),
        peak_edges=store.peak_edges,
        model=model,
        store=store,
        dropped_graphs=dropped,
        graphs_seen=len(seen),
    )


def _iter_records(stream: Iterable[str] | str | Path) -> Iterable[EdgeRecord]:
    if isinstance(stream, (str, Path)):
        with open(stream, "r", encoding="ascii", newline="") as fp:
            yield from read_stream(fp)
    else:
        yield from read_stream(stream)


def _snapshot(
    model: ClusterModel,
    edges: int,
    positives: set[int] | None,
    csv_fp: IO[str] | None,
) -> SnapshotRecord:
    ranking = model.ranking()
    ap = auc = None
    if positives is not None and ranking:
        ranked_positives = sum(1 for g, _ in ranking if g in positives)
        if 0 < ranked_positives < len(ranking):
            ap = average_precision(ranking, positives)
            auc = roc_auc(ranking, positives)
    if csv_fp is not None:
        ap_text = "" if ap is None else repr(ap)
        auc_text = "" if auc is None else repr(auc)
        for graph_id, score in ranking:
            assignment = model.assignments.get(graph_id, UNASSIGNED)
            csv_fp.write(f"{edges},{graph_id},{score!r},{assignment},{ap_text},{auc_text}\n")
    return SnapshotRecord(edges_processed=edges, ap=ap, auc=auc)


def load_labels_file(path: str | Path) -> dict[int, str]:
    with open(path, "r", encoding="ascii", newline="") as fp:
        return read_labels(fp)
