"""Span tracing around the program's layer boundaries, from outside ``src/``.

``Tracer.install`` swaps each public function or method that the runners
call for a wrapper that records a span: a name, start and end times in
nanoseconds, and the index of the enclosing span. Wrappers sit where the
caller looks the name up (``engine.edge_delta`` rather than
``shingles.edge_delta``), so the bootstrap's ``node_shingle`` calls are
traced while the stream's, which happen inside ``edge_delta``, stay part of
the delta span. A name that no longer exists is reported as missing.

A layer's time is the sum of the self times of its spans: a span's
duration minus the durations of its direct children.
"""

from __future__ import annotations

import time

import numpy as np

import sketchstream.clustering as clustering
import sketchstream.engine as engine
import sketchstream.records as records
from sketchstream.clustering import ClusterModel
from sketchstream.store import GraphStore

# span name -> (object holding the name, attribute)
TARGETS = {
    "engine.run_bootstrap": (engine, "run_bootstrap"),
    "engine.run_stream": (engine, "run_stream"),
    "engine.load_model": (engine, "load_model"),
    "engine.save_model": (engine, "save_model"),
    "engine.snapshot": (engine, "_snapshot"),
    "records.parse_edge": (records, "parse_edge"),
    "store.insert": (GraphStore, "insert"),
    "store.prepare_edge": (GraphStore, "prepare_edge"),
    "store.insert_prepared": (GraphStore, "insert_prepared"),
    "shingles.edge_delta": (engine, "edge_delta"),
    "shingles.node_shingle": (clustering, "node_shingle"),
    "sketches.apply_delta": (engine, "apply_delta"),
    "sketches.batch_projection": (clustering, "batch_projection"),
    "clustering.update_graph": (ClusterModel, "update_graph"),
    "clustering.pairwise_distance_matrix": (clustering, "pairwise_distance_matrix"),
    "clustering.kmedoids": (clustering, "kmedoids"),
    "clustering.silhouette": (clustering, "silhouette"),
}

STORE_SPANS = ("store.insert", "store.prepare_edge", "store.insert_prepared")

# per-layer time metric -> spans whose self times it sums
STREAM_TIMES = {
    "records.stream_parse_s": ("records.parse_edge",),
    "store.insert_s": STORE_SPANS,
    "shingles.delta_s": ("shingles.edge_delta",),
    "sketches.apply_s": ("sketches.apply_delta",),
    "clustering.update_s": ("clustering.update_graph",),
    "engine.snapshot_s": ("engine.snapshot",),
    "engine.loop_s": ("engine.run_stream",),
    "engine.load_model_s": ("engine.load_model",),
}
SETUP_TIMES = {
    "records.setup_parse_s": ("records.parse_edge",),
    "store.load_s": STORE_SPANS,
    "shingles.batch_s": ("shingles.node_shingle",),
    "clustering.distance_matrix_s": ("clustering.pairwise_distance_matrix",),
    "clustering.kmedoids_s": ("clustering.kmedoids",),
    "clustering.silhouette_s": ("clustering.silhouette",),
    "sketches.batch_projection_s": ("sketches.batch_projection",),
    "engine.save_model_s": ("engine.save_model",),
}
# per-layer count metric -> span whose calls it counts
STREAM_CALLS = {"engine.snapshots": "engine.snapshot"}
SETUP_CALLS = {"clustering.distance_matrices": "clustering.pairwise_distance_matrix"}


class Tracer:
    """In-memory span recorder plus the counts read off traced results."""

    def __init__(self) -> None:
        self.names: list[str] = list(TARGETS)
        self.span_name: list[int] = []
        self.starts: list[int] = []
        self.ends: list[int] = []
        self.parents: list[int] = []
        self._stack = [-1]
        self.missing: set[str] = set()
        self.delta_chunks = 0
        self.distinct_chunks: set[str] = set()
        self.flagged_updates = 0
        self._saved: list[tuple[object, str, object]] = []

    # -- wrapping ------------------------------------------------------------

    def install(self) -> None:
        hooks = {
            "shingles.edge_delta": self._count_delta,
            "clustering.update_graph": self._count_flagged,
        }
        for index, (name, (owner, attribute)) in enumerate(TARGETS.items()):
            original = getattr(owner, attribute, None)
            if original is None:
                self.missing.add(name)
                continue
            self._saved.append((owner, attribute, original))
            setattr(owner, attribute, self._wrap(index, original, hooks.get(name)))

    def uninstall(self) -> None:
        for owner, attribute, original in reversed(self._saved):
            setattr(owner, attribute, original)
        self._saved.clear()

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()

    def _wrap(self, index, function, on_result):
        clock = time.perf_counter_ns
        span_name, starts, ends, parents, stack = (
            self.span_name, self.starts, self.ends, self.parents, self._stack
        )

        def traced(*args, **kwargs):
            span = len(starts)
            span_name.append(index)
            parents.append(stack[-1])
            ends.append(0)
            stack.append(span)
            starts.append(clock())
            try:
                result = function(*args, **kwargs)
            finally:
                ends[span] = clock()
                stack.pop()
            if on_result is not None:
                on_result(result)
            return result

        return traced

    def _count_delta(self, delta) -> None:
        try:
            incoming, outgoing = delta.incoming, delta.outgoing
        except AttributeError:
            self.missing.add("shingles.delta_chunks")
            return
        self.delta_chunks += sum(incoming.values()) + sum(outgoing.values())
        self.distinct_chunks.update(incoming)
        self.distinct_chunks.update(outgoing)

    def _count_flagged(self, event) -> None:
        flagged = getattr(event, "flagged", None)
        if flagged is None:
            self.missing.add("clustering.flagged_updates")
        else:
            self.flagged_updates += bool(flagged)

    # -- results ---------------------------------------------------------------

    def self_times(self) -> tuple[np.ndarray, np.ndarray]:
        """Self seconds and call counts per entry of ``self.names``."""
        names = np.asarray(self.span_name, dtype=np.int64)
        duration = np.asarray(self.ends, dtype=np.int64) - np.asarray(self.starts, dtype=np.int64)
        parents = np.asarray(self.parents, dtype=np.int64)
        nested = parents >= 0
        children = np.zeros_like(duration)
        np.add.at(children, parents[nested], duration[nested])
        own = np.bincount(names, weights=duration - children, minlength=len(self.names))
        calls = np.bincount(names, minlength=len(self.names))
        return own / 1e9, calls

    def layer_metrics(
        self, times: dict[str, tuple[str, ...]], calls_of: dict[str, str]
    ) -> dict[str, dict]:
        own, calls = self.self_times()
        index = {name: i for i, name in enumerate(self.names)}
        metrics = {}
        for metric, spans in times.items():
            entry = {"value": float(sum(own[index[s]] for s in spans)), "unit": "s"}
            missing = sorted(s for s in spans if s in self.missing)
            if missing:
                entry["missing"] = missing
            metrics[metric] = entry
        for metric, span in calls_of.items():
            entry = {"value": int(calls[index[span]]), "unit": "count"}
            if span in self.missing:
                entry["missing"] = [span]
            metrics[metric] = entry
        return metrics

    def setup_layers(self) -> dict[str, dict]:
        return self.layer_metrics(SETUP_TIMES, SETUP_CALLS)

    def stream_layers(self) -> dict[str, dict]:
        metrics = self.layer_metrics(STREAM_TIMES, STREAM_CALLS)
        counts = {
            "shingles.delta_chunks": self.delta_chunks,
            "sketches.distinct_chunks": len(self.distinct_chunks),
            "clustering.flagged_updates": self.flagged_updates,
        }
        for metric, value in counts.items():
            metrics[metric] = {"value": value, "unit": "count"}
            if metric in self.missing:
                metrics[metric]["missing"] = [metric]
        return metrics
