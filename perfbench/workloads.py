"""Benchmark workloads and their generated input files.

Inputs follow the shape of the repository's acceptance suite: two behavior
classes, 100 nodes and 600 edges per graph, interleave width 10,
separation 1.0, 5 anomalies per 105 graphs. The construction mirrors
``sketchstream.generator`` (template per class diverged from a shared base,
5% per-member edge noise, round-robin interleave with 30% skips) but lives
here, so that the inputs of a given seed stay the same when the program's
own generator changes. It leaves out the generator's per-seed ±10% jitter
of graph size: on two-hop shingles that jitter alone moved the work per
edge by 25% (quartile spread over ten seeds), which would drown any change
to the program.

Files are written once per workload into ``cache/<workload>/`` and reused
while the seed and settings match. ``python3 perfbench/workloads.py
--workload NAME --seed N`` rebuilds them.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import string
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

BENCH_DIR = Path(__file__).resolve().parent
CACHE_DIR = BENCH_DIR / "cache"

NODE_TYPES = string.ascii_lowercase
EDGE_TYPES = string.ascii_uppercase
CLASSES = 2
AVG_NODES = 100
AVG_EDGES = 600
INTERLEAVE_WIDTH = 10
SEPARATION = 1.0
MEMBER_EDGE_NOISE = 0.05
SKIP_PROB = 0.3
PARENT_WINDOW = 8
LOCAL_DEST_SPAN = 6

CHUNK_LENGTHS = (8, 16, 32, 64)
CLUSTER_COUNTS = (2, 3, 4, 5)
SNAPSHOT_INTERVAL = 500


@dataclass(frozen=True)
class Workload:
    name: str
    hops: int
    sketch_bits: int
    graphs_per_class: int
    train_graphs: int
    bounded: bool  # resident-edge cap of a tenth of the test stream

    @property
    def anomalies(self) -> int:
        # 5 anomalies per 100 benign graphs, as anomaly_fraction 5/105.
        return CLASSES * self.graphs_per_class // 20


# Why each workload exists is stated in BENCHMARK.json and README.md; the
# README also records detect-l1000, dropped for unsteady timings.
WORKLOADS = {
    w.name: w
    for w in (
        Workload("bounded-l100", hops=1, sketch_bits=100, graphs_per_class=110,
                 train_graphs=120, bounded=True),
        Workload("twohop-l1000", hops=2, sketch_bits=1000, graphs_per_class=40,
                 train_graphs=60, bounded=False),
    )
}


def smoke(workload: Workload) -> Workload:
    """A few-second version of a workload for the benchmark's self-test."""
    return Workload(
        workload.name + "-smoke", workload.hops, workload.sketch_bits, graphs_per_class=10,
        train_graphs=8, bounded=workload.bounded,
    )


def run_config_kwargs(workload: Workload, seed: int) -> dict:
    """RunConfig fields shared by the set-up and stream processes."""
    return dict(
        hops=workload.hops,
        sketch_bits=workload.sketch_bits,
        candidate_chunk_lengths=CHUNK_LENGTHS,
        candidate_cluster_counts=CLUSTER_COUNTS,
        snapshot_interval=SNAPSHOT_INTERVAL,
        cluster_seed=seed + 1000,
        family_seed=seed + 2000,
    )


# -- generator -----------------------------------------------------------------


def _pick(rng: np.random.Generator, alphabet: str) -> str:
    return alphabet[int(rng.integers(0, len(alphabet)))]


def _near(rng: np.random.Generator, n_nodes: int, source: int) -> int:
    offset = int(rng.integers(1, LOCAL_DEST_SPAN + 1))
    dest = source + (offset if rng.random() < 0.5 else -offset)
    if 0 <= dest < n_nodes:
        return dest
    dest = int(rng.integers(0, n_nodes - 1))
    return dest + 1 if dest >= source else dest


def _template(rng: np.random.Generator) -> tuple[list[str], list[tuple[int, int, str]]]:
    """Random typed graph: a bursty spanning tree plus local extra edges."""
    types = [_pick(rng, NODE_TYPES) for _ in range(AVG_NODES)]
    keyed = []  # (burst owner, source, dest, edge type)
    for node in range(1, AVG_NODES):
        parent = int(rng.integers(max(0, node - PARENT_WINDOW), node))
        keyed.append((node, parent, node, _pick(rng, EDGE_TYPES)))
    for _ in range(AVG_EDGES - (AVG_NODES - 1)):
        owner = int(rng.integers(0, AVG_NODES))
        keyed.append((owner, owner, _near(rng, AVG_NODES, owner), _pick(rng, EDGE_TYPES)))
    keyed.sort(key=lambda item: item[0])
    return types, [(u, w, t) for _, u, w, t in keyed]


def _diverge(template, fraction: float, rng: np.random.Generator):
    types, edges = template
    types = [_pick(rng, NODE_TYPES) if rng.random() < fraction else t for t in types]
    edges = [
        (u, _near(rng, len(types), u), _pick(rng, EDGE_TYPES)) if rng.random() < fraction
        else (u, w, t)
        for u, w, t in edges
    ]
    return types, edges


def _graph_lines(graph_id: int, template) -> list[str]:
    types, edges = template
    return [
        f"{u}\t{types[u]}\t{w}\t{types[w]}\t{ts}\t{t}\t{graph_id}\n"
        for ts, (u, w, t) in enumerate(edges, start=1)
    ]


def generate(workload: Workload, seed: int) -> tuple[list[str], list[str], dict[int, str]]:
    """Training lines, test lines and labels of one workload and seed."""
    rng = np.random.default_rng([seed, workload.graphs_per_class, workload.train_graphs])
    base = _template(rng)
    classes = [_diverge(base, SEPARATION, rng) for _ in range(CLASSES)]
    attack = _diverge(base, SEPARATION, rng)
    drafts = [("normal", c) for c in classes for _ in range(workload.graphs_per_class)]
    drafts += [("anomaly", attack)] * workload.anomalies
    members = [(label, _diverge(t, MEMBER_EDGE_NOISE, rng)) for label, t in drafts]
    order = rng.permutation(len(members))
    graphs = [members[int(i)] for i in order]  # position is the graph id
    labels = {g: label for g, (label, _) in enumerate(graphs)}

    benign = [g for g, label in labels.items() if label == "normal"]
    train_ids = sorted(int(g) for g in rng.choice(benign, workload.train_graphs, replace=False))
    train = [line for g in train_ids for line in _graph_lines(g, graphs[g][1])]

    chosen = set(train_ids)
    test_ids = [g for g in range(len(graphs)) if g not in chosen]
    test: list[str] = []
    for start in range(0, len(test_ids), INTERLEAVE_WIDTH):
        queues = [_graph_lines(g, graphs[g][1]) for g in test_ids[start : start + INTERLEAVE_WIDTH]]
        cursors = [0] * len(queues)
        while any(c < len(q) for c, q in zip(cursors, queues)):
            emitted = False
            for i, queue in enumerate(queues):
                if cursors[i] < len(queue) and rng.random() >= SKIP_PROB:
                    test.append(queue[cursors[i]])
                    cursors[i] += 1
                    emitted = True
            if not emitted:  # every live graph skipped: force progress
                i = next(i for i, q in enumerate(queues) if cursors[i] < len(q))
                test.append(queues[i][cursors[i]])
                cursors[i] += 1
    return train, test, labels


# -- cache ---------------------------------------------------------------------


@dataclass(frozen=True)
class Inputs:
    directory: Path
    train: Path
    test: Path
    labels: Path
    checksum: str
    train_graphs: int
    test_edges: int


def _settings(workload: Workload, seed: int) -> dict:
    # Any edit of this file, generator included, invalidates cached inputs.
    source = hashlib.sha256(Path(__file__).read_bytes()).hexdigest()[:16]
    return {"seed": seed, "workload": asdict(workload), "generator": source}


def _checksum(paths) -> str | None:
    digest = hashlib.sha256()
    try:
        for path in paths:
            digest.update(path.read_bytes())
    except FileNotFoundError:
        return None
    return digest.hexdigest()[:16]


def prepare(workload: Workload, seed: int, rebuild: bool = False) -> Inputs:
    """Write (or reuse) the workload's TSV and labels files for ``seed``."""
    directory = CACHE_DIR / workload.name
    train, test, labels = (directory / n for n in ("train.tsv", "test.tsv", "labels.tsv"))
    manifest_path = directory / "manifest.json"
    settings = _settings(workload, seed)
    manifest = None
    if manifest_path.exists() and not rebuild:
        manifest = json.loads(manifest_path.read_text())
        if manifest.get("settings") != json.loads(json.dumps(settings)):
            manifest = None
    if manifest is None or _checksum((train, test, labels)) != manifest["checksum"]:
        directory.mkdir(parents=True, exist_ok=True)
        train_lines, test_lines, label_map = generate(workload, seed)
        train.write_text("".join(train_lines), encoding="ascii")
        test.write_text("".join(test_lines), encoding="ascii")
        labels.write_text(
            "".join(f"{g}\t{label_map[g]}\n" for g in sorted(label_map)), encoding="ascii"
        )
        manifest = {
            "settings": settings,
            "checksum": _checksum((train, test, labels)),
            "train_graphs": workload.train_graphs,
            "test_edges": len(test_lines),
        }
        manifest_path.write_text(json.dumps(manifest, indent=1) + "\n")
    return Inputs(
        directory, train, test, labels, manifest["checksum"],
        manifest["train_graphs"], manifest["test_edges"],
    )


def main() -> None:
    parser = argparse.ArgumentParser(description="Rebuild a workload's cached inputs.")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    args = parser.parse_args()
    inputs = prepare(WORKLOADS[args.workload], args.seed, rebuild=True)
    print(f"{inputs.directory}: {inputs.test_edges} test edges, checksum {inputs.checksum}")


if __name__ == "__main__":
    main()
