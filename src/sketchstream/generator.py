"""Synthetic labeled edge streams with planted behavior classes.

Each behavior class is a template graph (a random typed DAG with back
edges). Member graphs are sampled from their class template by per-edge
perturbation; anomalous graphs are sampled from a separate template whose
structural distance from the normal classes is controlled by
``separation``. All templates diverge from one shared base graph: at
``separation`` 0.0 every class is identical to the base, at 1.0 node types
and edge wiring are fully resampled.

The stream interleaves the edges of up to ``interleave_width`` graphs at a
time: graphs are shuffled into arrival order, split into consecutive
groups of that width, and each group's edges are emitted round-robin with
random skips. Timestamps are per-graph logical counters, so a graph's
edge order is independent of how the stream is interleaved.
"""

from __future__ import annotations

import string
from dataclasses import dataclass, field
from typing import IO, Iterable, Iterator, Mapping

import numpy as np

from .records import EdgeRecord, _too_many_digits

LABEL_NORMAL = "normal"
LABEL_ANOMALY = "anomaly"

# Fraction of a member graph's edges resampled away from its template.
MEMBER_EDGE_NOISE = 0.05
# Probability that a live graph is skipped on one round-robin pass.
INTERLEAVE_SKIP_PROB = 0.3
# Relative jitter applied once to the base template's node/edge counts.
_SIZE_JITTER = 0.10
# Node activity is bursty: tree parents come from a recent window and extra
# edges target nearby nodes, so a node's outgoing edges cluster in time.
# This is the locality of reference the edge-eviction policy relies on;
# touches of long-evicted nodes would re-register them as fresh nodes and
# pollute sketches with restart artifacts.
_PARENT_WINDOW = 8
_LOCAL_DEST_SPAN = 6


@dataclass(frozen=True)
class GeneratorConfig:
    """Parameters of the synthetic stream. Desk-scale defaults."""

    num_behavior_classes: int = 2
    graphs_per_class: int = 50
    anomaly_fraction: float = 0.05
    avg_nodes: int = 100
    avg_edges: int = 600
    node_type_alphabet: str = string.ascii_lowercase
    edge_type_alphabet: str = string.ascii_uppercase
    interleave_width: int = 10
    separation: float = 0.8
    seed: int = 0

    def __post_init__(self) -> None:
        for name in ("num_behavior_classes", "graphs_per_class", "avg_nodes", "avg_edges"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be positive")
        if self.avg_edges < self.avg_nodes - 1:
            raise ValueError("avg_edges must be at least avg_nodes - 1")
        if self.interleave_width < 1:
            raise ValueError("interleave_width must be at least 1")
        if not 0.0 <= self.anomaly_fraction < 1.0:
            raise ValueError("anomaly_fraction must lie in [0, 1)")
        if not 0.0 <= self.separation <= 1.0:
            raise ValueError("separation must lie in [0, 1]")
        if self.seed < 0:
            raise ValueError("seed must be non-negative")
        for name in ("node_type_alphabet", "edge_type_alphabet"):
            alphabet = getattr(self, name)
            if not alphabet:
                raise ValueError(f"{name} must not be empty")
            if len(set(alphabet)) != len(alphabet):
                raise ValueError(f"{name} contains repeated symbols")
            for symbol in alphabet:
                if symbol == "\t" or not 0x20 <= ord(symbol) <= 0x7E:
                    raise ValueError(f"{name} symbol {symbol!r} is not printable ASCII")


@dataclass(frozen=True)
class _Template:
    node_types: tuple[str, ...]
    edges: tuple[tuple[int, int, str], ...]  # (source, dest, edge_type)


@dataclass(frozen=True)
class GraphPlan:
    """One graph's label and full edge sequence, in emission order."""

    graph_id: int
    label: str
    node_types: tuple[str, ...]
    edges: tuple[tuple[int, int, str], ...]

    def records(self) -> Iterator[EdgeRecord]:
        for position, (u, w, edge_type) in enumerate(self.edges):
            yield EdgeRecord(
                source_id=u,
                source_type=self.node_types[u],
                dest_id=w,
                dest_type=self.node_types[w],
                timestamp=position + 1,
                edge_type=edge_type,
                graph_id=self.graph_id,
            )


@dataclass
class GeneratedDataset:
    """Train/test split of one generated stream plus its ground truth."""

    config: GeneratorConfig
    train: list[EdgeRecord]
    test: list[EdgeRecord]
    labels: dict[int, str]
    train_ids: list[int]
    test_groups: list[list[int]] = field(default_factory=list)


def _pick(rng: np.random.Generator, alphabet: str) -> str:
    return alphabet[int(rng.integers(0, len(alphabet)))]


def _random_dest(rng: np.random.Generator, n_nodes: int, source: int) -> int:
    """Destination near the source; anywhere when that falls off an end."""
    if n_nodes == 1:
        return source
    rng.random()  # unused, but the seeded streams depend on every draw
    span = min(_LOCAL_DEST_SPAN, n_nodes - 1)
    offset = int(rng.integers(1, span + 1))
    if rng.random() < 0.5:
        offset = -offset
    dest = source + offset
    if 0 <= dest < n_nodes:
        return dest
    dest = int(rng.integers(0, n_nodes - 1))
    return dest + 1 if dest >= source else dest


def _random_template(
    rng: np.random.Generator, n_nodes: int, n_edges: int, config: GeneratorConfig
) -> _Template:
    node_types = tuple(_pick(rng, config.node_type_alphabet) for _ in range(n_nodes))
    keyed: list[tuple[int, int, int, str]] = []  # (burst owner, source, dest, type)
    # Spanning tree with recent parents keeps growth connected and
    # bursty; extra edges (forward, backward, or cross) are owned by a node
    # and emitted during its burst.
    for node in range(1, n_nodes):
        rng.random()  # unused, but the seeded streams depend on every draw
        parent = int(rng.integers(max(0, node - _PARENT_WINDOW), node))
        keyed.append((node, parent, node, _pick(rng, config.edge_type_alphabet)))
    for _ in range(n_edges - (n_nodes - 1)):
        owner = int(rng.integers(0, n_nodes))
        dest = _random_dest(rng, n_nodes, owner)
        keyed.append((owner, owner, dest, _pick(rng, config.edge_type_alphabet)))
    keyed.sort(key=lambda item: item[0])
    return _Template(node_types, tuple((u, w, t) for _, u, w, t in keyed))


def _diverge(
    template: _Template, fraction: float, rng: np.random.Generator, config: GeneratorConfig
) -> _Template:
    """Resample roughly ``fraction`` of node types and edge endpoints/types."""
    n_nodes = len(template.node_types)
    node_types = tuple(
        _pick(rng, config.node_type_alphabet) if rng.random() < fraction else t
        for t in template.node_types
    )
    edges = []
    for u, w, edge_type in template.edges:
        if rng.random() < fraction:
            edges.append((u, _random_dest(rng, n_nodes, u), _pick(rng, config.edge_type_alphabet)))
        else:
            edges.append((u, w, edge_type))
    return _Template(node_types, tuple(edges))


def _plan_graphs(config: GeneratorConfig, rng: np.random.Generator) -> list[GraphPlan]:
    """Build every graph's plan; position in the list is its graph id."""
    n_nodes = max(2, int(round(rng.normal(config.avg_nodes, _SIZE_JITTER * config.avg_nodes))))
    n_edges = max(
        n_nodes - 1, int(round(rng.normal(config.avg_edges, _SIZE_JITTER * config.avg_edges)))
    )
    base = _random_template(rng, n_nodes, n_edges, config)
    class_templates = [
        _diverge(base, config.separation, rng, config)
        for _ in range(config.num_behavior_classes)
    ]
    anomaly_template = _diverge(base, config.separation, rng, config)

    n_normal = config.num_behavior_classes * config.graphs_per_class
    frac = config.anomaly_fraction
    n_anomalies = int(round(frac * n_normal / (1.0 - frac)))

    drafts: list[tuple[str, _Template]] = []
    for template in class_templates:
        drafts.extend((LABEL_NORMAL, template) for _ in range(config.graphs_per_class))
    drafts.extend((LABEL_ANOMALY, anomaly_template) for _ in range(n_anomalies))

    members = [
        (label, _diverge(template, MEMBER_EDGE_NOISE, rng, config))
        for label, template in drafts
    ]
    order = rng.permutation(len(members))
    return [
        GraphPlan(graph_id, members[int(idx)][0], members[int(idx)][1].node_types,
                  members[int(idx)][1].edges)
        for graph_id, idx in enumerate(order)
    ]


def _interleave(
    plans: list[GraphPlan], width: int, rng: np.random.Generator
) -> tuple[list[EdgeRecord], list[list[int]]]:
    """Emit plans in consecutive groups of ``width``, round-robin with skips."""
    records: list[EdgeRecord] = []
    groups: list[list[int]] = []
    for start in range(0, len(plans), width):
        group = plans[start : start + width]
        groups.append([p.graph_id for p in group])
        queues = [list(p.records()) for p in group]
        cursors = [0] * len(group)
        while True:
            emitted = False
            pending = False
            for i, queue in enumerate(queues):
                if cursors[i] >= len(queue):
                    continue
                pending = True
                if rng.random() < INTERLEAVE_SKIP_PROB:
                    continue
                records.append(queue[cursors[i]])
                cursors[i] += 1
                emitted = True
            if not pending:
                break
            if not emitted:
                # Force progress if every live graph skipped this pass.
                for i, queue in enumerate(queues):
                    if cursors[i] < len(queue):
                        records.append(queue[cursors[i]])
                        cursors[i] += 1
                        break
    return records, groups


def generate_dataset(config: GeneratorConfig, train_fraction: float = 0.0) -> GeneratedDataset:
    """Generate the full stream, optionally holding out benign training graphs.

    Training graphs are emitted whole, one after another in graph-id order;
    the remaining graphs form the interleaved test stream. With
    ``train_fraction`` 0 everything lands in the test stream.
    """
    if not 0.0 <= train_fraction < 1.0:
        raise ValueError("train_fraction must lie in [0, 1)")
    rng = np.random.default_rng(config.seed)
    plans = _plan_graphs(config, rng)
    labels = {plan.graph_id: plan.label for plan in plans}

    benign = [plan.graph_id for plan in plans if plan.label == LABEL_NORMAL]
    n_train = int(round(train_fraction * len(benign)))
    train_ids = sorted(
        int(g) for g in rng.choice(benign, size=n_train, replace=False)
    ) if n_train else []
    train_set = set(train_ids)

    by_id = {plan.graph_id: plan for plan in plans}
    train_records: list[EdgeRecord] = []
    for graph_id in train_ids:
        train_records.extend(by_id[graph_id].records())

    test_plans = [plan for plan in plans if plan.graph_id not in train_set]
    test_records, groups = _interleave(test_plans, config.interleave_width, rng)
    return GeneratedDataset(
        config=config,
        train=train_records,
        test=test_records,
        labels=labels,
        train_ids=train_ids,
        test_groups=groups,
    )


def generate_stream(config: GeneratorConfig) -> Iterator[tuple[EdgeRecord, str]]:
    """Yield the whole labeled stream (no train/test split)."""
    dataset = generate_dataset(config, train_fraction=0.0)
    for rec in dataset.test:
        yield rec, dataset.labels[rec.graph_id]


def write_labels(labels: Mapping[int, str], fp: IO[str]) -> None:
    """Write the sidecar labels file: one ``graph_id\\tlabel`` line per graph."""
    for graph_id in sorted(labels):
        fp.write(f"{graph_id}\t{labels[graph_id]}\n")


def read_labels(lines: Iterable[str]) -> dict[int, str]:
    """Parse a labels file: ``graph_id\\tlabel`` per line, empty lines ``"\\n"`` skipped.

    The graph id is ASCII digits alone, within the int digit limit, and the
    label is exactly ``normal`` or ``anomaly``. Raises ``ValueError`` naming the first line that is
    not, or that repeats a graph id.
    """
    labels: dict[int, str] = {}
    for line_no, line in enumerate(lines, start=1):
        if line == "\n":
            continue
        line = line.rstrip("\n")
        graph_id, _, label = line.partition("\t")
        id_ok = graph_id.isascii() and graph_id.isdigit()
        if not id_ok or label not in (LABEL_NORMAL, LABEL_ANOMALY):
            raise ValueError(
                f"labels line {line_no}: expected '<graph id><TAB>{LABEL_NORMAL}' or "
                f"'<graph id><TAB>{LABEL_ANOMALY}', found {line!r}"
            )
        try:
            graph = int(graph_id)
        except ValueError:
            raise ValueError(f"labels line {line_no}: {_too_many_digits(graph_id)}") from None
        if graph in labels:
            raise ValueError(f"labels line {line_no}: graph {graph} is labelled twice")
        labels[graph] = label
    return labels
