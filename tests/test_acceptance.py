"""Acceptance suite: one test per criterion, printed pass/fail lines.

Run with ``pytest tests/test_acceptance.py -s`` to see the lines as they
complete. The detection workload (two planted behavior classes of 50
graphs plus 5 anomalies, streamed in groups of 10 after bootstrapping on
75% of the benign graphs) is built once per session and shared.
"""

import io
import string
import time
from collections import Counter

import numpy as np
import pytest

from sketchstream import (
    GeneratorConfig,
    GraphStore,
    HashFamily,
    RunConfig,
    apply_delta,
    batch_projection,
    estimate_cosine,
    exact_cosine,
    format_edge,
    fresh_state,
    generate_dataset,
    generate_stream,
    load_model,
    merge,
    run_bootstrap,
    run_stream,
    save_model,
    shingle_vector,
)
from sketchstream.clustering import ClusterModel, bootstrap_model
from sketchstream.shingles import ChunkDelta

from conftest import fold_stream

DETECTION_SEEDS = tuple(range(10))
LETTERS = string.ascii_letters


def _report(number, name, passed, detail=""):
    status = "PASS" if passed else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"criterion {number:02d} {name}: {status}{suffix}")
    assert passed, f"criterion {number} {name} failed{suffix}"


def detection_config(seed):
    return GeneratorConfig(
        num_behavior_classes=2,
        graphs_per_class=50,
        anomaly_fraction=5 / 105,
        avg_nodes=100,
        avg_edges=600,
        interleave_width=10,
        separation=1.0,
        seed=seed,
    )


def run_detection(seed, sketch_bits, max_edges=None):
    dataset = generate_dataset(detection_config(seed), train_fraction=0.75)
    if max_edges == "tenth":
        max_edges = max(1, len(dataset.test) // 10)
    config = RunConfig(
        hops=1,
        sketch_bits=sketch_bits,
        candidate_chunk_lengths=(8, 16, 32, 64),
        candidate_cluster_counts=(2, 3, 4, 5),
        snapshot_interval=500,
        cluster_seed=seed + 1000,
        family_seed=seed + 2000,
        max_edges=max_edges,
    )
    model, report = run_bootstrap([format_edge(r) for r in dataset.train], config)
    result = run_stream(
        model, [format_edge(r) for r in dataset.test], config, labels=dataset.labels
    )
    return dataset, result


@pytest.fixture(scope="session")
def detection_runs():
    """Criterion-6 workload at L=1000 for every seed, shared downstream."""
    return {seed: run_detection(seed, 1000) for seed in DETECTION_SEEDS}


def random_chunk(rng, length=25):
    return "".join(LETTERS[int(i)] for i in rng.integers(0, len(LETTERS), size=length))


# -- 1: incremental equals batch ---------------------------------------------


def test_criterion_01_incremental_batch_equivalence():
    started = time.perf_counter()
    checked = 0
    for seed in range(50):
        config = GeneratorConfig(
            num_behavior_classes=2,
            graphs_per_class=3,
            anomaly_fraction=0.2,
            avg_nodes=12,
            avg_edges=40,
            interleave_width=3,
            separation=0.9,
            seed=seed,
        )
        records = [rec for rec, _ in generate_stream(config)]
        assert len(records) <= 5000
        hops = 1 + seed % 3
        chunk_length = 3 + seed % 6
        family = HashFamily.generate(128, chunk_length, seed=seed + 400)
        store, states = fold_stream(records, hops, chunk_length, family)
        for graph_id in store.graph_ids():
            vector = shingle_vector(store, graph_id, hops, chunk_length)
            expected = batch_projection(vector, family)
            assert np.array_equal(states[graph_id].projection, expected.projection)
            checked += 1
    elapsed = time.perf_counter() - started
    _report(
        1,
        "incremental-batch equivalence",
        elapsed < 30.0,
        f"{checked} graphs over 50 streams, {elapsed:.1f}s",
    )


# -- 2: similarity preservation ------------------------------------------------


def test_criterion_02_similarity_preservation():
    started = time.perf_counter()
    rng = np.random.default_rng(321)
    family = HashFamily.generate(1000, 25, seed=11)

    def random_pair():
        shared = 0 if rng.random() < 0.15 else int(rng.integers(20, 60))
        a, b = Counter(), Counter()
        for _ in range(shared):
            chunk = random_chunk(rng)
            a[chunk] += int(rng.integers(1, 10))
            b[chunk] += int(rng.integers(1, 10))
        for _ in range(int(rng.integers(1, 10))):
            a[random_chunk(rng)] += int(rng.integers(1, 10))
        for _ in range(int(rng.integers(1, 10))):
            b[random_chunk(rng)] += int(rng.integers(1, 10))
        return a, b

    errors = []
    for _ in range(200):
        a, b = random_pair()
        estimate = estimate_cosine(
            batch_projection(a, family).sketch, batch_projection(b, family).sketch
        )
        errors.append(abs(estimate - exact_cosine(a, b)))
    errors = np.asarray(errors)
    within = float(np.mean(errors <= 0.1))
    mae = float(errors.mean())
    elapsed = time.perf_counter() - started
    _report(
        2,
        "similarity preservation",
        within >= 0.95 and mae <= 0.03 and elapsed < 10.0,
        f"within0.1={within:.1%} mae={mae:.4f} {elapsed:.1f}s",
    )


# -- 3: family uniformity and pairwise independence ----------------------------


def test_criterion_03_family_uniformity_and_independence():
    rng = np.random.default_rng(20240817)
    family = HashFamily.generate(1000, 25, seed=99)
    chunks = set()
    while len(chunks) < 10_000:
        chunks.add(random_chunk(rng))
    chunks = sorted(chunks)
    values = np.stack([family.hash_values(c) for c in chunks])  # (10000, 1000)

    # balance of each function over 10^4 random chunks
    per_function = np.abs((values == 1).mean(axis=0) - 0.5)
    balance_ok = float(per_function.max()) <= 0.02

    # balance of each chunk over 10^4 functions
    wide = HashFamily.generate(10_000, 25, seed=100)
    per_chunk = np.array(
        [abs((wide.hash_values(c) == 1).mean() - 0.5) for c in chunks[:200]]
    )
    chunk_ok = float(per_chunk.max()) <= 0.02

    # pairwise independence: conditional probability of +1 given +1,
    # pooled over random pairs, and per pair over the 10^4-function family
    pairs = rng.integers(0, len(chunks), size=(400, 2))
    hits = trials = 0
    for i, j in pairs:
        if i == j:
            continue
        conditioned = values[i] == 1
        trials += int(conditioned.sum())
        hits += int((values[j][conditioned] == 1).sum())
    pooled_dev = abs(hits / trials - 0.5)

    per_pair_devs = []
    for i, j in pairs[:100]:
        if i == j:
            continue
        a = wide.hash_values(chunks[int(i)]) == 1
        b = wide.hash_values(chunks[int(j)]) == 1
        per_pair_devs.append(abs(float(b[a].mean()) - 0.5))
    independence_ok = pooled_dev <= 0.03 and max(per_pair_devs) <= 0.03

    _report(
        3,
        "hash family uniformity/independence",
        balance_ok and chunk_ok and independence_ok,
        f"fn={per_function.max():.4f} chunk={per_chunk.max():.4f} "
        f"pooled={pooled_dev:.4f} pair={max(per_pair_devs):.4f}",
    )


# -- 4: mergeability ------------------------------------------------------------


def test_criterion_04_mergeability():
    rng = np.random.default_rng(4242)
    family = HashFamily.generate(256, 12, seed=8)

    def random_counts():
        return Counter(
            {
                random_chunk(rng, int(rng.integers(1, 13))): int(rng.integers(1, 9))
                for _ in range(int(rng.integers(1, 40)))
            }
        )

    exact = 0
    for _ in range(100):
        z1, z2 = random_counts(), random_counts()
        merged = merge(batch_projection(z1, family), batch_projection(z2, family))
        direct = batch_projection(z1 + z2, family)
        if np.array_equal(merged.projection, direct.projection):
            exact += 1
    _report(4, "sketch mergeability", exact == 100, f"{exact}/100 exact")


# -- 5: centroid-mean invariant --------------------------------------------------


def test_criterion_05_centroid_mean_invariant():
    rng = np.random.default_rng(555)
    width = 64
    family = HashFamily.generate(width, 6, seed=9)
    base_centroids = rng.normal(size=(4, width)) * 3
    base_sizes = [5, 5, 5, 5]
    model = ClusterModel(family, 1, 6, base_centroids, base_sizes, [0.9] * 4)
    base_mass = {q: model.centroids[q] * base_sizes[q] for q in range(4)}

    states = {g: fresh_state(width) for g in range(40)}
    members: dict[int, np.ndarray] = {}
    worst = 0.0
    for step in range(10_000):
        graph = int(rng.integers(0, 40))
        chunk_pool = [random_chunk(rng, int(rng.integers(1, 7))) for _ in range(3)]
        delta = ChunkDelta.cancelled(chunk_pool, chunk_pool[:1])
        states[graph] = apply_delta(states[graph], family, delta)
        model.update_graph(graph, states[graph])
        if isinstance(model.assignments[graph], int):
            members[graph] = states[graph].projection
        else:
            members.pop(graph, None)
        if step % 500 == 0 or step == 9_999:
            for q in range(4):
                if not model.live[q]:
                    continue
                mass = base_mass[q].copy()
                count = base_sizes[q]
                for gid, projection in members.items():
                    if model.assignments.get(gid) == q:
                        mass = mass + projection
                        count += 1
                assert model.sizes[q] == count
                scale = np.maximum(np.abs(mass / count), 1e-12)
                worst = max(worst, float(
                    (np.abs(model.centroids[q] - mass / count) / scale).max()
                ))
    _report(5, "centroid-mean invariant", worst <= 1e-9, f"worst rel dev {worst:.2e}")


# -- 6: planted detection ---------------------------------------------------------


def test_criterion_06_planted_detection(detection_runs):
    started = time.perf_counter()
    passing = 0
    finals = {}
    for seed, (dataset, result) in detection_runs.items():
        final = result.snapshots[-1]
        finals[seed] = (final.ap, final.auc)
        if final.ap >= 0.9 and final.auc >= 0.95:
            passing += 1
    elapsed = time.perf_counter() - started
    detail = " ".join(f"s{seed}:{ap:.2f}/{auc:.2f}" for seed, (ap, auc) in finals.items())
    _report(6, "planted detection", passing >= 9, f"{passing}/10 seeds pass; {detail}")


def test_criterion_06_runtime(detection_runs):
    total = sum(result.elapsed_seconds for _, result in detection_runs.values())
    _report(6, "planted detection streaming runtime", total < 120.0, f"{total:.1f}s streaming")


# -- 7: dip and recover -------------------------------------------------------------


def test_criterion_07_dip_and_recover(detection_runs):
    wins = tries = 0
    for seed, (dataset, result) in detection_runs.items():
        by_edges = {s.edges_processed: s.ap for s in result.snapshots}
        edge_points = sorted(by_edges)
        arrivals = []
        for group in dataset.test_groups:
            members = set(group)
            arrivals.append(
                next(i for i, rec in enumerate(dataset.test) if rec.graph_id in members)
            )
        for arrival in arrivals:
            later = [e for e in edge_points if e > arrival]
            if not later:
                continue
            first = later[0]
            index = edge_points.index(first)
            if index + 20 >= len(edge_points):
                continue
            ap_then = by_edges[first]
            ap_later = by_edges[edge_points[index + 20]]
            if ap_then is None or ap_later is None:
                continue
            tries += 1
            if ap_then < ap_later:
                wins += 1
    _report(7, "dip-and-recover shape", wins * 2 > tries, f"{wins}/{tries} groups recover")


# -- 8: memory bound -----------------------------------------------------------------


def test_criterion_08_memory_bound(detection_runs):
    worst = -1.0
    details = []
    for seed in DETECTION_SEEDS:
        _, unlimited = detection_runs[seed]
        dataset, limited = run_detection(seed, 1000, max_edges="tenth")
        cap = max(1, len(dataset.test) // 10)
        assert limited.peak_edges <= cap
        drop = unlimited.snapshots[-1].ap - limited.snapshots[-1].ap
        worst = max(worst, drop)
        details.append(f"s{seed}:{drop:+.3f}")
    _report(
        8,
        "memory-bounded degradation",
        worst <= 0.15,
        f"worst AP drop {worst:+.3f}; " + " ".join(details),
    )


# -- 9: throughput -------------------------------------------------------------------


def test_criterion_09_throughput():
    dataset = generate_dataset(detection_config(0), train_fraction=0.75)
    store = GraphStore()
    for rec in dataset.train:
        store.insert(rec)
    model, _ = bootstrap_model(
        store,
        hops=1,
        candidate_chunk_lengths=(25,),
        candidate_cluster_counts=(2,),
        sketch_bits=100,
        cluster_seed=1,
        family_seed=2,
    )
    config = RunConfig(hops=1, sketch_bits=100, snapshot_interval=10_000)
    lines = [format_edge(r) for r in dataset.test]
    saved = io.StringIO()
    save_model(model, saved)
    best = 0.0
    for _ in range(3):
        # A fresh model per attempt: run_stream updates its model in place.
        fresh = load_model(io.StringIO(saved.getvalue()))
        result = run_stream(fresh, lines, config, labels=dataset.labels)
        best = max(best, result.edges_per_second)
        if best >= 10_000:
            break
    _report(
        9,
        "throughput at 100-bit sketches",
        best >= 10_000,
        f"measured {best:,.0f} edges/sec over {result.edges_processed} edges",
    )


# -- 10: sketch-size robustness --------------------------------------------------------


def test_criterion_10_sketch_size_robustness(detection_runs):
    ap_wide = np.mean([result.snapshots[-1].ap for _, result in detection_runs.values()])
    ap_narrow = np.mean(
        [run_detection(seed, 100)[1].snapshots[-1].ap for seed in DETECTION_SEEDS]
    )
    loss = float(ap_wide - ap_narrow)
    _report(
        10,
        "sketch-size robustness",
        loss <= 0.05,
        f"mean final AP {ap_wide:.4f} at 1000 bits vs {ap_narrow:.4f} at 100 bits",
    )
