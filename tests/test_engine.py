import io
from collections import Counter
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import sketchstream.engine as engine
from sketchstream import (
    ClusterModel,
    GeneratorConfig,
    HashFamily,
    ParseError,
    RunConfig,
    batch_projection,
    chunk_shingle,
    cosine_distance,
    edge_delta,
    format_edge,
    generate_dataset,
    load_model,
    node_shingle,
    run_bootstrap,
    run_stream,
    save_model,
    shingle_vector,
)
from sketchstream.clustering import UNASSIGNED
from sketchstream.engine import report_text

from test_golden import CASES, golden_config, golden_dataset


def small_dataset(seed=5, **overrides):
    defaults = dict(
        num_behavior_classes=2,
        graphs_per_class=8,
        anomaly_fraction=2 / 18,
        avg_nodes=20,
        avg_edges=60,
        interleave_width=4,
        separation=1.0,
        seed=seed,
    )
    defaults.update(overrides)
    return generate_dataset(GeneratorConfig(**defaults), train_fraction=0.75)


def small_config(**overrides):
    defaults = dict(
        hops=1,
        sketch_bits=128,
        candidate_chunk_lengths=(2, 4, 8),
        candidate_cluster_counts=(2, 3),
        snapshot_interval=100,
        cluster_seed=3,
        family_seed=4,
    )
    defaults.update(overrides)
    return RunConfig(**defaults)


def lines_of(records):
    return [format_edge(r) for r in records]


def test_bootstrap_recovers_two_classes_and_reports():
    dataset = small_dataset()
    model, report = run_bootstrap(lines_of(dataset.train), small_config())
    assert report.n_clusters == 2
    assert model.n_clusters == 2
    text = report_text(report)
    assert "clusters 2" in text and "silhouette" in text


def test_bootstrap_is_deterministic(tmp_path):
    dataset = small_dataset()
    config = small_config()
    paths = []
    for name in ("a.model", "b.model"):
        path = tmp_path / name
        run_bootstrap(lines_of(dataset.train), config, model_path=path)
        paths.append(path.read_bytes())
    assert paths[0] == paths[1]


def test_bootstrap_rejects_too_few_graphs():
    dataset = small_dataset(graphs_per_class=2, num_behavior_classes=2, anomaly_fraction=0.0)
    config = small_config(candidate_cluster_counts=(10,))
    with pytest.raises(ValueError):
        run_bootstrap(lines_of(dataset.train), config)


def test_model_round_trip_preserves_behavior():
    dataset = small_dataset()
    config = small_config()
    model, _ = run_bootstrap(lines_of(dataset.train), config)
    dump = io.StringIO()
    save_model(model, dump)
    loaded = load_model(io.StringIO(dump.getvalue()))
    assert loaded.n_clusters == model.n_clusters
    assert loaded.chunk_length == model.chunk_length
    assert loaded.hops == model.hops
    assert np.array_equal(loaded.centroids, model.centroids)
    assert np.array_equal(loaded.thresholds, model.thresholds)
    assert np.array_equal(loaded.sizes, model.sizes)
    assert np.array_equal(loaded.family.coefficients, model.family.coefficients)
    # a second dump of the loaded model is byte-identical
    second = io.StringIO()
    save_model(loaded, second)
    assert second.getvalue() == dump.getvalue()


def test_load_model_rejects_garbage():
    with pytest.raises(ValueError):
        load_model(io.StringIO("not a model\n"))


@pytest.fixture(scope="module")
def model_text():
    model, _ = run_bootstrap(lines_of(small_dataset().train), small_config())
    dump = io.StringIO()
    save_model(model, dump)
    return dump.getvalue()


def test_truncated_model_file_raises_value_error(model_text):
    lines = model_text.splitlines(keepends=True)
    assert len(lines) == 6 + 2 * 2  # header, five fields, two clusters
    for cut in range(len(lines)):
        with pytest.raises(ValueError, match=rf"^model file line {cut + 1}: "):
            load_model(io.StringIO("".join(lines[:cut])))


@pytest.mark.parametrize(
    "line_no,edit,named_line",
    [
        (2, lambda line: "sketch_bits x", 2),
        (6, lambda line: "clusters 3", 11),
        (7, lambda line: line.replace("cluster 0 ", "cluster 5 "), 7),
        (8, lambda line: line.replace("cluster 1 ", "cluster 0 "), 8),
        (10, lambda line: line.replace("projection 1 ", "projection 0 "), 10),
        (10, lambda line: line.rsplit(" ", 1)[0], 10),
        (10, lambda line: line + " 0.5", 10),
        (10, lambda line: line + "\nprojection 1 0.5", 11),
        pytest.param(7, lambda line: line.rsplit(" ", 1)[0] + " nan", 7, id="threshold-nan"),
        pytest.param(10, lambda line: line.rsplit(" ", 1)[0] + " inf", 10, id="projection-inf"),
        pytest.param(3, lambda line: "chunk_length 20000", 3, id="chunk-length-inexact"),
        pytest.param(
            7, lambda line: line.replace(" size ", " size 9" + "0" * 19 + "0"), 7, id="size-beyond-int64"
        ),
        pytest.param(4, lambda line: "hops +1", 4, id="hops-signed"),
        pytest.param(4, lambda line: "hops 01", 4, id="hops-leading-zero"),
        pytest.param(4, lambda line: "hops \u0661", 4, id="hops-arabic-indic-digit"),
        pytest.param(5, lambda line: "family_seed \uff17", 5, id="family-seed-fullwidth-digit"),
        pytest.param(7, lambda line: line.replace(" size ", " size 0"), 7, id="size-leading-zero"),
        pytest.param(10, lambda line: line.rsplit(" ", 1)[0] + " 1e2", 10, id="projection-exponent"),
        pytest.param(10, lambda line: line.rsplit(" ", 1)[0] + " 3", 10, id="projection-int-text"),
    ],
)
def test_corrupt_model_file_names_the_line(model_text, line_no, edit, named_line):
    lines = model_text.splitlines()
    lines[line_no - 1] = edit(lines[line_no - 1])
    with pytest.raises(ValueError, match=rf"^model file line {named_line}: "):
        load_model(io.StringIO("\n".join(lines) + "\n"))


_TOKENS = st.one_of(
    st.integers(-3, 40_000).map(str),
    st.floats(allow_nan=True, allow_infinity=True).map(repr),
    st.sampled_from(["", "x", "+1", "1_0", "\u0661", "1e309", "-0", "9" * 40, "9" * 400, "cluster", "\t"]),
)


@settings(max_examples=400, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data())
def test_a_model_file_with_one_mutated_line_fails_cleanly_or_round_trips(model_text, data):
    lines = model_text.splitlines()
    line_no = data.draw(st.integers(1, len(lines)), label="line_no")
    tokens = lines[line_no - 1].split(" ")
    position = data.draw(st.integers(0, len(tokens)), label="position")
    edit = data.draw(st.sampled_from(["replace", "insert", "delete", "line"]), label="edit")
    if edit == "line":
        lines[line_no - 1] = data.draw(st.text(max_size=20), label="text")
    elif edit == "delete":
        del tokens[min(position, len(tokens) - 1)]
    else:
        if edit == "replace" and position < len(tokens):
            del tokens[position]
        tokens.insert(position, data.draw(_TOKENS, label="token"))
    if edit != "line":
        lines[line_no - 1] = " ".join(tokens)
    text = "\n".join(lines) + "\n"
    try:
        model = load_model(io.StringIO(text))
    except ValueError as exc:
        assert str(exc).startswith("model file line ")
        return
    saved = io.StringIO()
    save_model(model, saved)
    assert saved.getvalue() == text


def test_stream_of_known_graph_scores_below_threshold():
    dataset = small_dataset()
    config = small_config()
    model, _ = run_bootstrap(lines_of(dataset.train), config)
    # replay one complete benign training graph as a fresh stream
    graph_id = dataset.train_ids[0]
    records = [r for r in dataset.train if r.graph_id == graph_id]
    result = run_stream(model, lines_of(records), config)
    score = result.model.scores[graph_id]
    assignment = result.model.assignments[graph_id]
    assert isinstance(assignment, int)
    assert score <= result.model.thresholds[assignment]


def test_empty_stream_emits_single_empty_snapshot():
    dataset = small_dataset()
    config = small_config()
    model, _ = run_bootstrap(lines_of(dataset.train), config)
    result = run_stream(model, [], config)
    assert len(result.snapshots) == 1
    assert result.snapshots[0].edges_processed == 0
    assert result.snapshots[0].rows == []
    assert result.edges_processed == 0


def test_stream_runs_are_deterministic():
    dataset = small_dataset()
    config = small_config()
    outputs = []
    for _ in range(2):
        model, _ = run_bootstrap(lines_of(dataset.train), config)
        csv = io.StringIO()
        run_stream(model, lines_of(dataset.test), config, labels=dataset.labels, csv_fp=csv)
        outputs.append(csv.getvalue())
    assert outputs[0] == outputs[1]


def test_snapshot_cadence_and_final_row():
    dataset = small_dataset()
    config = small_config(snapshot_interval=100)
    model, _ = run_bootstrap(lines_of(dataset.train), config)
    result = run_stream(model, lines_of(dataset.test), config)
    edges = result.edges_processed
    expected = list(range(100, edges + 1, 100))
    if edges % 100 != 0:
        expected.append(edges)
    assert [s.edges_processed for s in result.snapshots] == expected


def test_snapshot_metrics_appear_only_with_labels():
    dataset = small_dataset()
    config = small_config(snapshot_interval=10_000)
    model, _ = run_bootstrap(lines_of(dataset.train), config)
    unlabeled = run_stream(model, lines_of(dataset.test), config)
    assert all(s.ap is None and s.auc is None for s in unlabeled.snapshots)
    model2, _ = run_bootstrap(lines_of(dataset.train), config)
    labeled = run_stream(model2, lines_of(dataset.test), config, labels=dataset.labels)
    final = labeled.snapshots[-1]
    assert final.ap is not None and 0.0 <= final.ap <= 1.0
    assert final.auc is not None and 0.0 <= final.auc <= 1.0


def test_csv_has_expected_shape():
    dataset = small_dataset()
    config = small_config(snapshot_interval=200)
    model, _ = run_bootstrap(lines_of(dataset.train), config)
    csv = io.StringIO()
    result = run_stream(model, lines_of(dataset.test), config, labels=dataset.labels, csv_fp=csv)
    lines = csv.getvalue().splitlines()
    assert lines[0] == "edges_processed,graph_id,score,assignment,ap,auc"
    data = [line.split(",") for line in lines[1:]]
    assert all(len(row) == 6 for row in data)
    snapshot_edges = {int(row[0]) for row in data}
    assert snapshot_edges == {s.edges_processed for s in result.snapshots if s.rows}
    assignments = {row[3] for row in data}
    assert assignments <= {"0", "1", "2", "ATTACK", "UNASSIGNED"}


def test_final_sketches_match_batch_projection_without_eviction():
    # the whole-pipeline oracle: stream the test set with unlimited memory
    # and compare every graph's folded projection to the batch projection
    # of its final shingle vector
    dataset = small_dataset()
    config = small_config()
    model, _ = run_bootstrap(lines_of(dataset.train), config)
    result = run_stream(model, lines_of(dataset.test), config)
    assert result.dropped_graphs == 0
    store = result.store
    for graph_id, state in result.states.items():
        vector = shingle_vector(store, graph_id, model.hops, model.chunk_length)
        expected = batch_projection(vector, model.family)
        assert np.array_equal(state.projection, expected.projection)


def test_resident_edges_respect_the_cap():
    dataset = small_dataset()
    config = small_config(max_edges=40)
    model, _ = run_bootstrap(lines_of(dataset.train), config)
    result = run_stream(model, lines_of(dataset.test), config)
    assert result.peak_edges <= 40
    assert result.store.total_edges <= 40
    # detection state persists for graphs whose edges were evicted
    assert len(result.model.scores) == len({r.graph_id for r in dataset.test})


def test_tracked_graph_cap_drops_oldest_state():
    dataset = small_dataset()
    config = small_config(max_tracked_graphs=3)
    model, _ = run_bootstrap(lines_of(dataset.train), config)
    result = run_stream(model, lines_of(dataset.test), config)
    assert len(result.states) <= 3
    assert len(result.model.scores) <= 3
    # every graph past the first three was dropped at least once
    assert result.dropped_graphs >= len({r.graph_id for r in dataset.test}) - 3
    # centroid sizes stay consistent: every assigned graph is still tracked
    assigned = [g for g, a in result.model.assignments.items() if isinstance(a, int)]
    assert set(assigned) <= set(result.states)


@pytest.mark.parametrize("seed,hops", CASES)
def test_dropped_graph_leaves_store_and_sketch_consistent(seed, hops):
    # Three tracked graphs against an interleave width of five: graphs are
    # dropped while still live and come back on their next edge.
    dataset = golden_dataset(seed)
    config = replace(golden_config(seed, hops), max_tracked_graphs=3)
    model, _ = run_bootstrap(lines_of(dataset.train), config)
    model_file = io.StringIO()
    save_model(model, model_file)
    saved = load_model(io.StringIO(model_file.getvalue()))
    result = run_stream(model, lines_of(dataset.test), config)
    assert result.dropped_graphs > 0
    assert len(result.states) == 3
    assert set(result.store.graph_ids()) <= set(result.states)
    for graph_id, state in result.states.items():
        vector = shingle_vector(result.store, graph_id, model.hops, model.chunk_length)
        expected = batch_projection(vector, model.family).projection
        assert np.array_equal(state.projection, expected), f"graph {graph_id}"
    # Each live centroid is still the mean of its saved members and its
    # tracked members: dropped graphs were taken back out of the means.
    model = result.model
    assert model.live.any()
    for q in np.flatnonzero(model.live):
        members = [g for g, a in model.assignments.items() if isinstance(a, int) and a == q]
        assert model.sizes[q] == saved.sizes[q] + len(members)
        expected = saved.centroids[q] * saved.sizes[q]
        expected = expected + sum((result.states[g].projection for g in members), 0)
        error = np.abs(model.centroids[q] * model.sizes[q] - expected).max()
        assert error <= 1e-9 * max(np.abs(expected).max(), 1.0), f"cluster {q}"


def test_parse_errors_carry_line_numbers_through_the_engine():
    dataset = small_dataset()
    config = small_config()
    model, _ = run_bootstrap(lines_of(dataset.train), config)
    bad = lines_of(dataset.test[:3]) + ["broken line\n"]
    with pytest.raises(ParseError, match="line 4"):
        run_stream(model, bad, config)


def test_unassigned_graphs_report_unassigned_in_snapshot():
    dataset = small_dataset()
    config = small_config(snapshot_interval=1)
    model, _ = run_bootstrap(lines_of(dataset.train), config)
    result = run_stream(model, lines_of(dataset.test[:1]), config)
    rows = result.snapshots[0].rows
    assert len(rows) == 1
    assert rows[0][2] in {UNASSIGNED, "ATTACK"} or rows[0][2].isdigit()


@pytest.mark.parametrize("hops", [1, 2, 3])
def test_chunk_memo_matches_the_live_store_after_every_edge(hops, monkeypatch):
    # A small cap evicts on most edges and a tracked-graph cap of two
    # drops live graphs; after each edge, every memo entry must be a
    # resident node's chunk list in the live store.
    dataset = small_dataset(seed=hops)
    config = small_config(hops=hops, max_edges=40, max_tracked_graphs=2)
    rng = np.random.default_rng(hops)
    family = HashFamily.generate(config.sketch_bits, 4, seed=hops)
    centroids = rng.normal(size=(2, config.sketch_bits))
    model = ClusterModel(family, hops, 4, centroids, [3, 3], [0.5, 0.5])
    seen = []

    def check(store, memo):
        for node, chunks in memo.chunks.items():
            assert store.has_node(node), f"memo holds forgotten node {node}"
            expected = chunk_shingle(node_shingle(store, node, hops), memo.chunk_length)
            assert chunks == expected, f"stale memo entry for {node}"

    def checked_delta(store, rec, memo):
        check(store, memo)  # as the previous edge's eviction and drop left it
        seen.append((store, memo))
        return edge_delta(store, rec, memo)

    monkeypatch.setattr(engine, "edge_delta", checked_delta)
    result = run_stream(model, lines_of(dataset.test), config)
    check(*seen[-1])
    assert result.edges_processed == len(seen) > 2 * config.max_edges
    assert result.dropped_graphs > 0
    assert len(seen[-1][1].chunks) > 0


def test_streamed_scores_equal_the_distance_to_the_updated_centroid():
    dataset = small_dataset()
    config = small_config()
    model, _ = run_bootstrap(lines_of(dataset.train), config)
    update = model.update_graph
    scored = []

    def checked_update(graph_id, state):
        event = update(graph_id, state)
        if model.live[event.nearest]:
            assert event.score == cosine_distance(state.sketch, model.sketches[event.nearest])
            scored.append(event.score)
        return event

    model.update_graph = checked_update
    result = run_stream(model, lines_of(dataset.test), config)
    assert len(scored) == result.edges_processed
