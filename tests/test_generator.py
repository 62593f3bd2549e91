import io
from collections import Counter, defaultdict

import pytest

from sketchstream import (
    GeneratorConfig,
    GraphStore,
    LABEL_ANOMALY,
    LABEL_NORMAL,
    exact_cosine_distance,
    format_edge,
    generate_dataset,
    generate_stream,
    parse_edge,
    shingle_vector,
)
from sketchstream.generator import read_labels, write_labels


def small_config(**overrides):
    defaults = dict(
        num_behavior_classes=2,
        graphs_per_class=5,
        anomaly_fraction=0.2,
        avg_nodes=15,
        avg_edges=45,
        interleave_width=3,
        separation=0.9,
        seed=7,
    )
    defaults.update(overrides)
    return GeneratorConfig(**defaults)


def test_config_validation():
    with pytest.raises(ValueError):
        small_config(avg_edges=5, avg_nodes=20)
    with pytest.raises(ValueError):
        small_config(interleave_width=0)
    with pytest.raises(ValueError):
        small_config(anomaly_fraction=1.0)
    with pytest.raises(ValueError):
        small_config(node_type_alphabet="aa")
    with pytest.raises(ValueError):
        small_config(edge_type_alphabet="a\tb")
    with pytest.raises(ValueError, match="^seed must be non-negative$"):
        small_config(seed=-1)


def test_no_interleaving_when_width_is_one():
    config = small_config(
        num_behavior_classes=1, graphs_per_class=2, anomaly_fraction=0.0, interleave_width=1
    )
    stream = list(generate_stream(config))
    assert all(label == LABEL_NORMAL for _, label in stream)
    graph_ids = [rec.graph_id for rec, _ in stream]
    boundary = graph_ids.index(1)
    assert all(g == 0 for g in graph_ids[:boundary])
    assert all(g == 1 for g in graph_ids[boundary:])


def test_same_seed_gives_byte_identical_streams():
    config = small_config()
    first = b"".join(format_edge(rec).encode() for rec, _ in generate_stream(config))
    second = b"".join(format_edge(rec).encode() for rec, _ in generate_stream(config))
    assert first == second


def test_round_trip_through_wire_format():
    for rec, _ in generate_stream(small_config()):
        assert parse_edge(format_edge(rec)) == rec


def test_timestamps_strictly_increase_per_graph():
    last = defaultdict(int)
    for rec, _ in generate_stream(small_config()):
        assert rec.timestamp > last[rec.graph_id]
        last[rec.graph_id] = rec.timestamp


def test_anomaly_fraction_is_honored():
    config = small_config(graphs_per_class=10, anomaly_fraction=0.2)
    dataset = generate_dataset(config)
    labels = Counter(dataset.labels.values())
    total = sum(labels.values())
    assert abs(labels[LABEL_ANOMALY] / total - 0.2) < 0.05
    assert labels[LABEL_NORMAL] == 20


def test_classes_are_separated_in_shingle_space():
    # Exact mean class vectors must sit farther apart than members do
    # from each other within a class.
    config = small_config(
        num_behavior_classes=2,
        graphs_per_class=10,
        anomaly_fraction=0.0,
        separation=1.0,
        seed=3,
    )
    dataset = generate_dataset(config)
    store = GraphStore()
    for rec in dataset.test:
        store.insert(rec)
    vectors = {g: shingle_vector(store, g, 1, 4) for g in store.graph_ids()}

    # Recover the two planted classes from the templates via a seed graph:
    # members of one class are much closer to each other than across.
    ids = sorted(vectors)
    seed_graph = ids[0]
    close = {
        g for g in ids if exact_cosine_distance(vectors[seed_graph], vectors[g]) < 0.5
    }
    far = set(ids) - close
    assert len(close) == 10 and len(far) == 10

    def mean_vector(group):
        total = Counter()
        for g in group:
            total.update(vectors[g])
        return total

    def mean_within(group):
        group = sorted(group)
        distances = [
            exact_cosine_distance(vectors[a], vectors[b])
            for i, a in enumerate(group)
            for b in group[i + 1 :]
        ]
        return sum(distances) / len(distances)

    between = exact_cosine_distance(mean_vector(close), mean_vector(far))
    assert between > mean_within(close)
    assert between > mean_within(far)


def test_train_split_holds_out_complete_benign_graphs():
    config = small_config(graphs_per_class=10)
    dataset = generate_dataset(config, train_fraction=0.75)
    assert len(dataset.train_ids) == round(0.75 * 20)
    assert all(dataset.labels[g] == LABEL_NORMAL for g in dataset.train_ids)
    train_ids = {rec.graph_id for rec in dataset.train}
    assert train_ids == set(dataset.train_ids)
    test_ids = {rec.graph_id for rec in dataset.test}
    assert test_ids.isdisjoint(train_ids)
    assert test_ids | train_ids == set(dataset.labels)
    # training graphs arrive whole and in id order
    order = [rec.graph_id for rec in dataset.train]
    assert order == sorted(order)


def test_test_groups_partition_the_test_stream():
    config = small_config()
    dataset = generate_dataset(config, train_fraction=0.5)
    flat = [g for group in dataset.test_groups for g in group]
    assert sorted(flat) == sorted({rec.graph_id for rec in dataset.test})
    assert all(len(group) <= config.interleave_width for group in dataset.test_groups)
    # each group occupies one contiguous block of the stream
    position = 0
    for group in dataset.test_groups:
        members = set(group)
        indices = [i for i, rec in enumerate(dataset.test) if rec.graph_id in members]
        assert min(indices) == position
        assert max(indices) == position + len(indices) - 1
        position += len(indices)


def test_labels_file_round_trip(tmp_path):
    dataset = generate_dataset(small_config())
    path = tmp_path / "labels.tsv"
    with open(path, "w") as fp:
        write_labels(dataset.labels, fp)
    with open(path) as fp:
        assert read_labels(fp) == dataset.labels


@pytest.mark.parametrize(
    "text,line_no",
    [
        pytest.param("1\tnormal\n+3\tanomaly\n", 2, id="signed-id"),
        pytest.param("\u0664\tnormal\n", 1, id="arabic-indic-digit"),
        pytest.param("3\tAnomaly\n", 1, id="capitalised-label"),
        pytest.param("3\tattack\n", 1, id="unknown-label"),
        pytest.param("3\n", 1, id="no-label"),
        pytest.param("3\t\n", 1, id="empty-label"),
        pytest.param("3 normal\n", 1, id="space-separator"),
        pytest.param("3\tnormal\tx\n", 1, id="third-field"),
        pytest.param("\n3\tnormal\n3\tanomaly\n", 3, id="repeated-id"),
        # only the empty line "\n" is skipped
        pytest.param("4\tanomaly\n\n" + "\t" * 6 + "\n", 3, id="tabs-only"),
        pytest.param("4\tanomaly\n\n\r\n", 3, id="crlf-only"),
        pytest.param("4\tanomaly\n\n  \n", 3, id="spaces-only"),
        # over int()'s default limit of 4,300 digits
        pytest.param("4\tanomaly\n" + "9" * 5000 + "\tnormal\n", 2, id="over-long-id"),
    ],
)
def test_read_labels_rejects_a_malformed_or_repeated_line(text, line_no):
    with pytest.raises(ValueError, match=rf"^labels line {line_no}: "):
        read_labels(io.StringIO(text))


def test_read_labels_skips_blank_lines():
    assert read_labels(io.StringIO("\n4\tanomaly\n\n2\tnormal\n")) == {
        4: LABEL_ANOMALY,
        2: LABEL_NORMAL,
    }
