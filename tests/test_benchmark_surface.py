"""The program surface that the benchmark under ``perfbench/`` relies on.

The benchmark wraps named functions and methods (``perfbench/spans.py``),
reads attributes off the result of ``run_stream``
(``perfbench/worker.py``) and checks its own hash reference against
``HashFamily.hash_values`` (``perfbench/tests``). Its own self-tests are slow and live outside
this suite, so these fast checks catch a rename or a removed attribute
here first.
"""

from __future__ import annotations

import ast
import importlib.util
from pathlib import Path

import numpy as np
import pytest

from sketchstream import HashFamily, run_bootstrap, run_stream

from test_engine import lines_of, small_config, small_dataset

BENCH_DIR = Path(__file__).resolve().parents[1] / "perfbench"


def _load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", BENCH_DIR / "spans.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _result_expressions(source: str) -> list[str]:
    """Every attribute chain rooted at the name ``result``, as source text."""
    chains = set()
    for node in ast.walk(ast.parse(source)):
        root = node
        while isinstance(root, (ast.Attribute, ast.Subscript)):
            root = root.value
        if isinstance(node, ast.Attribute) and isinstance(root, ast.Name) and root.id == "result":
            chains.add(ast.unparse(node))
    return sorted(chains)


def test_every_span_target_resolves():
    spans = _load_spans()
    missing = [
        name for name, (owner, attribute) in spans.TARGETS.items()
        if not callable(getattr(owner, attribute, None))
    ]
    assert missing == []


def test_traced_runs_call_every_span(tmp_path):
    spans = _load_spans()
    dataset = small_dataset()
    config = small_config(max_edges=60)
    engine = spans.engine  # the runners' module, whose names the tracer swaps
    with spans.Tracer() as tracer:
        engine.run_bootstrap(lines_of(dataset.train), config, tmp_path / "m.model")
        with open(tmp_path / "m.model", encoding="ascii") as fp:
            model = engine.load_model(fp)
        engine.run_stream(model, lines_of(dataset.test), config, labels=dataset.labels)
    assert tracer.missing == set()
    _, calls = tracer.self_times()
    assert [name for name, n in zip(tracer.names, calls) if n == 0] == []


@pytest.mark.parametrize("lengths", [(2, 4, 4, 8), (4,)], ids=["three-lengths", "one-length"])
def test_traced_bootstrap_builds_one_distance_matrix_per_candidate_length(lengths):
    # The benchmark's clustering.distance_matrices counts these calls.
    spans = _load_spans()
    config = small_config(candidate_chunk_lengths=lengths)
    with spans.Tracer() as tracer:
        spans.engine.run_bootstrap(lines_of(small_dataset().train), config)
    assert tracer.setup_layers()["clustering.distance_matrices"]["value"] == len(set(lengths))


def test_traced_bootstrap_runs_kmedoids_once_per_distinct_cluster_count():
    # The benchmark's clustering.kmedoids_s and clustering.silhouette_s time these calls.
    spans = _load_spans()
    config = small_config(candidate_cluster_counts=(2, 3, 3))
    with spans.Tracer() as tracer:
        spans.engine.run_bootstrap(lines_of(small_dataset().train), config)
    _, calls = tracer.self_times()
    count = dict(zip(tracer.names, calls))
    assert count["clustering.kmedoids"] == 2
    assert count["clustering.silhouette"] <= 2


@pytest.mark.parametrize("hops", [1, 2, 3])
def test_traced_stream_writes_each_edge_to_the_store_inside_its_delta(hops):
    # The benchmark's store.insert_s takes these two spans' self time out of
    # shingles.delta_s; a store write inlined into edge_delta would move it.
    spans = _load_spans()
    dataset = small_dataset()
    config = small_config(hops=hops, max_edges=60)
    model, _ = run_bootstrap(lines_of(dataset.train), config)
    with spans.Tracer() as tracer:
        result = spans.engine.run_stream(model, lines_of(dataset.test), config)
    names = [tracer.names[i] for i in tracer.span_name]
    deltas = [i for i, name in enumerate(names) if name == "shingles.edge_delta"]
    assert len(deltas) == result.edges_processed
    children = {i: [] for i in deltas}
    for span, name in enumerate(names):
        if name.startswith("store."):
            assert tracer.parents[span] in children, f"{name} outside an edge_delta span"
            children[tracer.parents[span]].append(name)
    assert all(
        sorted(calls) == ["store.insert_prepared", "store.prepare_edge"]
        for calls in children.values()
    )


def test_stream_result_has_what_the_worker_reads():
    expressions = _result_expressions((BENCH_DIR / "worker.py").read_text(encoding="utf-8"))
    assert "result.states.items" in expressions
    dataset = small_dataset()
    config = small_config(max_edges=60)
    model, _ = run_bootstrap(lines_of(dataset.train), config)
    result = run_stream(model, lines_of(dataset.test), config, labels=dataset.labels)
    for expression in expressions:
        eval(expression, {"result": result})  # raises AttributeError if a name is gone
    assert result.states
    assert all(state.projection.shape == (model.sketch_bits,) for state in result.states.values())
    # The worker checks only the centroids that `live` marks: all of them.
    live = result.model.live
    assert live.dtype == bool and live.shape == (model.n_clusters,) and live.all()


def test_hash_values_is_one_signed_byte_per_function():
    family = HashFamily.generate(64, 8, 77)
    for chunk in ("a", "bQc", "zZzZzZzZ"):
        values = family.hash_values(chunk)
        assert values.dtype == np.int8 and values.shape == (64,)
        assert set(values.tolist()) <= {-1, 1}
