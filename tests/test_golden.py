"""Byte-for-byte goldens of model files and snapshot CSVs.

Each case bootstraps a model from a fixed generated dataset, then streams
the test edges four times against it: with unbounded memory and with
resident edges capped at a tenth of the test stream, so that eviction
runs, each once tracking every graph and once tracking at most
``TRACKED`` graphs, so that the least recently active graphs are dropped. The committed files under ``tests/golden/`` define the pipeline's
behaviour; a refactor must reproduce them exactly.

Regenerate them only for a change that is meant to alter outputs:

    PYTHONPATH=src python tests/test_golden.py --write
"""

from __future__ import annotations

import io
import sys
from dataclasses import replace
from pathlib import Path

import pytest

from sketchstream import (
    GeneratorConfig,
    RunConfig,
    format_edge,
    generate_dataset,
    load_model,
    run_bootstrap,
    run_stream,
    save_model,
)

GOLDEN_DIR = Path(__file__).resolve().parent / "golden"
CASES = [(7, 1), (8, 2)]  # (seed, hops)
TRACKED = 8  # max_tracked_graphs of the tracked runs; the interleave width is 5


def golden_dataset(seed: int):
    return generate_dataset(
        GeneratorConfig(
            num_behavior_classes=2,
            graphs_per_class=20,
            anomaly_fraction=2 / 42,
            avg_nodes=50,
            avg_edges=300,
            interleave_width=5,
            separation=1.0,
            seed=seed,
        ),
        train_fraction=0.75,
    )


def golden_config(seed: int, hops: int) -> RunConfig:
    return RunConfig(
        hops=hops,
        sketch_bits=100,
        candidate_chunk_lengths=(8, 16, 32),
        snapshot_interval=500,
        cluster_seed=seed + 1000,
        family_seed=seed + 2000,
    )


def golden_outputs(seed: int, hops: int) -> dict[str, str]:
    """File name -> text of one case's model file and snapshot CSVs."""
    dataset = golden_dataset(seed)
    config = golden_config(seed, hops)
    model, _ = run_bootstrap([format_edge(r) for r in dataset.train], config)
    model_file = io.StringIO()
    save_model(model, model_file)
    prefix = f"seed{seed}-hops{hops}"
    outputs = {f"{prefix}.model": model_file.getvalue()}
    test_lines = [format_edge(r) for r in dataset.test]
    bound = len(test_lines) // 10
    runs = (
        ("unbounded", None, None),
        ("bounded", bound, None),
        ("tracked", None, TRACKED),
        ("bounded-tracked", bound, TRACKED),
    )
    for name, cap, tracked in runs:
        csv = io.StringIO()
        run_stream(
            load_model(io.StringIO(outputs[f"{prefix}.model"])),
            test_lines,
            replace(config, max_edges=cap, max_tracked_graphs=tracked),
            labels=dataset.labels,
            csv_fp=csv,
        )
        outputs[f"{prefix}-{name}.csv"] = csv.getvalue()
    return outputs


@pytest.mark.parametrize("seed,hops", CASES)
def test_outputs_match_goldens(seed, hops):
    for name, text in golden_outputs(seed, hops).items():
        expected = (GOLDEN_DIR / name).read_bytes()
        assert text.encode("ascii") == expected, f"{name} differs from its golden"


def write_goldens() -> None:
    GOLDEN_DIR.mkdir(exist_ok=True)
    for seed, hops in CASES:
        for name, text in golden_outputs(seed, hops).items():
            (GOLDEN_DIR / name).write_bytes(text.encode("ascii"))
            print(f"wrote {GOLDEN_DIR / name}")


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: test_golden.py --write")
    write_goldens()
