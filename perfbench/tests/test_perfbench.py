"""Self-tests of the benchmark: smoke runs, and checks that catch bad output.

Run with ``python3 -m pytest perfbench/tests -q`` from the repository root.
"""

from __future__ import annotations

import io
import json
import subprocess
import sys
from array import array
from pathlib import Path

import numpy as np
import pytest

BENCH_DIR = Path(__file__).resolve().parents[1]
ROOT = BENCH_DIR.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH_DIR)]

import checks  # noqa: E402
import spans  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402
from sketchstream import (  # noqa: E402
    HashFamily, RunConfig, load_model, run_bootstrap, run_stream, save_model,
)

DECLARED = json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_smoke_run(workload, trace):
    done = subprocess.run(
        [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload, "--seed", "3",
         "--seconds", "1", "--trace", str(trace), "--smoke"],
        cwd=ROOT, capture_output=True, text=True, timeout=180,
    )
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"], done.stdout
    assert result["failed"] == 0 and result["attempted"] > 0
    declared = DECLARED["per_layer" if trace else "end_to_end"]
    assert {n: m["unit"] for n, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in declared
    }
    assert all("missing" not in m for m in result["metrics"].values())


@pytest.fixture(scope="module")
def streamed():
    workload = workloads.smoke(workloads.WORKLOADS["twohop-l1000"])
    train, test, labels = workloads.generate(workload, 5)
    config = RunConfig(**workloads.run_config_kwargs(workload, 5))
    model, _ = run_bootstrap(train, config)
    text = io.StringIO()
    save_model(model, text)
    loaded = checks.parse_model_text(text.getvalue())
    csv_fp = io.StringIO()
    result = run_stream(model, test, config, labels=labels, csv_fp=csv_fp)
    return workload, test, labels, loaded, result, csv_fp.getvalue()


def test_checks_pass_on_real_output(streamed):
    workload, test, labels, loaded, result, csv_text = streamed
    projections = {g: s.projection for g, s in result.states.items()}
    assert checks.check_projections(test, loaded, projections) == []
    assert checks.check_snapshots(checks.parse_snapshots(csv_text), labels, workload.sketch_bits,
                                  len(test), workloads.SNAPSHOT_INTERVAL) == []
    model = result.model
    assert checks.check_centroids(loaded, model.centroids, model.sizes, model.live,
                                  model.assignments, projections) == []


def test_wrong_projection_fails(streamed):
    _, test, _, loaded, result, _ = streamed
    projections = {g: s.projection.copy() for g, s in result.states.items()}
    victim = min(projections)
    projections[victim][3] += 2
    failures = checks.check_projections(test, loaded, projections)
    assert failures == [f"projections: graph {victim} differs in 1 entries"]


def test_wrong_ap_fails(streamed):
    workload, test, labels, _, _, csv_text = streamed
    lines = csv_text.splitlines()
    last = lines[-1].split(",")
    ap = float(last[4])
    wrong = [line.replace(f",{last[4]},", f",{ap * 0.9!r},") if line.startswith(f"{last[0]},")
             else line for line in lines]
    failures = checks.check_snapshots(checks.parse_snapshots("\n".join(wrong)), labels,
                                      workload.sketch_bits, len(test), workloads.SNAPSHOT_INTERVAL)
    assert len(failures) == 1 and failures[0].startswith(f"snapshots: ap {ap * 0.9!r} at {last[0]}")


def test_wrong_centroid_fails(streamed):
    _, _, _, loaded, result, _ = streamed
    model = result.model
    projections = {g: s.projection for g, s in result.states.items()}
    centroids = model.centroids.copy()
    centroids[0, 0] += 1e-3
    failures = checks.check_centroids(loaded, centroids, model.sizes, model.live,
                                      model.assignments, projections)
    assert len(failures) == 1 and failures[0].startswith("centroids: cluster 0 sum off")


def test_feed_keeps_calibration_out_of_service_times():
    lines = [f"line {i}\n" for i in range(2 * worker.CALIBRATE_EVERY + 1)]
    stamps, calibrations = array("q"), array("q")
    assert list(worker._feed(lines, stamps, calibrations)) == lines
    assert len(stamps) == 2 * len(lines) and len(calibrations) == 3
    # a (start, end) pair per line, in time order
    assert all(a <= b for a, b in zip(stamps, stamps[1:]))
    assert worker._trimmed_mean(np.array([5] * 9 + [500])) == 5.0


def test_memory_over_cap_fails():
    assert checks.check_memory(10, 10, 10) == []
    assert len(checks.check_memory(11, 9, 10)) == 1


def test_inputs_repeat_for_a_seed():
    workload = workloads.smoke(workloads.WORKLOADS["bounded-l100"])
    first = workloads.generate(workload, 11)
    assert workloads.generate(workload, 11) == first
    assert workloads.generate(workload, 12) != first
    train, _, labels = first
    assert len({line.split("\t")[6] for line in train}) == workload.train_graphs
    assert sum(1 for v in labels.values() if v == "anomaly") == workload.anomalies


def test_parity_identity_matches_hash_family():
    family = HashFamily.generate(64, 8, 77)
    parity = checks.parity_table(64, 8, 77)
    for chunk in ("a", "bQc", "zZzZzZzZ"):
        expected = family.hash_values(chunk).astype(np.int64)
        assert np.array_equal(checks.reference_projection({chunk: 1}, parity), expected)


def test_missing_span_is_marked_not_fatal(streamed, monkeypatch):
    workload, test, labels, _, result, _ = streamed
    monkeypatch.setitem(spans.TARGETS, "store.insert_prepared", (spans.GraphStore, "gone"))
    text = io.StringIO()
    save_model(result.model, text)
    config = RunConfig(**workloads.run_config_kwargs(workload, 5))
    with spans.Tracer() as tracer:
        run_stream(load_model(io.StringIO(text.getvalue())), test[:2000], config, labels=labels)
    layers = tracer.stream_layers()
    assert tracer.missing == {"store.insert_prepared"}
    assert layers["store.insert_s"]["missing"] == ["store.insert_prepared"]
    assert layers["store.insert_s"]["value"] > 0
    assert "missing" not in layers["shingles.delta_s"]
