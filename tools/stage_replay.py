"""Replay one model and test stream stage by stage; print CPU seconds per stage.

    PYTHONPATH=src python3 tools/stage_replay.py --workload bounded-l100
    python3 tools/stage_replay.py --model model.txt --test test.tsv --max-edges 6660 --folds

The stages run one after another over the whole stream in one process,
each timed with process CPU time and with no tracing wrappers:

- ``parse``: ``parse_edge`` of every non-empty line;
- ``delta``: ``edge_delta`` of every record into a store at the cap;
- ``apply``: ``apply_delta`` of every delta onto its graph's latest state,
  with the hash family of a freshly loaded model;
- ``update``: ``ClusterModel.update_graph`` over the resulting (graph,
  state) sequence on another freshly loaded model.

Together they are the per-edge work of ``run_stream`` without its
snapshots and tracked-graph cap. By default the inputs are the benchmark's
files for ``--workload`` under ``perfbench/cache/<workload>/`` (the model
file of its last run and the test stream), with the cap of a bounded
workload, a tenth of the test lines. ``--folds`` also times every
``apply_delta`` call on its own (wall clock) and splits them into hits,
whose chunks were all in the hash cache, and misses.

The ``sketchstream`` found on ``PYTHONPATH`` is replayed, else the one in
this checkout's ``src/``; so the same script times two checkouts.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.append(str(ROOT / "src"))

from sketchstream.engine import load_model  # noqa: E402
from sketchstream.records import parse_edge  # noqa: E402
from sketchstream.shingles import edge_delta  # noqa: E402
from sketchstream.sketches import apply_delta, fresh_state  # noqa: E402
from sketchstream.store import GraphStore  # noqa: E402

def _load(path: Path):
    with open(path, "r", encoding="ascii", newline="") as fp:
        return load_model(fp)


def replay(lines: list[str], model_path: Path, max_edges: int | None, folds: bool) -> dict:
    """CPU seconds of each stage over ``lines``; with ``folds``, each fold's wall time."""
    clock = time.process_time
    seconds = {}

    begin = clock()
    records = [parse_edge(line, n) for n, line in enumerate(lines, 1) if line != "\n"]
    seconds["parse"] = clock() - begin

    model = _load(model_path)
    begin = clock()
    store = GraphStore(capacity=max_edges)
    deltas = [edge_delta(store, rec, model.hops, model.chunk_length) for rec in records]
    seconds["delta"] = clock() - begin
    del store

    family, states, updates = model.family, {}, []
    fold_ns, missed = [], []
    timer, index = time.perf_counter_ns, family._index
    begin = clock()
    for rec, delta in zip(records, deltas):
        state = states.get(rec.graph_id)
        if state is None:
            state = fresh_state(family.sketch_bits)
        if folds:
            missed.append(any(chunk not in index for chunk in delta.net))
            start = timer()
        state = states[rec.graph_id] = apply_delta(state, family, delta)
        if folds:
            fold_ns.append(timer() - start)
        updates.append((rec.graph_id, state))
    seconds["apply"] = clock() - begin
    del model, family, states, deltas

    model = _load(model_path)
    update = model.update_graph
    begin = clock()
    for graph_id, state in updates:
        update(graph_id, state)
    seconds["update"] = clock() - begin
    return {"edges": len(records), "seconds": seconds, "fold_ns": fold_ns, "missed": missed}


def fold_summary(fold_ns: list[int], missed: list[bool]) -> dict:
    """Median hit and miss fold in µs, the miss share, and the miss share of the slowest 1%."""
    hits = [ns for ns, miss in zip(fold_ns, missed) if not miss]
    misses = [ns for ns, miss in zip(fold_ns, missed) if miss]
    slowest = sorted(zip(fold_ns, missed), reverse=True)[: max(1, len(fold_ns) // 100)]
    return {
        "hit_us": statistics.median(hits) / 1e3 if hits else None,
        "miss_us": statistics.median(misses) / 1e3 if misses else None,
        "miss_share": len(misses) / len(fold_ns),
        "miss_share_of_slowest_1pct": sum(miss for _, miss in slowest) / len(slowest),
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="bounded-l100",
                        help="perfbench workload whose cached files are the defaults")
    parser.add_argument("--model", type=Path, help="model file (default: the workload's)")
    parser.add_argument("--test", type=Path, help="test stream TSV (default: the workload's)")
    parser.add_argument("--max-edges", type=int,
                        help="resident-edge cap (default: the workload's; none without one)")
    parser.add_argument("--folds", action="store_true", help="also time every fold on its own")
    args = parser.parse_args(argv)

    cache = ROOT / "perfbench" / "cache" / args.workload
    model_path = args.model or cache / "run" / "model.txt"
    test_path = args.test or cache / "test.tsv"
    with open(test_path, "r", encoding="ascii", newline="") as fp:
        lines = fp.readlines()
    max_edges = args.max_edges
    if max_edges is None and args.model is None and args.test is None:
        manifest = json.loads((cache / "manifest.json").read_text())
        max_edges = len(lines) // 10 if manifest["settings"]["workload"]["bounded"] else None

    run = replay(lines, model_path, max_edges, args.folds)
    edges, seconds = run["edges"], run["seconds"]
    result = {"edges": edges, "max_edges": max_edges, "cpu_s": seconds}
    print(f"{edges} edges, cap {max_edges}")
    for stage, cpu in seconds.items():
        print(f"{stage:<8}{cpu:8.3f} s {cpu / max(edges, 1) * 1e6:8.2f} us/edge")
    if args.folds:
        result["folds"] = fold_summary(run["fold_ns"], run["missed"])
        shown = [f"{key} {value:.3g}" for key, value in result["folds"].items() if value]
        print("folds: " + ", ".join(shown))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
