"""One phase of a benchmark run, in a process of its own.

``setup`` turns the training TSV into a model file (``run_bootstrap``);
``stream`` loads the model and replays the test TSV (``load_model``, then
``run_stream``) in whole passes until the measuring time is up. Each
prints one JSON line with its timings, its peak RSS, the failures of the
checks that need its live state and, when traced, its per-layer metrics.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import io
import json
import resource
import statistics
import sys
import time
from array import array
from pathlib import Path

import numpy as np
import sketchstream.engine as engine

import checks
import spans
import workloads

SRC_DIR = workloads.BENCH_DIR.parent / "src"
# A stream run makes at least this many passes, traced or not: a traced run
# alternates untraced and traced passes and needs at least one of each.
MIN_PASSES = 3
# The host's speed swings by a third or more over minutes, and the stream's
# times follow it. So the feed times a fixed calibration task every
# CALIBRATE_EVERY lines, outside the service intervals, and each pass's times
# are scaled to the reference speed at which that task takes
# CALIBRATION_REF_US (about its time on a 2-vCPU Xeon VM at 2.1 GHz).
CALIBRATE_EVERY = 200
CALIBRATION_REF_US = 150.0
CALIBRATION_LINES = [f"{i}\ta\t{i + 1}\tb\t{i}\tC\t{i % 7}\n" for i in range(40)]


def _peak_rss_mib() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def setup(args: argparse.Namespace) -> dict:
    workload = _workload(args)
    config = engine.RunConfig(**workloads.run_config_kwargs(workload, args.seed))
    model_path = Path(args.model_out)
    tracer = spans.Tracer() if args.trace else None
    with tracer or contextlib.nullcontext():
        started = time.perf_counter()
        engine.run_bootstrap(Path(args.train), config, model_path=model_path)
        elapsed = time.perf_counter() - started
    rss = _peak_rss_mib()

    text = model_path.read_text(encoding="ascii")
    again = io.StringIO()
    engine.save_model(engine.load_model(io.StringIO(text)), again)
    failures = [] if again.getvalue() == text else ["model: save -> load -> save changed the file"]
    model = checks.parse_model_text(text)
    failures += checks.check_model_sizes(model, workload.train_graphs)
    out = {
        "setup_s": elapsed,
        "rss_mib": rss,
        "chunk_length": model["chunk_length"],
        "clusters": model["clusters"],
        "model_sha": hashlib.sha256(text.encode()).hexdigest()[:16],
        "failures": failures,
    }
    if tracer is not None:
        out["layers"] = tracer.setup_layers()
        out["missing"] = sorted(tracer.missing)
    return out


def _calibration_task(vector: np.ndarray) -> None:
    """Fixed work of the program's kinds: split lines, update a dict, small vector ops."""
    counts: dict[str, int] = {}
    for line in CALIBRATION_LINES:
        fields = line.split("\t")
        counts[fields[6]] = counts.get(fields[6], 0) + int(fields[4])
    for _ in range(20):
        vector = vector * 0.5 + 1.0
        float(vector @ vector)


def _feed(lines: list[str], stamps: array, calibrations: array):
    """Hand lines to the engine one pull at a time.

    Stamps the start of each line's service (the pull) and its end (the
    engine's next pull), and times the calibration task between lines.
    """
    clock = time.perf_counter_ns
    append = stamps.append
    vector = np.ones(100)
    for i, line in enumerate(lines):
        if i % CALIBRATE_EVERY == 0:
            gc.disable()  # a collection of the program's objects is not host speed
            begin = clock()
            _calibration_task(vector)
            calibrations.append(clock() - begin)
            gc.enable()
        append(clock())
        yield line
        append(clock())


def _trimmed_mean(samples: np.ndarray) -> float:
    """Mean without the slowest tenth, which interrupts and page faults inflate."""
    ordered = np.sort(samples)
    return float(ordered[: max(1, len(ordered) * 9 // 10)].mean())


def stream(args: argparse.Namespace) -> dict:
    workload = _workload(args)
    model_text = Path(args.model).read_text(encoding="ascii")
    lines = Path(args.test).read_text(encoding="ascii").splitlines(keepends=True)
    labels = engine.load_labels_file(args.labels)
    cap = len(lines) // 10 if workload.bounded else None
    config = engine.RunConfig(max_edges=cap, **workloads.run_config_kwargs(workload, args.seed))
    csv_path = Path(args.csv_out)

    walls = {False: [], True: []}  # pass wall times at the reference speed
    service_us = []  # (p50, p99) of each untraced pass at the reference speed
    raw = []  # (edges/s, p50, p99, calibration us) of each untraced pass as measured
    csv_digests = set()
    layer_runs = []
    tracer = None
    passes = 0
    failed = 0
    samples = 0
    started = time.perf_counter()
    while True:
        # Let go of the previous pass's model, states, store and hash cache
        # before this pass builds its own, so that the peak RSS is one pass's.
        result = model = None
        traced = args.trace and passes % 2 == 1
        if traced:
            tracer = spans.Tracer()
        stamps, calibrations = array("q"), array("q")
        with tracer if traced else contextlib.nullcontext():
            with open(csv_path, "w", encoding="ascii") as csv_fp:
                model = engine.load_model(io.StringIO(model_text))
                feed = _feed(lines, stamps, calibrations)
                begin = time.perf_counter_ns()
                result = engine.run_stream(model, feed, config, labels, csv_fp)
                wall_ns = time.perf_counter_ns() - begin - sum(calibrations)
        calibration_us = _trimmed_mean(np.frombuffer(calibrations, dtype=np.int64)) / 1e3
        scale = CALIBRATION_REF_US / calibration_us  # below 1 on a slower host
        walls[traced].append(wall_ns / 1e9 * scale)
        if traced:
            layers = tracer.stream_layers()
            layers["engine.loop_s"]["value"] -= sum(calibrations) / 1e9  # the feed's calibration
            layer_runs.append(layers)
        else:
            stamped = np.frombuffer(stamps, dtype=np.int64)
            ends = stamped[1::2]  # a line the engine never finished has no end
            service = (ends - stamped[0::2][: len(ends)]) / 1e3
            samples += len(service)
            p50, p99 = np.percentile(service, (50, 99))
            service_us.append((p50 * scale, p99 * scale))
            raw.append((len(lines) / wall_ns * 1e9, p50, p99, calibration_us))
        csv_digests.add(hashlib.sha256(csv_path.read_bytes()).hexdigest())
        failed += len(lines) - result.edges_processed
        passes += 1
        spent = time.perf_counter() - started
        if passes >= MIN_PASSES and spent * (passes + 1) / passes > args.seconds:
            break  # one more pass would run past the measuring time
    rss = _peak_rss_mib()

    failures = []
    if len(csv_digests) != 1:
        failures.append(f"stream: {len(csv_digests)} different snapshot CSVs over {passes} passes"
                        + (" (traced and untraced)" if args.trace else ""))
    projections = {g: s.projection for g, s in result.states.items()}
    loaded = checks.parse_model_text(model_text)
    if cap is None:
        failures += checks.check_projections(lines, loaded, projections)
    else:
        failures += checks.check_memory(result.peak_edges, result.store.total_edges, cap)
    failures += checks.check_centroids(
        loaded, result.model.centroids, result.model.sizes, result.model.live,
        result.model.assignments, projections,
    )

    # Percentiles per pass, then the median over passes: a slow spell on the
    # host then moves one pass, not the pooled tail.
    out = {
        "passes": passes,
        "edges": len(lines),
        "failed": failed,
        "stream_eps": statistics.median(len(lines) / w for w in walls[False]),
        "edge_p50_us": statistics.median(float(p[0]) for p in service_us),
        "edge_p99_us": statistics.median(float(p[1]) for p in service_us),
        "measured": {
            key: statistics.median(float(r[i]) for r in raw)
            for i, key in enumerate(("eps", "p50_us", "p99_us", "calibration_us"))
        } | {"reference_us": CALIBRATION_REF_US},
        "service_samples": samples,
        "rss_mib": rss,
        "final_ap": result.snapshots[-1].ap,
        "final_auc": result.snapshots[-1].auc,
        "evictions": result.edges_processed - result.store.total_edges,
        "peak_edges": result.peak_edges,
        "failures": failures,
    }
    if args.trace:
        layers = {}
        for name, entry in layer_runs[0].items():
            values = [run[name]["value"] for run in layer_runs]
            if entry["unit"] == "s":
                layers[name] = {**entry, "value": statistics.median(values)}
            else:
                layers[name] = entry
                if len(set(values)) != 1:
                    failures.append(f"trace: {name} differs between passes: {values}")
        layers["store.evictions"] = {"value": out["evictions"], "unit": "count"}
        layers["store.peak_edges"] = {"value": out["peak_edges"], "unit": "count"}
        layers["trace.overhead_ratio"] = {
            "value": statistics.median(walls[True]) / statistics.median(walls[False]),
            "unit": "ratio",
        }
        out["layers"] = layers
        out["missing"] = sorted(tracer.missing)
    return out


def _workload(args: argparse.Namespace) -> workloads.Workload:
    workload = workloads.WORKLOADS[args.workload]
    return workloads.smoke(workload) if args.smoke else workload


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("phase", choices=("setup", "stream"))
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--train")
    parser.add_argument("--model-out")
    parser.add_argument("--model")
    parser.add_argument("--test")
    parser.add_argument("--labels")
    parser.add_argument("--csv-out")
    parser.add_argument("--seconds", type=float, default=0.0)
    args = parser.parse_args()
    location = Path(engine.__file__).resolve()
    if SRC_DIR.resolve() not in location.parents:
        raise SystemExit(f"sketchstream imported from {location}, not from {SRC_DIR}")
    result = setup(args) if args.phase == "setup" else stream(args)
    sys.stdout.write(json.dumps(result) + "\n")


if __name__ == "__main__":
    main()
