"""Benchmark of sketchstream's set-up and streaming phases.

    python3 perfbench/run.py --workload bounded-l100 --seed 1 --seconds 40 --trace 0

Each run builds (or reuses) the workload's input files for the seed, runs
the set-up phase in separate processes (five times untraced, or once
untraced and once traced), then one stream process that replays the
test file in whole passes for up to ``--seconds`` seconds, and checks every
output.
The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``, the per-layer metrics with ``--trace 1``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
# An untraced run sets up this many times and reports the median; a traced
# run sets up once untraced and once traced.
SETUP_REPEATS = 5
# A run must end within 180 s; children still running at this point are killed.
RUN_DEADLINE_S = 170.0


def _fail(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def _cpu_ticks() -> tuple[int, int] | None:
    """(steal, total) jiffies of all CPUs, or None where /proc/stat is absent."""
    try:
        with open("/proc/stat", encoding="ascii") as fp:
            fields = [int(v) for v in fp.readline().split()[1:]]
    except (OSError, ValueError):
        return None
    # user nice system idle iowait irq softirq steal [guest guest_nice]
    return fields[7], sum(fields[:8])


def _child(phase: str, args: argparse.Namespace, env: dict, **options) -> dict:
    command = [sys.executable, str(BENCH_DIR / "worker.py"), phase,
               "--workload", args.workload, "--seed", str(args.seed)]
    if args.smoke:
        command.append("--smoke")
    for name, value in options.items():
        if value is True:
            command.append(f"--{name.replace('_', '-')}")
        elif value not in (None, False):
            command += [f"--{name.replace('_', '-')}", str(value)]
    try:
        done = subprocess.run(command, env=env, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                              timeout=max(1.0, args.deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        _fail(f"{phase} process killed at the {RUN_DEADLINE_S:.0f} s run deadline")
    if done.returncode != 0:
        _fail(f"{phase} process exited with code {done.returncode}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="few-second inputs for self-tests")
    args = parser.parse_args()
    args.deadline = time.monotonic() + RUN_DEADLINE_S

    if not (ROOT / "src" / "sketchstream" / "__init__.py").is_file():
        _fail(f"no program source under {ROOT / 'src' / 'sketchstream'}")
    import numpy as np

    import checks
    import workloads

    if args.workload not in workloads.WORKLOADS:
        _fail(f"unknown workload {args.workload!r}; choose from {sorted(workloads.WORKLOADS)}")
    if args.seed < 0:
        _fail("seed must be non-negative")
    workload = workloads.WORKLOADS[args.workload]
    if args.smoke:
        workload = workloads.smoke(workload)

    nproc = len(os.sched_getaffinity(0))
    blas_threads = "1"
    env = {
        **os.environ,
        "PYTHONPATH": os.pathsep.join((str(ROOT / "src"), str(BENCH_DIR))),
        "PYTHONHASHSEED": "0",
        "OPENBLAS_NUM_THREADS": blas_threads,
        "OMP_NUM_THREADS": blas_threads,
        "MKL_NUM_THREADS": blas_threads,
    }
    ticks_before = _cpu_ticks()

    inputs = workloads.prepare(workload, args.seed)
    print(f"workload {workload.name} seed {args.seed}: inputs {inputs.checksum}, "
          f"{inputs.train_graphs} training graphs, {inputs.test_edges} test edges")
    run_dir = inputs.directory / "run"
    run_dir.mkdir(exist_ok=True)
    model = run_dir / "model.txt"
    csv_path = run_dir / "snapshots.csv"

    setups = [_child("setup", args, env, train=inputs.train, model_out=model)
              for _ in range(1 if args.trace else SETUP_REPEATS)]
    failures = [f for s in setups for f in s["failures"]]
    if args.trace:
        traced_setup = _child("setup", args, env, train=inputs.train,
                              model_out=run_dir / "model-traced.txt", trace=True)
        if traced_setup["model_sha"] != setups[0]["model_sha"]:
            failures.append("setup: traced set-up wrote a different model file")
        setups.append(traced_setup)
    if len({s["model_sha"] for s in setups}) != 1:
        failures.append("setup: repeated set-ups wrote different model files")
    print(f"set-up: {len(setups)} runs, chunk length {setups[0]['chunk_length']}, "
          f"{setups[0]['clusters']} clusters")

    result = _child("stream", args, env, model=model, test=inputs.test, labels=inputs.labels,
                    csv_out=csv_path, seconds=args.seconds, trace=bool(args.trace))
    failures += result["failures"]
    labels = dict(line.split("\t") for line in inputs.labels.read_text().splitlines())
    labels = {int(g): label for g, label in labels.items()}
    failures += checks.check_snapshots(
        checks.parse_snapshots(csv_path.read_text(encoding="ascii")), labels,
        workload.sketch_bits, result["edges"], workloads.SNAPSHOT_INTERVAL,
    )

    ticks_after = _cpu_ticks()
    steal = "n/a"
    if ticks_before and ticks_after and ticks_after[1] > ticks_before[1]:
        share = (ticks_after[0] - ticks_before[0]) / (ticks_after[1] - ticks_before[1])
        steal = f"{100 * share:.2f}%"
    print(f"context: nproc {nproc}, python {platform.python_version()}, numpy {np.__version__}, "
          f"BLAS threads {blas_threads}, host steal {steal}")
    print(f"stream: {result['passes']} passes of {result['edges']} edges, "
          f"{result['service_samples']} service-time samples, "
          f"{result['evictions']} evictions, peak {result['peak_edges']} resident edges, "
          f"final AP {result['final_ap']}")
    measured = result["measured"]
    print(f"stream as measured: {measured['eps']:.0f} edges/s, p50 {measured['p50_us']:.1f} us, "
          f"p99 {measured['p99_us']:.1f} us, calibration task {measured['calibration_us']:.1f} us; "
          f"reported at {measured['reference_us']:.0f} us")

    if args.trace:
        metrics = {**setups[-1]["layers"], **result["layers"]}
        missing = sorted(set(setups[-1]["missing"]) | set(result["missing"]))
        print("trace: missing spans: " + (", ".join(missing) if missing else "none"))
    else:
        values = {
            "setup_s": statistics.median(s["setup_s"] for s in setups),
            "setup_rss_mib": statistics.median(s["rss_mib"] for s in setups),
            "stream_eps": result["stream_eps"],
            "edge_p50_us": result["edge_p50_us"],
            "edge_p99_us": result["edge_p99_us"],
            "stream_rss_mib": result["rss_mib"],
            "final_ap": result["final_ap"],
            "final_auc": result["final_auc"],
        }
        declared = json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]
        metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared}
    for name, entry in metrics.items():
        print(f"{workload.name} {name} {entry['value']} {entry['unit']}")

    attempted = result["passes"] * result["edges"]
    for failure in failures:
        print(f"CHECK FAILED: {failure}")
    print(f"edges attempted {attempted} failed {result['failed']}; "
          f"checks {'passed' if not failures else 'FAILED'}")
    print(json.dumps({"correct": not failures, "attempted": attempted, "failed": result["failed"],
                      "metrics": metrics}))


if __name__ == "__main__":
    main()
