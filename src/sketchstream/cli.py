"""Command line interface: generate, bootstrap, stream."""

from __future__ import annotations

import argparse
import sys
from typing import Sequence

from .engine import (
    RunConfig,
    load_labels_file,
    load_model,
    report_text,
    run_bootstrap,
    run_stream,
)
from .generator import GeneratorConfig, generate_dataset, write_labels
from .records import ParseError, write_stream


def _int_list(text: str) -> tuple[int, ...]:
    parts = text.split(",")
    # int() alone also takes "1_6", " 16" and non-ASCII digits such as "\u0663";
    # an empty item, as in "16,,32" or "16,", is refused too.
    if not all(part.isascii() and part.isdigit() for part in parts):
        raise argparse.ArgumentTypeError(f"{text!r} is not a comma-separated int list")
    return tuple(int(part) for part in parts)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sketchstream",
        description="Streaming anomaly detection over typed, timestamped edge streams.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("generate", help="write a synthetic labeled edge stream")
    gen.add_argument("--classes", type=int, default=GeneratorConfig.num_behavior_classes,
                     help="number of behavior classes")
    gen.add_argument("--graphs-per-class", type=int, default=GeneratorConfig.graphs_per_class)
    gen.add_argument("--anomaly-fraction", type=float, default=GeneratorConfig.anomaly_fraction)
    gen.add_argument("--avg-nodes", type=int, default=GeneratorConfig.avg_nodes)
    gen.add_argument("--avg-edges", type=int, default=GeneratorConfig.avg_edges)
    gen.add_argument("--node-alphabet", default=None, help="node type symbols (default a-z)")
    gen.add_argument("--edge-alphabet", default=None, help="edge type symbols (default A-Z)")
    gen.add_argument("-B", "--interleave-width", type=int,
                     default=GeneratorConfig.interleave_width,
                     help="graphs evolving simultaneously")
    gen.add_argument("--separation", type=float, default=GeneratorConfig.separation)
    gen.add_argument("--seed", type=int, required=True)
    gen.add_argument("--out", required=True, help="test stream TSV path")
    gen.add_argument("--labels-out", required=True, help="sidecar labels TSV path")
    gen.add_argument("--train-out", default=None,
                     help="also write a training stream of held-out benign graphs")
    gen.add_argument("--train-fraction", type=float, default=0.75,
                     help="benign fraction held out for training (with --train-out)")

    boot = sub.add_parser("bootstrap", help="cluster a training stream into a model")
    boot.add_argument("-i", "--input", required=True, help="training stream TSV")
    boot.add_argument("--model-out", required=True)
    boot.add_argument("--hops", type=int, default=RunConfig.hops)
    boot.add_argument("-L", "--sketch-bits", type=int, default=RunConfig.sketch_bits)
    boot.add_argument("--chunk-lengths", type=_int_list, default=RunConfig.candidate_chunk_lengths,
                      help="candidate chunk lengths, comma separated")
    boot.add_argument("--cluster-counts", type=_int_list,
                      default=RunConfig.candidate_cluster_counts,
                      help="candidate cluster counts, comma separated")
    boot.add_argument("--seed", type=int, required=True, help="clustering seed")
    boot.add_argument("--family-seed", type=int, required=True, help="hash family seed")

    stream = sub.add_parser("stream", help="run streaming detection against a model")
    stream.add_argument("--model", required=True)
    stream.add_argument("-i", "--input", required=True, help="test stream TSV")
    stream.add_argument("--labels", default=None, help="labels TSV for AP/AUC columns")
    stream.add_argument("--csv-out", required=True, help="snapshot CSV path")
    stream.add_argument("-E", "--snapshot-interval", type=int, default=RunConfig.snapshot_interval)
    stream.add_argument("-N", "--max-edges", type=int, default=None,
                        help="resident edge cap (default unlimited)")
    stream.add_argument("--max-tracked-graphs", type=int, default=None,
                        help="cap on graphs with detection state (default unlimited)")
    return parser


def _cmd_generate(args: argparse.Namespace) -> int:
    kwargs = dict(
        num_behavior_classes=args.classes,
        graphs_per_class=args.graphs_per_class,
        anomaly_fraction=args.anomaly_fraction,
        avg_nodes=args.avg_nodes,
        avg_edges=args.avg_edges,
        interleave_width=args.interleave_width,
        separation=args.separation,
        seed=args.seed,
    )
    if args.node_alphabet is not None:
        kwargs["node_type_alphabet"] = args.node_alphabet
    if args.edge_alphabet is not None:
        kwargs["edge_type_alphabet"] = args.edge_alphabet
    config = GeneratorConfig(**kwargs)
    train_fraction = args.train_fraction if args.train_out else 0.0
    dataset = generate_dataset(config, train_fraction=train_fraction)
    with open(args.out, "w", encoding="ascii") as fp:
        count = write_stream(dataset.test, fp)
    with open(args.labels_out, "w", encoding="ascii") as fp:
        write_labels(dataset.labels, fp)
    if args.train_out:
        with open(args.train_out, "w", encoding="ascii") as fp:
            train_count = write_stream(dataset.train, fp)
        print(f"wrote {train_count} training edges ({len(dataset.train_ids)} graphs)")
    print(f"wrote {count} test edges ({len(dataset.labels) - len(dataset.train_ids)} graphs)")
    return 0


def _cmd_bootstrap(args: argparse.Namespace) -> int:
    config = RunConfig(
        hops=args.hops,
        sketch_bits=args.sketch_bits,
        candidate_chunk_lengths=args.chunk_lengths,
        candidate_cluster_counts=args.cluster_counts,
        cluster_seed=args.seed,
        family_seed=args.family_seed,
    )
    _, report = run_bootstrap(args.input, config, model_path=args.model_out)
    sys.stdout.write(report_text(report))
    print(f"model written to {args.model_out}")
    return 0


def _cmd_stream(args: argparse.Namespace) -> int:
    config = RunConfig(
        snapshot_interval=args.snapshot_interval,
        max_edges=args.max_edges,
        max_tracked_graphs=args.max_tracked_graphs,
    )
    with open(args.model, "r", encoding="ascii", newline="") as fp:
        model = load_model(fp)
    labels = load_labels_file(args.labels) if args.labels else None
    with open(args.csv_out, "w", encoding="ascii") as csv_fp:
        result = run_stream(model, args.input, config, labels=labels, csv_fp=csv_fp)
    print(
        f"processed {result.edges_processed} edges in {result.elapsed_seconds:.2f}s "
        f"({result.edges_per_second:.0f} edges/sec), peak resident edges {result.peak_edges}, "
        f"dropped graphs {result.dropped_graphs}"
    )
    if result.dropped_graphs > result.graphs_seen:
        print(
            f"warning: {result.dropped_graphs} graph drops for {result.graphs_seen} graphs: "
            "live graphs keep restarting from nothing; raise --max-tracked-graphs "
            "to the number of graphs that stream at once",
            file=sys.stderr,
        )
    return 0


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    handlers = {
        "generate": _cmd_generate,
        "bootstrap": _cmd_bootstrap,
        "stream": _cmd_stream,
    }
    try:
        return handlers[args.command](args)
    except (ParseError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
