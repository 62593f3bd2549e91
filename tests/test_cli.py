import pytest

from sketchstream import GeneratorConfig, RunConfig
from sketchstream.cli import build_parser, main
from sketchstream.engine import MODEL_HEADER


def run_cli(*args):
    return main([str(a) for a in args])


def test_generate_bootstrap_stream_pipeline(tmp_path, capsys):
    stream = tmp_path / "test.tsv"
    labels = tmp_path / "labels.tsv"
    train = tmp_path / "train.tsv"
    model = tmp_path / "out.model"
    csv = tmp_path / "snapshots.csv"

    assert run_cli(
        "generate",
        "--classes", 2, "--graphs-per-class", 8, "--anomaly-fraction", 2 / 18,
        "--avg-nodes", 20, "--avg-edges", 60, "-B", 4, "--separation", 1.0,
        "--seed", 5, "--out", stream, "--labels-out", labels,
        "--train-out", train, "--train-fraction", 0.75,
    ) == 0
    out = capsys.readouterr().out
    assert "training edges" in out and "test edges" in out
    assert stream.exists() and labels.exists() and train.exists()
    assert all(len(line.split("\t")) == 7 for line in stream.read_text().splitlines())
    assert all(len(line.split("\t")) == 2 for line in labels.read_text().splitlines())

    assert run_cli(
        "bootstrap",
        "-i", train, "--model-out", model,
        "--chunk-lengths", "2,4,8", "--cluster-counts", "2,3",
        "-L", 128, "--seed", 3, "--family-seed", 4,
    ) == 0
    out = capsys.readouterr().out
    assert "clusters" in out and "silhouette" in out
    assert model.exists()

    assert run_cli(
        "stream",
        "--model", model, "-i", stream, "--labels", labels,
        "--csv-out", csv, "-E", 200,
    ) == 0
    out = capsys.readouterr().out
    assert "edges/sec" in out and "peak resident edges" in out
    assert out.rstrip().endswith("dropped graphs 0")
    lines = csv.read_text().splitlines()
    assert lines[0] == "edges_processed,graph_id,score,assignment,ap,auc"
    assert len(lines) > 1


@pytest.mark.parametrize("cap", [8, None], ids=["cap-8", "no-cap"])
def test_stream_warns_when_the_tracked_graph_cap_thrashes(tmp_path, capsys, cap):
    stream, labels, train = tmp_path / "test.tsv", tmp_path / "labels.tsv", tmp_path / "train.tsv"
    assert run_cli(
        "generate", "--classes", 2, "--graphs-per-class", 12, "--anomaly-fraction", 0.1,
        "--avg-nodes", 15, "--avg-edges", 40, "-B", 10, "--separation", 1.0, "--seed", 7,
        "--out", stream, "--labels-out", labels, "--train-out", train, "--train-fraction", 0.3,
    ) == 0
    model = tmp_path / "m.model"
    assert run_cli(
        "bootstrap", "-i", train, "--model-out", model, "--chunk-lengths", "2,4",
        "--cluster-counts", "2", "-L", 64, "--seed", 1, "--family-seed", 2,
    ) == 0
    capsys.readouterr()
    cap_args = () if cap is None else ("--max-tracked-graphs", cap)
    assert run_cli(
        "stream", "--model", model, "-i", stream, "--csv-out", tmp_path / "out.csv", *cap_args,
    ) == 0
    captured = capsys.readouterr()
    dropped = int(captured.out.rstrip().rsplit(" ", 1)[1])  # the exit line ends with the count
    graphs = len({line.split("\t")[6] for line in stream.read_text().splitlines()})
    if cap is None:
        assert dropped == 0 and captured.err == ""
    else:
        assert dropped > graphs
        assert captured.err.startswith(f"warning: {dropped} graph drops for {graphs} graphs")
        assert "--max-tracked-graphs" in captured.err


def test_cli_reports_errors_to_stderr(tmp_path, capsys):
    missing = tmp_path / "nope.tsv"
    code = run_cli(
        "bootstrap", "-i", missing, "--model-out", tmp_path / "m",
        "--seed", 1, "--family-seed", 2,
    )
    assert code == 1
    assert "error:" in capsys.readouterr().err


def test_cli_reports_truncated_model_without_traceback(tmp_path, capsys):
    model = tmp_path / "cut.model"
    model.write_text(f"{MODEL_HEADER}\nsketch_bits 4\nchunk_length 2\nhops 1\nfamily_seed 0\n")
    code = run_cli(
        "stream", "--model", model, "-i", tmp_path / "test.tsv",
        "--csv-out", tmp_path / "out.csv",
    )
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error: model file line 6: ")
    assert "Traceback" not in err


def test_cli_refuses_a_huge_projection_width_before_allocating(tmp_path, capsys):
    model = tmp_path / "wide.model"
    model.write_text(
        f"{MODEL_HEADER}\nsketch_bits 10000000000000\nchunk_length 2\nhops 1\n"
        "family_seed 0\nclusters 1\ncluster 0 size 1 threshold 0.5\nprojection 0 1.0\n"
    )
    code = run_cli(
        "stream", "--model", model, "-i", tmp_path / "test.tsv",
        "--csv-out", tmp_path / "out.csv",
    )
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error: model file line 8: ")
    assert "Traceback" not in err


def test_cli_reports_out_of_order_edge_without_traceback(tmp_path, capsys):
    model = tmp_path / "tiny.model"
    model.write_text(
        f"{MODEL_HEADER}\nsketch_bits 4\nchunk_length 2\nhops 1\nfamily_seed 0\n"
        "clusters 1\ncluster 0 size 1 threshold 0.5\nprojection 0 1.0 -1.0 1.0 -1.0\n"
    )
    stream = tmp_path / "test.tsv"
    stream.write_text("1\ta\t2\tb\t5\tX\t0\n1\ta\t3\tc\t4\tX\t0\n")
    code = run_cli(
        "stream", "--model", model, "-i", stream, "--csv-out", tmp_path / "out.csv",
    )
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error: node (0, 1) has an out-edge at timestamp 5")
    assert "Traceback" not in err


def test_bootstrap_takes_a_single_candidate_chunk_length(tmp_path, capsys):
    stream, labels, train = tmp_path / "test.tsv", tmp_path / "labels.tsv", tmp_path / "train.tsv"
    assert run_cli(
        "generate", "--classes", 2, "--graphs-per-class", 6, "--anomaly-fraction", 0.0,
        "--avg-nodes", 15, "--avg-edges", 40, "-B", 4, "--separation", 1.0, "--seed", 3,
        "--out", stream, "--labels-out", labels, "--train-out", train, "--train-fraction", 0.75,
    ) == 0
    capsys.readouterr()
    model = tmp_path / "m.model"
    assert run_cli(
        "bootstrap", "-i", train, "--model-out", model, "--chunk-lengths", 16,
        "--cluster-counts", 2, "-L", 64, "--seed", 1, "--family-seed", 2,
    ) == 0
    out = capsys.readouterr().out
    assert out.startswith("chunk_length 16\nclusters 2\n")
    assert model.read_text().splitlines()[2] == "chunk_length 16"


def test_cli_reports_a_bad_labels_line(tmp_path, capsys):
    model = tmp_path / "tiny.model"
    model.write_text(
        f"{MODEL_HEADER}\nsketch_bits 4\nchunk_length 2\nhops 1\nfamily_seed 0\n"
        "clusters 1\ncluster 0 size 1 threshold 0.5\nprojection 0 1.0 -1.0 1.0 -1.0\n"
    )
    labels = tmp_path / "labels.tsv"
    labels.write_text("0\tnormal\n1\tAnomaly\n")
    code = run_cli(
        "stream", "--model", model, "-i", tmp_path / "test.tsv", "--labels", labels,
        "--csv-out", tmp_path / "out.csv",
    )
    assert code == 1
    assert capsys.readouterr().err.startswith("error: labels line 2: ")


def test_cli_rejects_bad_int_list(capsys):

    with pytest.raises(SystemExit):
        run_cli("bootstrap", "-i", "x", "--model-out", "y",
                "--chunk-lengths", "a,b", "--seed", 1, "--family-seed", 2)


# Each command's options that set a config field: option dest -> field.
_CONFIG_OPTIONS = [
    (
        ["generate", "--seed", "1", "--out", "t", "--labels-out", "l"],
        GeneratorConfig(),
        {
            "classes": "num_behavior_classes",
            "graphs_per_class": "graphs_per_class",
            "anomaly_fraction": "anomaly_fraction",
            "avg_nodes": "avg_nodes",
            "avg_edges": "avg_edges",
            "interleave_width": "interleave_width",
            "separation": "separation",
        },
    ),
    (
        ["bootstrap", "-i", "t", "--model-out", "m", "--seed", "1", "--family-seed", "2"],
        RunConfig(),
        {
            "hops": "hops",
            "sketch_bits": "sketch_bits",
            "chunk_lengths": "candidate_chunk_lengths",
            "cluster_counts": "candidate_cluster_counts",
        },
    ),
    (
        ["stream", "--model", "m", "-i", "t", "--csv-out", "c"],
        RunConfig(),
        {
            "snapshot_interval": "snapshot_interval",
            "max_edges": "max_edges",
            "max_tracked_graphs": "max_tracked_graphs",
        },
    ),
]


@pytest.mark.parametrize(
    "argv,config,options", _CONFIG_OPTIONS, ids=[argv[0] for argv, _, _ in _CONFIG_OPTIONS]
)
def test_parser_defaults_are_the_config_defaults(argv, config, options):
    args = build_parser().parse_args(argv)
    assert {dest: getattr(args, dest) for dest in options} == {
        dest: getattr(config, field) for dest, field in options.items()
    }
