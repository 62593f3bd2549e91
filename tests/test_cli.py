from sketchstream.cli import main
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


def test_cli_rejects_bad_int_list(capsys):
    import pytest

    with pytest.raises(SystemExit):
        run_cli("bootstrap", "-i", "x", "--model-out", "y",
                "--chunk-lengths", "a,b", "--seed", 1, "--family-seed", 2)
