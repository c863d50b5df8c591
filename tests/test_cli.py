"""End-to-end checks of the command line interface."""

import dataclasses
import json

import pytest

from dyntree import DecisionTree, FeasibilityParams, Schema, load_stream
from dyntree.cli import _parse_h, build_parser, main


@pytest.fixture
def csv_path(tmp_path):
    rows = ["x,y,label"]
    for i in range(60):
        x = (i % 10) / 10.0
        rows.append(f"{x},{(i * 7 % 10) / 10.0},{'pos' if x >= 0.5 else 'neg'}")
    path = tmp_path / "stream.csv"
    path.write_text("\n".join(rows) + "\n")
    return str(path)


def run_cli(args):
    return main(args)


def test_parse_h_spellings():
    assert _parse_h("none") is None
    assert _parse_h("INF") is None
    assert _parse_h("unbounded") is None
    assert _parse_h("7") == 7


def test_run_prints_summary(csv_path, capsys):
    code = run_cli([
        "run", "--data", csv_path, "--label", "label", "--positive", "pos",
    ])
    assert code == 0
    summary = json.loads(capsys.readouterr().out)
    assert summary["predictions"] == 60
    assert summary["updates"] == 60
    assert summary["f1"] > 0.8


def test_run_writes_out_and_series(csv_path, tmp_path, capsys):
    out = tmp_path / "summary.json"
    series = tmp_path / "steps.csv"
    code = run_cli([
        "run", "--data", csv_path, "--label", "label", "--positive", "pos",
        "--mode", "sw", "--window", "20", "--epsilon", "0.5",
        "--out", str(out), "--series", str(series),
    ])
    assert code == 0
    stdout_summary = json.loads(capsys.readouterr().out)
    assert json.loads(out.read_text()) == stdout_summary
    assert stdout_summary["config"]["window"] == 20
    assert series.read_text().startswith("t,y_hat,y,nanos")


def test_run_verified_stream(csv_path, capsys):
    code = run_cli([
        "run", "--data", csv_path, "--label", "label", "--positive", "pos",
        "--epsilon", "0.03", "--alpha", "0.4", "--beta", "0.5", "--k", "3",
        "--h", "none", "--verify",
    ])
    assert code == 0
    assert json.loads(capsys.readouterr().out)["updates"] == 60


def test_summaries_report_reused_touches(csv_path, tmp_path, capsys):
    args = ["run", "--data", csv_path, "--label", "label", "--positive", "pos",
            "--epsilon", "0.03", "--alpha", "0.4", "--beta", "0.5", "--k", "3"]
    assert run_cli(args) == 0
    printed = json.loads(capsys.readouterr().out)
    out = tmp_path / "summary.json"
    assert run_cli(args + ["--out", str(out)]) == 0
    written = json.loads(out.read_text())
    # kept subtrees are gathered too, so they are part of the touches
    assert 0 < printed["reused_touches"] < printed["rebuild_touches"]
    for key in ("rebuild_touches", "reused_touches"):
        assert written[key] == printed[key]


def test_the_summary_holds_every_tree_counter(csv_path, capsys):
    # each TreeStats field under its own name, with the value of a tree
    # that takes the same stream
    assert run_cli(["run", "--data", csv_path, "--label", "label",
                    "--positive", "pos", "--epsilon", "0.03", "--alpha",
                    "0.4", "--beta", "0.5", "--k", "3"]) == 0
    printed = json.loads(capsys.readouterr().out)
    stream = load_stream(csv_path, "label", "pos")
    tree = DecisionTree.empty(
        FeasibilityParams(epsilon=0.03, alpha=0.4, beta=0.5, k=3, h=10),
        Schema.infer(stream[0].features))
    for e in stream:
        tree.update(e, "ins")
    expected = dataclasses.asdict(tree.stats)
    assert {key: printed[key] for key in expected} == expected
    assert all(expected.values())


def test_printed_summary_without_out_is_the_full_summary(csv_path, tmp_path,
                                                         capsys):
    # without --out the CLI prints the same summary emit_metrics writes,
    # and --series is still honoured
    series = tmp_path / "steps.csv"
    args = ["run", "--data", csv_path, "--label", "label", "--positive", "pos",
            "--mode", "sw", "--window", "20", "--epsilon", "0.5"]
    assert run_cli(args + ["--series", str(series)]) == 0
    printed = json.loads(capsys.readouterr().out)
    assert series.read_text().startswith("t,y_hat,y,nanos")
    out = tmp_path / "summary.json"
    assert run_cli(args + ["--out", str(out)]) == 0
    capsys.readouterr()
    written = json.loads(out.read_text())
    assert printed.keys() == written.keys()
    assert printed["median_update_nanos"] is not None
    assert printed["config"] == written["config"]


def test_missing_file_fails_cleanly(capsys):
    code = run_cli([
        "run", "--data", "/does/not/exist.csv",
        "--label", "label", "--positive", "pos",
    ])
    assert code == 1
    assert "error:" in capsys.readouterr().err


def _forbid_replay(monkeypatch):
    def fail(examples, config):
        raise AssertionError("the stream was replayed")

    monkeypatch.setattr("dyntree.cli.run_stream", fail)


def _failed_cleanly(capsys, path) -> bool:
    out, err = capsys.readouterr()
    return (out == "" and err.startswith("error: ")
            and err.count("\n") == 1 and str(path) in err)


def test_unwritable_out_fails_cleanly(csv_path, tmp_path, capsys,
                                      monkeypatch):
    _forbid_replay(monkeypatch)
    bad, series = tmp_path / "no" / "such" / "x.json", tmp_path / "steps.csv"
    code = run_cli([
        "run", "--data", csv_path, "--label", "label", "--positive", "pos",
        "--out", str(bad), "--series", str(series),
    ])
    assert code == 1
    assert _failed_cleanly(capsys, bad)
    assert not series.exists()


def test_unwritable_series_fails_cleanly(csv_path, tmp_path, capsys,
                                         monkeypatch):
    _forbid_replay(monkeypatch)
    bad = tmp_path / "no" / "such" / "steps.csv"
    made, kept = tmp_path / "summary.json", tmp_path / "kept.json"
    kept.write_text("old\n")
    for out in (made, kept):
        code = run_cli([
            "run", "--data", csv_path, "--label", "label", "--positive",
            "pos", "--out", str(out), "--series", str(bad),
        ])
        assert code == 1
        assert _failed_cleanly(capsys, bad)
    # no partial --out is left behind, and one that existed is not emptied
    assert not made.exists()
    assert kept.read_text() == "old\n"


def test_a_failed_run_leaves_no_output_behind(csv_path, tmp_path, capsys):
    out, series = tmp_path / "summary.json", tmp_path / "steps.csv"
    code = run_cli([
        "run", "--data", csv_path, "--label", "missing", "--positive", "pos",
        "--out", str(out), "--series", str(series),
    ])
    assert code == 1
    assert "error:" in capsys.readouterr().err
    assert not out.exists() and not series.exists()


def test_sw_without_window_fails_cleanly(csv_path, capsys):
    code = run_cli([
        "run", "--data", csv_path, "--label", "label", "--positive", "pos",
        "--mode", "sw",
    ])
    assert code == 1
    assert "window" in capsys.readouterr().err


def test_window_outside_sw_fails_cleanly(csv_path, capsys):
    code = run_cli([
        "run", "--data", csv_path, "--label", "label", "--positive", "pos",
        "--mode", "incremental", "--window", "5",
    ])
    assert code == 1
    assert "sw mode only" in capsys.readouterr().err


def test_bad_param_combination_fails_cleanly(csv_path, capsys):
    code = run_cli([
        "run", "--data", csv_path, "--label", "label", "--positive", "pos",
        "--epsilon", "-1",
    ])
    assert code == 1
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("epsilon", ["nan", "inf"])
def test_nan_epsilon_fails_cleanly(csv_path, capsys, epsilon):
    # a NaN epsilon would make every drift bound NaN, and an infinite one an
    # empty subtree's, so nothing rebuilds
    code = run_cli([
        "run", "--data", csv_path, "--label", "label", "--positive", "pos",
        "--epsilon", epsilon,
    ])
    assert code == 1
    assert "error:" in capsys.readouterr().err


def test_negative_warmup_fails_cleanly(csv_path, capsys):
    code = run_cli([
        "run", "--data", csv_path, "--label", "label", "--positive", "pos",
        "--warmup", "-5",
    ])
    assert code == 1
    assert "warmup must be nonnegative" in capsys.readouterr().err


def test_parser_requires_subcommand():
    with pytest.raises(SystemExit):
        build_parser().parse_args([])
