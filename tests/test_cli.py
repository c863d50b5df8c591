"""End-to-end checks of the command line interface."""

import json

import pytest

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
    assert 0 < printed["rebuild_reused_touches"] < printed["rebuild_example_touches"]
    for key in ("rebuild_example_touches", "rebuild_reused_touches"):
        assert written[key] == printed[key]


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


def test_sw_without_window_fails_cleanly(csv_path, capsys):
    code = run_cli([
        "run", "--data", csv_path, "--label", "label", "--positive", "pos",
        "--mode", "sw",
    ])
    assert code == 1
    assert "window" in capsys.readouterr().err


def test_bad_param_combination_fails_cleanly(csv_path, capsys):
    code = run_cli([
        "run", "--data", csv_path, "--label", "label", "--positive", "pos",
        "--epsilon", "-1",
    ])
    assert code == 1
    assert "error:" in capsys.readouterr().err


def test_nan_epsilon_fails_cleanly(csv_path, capsys):
    # a NaN epsilon would make every drift bound NaN, so nothing rebuilds
    code = run_cli([
        "run", "--data", csv_path, "--label", "label", "--positive", "pos",
        "--epsilon", "nan",
    ])
    assert code == 1
    assert "error:" in capsys.readouterr().err


def test_parser_requires_subcommand():
    with pytest.raises(SystemExit):
        build_parser().parse_args([])
