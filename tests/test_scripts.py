"""Smoke tests of the scripts under scripts/."""

import importlib.util
from pathlib import Path

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"


def _load(name):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_benchmark_reports_a_mode_that_ran_no_updates(capsys):
    # 500 examples do not fill the sliding window of 1000, so sw runs no
    # update; its timing columns read "-" instead of raising
    assert _load("benchmark").main(["--n", "500"]) == 0
    rows = {line.split()[0]: line.split()
            for line in capsys.readouterr().out.splitlines()[1:]}
    assert rows["sw"][1:6] == ["0", "-", "-", "-", "-"]
    assert rows["ru"][1] == "500" and "-" not in rows["ru"]


def test_tree_digest_is_reproducible(capsys):
    digest = _load("tree_digest")
    outs = []
    for _ in range(2):
        assert digest.main(["--steps", "150", "--seed", "3"]) == 0
        outs.append(capsys.readouterr().out)
    lines = outs[0].splitlines()
    assert outs[0] == outs[1]
    assert [line.split()[0] for line in lines] == list(digest.STREAMS)
    assert len({line.split()[1] for line in lines}) == len(lines)
    assert digest.digest("mixed-sw", 150, 4) not in outs[0]
