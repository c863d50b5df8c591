"""Smoke tests of the scripts under scripts/."""

import importlib
import importlib.util
from pathlib import Path

import numpy as np

from dyntree import Schema, load_stream, mixed_stream
from dyntree.core import _SYMBOL_TYPES

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"


def _load(name):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_sweep_reports_a_mode_that_ran_no_updates(capsys):
    # 500 examples do not fill the sliding window of 1000, so sw runs no
    # update; its timing and page-fault columns read "-" instead of raising
    assert _load("sweep_epsilon").main(["--n", "500"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].split()[-1] == "faults/upd"
    rows = {line.split()[0]: line.split() for line in lines[1:]}
    assert rows["sw"][2:8] == ["0", "-", "-", "-", "-", "-"]
    assert rows["sw"][-1] == "-"
    # the warm window was still ingested and built
    assert float(rows["sw"][8]) > 0.0
    assert rows["ru"][2] == "500" and "-" not in rows["ru"]
    assert float(rows["ru"][-1]) >= 0.0


def test_sweep_prints_and_writes_a_row_per_mode_and_epsilon(capsys, tmp_path):
    out = tmp_path / "sweep.csv"
    assert _load("sweep_epsilon").main([
        "--mode", "sw", "ru", "--n", "50", "--window", "20", "--d", "3",
        "--epsilon", "0", "1", "--out", str(out),
    ]) == 0
    printed = capsys.readouterr().out.splitlines()
    assert printed[0].split() == [
        "mode", "epsilon", "updates", "mean", "us", "p50", "us", "p90", "us",
        "p99", "us", "max", "us", "setup", "us", "rebuilds", "touches", "f1",
        "faults/upd"]
    grid = [["sw", "0"], ["sw", "1"], ["ru", "0"], ["ru", "1"]]
    assert [line.split()[:2] for line in printed[1:]] == grid
    # 50 examples through a window of 20 make 30 steps of two updates
    assert [line.split()[2] for line in printed[1:3]] == ["60", "60"]
    rows = out.read_text().splitlines()
    assert rows[0] == (
        "mode,epsilon,updates,mean_update_nanos,median_update_nanos,"
        "p90_update_nanos,p99_update_nanos,max_update_nanos,setup_nanos,"
        "rebuild_count,rebuild_touches,f1,faults_per_update")
    assert [row.split(",")[:2] for row in rows[1:]] == [
        [mode, f"{float(eps)}"] for mode, eps in grid]


# The digests of `tree_digest.py --steps 150 --seed 3`, recorded before the
# numeric sweep started returning its gains (grid-sw: before the binned
# sweep came in; numeric-wide-sw: before the sort sweep took its running
# sums in one complex cumsum and large flushes packed their real values).
# A change that only speeds the engine up must build the same trees, so
# these stay as they are; a change that means to alter the trees updates
# them and says why.
PINNED_DIGESTS = {
    "numeric-sw":
        "6402adc77ab5a6a2b53459a62bbd9410250fe4236e148576b6fa6bd449e7ca29",
    "mixed-sw":
        "35443c8537047c82cfb89018af623582141e6cdd6872ced5906353ded19cf2fa",
    "categorical-ru":
        "2969410e9c721a8f868e0120a7ac59fa5fe4b1f0353135e60a14df542f511436",
    "new-symbols-sw":
        "2622e7717aa717f0a1350eb8934996b3148ff779f14b2dc3f786ddb9a0d9c3b9",
    "grid-sw":
        "c9c164c3a49757cf1004c224254316762ff8529a77b0cde91736d2a5921ef252",
    "numeric-wide-sw":
        "fb8d217bb642f60372eeb997a6af8ba0be06a6fb93dbe150d54f2fc233975c58",
}


def test_tree_digest_is_reproducible(capsys, monkeypatch):
    # grid-sw's real columns repeat values at every rebuild target, so its
    # digest covers the rank-coded sweeps whatever the gate's constants
    # are; spies on the counting kernels in the builder's namespace check
    # that they ran there.  grid-sw's real columns hold 12 rank codes and
    # new-symbols-sw's categorical column hundreds of symbols, so SCAN_CODES
    # at 0 and at 10**9 sends both streams' counting to the codes-present
    # kernels and to the whole-range scans; each stream's digest must stay
    # pinned either way, and each kernel must run.  mixed-sw's
    # small nodes sweep their real columns on lists, which a second spy
    # checks.  mixed-sw's and categorical-ru's few-row flushes code their
    # rows through memoryviews, which a third spy checks.  numeric-wide-sw
    # sort-sweeps 1000x8 cells at its root and packs flushes of more than
    # CODE_CELLS cells, which a fourth and a fifth spy check.  In
    # categorical-ru and grid-sw some nodes gain nothing from any split
    # yet one separates them, which a spy on the node sweep counts
    build_mod = importlib.import_module("dyntree.build")
    core_mod = importlib.import_module("dyntree.core")
    zero_gain = []

    def node_sweep_spy(store, rows):
        def spied(idx, total, ones):
            out = sweep(idx, total, ones)
            j, found = out[:2]
            # the pick sends every row left, and another feature does not
            if found[j][1] == total and min(r[1] for r in found) < total:
                zero_gain.append(total)
            return out
        sweep = node_sweep(store, rows)
        return spied
    node_sweep = build_mod._node_sweep
    monkeypatch.setattr(build_mod, "_node_sweep", node_sweep_spy)
    counted = dict.fromkeys(("_scan_binned", "_sweep_binned",
                             "_sweep_categorical",
                             "_sweep_categorical_present"), 0)

    def count_spy(name, kernel):
        def spied(*args):
            counted[name] += 1
            return kernel(*args)
        return spied
    for name in counted:
        monkeypatch.setattr(build_mod, name,
                            count_spy(name, getattr(build_mod, name)))
    listed = []

    def list_spy(*args):
        listed.append(len(args[1]))
        return list_sweep(*args)
    list_sweep = build_mod._sweep_list
    monkeypatch.setattr(build_mod, "_sweep_list", list_spy)
    viewed = []

    def view_spy(a):
        # the store views a float64 vector, its label column, only to code
        # a flush through memoryviews; its other views are of int64 arrays
        if a.dtype == np.float64 and a.ndim == 1:
            viewed.append(len(a))
        return memoryview(a)
    monkeypatch.setattr(core_mod, "memoryview", view_spy, raising=False)
    swept = []

    def sort_spy(X, *args):
        swept.append(X.shape)
        return sort_sweep(X, *args)
    sort_sweep = build_mod._sweep_numeric
    monkeypatch.setattr(build_mod, "_sweep_numeric", sort_spy)
    packed = []

    def pack_spy(values, cells):
        packed.append(cells)
        return pack(values, cells)
    pack = core_mod._reals
    monkeypatch.setattr(core_mod, "_reals", pack_spy)
    digest = _load("tree_digest")
    outs = []
    for _ in range(2):
        assert digest.main(["--steps", "150", "--seed", "3"]) == 0
        outs.append(capsys.readouterr().out)
    lines = outs[0].splitlines()
    assert outs[0] == outs[1]
    assert [line.split()[0] for line in lines] == list(digest.STREAMS)
    assert dict(line.split() for line in lines) == PINNED_DIGESTS
    assert len({line.split()[1] for line in lines}) == len(lines)
    assert digest.digest("mixed-sw", 150, 4) not in outs[0]
    listed.clear()
    viewed.clear()
    assert digest.digest("mixed-sw", 150, 3) == PINNED_DIGESTS["mixed-sw"]
    assert len(listed) > 0
    assert len(viewed) > 0
    viewed.clear()
    zero_gain.clear()
    assert (digest.digest("categorical-ru", 150, 3)
            == PINNED_DIGESTS["categorical-ru"])
    assert len(viewed) > 0
    assert len(zero_gain) > 0
    counted.update(_scan_binned=0, _sweep_binned=0)
    zero_gain.clear()
    assert digest.digest("grid-sw", 150, 3) == PINNED_DIGESTS["grid-sw"]
    assert counted["_scan_binned"] + counted["_sweep_binned"] > 100
    assert len(zero_gain) > 0
    scan_codes = build_mod.SCAN_CODES
    for cutoff, ran in ((0, {"_sweep_binned", "_sweep_categorical_present"}),
                        (10**9, {"_scan_binned", "_sweep_categorical"})):
        monkeypatch.setattr(build_mod, "SCAN_CODES", cutoff)
        counted.update(dict.fromkeys(counted, 0))
        for name in ("grid-sw", "new-symbols-sw"):
            assert digest.digest(name, 150, 3) == PINNED_DIGESTS[name]
        assert {k for k, calls in counted.items() if calls} == ran, cutoff
    monkeypatch.setattr(build_mod, "SCAN_CODES", scan_codes)
    swept.clear()
    packed.clear()
    assert (digest.digest("numeric-wide-sw", 150, 3)
            == PINNED_DIGESTS["numeric-wide-sw"])
    assert (1000, 8) in swept
    assert max(packed) > core_mod.CODE_CELLS


def test_shipped_streams_yield_only_symbol_types(tmp_path):
    # the schema takes categorical values of the exact types in
    # _SYMBOL_TYPES only, so every stream the project ships must yield no
    # other, or it would be rejected at the first insert
    path = tmp_path / "small.csv"
    path.write_text("x,colour,n,label\n1.5,red,3,yes\n2,blue,4,no\n"
                    "-0.5,red,x,yes\n")
    streams = {"load_stream": load_stream(path, "label", "yes"),
               "mixed_stream": mixed_stream(100, d_num=2, d_cat=3, seed=1),
               "mixed_stream-categorical": mixed_stream(100, d_num=0,
                                                        d_cat=2, seed=2)}
    for name, (_, _, make, size) in _load("tree_digest").STREAMS.items():
        streams[name] = make(size + 50, 3)
    for name, stream in streams.items():
        schema = Schema.infer(stream[0].features)
        for e in stream:
            schema.validate(e.features)
            types = {type(e.features[j]) for j in schema._categorical}
            assert types <= _SYMBOL_TYPES, (name, types)
    # the CSV's colour and n columns (n holds an "x") are categorical
    assert Schema.infer(streams["load_stream"][0].features) == Schema.infer(
        (1.5, "red", "3"))
