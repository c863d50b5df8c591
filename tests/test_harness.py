"""Streaming evaluation: loaders, the stream runner, metrics, shadow
verification."""

import dataclasses
import hashlib
import json
import statistics
import types

import pytest

import dyntree
from dyntree import (
    ActiveMultiset,
    DecisionTree,
    FeasibilityParams,
    FeatureKind,
    Schema,
    StreamConfig,
    StreamMetrics,
    VerificationError,
    emit_metrics,
    load_stream,
    make_example,
    mixed_stream,
    prequential_f1,
    run_stream,
    threshold_stream,
)
from dyntree.core import _Store
from dyntree.harness import _verify_step
from dyntree.synth import era_flip_stream

PARAMS = FeasibilityParams(epsilon=0.3, alpha=0.2, beta=0.3, k=3, h=8)
GUARANTEED = FeasibilityParams(epsilon=0.03, alpha=0.4, beta=0.5, k=3, h=None)


def write_csv(path, text):
    path.write_text(text)
    return str(path)


def test_load_stream_infers_column_types(tmp_path):
    path = write_csv(tmp_path / "s.csv", (
        "size,shade,label\n"
        "1.5,red,yes\n"
        "2.0,blue,no\n"
        "0.25,red,yes\n"
    ))
    stream = load_stream(path, "label", "yes")
    assert [e.label for e in stream] == [1, 0, 1]
    assert stream[0].features == (1.5, "red")
    assert stream[1].features == (2.0, "blue")
    assert Schema.infer(stream[0].features) == Schema(
        (FeatureKind.REAL, FeatureKind.CATEGORICAL))


def test_load_stream_numbers_stay_text_in_mixed_columns(tmp_path):
    path = write_csv(tmp_path / "s.csv", (
        "a,label\n"
        "12,x\n"
        "twelve,y\n"
    ))
    stream = load_stream(path, "label", "x")
    assert stream[0].features == ("12",)


def test_load_stream_label_by_index(tmp_path):
    path = write_csv(tmp_path / "s.csv", (
        "a,b,c\n"
        "1,0,2\n"
        "0,1,3\n"
    ))
    stream = load_stream(path, "1", "1")
    assert [e.label for e in stream] == [0, 1]
    assert stream[0].features == (1.0, 2.0)


def test_load_stream_rejects_nan_in_real_column(tmp_path):
    path = write_csv(tmp_path / "n.csv", "a,label\n1.5,yes\nnan,no\n")
    with pytest.raises(ValueError, match="row 3"):
        load_stream(path, "label", "yes")


def test_load_stream_names_the_first_nan_by_row_then_by_column(tmp_path):
    path = write_csv(tmp_path / "n.csv",
                     "a,b,c,label\n1,2,3,yes\n1,nan,nan,no\nnan,1,1,no\n")
    with pytest.raises(ValueError, match="row 3: NaN in real column 'b'"):
        load_stream(path, "label", "yes")


def test_load_stream_with_only_a_label_column(tmp_path):
    path = write_csv(tmp_path / "l.csv", "label\nyes\nno\n")
    assert load_stream(path, "label", "yes") == [make_example((), 1),
                                                  make_example((), 0)]


def test_load_stream_converts_each_cell_once(tmp_path, monkeypatch):
    # a real column's cells were converted once to type the column and
    # again to make the examples; a text column stops at its first word
    calls = []

    def counting(cell):
        calls.append(cell)
        return float(cell)
    monkeypatch.setattr(dyntree.harness, "float", counting, raising=False)
    path = write_csv(tmp_path / "s.csv",
                     "a,b,label\n1.5,3,yes\n-2,x,no\n0.25,y,yes\n")
    stream = load_stream(path, "label", "yes")
    assert stream == [make_example((1.5, "3"), 1), make_example((-2.0, "x"), 0),
                      make_example((0.25, "y"), 1)]
    assert calls == ["1.5", "-2", "0.25", "3", "x"]


def test_load_stream_errors(tmp_path):
    ragged = write_csv(tmp_path / "r.csv", "a,label\n1,yes\n2\n")
    with pytest.raises(ValueError, match="row 3"):
        load_stream(ragged, "label", "yes")
    unlabeled = write_csv(tmp_path / "u.csv", "a,label\n1,yes\n2,\n")
    with pytest.raises(ValueError, match="empty label"):
        load_stream(unlabeled, "label", "yes")
    ok = write_csv(tmp_path / "ok.csv", "a,label\n1,yes\n")
    with pytest.raises(ValueError, match="not in header"):
        load_stream(ok, "nope", "yes")
    with pytest.raises(ValueError, match="out of range"):
        load_stream(ok, "7", "yes")
    empty = write_csv(tmp_path / "e.csv", "")
    assert load_stream(empty, "label", "yes") == []


def test_prequential_f1_by_hand():
    # tp=2 fp=1 fn=1: precision and recall both 2/3
    assert prequential_f1([1, 0, 1, 1], [1, 1, 0, 1]) == pytest.approx(2 / 3)
    assert prequential_f1([0, 0, 1], [0, 0, 0]) == 0.0
    assert prequential_f1([1, 1], [1, 1]) == 1.0
    with pytest.raises(ValueError):
        prequential_f1([1], [1, 0])
    with pytest.raises(ValueError):
        prequential_f1([], [])


def test_stream_config_validation():
    with pytest.raises(ValueError):
        StreamConfig(PARAMS, mode="batch")
    with pytest.raises(ValueError):
        StreamConfig(PARAMS, mode="sw")
    with pytest.raises(ValueError):
        StreamConfig(PARAMS, mode="sw", window=10, warmup=11)
    for mode in ("incremental", "ru"):
        with pytest.raises(ValueError, match="sw mode only"):
            StreamConfig(PARAMS, mode=mode, window=10)
    cfg = StreamConfig(PARAMS, mode="sw", window=10)
    assert cfg.effective_warmup == 10
    assert StreamConfig(PARAMS).effective_warmup == 0


@pytest.mark.parametrize("mode,window", [("incremental", None), ("sw", 20),
                                         ("ru", None)])
def test_negative_warmup_is_rejected(mode, window):
    # a warmup of -5 on 50 examples built on the first 45 and scored 5
    # steps from t=-4
    with pytest.raises(ValueError, match="warmup must be nonnegative"):
        StreamConfig(PARAMS, mode=mode, window=window, warmup=-5)
    assert StreamConfig(PARAMS, mode=mode, window=window,
                        warmup=0).effective_warmup == 0


@pytest.mark.parametrize("config,pinned", [
    (StreamConfig(PARAMS, warmup=20),
     (220, 78, 1864, 8, 0.7868852459016394,
      "7748c34eabe166d02b82173a3b34b2a30747ec4b295d6707686365ca5b74cdf3")),
    (StreamConfig(PARAMS, mode="sw", window=60, warmup=10),
     (410, 174, 2669, 8, 0.7557251908396946,
      "3adb309c97aa40ba584b93a51553d267ef8ed176e7b025fde2c3e5a01e37482b")),
    (StreamConfig(PARAMS, mode="ru", warmup=20, seed=4),
     (220, 105, 1151, 6, 0.7450980392156863,
      "37759d480699f7f1ee14788c92f44dca85c24e0813b38ed1018c277553cf2a9e")),
], ids=["incremental", "sw", "ru"])
def test_run_stream_pins_each_mode(config, pinned):
    # recorded with the per-mode runners that run_stream replaced; the
    # digest covers every (t, predicted, actual) triple
    metrics = run_stream(mixed_stream(240, seed=13), config)
    digest = hashlib.sha256(json.dumps(metrics.predictions).encode()).hexdigest()
    stats = metrics.stats
    assert (stats.updates, stats.rebuild_count, stats.rebuild_touches,
            stats.max_height, metrics.f1, digest) == pinned
    assert len(metrics.step_nanos) == len(metrics.predictions)
    assert len(metrics.per_update_nanos) == metrics.stats.updates


@pytest.mark.parametrize("config", [
    StreamConfig(PARAMS, warmup=20),
    StreamConfig(PARAMS, mode="sw", window=40, warmup=10),
    StreamConfig(PARAMS, mode="ru", warmup=20, seed=2),
], ids=["incremental", "sw", "ru"])
def test_each_example_is_validated_once(monkeypatch, config):
    # the warm set's batch check validates its examples, in one call; then
    # each step's query validates its example, the insert of that queried
    # tuple adds no call, and neither does a delete of an example the tree
    # holds.  A warm example that missed the batch path would be validated
    # twice, once by the check and once by its insert
    calls = []
    original, check_all = Schema.validate, _Store.check_all

    def counting(schema, features):
        calls.append(features)
        return original(schema, features)

    def counting_all(store, examples):
        calls.extend(e.features for e in examples)
        return check_all(store, examples)

    monkeypatch.setattr(Schema, "validate", counting)
    monkeypatch.setattr(_Store, "check_all", counting_all)
    stream = mixed_stream(200, seed=3)
    metrics = run_stream(stream, config)
    assert len(metrics.predictions) == len(stream) - config.effective_warmup
    assert [id(f) for f in calls] == [id(e.features) for e in stream]


def test_sliding_window_matches_incremental_until_window_fills():
    stream = threshold_stream(120, d=3, seed=7, noise=0.1)
    inc = run_stream(stream, StreamConfig(PARAMS))
    sw = run_stream(
        stream, StreamConfig(PARAMS, mode="sw", window=10_000, warmup=0)
    )
    assert sw.predictions == inc.predictions
    assert sw.f1 == inc.f1


def test_sliding_window_keeps_active_set_at_window():
    stream = threshold_stream(150, d=2, seed=1)
    config = StreamConfig(PARAMS, mode="sw", window=40)
    metrics = run_stream(stream, config)
    # warmup fills the window, every later step pairs one del with one ins
    assert metrics.stats.updates == 2 * (150 - 40)
    assert len(metrics.predictions) == 150 - 40
    assert metrics.predictions[0][0] == 41


def test_random_update_runs_are_seed_deterministic():
    stream = mixed_stream(300, seed=5)
    a = run_stream(stream, StreamConfig(PARAMS, mode="ru", seed=9))
    b = run_stream(stream, StreamConfig(PARAMS, mode="ru", seed=9))
    assert a.predictions == b.predictions
    assert a.stats.updates == b.stats.updates
    assert a.stats.rebuild_count == b.stats.rebuild_count


def test_constant_stream_stays_single_leaf():
    stream = [make_example((1.0, 2.0), 1) for _ in range(60)]
    metrics = run_stream(stream, StreamConfig(PARAMS))
    assert metrics.stats.max_height == 0
    assert metrics.f1 > 0.95  # only the first, cold prediction misses


def test_warmup_is_not_scored():
    stream = threshold_stream(50, d=2, seed=3)
    metrics = run_stream(stream, StreamConfig(PARAMS, warmup=20))
    assert len(metrics.predictions) == 30
    assert metrics.predictions[0][0] == 21
    assert metrics.stats.updates == 30  # warm set lands in the initial build


def test_empty_stream_yields_empty_metrics():
    metrics = run_stream([], StreamConfig(PARAMS))
    assert metrics.predictions == []
    assert metrics.f1 == 0.0
    assert metrics.stats.updates == 0


def test_the_summary_holds_every_tree_counter():
    # each TreeStats field under its own name, with the value of a tree
    # that takes the same updates
    stream = threshold_stream(120, d=3, seed=4)
    metrics = run_stream(stream, StreamConfig(PARAMS, mode="sw", window=30))
    tree = DecisionTree.from_multiset(
        ActiveMultiset.from_examples(stream[:30]), PARAMS)
    for old, new in zip(stream, stream[30:]):
        tree.update(old, "del")
        tree.update(new, "ins")
    expected = dataclasses.asdict(tree.stats)
    summary = emit_metrics(metrics)
    assert {key: summary[key] for key in expected} == expected
    assert all(expected.values())
    assert metrics.stats == tree.stats


def test_run_stream_times_its_set_up(monkeypatch):
    # set-up is the warm ingest and the first build, and nothing else: not
    # the shadow copy that verification takes
    now = [0]
    monkeypatch.setattr(dyntree.harness, "time", types.SimpleNamespace(
        perf_counter_ns=lambda: now[0]))

    def taking(fn, nanos):
        def timed(*args):
            now[0] += nanos
            return fn(*args)
        return timed

    monkeypatch.setattr(ActiveMultiset, "from_examples", classmethod(taking(
        ActiveMultiset.from_examples.__func__, 1_000)))
    monkeypatch.setattr(DecisionTree, "from_multiset", classmethod(taking(
        DecisionTree.from_multiset.__func__, 1_000_000)))
    monkeypatch.setattr(ActiveMultiset, "copy",
                        taking(ActiveMultiset.copy, 7))
    stream = threshold_stream(60, d=2, seed=2)
    for verify in (False, True):
        metrics = run_stream(stream, StreamConfig(PARAMS, warmup=20,
                                                  verify=verify))
        assert metrics.setup_nanos == 1_001_000
        assert emit_metrics(metrics)["setup_nanos"] == 1_001_000
    assert run_stream([], StreamConfig(PARAMS)).setup_nanos == 0


def test_emit_metrics_writes_summary_and_series(tmp_path):
    stream = threshold_stream(80, d=2, seed=2)
    config = StreamConfig(PARAMS, warmup=10)
    metrics = run_stream(stream, config)
    out = tmp_path / "m.json"
    series = tmp_path / "m.csv"
    summary = emit_metrics(metrics, out, config=config, series_path=series)
    on_disk = json.loads(out.read_text())
    assert on_disk == summary  # JSON round-trips every float exactly
    assert on_disk["predictions"] == 70
    assert on_disk["updates"] == metrics.stats.updates
    assert on_disk["config"]["warmup"] == 10
    assert on_disk["mean_update_nanos"] > 0
    lines = series.read_text().strip().splitlines()
    assert lines[0] == "t,y_hat,y,nanos"
    assert len(lines) == 71
    first = lines[1].split(",")
    assert first[0] == "11"


def test_emit_metrics_handles_empty_run(tmp_path):
    out = tmp_path / "m.json"
    summary = emit_metrics(StreamMetrics(), out)
    assert summary["mean_update_nanos"] is None
    assert json.loads(out.read_text())["f1"] == 0.0


PERCENTILES = ("median_update_nanos", "p90_update_nanos", "p99_update_nanos",
               "max_update_nanos")


@pytest.mark.parametrize("nanos, expected", [
    # linear interpolation between the two nearest ranks: p50 of an even
    # count is the mean of the middle two, as statistics.median reads it
    ([40, 10, 30, 20], (25.0, 37.0, 39.7, 40)),
    # one point is every percentile (statistics.quantiles raises on it
    # before Python 3.13), and no point leaves every percentile None
    ([7], (7, 7, 7, 7)),
    ([], (None, None, None, None)),
], ids=["four", "one", "none"])
def test_emit_metrics_percentiles_interpolate_linearly(nanos, expected):
    summary = emit_metrics(StreamMetrics(per_update_nanos=nanos))
    assert tuple(summary[key] for key in PERCENTILES) == expected
    if nanos:
        assert summary["median_update_nanos"] == statistics.median(nanos)


def _verified_tree(params):
    # a tree of 40 inserts, its shadow multiset, and a verifying config
    tree = DecisionTree.empty(params, Schema.numeric(2))
    shadow = tree.leaf_union()
    for e in threshold_stream(40, d=2, seed=4):
        tree.update(e, "ins")
        shadow.insert(e)
    config = StreamConfig(params, verify=True)
    _verify_step(tree, shadow, config)
    return tree, shadow, config


def test_verify_step_raises_on_corrupted_tree():
    tree, shadow, config = _verified_tree(GUARANTEED)
    node = tree.root
    while not node.is_leaf:
        node = node.left
    node.leaf_label = 1 - node.leaf_label
    with pytest.raises(VerificationError):
        _verify_step(tree, shadow, config)


def test_verify_step_checks_counters_outside_the_guarantee():
    # feasibility is promised in the guaranteed regime only, the counters
    # always: a pending count above eps * size fails verification
    assert not PARAMS.guaranteed
    tree, shadow, config = _verified_tree(PARAMS)
    tree.root.pending = tree.root.size
    with pytest.raises(VerificationError, match="counter invariant"):
        _verify_step(tree, shadow, config)


@pytest.mark.parametrize("params", [
    FeasibilityParams(epsilon=0.1, alpha=0.0, beta=0.0, k=1, h=10),
    FeasibilityParams(epsilon=0.5, alpha=0.2, beta=0.1, k=3, h=10),
], ids=["cli_defaults", "eps_0.5"])
def test_verified_run_completes_outside_the_guarantee(params):
    # outside the guaranteed regime the tree may be infeasible, as it is
    # on this stream, so a verified run checks its counters alone
    assert not params.guaranteed
    config = StreamConfig(params, mode="sw", window=100, verify=True)
    assert run_stream(threshold_stream(400), config).stats.updates == 600


def test_verified_run_completes_under_guaranteed_params():
    stream = mixed_stream(150, seed=8)
    config = StreamConfig(GUARANTEED, mode="ru", seed=1, verify=True)
    metrics = run_stream(stream, config)
    assert metrics.stats.updates == 150


def test_sliding_window_recovers_from_era_flip():
    stream = era_flip_stream(300, 500, d=4, seed=6, noise=0.02)
    config = StreamConfig(PARAMS, mode="sw", window=100)
    metrics = run_stream(stream, config)
    tail = metrics.predictions[-250:]
    tail_f1 = prequential_f1([y for _, _, y in tail], [p for _, p, _ in tail])
    assert tail_f1 >= 0.9
