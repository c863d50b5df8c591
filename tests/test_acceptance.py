"""Acceptance checks, one test per numbered criterion.

Criteria 1, 2, 6 and 7 share one soak: 54 seeded update streams driven
under guaranteed parameters with a per-update shadow multiset, collecting
oracle reports, rebuild records and per-stream cost ledgers.  The session
summary prints one PASS/FAIL line per criterion.
"""

import itertools
import random
import statistics
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path

import pytest

from dyntree import (
    ActiveMultiset,
    DecisionTree,
    FeasibilityParams,
    FeatureKind,
    Schema,
    Split,
    StreamConfig,
    best_split,
    check_counters,
    check_feasibility,
    load_stream,
    make_example,
    mixed_stream,
    run_stream,
    threshold_stream,
)
from dyntree.build import build
from dyntree.oracle import (
    audit_smoothness,
    exact_feature_gains,
    exact_gini,
    exhaustive_split_search,
    generate_index_instance,
)

GUARANTEED = dict(epsilon=0.03, alpha=0.4, beta=0.5, k=3)
SOAK_STREAMS = 54
GAIN_TOL = 1e-12  # float split search vs enumeration
F1_TOL = 0.03     # three F1 points
SPEEDUP = 10.0    # full-rebuild regime vs laziest counters

ELECTRICITY = Path(__file__).resolve().parents[1] / "data" / "electricity.csv"


def _predict(node, features):
    while not node.is_leaf:
        node = node.route_child(features)
    return node.leaf_label


def _child_fraction_violations(root, where):
    """Internal nodes of a fresh build whose smaller child is too small."""
    bad = []
    stack = [root]
    while stack:
        v = stack.pop()
        if v.is_leaf:
            continue
        smaller = min(v.left.size, v.right.size)
        if not smaller > v.split_gain * v.size / 4.0:
            bad.append(
                f"{where}: smaller child {smaller}, gain {v.split_gain}, "
                f"node size {v.size}"
            )
        stack.append(v.left)
        stack.append(v.right)
    return bad


@dataclass
class SoakOutcome:
    streams: int = 0
    total_updates: int = 0
    total_rebuilds: int = 0
    feasibility_failures: list = field(default_factory=list)
    counter_failures: list = field(default_factory=list)
    fraction_failures: list = field(default_factory=list)
    ledgers: list = field(default_factory=list)


def _soak_one(idx: int, outcome: SoakOutcome) -> None:
    rng = random.Random(5000 + idx)
    params = FeasibilityParams(h=(None, 2, 4)[idx % 3], **GUARANTEED)
    assert params.guaranteed
    d = 2 + idx % 4
    if idx % 2:
        supply = mixed_stream(700, d_num=d - 1, d_cat=1, seed=idx,
                              grid=5, alphabet=3)
    else:
        supply = threshold_stream(700, d=d, seed=idx, noise=0.12, decimals=1)
    feed = iter(supply)

    warm = 80 if idx % 4 == 0 else 0
    ops = 150 + (idx * 37) % 270  # warm + ops stays at or under 500
    schema = Schema.infer(supply[0].features)
    pool = [next(feed) for _ in range(warm)]
    if warm:
        shadow = ActiveMultiset.from_examples(pool, schema)
        tree = DecisionTree.from_multiset(shadow.copy(), params)
    else:
        shadow = ActiveMultiset(schema)
        tree = DecisionTree.empty(params, schema)
    outcome.fraction_failures.extend(
        _child_fraction_violations(tree.root, f"stream {idx} warm build")
    )

    for step in range(ops):
        if pool and rng.random() < 0.35:
            i = rng.randrange(len(pool))
            victim = pool[i]
            pool[i] = pool[-1]
            pool.pop()
            info = tree.update(victim, "del")
            shadow.delete(victim)
        else:
            e = next(feed)
            info = tree.update(e, "ins")
            shadow.insert(e)
            pool.append(e)
        if info is not None:
            outcome.fraction_failures.extend(_child_fraction_violations(
                info.node, f"stream {idx} step {step} rebuild"
            ))
        report = check_feasibility(tree, shadow, params)
        if not report.ok:
            outcome.feasibility_failures.append(f"stream {idx} step {step}: {report}")
            break
        counters = check_counters(tree, shadow, params.epsilon)
        if not counters.ok:
            outcome.counter_failures.append(
                f"stream {idx} step {step}: {counters.detail}"
            )
            break

    outcome.streams += 1
    outcome.total_updates += tree.stats.updates
    outcome.total_rebuilds += tree.stats.rebuild_count
    outcome.ledgers.append({
        "stream": idx,
        "epsilon": params.epsilon,
        "touches": tree.stats.rebuild_touches,
        "updates": tree.stats.updates,
        "hstar": tree.stats.max_height,
    })


@pytest.fixture(scope="module")
def soak():
    outcome = SoakOutcome()
    for idx in range(SOAK_STREAMS):
        _soak_one(idx, outcome)
    return outcome


@pytest.mark.criterion(1, "feasibility oracle passes after every update on "
                          "54 guaranteed-parameter streams")
def test_criterion_1_feasibility_after_every_update(soak):
    assert soak.streams >= 50
    assert soak.total_updates >= 10_000
    assert soak.feasibility_failures == []


@pytest.mark.criterion(2, "size and pending counters stay within their "
                          "budgets at every node after every update")
def test_criterion_2_counter_invariant(soak):
    assert soak.streams >= 50
    assert soak.counter_failures == []


@pytest.mark.criterion(3, "index fixture: reduced-instance gains are exactly "
                          "1/6, 1/8 and 0, and the root split isolates the "
                          "probed matrix bit")
def test_criterion_3_hard_instance_gains():
    rng = random.Random(41)
    for N in range(1, 7):
        for D in range(1, 7):
            for k in (2, 4):
                A = [[rng.randint(0, 1) for _ in range(D)] for _ in range(N)]
                kappa = rng.randint(1, N)
                ell = rng.randint(1, D)
                full, reduced = generate_index_instance(N, D, k, A, kappa, ell)
                assert len(full) == 2 * k * (N + D)
                assert len(reduced) == 4 * k

                gains = exact_feature_gains(reduced)
                assert gains[ell - 1] == Fraction(1, 6)
                for j in range(D):
                    if j != ell - 1:
                        assert gains[j] == Fraction(1, 8)
                for j in range(D, reduced.schema.arity):
                    assert gains[j] == Fraction(0)

                params = FeasibilityParams(
                    epsilon=0.25, alpha=0.4, beta=0.1, k=k, h=None
                )
                root, _ = build(reduced, 0, params)
                assert not root.is_leaf
                assert root.split == Split(ell - 1, 0.0)
                assert abs(root.split_gain - 1 / 6) <= GAIN_TOL
                bit = A[kappa - 1][ell - 1]
                child = root.right  # the feature-ell = 1 side
                assert child.is_leaf
                assert child.size == k
                assert child.leaf_label == bit
                assert tuple(child.label_hist) == ((k, 0) if bit == 0 else (0, k))


@pytest.mark.criterion(4, "1000-pair smoothness audit: gini within 2.5 ED*, "
                          "gains within 12.5 ED*, single edits strictly "
                          "under 2/max size")
def test_criterion_4_smoothness_audit():
    report = audit_smoothness(trials=1000, seed=0)
    assert report.trials == 1000
    assert report.checks >= 1000
    assert report.violations == []


def _grow_by_enumeration(s, depth, params):
    """Tree grown by recursing exhaustive_split_search, with the builder's
    stop rules (size floor, Gini at most alpha/2, depth cap) and its
    fallback when the best split sends everything one way: the lowest
    feature with two distinct values, split at its smallest value.  Leaves
    are bare labels; internal nodes are (split, left, right).
    """
    n0, n1 = s.label_counts()
    label = 1 if n1 > n0 else 0
    if (n0 + n1 <= params.k or exact_gini(s) <= Fraction(params.alpha) / 2
            or (params.h is not None and depth >= params.h)):
        return label
    split, _, _ = exhaustive_split_search(s)
    every = [e for e, c in s.items() for _ in range(c)]
    left = [e for e in every if split.routes_left(e.features)]
    if len(left) in (0, n0 + n1):
        split = None
        for j, kind in enumerate(s.schema.kinds):
            values = sorted({e.features[j] for e in s})
            if len(values) > 1:
                split = Split(j, values[0],
                              categorical=kind is FeatureKind.CATEGORICAL)
                break
        if split is None:
            return label
        left = [e for e in every if split.routes_left(e.features)]
    right = [e for e in every if not split.routes_left(e.features)]
    return (
        split,
        _grow_by_enumeration(ActiveMultiset.from_examples(left, s.schema),
                             depth + 1, params),
        _grow_by_enumeration(ActiveMultiset.from_examples(right, s.schema),
                             depth + 1, params),
    )


def _predict_grown(node, features):
    while isinstance(node, tuple):
        split, left, right = node
        node = left if split.routes_left(features) else right
    return node


@pytest.mark.criterion(5, "split search matches brute-force enumeration on "
                          "200 instances and build agrees on every binary "
                          "query point with a tree grown by brute force")
def test_criterion_5_split_search_equivalence():
    rng = random.Random(77)
    for trial in range(200):
        d = rng.randint(1, 6)
        kinds = tuple(
            FeatureKind.REAL if rng.random() < 0.6 else FeatureKind.CATEGORICAL
            for _ in range(d)
        )
        s = ActiveMultiset(Schema(kinds))
        grid = rng.randint(2, 9)
        alphabet = rng.randint(2, 4)
        p1 = rng.uniform(0.2, 0.8)
        for _ in range(rng.randint(1, 64)):
            feats = tuple(
                float(rng.randrange(grid)) if kind is FeatureKind.REAL
                else "abcd"[rng.randrange(alphabet)]
                for kind in kinds
            )
            s.insert(make_example(feats, 1 if rng.random() < p1 else 0))
        result = best_split(s)
        oracle_split, oracle_gain, oracle_features = exhaustive_split_search(s)
        assert result.best_split == oracle_split, f"trial {trial}"
        assert abs(result.best_gain - oracle_gain) <= GAIN_TOL
        for (_, mine), (_, theirs) in zip(result.per_feature, oracle_features):
            assert abs(mine - theirs) <= GAIN_TOL

    params = FeasibilityParams(epsilon=0.2, alpha=0.1, beta=0.0, k=1, h=None)
    for trial in range(100):
        d = rng.randint(1, 6)
        s = ActiveMultiset(Schema.categorical(d))
        for _ in range(rng.randint(1, 40)):
            s.insert(make_example(
                tuple(rng.randrange(2) for _ in range(d)), rng.randrange(2)
            ))
        built, _ = build(s, 0, params)
        grown = _grow_by_enumeration(s, 0, params)
        for point in itertools.product((0, 1), repeat=d):
            assert _predict(built, point) == _predict_grown(grown, point), (
                f"trial {trial}: build and enumeration disagree at {point}"
            )


@pytest.mark.criterion(6, "after every build, each internal node's smaller "
                          "child exceeds a gain/4 fraction of the node")
def test_criterion_6_child_fraction_bound(soak):
    assert soak.total_rebuilds > 0
    assert soak.fraction_failures == []


@pytest.mark.criterion(7, "total rebuild touches stay within (4/eps) times "
                          "updates times max height on every stream")
def test_criterion_7_amortized_touch_budget(soak):
    assert soak.total_rebuilds > 0
    for row in soak.ledgers:
        bound = (4.0 / row["epsilon"]) * row["updates"] * row["hstar"]
        assert row["touches"] <= bound, row


@pytest.mark.criterion(8, "100k-update sliding window: eps=1 updates are "
                          "at least 10x faster than eps=0 and F1 at eps=0.1 "
                          "stays within 3 points of eps=0")
def test_criterion_8_performance_shape():
    stream = threshold_stream(51_000, d=8, seed=88, noise=0.04)
    runs = {}
    for eps in (1.0, 0.1, 0.0):
        params = FeasibilityParams(epsilon=eps, alpha=0.3, beta=0.4, k=5, h=8)
        config = StreamConfig(params, mode="sw", window=1000)
        metrics = run_stream(stream, config)
        assert metrics.stats.updates == 100_000
        runs[eps] = metrics
    mean_full = statistics.fmean(runs[0.0].per_update_nanos)
    mean_lazy = statistics.fmean(runs[1.0].per_update_nanos)
    assert mean_full >= SPEEDUP * mean_lazy, (mean_full, mean_lazy)
    assert abs(runs[0.1].f1 - runs[0.0].f1) <= F1_TOL, (
        runs[0.1].f1, runs[0.0].f1
    )


@pytest.mark.criterion(9, "electricity spot check (optional dataset): "
                          "incremental F1 within 3 points of 0.8212")
@pytest.mark.skipif(not ELECTRICITY.exists(),
                    reason="optional dataset data/electricity.csv not supplied")
def test_criterion_9_electricity_spot_check():
    header = ELECTRICITY.read_text().splitlines()[0].split(",")
    label = "class" if "class" in header else header[-1]
    stream = load_stream(str(ELECTRICITY), label, "UP")
    assert stream, "dataset parsed to an empty stream"
    params = FeasibilityParams(epsilon=0.5, alpha=0.0, beta=0.0, k=1, h=10)
    metrics = run_stream(stream, StreamConfig(params))
    assert abs(metrics.f1 - 0.8212) <= F1_TOL, metrics.f1
