"""Exact tree construction: stopping rules, argmax splits, categorical splits."""

import itertools
import random
import weakref

import numpy as np
import pytest

from dyntree import (
    ActiveMultiset,
    FeasibilityParams,
    FeatureKind,
    Schema,
    Split,
    make_example,
)
import dyntree.build as build_mod
import dyntree.gini as gini_mod
from dyntree.build import best_split, build
from dyntree.gini import TIE_TOL, gini_index
from dyntree.oracle import exhaustive_split_search
from shared import leaf_multiset, subtree_multiset as _subtree_multiset, walk

PARAMS = FeasibilityParams(epsilon=0.1, alpha=0.2, beta=0.1, k=1, h=8)


def test_empty_build_is_zero_leaf():
    root, store = build(ActiveMultiset(Schema.numeric(1)), 0, PARAMS)
    assert root.is_leaf
    assert root.leaf_label == 0
    assert root.size == 0
    assert root.leaf_new is None
    assert len(leaf_multiset(store, root)) == 0


def test_pure_multiset_is_single_leaf():
    s = ActiveMultiset.from_examples(
        [make_example((float(i),), 1) for i in range(10)]
    )
    root, _ = build(s, 0, PARAMS)
    assert root.is_leaf
    assert root.leaf_label == 1
    assert root.label_hist == [0, 10]


def test_small_multiset_respects_k():
    s = ActiveMultiset.from_examples(
        [make_example((float(i),), i % 2) for i in range(4)]
    )
    params = FeasibilityParams(epsilon=0.1, alpha=0.2, beta=0.1, k=4, h=8)
    root, _ = build(s, 0, params)
    assert root.is_leaf


def test_perfectly_separable_pair_splits_at_root():
    exs = [make_example((0.0,), 0), make_example((1.0,), 1)] * 3
    root, _ = build(ActiveMultiset.from_examples(exs), 0, PARAMS)
    assert not root.is_leaf
    assert root.split.feature == 0
    assert root.split.threshold == 0.0
    assert root.left.is_leaf and root.left.leaf_label == 0
    assert root.right.is_leaf and root.right.leaf_label == 1
    assert root.split_gain == pytest.approx(0.5)


def test_depth_cap_prunes():
    rng = random.Random(0)
    exs = [
        make_example((float(rng.randrange(16)), float(rng.randrange(16))),
                     rng.randrange(2))
        for _ in range(200)
    ]
    params = FeasibilityParams(epsilon=0.1, alpha=0.01, beta=0.1, k=1, h=2)
    root, _ = build(ActiveMultiset.from_examples(exs), 0, params)
    for v in walk(root):
        assert v.depth <= 2
        if v.depth == 2:
            assert v.is_leaf
    assert root.height <= 2


@pytest.mark.parametrize("h", [5, None])
def test_stop_rule_at_its_boundaries(h):
    # a node stops at exactly k rows, at Gini exactly alpha/2 (4 rows with
    # one 1-label: 2 * 1/4 * 3/4 = 0.375 = 0.75 / 2) and at depth h; one
    # row more, alpha one ulp lower and depth h - 1 split.  Without a depth
    # cap, the first two stop alike and no depth stops a node
    def splits(labels, eta=0, k=1, alpha=0.0):
        s = ActiveMultiset.from_examples(
            make_example((float(i),), y) for i, y in enumerate(labels))
        params = FeasibilityParams(epsilon=0.1, alpha=alpha, beta=0.1, k=k,
                                   h=h)
        root, _ = build(s, eta, params)
        return not root.is_leaf

    assert not splits([0, 1, 0, 1], k=4)
    assert splits([0, 1, 0, 1, 0], k=4)
    assert not splits([0, 0, 0, 1], alpha=0.75)
    assert splits([0, 0, 0, 1], alpha=float(np.nextafter(0.75, 0.0)))
    if h is None:
        assert splits([0, 1], eta=10**6)
    else:
        assert not splits([0, 1], eta=h)
        assert splits([0, 1], eta=h - 1)


def test_stopping_rules_hold_everywhere():
    rng = random.Random(3)
    exs = [
        make_example((float(rng.randrange(8)), "ab"[rng.randrange(2)]),
                     rng.randrange(2))
        for _ in range(150)
    ]
    root, store = build(ActiveMultiset.from_examples(exs), 0, PARAMS)
    for v in walk(root):
        if not v.is_leaf:
            continue
        leaf = leaf_multiset(store, v)
        g = gini_index(leaf)
        sep = len({e.features for e in leaf}) > 1
        assert (
            v.size <= PARAMS.k
            or g <= PARAMS.alpha / 2.0
            or v.depth == PARAMS.h
            or not sep
        )


def test_fresh_counters():
    rng = random.Random(1)
    exs = [make_example((float(rng.randrange(6)),), rng.randrange(2))
           for _ in range(60)]
    root, store = build(ActiveMultiset.from_examples(exs), 0, PARAMS)
    for v in walk(root):
        assert v.pending == 0
        assert v.size >= 0
        if v.is_leaf:
            assert v.leaf_new is None  # a fresh leaf lists no new rows
            assert v.size == len(leaf_multiset(store, v))
            assert sum(v.label_hist) == v.size
        else:
            assert v.size == v.left.size + v.right.size


def test_leaf_depths_match_build_depth_argument():
    s = ActiveMultiset.from_examples(
        [make_example((float(i % 4),), i % 2) for i in range(20)]
    )
    root, _ = build(s, 3, PARAMS)
    assert root.depth == 3
    for v in walk(root):
        if not v.is_leaf:
            assert v.left.depth == v.depth + 1
            assert v.right.depth == v.depth + 1


def test_zero_progress_with_separating_alternative_still_splits():
    # every split has gain 0, yet feature 1 separates; the node must not
    # become a leaf above the size floor
    exs = (
        [make_example((7.0, "a"), 0)] * 2
        + [make_example((7.0, "a"), 1)]
        + [make_example((7.0, "c"), 0)] * 2
        + [make_example((7.0, "c"), 1)]
    )
    params = FeasibilityParams(epsilon=0.1, alpha=0.4, beta=0.5, k=3, h=8)
    root, _ = build(ActiveMultiset.from_examples(exs), 0, params)
    assert not root.is_leaf
    assert root.split.feature == 1
    assert root.left.is_leaf and root.right.is_leaf
    assert root.left.size == 3 and root.right.size == 3


def test_indistinguishable_examples_become_a_leaf():
    exs = [make_example((7.0, "a"), 0)] * 3 + [make_example((7.0, "a"), 1)] * 3
    root, _ = build(ActiveMultiset.from_examples(exs), 0, PARAMS)
    assert root.is_leaf
    assert root.size == 6


def test_all_identical_examples_single_leaf_categorical():
    exs = [make_example(("x", "y"), 1)] * 8
    root, _ = build(
        ActiveMultiset.from_examples(exs, Schema.categorical(2)), 0, PARAMS
    )
    assert root.is_leaf
    assert root.leaf_label == 1


def test_categorical_three_symbol_gain_argmax():
    # symbol b carries all the 1s: peeling it off is the unique best split
    exs = [make_example((sym,), lab)
           for sym, lab in [("a", 0), ("a", 0), ("b", 1), ("b", 1), ("c", 0)]]
    s = ActiveMultiset.from_examples(exs, Schema.categorical(1))
    root, _ = build(s, 0, PARAMS)
    assert not root.is_leaf
    assert root.split.categorical
    assert root.split.threshold == "b"
    left, right = root.left, root.right
    assert left.leaf_label == 1 and left.size == 2
    assert right.leaf_label == 0 and right.size == 3


def test_categorical_leaf_dicts_partition_input():
    rng = random.Random(4)
    exs = [make_example(tuple("abc"[rng.randrange(3)] for _ in range(3)),
                        rng.randrange(2)) for _ in range(80)]
    s = ActiveMultiset.from_examples(exs, Schema.categorical(3))
    root, store = build(s, 0, PARAMS)
    assert _subtree_multiset(store, root) == s


def _first_separating_split(sub):
    # lowest feature with two distinct values, split at its smallest value
    kinds = sub.schema.kinds
    for j, kind in enumerate(kinds):
        values = sorted({e.features[j] for e in sub})
        if len(values) > 1:
            return Split(j, values[0], categorical=kind is FeatureKind.CATEGORICAL)
    return None


def _grid_multiset(rng, kinds, points, grid, alphabet, cube):
    # points on a grid of real values and symbols; cube: parity labels on a
    # cube with equal multiplicities, so for d >= 2 no single split gains
    # anything, at the root and below
    s = ActiveMultiset(Schema(kinds))
    if cube:
        codes_of = list(itertools.product(range(2), repeat=len(kinds))) * points
    else:
        codes_of = [[rng.randrange(grid if k is FeatureKind.REAL else alphabet)
                     for k in kinds] for _ in range(points)]
    for codes in codes_of:
        feats = tuple(float(c) / 2 if k is FeatureKind.REAL else "pqrs"[c]
                      for c, k in zip(codes, kinds))
        label = sum(codes) % 2 if cube else rng.randrange(2)
        s.insert(make_example(feats, label))
    return s


def test_every_split_matches_exhaustive_search(monkeypatch):
    # SCAN_CODES alternates between 0 and 10**9 from small trial to small
    # trial, and each large one runs at both, so both paths of each
    # counting kernel, the codes present and the whole range, meet the
    # exhaustive search
    ran = set()
    for name in ("_scan_binned", "_sweep_binned", "_sweep_categorical",
                 "_sweep_categorical_present"):
        def spy(*args, name=name, sweep=getattr(build_mod, name)):
            ran.add(name)
            return sweep(*args)
        monkeypatch.setattr(build_mod, name, spy)
    rng = random.Random(2024)
    trials = []
    for _ in range(250):
        d = rng.randint(1, 4)
        kinds = tuple(FeatureKind.REAL if rng.random() < 0.5
                      else FeatureKind.CATEGORICAL for _ in range(d))
        grid, alphabet = rng.randint(1, 6), rng.randint(1, 4)
        cube = rng.random() < 0.3
        points = rng.randint(1, 3) if cube else rng.randint(1, 60)
        s = _grid_multiset(rng, kinds, points, grid, alphabet, cube)
        params = FeasibilityParams(epsilon=0.1, alpha=rng.choice([0.0, 0.2, 0.5]),
                                   beta=0.1, k=rng.choice([1, 2, 4]),
                                   h=rng.choice([None, 2, 5]))
        trials.append((s, params, (0, 10**9)[len(trials) % 2]))
    # large targets: 128 to 256 points on a grid of 4 real values.  The
    # target takes the sort sweep.  With four real columns it mostly holds
    # 128 distinct rows or more and passes the rank-code gate, so the nodes
    # below take the binned sweep, then the list sweep once small; a target
    # with fewer rows (two real columns and a symbol hold at most 96) does
    # not make rank codes, and its large nodes sort
    rng = random.Random(17)
    for m in (4, 4, 4, 2):
        kinds = (FeatureKind.REAL,) * m + (FeatureKind.CATEGORICAL,)
        s = _grid_multiset(rng, kinds, rng.randint(128, 256), 4, 3, False)
        params = FeasibilityParams(epsilon=0.1, alpha=0.2, beta=0.1,
                                   k=rng.choice([1, 2]), h=None)
        trials += [(s, params, 0), (s, params, 10**9)]

    zero_gain_nodes = internal = 0
    for trial, (s, params, scan_codes) in enumerate(trials):
        monkeypatch.setattr(build_mod, "SCAN_CODES", scan_codes)
        root, store = build(s, 0, params)
        assert _subtree_multiset(store, root) == s, f"trial {trial}"
        for v in walk(root):
            if v.is_leaf:
                continue
            internal += 1
            sub = _subtree_multiset(store, v)
            split, gain, _ = exhaustive_split_search(sub)
            left = sum(c for e, c in sub.items() if split.routes_left(e.features))
            if left in (0, len(sub)):
                # the argmax sends everything one way; the builder falls back
                zero_gain_nodes += 1
                split, gain = _first_separating_split(sub), 0.0
            assert v.split == split, f"trial {trial}, depth {v.depth}"
            assert abs(v.split_gain - gain) <= 1e-12
            assert v.size == len(sub)
            assert all(split.routes_left(e.features)
                       for e in _subtree_multiset(store, v.left))
            assert not any(split.routes_left(e.features)
                           for e in _subtree_multiset(store, v.right))
    assert internal > 500
    assert zero_gain_nodes > 50
    assert ran == {"_scan_binned", "_sweep_binned", "_sweep_categorical",
                   "_sweep_categorical_present"}


@pytest.mark.parametrize("kernel, values, pure_block", [
    ("_sweep_list", 2, False),
    ("_sweep_numeric", 8, False),
    ("_sweep_binned", 8, True),
    ("_scan_binned", 8, True),
    ("_sweep_categorical", 4, False),
    ("_sweep_categorical_present", 4, False),
])
def test_zero_gain_nodes_split_in_every_kernel(monkeypatch, kernel, values,
                                               pure_block):
    # a parity grid of `values` values a side, after a constant first
    # feature: every split gains 0, the tie rule picks the constant
    # feature, which sends every row left, and the node must split at the
    # first feature that separates it.  4 real rows take the list sweep and
    # 64 the sort sweep; the rank-coded kernels run below a target only, so
    # there the grid is the left child of a 128-row target whose other half
    # is pure and passes the rank-code gate.  The coded columns hold at
    # most 18 codes, so SCAN_CODES at 0 sends them to the codes-present
    # kernels and at 10**9 to the whole-range scans
    monkeypatch.setattr(build_mod, "SCAN_CODES", 0 if kernel in (
        "_sweep_binned", "_sweep_categorical_present") else 10**9)
    calls = []
    for name in ("_sweep_list", "_sweep_numeric", "_sweep_binned",
                 "_scan_binned", "_sweep_categorical",
                 "_sweep_categorical_present"):
        def spy(*args, name=name, sweep=getattr(build_mod, name)):
            calls.append((name, args[3]))  # each kernel's total
            return sweep(*args)
        monkeypatch.setattr(build_mod, name, spy)

    def value(c):
        return ("pqrs"[c] if kernel.startswith("_sweep_categorical")
                else float(c))
    s = ActiveMultiset.from_examples(
        make_example((value(c), value(a), value(b)), 1 if c else (a + b) % 2)
        for c in range(1 + pure_block)
        for a, b in itertools.product(range(values), repeat=2))
    root, store = build(s, 0, PARAMS)
    zero_gain = [v for v in walk(root) if not v.is_leaf and v.split_gain == 0]
    assert zero_gain
    for v in zero_gain:
        sub = _subtree_multiset(store, v)
        assert exhaustive_split_search(sub)[1] <= TIE_TOL
        assert v.split == _first_separating_split(sub)
        assert v.split.feature == 1
        assert v.split_gain == 0.0
        assert (kernel, v.size) in calls
    assert (root.split_gain > 0) == pure_block  # there, the grid is a child


def test_rank_codes_free_the_targets_sort(monkeypatch):
    # once the first binned node has made rank codes from the target's
    # sort, the node sweep keeps only V of it: the order, sorted values and
    # ties are freed before the next binned node is swept, by either
    # rank-coded kernel
    refs, alive = [], []

    def sort_spy(X, w, wy, total, ones, layout=None):
        found = sort_sweep(X, w, wy, total, ones, layout)
        if layout:
            refs[:] = [weakref.ref(a.base) for a in layout[1:]]
        return found
    sort_sweep = build_mod._sweep_numeric
    monkeypatch.setattr(build_mod, "_sweep_numeric", sort_spy)
    for name in ("_scan_binned", "_sweep_binned"):
        def binned_spy(*args, sweep=getattr(build_mod, name)):
            alive.append(sum(r() is not None for r in refs))
            return sweep(*args)
        monkeypatch.setattr(build_mod, name, binned_spy)
    rng = random.Random(5)
    rows = {}
    while len(rows) < 200:
        x = tuple(float(rng.randrange(5)) for _ in range(4))
        rows[x] = int(x[0] + x[1] >= 5) ^ (rng.random() < 0.2)
    params = FeasibilityParams(epsilon=0.1, alpha=0.0, beta=0.1, k=1, h=None)
    build(ActiveMultiset.from_examples(
        itertools.starmap(make_example, rows.items())), 0, params)
    assert len(refs) == 3
    assert len(alive) > 1
    assert alive == [0] * len(alive)


def test_rank_codes_made_after_sort_sweeps_in_the_scratch_build_alike(
        monkeypatch):
    # the target's sort waits in layout until the first node that takes the
    # binned sweep makes rank codes from it; sort sweeps of nodes in between
    # overwrite the sort sweep's scratch.  With the scratch filled with NaN
    # after every sort sweep returns, a build must make the tree it makes
    # without the fill.  The gate at 1 and LIST_CELLS at 0 send
    # a node with fewer cells than the target's distinct values to the sort
    # sweep, and a larger one to the binned sweep
    monkeypatch.setattr(build_mod, "RANK_GATE", 1)
    monkeypatch.setattr(build_mod, "LIST_CELLS", 0)
    events = []

    def sort_spy(X, w, wy, total, ones, layout=None):
        events.append("target" if layout is not None else "sort")
        found = sort_sweep(X, w, wy, total, ones, layout)
        if fill:
            gini_mod._scratch.sums.fill(np.nan)
        return found

    def rank_spy(*args):
        events.append("rank")
        return rank_codes(*args)
    sort_sweep, rank_codes = build_mod._sweep_numeric, build_mod._rank_codes
    monkeypatch.setattr(build_mod, "_sweep_numeric", sort_spy)
    monkeypatch.setattr(build_mod, "_rank_codes", rank_spy)
    params = FeasibilityParams(epsilon=0.1, alpha=0.1, beta=0.1, k=2, h=8)
    between = 0
    for seed in range(12):
        # 200 rows: one column of about 100 values, which the label
        # follows with noise, and one of 60
        rng = random.Random(seed)
        s = ActiveMultiset.from_examples(
            make_example((x0, float(rng.randrange(60))),
                         int(x0 > 1.5) if rng.random() < 0.85
                         else rng.randrange(2))
            for x0 in (round(rng.uniform(0, 10), 1) for _ in range(200)))
        trees = []
        for fill in (True, False):
            events.clear()
            root, store = build(s, 0, params)
            trees.append([(v.split, v.split_gain.hex(), v.size, v.height,
                           None if v.split else v.leaf_rows.tolist())
                          for v in walk(root)])
        assert trees[0] == trees[1], seed
        if "rank" in events:
            between += "sort" in events[:events.index("rank")]
    assert between >= 6


def test_node_sweep_takes_the_first_feature_within_tie_tol_of_the_best(
        monkeypatch):
    # the one tie rule across features, for the builder and best_split:
    # the first gain within TIE_TOL of the largest.  Each gain here is
    # within TIE_TOL of the one before, so a sequential strict scan
    # (gain > best + TIE_TOL), which both ran before, picks the last.  A
    # target of 2x3 real cells takes the list sweep
    gains = [0.0, 0.6e-12, 1.2e-12]
    monkeypatch.setattr(build_mod, "_sweep_list",
                        lambda *args: [(0.0, 1, 0, g) for g in gains])
    s = ActiveMultiset.from_examples([make_example((0.0, 0.0, 0.0), 0),
                                      make_example((1.0, 1.0, 1.0), 1)])
    rows = s._store.held_rows()
    j, found, *_ = build_mod._node_sweep(s._store, rows)(None, 2, 1)
    assert j == 1
    assert [r[3] for r in found] == gains
    scan, best = None, -1.0
    for k, gain in enumerate(gains):
        if gain > best + TIE_TOL:
            scan, best = k, gain
    assert scan == 2


def test_node_sweep_picks_each_real_kernel_by_its_cells(monkeypatch):
    # build's node sweep alone picks a node's real-column kernel by its real
    # cells: the list sweep up to LIST_CELLS; else, below a target whose V
    # distinct values pass the gate, on nodes of at least V cells, the
    # Python scan of the rank codes when V is at most SCAN_CODES and the
    # binned sweep when it is more; else the sort sweep, as at the target
    calls = []
    for name in ("_sweep_list", "_sweep_numeric", "_sweep_binned",
                 "_scan_binned"):
        def spy(*args, name=name, sweep=getattr(build_mod, name)):
            calls.append((name, np.size(args[0])))
            return sweep(*args)
        monkeypatch.setattr(build_mod, name, spy)
    params = FeasibilityParams(epsilon=0.1, alpha=0.0, beta=0.1, k=1, h=None)
    rng = random.Random(3)

    def kernels(n, values):
        # a build of n distinct rows of 4 real columns, each drawn from
        # `values` values, their labels noisy in the first two
        rows = {}
        while len(rows) < n:
            x = tuple(float(rng.randrange(values)) for _ in range(4))
            rows[x] = int(x[0] + x[1] >= values) ^ (rng.random() < 0.2)
        V = sum(len(set(col)) for col in zip(*rows))
        gated = n >= build_mod.RANK_ROWS and build_mod.RANK_GATE * V <= 4 * n
        calls.clear()
        build(ActiveMultiset.from_examples(
            itertools.starmap(make_example, rows.items())), 0, params)
        assert calls[0][1] == 4 * n
        for i, (name, cells) in enumerate(calls):
            coded = ("_scan_binned" if V <= build_mod.SCAN_CODES
                     else "_sweep_binned")
            assert name == ("_sweep_list" if cells <= build_mod.LIST_CELLS
                            else coded if i and gated and cells >= V
                            else "_sweep_numeric"), (i, name, cells, V)
        return gated, {name for name, _ in calls}

    assert kernels(20, 1000) == (False, {"_sweep_list"})
    assert kernels(200, 5) == (True, {"_sweep_numeric", "_scan_binned",
                                      "_sweep_list"})
    # 4 columns of 11 values: 44 codes, past SCAN_CODES
    assert 4 * 10 <= build_mod.SCAN_CODES < 4 * 11
    assert kernels(200, 11) == (True, {"_sweep_numeric", "_sweep_binned",
                                       "_sweep_list"})
    for values in (20, 10**6):  # too many distinct values to code
        assert kernels(200, values) == (False, {"_sweep_numeric",
                                                "_sweep_list"})
    calls.clear()
    best_split(ActiveMultiset.from_examples([make_example((0.0, 1.0), 0),
                                             make_example((1.0, 1.0), 1)]))
    assert calls == [("_sweep_list", 4)]
