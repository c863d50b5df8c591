"""Exact tree construction: stopping rules, argmax splits, categorical splits."""

import itertools
import random

import pytest

from dyntree import (
    ActiveMultiset,
    FeasibilityParams,
    FeatureKind,
    Schema,
    Split,
    build,
    exhaustive_split_search,
    gini_index,
    make_example,
)

PARAMS = FeasibilityParams(epsilon=0.1, alpha=0.2, beta=0.1, k=1, h=8)


def walk(node):
    stack = [node]
    while stack:
        v = stack.pop()
        yield v
        if not v.is_leaf:
            stack.append(v.right)
            stack.append(v.left)


def test_empty_build_is_zero_leaf():
    root = build(ActiveMultiset(Schema.numeric(1)), 0, PARAMS)
    assert root.is_leaf
    assert root.leaf_label == 0
    assert root.size == 0
    assert len(root.leaf_examples) == 0


def test_pure_multiset_is_single_leaf():
    s = ActiveMultiset.from_examples(
        [make_example((float(i),), 1) for i in range(10)]
    )
    root = build(s, 0, PARAMS)
    assert root.is_leaf
    assert root.leaf_label == 1
    assert root.label_hist == [0, 10]


def test_small_multiset_respects_k():
    s = ActiveMultiset.from_examples(
        [make_example((float(i),), i % 2) for i in range(4)]
    )
    params = FeasibilityParams(epsilon=0.1, alpha=0.2, beta=0.1, k=4, h=8)
    root = build(s, 0, params)
    assert root.is_leaf


def test_perfectly_separable_pair_splits_at_root():
    exs = [make_example((0.0,), 0), make_example((1.0,), 1)] * 3
    root = build(ActiveMultiset.from_examples(exs), 0, PARAMS)
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
    root = build(ActiveMultiset.from_examples(exs), 0, params)
    for v in walk(root):
        assert v.depth <= 2
        if v.depth == 2:
            assert v.is_leaf
    assert root.height <= 2


def test_stopping_rules_hold_everywhere():
    rng = random.Random(3)
    exs = [
        make_example((float(rng.randrange(8)), "ab"[rng.randrange(2)]),
                     rng.randrange(2))
        for _ in range(150)
    ]
    root = build(ActiveMultiset.from_examples(exs), 0, PARAMS)
    for v in walk(root):
        if not v.is_leaf:
            continue
        g = gini_index(v.leaf_examples)
        sep = len({e.features for e in v.leaf_examples}) > 1
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
    root = build(ActiveMultiset.from_examples(exs), 0, PARAMS)
    for v in walk(root):
        assert v.pending == 0
        assert v.size >= 0
        if v.is_leaf:
            assert v.size == len(v.leaf_examples)
            assert sum(v.label_hist) == v.size
        else:
            assert v.size == v.left.size + v.right.size


def test_leaf_depths_match_build_depth_argument():
    s = ActiveMultiset.from_examples(
        [make_example((float(i % 4),), i % 2) for i in range(20)]
    )
    root = build(s, 3, PARAMS)
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
    root = build(ActiveMultiset.from_examples(exs), 0, params)
    assert not root.is_leaf
    assert root.split.feature == 1
    assert root.left.is_leaf and root.right.is_leaf
    assert root.left.size == 3 and root.right.size == 3


def test_indistinguishable_examples_become_a_leaf():
    exs = [make_example((7.0, "a"), 0)] * 3 + [make_example((7.0, "a"), 1)] * 3
    root = build(ActiveMultiset.from_examples(exs), 0, PARAMS)
    assert root.is_leaf
    assert root.size == 6


def test_all_identical_examples_single_leaf_categorical():
    exs = [make_example(("x", "y"), 1)] * 8
    root = build(
        ActiveMultiset.from_examples(exs, Schema.categorical(2)), 0, PARAMS
    )
    assert root.is_leaf
    assert root.leaf_label == 1


def test_categorical_three_symbol_gain_argmax():
    # symbol b carries all the 1s: peeling it off is the unique best split
    exs = [make_example((sym,), lab)
           for sym, lab in [("a", 0), ("a", 0), ("b", 1), ("b", 1), ("c", 0)]]
    s = ActiveMultiset.from_examples(exs, Schema.categorical(1))
    root = build(s, 0, PARAMS)
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
    root = build(s, 0, PARAMS)
    seen = ActiveMultiset(Schema.categorical(3))
    for v in walk(root):
        if v.is_leaf:
            for e in v.leaf_examples.expanded():
                seen.insert(e)
    assert seen == s


def _subtree_multiset(node, schema):
    out = ActiveMultiset(schema)
    for v in walk(node):
        if v.is_leaf:
            for e in v.leaf_examples.expanded():
                out.insert(e)
    return out


def _first_separating_split(sub):
    # lowest feature with two distinct values, split at its smallest value
    kinds = sub.schema.kinds
    for j, kind in enumerate(kinds):
        values = sorted({e.features[j] for e in sub})
        if len(values) > 1:
            return Split(j, values[0], categorical=kind is FeatureKind.CATEGORICAL)
    return None


def test_every_split_matches_exhaustive_search():
    rng = random.Random(2024)
    zero_gain_nodes = internal = 0
    for trial in range(250):
        d = rng.randint(1, 4)
        kinds = tuple(FeatureKind.REAL if rng.random() < 0.5
                      else FeatureKind.CATEGORICAL for _ in range(d))
        schema = Schema(kinds)
        grid, alphabet = rng.randint(1, 6), rng.randint(1, 4)
        cube = rng.random() < 0.3
        if cube:
            # parity labels on a cube with equal multiplicities: for d >= 2
            # no single split gains anything, at the root and below
            points = list(itertools.product(range(2), repeat=d)) * rng.randint(1, 3)
        else:
            points = [[rng.randrange(grid if k is FeatureKind.REAL else alphabet)
                       for k in kinds] for _ in range(rng.randint(1, 60))]
        s = ActiveMultiset(schema)
        for codes in points:
            feats = tuple(float(c) / 2 if k is FeatureKind.REAL else "pqrs"[c]
                          for c, k in zip(codes, kinds))
            label = sum(codes) % 2 if cube else rng.randrange(2)
            s.insert(make_example(feats, label))
        params = FeasibilityParams(epsilon=0.1, alpha=rng.choice([0.0, 0.2, 0.5]),
                                   beta=0.1, k=rng.choice([1, 2, 4]),
                                   h=rng.choice([None, 2, 5]))
        root = build(s, 0, params)
        assert _subtree_multiset(root, schema) == s, f"trial {trial}"
        for v in walk(root):
            if v.is_leaf:
                continue
            internal += 1
            sub = _subtree_multiset(v, schema)
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
                       for e in _subtree_multiset(v.left, schema))
            assert not any(split.routes_left(e.features)
                           for e in _subtree_multiset(v.right, schema))
    assert internal > 500
    assert zero_gain_nodes > 50
