"""Gini index, gain and split search."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from dyntree import (
    ActiveMultiset,
    Schema,
    Split,
    best_split,
    gini_gain,
    gini_index,
    make_example,
)
from dyntree.oracle import exhaustive_split_search


def multiset(values, labels, cast=float):
    return ActiveMultiset.from_examples(
        [make_example((cast(v),), lab) for v, lab in zip(values, labels)]
    )


def test_gini_half_half():
    assert gini_index(multiset([0, 1], [0, 1])) == 0.5


def test_gini_three_quarters():
    assert gini_index(multiset([0, 1, 2, 3], [0, 1, 1, 1])) == pytest.approx(3 / 8)


def test_gini_empty_is_zero():
    assert gini_index(ActiveMultiset()) == 0.0


def test_gain_perfect_separation():
    s = multiset([0, 1], [0, 1])
    assert gini_gain(s, Split(0, 0.0)) == 0.5


def test_gain_pure_labels_is_zero():
    s = multiset([0, 1, 2], [1, 1, 1])
    for t in (0.0, 1.0, 2.0):
        assert gini_gain(s, Split(0, t)) == 0.0


def test_gain_empty_multiset_is_zero():
    assert gini_gain(ActiveMultiset(), Split(0, 1.0)) == 0.0


def test_gain_empty_side_is_zero():
    s = multiset([5, 5, 5], [0, 1, 0])
    assert gini_gain(s, Split(0, 5.0)) == 0.0
    assert gini_gain(s, Split(0, 4.0)) == 0.0


def test_best_split_numeric_boundary():
    s = multiset([1, 2, 3, 4], [0, 0, 1, 1])
    assert best_split(s).per_feature[0] == (2.0, 0.5)


def test_best_split_numeric_constant_feature():
    s = multiset([7, 7, 7], [0, 1, 0])
    thr, gain = best_split(s).per_feature[0]
    assert thr == 7.0
    assert gain == 0.0


def test_best_split_numeric_three_point():
    # brute force over t in {1, 2, 3}: gains 1/9, 1/9, 0; smallest threshold wins
    s = multiset([1, 2, 3], [0, 1, 0])
    by_hand = {t: gini_gain(s, Split(0, t)) for t in (1.0, 2.0, 3.0)}
    assert by_hand[1.0] == pytest.approx(1 / 9)
    assert by_hand[2.0] == pytest.approx(1 / 9)
    assert by_hand[3.0] == 0.0
    assert best_split(s).per_feature[0] == (1.0, pytest.approx(1 / 9))


def test_best_split_numeric_empty_raises():
    with pytest.raises(ValueError):
        best_split(ActiveMultiset(Schema.numeric(1)))


def test_best_split_single_example():
    res = best_split(multiset([3], [1]))
    assert res.best_gain == 0.0
    assert res.best_split.feature == 0


def test_best_split_prefers_lowest_feature_on_ties():
    # two identical features: both achieve the same gains everywhere
    exs = [make_example((float(v), float(v)), lab)
           for v, lab in [(0, 0), (1, 1), (2, 0), (3, 1)]]
    res = best_split(ActiveMultiset.from_examples(exs))
    assert res.best_split.feature == 0


def test_best_split_categorical_counts():
    exs = [make_example((sym,), lab)
           for sym, lab in [("a", 0), ("a", 0), ("b", 1), ("b", 1), ("c", 0)]]
    s = ActiveMultiset.from_examples(exs)
    value, gain = best_split(s).per_feature[0]
    assert value == "b"
    assert gain == pytest.approx(gini_index(s))  # b splits off all the 1s


@st.composite
def labeled_multisets(draw, max_n=40, d=1, grid=6):
    n = draw(st.integers(1, max_n))
    rng = random.Random(draw(st.integers(0, 2**31)))
    exs = [
        make_example(
            tuple(float(rng.randrange(grid)) for _ in range(d)), rng.randrange(2)
        )
        for _ in range(n)
    ]
    return ActiveMultiset.from_examples(exs)


@given(labeled_multisets())
def test_gini_range(s):
    g = gini_index(s)
    assert 0.0 <= g <= 0.5


@given(labeled_multisets(), st.integers(0, 5))
def test_gain_bounded_by_gini(s, t):
    gain = gini_gain(s, Split(0, float(t)))
    assert 0.0 <= gain <= gini_index(s) + 1e-12


@given(labeled_multisets(max_n=48, d=3))
@settings(max_examples=60, deadline=None)
def test_best_split_matches_exhaustive_enumeration(s):
    res = best_split(s)
    osplit, ogain, oper = exhaustive_split_search(s)
    assert res.best_split == osplit
    assert res.best_gain == pytest.approx(ogain, abs=1e-12)
    for (thr, gain), (othr, og) in zip(res.per_feature, oper):
        assert gain == pytest.approx(og, abs=1e-12)
        assert thr == othr


@given(labeled_multisets(max_n=30))
def test_best_split_gain_is_max_over_features(s):
    res = best_split(s)
    assert res.best_gain == pytest.approx(
        max(g for _, g in res.per_feature), abs=1e-15
    )


@given(st.integers(0, 2**31))
@settings(max_examples=60, deadline=None)
def test_categorical_gains_equal_the_scalar_kernel_bit_for_bit(seed):
    # the categorical sweep inlines the scalar gain kernel on float counts;
    # each winner's gain must equal gini_gain of the same split exactly
    rng = random.Random(seed)
    d = rng.randint(1, 3)
    exs = [make_example(tuple("abcd"[rng.randrange(4)] for _ in range(d)),
                        rng.randrange(2))
           for _ in range(rng.randint(1, 40))]
    s = ActiveMultiset.from_examples(exs)
    for j, (symbol, gain) in enumerate(best_split(s).per_feature):
        assert gain == gini_gain(s, Split(j, symbol, categorical=True))
