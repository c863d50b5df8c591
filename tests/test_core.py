"""Domain types: examples, schemas, multisets, splits, parameter envelopes."""

import random

import pytest
from hypothesis import given, strategies as st

from dyntree import (
    ActiveMultiset,
    ExampleNotFound,
    FeasibilityParams,
    FeatureKind,
    Schema,
    SchemaError,
    Split,
    majority_label,
    make_example,
)


def test_make_example_rejects_bad_labels():
    with pytest.raises(ValueError):
        make_example((1.0,), 2)
    with pytest.raises(ValueError):
        make_example((1.0,), -1)


def test_schema_inference_mixed():
    schema = Schema.infer((1.5, "red", 3))
    assert schema.kinds == (
        FeatureKind.REAL,
        FeatureKind.CATEGORICAL,
        FeatureKind.REAL,
    )
    assert schema.arity == 3
    assert not schema.all_categorical


def test_schema_inference_bool_is_categorical():
    schema = Schema.infer((True, 0.5))
    assert schema.kinds[0] is FeatureKind.CATEGORICAL
    assert schema.kinds[1] is FeatureKind.REAL


def test_schema_validate_rejects_wrong_arity_and_kind():
    schema = Schema.numeric(2)
    with pytest.raises(SchemaError):
        schema.validate((1.0,))
    with pytest.raises(SchemaError):
        schema.validate((1.0, "oops"))


def test_insert_into_empty():
    s = ActiveMultiset()
    e = make_example((1.0,), 1)
    s.insert(e)
    assert s.count(e) == 1
    assert len(s) == 1


def test_insert_twice_gives_multiplicity_two():
    s = ActiveMultiset()
    e = make_example((1.0,), 1)
    s.insert(e)
    s.insert(e)
    assert s.count(e) == 2
    assert len(s) == 2


def test_insert_grows_size_by_one():
    s = ActiveMultiset.from_examples(
        [make_example((float(i),), i % 2) for i in range(5)]
    )
    assert len(s) == 5
    s.insert(make_example((9.0,), 0))
    assert len(s) == 6


def test_delete_decrements_multiplicity():
    e = make_example((2.0,), 0)
    s = ActiveMultiset.from_examples([e, e])
    s.delete(e)
    assert s.count(e) == 1
    s.delete(e)
    assert s.count(e) == 0
    assert e not in s


def test_delete_absent_raises():
    s = ActiveMultiset.from_examples([make_example((1.0,), 0)])
    with pytest.raises(ExampleNotFound):
        s.delete(make_example((1.0,), 1))


def test_schema_pinned_by_first_insert():
    s = ActiveMultiset()
    s.insert(make_example((1.0, "a"), 0))
    with pytest.raises(SchemaError):
        s.insert(make_example(("a", 1.0), 0))


def test_entries_stay_sorted():
    s = ActiveMultiset.from_examples(
        [make_example((v,), l) for v, l in [(3.0, 1), (1.0, 0), (2.0, 1), (1.0, 1)]]
    )
    keys = list(s)
    assert keys == sorted(keys)
    assert s.items_list() == list(s.items())


def test_schema_rejects_nan_real_feature():
    schema = Schema.numeric(2)
    with pytest.raises(SchemaError, match="NaN"):
        schema.validate((1.0, float("nan")))
    s = ActiveMultiset()
    with pytest.raises(SchemaError, match="NaN"):
        s.insert(make_example((float("nan"), "a"), 0))
    assert len(s) == 0


def test_enumeration_sorted_after_shuffled_updates():
    rng = random.Random(3)
    pool = [make_example((float(rng.randrange(4)), "ab"[rng.randrange(2)]),
                         rng.randrange(2)) for _ in range(40)]
    extra = [make_example((9.0, "z"), 1), make_example((-1.0, "a"), 0)]
    seen = []
    for trial in range(20):
        ops = [(e, "ins") for e in pool + extra]
        rng.shuffle(ops)
        s = ActiveMultiset()
        for e, _ in ops:
            s.insert(e)
        victims = extra[:]
        rng.shuffle(victims)
        for e in victims:
            s.delete(e)
        items = list(s.items())
        assert items == sorted(items)
        assert list(s) == [e for e, _ in items]
        assert s.items_list() == items
        seen.append(items)
    assert all(items == seen[0] for items in seen)


def test_label_counts():
    s = ActiveMultiset.from_examples(
        [make_example((float(i),), lab) for i, lab in enumerate([0, 1, 1, 1])]
    )
    assert s.label_counts() == (1, 3)


def test_majority_label():
    assert majority_label({0: 3, 1: 5}) == 1
    assert majority_label({0: 2, 1: 2}) == 0
    assert majority_label({}) == 0


def test_split_routing():
    numeric = Split(0, 2.0)
    assert numeric.routes_left((2.0,))
    assert not numeric.routes_left((2.5,))
    cat = Split(1, "red", categorical=True)
    assert cat.routes_left((0.0, "red"))
    assert not cat.routes_left((0.0, "blue"))


def test_params_guaranteed_flag():
    good = FeasibilityParams(epsilon=0.03, alpha=0.4, beta=0.5, k=3)
    assert good.guaranteed
    # 0.03 < min(1/4, 0.08, 0.04); pushing epsilon past beta/12.5 breaks it
    assert not FeasibilityParams(epsilon=0.05, alpha=0.4, beta=0.5, k=3).guaranteed
    assert not FeasibilityParams(epsilon=0.0, alpha=0.4, beta=0.5, k=3).guaranteed


def test_params_validation():
    with pytest.raises(ValueError):
        FeasibilityParams(epsilon=0.1, alpha=1.5)
    with pytest.raises(ValueError):
        FeasibilityParams(epsilon=0.1, k=0)
    with pytest.raises(ValueError):
        FeasibilityParams(epsilon=-0.1)
    with pytest.raises(ValueError):
        FeasibilityParams(epsilon=0.1, h=0)


def test_depth_cap():
    assert FeasibilityParams(epsilon=0.1, h=3).depth_capped(3)
    assert not FeasibilityParams(epsilon=0.1, h=3).depth_capped(2)
    assert not FeasibilityParams(epsilon=0.1, h=None).depth_capped(10**9)


@given(
    st.lists(
        st.tuples(st.integers(0, 5), st.integers(0, 1)),
        min_size=0,
        max_size=40,
    )
)
def test_multiset_roundtrip_counts(pairs):
    """Inserting then deleting everything restores the empty multiset."""
    examples = [make_example((float(v),), lab) for v, lab in pairs]
    s = ActiveMultiset(Schema.numeric(1))
    for e in examples:
        s.insert(e)
    assert len(s) == len(examples)
    n0, n1 = s.label_counts()
    assert n0 + n1 == len(examples)
    assert n1 == sum(lab for _, lab in pairs)
    for e in examples:
        s.delete(e)
    assert len(s) == 0
    assert s.distinct_size == 0


@given(
    st.lists(
        st.tuples(st.integers(0, 4), st.integers(0, 1)),
        min_size=1,
        max_size=30,
    ),
    st.randoms(use_true_random=False),
)
def test_multiset_order_independence(pairs, rng):
    examples = [make_example((float(v),), lab) for v, lab in pairs]
    shuffled = examples[:]
    rng.shuffle(shuffled)
    a = ActiveMultiset.from_examples(examples)
    b = ActiveMultiset.from_examples(shuffled)
    assert a == b
    assert list(a) == list(b)
