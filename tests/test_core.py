"""Domain types: examples, schemas, multisets, splits, parameter envelopes."""

import copy
import pickle
import random
from decimal import Decimal
from types import ModuleType

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import dyntree
from dyntree import (
    ActiveMultiset,
    DecisionTree,
    ExampleNotFound,
    FeasibilityParams,
    FeatureKind,
    LabeledExample,
    Schema,
    SchemaError,
    Split,
    make_example,
)

PUBLIC_NAMES = [
    "ActiveMultiset", "CounterReport", "DecisionTree", "ExampleNotFound",
    "FeasibilityParams", "FeasibilityReport", "FeatureKind", "GainResult",
    "LabeledExample", "RebuildInfo", "Schema", "SchemaError", "Split",
    "StreamConfig", "StreamMetrics", "TreeNode", "VerificationError",
    "audit_smoothness", "best_split", "check_counters", "check_feasibility",
    "emit_metrics", "era_flip_stream", "exact_feature_gains", "exact_gain",
    "exact_gini", "exhaustive_split_search", "generate_index_instance",
    "gini_gain", "gini_index", "load_stream", "make_example", "mixed_stream",
    "prequential_f1", "run_incremental", "run_random_update",
    "run_sliding_window", "threshold_stream",
]


def test_public_names():
    assert sorted(dyntree.__all__) == PUBLIC_NAMES
    assert all(hasattr(dyntree, name) for name in PUBLIC_NAMES)
    # the builder is reached through its module, which the package does
    # not shadow with the function
    assert isinstance(dyntree.build, ModuleType)
    assert dyntree.build.build.__module__ == "dyntree.build"


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


_EDGE_VALUES = [
    float("nan"), float("inf"), -float("inf"), 0.5, -0.0,
    np.float64("nan"), np.float64(0.5), np.int64(2), 3, True, False,
    None, "a", "", ("a", 1),
]
_ANY_VALUE = st.one_of(
    st.sampled_from(_EDGE_VALUES),
    st.one_of(
        st.floats(),
        st.integers(),
        st.booleans(),
        st.floats().map(np.float64),
        st.integers(-2**63, 2**63 - 1).map(np.int64),
        st.text("ab", max_size=3),
        st.none(),
        st.tuples(st.integers(), st.text("ab", max_size=2)),
    ),
)
_FIT = {FeatureKind.REAL: 0.5, FeatureKind.CATEGORICAL: "a"}
_SCHEMAS = pytest.mark.parametrize("schema", [
    Schema.numeric(3),
    Schema.categorical(3),
    Schema((FeatureKind.REAL, FeatureKind.CATEGORICAL, FeatureKind.REAL)),
], ids=["numeric", "categorical", "mixed"])


@st.composite
def _features(draw, schema):
    # a tuple of each column's fast-path type (float, NaN and +-inf
    # included, or str), then maybe one value swapped for any value, and
    # maybe one value dropped or appended
    fit = {
        FeatureKind.REAL: st.floats(),
        FeatureKind.CATEGORICAL: st.text("ab", max_size=3),
    }
    values = [draw(fit[k]) for k in schema.kinds]
    if draw(st.booleans()):
        values[draw(st.integers(0, len(values) - 1))] = draw(_ANY_VALUE)
    extra = draw(st.sampled_from([0, 0, -1, 1]))
    if extra < 0:
        values.pop()
    elif extra > 0:
        values.append(draw(_ANY_VALUE))
    return tuple(values)


def _outcome(check, features):
    try:
        check(features)
    except Exception as e:
        return type(e), str(e)
    return None


@_SCHEMAS
@settings(max_examples=400, deadline=None)
@given(data=st.data())
def test_validate_fast_path_agrees_with_full_check(schema, data):
    features = data.draw(_features(schema))
    assert _outcome(schema.validate, features) == _outcome(
        schema._validate_full, features
    )


@_SCHEMAS
def test_validate_fast_path_agrees_with_full_check_on_edge_values(schema):
    fit = tuple(_FIT[k] for k in schema.kinds)
    for j in range(schema.arity):
        for v in _EDGE_VALUES:
            features = fit[:j] + (v,) + fit[j + 1:]
            assert _outcome(schema.validate, features) == _outcome(
                schema._validate_full, features
            ), features


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


def test_rejected_first_insert_leaves_schema_unset():
    s = ActiveMultiset()
    with pytest.raises(SchemaError, match="NaN"):
        s.insert(make_example((float("nan"), "a"), 0))
    assert s.schema is None
    s.insert(make_example(("b", 1.0), 1))  # the next example pins its own
    assert s.schema.kinds == (FeatureKind.CATEGORICAL, FeatureKind.REAL)


def test_rejected_unhashable_insert_changes_nothing():
    # validate takes valid values in a list; hashing them then fails
    s = ActiveMultiset()
    with pytest.raises(TypeError, match="unhashable"):
        s.insert(LabeledExample(["a"], 0))
    assert s.schema is None and s._store.symbol_types is None
    s.insert(make_example((1.5,), 0))
    assert s.schema == Schema.numeric(1)


@pytest.mark.parametrize("symbol", [1j, object(), Decimal("NaN"), None,
                                    Decimal("sNaN")],
                         ids=["complex", "object", "decimal-nan", "none",
                              "decimal-snan"])
def test_symbols_that_cannot_sort_are_rejected(symbol):
    # rebuilds sort each column's symbols, so a multiset takes none that
    # are unequal to themselves or whose type cannot order against itself
    s = ActiveMultiset()
    with pytest.raises(SchemaError, match="feature 1"):
        s.insert(make_example(("a", symbol), 0))
    assert s.schema is None and s._store.symbol_types is None and not s
    s.insert(make_example(("a",), 1))
    assert s.schema == Schema.categorical(1)
    assert s._store.symbol_types == (str,)


class _Picky:
    """A symbol whose ``<`` raises between 1 and 2 only, so it passes the
    ``v < v`` probe when its column is pinned."""

    def __init__(self, v):
        self.v = v

    def __eq__(self, other):
        return isinstance(other, _Picky) and self.v == other.v

    def __hash__(self):
        return hash(self.v)

    def __lt__(self, other):
        if {self.v, other.v} == {1, 2}:
            raise TypeError("1 and 2 do not order")
        return self.v < other.v


def test_failed_flush_leaves_the_store_as_it_was():
    # a flush that raised once kept the ids it had handed out and cleared
    # its rows from uncoded first, so a later columns() coded S(1) as S(0)
    s = ActiveMultiset(Schema.categorical(1))
    s.insert(make_example((_Picky(0),), 0))
    store = s._store
    store.flush()
    s.insert(make_example((_Picky(1),), 1))
    s.insert(make_example((_Picky(2),), 0))

    def coded():
        return ([dict(d) for d in store.ids], store.rank.tolist(),
                list(store.symbols), list(store.code_col),
                store.C[store.row_of[make_example((_Picky(0),), 0)]].tolist(),
                set(store.uncoded))

    before = coded()
    with pytest.raises(TypeError, match="do not order"):
        store.flush()
    assert coded() == before
    s.delete(make_example((_Picky(2),), 0))
    rows = store.held_rows()
    _, _, _, C = store.columns(rows)
    codes = {store.examples[r].features[0].v: c
             for r, c in zip(rows.tolist(), C[:, 0].tolist())}
    assert codes == {0: 0, 1: 1}
    assert store.symbols == [_Picky(0), _Picky(1)] and not store.uncoded


def test_a_multisets_store_holds_exactly_its_rows():
    # a caller's multiset owns its store, so copy can copy the store whole
    def exact(s):
        store = s._store
        return (len(store.row_of) == s.distinct_size
                and set(store.row_of.values())
                == set(store.held_rows().tolist()))

    exs = [make_example((float(i % 3), "ab"[i % 2]), i % 2) for i in range(8)]
    s = ActiveMultiset.from_examples(exs)
    assert exact(s)
    for e in exs[:5]:
        s.insert(e)
        assert exact(s)
    c = s.copy()
    assert exact(c) and c == s and c._store is not s._store
    for e in exs + exs[:5]:
        s.delete(e)
        assert exact(s)
    assert not s and s.distinct_size == 0
    assert exact(s.copy()) and exact(c) and len(c) == 13


@pytest.mark.parametrize("clone", [copy.deepcopy,
                                   lambda x: pickle.loads(pickle.dumps(x))],
                         ids=["deepcopy", "pickle"])
def test_multisets_and_trees_copy_and_pickle(clone):
    # the store keeps its per-row counts and stamps under memoryviews,
    # which pickle cannot take
    exs = [make_example((float(i % 5), "ab"[i % 2]), i % 2) for i in range(12)]
    s = ActiveMultiset.from_examples(exs + exs[:3])
    assert clone(s) == s
    tree = DecisionTree.from_multiset(s, FeasibilityParams(epsilon=0.5))
    for e in exs[:4]:
        tree.update(e, "del")
        tree.update(make_example(e.features, 1 - e.label), "ins")
    c = clone(tree)
    assert c.leaf_union() == tree.leaf_union()
    for t in (tree, c):
        t.update(exs[5], "del")
        t.update(make_example((9.0, "a"), 1), "ins")
    assert c.leaf_union() == tree.leaf_union()


@pytest.mark.parametrize("symbol", [("a",), ["a"], {"a"}, frozenset("a"),
                                    {"a": 1}])
def test_schema_rejects_container_symbols(symbol):
    schema = Schema.categorical(2)
    with pytest.raises(SchemaError, match="feature 1 must be a scalar symbol"):
        schema.validate(("a", symbol))
    schema.validate(("a", 1))  # scalar symbols still pass


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
        FeasibilityParams(epsilon=float("nan"))
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
