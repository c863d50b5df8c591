"""Domain types: examples, schemas, multisets, splits, parameter envelopes."""

import ast
import copy
import dataclasses
import math
import pickle
import random
from collections import Counter
from decimal import Decimal
from fractions import Fraction
from pathlib import Path
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
    mixed_stream,
    threshold_stream,
)
from shared import Code, Picky, Unordered, walk

PUBLIC_NAMES = [
    "ActiveMultiset", "DecisionTree", "ExampleNotFound", "FeasibilityParams",
    "FeatureKind", "LabeledExample", "Schema", "SchemaError", "Split",
    "StreamConfig", "StreamMetrics", "TreeNode", "VerificationError",
    "best_split", "check_counters", "check_feasibility", "emit_metrics",
    "load_stream", "make_example", "mixed_stream", "prequential_f1",
    "run_stream", "threshold_stream",
]

REPO = Path(__file__).resolve().parents[1]


def test_public_names():
    assert sorted(dyntree.__all__) == PUBLIC_NAMES
    assert all(hasattr(dyntree, name) for name in PUBLIC_NAMES)
    # the builder is reached through its module, which the package does
    # not shadow with the function
    assert isinstance(dyntree.build, ModuleType)
    assert dyntree.build.build.__module__ == "dyntree.build"


def test_every_public_name_has_a_user():
    # a top-level name is exported for its users: a script, the benchmark
    # or an acceptance criterion imports it from dyntree, the CLI or the
    # harness names it, or the API raises it.  Other tests import what
    # they check from its module
    def tree(path):
        return ast.walk(ast.parse(path.read_text()))

    imported = set()
    for path in [*(REPO / "scripts").glob("*.py"), *(REPO / "bench").glob("*.py"),
                 REPO / "tests" / "test_acceptance.py"]:
        for node in tree(path):
            if (isinstance(node, ast.ImportFrom) and node.module == "dyntree"
                    and node.level == 0):
                imported.update(alias.name for alias in node.names)
    src = REPO / "src" / "dyntree"
    named = set()
    for node in (*tree(src / "cli.py"), *tree(src / "harness.py")):
        if isinstance(node, ast.Name):
            named.add(node.id)
        elif isinstance(node, ast.Attribute):
            named.add(node.attr)
    raised = set()
    for path in src.glob("*.py"):
        for node in tree(path):
            if isinstance(node, ast.Raise) and node.exc is not None:
                exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
                if isinstance(exc, ast.Name):
                    raised.add(exc.id)
    raised = {name for name in raised & set(dyntree.__all__)
              if issubclass(getattr(dyntree, name), Exception)}
    assert sorted(set(dyntree.__all__) - imported - named - raised) == []


# imports kept for bench/tracing.py, which patches them by name in these
# modules (ROADMAP item 1b)
TRACER_SHIMS = {("build.py", "_gain_from_counts"),
                ("dynamic.py", "_build_cat_entries")}


def test_every_imported_name_is_used():
    # neither pyflakes nor ruff is a dependency, so this is their unused
    # import check, for the package, the scripts and the tests: a module
    # uses a name it imports, or re-exports it in __all__, or is a tracer
    # shim
    unused = []
    for path in [*(REPO / "src" / "dyntree").glob("*.py"),
                 *(REPO / "scripts").glob("*.py"),
                 *(REPO / "tests").glob("*.py")]:
        module = ast.parse(path.read_text())
        imported, used = set(), set()
        for node in ast.walk(module):
            if isinstance(node, ast.Import):
                imported.update((a.asname or a.name).split(".")[0]
                                for a in node.names)
            elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
                imported.update(a.asname or a.name for a in node.names)
            elif isinstance(node, ast.Name):
                used.add(node.id)
            elif (isinstance(node, ast.Assign)
                  and any(isinstance(t, ast.Name) and t.id == "__all__"
                          for t in node.targets)):
                used.update(ast.literal_eval(node.value))
        unused += [(path.name, name) for name in sorted(imported - used)
                   if (path.name, name) not in TRACER_SHIMS]
    assert unused == []


def test_make_example_rejects_bad_labels():
    # the tree's boundary rule: an integer 0 or 1, never a coerced value
    for bad in (2, -1, 1.7, 0.9, -0.4, "1", np.True_):
        with pytest.raises(ValueError, match="label must be 0 or 1"):
            make_example((1.0,), bad)
    for good in (True, np.int64(1)):
        label = make_example((1.0,), good).label
        assert label == 1 and type(label) is int


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
    assert [e for e, _ in s.items()] == keys


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


@pytest.mark.parametrize("symbol", [
    1j, object(), Decimal("NaN"), None, Decimal("sNaN"), Decimal(1),
    Fraction(1, 2), Picky(0), Unordered("a"), Code(1)],
    ids=["complex", "object", "decimal-nan", "none", "decimal-snan",
         "decimal", "fraction", "picky", "str-subclass", "int-subclass"])
def test_symbols_that_cannot_sort_are_rejected(symbol):
    # rebuilds sort each column's symbols, so a multiset takes only those
    # of the exact types whose < cannot raise within the type, under a
    # declared schema or an inferred one (which takes an int subclass as
    # a real value)
    inferred = Schema.infer(("a", symbol)) == Schema.categorical(2)
    assert inferred == (type(symbol) is not Code)
    for schema in [Schema.categorical(2)] + [None] * inferred:
        s = ActiveMultiset(schema)
        with pytest.raises(SchemaError,
                           match="feature 1 must be a str or integer"):
            s.insert(make_example(("a", symbol), 0))
        assert s.schema == schema and s._store.symbol_types is None and not s
        s.insert(make_example(("a", "b"), 1))
        assert s.schema == Schema.categorical(2)
        assert s._store.symbol_types == (str, str)


def _symbol_sort_fails_on(poison, monkeypatch):
    # An injected fault: the row store's sort of a column's symbols raises
    # whenever poison is among them, midway through coding a flush, where
    # the sort of two symbols that did not order against each other once
    # raised.  Other sorts run as before.
    def faulty_sorted(values, **kwargs):
        values = list(values)
        if poison in values:
            raise RuntimeError(f"injected fault on {poison!r}")
        return sorted(values, **kwargs)
    monkeypatch.setattr(dyntree.core, "sorted", faulty_sorted, raising=False)


# CODE_CELLS values that send every flush down one coding path
CODING_PATHS = {"numpy": 0, "memoryview": 10**9}


@pytest.mark.parametrize("path", CODING_PATHS)
def test_failed_flush_leaves_the_store_as_it_was(path, monkeypatch):
    # a flush that raised once kept the ids it had handed out and cleared
    # its rows from uncoded first, so a later columns() coded s1 as s0
    monkeypatch.setattr(dyntree.core, "CODE_CELLS", CODING_PATHS[path])
    _symbol_sort_fails_on("s2", monkeypatch)
    s = ActiveMultiset(Schema.categorical(1))
    s.insert(make_example(("s0",), 0))
    store = s._store
    store.flush()
    s.insert(make_example(("s1",), 1))
    s.insert(make_example(("s2",), 0))

    def coded():
        return ([dict(d) for d in store.ids], store.rank.tolist(),
                list(store.symbols), list(store.code_col),
                store.C[store.row_of[make_example(("s0",), 0)]].tolist(),
                store.y.tobytes(), store.C.tobytes(), set(store.uncoded))

    before = coded()
    with pytest.raises(RuntimeError, match="injected fault"):
        store.flush()
    assert coded() == before
    s.delete(make_example(("s2",), 0))
    rows = store.held_rows()
    _, _, _, C = store.columns(rows)
    codes = {store.examples[r].features[0]: c
             for r, c in zip(rows.tolist(), C[:, 0].tolist())}
    assert codes == {"s0": 0, "s1": 1}
    assert store.symbols == ["s0", "s1"] and not store.uncoded


def _coding_steps(kinds: str, seed: int) -> list:
    # Seeded inserts, deletes and flushes of a multiset of at most six
    # distinct examples.  Real values include -0.0 next to 0.0, exact ints
    # such as 2**53, np.float64 and inf; labels include True and
    # np.int64(1); the str column takes a symbol new to it at most inserts,
    # so the ids outgrow twice the cells and _drop_unheld runs.
    rng = random.Random(seed)
    reals = [-0.0, 0.0, 1.5, 2**53, -(2**53), 3, np.float64(2.5),
             np.float64(-0.0), float("inf"), float("-inf")]
    labels = [0, 1, True, False, np.int64(1), np.int64(0)]
    held, steps, fresh = [], [], 0
    for _ in range(160):
        if held and (len(held) >= 6 or rng.random() < 0.4):
            steps.append(("del", held.pop(rng.randrange(len(held)))))
        else:
            features = []
            for kind in kinds:
                if kind == "r":
                    features.append(rng.choice(reals))
                elif kind == "s":
                    fresh += rng.random() < 0.8
                    features.append(f"s{fresh}")
                else:
                    features.append(rng.randrange(4))
            e = LabeledExample(tuple(features), rng.choice(labels))
            held.append(e)
            steps.append(("ins", e))
        if rng.random() < 0.3:
            steps.append(("flush", None))
    return steps + [("flush", None)]


def _coded_state(store):
    store.flush()
    rows = store.held_rows()
    w, wy, X, C = store.columns(rows)
    assert X is None or not np.signbit(X[X == 0]).any()  # -0.0 codes 0.0
    columns = [None if a is None else a.tobytes() for a in (w, wy, X, C)]
    return (rows.tolist(), columns, [dict(d) for d in store.ids],
            store.rank.tolist(), list(store.symbols), list(store.code_col))


@pytest.mark.parametrize("kinds,shapes", [
    ("rr", [(0,), (0,), (0, 2), None]),
    ("rsri", [(0,), (0,), (0, 2), (0, 2)]),
    ("s", [(0,), (0,), None, (0, 1)]),
])
@pytest.mark.parametrize("inserted", [False, True])
def test_columns_of_a_store_that_never_coded_a_row(kinds, shapes, inserted):
    # no row coded yet, whether the store took none or freed its only row
    # before a flush: the columns are empty, shaped by the schema
    schema = Schema(tuple(FeatureKind.REAL if k == "r"
                          else FeatureKind.CATEGORICAL for k in kinds))
    s = ActiveMultiset(schema)
    if inserted:
        e = make_example(tuple(1.0 if k == "r" else "a" for k in kinds), 1)
        s.insert(e)
        s.delete(e)
    store = s._store
    store.flush()
    columns = store.columns(store.held_rows())
    assert [None if a is None else a.shape for a in columns] == shapes


@pytest.mark.parametrize("kinds", ["rsri", "rr", "si"])
def test_both_coding_paths_code_alike(kinds, monkeypatch):
    # a flush codes its rows through memoryviews or by numpy fancy
    # assignment, by its number of cells; forced down each path, the same
    # takes must leave the same columns, ids and rank tables
    schema = Schema(tuple(FeatureKind.REAL if k == "r"
                          else FeatureKind.CATEGORICAL for k in kinds))
    drops = []

    def drop_spy(self, rows):
        drops.append(len(rows))
        return drop(self, rows)
    drop = dyntree.core._Store._drop_unheld
    monkeypatch.setattr(dyntree.core._Store, "_drop_unheld", drop_spy)
    for seed in range(3):
        steps = _coding_steps(kinds, seed)
        states = {}
        for path, cells in CODING_PATHS.items():
            monkeypatch.setattr(dyntree.core, "CODE_CELLS", cells)
            s = ActiveMultiset(schema)
            states[path] = []
            for op, e in steps:
                if op == "ins":
                    s.insert(e)
                elif op == "del":
                    s.delete(e)
                else:
                    states[path].append(_coded_state(s._store))
        assert states["numpy"] == states["memoryview"]
    assert ("s" not in kinds) == (not drops)


class _Real(float):
    pass


@pytest.mark.parametrize("kinds", ["rrrrr", "rsrir"])
def test_a_packed_flush_codes_each_cell_as_float_plus_zero(kinds,
                                                           monkeypatch):
    # a flush of more than CODE_CELLS cells packs its real values into one
    # bytes object; each real cell must read float(v) + 0.0 (so -0.0 reads
    # 0.0) and each label float(label), byte for byte
    packed = []

    def pack_spy(values, cells):
        packed.append(cells)
        return pack(values, cells)
    pack = dyntree.core._reals
    monkeypatch.setattr(dyntree.core, "_reals", pack_spy)
    reals = [2**53, -7, -0.0, np.float64(0.1), _Real(2.5), 5e-324,
             1.7976931348623157e308]
    labels = [True, np.int64(1), 0, 1, False, np.int64(0), True]
    exs = [LabeledExample(tuple(reals[(i + j) % len(reals)] if k == "r"
                                else f"s{i}" if k == "s" else i % 3
                                for j, k in enumerate(kinds)), label)
           for i, label in enumerate(labels)]
    s = ActiveMultiset(Schema(tuple(
        FeatureKind.REAL if k == "r" else FeatureKind.CATEGORICAL
        for k in kinds)))
    for e in exs:
        s.insert(e)
    store = s._store
    store.flush()
    real = [j for j, k in enumerate(kinds) if k == "r"]
    assert packed == [len(exs) * len(real)]
    assert len(exs) * len(kinds) > dyntree.core.CODE_CELLS
    rows = [store.row_of[e] for e in exs]
    X = np.array([[float(e.features[j]) + 0.0 for j in real] for e in exs])
    y = np.array([float(e.label) for e in exs])
    assert store.X[rows].tobytes() == X.tobytes()
    assert store.y[rows].tobytes() == y.tobytes()


class _One:
    # an integer label of a type of its own: the store takes any label
    # with __index__ equal to 0 or 1
    def __index__(self):
        return 1


@pytest.mark.parametrize("kinds", ["rrrr", "rsri", "sisi"])
def test_a_large_flush_codes_every_integer_label_type(kinds):
    # a flush of more than CODE_CELLS cells writes its labels from bytes;
    # a label of each integer type the store accepts reads float(label)
    labels = [True, False, np.int64(1), np.int8(0), np.uint8(1),
              np.uint64(0), np.int32(1), 0, 1, _One()]
    exs = [LabeledExample(tuple(float(i) if k == "r" else f"s{i % 3}"
                                if k == "s" else i % 2 for k in kinds), label)
           for i, label in enumerate(labels)]
    s = ActiveMultiset(Schema(tuple(
        FeatureKind.REAL if k == "r" else FeatureKind.CATEGORICAL
        for k in kinds)))
    for e in exs:
        s.insert(e)
    assert len(exs) * len(kinds) > dyntree.core.CODE_CELLS
    store = s._store
    store.flush()
    y = np.array([float(e.label.__index__()) for e in exs])
    assert store.y[[store.row_of[e] for e in exs]].tobytes() == y.tobytes()


def _tree_state(tree):
    # everything a failed update must leave as it was
    union = tree.leaf_union()
    pendings = [(id(v), v.pending) for v in walk(tree.root)]
    return (tree.active_size, pendings, dataclasses.astuple(tree.stats),
            dict(union.items()), tree._store.symbol_types,
            dyntree.check_counters(tree, union, tree.params.epsilon).ok)


EAGER = FeasibilityParams(epsilon=0.2, alpha=0.2, beta=0.2, k=1, h=8)


def _sym(v):
    return make_example((f"s{v}",), v % 2)


def test_an_insert_whose_rebuild_raises_changes_nothing(monkeypatch):
    # the third insert's rebuild codes s2, and the sort of the symbols
    # fails; the insert once stayed counted (active_size 3, root pending
    # 1) with its row held uncoded, so every later rebuild raised
    _symbol_sort_fails_on("s2", monkeypatch)
    tree = DecisionTree.empty(EAGER, Schema.categorical(1))
    tree.update(_sym(0), "ins")
    tree.update(_sym(1), "ins")
    before = _tree_state(tree)
    with pytest.raises(RuntimeError, match="injected fault"):
        tree.update(_sym(2), "ins")
    assert _tree_state(tree) == before
    assert tree.update(_sym(0), "ins") is not None
    assert tree.update(_sym(1), "del") is not None
    assert tree.update(_sym(3), "ins") is not None
    assert dyntree.check_counters(tree, tree.leaf_union(), EAGER.epsilon).ok


def test_an_insert_whose_fold_raises_changes_nothing(monkeypatch):
    # At eps 1000 the one leaf folds its listings once an insert lists more
    # than 2 * 5 + 32 new rows.  A MemoryError there once left the insert
    # half done: active_size 5, the example in the leaf union and every
    # pending count one higher, but stats.updates as it was.
    armed = []

    def faulty(*args):
        if armed:
            raise MemoryError("injected fault")
        return current_rows(*args)
    current_rows = dyntree.dynamic._current_rows
    monkeypatch.setattr(dyntree.dynamic, "_current_rows", faulty)
    tree = DecisionTree.from_multiset(ActiveMultiset.from_examples(
        make_example((float(v),), 0) for v in range(4)),
        FeasibilityParams(epsilon=1000.0, k=1))
    for v in range(4, 100):
        e = make_example((float(v),), 0)
        before = _tree_state(tree)
        armed.append(True)
        try:
            tree.update(e, "ins")
        except MemoryError:
            break
        finally:
            armed.clear()
        tree.update(e, "del")
    else:
        pytest.fail("no insert folded")
    assert v > 40 and _tree_state(tree) == before
    assert tree.update(e, "ins") is None
    assert tree.root.leaf_new is None  # folded
    assert tree.leaf_union() == ActiveMultiset.from_examples(
        [make_example((float(u),), 0) for u in range(4)] + [e])


def test_a_delete_whose_rebuild_raises_changes_nothing(monkeypatch):
    # s1 keeps its symbol id once deleted, and s2 enters a leaf without a
    # rebuild and waits to be coded, so a delete that rebuilds that leaf
    # fails in the sort of the symbols; the row it released, whether
    # still held (s3) or freed (s5), is counted back
    _symbol_sort_fails_on("s2", monkeypatch)
    tree = DecisionTree.from_multiset(ActiveMultiset.from_examples(
        [_sym(0)] * 10 + [_sym(1), _sym(5)] + [_sym(3)] * 8), EAGER)
    assert [v.size for v in (tree.root.left, tree.root.right)] == [10, 10]
    assert tree.update(_sym(1), "del") is None
    assert tree.update(_sym(2), "ins") is None
    before = _tree_state(tree)
    for v in (3, 5):
        with pytest.raises(RuntimeError, match="injected fault"):
            tree.update(_sym(v), "del")
        assert _tree_state(tree) == before
    assert tree.update(_sym(2), "del") is not None
    tree.update(_sym(5), "del")
    assert tree.leaf_union() == ActiveMultiset.from_examples(
        [_sym(0)] * 10 + [_sym(3)] * 8)
    assert dyntree.check_counters(tree, tree.leaf_union(), EAGER.epsilon).ok


class _Numpy:
    """numpy, but for the functions given."""

    def __init__(self, **functions):
        self.__dict__.update(functions)

    def __getattr__(self, name):
        return getattr(np, name)


def _growth_fails_at(k, monkeypatch):
    # An injected fault: core's np.zeros raises MemoryError at its kth
    # call for an array of 32 rows, the size of the first growth past 16
    # rows; returns the calls for 32 rows made so far
    calls = []

    def zeros(shape, *args, **kwargs):
        if (shape[0] if isinstance(shape, tuple) else shape) == 32:
            calls.append(shape)
            if len(calls) == k:
                raise MemoryError("injected fault")
        return np.zeros(shape, *args, **kwargs)
    monkeypatch.setattr(dyntree.core, "np", _Numpy(zeros=zeros))
    return calls


def _exact_store(store):
    return (list(store.row_of.items()), list(store.examples),
            list(store.free), store.count.obj.tolist(), set(store.uncoded),
            store.total, store.symbol_types,
            [None if a is None else a.shape
             for a in (store.y, store.X, store.C)])


@pytest.mark.parametrize("case", ["real tree", "mixed tree", "multiset"])
def test_an_insert_whose_growth_raises_changes_nothing(case, monkeypatch):
    # The 17th distinct example grows the store's per-row arrays, and each
    # of their allocations fails in turn.  take once grew the counts after
    # it had written row_of, examples and total: a MemoryError there left
    # a tree's active_size at 17 over a leaf union of 16 (2 real features,
    # eps 0.5), and its retry, like a multiset's count(), raised
    # IndexError.  And y, X and C were replaced one at a time at a flush: a
    # MemoryError at X's allocation (a real and a categorical column, eps
    # 0.01) left y at 32 rows and X and C at 16, and the next 15 inserts
    # raised IndexError.  The store must be as it was, and the insert and
    # 15 more must then succeed.
    if case == "real tree":
        exs = [make_example((float(i), float(i % 3)), i % 2)
               for i in range(16)]
        params = FeasibilityParams(epsilon=0.5)
    else:
        exs = [make_example((float(i), float(i % 3), "abc"[i % 3]), i % 2)
               for i in range(16)]
        params = FeasibilityParams(epsilon=0.01, alpha=0.2, beta=0.4, k=1)
    more = [make_example(e.features[:1] + (9.0,) + e.features[2:],
                         1 - e.label) for e in exs]
    for k in range(1, 10):
        obj = ActiveMultiset.from_examples(exs)
        if case != "multiset":
            obj = DecisionTree.from_multiset(obj, params)
            obj._store.flush()
            before = _tree_state(obj)
        store_before = _exact_store(obj._store)
        calls = _growth_fails_at(k, monkeypatch)
        insert = obj.insert if case == "multiset" else (
            lambda e: obj.update(e, "ins"))
        try:
            insert(more[0])
        except MemoryError:
            pass
        monkeypatch.undo()
        if len(calls) < k:  # every allocation of the growth has failed
            break
        assert _exact_store(obj._store) == store_before
        if case != "multiset":
            assert _tree_state(obj) == before
        for e in more:
            insert(e)
        if case == "multiset":
            assert obj == ActiveMultiset.from_examples(exs + more)
        else:
            union = obj.leaf_union()
            assert union == ActiveMultiset.from_examples(exs + more)
            assert dyntree.check_counters(obj, union, params.epsilon).ok
    assert k == (3 if case == "real tree" else 4) + 1


def test_symbols_that_do_not_order_never_enter_a_tree():
    # In a tree at eps=4, Picky(0) twice, then Picky(1) and Picky(2)
    # once entered without a rebuild; 19 of the next 20 inserts of
    # Picky(0) then raised TypeError from the sort of the symbols, and
    # leaf_union().items() and check_counters raised too.  Each insert is
    # now rejected at the boundary, and the tree goes on with str symbols.
    params = FeasibilityParams(epsilon=4.0)
    tree = DecisionTree.empty(params, Schema.categorical(1))
    before = _tree_state(tree)
    for v in (0, 0, 1, 2):
        with pytest.raises(SchemaError, match="feature 0 must be a str"):
            tree.update(make_example((Picky(v),), 0), "ins")
        assert _tree_state(tree) == before
    exs = [make_example(("abc"[i % 3],), i % 2) for i in range(20)]
    rebuilds = sum(tree.update(e, "ins") is not None for e in exs)
    assert rebuilds >= 2 and tree.stats.rebuild_count == rebuilds
    assert dict(tree.leaf_union().items()) == dict(Counter(exs))
    assert dyntree.check_counters(tree, tree.leaf_union(), params.epsilon).ok


def test_a_multisets_store_holds_exactly_its_rows():
    # a caller's multiset owns its store, so copy can copy the store whole
    def exact(s):
        store = s._store
        return (len(store.row_of) == s.distinct_size
                and set(store.row_of.values())
                == set(store.held_rows().tolist())
                # a multiset recycles a row as it frees it
                and sorted(store.free) == [
                    r for r, e in enumerate(store.examples) if e is None])

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


def test_building_from_or_copying_a_multiset_codes_nothing_of_it():
    # the copy of a store once flushed it first, so a tree built from a
    # multiset left its rows coded there too, for as long as it lived
    exs = [make_example((float(i % 5), "ab"[i % 2]), i % 2) for i in range(12)]
    s = ActiveMultiset.from_examples(exs)
    store = s._store

    def kept():
        return (set(store.uncoded),
                [None if a is None else a.tobytes()
                 for a in (store.y, store.X, store.C)],
                [dict(d) for d in store.ids], list(store.symbols))

    for more in ([], [make_example((7.0, "c"), 1), make_example((8.0, "a"), 0)]):
        for e in more:  # after a flush: some rows coded, these not
            s.insert(e)
        before = kept()
        tree = DecisionTree.from_multiset(s, FeasibilityParams(epsilon=0.5))
        c = s.copy()
        assert kept() == before
        if not more:  # never coded: columns of zeros, made by the take
            assert [any(a) for a in before[1]] == [False] * 3
            assert len(before[0]) == 10
        else:
            assert len(before[0]) == 2
        assert tree.leaf_union() == s and c == s
        rows = store.held_rows()
        for other in (c._store, tree._store):
            assert [a.tobytes() for a in other.columns(rows)] == [
                a.tobytes() for a in store.columns(rows)]
            assert other.symbols == store.symbols


@pytest.mark.parametrize("clone", [copy.deepcopy,
                                   lambda x: pickle.loads(pickle.dumps(x))],
                         ids=["deepcopy", "pickle"])
def test_multisets_and_trees_copy_and_pickle(clone):
    # the store keeps its per-row counts under a memoryview, which pickle
    # cannot take
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


def _comparable(state):
    """A store's pickled state with each array as (dtype, shape, bytes), so
    that two states compare with ==."""
    return {name: (v.dtype.str, v.shape, v.tobytes())
            if isinstance(v, np.ndarray) else v for name, v in state.items()}


def test_a_store_copy_shares_no_container_it_changes():
    # _Store.copy clones the pickled state one level deep instead of naming
    # its slots, so a slot added later cannot be left shared; edits of the
    # copy, including a flush that ranks a new symbol, leave the source as
    # it was
    exs = [make_example((float(i % 5), "ab"[i % 2]), i % 2) for i in range(12)]
    s = ActiveMultiset.from_examples(exs)
    s._store.flush()
    s.insert(make_example((7.0, "a"), 1))  # held uncoded
    store = s._store
    c = store.copy()
    copied = []
    for name in dyntree.core._Store.__slots__:
        mine, theirs = getattr(store, name), getattr(c, name)
        if isinstance(mine, memoryview):
            mine, theirs = mine.obj, theirs.obj
        if isinstance(mine, (dict, list, set, np.ndarray)):
            assert theirs is not mine, name
            copied.append(name)
    assert len(copied) == 12  # y, X and C included: the store has coded
    before = copy.deepcopy(store.__getstate__())
    c.take(make_example((8.0, "c"), 0), (str,))
    c.remove(exs[0])
    row, _ = c.remove(exs[5])  # its last copy: the row is freed, then recycled
    c.recycle([row])
    assert c.free == [row] and c.count[row] == 0
    c.flush()
    assert c.symbols == ["a", "b", "c"] and c.total == 12
    assert _comparable(store.__getstate__()) == _comparable(before)
    assert store.total == len(s) == 13


def _store_state(s):
    """What a multiset's store holds, its held examples by identity."""
    store = s._store
    return (list(store.row_of.items()), [id(e) for e in store.examples],
            list(store.free), store.count.obj.tolist(), set(store.uncoded),
            store.schema, store.symbol_types, len(s))


def _inserted(examples, schema):
    """The multiset of examples, inserted one at a time."""
    s = ActiveMultiset(schema)
    for e in examples:
        s.insert(e)
    return s


def _tree_dump(tree):
    store = tree._store
    return ([(v.depth, v.size, v.height, v.split, v.split_gain.hex(),
              v.leaf_label, v.label_hist,
              None if v.leaf_rows is None else v.leaf_rows.tolist(),
              v.leaf_new) for v in walk(tree.root)],
            [None if a is None else a.tobytes()
             for a in (store.y, store.X, store.C)])


KINDS = {
    "real": (FeatureKind.REAL,) * 3,
    "categorical": (FeatureKind.CATEGORICAL,) * 2,
    "mixed": (FeatureKind.REAL, FeatureKind.CATEGORICAL, FeatureKind.REAL),
}


def _batch(kinds, distinct, seed):
    """distinct examples of kinds, then equal but distinct copies of about
    half of them, shuffled: a batch with repeats whose first-seen objects
    differ from their later copies."""
    rng = random.Random(seed)

    def value(kind):
        if kind is FeatureKind.REAL:
            return float(rng.randrange(5))
        return f"s{rng.randrange(4)}"

    # the first feature makes each example distinct
    first = float if kinds[0] is FeatureKind.REAL else "r{}".format
    base = [make_example([first(i)] + [value(k) for k in kinds[1:]],
                         rng.randrange(2)) for i in range(distinct)]
    copies = [make_example(list(e.features), e.label)
              for e in rng.choices(base, k=distinct // 2 + 1)]
    batch = base + copies
    rng.shuffle(batch)
    return batch


@pytest.mark.parametrize("kinds", list(KINDS.values()), ids=list(KINDS))
@pytest.mark.parametrize("distinct", [1, 16, 17, 150])
def test_from_examples_takes_a_batch_as_inserts_would(kinds, distinct):
    # the batch path must leave the store a loop of insert leaves: rows in
    # first-seen order holding the first object, counts (unused rows of the
    # grown arrays included, which count 0, as free rows do), uncoded rows,
    # schema and symbol pin; 16 and 17 rows sit either side of the first
    # growth
    params = FeasibilityParams(epsilon=0.1, alpha=0.2, beta=0.4, k=2, h=5)
    schema = Schema(kinds)
    batch = _batch(kinds, distinct, seed=distinct)
    for given in (schema, None):
        s = ActiveMultiset.from_examples(batch, given)
        loop = _inserted(batch, given)
        assert _store_state(s) == _store_state(loop)
        assert not s._store.count.obj[distinct:].any()
        assert s.schema == schema and s.distinct_size == distinct
        assert s._store.symbol_types == (
            (str,) * len(schema._categorical) if schema._categorical else None)
        assert _tree_dump(DecisionTree.from_multiset(s, params)) == _tree_dump(
            DecisionTree.from_multiset(loop, params))
    # leaf_union's materialization takes its rows through the same pass and
    # pins what insert pins: None for an all-real schema, which it once
    # pinned as ()
    items = s._unsorted_items()
    m = ActiveMultiset._from_sorted_items(items, schema)
    assert _store_state(m) == _store_state(loop)
    assert m == loop
    # an empty batch keeps the schema it was given, or none
    assert _store_state(ActiveMultiset.from_examples([], schema)) == (
        _store_state(ActiveMultiset(schema)))
    assert ActiveMultiset.from_examples(iter([])).schema is None


class _Row(tuple):
    """A tuple subclass: hashable and valid features, but not exactly a
    tuple."""


def _replace(batch, i, features=None, label=None):
    e = batch[i]
    batch[i] = LabeledExample(e.features if features is None else features,
                              e.label if label is None else label)
    return batch


def _set(batch, i, j, value):
    f = list(batch[i].features)
    f[j] = value
    return _replace(batch, i, features=tuple(f))


# Batches that miss the batch path, each made from a valid (real,
# categorical, real) batch of 46 examples; features 0 and 2 are real
FAST_PATH_MISSES = {
    "bool label": lambda b: _replace(b, 20, label=True),
    "numpy label": lambda b: _replace(b, 20, label=np.int64(1)),
    "int real": lambda b: _set(b, 20, 2, 3),
    "numpy real": lambda b: _set(b, 20, 2, np.float64(2.5)),
    "nan": lambda b: _set(b, 20, 0, float("nan")),
    "inf and -inf": lambda b: _set(_set(b, 5, 2, math.inf), 30, 2, -math.inf),
    "wrong arity": lambda b: _replace(b, 20, features=(1.0, "a")),
    "list features": lambda b: _replace(b, 20, features=list(b[20].features)),
    "tuple subclass": lambda b: _replace(b, 20, features=_Row(b[20].features)),
    "numpy str symbol": lambda b: _set(b, 20, 1, np.str_("s1")),
    "numpy str column": lambda b: [
        LabeledExample((f[0], np.str_(f[1]), f[2]), e.label)
        for e in b for f in (e.features,)],
    "int symbol": lambda b: _set(b, 20, 1, 7),
    "plain tuple": lambda b: b[:20] + [tuple(b[20])] + b[21:],
    "no features": lambda b: [LabeledExample((), 0)] + b,
}


@pytest.mark.parametrize("case", list(FAST_PATH_MISSES))
def test_batches_that_miss_the_batch_path_insert_one_by_one(case, monkeypatch):
    # each gives the result, or the exception type and message, of a loop
    # of insert, and goes through insert itself
    calls = []
    insert = ActiveMultiset.insert

    def spy(self, e):
        calls.append(e)
        return insert(self, e)

    monkeypatch.setattr(ActiveMultiset, "insert", spy)

    def outcome(make, given):
        calls.clear()
        try:
            return _store_state(make(batch, given)), len(calls)
        except Exception as exc:  # noqa: BLE001 - compared, not handled
            return (type(exc), str(exc)), len(calls)

    kinds = KINDS["mixed"]
    batch = FAST_PATH_MISSES[case](_batch(kinds, 30, seed=4))
    for given in (Schema(kinds), None):
        got, inserts = outcome(ActiveMultiset.from_examples, given)
        assert inserts > 0
        assert got == outcome(_inserted, given)[0]


def test_benchmark_shaped_warm_windows_take_the_batch_path(monkeypatch):
    # the benchmark's set-up ingests warm windows of 1000 examples like
    # these; insert would see each of them if they went through it
    rng = random.Random(0)
    categorical = [make_example([f"s{rng.randrange(5)}" for _ in range(6)],
                                rng.randrange(2)) for _ in range(1000)]
    windows = [threshold_stream(1000, d=8, seed=1, noise=0.04, theta=0.75),
               mixed_stream(1000, d_num=3, d_cat=2, seed=1), categorical]
    calls = []
    monkeypatch.setattr(ActiveMultiset, "insert",
                        lambda self, e: calls.append(e))
    for window in windows:
        for given in (Schema.infer(window[0].features), None):
            s = ActiveMultiset.from_examples(window, given)
            assert len(s) == 1000 and s.schema is not None
    assert calls == []


@pytest.mark.parametrize("symbol", [("a",), ["a"], {"a"}, frozenset("a"),
                                    {"a": 1}])
def test_schema_rejects_container_symbols(symbol):
    schema = Schema.categorical(2)
    with pytest.raises(SchemaError, match="feature 1 must be a str or integer "
                                          "symbol, got .* of type"):
        schema.validate(("a", symbol))
    schema.validate(("a", 1))  # integer symbols still pass


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
    # an infinite epsilon makes an empty root's trigger inf * 0, NaN, so
    # the tree never rebuilds
    for bad in (float("nan"), float("inf")):
        with pytest.raises(ValueError, match="epsilon must be"):
            FeasibilityParams(epsilon=bad)
    with pytest.raises(ValueError):
        FeasibilityParams(epsilon=0.1, h=0)
    # a fractional h capped the builder at depth 3 (eta >= 2.5) while the
    # oracle's must-leaf rule, depth == h, never held
    for bad in (2.5, 2.0, True, "3", None):
        with pytest.raises(ValueError, match="k must be a positive integer"):
            FeasibilityParams(epsilon=0.1, k=bad)
        if bad is not None:
            with pytest.raises(ValueError, match="h must be a positive"):
                FeasibilityParams(epsilon=0.1, h=bad)
    assert FeasibilityParams(epsilon=0.1, k=2, h=3).h == 3


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
