"""Update mechanics: routing, counters, proactive rebuilds, query streams."""

import copy
import dataclasses
import pickle
import random
from collections import Counter, deque
from decimal import Decimal
from fractions import Fraction

import numpy as np
import pytest

import dyntree
from dyntree import (
    ActiveMultiset,
    ExampleNotFound,
    DecisionTree,
    FeasibilityParams,
    LabeledExample,
    Schema,
    SchemaError,
    Split,
    check_counters,
    make_example,
    mixed_stream,
)
from dyntree.build import build
from dyntree.dynamic import _shat
from shared import (Code, Picky, Unordered, leaf_multiset, state,
                    subtree_multiset, walk)

HALF = FeasibilityParams(epsilon=0.5, alpha=0.2, beta=0.2, k=1, h=8)


def _tree(examples, params=HALF):
    return DecisionTree.from_multiset(ActiveMultiset.from_examples(examples),
                                      params)


def test_shat_rounding():
    assert _shat(0) == 1
    assert _shat(1) == 1
    assert _shat(2) == 2
    assert _shat(5) == 8
    assert _shat(8) == 8
    assert _shat(9) == 16


def test_empty_tree_predicts_zero():
    tree = DecisionTree.empty(HALF, Schema.numeric(1))
    assert tree.root.is_leaf
    assert tree.query((123.0,)) == 0
    assert tree.active_size == 0


def test_query_routes_left_on_equality():
    tree = _tree([make_example((0.0,), 0), make_example((1.0,), 1)])
    assert tree.root.split == Split(0, 0.0)
    assert tree.query((-1.0,)) == 0
    assert tree.query((0.0,)) == 0
    assert tree.query((0.5,)) == 1


def test_query_schema_mismatch():
    tree = DecisionTree.empty(HALF, Schema.numeric(2))
    with pytest.raises(SchemaError):
        tree.query((1.0,))


def test_counter_under_budget_no_rebuild():
    # size 4 at epsilon 1/2: pending may reach 2, strictly above it rebuilds
    tree = _tree([make_example((float(i),), 1) for i in range(4)])
    root = tree.root
    assert root.is_leaf and root.size == 4
    root.pending = 1
    info = tree.update(make_example((9.0,), 1), "ins")
    assert info is None
    assert tree.root is root
    assert root.pending == 2


def test_counter_over_budget_rebuilds_root():
    tree = _tree([make_example((float(i),), 1) for i in range(4)])
    root = tree.root
    assert root.is_leaf and root.size == 4
    root.pending = 2
    info = tree.update(make_example((9.0,), 1), "ins")
    assert info is not None
    assert info.gathered == 5
    assert info.depth == 0
    assert tree.root is not root
    assert tree.root.pending == 0
    assert tree.active_size == 5


def test_rebuild_picks_ancestor_within_doubled_size():
    # trigger at a size-5 leaf rounds up to 8; the size-7 ancestor fits,
    # the size-20 root does not, so the subtree swap happens in the middle
    tree = _tree([make_example((1.0, 1.0), i % 2) for i in range(5)]
                 + [make_example((1.0, 4.0), 1)] * 2
                 + [make_example((6.0, 0.0), 0)] * 13)
    root = tree.root
    mid, leaf_c = root.left, root.right
    leaf_a, leaf_b = mid.left, mid.right
    assert (root.size, mid.size, leaf_c.size) == (20, 7, 13)
    assert (leaf_a.size, leaf_b.size) == (5, 2)
    assert leaf_a.is_leaf and leaf_b.is_leaf and leaf_c.is_leaf
    leaf_a.pending = 2
    mid.pending = 2

    info = tree.update(make_example((1.0, 1.0), 1), "ins")
    assert info is not None
    assert info.depth == 1
    assert info.gathered == 8  # five plus the insert at leaf_a, two at leaf_b
    assert tree.root is root
    assert root.right is leaf_c
    assert root.left is not mid
    assert root.left.depth == 1
    assert root.pending == 1  # incremented before the deeper trigger fired
    assert tree.active_size == 21


def test_del_of_absent_changes_nothing():
    exs = [make_example((float(i),), i % 2) for i in range(6)]
    tree = DecisionTree.from_multiset(ActiveMultiset.from_examples(exs), HALF)
    before_active = tree.active_size
    before_updates = tree.stats.updates
    pendings = [
        (id(v), v.pending) for v in walk(tree.root)
    ]
    with pytest.raises(ExampleNotFound):
        tree.update(make_example((0.0,), 1), "del")
    assert tree.active_size == before_active
    assert tree.stats.updates == before_updates
    assert [(id(v), v.pending) for v in walk(tree.root)] == pendings
    assert tree.leaf_union() == ActiveMultiset.from_examples(exs)


def test_insert_then_delete_restores_active_set():
    tree = DecisionTree.empty(HALF, Schema.numeric(1))
    e = make_example((1.0,), 1)
    tree.update(e, "ins")
    assert tree.active_size == 1
    tree.update(e, "del")
    assert tree.active_size == 0
    assert len(tree.leaf_union()) == 0


def test_update_validates_op_and_label():
    tree = DecisionTree.empty(HALF, Schema.numeric(1))
    with pytest.raises(ValueError):
        tree.update(make_example((1.0,), 1), "upsert")
    with pytest.raises(SchemaError):
        tree.update(make_example((1.0, 2.0), 1), "ins")


def _spy_validate(monkeypatch):
    # the features of every Schema.validate call, in order
    calls = []
    original = Schema.validate

    def counting(schema, features):
        calls.append(features)
        return original(schema, features)

    monkeypatch.setattr(Schema, "validate", counting)
    return calls


def test_update_validates_each_example_once(monkeypatch):
    tree = DecisionTree.empty(HALF, Schema.numeric(1))
    calls = _spy_validate(monkeypatch)
    e = make_example((1.0,), 1)
    tree.update(e, "ins")
    assert len(calls) == 1
    # the store holds e since it was validated, so its delete skips the check
    tree.update(e, "del")
    assert len(calls) == 1
    # a delete that finds nothing validates before it raises
    with pytest.raises(ExampleNotFound):
        tree.update(e, "del")
    assert len(calls) == 2
    cat = DecisionTree.empty(HALF, Schema.categorical(2))
    cat.update(make_example(("a", "b"), 0), "ins")
    cat.update(make_example(("a", "c"), 1), "ins")
    assert len(calls) == 4


def test_delete_of_an_equal_value_of_a_rejected_type_raises():
    # True == 1.0 and 1.0 == 1 find the held example, but neither is a
    # value its column accepts, so the delete is rejected as an insert is
    params = FeasibilityParams(epsilon=0.2, alpha=0.1, beta=0.5, k=1)
    for schema, held, other in (
            (Schema.numeric(1), (1.0,), (True,)),
            (Schema.categorical(1), (1,), (1.0,))):
        tree = DecisionTree.empty(params, schema)
        tree.update(make_example(held, 1), "ins")
        with pytest.raises(SchemaError):
            tree.update(make_example(other, 1), "del")
        assert tree.active_size == 1
        tree.update(make_example(held, 1), "del")
        assert tree.active_size == 0


def test_a_delete_meets_the_symbol_type_pin_as_an_insert_does():
    # True == 1 and np.str_("b") == "b" find the held examples, and both
    # pass validate; only the pin of each column's symbol type tells them
    # apart, and a delete of such an equal copy must meet it
    tree = DecisionTree.empty(HALF, Schema.categorical(2))
    for e in (make_example((1, "a"), 0), make_example((1, "b"), 1)):
        tree.update(e, "ins")
    before = state(tree)
    for e in (make_example((True, "a"), 0), make_example((1, np.str_("b")), 1)):
        for op in ("ins", "del"):
            with pytest.raises(SchemaError, match="symbols, got"):
                tree.update(e, op)
            assert state(tree) == before


def test_query_and_insert_validate_each_example_once(monkeypatch):
    s = ActiveMultiset.from_examples([make_example((1.0, "a"), 1)])
    tree = DecisionTree.from_multiset(s, HALF)
    calls = _spy_validate(monkeypatch)
    tree.query((2.0, "b"))
    assert calls == [(2.0, "b")]
    s.insert(make_example((3.0, "c"), 0))
    assert calls == [(2.0, "b"), (3.0, "c")]


def test_an_insert_of_the_queried_tuple_validates_it_once(monkeypatch):
    tree = _tree([make_example((1.0, "a"), 1), make_example((2.0, "b"), 0)])
    calls = _spy_validate(monkeypatch)
    e = make_example((3.0, "c"), 1)
    tree.query(e.features)
    tree.update(e, "ins")
    assert calls == [e.features]
    # an equal tuple that is not the queried object is validated
    twin = make_example(list(e.features), 1)
    assert twin.features == e.features and twin.features is not e.features
    tree.update(twin, "ins")
    assert len(calls) == 2
    assert tree.leaf_union().count(e) == 2


def test_a_queried_list_mutated_to_hold_nan_is_rejected_at_the_insert():
    tree = _tree([make_example((float(i), "a"), i % 2) for i in range(4)])
    features = [1.0, "a"]
    tree.query(features)  # lists pass the fast path too
    features[0] = float("nan")
    before = state(tree)
    with pytest.raises(SchemaError, match="NaN"):
        tree.update(LabeledExample(features, 1), "ins")
    assert state(tree) == before


def test_a_queried_str_tuple_still_meets_an_int_pin(monkeypatch):
    params = FeasibilityParams(epsilon=0.2, alpha=0.1, beta=0.5, k=1)
    tree = DecisionTree.empty(params, Schema.categorical(1))
    tree.update(make_example((1,), 0), "ins")
    calls = _spy_validate(monkeypatch)
    a = make_example(("a",), 1)
    tree.query(a.features)
    before = state(tree)
    with pytest.raises(SchemaError, match="feature 0 holds int symbols"):
        tree.update(a, "ins")
    assert calls == [a.features]  # validated once, by the query
    assert state(tree) == before


class _Tuple(tuple):
    pass


@pytest.mark.parametrize("features", [(3, "c"), (np.float64(3.0), "c"),
                                      _Tuple((3.0, "c"))],
                         ids=["int", "np.float64", "tuple-subclass"])
def test_features_off_the_fast_path_are_validated_again(monkeypatch,
                                                        features):
    # only exact floats and strs in an exact tuple skip the insert's check
    tree = _tree([make_example((1.0, "a"), 1), make_example((2.0, "b"), 0)])
    calls = _spy_validate(monkeypatch)
    e = LabeledExample(features, 1)
    tree.query(features)
    tree.update(e, "ins")
    assert calls == [features, features]
    assert tree.leaf_union().count(e) == 1


def test_a_query_that_raises_leaves_the_memo_as_it_was(monkeypatch):
    tree = _tree([make_example((1.0, "a"), 1), make_example((2.0, "b"), 0)])
    calls = _spy_validate(monkeypatch)
    e = make_example((3.0, "c"), 1)
    tree.query(e.features)
    for bad in ((float("nan"), "c"), (3.0,), (3.0, 1.5)):
        with pytest.raises(SchemaError):
            tree.query(bad)
    # a query accepted off the fast path leaves it too
    tree.query((3, "c"))
    assert len(calls) == 5
    tree.update(e, "ins")
    assert len(calls) == 5


def test_a_query_on_one_tree_skips_nothing_on_another(monkeypatch):
    exs = [make_example((1.0, "a"), 1), make_example((2.0, "b"), 0)]
    one, other = _tree(exs), _tree(exs)
    calls = _spy_validate(monkeypatch)
    e = make_example((3.0, "c"), 1)
    one.query(e.features)
    other.update(e, "ins")
    assert calls == [e.features, e.features]
    one.update(e, "ins")
    assert len(calls) == 2
    assert one.leaf_union() == other.leaf_union()


def test_nan_update_raises_before_any_state_changes():
    exs = [make_example((float(i), 1.0), i % 2) for i in range(6)]
    tree = DecisionTree.from_multiset(ActiveMultiset.from_examples(exs), HALF)
    pendings = [(id(v), v.pending) for v in walk(tree.root)]
    with pytest.raises(SchemaError):
        tree.update(make_example((float("nan"), 1.0), 1), "ins")
    assert tree.active_size == 6
    assert tree.stats.updates == 0
    assert [(id(v), v.pending) for v in walk(tree.root)] == pendings
    assert tree.leaf_union() == ActiveMultiset.from_examples(exs)


@pytest.mark.parametrize("value", [2**53 + 1, 10**400],
                         ids=["2**53+1", "10**400"])
def test_real_ints_without_an_exact_float_raise_before_any_state_changes(
        value):
    # the row store codes real values as float64: the builder would put
    # 2**53 + 1 at 2**53 while routing compares the int itself, and 10**400
    # would overflow in the flush of a rebuild, after the update counted
    exs = [make_example((float(i), 1.0), i % 2) for i in range(6)]
    tree = _tree(exs)
    s = ActiveMultiset.from_examples(exs)
    pendings = [(id(v), v.pending) for v in walk(tree.root)]
    bad = make_example((value, 1.0), 1)
    with pytest.raises(SchemaError, match="float64 cannot hold exactly"):
        tree.update(bad, "ins")
    with pytest.raises(SchemaError, match="float64 cannot hold exactly"):
        tree.query(bad.features)
    with pytest.raises(SchemaError, match="float64 cannot hold exactly"):
        s.insert(bad)
    assert tree.active_size == 6
    assert tree.stats.updates == 0
    assert [(id(v), v.pending) for v in walk(tree.root)] == pendings
    assert tree.leaf_union() == ActiveMultiset.from_examples(exs) == s
    # ints that a float64 holds exactly stay real values
    for v in (2**53, 3):
        e = make_example((v, 1.0), 0)
        tree.update(e, "ins")
        tree.query(e.features)
        s.insert(e)
    assert tree.active_size == len(s) == 8
    assert tree.leaf_union() == s
    assert check_counters(tree, s, HALF.epsilon).ok


def test_mixed_symbol_types_raise_before_any_state_changes():
    params = FeasibilityParams(epsilon=0.2, alpha=0.1, beta=0.5, k=1)
    a, one = make_example(("a",), 1), make_example((1,), 0)
    tree = DecisionTree.empty(params, Schema.categorical(1))
    tree.update(a, "ins")
    pendings = [(id(v), v.pending) for v in walk(tree.root)]
    with pytest.raises(SchemaError, match="feature 0 holds str symbols"):
        tree.update(one, "ins")
    assert tree.active_size == 1
    assert tree.stats.updates == 1
    assert [(id(v), v.pending) for v in walk(tree.root)] == pendings
    shadow = ActiveMultiset.from_examples([a])
    assert tree.leaf_union() == shadow
    assert check_counters(tree, shadow, params.epsilon).ok
    # the pin holds for multisets, their copies and trees built from them
    with pytest.raises(SchemaError):
        ActiveMultiset.from_examples([a, one])
    with pytest.raises(SchemaError):
        shadow.copy().insert(one)
    with pytest.raises(SchemaError):
        DecisionTree.from_multiset(shadow, params).update(one, "ins")
    # a str symbol passes validate's fast path and still meets an int pin
    ints = DecisionTree.empty(params, Schema.categorical(1))
    ints.update(one, "ins")
    with pytest.raises(SchemaError, match="feature 0 holds int symbols"):
        ints.update(a, "ins")
    with pytest.raises(SchemaError, match="feature 0 holds int symbols"):
        ActiveMultiset.from_examples([one, a], Schema.categorical(1))
    assert ints.active_size == 1


def test_unhashable_insert_into_an_empty_tree_pins_no_symbol_type():
    tree = DecisionTree.empty(HALF, Schema.categorical(1))
    with pytest.raises(TypeError, match="unhashable"):
        tree.update(LabeledExample(["a"], 0), "ins")
    tree.update(make_example((1,), 0), "ins")
    assert tree.active_size == 1


class _Touchy:
    """A split threshold whose ``==`` raises.  No symbol makes routing
    raise, so a test puts one below the root by hand."""

    def __eq__(self, other):
        raise RuntimeError("does not compare")

    __hash__ = object.__hash__


LAZY = FeasibilityParams(epsilon=4.0, alpha=0.1, beta=0.2, k=1, h=8)


def _xor_tree(sym):
    # a tree of height 2 or more, whose updates rebuild nothing at first
    tree = _tree([make_example((sym(a), sym(b)), (a % 2) ^ (b == 2))
                  for a in range(4) for b in range(3)], LAZY)
    assert tree.height >= 2
    return tree


def _path(tree, features):
    # the nodes an update with features routes through, up to where the
    # routing raises, if it does
    path, node = [tree.root], tree.root
    try:
        while not node.is_leaf:
            node = node.route_child(features)
            path.append(node)
    except RuntimeError:
        pass
    return path


@pytest.mark.parametrize("where", ["take", "route"])
def test_an_update_that_raises_in_its_descent_changes_nothing(where):
    # the descent bumps each node's pending as it routes, so it takes the
    # bumps back when the leaf edit (take: unhashable features) or the
    # routing (a symbol's == below the root) raises
    tree = _xor_tree(str)
    if where == "take":
        bad, err = LabeledExample([str(3), str(1)], 0), TypeError
    else:
        bad, err = make_example((str(3), str(1)), 0), RuntimeError
        # the split below the root on bad's path compares by raising
        node = _path(tree, bad.features)[1]
        node.split = dataclasses.replace(node.split, threshold=_Touchy())
    assert len(_path(tree, bad.features)) >= 2  # bumps below the root

    before = state(tree)
    with pytest.raises(err):
        tree.update(bad, "ins")
    assert state(tree) == before


def test_an_update_counts_on_its_path_only():
    tree = _xor_tree(float)
    e = make_example((3.0, 1.0), 0)
    on_path = {id(v) for v in _path(tree, e.features)}
    assert len(on_path) >= 3
    before = {id(v): v.pending for v in walk(tree.root)}
    for bumps, op in enumerate(("ins", "del"), start=1):
        assert tree.update(e, op) is None
        for v in walk(tree.root):
            assert v.pending == before[id(v)] + bumps * (id(v) in on_path)


@pytest.mark.parametrize("symbol", [
    1j, object(), Decimal("NaN"), Decimal("sNaN"), Decimal(1), Fraction(1, 2),
    Picky(0), Unordered("a"), Code(1)],
    ids=["complex", "object", "decimal-nan", "decimal-snan", "decimal",
         "fraction", "picky", "str-subclass", "int-subclass"])
def test_symbols_that_cannot_sort_raise_before_any_state_changes(symbol):
    # a rebuild sorts each column's symbols: (1j,) then (2j,) once raised
    # TypeError from that sort, after the leaf edit
    tree = DecisionTree.empty(HALF, Schema.categorical(1))
    with pytest.raises(SchemaError,
                       match="feature 0 must be a str or integer"):
        tree.update(make_example((symbol,), 0), "ins")
    store = tree._store
    assert (tree.active_size, tree.stats.updates, tree.root.pending) == (0, 0, 0)
    assert store.symbol_types is None
    assert (store.row_of, store.examples, store.uncoded) == ({}, [], set())
    a, b = make_example(("a",), 1), make_example(("b",), 0)
    tree.update(a, "ins")
    tree.update(b, "ins")
    assert tree.leaf_union() == ActiveMultiset.from_examples([a, b])


@pytest.mark.parametrize("where", ["tree-ins", "tree-del", "multiset-insert"])
def test_bad_labels_fail_alike(where):
    # the tree and the multiset run one insert check, so label 2 raises
    # the same SchemaError from either, before any state changes
    a = make_example((1.0, "m"), 1)
    bad = LabeledExample(a.features, 2)
    tree = _tree([a, make_example((2.0, "n"), 0)])
    s = ActiveMultiset.from_examples([a])

    def both():
        return state(tree), dict(s.items()), list(s._store.examples)

    before = both()
    with pytest.raises(SchemaError, match="label must be 0 or 1"):
        if where == "multiset-insert":
            s.insert(bad)
        else:
            tree.update(bad, where[len("tree-"):])
    assert both() == before


def test_container_symbols_raise_before_any_state_changes():
    params = FeasibilityParams(epsilon=0.2, alpha=0.1, beta=0.5, k=1)
    a = make_example(("a",), 1)
    tree = DecisionTree.empty(params, Schema.categorical(1))
    tree.update(a, "ins")
    pendings = [(id(v), v.pending) for v in walk(tree.root)]
    # tuple symbols share a type but need not be orderable: ("a",) < (1,)
    # raised TypeError inside the rebuild, after the state had changed
    for features in ((("a",),), ((1,),)):
        with pytest.raises(SchemaError, match="feature 0 must be a str or "
                           "integer symbol, got .* of type"):
            tree.update(make_example(features, 0), "ins")
    assert tree.active_size == 1
    assert tree.stats.updates == 1
    assert [(id(v), v.pending) for v in walk(tree.root)] == pendings
    shadow = ActiveMultiset.from_examples([a])
    assert tree.leaf_union() == shadow
    assert check_counters(tree, shadow, params.epsilon).ok
    with pytest.raises(SchemaError):
        ActiveMultiset().insert(make_example((("a",),), 0))


def _preorder(store, node):
    """Every field a fresh build determines, node by node in preorder."""
    out = []
    for v in walk(node):
        row = [v.depth, v.size, v.pending, v.height]
        if v.is_leaf:
            row += [v.leaf_label, list(v.label_hist),
                    list(leaf_multiset(store, v).items())]
        else:
            row += [v.split, v.split_gain.hex()]
        out.append(row)
    return out


def _numeric_stream(n, seed):
    rng = random.Random(seed)
    out = []
    for _ in range(n):
        x = (float(rng.randrange(16)), float(rng.randrange(8)))
        label = int(x[0] + x[1] > 11) ^ (rng.random() < 0.1)
        out.append(make_example(x, label))
    return out


def _descending_symbols(stream):
    """stream with each column's symbols renamed so that they first appear
    in descending order, and every fourth example repeated."""
    names = {}
    out = []
    for i, e in enumerate(stream):
        features = list(e.features)
        for j, v in enumerate(features):
            if isinstance(v, str):
                col = names.setdefault(j, {})
                features[j] = col.setdefault(v, f"s{9 - len(col)}")
        out += [make_example(features, e.label)] * (2 if i % 4 == 0 else 1)
    return out


@pytest.mark.parametrize("kind", ["numeric", "mixed", "categorical",
                                  "descending"])
def test_rebuilds_equal_fresh_builds(kind):
    # A rebuild keeps old subtrees that no update reached; the subtree it
    # returns must still be exactly what a full rebuild would produce.
    # "descending" codes symbols in the tree's store in the reverse of
    # their order and counts repeated examples, which a fresh build of the
    # subtree's multiset does not share.
    if kind == "numeric":
        stream = _numeric_stream(500, seed=3)
        schema = Schema.numeric(2)
    elif kind == "descending":
        stream = _descending_symbols(
            mixed_stream(400, d_num=2, d_cat=2, seed=3, grid=8))
        schema = Schema.infer(stream[0].features)
    else:
        d_num, d_cat = (2, 2) if kind == "mixed" else (0, 3)
        stream = mixed_stream(500, d_num=d_num, d_cat=d_cat, seed=3, grid=8)
        schema = Schema.infer(stream[0].features)
    params = FeasibilityParams(epsilon=0.04, alpha=0.2, beta=0.5, k=2, h=8)
    rng = random.Random(11)
    window = list(stream[:150])
    tree = DecisionTree.from_multiset(
        ActiveMultiset.from_examples(window, schema), params
    )
    rebuilds = 0
    for e in stream[150:]:
        victim = window.pop(rng.randrange(len(window)))
        window.append(e)
        for ex, op in ((victim, "del"), (e, "ins")):
            info = tree.update(ex, op)
            if info is None:
                continue
            rebuilds += 1
            fresh, fresh_store = build(
                subtree_multiset(tree._store, info.node), info.depth, params)
            assert (_preorder(tree._store, info.node)
                    == _preorder(fresh_store, fresh))
    assert tree.leaf_union() == ActiveMultiset.from_examples(window, schema)
    assert rebuilds > 100
    # some subtrees were kept, so the comparison above is not vacuous
    assert tree.stats.reused_touches > 0


class _Faults:
    """Raises MemoryError at seeded random calls of the functions it wraps,
    while armed, and counts the faults it raised by site."""

    def __init__(self, seed: int, rate: float):
        self.rng = random.Random(seed)
        self.rate = rate
        self.armed = False
        self.raised = Counter()

    def maybe(self, site: str) -> None:
        if self.armed and self.rng.random() < self.rate:
            self.raised[site] += 1
            raise MemoryError(f"injected fault in {site}")

    def wrap(self, site: str, f, after: bool = False):
        def faulty(*args, **kwargs):
            if not after:
                self.maybe(site)
            out = f(*args, **kwargs)
            if after:
                self.maybe(site)
            return out
        return faulty


def _install_faults(faults: _Faults, monkeypatch) -> None:
    # every kernel of the node sweep, by its name in build's namespace
    for name in ("_sweep_list", "_sweep_numeric", "_sweep_binned",
                 "_scan_binned", "_sweep_categorical",
                 "_sweep_categorical_present", "_rank_codes"):
        monkeypatch.setattr(dyntree.build, name,
                            faults.wrap(name, getattr(dyntree.build, name)))
    store = dyntree.core._Store
    monkeypatch.setattr(store, "columns", faults.wrap("columns", store.columns))
    # _code fails once _add_symbols has committed the new ids
    monkeypatch.setattr(store, "_add_symbols",
                        faults.wrap("_code", store._add_symbols, after=True))
    node_sweep = dyntree.build._node_sweep

    def faulty_node_sweep(store, rows):
        sweep = node_sweep(store, rows)

        def faulty(idx, total, ones):
            if idx is not None:  # below the target: midway through a build
                faults.maybe("node sweep")
            return sweep(idx, total, ones)
        return faulty
    monkeypatch.setattr(dyntree.build, "_node_sweep", faulty_node_sweep)
    # the fold calls it, and so does every rebuild's gather
    monkeypatch.setattr(dyntree.dynamic, "_current_rows",
                        faults.wrap("_current_rows",
                                    dyntree.dynamic._current_rows))
    # small enough that a window of 40 runs all five real kernels, and both
    # categorical ones
    monkeypatch.setattr(dyntree.build, "LIST_CELLS", 8)
    monkeypatch.setattr(dyntree.build, "RANK_ROWS", 16)
    monkeypatch.setattr(dyntree.build, "RANK_GATE", 1)
    monkeypatch.setattr(dyntree.build, "SCAN_CODES", 12)


def _lockstep_state(tree):
    return (_preorder(tree._store, tree.root), dict(tree.leaf_union().items()),
            tree.active_size, dataclasses.astuple(tree.stats),
            tree._store.symbol_types)


def test_updates_that_fail_anywhere_leave_the_tree_as_it_was(monkeypatch):
    # Two trees take the same sliding window from empty; one of them meets
    # a MemoryError at random calls of the node sweep's kernels, of the
    # store's columns and coding, midway through a build, and in the fold
    # and the gather.  A failed update must leave that tree as it was, and
    # its retry, without faults, must bring it level with the other again.
    faults = _Faults(seed=3, rate=0.2)
    _install_faults(faults, monkeypatch)
    streams = [mixed_stream(300, d_num=2, d_cat=2, seed=1, grid=8),
               mixed_stream(300, d_num=0, d_cat=3, seed=2, alphabet=30)]
    failed = Counter()
    # (params, window, fault rate, part): eps 0.1 rebuilds at most
    # updates; at eps 1000 the one leaf never rebuilds past the first
    # insert and folds its listings every 2 * 9 + 32 new rows or so, so its
    # faults are denser.  Each part of a stream starts from empty trees, so
    # the first insert pins the symbol types again.
    for params, size, faults.rate, part in (
            (FeasibilityParams(epsilon=0.1, alpha=0.2, beta=0.4, k=2), 40,
             0.2, 100),
            (FeasibilityParams(epsilon=1000.0, k=1), 8, 0.5, 300)):
        for stream in (st[i:i + part] for st in streams
                       for i in range(0, len(st), part)):
            schema = Schema.infer(stream[0].features)
            a, b = (DecisionTree.empty(params, schema) for _ in range(2))
            now = _lockstep_state(a)
            window = deque()
            for e in stream:
                steps = [(e, "ins")]
                if len(window) == size:
                    steps.insert(0, (window.popleft(), "del"))
                window.append(e)
                for ex, op in steps:
                    faults.armed = True
                    try:
                        info = b.update(ex, op)
                    except MemoryError:
                        faults.armed = False
                        assert _lockstep_state(b) == now
                        # the first insert pins the symbol types
                        failed["pin"] += b._store.symbol_types is None
                        info = b.update(ex, op)
                        # an update that does not rebuild fails in its fold
                        failed["fold"] += info is None
                    finally:
                        faults.armed = False
                    ref = a.update(ex, op)
                    assert (info and info.gathered) == (ref and ref.gathered)
                    now = _lockstep_state(a)
                    assert _lockstep_state(b) == now
    # every site failed some update, folds and first pins among them
    assert set(faults.raised) == {
        "_sweep_list", "_sweep_numeric", "_sweep_binned", "_scan_binned",
        "_sweep_categorical", "_sweep_categorical_present", "_rank_codes",
        "columns", "_code",
        "node sweep", "_current_rows"}
    assert failed["fold"] and failed["pin"]


def test_lab_requests_do_not_touch_counters():
    exs = [make_example((float(i),), i % 2) for i in range(8)]
    tree = DecisionTree.from_multiset(ActiveMultiset.from_examples(exs), HALF)
    before = [(id(v), v.pending) for v in walk(tree.root)]
    for _ in range(20):
        tree.query((3.0,))
    assert [(id(v), v.pending) for v in walk(tree.root)] == before


def test_run_sequence_answers_lab_queries():
    # a stream of inserts, then lab requests answered by query
    tree = DecisionTree.empty(HALF, Schema.numeric(1))
    e0 = make_example((0.0,), 0)
    e1 = make_example((5.0,), 1)
    for e in (e0, e0, e1, e1, e1):
        tree.update(e, "ins")
    assert [tree.query((0.0,)), tree.query((5.0,))] == [0, 1]


def test_a_reused_row_is_gathered_once():
    # The store reuses a freed row at once, so a row can be freed in leaf
    # L, reused by an example that routes to leaf B, freed again and
    # reused back in L, while L still lists it from before.  Only the last
    # listing may count, in the leaf union and in the next rebuild.
    params = FeasibilityParams(epsilon=10.0, alpha=0.2, beta=0.2, k=1, h=8)
    warm = [make_example((x,), int(x > 3.0)) for x in (0.0, 1.0, 5.0, 6.0)]
    tree = DecisionTree.from_multiset(ActiveMultiset.from_examples(warm),
                                      params)
    store = tree._store
    left, right = tree.root.left, tree.root.right
    assert tree.root.split.threshold == 1.0 and len(left.leaf_rows) == 2
    shadow = ActiveMultiset.from_examples(warm)

    def apply(e, op):
        assert tree.update(e, op) is None
        (shadow.insert if op == "ins" else shadow.delete)(e)

    reused = store.row_of[warm[0]]
    in_b = make_example((7.0,), 1)
    apply(warm[0], "del")
    apply(in_b, "ins")  # L's builder row, reused in B
    apply(in_b, "del")
    apply(make_example((0.5,), 0), "ins")  # and back in L
    fresh = make_example((0.25,), 0)
    apply(fresh, "ins")  # a row L lists in its new list ...
    row = store.row_of[fresh]
    apply(fresh, "del")
    apply(make_example((8.0,), 1), "ins")  # ... reused in B
    apply(make_example((8.0,), 1), "del")
    apply(make_example((0.75,), 0), "ins")  # and back in L's new list
    assert left.leaf_rows.tolist().count(reused) == 1
    assert left.leaf_new[::2] == [reused, row, row]
    assert right.leaf_new[::2] == [reused, row]
    assert tree.leaf_union() == shadow

    rows, hist = tree._gather(left)
    assert sorted(rows.tolist()) == sorted(
        r for e, r in store.row_of.items() if e.features[0] <= 1.0)
    assert hist == [3, 0]
    while True:  # churn L until it rebuilds alone
        info = tree.update(warm[1], "del")
        assert info is None
        info = tree.update(warm[1], "ins")
        if info is not None:
            break
    assert info.node is tree.root.left and info.gathered == 3
    assert sorted(info.node.leaf_rows.tolist()) == sorted(rows.tolist())
    assert tree.leaf_union() == shadow


def test_leaf_union_tracks_random_churn():
    rng = random.Random(17)
    schema = Schema.numeric(2)
    tree = DecisionTree.empty(HALF, schema)
    shadow = ActiveMultiset(schema)
    for _ in range(300):
        e = make_example(
            (float(rng.randrange(10)), float(rng.randrange(10))), rng.randrange(2)
        )
        if rng.random() < 0.6 or len(shadow) == 0:
            tree.update(e, "ins")
            shadow.insert(e)
        else:
            victim = rng.choice([e for e, c in shadow.items()
                                 for _ in range(c)])
            tree.update(victim, "del")
            shadow.delete(victim)
        assert tree.active_size == len(shadow)
    assert tree.leaf_union() == shadow


def test_pending_monotone_along_paths_at_rest():
    rng = random.Random(23)
    tree = DecisionTree.empty(HALF, Schema.numeric(1))
    for _ in range(200):
        tree.update(make_example((float(rng.randrange(12)),), rng.randrange(2)),
                    "ins")
        stack = [(tree.root, 0)]
        while stack:
            v, limit = stack.pop()
            if v is not tree.root:
                assert v.pending <= limit
            if not v.is_leaf:
                stack.append((v.left, v.pending))
                stack.append((v.right, v.pending))


def test_rebuild_depth_uses_true_node_depth():
    rng = random.Random(5)
    params = FeasibilityParams(epsilon=0.25, alpha=0.05, beta=0.1, k=1, h=6)
    tree = DecisionTree.empty(params, Schema.numeric(1))
    deep_rebuilds = []
    for _ in range(400):
        info = tree.update(
            make_example((float(rng.randrange(32)),), rng.randrange(2)), "ins"
        )
        if info is not None and info.depth > 0:
            deep_rebuilds.append(info)
            assert info.node.depth == info.depth
    assert deep_rebuilds, "expected at least one non-root rebuild"


def test_from_multiset_requires_schema():
    with pytest.raises(ValueError):
        DecisionTree.from_multiset(ActiveMultiset(), HALF)


def test_unbounded_depth_chain_builds_and_updates():
    # alternating labels on one feature with h=None: the exact tree is a
    # chain thousands of nodes deep, deeper than Python's recursion limit
    exs = [make_example((float(i),), i % 2) for i in range(3000)]
    params = FeasibilityParams(epsilon=0.2, alpha=0.0, beta=0.0, k=1, h=None)
    tree = DecisionTree.from_multiset(ActiveMultiset.from_examples(exs), params)
    assert tree.height > 1000
    tree.update(make_example((1500.5,), 1), "ins")
    tree.update(exs[0], "del")
    assert tree.active_size == 3000
    assert tree.leaf_union() == ActiveMultiset.from_examples(
        exs[1:] + [make_example((1500.5,), 1)])


def _chain():
    # alternating labels on one feature with h=None: a chain of height 2999
    exs = [make_example((float(i),), i % 2) for i in range(3000)]
    params = FeasibilityParams(epsilon=0.5, alpha=0.0, beta=0.0, k=1, h=None)
    return exs, _tree(exs, params)


@pytest.mark.parametrize("clone", [copy.deepcopy,
                                   lambda x: pickle.loads(pickle.dumps(x))],
                         ids=["deepcopy", "pickle"])
def test_a_tree_of_any_height_copies_and_pickles(clone):
    # both walked the nested nodes recursively and raised RecursionError;
    # a restored tree must then continue exactly as the original
    exs, tree = _chain()
    assert tree.height == 2999
    c = clone(tree)
    assert check_counters(c, c.leaf_union(), c.params.epsilon).ok
    rng = random.Random(11)
    ops = [(make_example((rng.uniform(0.0, 3000.0),), rng.randrange(2)), "ins")
           for _ in range(20)]
    ops += [(e, "del") for e in rng.sample(exs, 20)]
    for t in (tree, c):
        for e, op in ops:
            t.update(e, op)
    assert c.stats == tree.stats and c.stats.rebuild_count > 0
    assert _preorder(c._store, c.root) == _preorder(tree._store, tree.root)
    assert check_counters(c, c.leaf_union(), c.params.epsilon).ok


def test_tree_nodes_compare_and_hash_by_identity():
    # nodes compared the leaf_rows arrays field by field, which raised
    # "truth value of an array ... is ambiguous" for leaves of two rows or
    # more, and did not hash
    a, b = (dataclasses.replace(_tree(
        [make_example((1.0,), 0), make_example((2.0,), 0)]).root)
            for _ in range(2))
    assert a.is_leaf and len(a.leaf_rows) == 2
    assert a == a and a != b and not (a == b)
    tree = _tree([make_example((float(i),), i % 2) for i in range(6)])
    twin = copy.deepcopy(tree).root
    assert tree.root != twin and tree.root == tree.root
    assert hash(tree.root) == hash(tree.root) != hash(twin)
    assert len({tree.root, twin, tree.root.left}) == 3


def test_node_repr_shows_one_node():
    # repr showed the whole subtree with its leaf arrays, and raised
    # RecursionError on a deep chain
    _, tree = _chain()
    text = repr(tree.root)
    assert text == ("TreeNode(depth=0, size=3000, pending=0, height=2999, "
                    "split=Split(feature=0, threshold=0.0, "
                    "categorical=False))")
    tree = _tree([make_example((float(i),), int(i >= 3)) for i in range(6)])
    info = tree.update(make_example((9.0,), 0), "ins")
    while info is None:
        info = tree.update(make_example((9.0,), 0), "ins")
    text = repr(info)
    assert not info.node.is_leaf
    assert text.count("TreeNode(") == 1 and "array" not in text
    leaf = info.node.left
    assert repr(leaf) == (
        f"TreeNode(depth={leaf.depth}, size={leaf.size}, pending=0, "
        f"height=0, leaf_label={leaf.leaf_label}, "
        f"label_hist={leaf.label_hist}, rows={len(leaf.leaf_rows)})")
