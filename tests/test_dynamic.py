"""Update mechanics: routing, counters, proactive rebuilds, query streams."""

import random

import pytest

from dyntree import (
    ActiveMultiset,
    ExampleNotFound,
    DecisionTree,
    FeasibilityParams,
    Schema,
    SchemaError,
    Split,
    TreeNode,
    build,
    check_counters,
    make_example,
    mixed_stream,
)
from dyntree.dynamic import _shat

HALF = FeasibilityParams(epsilon=0.5, alpha=0.2, beta=0.2, k=1, h=8)


def leaf_node(examples, depth, size=None):
    s = ActiveMultiset.from_examples(examples)
    n0, n1 = s.label_counts()
    return TreeNode(
        depth=depth,
        size=len(s) if size is None else size,
        leaf_label=1 if n1 > n0 else 0,
        leaf_examples=s,
        label_hist=[n0, n1],
        height=0,
    )


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
    left = leaf_node([make_example((-1.0,), 0)], depth=1)
    right = leaf_node([make_example((1.0,), 1)], depth=1)
    root = TreeNode(depth=0, size=2, split=Split(0, 0.0),
                    left=left, right=right, height=1)
    tree = DecisionTree(root, HALF, Schema.numeric(1))
    assert tree.query((-1.0,)) == 0
    assert tree.query((0.0,)) == 0
    assert tree.query((0.5,)) == 1


def test_query_schema_mismatch():
    tree = DecisionTree.empty(HALF, Schema.numeric(2))
    with pytest.raises(SchemaError):
        tree.query((1.0,))


def test_counter_under_budget_no_rebuild():
    # size 4 at epsilon 1/2: pending may reach 2, strictly above it rebuilds
    exs = [make_example((float(i),), 1) for i in range(4)]
    root = leaf_node(exs, depth=0)
    root.pending = 1
    tree = DecisionTree(root, HALF, Schema.numeric(1))
    info = tree.update(make_example((9.0,), 1), "ins")
    assert info is None
    assert tree.root is root
    assert root.pending == 2


def test_counter_over_budget_rebuilds_root():
    exs = [make_example((float(i),), 1) for i in range(4)]
    root = leaf_node(exs, depth=0)
    root.pending = 2
    tree = DecisionTree(root, HALF, Schema.numeric(1))
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
    leaf_a = leaf_node([make_example((1.0, 1.0), i % 2) for i in range(5)], depth=2)
    leaf_b = leaf_node([make_example((1.0, 4.0), 1) for _ in range(2)], depth=2)
    leaf_c = leaf_node([make_example((6.0, 0.0), i % 2) for i in range(13)], depth=1)
    mid = TreeNode(depth=1, size=7, split=Split(1, 3.0),
                   left=leaf_a, right=leaf_b, height=1)
    root = TreeNode(depth=0, size=20, split=Split(0, 5.0),
                    left=mid, right=leaf_c, height=2)
    leaf_a.pending = 2
    mid.pending = 2
    tree = DecisionTree(root, HALF, Schema.numeric(2))

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
        (id(v), v.pending) for v in _walk(tree.root)
    ]
    with pytest.raises(ExampleNotFound):
        tree.update(make_example((0.0,), 1), "del")
    assert tree.active_size == before_active
    assert tree.stats.updates == before_updates
    assert [(id(v), v.pending) for v in _walk(tree.root)] == pendings
    assert tree.leaf_union() == ActiveMultiset.from_examples(exs)


def _walk(node):
    stack = [node]
    while stack:
        v = stack.pop()
        yield v
        if not v.is_leaf:
            stack.append(v.right)
            stack.append(v.left)


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


def test_update_validates_each_example_once(monkeypatch):
    tree = DecisionTree.empty(HALF, Schema.numeric(1))
    calls = []
    original = Schema.validate

    def counting(schema, features):
        calls.append(features)
        return original(schema, features)

    monkeypatch.setattr(Schema, "validate", counting)
    tree.update(make_example((1.0,), 1), "ins")
    assert len(calls) == 1


def test_query_and_insert_validate_each_example_once(monkeypatch):
    s = ActiveMultiset.from_examples([make_example((1.0, "a"), 1)])
    tree = DecisionTree.from_multiset(s, HALF)
    calls = []
    original = Schema.validate

    def counting(schema, features):
        calls.append(features)
        return original(schema, features)

    monkeypatch.setattr(Schema, "validate", counting)
    tree.query((2.0, "b"))
    assert calls == [(2.0, "b")]
    s.insert(make_example((3.0, "c"), 0))
    assert calls == [(2.0, "b"), (3.0, "c")]


def test_nan_update_raises_before_any_state_changes():
    exs = [make_example((float(i), 1.0), i % 2) for i in range(6)]
    tree = DecisionTree.from_multiset(ActiveMultiset.from_examples(exs), HALF)
    pendings = [(id(v), v.pending) for v in _walk(tree.root)]
    with pytest.raises(SchemaError):
        tree.update(make_example((float("nan"), 1.0), 1), "ins")
    assert tree.active_size == 6
    assert tree.stats.updates == 0
    assert [(id(v), v.pending) for v in _walk(tree.root)] == pendings
    assert tree.leaf_union() == ActiveMultiset.from_examples(exs)


def test_mixed_symbol_types_raise_before_any_state_changes():
    params = FeasibilityParams(epsilon=0.2, alpha=0.1, beta=0.5, k=1)
    a, one = make_example(("a",), 1), make_example((1,), 0)
    tree = DecisionTree.empty(params, Schema.categorical(1))
    tree.update(a, "ins")
    pendings = [(id(v), v.pending) for v in _walk(tree.root)]
    with pytest.raises(SchemaError, match="feature 0 holds str symbols"):
        tree.update(one, "ins")
    assert tree.active_size == 1
    assert tree.stats.updates == 1
    assert [(id(v), v.pending) for v in _walk(tree.root)] == pendings
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


def test_container_symbols_raise_before_any_state_changes():
    params = FeasibilityParams(epsilon=0.2, alpha=0.1, beta=0.5, k=1)
    a = make_example(("a",), 1)
    tree = DecisionTree.empty(params, Schema.categorical(1))
    tree.update(a, "ins")
    pendings = [(id(v), v.pending) for v in _walk(tree.root)]
    # tuple symbols share a type but need not be orderable: ("a",) < (1,)
    # raised TypeError inside the rebuild, after the state had changed
    for features in ((("a",),), ((1,),)):
        with pytest.raises(SchemaError, match="feature 0 must be a scalar"):
            tree.update(make_example(features, 0), "ins")
    assert tree.active_size == 1
    assert tree.stats.updates == 1
    assert [(id(v), v.pending) for v in _walk(tree.root)] == pendings
    shadow = ActiveMultiset.from_examples([a])
    assert tree.leaf_union() == shadow
    assert check_counters(tree, shadow, params.epsilon).ok
    with pytest.raises(SchemaError):
        ActiveMultiset().insert(make_example((("a",),), 0))


def _preorder(node):
    """Every field a fresh build determines, node by node in preorder."""
    out = []
    for v in _walk(node):
        row = [v.depth, v.size, v.pending, v.height]
        if v.is_leaf:
            row += [v.leaf_label, list(v.label_hist),
                    v.leaf_examples.items_list()]
        else:
            row += [v.split, v.split_gain.hex()]
        out.append(row)
    return out


def _subtree_multiset(node, schema):
    s = ActiveMultiset(schema)
    for v in _walk(node):
        if v.is_leaf:
            for e, c in v.leaf_examples.items():
                for _ in range(c):
                    s.insert(e)
    return s


def _numeric_stream(n, seed):
    rng = random.Random(seed)
    out = []
    for _ in range(n):
        x = (float(rng.randrange(16)), float(rng.randrange(8)))
        label = int(x[0] + x[1] > 11) ^ (rng.random() < 0.1)
        out.append(make_example(x, label))
    return out


@pytest.mark.parametrize("kind", ["numeric", "mixed", "categorical"])
def test_rebuilds_equal_fresh_builds(kind):
    # A rebuild keeps old subtrees that no update reached; the subtree it
    # returns must still be exactly what a full rebuild would produce.
    if kind == "numeric":
        stream = _numeric_stream(500, seed=3)
        schema = Schema.numeric(2)
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
            fresh = build(_subtree_multiset(info.node, schema), info.depth,
                          params)
            assert _preorder(info.node) == _preorder(fresh)
    assert tree.leaf_union() == ActiveMultiset.from_examples(window, schema)
    assert rebuilds > 100
    # some subtrees were kept, so the comparison above is not vacuous
    assert tree.stats.reused_touches > 0


def test_lab_requests_do_not_touch_counters():
    exs = [make_example((float(i),), i % 2) for i in range(8)]
    tree = DecisionTree.from_multiset(ActiveMultiset.from_examples(exs), HALF)
    before = [(id(v), v.pending) for v in _walk(tree.root)]
    for _ in range(20):
        tree.query((3.0,))
    assert [(id(v), v.pending) for v in _walk(tree.root)] == before


def test_run_sequence_answers_lab_queries():
    # a stream of inserts, then lab requests answered by query
    tree = DecisionTree.empty(HALF, Schema.numeric(1))
    e0 = make_example((0.0,), 0)
    e1 = make_example((5.0,), 1)
    for e in (e0, e0, e1, e1, e1):
        tree.update(e, "ins")
    assert [tree.query((0.0,)), tree.query((5.0,))] == [0, 1]


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
            victim = rng.choice(list(shadow.expanded()))
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
