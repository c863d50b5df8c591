"""Brute-force verifiers: feasibility, counters, rational gains, fixtures."""

import ast
import copy
import random
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
    TreeNode,
    best_split,
    check_counters,
    check_feasibility,
    make_example,
)
from dyntree import oracle
from dyntree.build import build
from dyntree.gini import gini_gain
from dyntree.oracle import (
    audit_smoothness,
    exact_feature_gains,
    exact_gain,
    exact_gini,
    exhaustive_split_search,
    generate_index_instance,
)

PARAMS = FeasibilityParams(epsilon=0.2, alpha=0.3, beta=0.2, k=2, h=8)


def random_multiset(rng, n, d_num, d_cat, grid=6, alphabet=3):
    kinds = [FeatureKind.REAL] * d_num + [FeatureKind.CATEGORICAL] * d_cat
    s = ActiveMultiset(Schema(tuple(kinds)))
    for _ in range(n):
        feats = tuple(
            float(rng.randrange(grid)) if k is FeatureKind.REAL
            else "abcdef"[rng.randrange(alphabet)]
            for k in kinds
        )
        s.insert(make_example(feats, rng.randrange(2)))
    return s


def test_fresh_builds_are_feasible_and_counters_clean():
    rng = random.Random(0)
    for trial in range(25):
        d_num = rng.randint(0, 3)
        d_cat = rng.randint(0, 2) if d_num else rng.randint(1, 2)
        s = random_multiset(rng, rng.randint(1, 120), d_num, d_cat)
        root, _ = build(s, 0, PARAMS)
        report = check_feasibility(root, s, PARAMS)
        assert report.ok, f"trial {trial}: {report}"
        counters = check_counters(root, s, PARAMS.epsilon)
        assert counters.ok, f"trial {trial}: {counters.detail}"


def two_cluster_multiset():
    exs = (
        [make_example((0.0,), 0)] * 3
        + [make_example((1.0,), 1)] * 3
    )
    return ActiveMultiset.from_examples(exs)


def test_flipped_leaf_label_fails_condition_3():
    params = FeasibilityParams(epsilon=0.2, alpha=0.3, beta=0.2, k=3, h=8)
    s = two_cluster_multiset()
    root, _ = build(s, 0, params)
    assert not root.is_leaf
    root.left.leaf_label = 1 - root.left.leaf_label
    report = check_feasibility(root, s, params)
    assert not report.ok
    assert report.violation.condition == 3


def test_internal_node_over_tiny_set_fails_condition_1():
    exs = [make_example((0.0,), 0), make_example((1.0,), 1)]
    s = ActiveMultiset.from_examples(exs)
    left = TreeNode(depth=1, size=1, leaf_label=0,
                    label_hist=[1, 0], height=0)
    right = TreeNode(depth=1, size=1, leaf_label=1,
                     label_hist=[0, 1], height=0)
    root = TreeNode(depth=0, size=2, split=Split(0, 0.0),
                    left=left, right=right, height=1)
    report = check_feasibility(root, s, PARAMS)  # k=2 forces a leaf here
    assert not report.ok
    assert report.violation.condition == 1
    assert "must be a leaf" in report.violation.detail


def test_impure_separable_leaf_fails_condition_1():
    params = FeasibilityParams(epsilon=0.2, alpha=0.1, beta=0.2, k=1, h=8)
    s = two_cluster_multiset()
    root = TreeNode(depth=0, size=6, leaf_label=0,
                    label_hist=[3, 3], height=0)
    report = check_feasibility(root, s, params)
    assert not report.ok
    assert report.violation.condition == 1
    assert "must be internal" in report.violation.detail


def test_inseparable_impure_leaf_is_exempt():
    # every example shares one feature vector, so no split makes progress
    # and a leaf is the only possible shape despite the high gini
    params = FeasibilityParams(epsilon=0.2, alpha=0.1, beta=0.2, k=1, h=8)
    exs = [make_example((4.0,), i % 2) for i in range(6)]
    s = ActiveMultiset.from_examples(exs)
    root, _ = build(s, 0, params)
    assert root.is_leaf
    assert check_feasibility(root, s, params).ok


def suboptimal_split_fixture():
    # feature 0 separates perfectly (gain 1/2), feature 1 is constant
    exs = (
        [make_example((0.0, 0.0), 0)] * 2
        + [make_example((1.0, 0.0), 1)] * 2
    )
    s = ActiveMultiset.from_examples(exs)
    left = TreeNode(depth=1, size=4, leaf_label=0,
                    label_hist=[2, 2], height=0)
    right = TreeNode(depth=1, size=0, leaf_label=0,
                     label_hist=[0, 0], height=0)
    root = TreeNode(depth=0, size=4, split=Split(1, 0.0),
                    left=left, right=right, height=1)
    return s, root


def test_gain_gap_beyond_beta_fails_condition_2():
    s, root = suboptimal_split_fixture()
    params = FeasibilityParams(epsilon=0.2, alpha=0.6, beta=0.2, k=1, h=8)
    report = check_feasibility(root, s, params)
    assert not report.ok
    assert report.violation.condition == 2


def test_gain_gap_within_beta_passes():
    s, root = suboptimal_split_fixture()
    params = FeasibilityParams(epsilon=0.2, alpha=0.6, beta=0.6, k=1, h=8)
    assert check_feasibility(root, s, params).ok


def test_counters_flag_pending_over_budget():
    s = two_cluster_multiset()
    root, _ = build(s, 0, PARAMS)
    root.pending = 10
    report = check_counters(root, s, PARAMS.epsilon)
    assert not report.ok
    assert "pending" in report.detail


def test_counters_flag_child_above_parent():
    exs = (
        [make_example((0.0,), 0)] * 4
        + [make_example((1.0,), 1)] * 4
    )
    s = ActiveMultiset.from_examples(exs)
    params = FeasibilityParams(epsilon=0.5, alpha=0.3, beta=0.2, k=2, h=8)
    root, _ = build(s, 0, params)
    assert not root.is_leaf
    root.left.pending = 1  # within its own budget, above the parent's 0
    report = check_counters(root, s, params.epsilon)
    assert not report.ok
    assert "parent" in report.detail


def test_counters_flag_size_drift():
    s = two_cluster_multiset()
    root, _ = build(s, 0, PARAMS)
    root.size = 100
    report = check_counters(root, s, PARAMS.epsilon)
    assert not report.ok
    assert "outside" in report.detail


def test_counters_pass_on_live_tree():
    rng = random.Random(3)
    params = FeasibilityParams(epsilon=0.5, alpha=0.2, beta=0.3, k=2, h=8)
    tree = DecisionTree.empty(params, Schema.numeric(2))
    for _ in range(250):
        e = make_example(
            (float(rng.randrange(8)), float(rng.randrange(8))), rng.randrange(2)
        )
        tree.update(e, "ins")
        report = check_counters(tree, tree.leaf_union(), params.epsilon)
        assert report.ok, report.detail


MIXED_KINDS = (FeatureKind.REAL,) * 2 + (FeatureKind.CATEGORICAL,) * 3


def mixed_multiset(rng):
    # real columns with ties and -0.0 next to 0.0, str, int and bool symbol
    # columns, and examples held up to three times
    s = ActiveMultiset(Schema(MIXED_KINDS))
    for _ in range(rng.randint(1, 60)):
        e = make_example((
            rng.choice((-0.0, 0.0, 0.5, -1.5, 2.0)),
            rng.randrange(-3, 4) / 2,
            rng.choice("abc"),
            rng.randrange(4),
            rng.random() < 0.5,
        ), rng.randrange(2))
        for _ in range(rng.randint(1, 3)):
            s.insert(e)
    return s


def test_blocked_enumeration_matches_rational_gains(monkeypatch):
    blocks = 0
    goes_left = oracle._goes_left

    def spy(*args):
        nonlocal blocks
        blocks += 1
        return goes_left(*args)

    monkeypatch.setattr(oracle, "_BLOCK_CELLS", 4)
    monkeypatch.setattr(oracle, "_goes_left", spy)
    rng = random.Random(25)
    trials = 40
    for trial in range(trials):
        s = mixed_multiset(rng)
        _, _, per_feature = exhaustive_split_search(s)
        for j, (_, gain) in enumerate(per_feature):
            cat = MIXED_KINDS[j] is FeatureKind.CATEGORICAL
            exact = max(exact_gain(s, Split(j, t, categorical=cat))
                        for t in {e.features[j] for e in s})
            assert abs(gain - float(exact)) <= 1e-12, (trial, j)
    # one count of sides per feature and trial, so its candidates spanned
    # several blocks
    assert blocks > trials * len(MIXED_KINDS)


def broken_copies(root, s, rng):
    # the tree itself, one with a leaf's label flipped and one whose root
    # splits at a poor threshold: the least value of a real feature
    yield root
    flipped = copy.deepcopy(root)
    leaf = flipped
    while not leaf.is_leaf:
        leaf = leaf.left if rng.random() < 0.5 else leaf.right
    leaf.leaf_label = 1 - leaf.leaf_label
    yield flipped
    if not root.is_leaf:
        poor = copy.deepcopy(root)
        poor.split = Split(0, min(e.features[0] for e in s))
        yield poor


def test_block_cap_leaves_every_report_unchanged(monkeypatch):
    params = FeasibilityParams(epsilon=0.3, alpha=0.2, beta=0.05, k=1, h=6)
    rng = random.Random(7)
    failures = 0
    for _ in range(30):
        s = mixed_multiset(rng)
        root, _ = build(s, 0, params)
        for tree in broken_copies(root, s, rng):
            reports = []
            for cap in (3, oracle._BLOCK_CELLS):
                monkeypatch.setattr(oracle, "_BLOCK_CELLS", cap)
                reports.append((check_feasibility(tree, s, params),
                                check_counters(tree, s, params.epsilon)))
            monkeypatch.undo()
            assert reports[0] == reports[1]
            failures += not reports[0][0].ok
    assert failures >= 10  # broken trees do fail


def test_oracle_stays_independent_and_brute_force():
    # the oracle checks the engine, so it must not run the engine's builder
    # or tree, nor a sort sweep: no running sums, no sorted search
    tree = ast.parse(Path(oracle.__file__).read_text())
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            base = "dyntree." * (node.level > 0) + (node.module or "")
            imported.add(base)
            imported.update(f"{base.rstrip('.')}.{a.name}" for a in node.names)
    assert not imported & {"dyntree.build", "dyntree.dynamic"}, imported
    names = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    names |= {node.attr for node in ast.walk(tree)
              if isinstance(node, ast.Attribute)}
    assert not names & {"cumsum", "argsort", "searchsorted"}


def test_exact_gini_and_gain_values():
    s = two_cluster_multiset()
    assert exact_gini(s) == Fraction(1, 2)
    assert exact_gain(s, Split(0, 0.0)) == Fraction(1, 2)
    assert exact_gain(s, Split(0, 1.0)) == Fraction(0)  # right side empty
    assert exact_gini(ActiveMultiset()) == Fraction(0)

    exs = [make_example((float(i),), int(i in (1, 2))) for i in range(4)]
    s2 = ActiveMultiset.from_examples(exs)
    for t in (0.0, 1.0, 2.0):
        exact = exact_gain(s2, Split(0, t))
        assert abs(float(exact) - gini_gain(s2, Split(0, t))) < 1e-12


def test_exact_feature_gains_agree_with_float_search():
    rng = random.Random(11)
    for _ in range(20):
        s = random_multiset(rng, rng.randint(2, 40), 2, 1)
        gains = exact_feature_gains(s)
        result = best_split(s)
        assert abs(float(max(gains)) - result.best_gain) < 1e-12
        _, oracle_gain, _ = exhaustive_split_search(s)
        assert abs(float(max(gains)) - oracle_gain) < 1e-12


def test_index_instance_shapes_and_balance():
    N, D, k = 3, 4, 2
    A = [[1, 0, 1, 0], [0, 1, 1, 0], [1, 1, 0, 1]]
    full, reduced = generate_index_instance(N, D, k, A, kappa=2, ell=3)
    assert len(full) == 2 * k * (N + D)
    assert len(reduced) == 4 * k
    n0, n1 = full.label_counts()
    assert n0 == n1 == k * (N + D)
    # suffix bits name the group, so examples of distinct groups differ
    arity = full.schema.arity
    assert arity > D
    assert exact_gini(reduced) == Fraction(1, 2)


def test_index_instance_reduced_gains():
    N, D, k = 3, 3, 2
    A = [[0, 1, 1], [1, 0, 1], [0, 0, 1]]
    for kappa in (1, 3):
        for ell in (1, 2):
            _, reduced = generate_index_instance(N, D, k, A, kappa, ell)
            gains = exact_feature_gains(reduced)
            assert gains[ell - 1] == Fraction(1, 6)
            for j in range(D):
                if j != ell - 1:
                    assert gains[j] == Fraction(1, 8)
            for j in range(D, reduced.schema.arity):
                assert gains[j] == Fraction(0)


def test_index_instance_validation():
    A = [[1, 0], [0, 1]]
    with pytest.raises(ValueError):
        generate_index_instance(2, 2, 3, A, 1, 1)  # odd k
    with pytest.raises(ValueError):
        generate_index_instance(2, 2, 0, A, 1, 1)
    with pytest.raises(ValueError):
        generate_index_instance(2, 2, 2, A, 0, 1)
    with pytest.raises(ValueError):
        generate_index_instance(2, 2, 2, A, 1, 3)
    with pytest.raises(ValueError):
        generate_index_instance(2, 2, 2, [[1, 0]], 1, 1)


def test_smoothness_audit_clean_on_small_run():
    report = audit_smoothness(trials=60, seed=1)
    assert report.ok
    assert report.checks > 60
    assert report.worst_ratio <= 1.0
