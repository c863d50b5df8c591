"""A state machine that drives update and query against a Counter shadow.

The rules reach the row store's edge cases: rows freed, still listed,
then recycled by a rebuild and reused, examples counted more than once, symbols that sort before every held
one, which rank a column again, a stream of new symbols, whose ids the
store drops once no row holds them, inserts of the very tuple a query
just accepted, which skip Schema.validate, and a swap of the tree for a
pickled clone, which the later rules then update.  A rejected update
(NaN, a real int that a float64 cannot hold exactly, a wrong arity, a
symbol of another type than its column holds, a symbol of a type that is
not a symbol type, unhashable features, label 2, a label equal to 0 or 1
that is not an integer, an unknown op, a delete of an absent example or
of a value of a rejected type that equals a held one) must raise what it
raised before deletes of held examples skipped validation, and change no
state.
"""

import pickle
import random
from collections import Counter
from decimal import Decimal
from fractions import Fraction

import pytest
from hypothesis import HealthCheck, settings, strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    initialize,
    invariant,
    precondition,
    rule,
)

from dyntree import (
    ActiveMultiset,
    DecisionTree,
    ExampleNotFound,
    FeasibilityParams,
    LabeledExample,
    Schema,
    SchemaError,
    check_counters,
    check_feasibility,
    make_example,
)
from shared import (Code, Unordered, current_rows, freed_listed,
                    listing_problems, row_bound, state, walk)

SCHEMA = Schema.infer((0.0, "m"))
GUARANTEED = FeasibilityParams(epsilon=0.05, alpha=0.5, beta=1.0, k=1, h=6)
LAZY = FeasibilityParams(epsilon=0.5, alpha=0.2, beta=0.4, k=2, h=4)
assert GUARANTEED.guaranteed and not LAZY.guaranteed

reals = st.sampled_from([0.0, 1.0, 2.0, 3.0])
symbols = st.sampled_from(["m", "n", "o"])
examples = st.builds(lambda x, s, y: make_example((x, s), y), reals, symbols,
                     st.integers(0, 1))


# makers of a value outside the symbol types from a fresh str symbol; the
# value equals no held symbol, as the fresh one does not, so the two route
# alike
rejected_symbols = st.sampled_from([
    lambda s: Decimal(1), lambda s: Fraction(1, 2), lambda s: None,
    lambda s: 1.5, lambda s: Code(1), Unordered])


class TreeMachine(RuleBasedStateMachine):
    @initialize(params=st.sampled_from([GUARANTEED, LAZY]),
                warm=st.lists(examples, max_size=10))
    def start(self, params, warm):
        self.params = params
        self.shadow = Counter(warm)
        self.tree = DecisionTree.from_multiset(
            ActiveMultiset.from_examples(warm, SCHEMA), params)
        self.deleted = None  # the last example whose last count was deleted
        # the row ids the store may have made (see row_bound)
        self.max_rows = len(self.shadow)
        # symbols made by insert_new_symbol and insert_rejected_symbol
        self.fresh = 0
        self.rejected_at = []  # per insert_rejected_symbol, at a trigger

    def _apply(self, e, op):
        self.max_rows = max(self.max_rows, row_bound(self.tree))
        info = self.tree.update(e, op)
        if op == "ins":
            self.shadow[e] += 1
        else:
            self.shadow[e] -= 1
            if not self.shadow[e]:
                del self.shadow[e]
                self.deleted = e
        return info

    @rule(e=examples)
    def insert(self, e):
        self._apply(e, "ins")

    @precondition(lambda self: self.shadow)
    @rule(i=st.integers(0, 10**6))
    def delete(self, i):
        held = sorted(self.shadow)
        self._apply(held[i % len(held)], "del")

    @precondition(lambda self: self.shadow)
    @rule(i=st.integers(0, 10**6))
    def insert_duplicate(self, i):
        held = sorted(self.shadow)
        e = held[i % len(held)]
        self._apply(e, "ins")
        assert self.tree.leaf_union().count(e) == self.shadow[e] > 1

    @precondition(lambda self: self.deleted is not None
                  and self.deleted not in self.shadow)
    @rule()
    def reinsert_deleted(self):
        # the example's row was freed; it comes back in another row, or in
        # the same one once a rebuild has recycled it
        self._apply(self.deleted, "ins")

    @precondition(lambda self: self.shadow)
    @rule(i=st.integers(0, 10**6))
    def delete_all_then_reinsert(self, i):
        held = sorted(self.shadow)
        e = held[i % len(held)]
        for _ in range(self.shadow[e]):
            self._apply(e, "del")
        self._apply(e, "ins")

    @precondition(lambda self: self.shadow)
    @rule(i=st.integers(0, 10**6), other=examples)
    def reuse_row_elsewhere_and_back(self, i, other):
        # e's freed row stays listed in e's leaf, so other, which may
        # route to another leaf, takes another row, is freed in turn, and
        # e comes back in a third, listed beside its old one
        held = sorted(self.shadow)
        e = held[i % len(held)]
        if other in self.shadow or other == e:
            return
        for _ in range(self.shadow[e]):
            self._apply(e, "del")
        self._apply(other, "ins")
        self._apply(other, "del")
        self._apply(e, "ins")

    @precondition(lambda self: min((e.features[1] for e in self.shadow),
                                   default="m") > "0")
    @rule(x=reals, label=st.integers(0, 1))
    def insert_lowest_symbol(self, x, label):
        low = min((e.features[1] for e in self.shadow), default="m")
        self._apply(make_example((x, chr(ord(low) - 1)), label), "ins")

    @rule(x=reals, label=st.integers(0, 1))
    def insert_new_symbol(self, x, label):
        # a symbol no example has held, above every other; once deleted,
        # such symbols pile up until the store drops their ids
        self.fresh += 1
        self._apply(make_example((x, chr(0x100 + self.fresh)), label), "ins")

    @rule(x=reals, s=symbols)
    def query(self, x, s):
        pending = [v.pending for v in walk(self.tree.root)]
        assert self.tree.query((x, s)) in (0, 1)
        assert [v.pending for v in walk(self.tree.root)] == pending

    @rule(e=examples)
    def query_then_insert(self, e):
        # the test-then-train step: the insert of the tuple the query
        # accepted skips Schema.validate
        assert self.tree.query(e.features) in (0, 1)
        self._apply(e, "ins")

    @precondition(lambda self: self.shadow)
    @rule(i=st.integers(0, 10**6))
    def delete_equal_copy(self, i):
        # an equal example that is not the object the store holds
        held = sorted(self.shadow)
        e = held[i % len(held)]
        self._apply(make_example(list(e.features), e.label), "del")

    def _rejected(self, e, op, error, match):
        before = state(self.tree)
        with pytest.raises(error, match=match):
            self.tree.update(e, op)
        assert state(self.tree) == before

    @rule(label=st.integers(0, 1), op=st.sampled_from(["ins", "del"]))
    def update_nan(self, label, op):
        self._rejected(make_example((float("nan"), "m"), label), op,
                       SchemaError, "NaN")

    @rule(value=st.sampled_from([2**53 + 1, 10**400]), s=symbols,
          label=st.integers(0, 1), op=st.sampled_from(["ins", "del"]))
    def update_inexact_int(self, value, s, label, op):
        # the row store codes real values as float64, which holds neither
        self._rejected(make_example((value, s), label), op,
                       SchemaError, "float64 cannot hold")

    @precondition(lambda self: self.shadow)
    @rule(label=st.integers(0, 1))
    def insert_int_symbol(self, label):
        # the column holds str symbols; an int one must not reach the store
        self._rejected(make_example((0.0, 1), label), "ins",
                       SchemaError, "holds str symbols")

    @rule(s=symbols, label=st.integers(0, 1),
          container=st.sampled_from([tuple, list]),
          op=st.sampled_from(["ins", "del"]))
    def update_container_symbol(self, s, label, container, op):
        self._rejected(make_example((0.0, container([s])), label), op,
                       SchemaError, "str or integer symbol")

    @rule(x=reals, make=rejected_symbols, label=st.integers(0, 1),
          at_trigger=st.booleans())
    def insert_rejected_symbol(self, x, make, label, at_trigger):
        # Symbols that ordered against themselves but not against each
        # other once entered away from a trigger, and every later rebuild
        # then raised in the sort of the symbols.  A valid twin routes as
        # the rejected insert would; inserted until that path triggers,
        # it rebuilds nothing on the way.
        self.fresh += 1
        fresh = chr(0x100 + self.fresh)
        bad = make_example((x, make(fresh)), label)
        twin = make_example((x, fresh), label)
        while at_trigger and not _triggers(self.tree, bad.features):
            assert self._apply(twin, "ins") is None
        self.rejected_at.append(_triggers(self.tree, bad.features))
        self._rejected(bad, "ins", SchemaError, "str or integer symbol")
        # the tree then takes a valid update, and rebuilds
        while not _triggers(self.tree, twin.features):
            assert self._apply(twin, "ins") is None
        assert self._apply(twin, "ins") is not None

    @rule(x=reals, label=st.integers(0, 1))
    def delete_wrong_arity(self, x, label):
        self._rejected(make_example((x,), label), "del",
                       SchemaError, "expected 2 features")

    @rule(e=examples, op=st.sampled_from(["ins", "del"]))
    def update_list_features(self, e, op):
        # validate takes a list of valid values; hashing it then fails,
        # and an insert into an empty tree must not pin symbol types
        self._rejected(LabeledExample(list(e.features), e.label), op,
                       TypeError, "unhashable")
        self._rejected(LabeledExample([float("nan"), "m"], e.label), op,
                       SchemaError, "NaN")

    @rule(e=examples)
    def delete_label_2(self, e):
        self._rejected(LabeledExample(e.features, 2), "del",
                       ValueError, "label must be 0 or 1")

    @rule(e=examples, label=st.sampled_from([0.0, 1.0, Fraction(0),
                                              Fraction(1)]))
    def insert_non_integer_label(self, e, label):
        # 1.0 == 1 once passed the label check, and the leaf's label
        # histogram then raised TypeError after the row was taken
        self._rejected(LabeledExample(e.features, label), "ins",
                       SchemaError, "label must be 0 or 1")

    @precondition(lambda self: self.shadow)
    @rule(i=st.integers(0, 10**6), kind=st.sampled_from([float, Fraction]))
    def delete_non_integer_label(self, i, kind):
        # equal to a held example, so the store finds its row
        held = sorted(self.shadow)
        e = held[i % len(held)]
        self._rejected(LabeledExample(e.features, kind(e.label)), "del",
                       SchemaError, "label must be 0 or 1")

    @rule(e=examples)
    def upsert(self, e):
        self._rejected(e, "upsert", ValueError, "op must be ins or del")

    @precondition(lambda self: any(e.features[0] in (0.0, 1.0)
                                   for e in self.shadow))
    @rule(i=st.integers(0, 10**6))
    def delete_bool_equal_to_held(self, i):
        # False == 0.0 and True == 1.0, so the store finds the example, but
        # a bool is not a real value
        held = sorted(e for e in self.shadow if e.features[0] in (0.0, 1.0))
        e = held[i % len(held)]
        self._rejected(make_example((bool(e.features[0]), e.features[1]),
                                    e.label),
                       "del", SchemaError, "must be real-valued")

    @rule()
    def swap_for_pickled_clone(self):
        # the later rules run on the clone, which carries the original's
        # new-row lists, freed rows listed or recycled, and pending counts
        clone = pickle.loads(pickle.dumps(self.tree))
        assert _dump(clone) == _dump(self.tree)
        self.tree = clone

    @rule(e=examples)
    def delete_absent(self, e):
        if e not in self.shadow:
            self._rejected(e, "del", ExampleNotFound, "not in active set")

    @invariant()
    def leaf_union_is_the_shadow(self):
        assert dict(self.tree.leaf_union().items()) == dict(self.shadow)
        assert self.tree.active_size == self.shadow.total()

    @invariant()
    def counters_hold(self):
        truth = ActiveMultiset.from_examples(self.shadow.elements(), SCHEMA)
        report = check_counters(self.tree, truth, self.params.epsilon)
        assert report.ok, report.detail
        if self.params.guaranteed:
            feasible = check_feasibility(self.tree, truth, self.params)
            assert feasible.ok, str(feasible)

    @invariant()
    def store_holds(self):
        assert _store_problems(self.tree, self.max_rows) == []


def _triggers(tree, features):
    """Whether an update with features would rebuild: whether a node on
    its path would count more than epsilon times its size."""
    eps = tree.params.epsilon
    node = tree.root
    while node.pending + 1 <= eps * node.size:
        if node.is_leaf:
            return False
        node = node.route_child(features)
    return True


def _dump(tree):
    """Every field of tree's nodes and row store, and its counters."""
    store = tree._store
    nodes = [(v.depth, v.size, v.pending, v.height, v.split,
              v.split_gain.hex(), v.leaf_label, v.label_hist,
              None if v.leaf_rows is None else v.leaf_rows.tolist(),
              v.leaf_new) for v in walk(tree.root)]
    arrays = [None if a is None else a.tobytes()
              for a in (store.y, store.X, store.C, store.rank)]
    return (nodes, arrays, list(store.row_of.items()), store.examples,
            store.free, store.uncoded, store.count.tolist(), store.ids,
            store.symbols, store.code_col, store.symbol_types, tree.stats,
            tree.active_size)


def _store_problems(tree, max_rows):
    """Broken row-store invariants of tree (see dyntree.core), as strings.
    max_rows is the largest row_bound of the tree before each update."""
    store = tree._store
    problems = listing_problems(tree)
    for v in walk(tree.root):
        if not v.is_leaf:
            continue
        hist = [0, 0]
        for r in current_rows(store, v):
            hist[store.examples[r].label] += store.count[r]
        if hist != v.label_hist:
            problems.append(f"a leaf's histogram {v.label_hist} differs "
                            f"from its rows' {hist}")
    if len(store.row_of) != len(store.examples) - store.examples.count(None):
        problems.append("row_of and the rows' examples differ")
    for e, r in store.row_of.items():
        if store.examples[r] != e:
            problems.append(f"row {r} holds {store.examples[r]}, not {e}")
        types = tuple(type(e.features[j]) for j in tree.schema._categorical)
        if types != store.symbol_types:
            problems.append(f"{e} holds symbol types {types}, "
                            f"pinned {store.symbol_types}")
    held = sum(store.count[r] for r in store.row_of.values())
    if not store.total == held == tree.active_size:
        problems.append(f"the store totals {store.total} copies, its held "
                        f"rows count {held} and the tree {tree.active_size}")
    # every freed row a leaf lists was freed by a delete since the root
    # was built, and each such update counts on the root
    freed = len(freed_listed(tree))
    if freed > tree.root.pending:
        problems.append(f"{freed} freed rows listed, more than the root's "
                        f"{tree.root.pending} updates")
    if len(store.examples) > max_rows:
        problems.append(f"{len(store.examples)} row ids for at most "
                        f"{max_rows}")
    schema = tree.schema
    cat = schema._categorical
    if len(store.symbols) > 3 * len(cat) * len(store.examples):
        problems.append(f"{len(store.symbols)} symbol ids for "
                        f"{len(store.examples)} rows")
    for jj, j in enumerate(cat):
        col = [v for v, c in zip(store.symbols, store.code_col) if c == jj]
        if col != sorted(col) or len(set(col)) != len(col):
            problems.append(f"codes of feature {j} do not follow its symbols")
        for e, r in store.row_of.items():
            if r not in store.uncoded and (
                    store.symbols[store.rank[store.C[r, jj]]] != e.features[j]):
                problems.append(f"row {r} codes feature {j} wrongly")
    for jj, j in enumerate(schema._real):
        for e, r in store.row_of.items():
            if r not in store.uncoded and store.X[r, jj] != e.features[j]:
                problems.append(f"row {r} holds feature {j} wrongly")
    return problems


def _step(tree, e, op, max_rows):
    """Apply one update to tree; returns max_rows raised to the tree's
    row bound before it (see row_bound)."""
    max_rows = max(max_rows, row_bound(tree))
    tree.update(e, op)
    return max_rows


def test_store_recycles_rows_and_ranks_symbols():
    params = FeasibilityParams(epsilon=0.2, alpha=0.1, beta=0.5, k=1, h=6)
    exs = [make_example((float(i % 3), s), i % 2)
           for i, s in enumerate(["m", "n", "m", "p"])]
    tree = DecisionTree.from_multiset(ActiveMultiset.from_examples(exs), params)
    store = tree._store
    max_rows = 4
    assert _store_problems(tree, max_rows) == []
    # each delete rebuilds the root, which drops the freed row's listing
    # and recycles it, so the next new example takes it again
    for e in exs[:2]:
        row = store.row_of[e]
        rebuilds = tree.stats.rebuild_count
        max_rows = _step(tree, e, "del", max_rows)
        assert tree.stats.rebuild_count == rebuilds + 1
        assert store.free == [row] and not store.count[row]
        assert _store_problems(tree, max_rows) == []
        flipped = make_example(e.features, 1 - e.label)
        max_rows = _step(tree, flipped, "ins", max_rows)
        assert store.row_of[flipped] == row and store.free == []
        assert _store_problems(tree, max_rows) == []
    assert len(store.examples) == 4
    # a symbol below every held one ranks the column again when the rows
    # are next coded
    low = make_example((0.0, "a"), 1)
    for _ in range(4):
        max_rows = _step(tree, low, "ins", max_rows)
    assert _store_problems(tree, max_rows) == []
    tree._store.flush()
    assert tree._store.symbols[0] == "a"
    assert _store_problems(tree, max_rows) == []


def test_new_symbols_leave_coded_rows_and_unheld_ids_go():
    # every insert brings a symbol no row has held: rows that keep their
    # example keep their ids, and ids no row holds are dropped in time
    params = FeasibilityParams(epsilon=0.2, alpha=0.1, beta=0.5, k=1, h=6)
    exs = [make_example((float(i % 3), f"s{i:04d}"), i % 2)
           for i in range(400)]
    window = exs[:20]
    tree = DecisionTree.from_multiset(ActiveMultiset.from_examples(window),
                                      params)
    store = tree._store
    drops = 0
    max_rows = 20
    for e in exs[20:]:
        kept = {r: store.C[r].copy() for x, r in store.row_of.items()
                if x != window[0]}
        ids = len(store.symbols)
        max_rows = _step(tree, window.pop(0), "del", max_rows)
        max_rows = _step(tree, e, "ins", max_rows)
        window.append(e)
        store.flush()
        if len(store.symbols) > ids:
            assert all((store.C[r] == c).all() for r, c in kept.items())
        else:
            drops += 1
        assert _store_problems(tree, max_rows) == []
    assert drops > 0


def test_listings_stay_within_a_constant_of_the_rows():
    # At a large epsilon leaves go long without a rebuild, while every
    # delete frees a row that stays listed and every reinsert takes a row
    # afresh and lists it; the leaves must fold their freed listings away
    # and recycle the rows, which inserts into other leaves then take, so
    # rows also move between leaves.  By the fold rule a leaf lists at
    # most 2 (n0 + n1) + 32 rows at rest, freed ones included, and here no
    # leaf ever holds more copies than at the start of a round.
    params = FeasibilityParams(epsilon=64.0, alpha=0.1, beta=0.5, k=100, h=3)
    rng = random.Random(64)
    exs = [make_example((rng.random(), rng.choice("mno")),
                        int(rng.random() < 0.3)) for _ in range(1000)]
    exs = [make_example(e.features, int(e.features[0] > 0.6) ^ e.label)
           for e in exs]
    tree = DecisionTree.from_multiset(ActiveMultiset.from_examples(exs),
                                      params)
    store = tree._store
    leaves = [v for v in walk(tree.root) if v.is_leaf]
    assert len(leaves) > 2
    bound = sum(2 * sum(v.label_hist) + 32 for v in leaves)
    for round_ in range(200):
        churn = rng.sample(exs, 100)
        for e in churn:
            tree.update(e, "del")
        for e in churn:
            tree.update(e, "ins")
        listings = sum(len(v.leaf_rows) + len(v.leaf_new or ())
                       for v in leaves)
        assert listings <= bound
        if round_ % 50 == 49:
            # a new row is made only when every row id is listed
            assert _store_problems(tree, bound + 1) == []
    assert tree.stats.rebuild_count == 0  # the leaves above, folded
    assert [v for v in walk(tree.root) if v.is_leaf] == leaves
    assert dict(tree.leaf_union().items()) == dict(Counter(exs))
    rows = tree._gather(tree.root)[0]
    assert sorted(rows.tolist()) == sorted(store.row_of.values())


def _carried(tree):
    """Whether tree holds new-row lists, freed rows that leaves list, and
    recycled rows."""
    leaves = [v for v in walk(tree.root) if v.is_leaf]
    return (any(v.leaf_new for v in leaves), bool(freed_listed(tree)),
            bool(tree._store.free))


def test_a_pickled_clone_carries_listings_and_freed_rows():
    # the machine's small trees rebuild often, so its random swaps seldom
    # clone these; a lazy tree keeps freed rows listed in some leaves while
    # one leaf's rebuild has recycled others, and the clone then takes
    # updates that fold, rebuild and reuse its rows, and ends as the tree
    # it was cloned from would have
    params = FeasibilityParams(epsilon=4.0, alpha=0.2, beta=0.4, k=2, h=4)

    def run(swap):
        m = TreeMachine()
        m.start(params, [make_example((float(i % 4), "mno"[i % 3]), i % 2)
                         for i in range(12)])
        m.delete_all_then_reinsert(0)  # the row comes back, listed again
        m.reuse_row_elsewhere_and_back(5, make_example((3.0, "o"), 0))
        m.delete(7)
        assert _carried(m.tree) == (True, True, False)
        for _ in range(6):  # until the first leaf rebuilds and recycles
            m.delete_all_then_reinsert(0)
        assert m.tree.stats.rebuild_count == 1
        assert _carried(m.tree) == (True, True, True)
        if swap:
            m.swap_for_pickled_clone()
        steps = [lambda: m.insert(make_example((1.0, "n"), 1)),
                 lambda: m.reinsert_deleted(),
                 lambda: m.insert_new_symbol(2.0, 0),
                 lambda: m.query_then_insert(make_example((0.0, "p"), 1)),
                 lambda: m.delete_all_then_reinsert(3)]
        steps += [lambda: m.insert_duplicate(1)] * 40
        for step in steps:
            step()
            m.leaf_union_is_the_shadow()
            m.counters_hold()
            m.store_holds()
        assert m.tree.stats.rebuild_count > 0
        m.teardown()
        return _dump(m.tree)

    assert run(swap=True) == run(swap=False)


TreeMachine.TestCase.settings = settings(
    max_examples=60, stateful_step_count=30, deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
test_tree_machine = TreeMachine.TestCase


@pytest.mark.parametrize("params", [GUARANTEED, LAZY])
def test_machine_reproducers(params):
    # the NaN, str/int, container-symbol and unordered-symbol inputs that
    # once corrupted state, each after the store has rows to lose; a
    # rejected symbol is tried at a trigger and, in the lazy tree, away
    # from one
    m = TreeMachine()
    m.start(params, [make_example((0.0, "m"), 0), make_example((1.0, "n"), 1)])
    steps = [
        lambda: m.update_nan(1, "ins"),
        lambda: m.insert_int_symbol(0),
        lambda: m.update_container_symbol("m", 1, tuple, "ins"),
        lambda: m.insert_lowest_symbol(2.0, 1),
        lambda: m.delete(0),
        lambda: m.reinsert_deleted(),
        lambda: m.insert_duplicate(1),
        lambda: m.delete_all_then_reinsert(0),
        lambda: m.delete_equal_copy(1),
        lambda: m.update_nan(0, "del"),
        lambda: m.update_inexact_int(2**53 + 1, "m", 0, "ins"),
        lambda: m.update_inexact_int(10**400, "n", 1, "del"),
        lambda: m.update_container_symbol("n", 0, list, "del"),
        lambda: m.delete_wrong_arity(1.0, 0),
        lambda: m.update_list_features(make_example((0.0, "m"), 0), "del"),
        lambda: m.delete_label_2(make_example((0.0, "m"), 0)),
        lambda: m.upsert(make_example((1.0, "n"), 1)),
        lambda: m.delete_bool_equal_to_held(0),
        lambda: m.delete_absent(make_example((3.0, "o"), 1)),
        lambda: m.insert_int_symbol(1),
        lambda: m.insert_non_integer_label(make_example((1.0, "n"), 1), 1.0),
        lambda: m.insert_non_integer_label(make_example((0.0, "m"), 0),
                                           Fraction(0)),
        lambda: m.delete_non_integer_label(0, float),
        lambda: m.delete_non_integer_label(1, Fraction),
        lambda: m.reuse_row_elsewhere_and_back(0, make_example((3.0, "o"), 1)),
        lambda: m.insert_rejected_symbol(1.0, Unordered, 0, True),
        lambda: m.insert_rejected_symbol(2.0, lambda s: Decimal(1), 1, False),
    ]
    for step in steps:
        step()
        m.leaf_union_is_the_shadow()
        m.counters_hold()
        m.store_holds()
    assert m.rejected_at == [True, params.guaranteed]
    m.teardown()
