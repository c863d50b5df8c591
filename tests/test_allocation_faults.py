"""Every allocation of an operation fails in turn, as SQLite's
out-of-memory tests fail each of its mallocs ("How SQLite Is Tested",
sqlite.org/testing.html): for N = 1, 2, ... the Nth allocating call of the
operation raises MemoryError, until the operation runs through with none
failed.  After each failure the object must equal its twin that never
failed, keep its invariants, and take the same operation again.

The calls counted (``shared.Allocations``) are every numpy function that
the engine modules call through their ``np``, ``core._reals`` and
``core._Store._grow``.  ``ndarray`` methods (``take``, ``astype``,
``copy``, ``tolist``, ``reshape``, ``repeat``, the ``reduceat`` of a
ufunc), array operators and Python's own allocations (lists, dicts,
``struct.pack``) cannot be patched, so no fault is injected there.
"""

import copy
import dataclasses
import itertools
import math

import dyntree
from dyntree import (
    ActiveMultiset,
    DecisionTree,
    FeasibilityParams,
    check_counters,
    make_example,
    mixed_stream,
)
from shared import (Allocations, capacity_problems, freed_listed,
                    leaf_multiset, listing_problems, row_bound, walk)


def _tree_state(tree):
    """What a failed update must leave as it was, by value, so that a
    tree compares with its twin: every node's fields and each leaf's
    multiset, the leaf union, the counters, the symbol pin and the number
    of freed rows listed."""
    store = tree._store
    nodes = []
    for v in walk(tree.root):
        row = [v.depth, v.size, v.pending, v.height, v.split,
               v.split_gain.hex()]
        if v.is_leaf:
            row += [v.leaf_label, list(v.label_hist),
                    list(leaf_multiset(store, v).items())]
        nodes.append(row)
    return (nodes, dict(tree.leaf_union().items()), tree.active_size,
            dataclasses.astuple(tree.stats), store.symbol_types,
            len(freed_listed(tree)))


def _store_state(store):
    """Everything a multiset's store holds, but the coded values."""
    return (list(store.row_of.items()), list(store.examples),
            list(store.free), store.count.obj.tolist(), set(store.uncoded),
            store.total, store.schema, store.symbol_types,
            [None if a is None else a.shape
             for a in (store.y, store.X, store.C)])


def _multiset_problems(m):
    store = m._store
    problems = capacity_problems(store)
    if sorted(store.free) != [r for r, e in enumerate(store.examples)
                              if e is None]:
        problems.append("a multiset's free rows are not all recycled")
    return problems


def _state(box):
    """The state of a box, a dict of the objects an operation touches."""
    out = {}
    for name, obj in box.items():
        if isinstance(obj, DecisionTree):
            out[name] = _tree_state(obj)
        elif isinstance(obj, ActiveMultiset):
            out[name] = _store_state(obj._store)
        else:
            out[name] = obj
    return out


def _problems(box, rows):
    """Broken invariants of the objects in box; rows bounds the row ids of
    each tree it names (see shared.row_bound)."""
    problems = []
    for name, obj in box.items():
        if isinstance(obj, DecisionTree):
            problems += listing_problems(obj)
            if not check_counters(obj, obj.leaf_union(),
                                  obj.params.epsilon).ok:
                problems.append("the tree's counters are off")
            if len(obj._store.examples) > rows.get(name, math.inf):
                problems.append(f"{len(obj._store.examples)} row ids for "
                                f"at most {rows[name]}")
        elif isinstance(obj, ActiveMultiset):
            problems += _multiset_problems(obj)
    return problems


def _enumerate(allocations, make, op):
    """Fails the Nth allocating call of op(box), box a fresh make(), for
    N = 1, 2, ... until op runs through; returns the sites that failed.
    After each failure box must equal make() and hold its invariants, and
    op(box) must then leave it equal to a twin that ran op once."""
    before = _state(make())
    twin = make()
    op(twin)
    after = _state(twin)
    rows = {name: row_bound(t) for name, t in make().items()
            if isinstance(t, DecisionTree)}
    sites = []
    for n in itertools.count(1):
        box = make()
        allocations.arm(n)
        try:
            op(box)
        except MemoryError:
            pass
        finally:
            allocations.disarm()
        if allocations.failed is None:  # op made fewer than n calls
            assert _state(box) == after
            return sites
        sites.append(allocations.failed)
        where = f"call {n}, {allocations.failed}"
        assert _state(box) == before, where
        assert _problems(box, rows) == [], where
        op(box)
        assert _state(box) == after, where
        assert _problems(box, rows) == [], where


def _tree(examples, params):
    return DecisionTree.from_multiset(ActiveMultiset.from_examples(examples),
                                      params)


def _update(e, op):
    def run(box):
        box["tree"].update(e, op)
    return run


def _insert(e):
    def run(box):
        box["m"].insert(e)
    return run


def _from_examples(box):
    box["m"] = ActiveMultiset.from_examples(box["batch"])


def _from_multiset(box):
    box["tree"] = DecisionTree.from_multiset(box["m"], box["params"])


def _mixed(n, seed):
    return mixed_stream(n, d_num=2, d_cat=1, seed=seed, grid=6, alphabet=3)


def _folding():
    # one leaf at eps 1000 whose listings, freed ones included, reach
    # 2 (n0 + n1) + 32 with the next insert's copy counted: that insert
    # takes a row afresh and folds
    tree = _tree([make_example((float(v),), 0) for v in range(4)],
                 FeasibilityParams(epsilon=1000.0, k=1))
    for v in range(4, 100):
        leaf = tree.root
        if len(leaf.leaf_rows) + len(leaf.leaf_new or ()) == 2 * 5 + 32:
            return tree
        e = make_example((float(v),), 0)
        tree.update(e, "ins")
        tree.update(e, "del")
    raise AssertionError("no fold reached")


def _scenarios():
    # (name, the box before the operation, the operation); boxes are
    # deep-copied per run, so every run starts alike
    grows = FeasibilityParams(epsilon=0.5)
    eager = FeasibilityParams(epsilon=0.01, alpha=0.2, beta=0.4, k=1, h=6)
    sixteen = [make_example((float(i), float(i % 3)), i % 2)
               for i in range(16)]
    mixed = list(dict.fromkeys(_mixed(40, seed=4)))[:16]  # distinct
    new = make_example((9.0, 9.0, "z"), 1)  # a new row and a new symbol
    mixed_tree = _tree(mixed, eager)
    assert len(mixed_tree._store.count) == len(mixed) == 16
    return [
        # the 17th distinct example grows the store; no rebuild
        ("tree insert, growth", {"tree": _tree(sixteen, grows)},
         _update(make_example((100.0, 1.0), 1), "ins")),
        # growth, then a rebuild that codes a new symbol
        ("tree insert, rebuild", {"tree": mixed_tree}, _update(new, "ins")),
        # the first insert pins the symbol types, and its undo unpins them
        ("tree first insert",
         {"tree": DecisionTree.empty(eager, mixed_tree.schema)},
         _update(new, "ins")),
        ("tree delete, rebuild", {"tree": mixed_tree},
         _update(mixed[3], "del")),
        ("tree insert, fold", {"tree": _folding()},
         _update(make_example((1000.0,), 0), "ins")),
        ("multiset insert, growth",
         {"m": ActiveMultiset.from_examples(mixed)}, _insert(new)),
        ("multiset first insert", {"m": ActiveMultiset()}, _insert(new)),
        ("from_examples, batch", {"batch": _mixed(40, seed=5)},
         _from_examples),
        # an int real value leaves the batch path for inserts one by one
        ("from_examples, one by one",
         {"batch": [make_example((1, 2.0, "a"), 0)] + _mixed(20, seed=6)},
         _from_examples),
        ("from_multiset", {"m": ActiveMultiset.from_examples(mixed),
                           "params": eager}, _from_multiset),
    ]


def test_every_failed_allocation_leaves_its_object_as_it_was(monkeypatch):
    # small enough that the rebuilds run the list, sort and binned real
    # kernels
    monkeypatch.setattr(dyntree.build, "LIST_CELLS", 8)
    monkeypatch.setattr(dyntree.build, "RANK_ROWS", 8)
    monkeypatch.setattr(dyntree.build, "RANK_GATE", 1)
    scenarios = _scenarios()
    allocations = Allocations()
    allocations.install(monkeypatch)
    failed = {}
    for name, box, op in scenarios:
        failed[name] = _enumerate(allocations,
                                  lambda: copy.deepcopy(box), op)
    # each operation that makes a row failed at its growth step
    for name in ("tree insert, growth", "tree insert, rebuild",
                 "tree first insert",
                 "multiset insert, growth", "multiset first insert",
                 "from_examples, batch", "from_examples, one by one"):
        assert "_Store._grow" in failed[name], name
    assert failed["tree insert, fold"] == ["np.fromiter", "np.concatenate"]
    # and every counted site failed some operation
    assert set(allocations.reached) == allocations.sites
