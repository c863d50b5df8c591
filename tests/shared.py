"""Helpers that several test modules share."""

import inspect
import re
import types
from collections import Counter
from dataclasses import astuple

import numpy as np

import dyntree
from dyntree import ActiveMultiset


def walk(node):
    """The nodes of node's subtree in preorder, left child first."""
    stack = [node]
    while stack:
        v = stack.pop()
        yield v
        if not v.is_leaf:
            stack += (v.right, v.left)


def listed_rows(leaf):
    """Every row leaf lists, held or freed."""
    return leaf.leaf_rows.tolist() + (leaf.leaf_new or [])


def current_rows(store, leaf):
    """The held rows leaf lists: those that count more than 0."""
    return [r for r in listed_rows(leaf) if store.count[r]]


def freed_listed(tree):
    """The freed rows that tree's leaves list."""
    store = tree._store
    return [r for v in walk(tree.root) if v.is_leaf
            for r in listed_rows(v) if not store.count[r]]


def listing_problems(tree):
    """Broken listing invariants of tree's leaves and row store (see
    dyntree.core.TreeNode), as strings: no row is listed twice; a held
    row is listed in the leaf its example routes to; a free row counts 0
    and holds no example, and is either recycled (on the store's free
    list) and listed nowhere, or listed and not on the free list; and the
    store's per-row arrays hold every row id (see capacity_problems)."""
    store = tree._store
    problems = []
    where = {}  # row -> the leaf that lists it
    for v in walk(tree.root):
        if v.is_leaf:
            for r in listed_rows(v):
                if r in where:
                    problems.append(f"row {r} is listed twice")
                where[r] = v
    free = set(store.free)
    if len(free) != len(store.free):
        problems.append("a row is on the free list twice")
    for r, e in enumerate(store.examples):
        if e is not None:
            if store.count[r] < 1:
                problems.append(f"held row {r} counts {store.count[r]}")
            if r in free:
                problems.append(f"held row {r} is on the free list")
            if r not in where:
                problems.append(f"held row {r} is listed nowhere")
            elif where[r] is not leaf_of(tree.root, e.features):
                problems.append(f"row {r} is listed in a leaf {e} does not "
                                "route to")
            continue
        if store.count[r] != 0:
            problems.append(f"free row {r} counts {store.count[r]}")
        if r in free and r in where:
            problems.append(f"free row {r} is recycled but still listed")
        if r not in free and r not in where:
            problems.append(f"free row {r} is neither recycled nor listed")
    made = set(range(len(store.examples)))
    if not free | set(where) <= made:
        problems.append("a row not yet made is recycled or listed")
    if any(store.count.obj[len(store.examples):]):
        problems.append("a row not yet made counts more than 0")
    return problems + capacity_problems(store)


def capacity_problems(store):
    """Broken capacity invariant of a row store, as strings: its per-row
    arrays share one capacity, which holds every row id."""
    sizes = {len(a) for a in (store.count, store.y, store.X, store.C)
             if a is not None}
    if len(sizes) != 1 or min(sizes) < len(store.examples):
        return [f"per-row arrays of {sorted(sizes)} rows hold "
                f"{len(store.examples)} row ids"]
    return []


def row_bound(tree):
    """The most row ids tree's store may have after its next update: a
    new row is made only when no row is recycled, so each row id is a
    held row, a freed row that a leaf lists, or the one that update's
    insert makes."""
    return len(tree._store.row_of) + len(freed_listed(tree)) + 1


def leaf_of(node, features):
    """The leaf below node that features route to."""
    while not node.is_leaf:
        node = node.route_child(features)
    return node


def leaf_multiset(store, leaf):
    """The multiset that leaf lists currently over its tree's row store."""
    return ActiveMultiset._from_sorted_items(
        [(store.examples[r], store.count[r]) for r in current_rows(store, leaf)],
        store.schema)


def subtree_multiset(store, node):
    """The union of the multisets of the leaves below node."""
    out = ActiveMultiset(store.schema)
    for v in walk(node):
        if v.is_leaf:
            for e, c in leaf_multiset(store, v).items():
                for _ in range(c):
                    out.insert(e)
    return out


def state(tree):
    """What a rejected update must leave as it was."""
    store = tree._store
    return ([(id(v), v.pending) for v in walk(tree.root)],
            dict(tree.leaf_union().items()), tree.active_size,
            astuple(tree.stats), store.symbol_types, len(store.row_of),
            list(store.examples), list(store.free))


class Picky:
    """A user-defined type whose ``<`` raises between 1 and 2 only.  Its
    instances once passed the ``v < v`` probe, so 1 and 2 could stand side
    by side in a column; none is a symbol now."""

    def __init__(self, v):
        self.v = v

    def __eq__(self, other):
        return isinstance(other, Picky) and self.v == other.v

    def __hash__(self):
        return hash(self.v)

    def __lt__(self, other):
        if {self.v, other.v} == {1, 2}:
            raise TypeError("1 and 2 do not order")
        return self.v < other.v


class Unordered(str):
    """A str whose ``<`` raises: not exactly a str, so not a symbol."""

    def __lt__(self, other):
        raise TypeError("no order")


class Code(int):
    """An int that is not exactly an int, so not a symbol."""


class _Counted:
    """A function or ufunc whose calls an Allocations counts; attributes,
    such as a ufunc's ``reduceat``, pass through uncounted."""

    def __init__(self, allocations, site, f):
        self._allocations, self._site, self._f = allocations, site, f

    def __call__(self, *args, **kwargs):
        self._allocations.hit(self._site)
        return self._f(*args, **kwargs)

    def __getattr__(self, name):
        return getattr(self._f, name)


class Allocations:
    """Fails the Nth call of the functions through which the engine
    allocates, as SQLite's out-of-memory tests fail its Nth malloc: every
    numpy function that the engine modules call through their ``np``,
    ``core._reals`` and ``core._Store._grow``.  ``install`` gives each
    module a namespace of the numpy names its source uses, the functions
    among them counted.  ``arm(n)`` starts the count: the nth call from
    then on raises MemoryError, once, and the calls after it run.
    ``disarm`` stops the count; ``calls`` is the number counted,
    ``failed`` the site of the fault (None before it), ``reached`` every
    site that has failed some call, and ``sites`` every site counted."""

    MODULES = (dyntree.core, dyntree.build, dyntree.gini, dyntree.dynamic)

    def __init__(self):
        self.fail_at = None
        self.calls = 0
        self.failed = None
        self.reached = Counter()
        self.sites = {"_reals", "_Store._grow"}

    def install(self, monkeypatch):
        for module in self.MODULES:
            ns = types.SimpleNamespace()
            for name in set(re.findall(r"\bnp\.(\w+)",
                                       inspect.getsource(module))):
                f = getattr(np, name)
                if callable(f) and not isinstance(f, type):
                    f = _Counted(self, f"np.{name}", f)
                    self.sites.add(f"np.{name}")
                setattr(ns, name, f)
            monkeypatch.setattr(module, "np", ns)
        core = dyntree.core
        monkeypatch.setattr(core, "_reals", _Counted(self, "_reals",
                                                     core._reals))
        grow = core._Store._grow

        def counted_grow(store, rows):
            self.hit("_Store._grow")
            grow(store, rows)
        monkeypatch.setattr(core._Store, "_grow", counted_grow)

    def arm(self, n):
        self.fail_at, self.calls, self.failed = n, 0, None

    def disarm(self):
        self.fail_at = None

    def hit(self, site):
        if self.fail_at is None:
            return
        self.calls += 1
        if self.calls == self.fail_at:
            self.failed = site
            self.reached[site] += 1
            raise MemoryError(f"injected fault in {site}")
