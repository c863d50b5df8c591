"""The dynamic tree engine: queries, counted updates, proactive rebuilds.

Every insert or delete routes to its leaf, bumping a pending counter on
each node along the path from the root as it descends, then adjusts its
row's count and the leaf's label.  The first node on the path whose
pending count exceeds epsilon times its build-time size triggers a
rebuild; the rebuild reaches up the path to the shallowest ancestor whose
build-time size fits within the next power of two of the trigger's, so
repeated work amortizes geometrically.

Every example is coded once, when it enters the tree: the tree keeps one
row store (``core._Store``) with a row per distinct active example and
its count, and each leaf lists its rows (``TreeNode``): the builder's
array of row ids, plus a list of the rows updates took afresh for it
since, each with its ticket.  An update counts its copy in or out
through the store (``_Store.take``, ``_Store.release``), which also
lists a row taken afresh in the leaf's list, and does no numpy work;
rows it adds are coded at the next rebuild.  A rebuild joins its leaves'
listings with one concatenation and drops the stale ones with a
vectorized ticket test, so one rebuild touch costs an element of that
array, its slice of the store's counts and columns, and its place in a
child leaf's slice; only the rows listed since the leaves were built pass
through Python.  A leaf whose new-row list outgrows twice its rows' count
(plus a constant) folds its current listings into one array at that insert,
unless the insert rebuilds it, so its listings do not grow with the stream,
whatever epsilon is; the fold is paid for by the inserts that grew the
list.  At epsilon 1 or below the leaf rebuilds first, so ``update`` does
not test for a fold there.

The store holds only examples valid under the tree's schema.  A tree is
built over a copy of a multiset, whose inserts were checked, and each
later insert passes the same checks (``_Store.check``) before it enters.
So a delete looks its example up before validating it, and a delete of
the object the store holds skips validation.  A test-then-train step
queries an example's features, then inserts the example, so the tree
remembers the last features tuple that ``query`` accepted on
``Schema.validate``'s fast path (exact floats and strs, none NaN); an
insert of that very tuple skips ``Schema.validate``, since a tuple of
such values cannot change and the schema is fixed per tree.  Its label
and symbol types are checked as for any insert.

A rebuild gathers every row below its target and rebuilds exactly with
the one builder, ``build._build_entries``, whatever the schema, but keeps
untouched subtrees of the old target.  Every node of a tree is the
builder's, since no caller can hand a tree a root.  Wherever the new tree
picks the same split as the old node in the same place, an old child with
``pending == 0`` (and whose build-time size matches, a guard) is kept
instead of rebuilt.  Invariant: every update counts on its whole path,
below its trigger too, so ``pending == 0`` alone means no update has
reached the node since it was built or kept.  Such a node still holds
its build-time multiset, and the builder is a pure function of (multiset,
depth, params), so the tree is identical to a full rebuild's.
``TreeStats.rebuild_touches`` still counts every gathered example, kept or
not, so the paper's rebuild cost (acceptance criterion 7) is unchanged;
``TreeStats.reused_touches`` counts the examples inside kept subtrees.
See ``build._build_entries`` for the argument in full.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import Optional, Sequence

import numpy as np

# _build_cat_entries is an alias of _build_entries that bench/tracing.py
# patches by name here; it goes with ROADMAP item 1
from .build import _build_cat_entries, _build_entries, build  # noqa: F401
from .core import (
    ActiveMultiset,
    ExampleNotFound,
    FeasibilityParams,
    LabeledExample,
    Schema,
    TreeNode,
)


@dataclass(frozen=True)
class RebuildInfo:
    """What one triggered rebuild touched."""

    node: TreeNode
    depth: int
    gathered: int


@dataclass
class TreeStats:
    updates: int = 0
    rebuild_count: int = 0
    rebuild_touches: int = 0
    # examples inside subtrees a rebuild kept instead of rebuilding; they
    # are gathered, so rebuild_touches counts them too
    reused_touches: int = 0
    max_height: int = 0


def _current_rows(arrays: list, tickets: list, lens: list, new: list,
                  store) -> np.ndarray:
    # the rows listed currently by some leaves, given their builder arrays,
    # the arrays' tickets and lengths, and their new-row lists joined: the
    # arrays are joined and their stale rows dropped in one vectorized
    # ticket test, then the current rows of the new lists added (see
    # core._Store)
    stamp = store.stamp.obj  # the array under the memoryview
    rows = arrays[0] if len(arrays) == 1 else np.concatenate(arrays)
    rows = rows[stamp[rows] <= np.array(tickets).repeat(lens)]
    if not new:
        return rows
    pairs = np.fromiter(new, dtype=np.int64, count=len(new)).reshape(-1, 2)
    fresh = pairs[:, 0]
    return np.concatenate((rows, fresh[stamp[fresh] <= pairs[:, 1]]))


# TreeNode's fields but its children, in the order of a pickled node record
_NODE_FIELDS = tuple(f.name for f in fields(TreeNode)
                     if f.name not in ("left", "right"))


def _shat(size: int) -> int:
    # next power of two at or above size; degenerate sizes round up to 1
    if size <= 1:
        return 1
    return 1 << (size - 1).bit_length()


class DecisionTree:
    """A decision tree maintained under a stream of inserts and deletes.

    The constructor builds the tree over a copy of a multiset, so every
    node is the builder's, as subtree reuse needs (see the module
    docstring); ``empty`` and ``from_multiset`` wrap it.  The tree's row
    store, a clone of the multiset's (``_Store.copy``), counts the active
    copies as updates take and release them, and ``active_size`` reads
    its total.
    """

    __slots__ = ("root", "params", "schema", "stats", "_store", "_queried")

    def __init__(self, s: ActiveMultiset, params: FeasibilityParams):
        if s.schema is None:
            raise ValueError("multiset has no schema; insert examples or pass one")
        # the leaves count rows of a copy of s's store, symbol pin and all
        self.root, self._store = build(s, 0, params)
        self.params = params
        self.schema = s.schema
        self.stats = TreeStats(max_height=self.root.height)
        # the features the last query accepted on validate's fast path
        self._queried = None

    def __getstate__(self) -> dict:
        # pickle and deepcopy take the nodes as flat preorder records, each
        # a node's fields and its children's record indices (-1 at a leaf),
        # so that neither recurses over nested nodes, whatever the height
        nodes, stack = [], [self.root]
        while stack:
            v = stack.pop()
            nodes.append(v)
            if v.split is not None:
                stack += v.right, v.left
        index = {v: i for i, v in enumerate(nodes)}  # nodes hash by identity
        state = {name: getattr(self, name) for name in self.__slots__}
        state["root"] = [
            (tuple([getattr(v, f) for f in _NODE_FIELDS]),
             -1 if v.split is None else index[v.left],
             -1 if v.split is None else index[v.right])
            for v in nodes]
        return state

    def __setstate__(self, state: dict) -> None:
        records = state.pop("root")
        nodes = [TreeNode(**dict(zip(_NODE_FIELDS, values)))
                 for values, _, _ in records]
        for v, (_, left, right) in zip(nodes, records):
            if left >= 0:
                v.left, v.right = nodes[left], nodes[right]
        for name, value in state.items():
            setattr(self, name, value)
        self.root = nodes[0]

    @classmethod
    def empty(cls, params: FeasibilityParams, schema: Schema) -> "DecisionTree":
        return cls(ActiveMultiset(schema), params)

    @classmethod
    def from_multiset(
        cls, s: ActiveMultiset, params: FeasibilityParams
    ) -> "DecisionTree":
        return cls(s, params)

    @property
    def height(self) -> int:
        return self.root.height

    @property
    def active_size(self) -> int:
        return self._store.total

    def leaf_union(self) -> ActiveMultiset:
        """Union of the leaf multisets: the engine's view of the active set."""
        rows, _ = self._gather(self.root)
        examples, count = self._store.examples, self._store.count
        return ActiveMultiset._from_sorted_items(
            [(examples[r], count[r]) for r in rows.tolist()], self.schema
        )

    def _gather(self, node: TreeNode):
        # (array of the rows listed currently below node, [0-label, 1-label]
        # weight); leaves hold disjoint current rows, and the builder needs
        # no order
        arrays, tickets, lens, new = [], [], [], []
        n0 = n1 = 0
        stack = [node]
        while stack:
            v = stack.pop()
            if v.split is None:
                a = v.leaf_rows
                arrays.append(a)
                tickets.append(v.leaf_ticket)
                lens.append(len(a))
                if v.leaf_new:
                    new += v.leaf_new
                h0, h1 = v.label_hist
                n0 += h0
                n1 += h1
            else:
                stack.append(v.right)
                stack.append(v.left)
        return _current_rows(arrays, tickets, lens, new, self._store), [n0, n1]

    def query(self, features: Sequence) -> int:
        """Label of the leaf that features route to."""
        if self.schema.validate(features):
            self._queried = features
        node = self.root
        s = node.split
        # Split.routes_left, inlined: routing is the update path's inner loop
        while s is not None:
            x = features[s.feature]
            if x == s.threshold if s.categorical else x <= s.threshold:
                node = node.left
            else:
                node = node.right
            s = node.split
        return node.leaf_label

    def update(self, example: LabeledExample, op: str) -> Optional[RebuildInfo]:
        """Apply one ins/del; returns rebuild details when one triggered.

        A rejected update raises before any state changes: an invalid op,
        features or label, a symbol of another type than its column holds,
        or a delete of an example that is not active.  A delete looks its
        example up first: the store holds only examples that were checked
        when they entered the tree, so a delete of the very object held
        skips the checks.  Any other delete runs them, because equality
        can join values of types the schema rejects (``True == 1.0``).
        An insert whose features are the very tuple the last ``query``
        accepted on ``Schema.validate``'s fast path skips that validation
        only; its label and symbol types are checked as for any insert.
        An update that raises later, while routing, in the leaf edit, in
        a rebuild or in a fold, undoes what it did before it re-raises.
        Every node of the path counts the update, below the trigger too;
        everything below the rebuilt ancestor is replaced wholesale, so
        those counts die with their nodes.
        """
        store = self._store
        features = example.features
        if op == "del":
            try:
                row = store.row_of.get(example)
            except TypeError:  # unhashable features
                store.check(example)
                raise
            held = None if row is None else store.examples[row]
            if held is not example:
                store.check(example)
                if row is None:
                    raise ExampleNotFound(f"example not in active set: {example}")
        elif op == "ins":
            # a tuple query accepted on the fast path is still valid: it
            # cannot change, nor can its floats and strs
            _, types = store.check(example, features is self._queried
                                   and type(features) is tuple)
        else:
            raise ValueError(f"op must be ins or del, got {op!r}")

        # one descent routes the example, counts it on every node of its
        # path and finds the trigger, the first node whose count exceeds
        # eps * size; i is its index on the path, -1 for none
        eps = self.params.epsilon
        path = []
        i = -1
        node = self.root
        try:
            while True:
                p = node.pending = node.pending + 1
                if p > eps * node.size and i < 0:
                    i = len(path)
                path.append(node)
                s = node.split
                if s is None:
                    break
                x = features[s.feature]
                if x == s.threshold if s.categorical else x <= s.threshold:
                    node = node.left
                else:
                    node = node.right
            # an example's row, when held, is listed currently in the leaf
            # the example routes to, and a row taken afresh is listed there
            leaf = node
            if op == "ins":
                new = leaf.leaf_new
                if new is None:  # made on demand: most leaves never need one
                    new = leaf.leaf_new = []
                # take raises TypeError for unhashable features before it
                # changes anything
                row = store.take(example, new)
        except BaseException:
            for v in path:
                v.pending -= 1
            raise

        hist = leaf.label_hist
        if op == "ins":
            pin, store.symbol_types = store.symbol_types, types
            hist[example.label] += 1
        else:
            store.release(row)
            hist[example.label] -= 1
        n0, n1 = hist
        leaf.leaf_label = 1 if n1 > n0 else 0
        self.stats.updates += 1
        try:
            if i >= 0:
                return self._rebuild_at(path, i)
            # fold the leaf's listings once its new-row list, flat (row,
            # ticket) pairs, lists more than 2 (n0 + n1) + 32 rows; a
            # rebuild replaces the leaf instead, and at epsilon 1 or below
            # the leaf rebuilds first
            if eps > 1 and op == "ins" and len(new) > 4 * (n0 + n1) + 64:
                leaf.leaf_rows = self._gather(leaf)[0]
                leaf.leaf_ticket = store.clock  # no current stamp is later
                leaf.leaf_new = None
            return None
        except BaseException:
            self._undo(path, example, op, row, held if op == "del" else pin)
            raise

    def _undo(self, path: list, example: LabeledExample, op: str, row: int,
              prior) -> None:
        # Undoes an update whose rebuild or fold raised: its counts on
        # path, its stats, its store edit (which counts its copy out or back
        # in) and leaf edit, and an insert's symbol pin.  prior is the pin
        # before an insert, or the example object a delete released.  The
        # builder changed nothing of the old subtree, a store flush is all
        # or nothing, and a fold writes the leaf only once its listings are
        # made, so the tree is as it was before the update.
        for v in path:
            v.pending -= 1
        self.stats.updates -= 1
        store = self._store
        leaf = path[-1]
        hist = leaf.label_hist
        if op == "ins":
            store.release(row)
            store.symbol_types = prior
            hist[example.label] -= 1
        else:
            if leaf.leaf_new is None:
                leaf.leaf_new = []
            # a row the delete freed is free[-1], so it is taken back
            store.take(prior, leaf.leaf_new)
            hist[example.label] += 1
        leaf.leaf_label = 1 if hist[1] > hist[0] else 0

    def _rebuild_at(self, path: list, i: int) -> RebuildInfo:
        shat = _shat(path[i].size)
        # the first node of the path within shat; path[i] is, as
        # shat >= its size
        j = 0
        while path[j].size > shat:
            j += 1
        target = path[j]
        gathered, hist = self._gather(target)
        gathered_total = hist[0] + hist[1]
        kept = []
        fresh = _build_entries(gathered, hist, self._store, target.depth,
                               self.params, target, kept)
        if j == 0:
            self.root = fresh
        else:
            parent = path[j - 1]
            if parent.left is target:
                parent.left = fresh
            else:
                parent.right = fresh
            for a in reversed(path[:j]):
                a.height = 1 + max(a.left.height, a.right.height)
        self.stats.rebuild_count += 1
        self.stats.rebuild_touches += gathered_total
        self.stats.reused_touches += sum(u.size for u in kept)
        if self.root.height > self.stats.max_height:
            self.stats.max_height = self.root.height
        return RebuildInfo(fresh, target.depth, gathered_total)
