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
since.  An update edits the store by example through one pair: an insert
counts its copy in (``_Store.take``) and a delete counts one out
(``_Store.remove``, which holds the delete rule below); an insert whose
row ``take`` hands out afresh (it counts 1) lists that row in the leaf's
list, and the store itself lists nothing.  An update does no numpy work,
and rows it adds are coded at the next rebuild.  A row that a delete
frees stays listed, counting 0, until a rebuild or a fold drops its
listing and, as its last step that can fail, hands it back to the store
for reuse (``_Store.recycle``); so every row is listed at most once.  A
rebuild joins its leaves' listings with one concatenation and splits
them into held and freed rows by one vectorized count test, so one
rebuild touch costs an element of that array, its slice of the store's
counts and columns, and its place in a child leaf's slice; only the rows
listed since the leaves were built pass through Python.  A leaf whose
listings, freed ones included, outnumber twice its copies plus 32 folds
its held listings into one array at that insert, unless the insert
rebuilds it, so its listings do not grow with the stream, whatever
epsilon is.  At epsilon 1 or below the leaf rebuilds first, so
``update`` does not test for a fold there.

The store makes a new row only when no recycled row is left, so every
row id is then held or a freed row that a leaf lists.  A root rebuild
drops every listing, so each freed row listed was freed by a delete
since, which counts on the root: there are at most epsilon times the
root's size of them.  Above epsilon 1 the fold rule also bounds them:
after each insert a leaf lists at most twice its copies plus 32 rows,
freed ones included, since a fold leaves it its held rows only.  So row
ids stay within twice the sum, over leaves, of each leaf's most copies,
plus 32 per leaf.  Only an insert tests for the fold, so a leaf that
deletes empty keeps its freed listings until an insert or a rebuild
reaches it, and that sum may then exceed the most examples held at any
one time (ROADMAP item 15).  The factor 2 also pays for the folds: a
leaf lists at most its copies at its last build or fold plus the inserts
routed to it since, that is its copies now plus the deletes since, so a
fold, which costs a touch per listing, finds fewer listings than twice
those deletes.  A failed update leaves no row behind either: the undo of
an insert unlists the row the insert took afresh and recycles it, as the
undo of a delete takes back the row the delete freed.

The store holds only examples valid under the tree's schema.  A tree is
built over a copy of a multiset, whose inserts were checked, and each
later insert passes the same checks (``_Store.check``) before it enters.
So a delete looks its example up before validating it, and a delete of
the object the store holds skips validation: that is the delete rule,
and ``_Store.remove`` holds it for a tree and a multiset alike.  A
delete counts its copy out before it descends, since ``remove`` either
completes or changes nothing; an insert counts its copy in once the
descent has reached its leaf.  A test-then-train step
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


def _current_rows(arrays: list, new: list, store) -> tuple:
    # (held, freed): the rows that some leaves list, given their builder
    # arrays and their new-row lists joined, split by their counts in one
    # vectorized test; a freed row counts 0 (see core._Store)
    if new:
        arrays.append(np.fromiter(new, dtype=np.int64, count=len(new)))
    rows = arrays[0] if len(arrays) == 1 else np.concatenate(arrays)
    held = store.count.obj[rows] != 0  # the array under the memoryview
    return rows[held], rows[~held]


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
    copies as updates take and remove them, and ``active_size`` reads
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
        rows = self._gather(self.root)[0]
        examples, count = self._store.examples, self._store.count
        return ActiveMultiset._from_sorted_items(
            [(examples[r], count[r]) for r in rows.tolist()], self.schema
        )

    def _gather(self, node: TreeNode):
        # (array of the held rows listed below node, [0-label, 1-label]
        # weight, array of the freed rows listed there); every row is
        # listed once, and the builder needs no order
        arrays, new = [], []
        n0 = n1 = 0
        stack = [node]
        while stack:
            v = stack.pop()
            if v.split is None:
                arrays.append(v.leaf_rows)
                if v.leaf_new:
                    new += v.leaf_new
                h0, h1 = v.label_hist
                n0 += h0
                n1 += h1
            else:
                stack.append(v.right)
                stack.append(v.left)
        rows, freed = _current_rows(arrays, new, self._store)
        return rows, [n0, n1], freed

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
        or a delete of an example that is not active.  A delete counts its
        copy out first (``_Store.remove``, which holds the delete rule: it
        checks the example unless handed the very object held, and raises
        before any change), then descends.  An insert is checked first and
        counted in (``_Store.take``) once its descent reaches the leaf; an
        insert whose features are the very tuple the last ``query``
        accepted on ``Schema.validate``'s fast path skips that validation
        only, and its label and symbol types are checked as for any insert.
        One handler covers the descent, the leaf edit, a rebuild and a
        fold: an update that raises in any of them undoes what it did
        (``_undo``) before it re-raises.  Every node of the path counts the
        update, below the trigger too; everything below the rebuilt
        ancestor is replaced wholesale, so those counts die with their
        nodes.
        """
        store = self._store
        features = example.features
        if op == "del":
            row, prior = store.remove(example)
        elif op == "ins":
            # a tuple query accepted on the fast path is still valid: it
            # cannot change, nor can its floats and strs
            _, types = store.check(example, features is self._queried
                                   and type(features) is tuple)
            row, prior = None, store.symbol_types
        else:
            raise ValueError(f"op must be ins or del, got {op!r}")

        # one descent routes the example, counts it on every node of its
        # path and finds the trigger, the first node whose count exceeds
        # eps * size; i is its index on the path, -1 for none
        eps = self.params.epsilon
        path = []
        i = -1
        node = self.root
        leaf = None  # the leaf, once its edit starts: an insert's after take
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
            hist = node.label_hist
            if op == "ins":
                # take raises before it changes anything: TypeError for
                # unhashable features, or what its growth step raises
                row = store.take(example, types)
                leaf = node
                # an example's row, when held, is listed in the leaf the
                # example routes to, so a row taken afresh (it counts 1) is
                # listed there
                if store.count[row] == 1:
                    new = leaf.leaf_new
                    if new is None:  # made on demand: most leaves need none
                        new = leaf.leaf_new = []
                    new.append(row)
                hist[example.label] += 1
            else:
                leaf = node
                hist[example.label] -= 1
            n0, n1 = hist
            leaf.leaf_label = 1 if n1 > n0 else 0
            self.stats.updates += 1
            if i >= 0:
                return self._rebuild_at(path, i)
            # fold the leaf's listings once they outnumber 2 (n0 + n1) + 32
            # rows, freed ones included; a rebuild replaces the leaf
            # instead, and at epsilon 1 or below the leaf rebuilds first
            if (eps > 1 and op == "ins" and len(leaf.leaf_rows)
                    + len(leaf.leaf_new or ()) > 2 * (n0 + n1) + 32):
                rows, _, freed = self._gather(leaf)
                store.recycle(freed.tolist())
                leaf.leaf_rows = rows
                leaf.leaf_new = None
            return None
        except BaseException:
            self._undo(path, leaf, example, op, row, prior)
            raise

    def _undo(self, path: list, leaf: Optional[TreeNode],
              example: LabeledExample, op: str, row: Optional[int],
              prior) -> None:
        # Undoes what a failed update did: its counts on path; its store
        # edit, if made (a delete's always, an insert's once it reached
        # leaf); and, once it reached leaf, its leaf edit and stats.  prior
        # is the symbol pin before an insert, or the object a delete
        # removed.  The builder changed nothing of the old subtree, a store
        # flush is all or nothing, and a rebuild or a fold recycles rows and
        # writes the tree only once all else is done, so the tree is as it
        # was before the update.
        for v in path:
            v.pending -= 1
        store = self._store
        if op == "del":
            # a row the delete freed is still listed in its leaf; recycled,
            # it is free[-1], so it is taken back with no new listing
            if not store.count[row]:
                store.recycle([row])
            store.take(prior, store.symbol_types)
        if leaf is None:
            return
        hist = leaf.label_hist
        if op == "ins":
            # the very object held, so remove runs no check
            store.remove(store.examples[row])
            if not store.count[row]:
                # a row the insert took afresh was listed last in the leaf;
                # unlisted, it is recycled, as a delete's undo takes it back
                leaf.leaf_new = leaf.leaf_new[:-1] or None
                store.recycle([row])
            store.symbol_types = prior
            hist[example.label] -= 1
        else:
            hist[example.label] += 1
        leaf.leaf_label = 1 if hist[1] > hist[0] else 0
        self.stats.updates -= 1

    def _rebuild_at(self, path: list, i: int) -> RebuildInfo:
        shat = _shat(path[i].size)
        # the first node of the path within shat; path[i] is, as
        # shat >= its size
        j = 0
        while path[j].size > shat:
            j += 1
        target = path[j]
        gathered, hist, freed = self._gather(target)
        gathered_total = hist[0] + hist[1]
        kept = []
        fresh = _build_entries(gathered, hist, self._store, target.depth,
                               self.params, target, kept)
        # the old subtree's listings die with it, so its freed rows may be
        # reused
        self._store.recycle(freed.tolist())
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
