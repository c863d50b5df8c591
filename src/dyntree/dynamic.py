"""The dynamic tree engine: queries, counted updates, proactive rebuilds.

Every insert or delete routes to its leaf, adjusts the leaf's row counts
and label, then bumps a pending counter on each node along the path from the
root.  The first node whose pending count exceeds epsilon times its
build-time size triggers a rebuild; the rebuild reaches up the path to the
shallowest ancestor whose build-time size fits within the next power of
two of the trigger's, so repeated work amortizes geometrically.

Every example is coded once, when it enters the tree: the tree keeps one
row store (``core._Store``) with a row per distinct active example, and
each leaf is a plain row id -> count map (``TreeNode.leaf_rows``).  An
update takes or frees its row through the store (``_Store.take``,
``_Store.release``), edits its leaf's map and does no numpy work; rows it
adds are coded at the next rebuild.  One rebuild touch costs a copy of a
(row, count) pair out of a leaf map, its slice of the store's columns,
and its place in a child leaf's map, with no per-example Python work on
features.

The store holds only examples valid under the tree's schema.  A tree is
built over a copy of a multiset, whose inserts were checked, and each
later insert passes the same checks (``_Store.check``) before it enters.
So a delete looks its example up before validating it, and a delete of
the object the store holds skips validation.

A rebuild gathers every row below its target and rebuilds exactly with
the one builder, ``build._build_entries``, whatever the schema, but keeps
untouched subtrees of the old target.  Every node of a tree is the
builder's, since no caller can hand a tree a root.  Wherever the new tree
picks the same split as the old node in the same place, an old child with
``pending == 0`` that is not on the triggering update's path (and whose
build-time size matches) is kept instead of rebuilt.  Invariant: off that
path, ``pending == 0`` means no update has been routed through the node
since it was built or kept, because updates that stop counting at a
trigger are on a path the rebuild never keeps.  Such a node still holds
its build-time multiset, and the builder is a pure function of (multiset,
depth, params), so the tree is identical to a full rebuild's.
``TreeStats.rebuild_touches`` still counts every gathered example, kept or
not, so the paper's rebuild cost (acceptance criterion 7) is unchanged;
``TreeStats.reused_touches`` counts the examples inside kept subtrees.
See ``build._build_entries`` for the argument in full.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

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


def _shat(size: int) -> int:
    # next power of two at or above size; degenerate sizes round up to 1
    if size <= 1:
        return 1
    return 1 << (size - 1).bit_length()


class DecisionTree:
    """A decision tree maintained under a stream of inserts and deletes.

    The constructor builds the tree over a copy of a multiset, so every
    node is the builder's, as subtree reuse needs (see the module
    docstring); ``empty`` and ``from_multiset`` wrap it.
    """

    __slots__ = ("root", "params", "schema", "stats", "_active", "_store")

    def __init__(self, s: ActiveMultiset, params: FeasibilityParams):
        if s.schema is None:
            raise ValueError("multiset has no schema; insert examples or pass one")
        # the leaves count rows of a copy of s's store, symbol pin and all
        self.root, self._store = build(s, 0, params)
        self.params = params
        self.schema = s.schema
        self.stats = TreeStats(max_height=self.root.height)
        self._active = len(s)

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
        return self._active

    def leaf_union(self) -> ActiveMultiset:
        """Union of the leaf multisets: the engine's view of the active set."""
        entries, _ = self._gather(self.root)
        examples = self._store.examples
        return ActiveMultiset._from_sorted_items(
            [(examples[r], c) for r, c in entries.items()], self.schema
        )

    def _gather(self, node: TreeNode):
        # (row id -> count map, [0-label, 1-label] weight) of the leaves
        # below node; leaves hold disjoint rows, and the builder needs no
        # order
        entries = {}
        n0 = n1 = 0
        stack = [node]
        while stack:
            v = stack.pop()
            if v.split is None:
                entries.update(v.leaf_rows)
                h0, h1 = v.label_hist
                n0 += h0
                n1 += h1
            else:
                stack.append(v.right)
                stack.append(v.left)
        return entries, [n0, n1]

    def query(self, features: Sequence) -> int:
        """Label of the leaf that features route to."""
        self.schema.validate(features)
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
        Counters along the path stop incrementing at the trigger;
        everything below the rebuilt ancestor is replaced wholesale, so
        deeper counters die with their nodes.
        """
        store = self._store
        if op == "del":
            try:
                row = store.row_of.get(example)
            except TypeError:  # unhashable features
                store.check(example, insert=False)
                raise
            if row is None or store.examples[row] is not example:
                store.check(example, insert=False)
                if row is None:
                    raise ExampleNotFound(f"example not in active set: {example}")
        elif op == "ins":
            _, types = store.check(example)
        else:
            raise ValueError(f"op must be ins or del, got {op!r}")

        features = example.features
        path = []
        node = self.root
        s = node.split
        while s is not None:
            path.append(node)
            x = features[s.feature]
            if x == s.threshold if s.categorical else x <= s.threshold:
                node = node.left
            else:
                node = node.right
            s = node.split
        path.append(node)

        # an example's row, when held, is in the leaf the example routes to
        leaf = node
        rows = leaf.leaf_rows
        if op == "ins":
            # take raises TypeError for unhashable features before it
            # changes anything, so the pin is kept only after it
            row = store.take(example)
            store.symbol_types = types
            rows[row] = rows.get(row, 0) + 1
            leaf.label_hist[example.label] += 1
            self._active += 1
        else:
            cnt = rows[row]
            if cnt == 1:
                del rows[row]
                store.release(row)
            else:
                rows[row] = cnt - 1
            leaf.label_hist[example.label] -= 1
            self._active -= 1
        n0, n1 = leaf.label_hist
        leaf.leaf_label = 1 if n1 > n0 else 0

        self.stats.updates += 1
        eps = self.params.epsilon
        for i, v in enumerate(path):
            v.pending += 1
            if v.pending > eps * v.size:
                return self._rebuild_at(path, i)
        return None

    def _rebuild_at(self, path: list, i: int) -> RebuildInfo:
        shat = _shat(path[i].size)
        j = next(jj for jj in range(i + 1) if path[jj].size <= shat)
        target = path[j]
        gathered, hist = self._gather(target)
        gathered_total = hist[0] + hist[1]
        kept = []
        fresh = _build_entries(gathered, hist, self._store, target.depth,
                               self.params, target, path, kept)
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
