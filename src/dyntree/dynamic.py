"""The dynamic tree engine: queries, counted updates, proactive rebuilds.

Every insert or delete routes to its leaf, adjusts the leaf's multiset and
label, then bumps a pending counter on each node along the path from the
root.  The first node whose pending count exceeds epsilon times its
build-time size triggers a rebuild; the rebuild reaches up the path to the
shallowest ancestor whose build-time size fits within the next power of
two of the trigger's, so repeated work amortizes geometrically.

A rebuild gathers every example below its target and rebuilds exactly
with the one builder, ``build._build_entries``, whatever the schema, but
keeps untouched subtrees of the old target.  Wherever the new tree
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

    Rebuilds keep subtrees whose pending counter is 0 (see the module
    docstring), so a root passed in by hand must hold what the builder
    would build for each such node's multiset.
    """

    __slots__ = (
        "root", "params", "schema", "stats", "_active", "_symbols"
    )

    def __init__(self, root: TreeNode, params: FeasibilityParams, schema: Schema):
        self.root = root
        self.params = params
        self.schema = schema
        self.stats = TreeStats(max_height=root.height)
        self._active = sum(
            node.size for node in self._leaves()
        )
        # categorical symbol types, pinned by the first example the tree
        # holds (see Schema._check_symbols); None while it has held none
        held = next((e for leaf in self._leaves()
                     for e, _ in leaf.leaf_examples._unsorted_items()), None)
        self._symbols = (
            None if held is None else schema._check_symbols(held.features, None)
        )

    @classmethod
    def empty(cls, params: FeasibilityParams, schema: Schema) -> "DecisionTree":
        root = build(ActiveMultiset(schema), 0, params)
        return cls(root, params, schema)

    @classmethod
    def from_multiset(
        cls, s: ActiveMultiset, params: FeasibilityParams
    ) -> "DecisionTree":
        if s.schema is None:
            raise ValueError("multiset has no schema; insert examples or pass one")
        root = build(s, 0, params)
        return cls(root, params, s.schema)

    def _leaves(self):
        stack = [self.root]
        while stack:
            node = stack.pop()
            if node.is_leaf:
                yield node
            else:
                stack.append(node.right)
                stack.append(node.left)

    @property
    def height(self) -> int:
        return self.root.height

    @property
    def active_size(self) -> int:
        return self._active

    def leaf_union(self) -> ActiveMultiset:
        """Union of the leaf multisets: the engine's view of the active set."""
        items, total = self._gather(self.root)
        return ActiveMultiset._from_sorted_items(items, self.schema, total=total)

    def _gather(self, node: TreeNode):
        # (example, count) pairs of the leaves below node, in no particular
        # order; leaves hold disjoint keys, and the builder needs no order
        items = []
        total = 0
        stack = [node]
        while stack:
            v = stack.pop()
            if v.is_leaf:
                items.extend(v.leaf_examples._unsorted_items())
                total += len(v.leaf_examples)
            else:
                stack.append(v.right)
                stack.append(v.left)
        return items, total

    def query(self, features: Sequence) -> int:
        """Label of the leaf that features route to."""
        self.schema.validate(features)
        node = self.root
        while not node.is_leaf:
            node = node.route_child(features)
        return node.leaf_label

    def update(self, example: LabeledExample, op: str) -> Optional[RebuildInfo]:
        """Apply one ins/del; returns rebuild details when one triggered.

        Deleting an example that is not active raises before any state
        changes.  Counters along the path stop incrementing at the trigger;
        everything below the rebuilt ancestor is replaced wholesale, so
        deeper counters die with their nodes.
        """
        if op not in ("ins", "del"):
            raise ValueError(f"op must be ins or del, got {op!r}")
        self.schema.validate(example.features)
        if example.label not in (0, 1):
            raise ValueError(f"label must be 0 or 1, got {example.label!r}")
        if op == "ins" and self.schema._categorical:
            self._symbols = self.schema._check_symbols(
                example.features, self._symbols
            )

        path = []
        node = self.root
        while not node.is_leaf:
            path.append(node)
            node = node.route_child(example.features)
        path.append(node)

        leaf = node
        if op == "del" and leaf.leaf_examples.count(example) == 0:
            raise ExampleNotFound(f"example not in active set: {example}")
        if op == "ins":
            # validated above, so skip the multiset's own schema check
            leaf.leaf_examples._insert_trusted(example)
            leaf.label_hist[example.label] += 1
            self._active += 1
        else:
            leaf.leaf_examples.delete(example)
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
        gathered, gathered_total = self._gather(target)
        kept = []
        fresh = _build_entries(gathered, self.schema, target.depth,
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
