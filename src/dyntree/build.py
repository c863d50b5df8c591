"""Exact tree construction from a multiset snapshot.

``build`` handles any schema through the generic sweeps; ``build_categorical``
produces the same tree for all-categorical schemas from per-value counters,
moving only the smaller side of each split so repartitioning stays cheap.
Both stop at the same rules: size floor k, Gini at most alpha/2, or the
depth cap; a chosen split that fails to separate the node also stops it.
"""

from __future__ import annotations

import numpy as np

from .core import (
    ActiveMultiset,
    FeasibilityParams,
    FeatureKind,
    LabeledExample,
    Schema,
    SchemaError,
    Split,
    TreeNode,
)
from .gini import (
    TIE_TOL,
    _Columns,
    _gain_from_counts,
    _gini_from_counts,
    _sweep_categorical,
    _sweep_numeric,
)


def _leaf(entries, idx, schema, eta: int, total: int, ones: int) -> TreeNode:
    sub = ActiveMultiset._from_sorted_items(
        map(entries.__getitem__, idx.tolist()), schema, total=total
    )
    return TreeNode(
        depth=eta,
        size=total,
        leaf_label=1 if ones > total - ones else 0,
        leaf_examples=sub,
        label_hist=[total - ones, ones],
        height=0,
    )


def _separating_split(kinds, pos, Xi, Ci):
    """Lowest (feature, value) split with both sides nonempty, as
    (feature, value, left mask), or None.

    Categorical values are codes, whose order is the symbols' order; at the
    smallest value, ``x <= value`` and ``x == value`` select the same rows.
    """
    for j, kind in enumerate(kinds):
        col = (Xi if kind is FeatureKind.REAL else Ci)[:, pos[j]]
        lo = col.min()
        if col.max() > lo:
            return j, lo.item(), col == lo
    return None


def build(s: ActiveMultiset, eta: int, params: FeasibilityParams) -> TreeNode:
    """Build an exact tree for s with the node built at depth eta.

    Every split maximizes Gini gain over all features and observed
    thresholds, ties to the lowest feature then the lowest threshold.
    Fresh nodes carry size = subtree size and a zeroed pending counter.
    """
    return _build_entries(list(s._unsorted_items()), s.schema, eta, params)


def _build_entries(
    entries: list, schema, eta: int, params: FeasibilityParams,
    old: TreeNode | None = None, path=(), kept: list | None = None,
) -> TreeNode:
    # Internal: entries is an (example, count) list with distinct examples,
    # in any order; the tree built does not depend on it.
    #
    # A rebuild passes the subtree it replaces as old, the nodes of the
    # update that triggered it as path, and a list kept; a fresh build
    # passes none of them.  Wherever the new tree picks the same split as
    # the old node in the same place, an old child u with u.pending == 0,
    # not on path, whose size equals the new child's weighted count is
    # returned as is (and appended to kept) instead of being rebuilt.
    # This is exact:
    # - every update routed through a node bumps its pending counter,
    #   except below the node that triggers a rebuild; those nodes are on
    #   that update's path, which the rebuild never keeps.  So off the
    #   current path, pending == 0 means u's multiset is the one it was
    #   built (or kept) from, and the routing by the shared split hands the
    #   new child that same multiset;
    # - this builder is a pure function of (multiset, depth, params), so a
    #   fresh build of u's multiset at u's depth reproduces u: size,
    #   pending 0, height, splits, split_gain bits and leaves.
    # Path nodes below the trigger keep pending 0 but hold one example more
    # or fewer than their size, so the path test and the size test each
    # exclude them; both are cheap guards.
    n = len(entries)
    if n == 0:
        empty = ActiveMultiset(schema)
        return TreeNode(depth=eta, size=0, leaf_label=0, leaf_examples=empty,
                        label_hist=[0, 0], height=0)

    d = schema.arity if schema is not None else len(entries[0][0].features)
    cols = _Columns(entries, schema, d)
    kinds, w, wy, X, C = cols.kinds, cols.w, cols.wy, cols.X, cols.C
    num, cat, pos = cols.num, cols.cat, cols.pos
    symbols, code_col = cols.symbols, cols.code_col
    REAL = FeatureKind.REAL
    on_path = {id(v) for v in path}

    def keep(u, total: int):
        # u if it may stand for the new child of weighted count total
        if (u is not None and u.pending == 0 and u.size == total
                and id(u) not in on_path):
            kept.append(u)
            return u
        return None

    def recurse(idx: np.ndarray, eta: int, total: int, ones: int,
                old) -> TreeNode:
        g = _gini_from_counts(total, ones)
        if total <= params.k or g <= params.alpha / 2.0 or params.depth_capped(eta):
            return _leaf(entries, idx, schema, eta, total, ones)

        wi = w[idx]
        wyi = wy[idx]
        # one sweep per kind covers every feature of that kind
        found = [None] * d
        Xi = Ci = None
        if num:
            Xi = X[idx]
            for j, res in zip(num, _sweep_numeric(Xi, wi, wyi, total, ones)):
                found[j] = res
        if cat:
            Ci = C[idx]
            for j, res in zip(cat, _sweep_categorical(Ci, wi, wyi, total, ones,
                                                      code_col)):
                found[j] = res
        best = None  # (feature, threshold or code, gain, left, left_ones)
        best_gain = -1.0
        for j, (thr, left, left_ones) in enumerate(found):
            gain = _gain_from_counts(total, ones, left, left_ones)
            if gain > best_gain + TIE_TOL:
                best = (j, thr, gain, left, left_ones)
                best_gain = gain

        j, thr, gain, left, left_ones = best
        if left == total:
            # the argmax split sends everything left, which only happens
            # when every gain is 0; fall back to the first split that makes
            # progress so children keep shrinking, else stop here
            sep = _separating_split(kinds, pos, Xi, Ci)
            if sep is None:
                return _leaf(entries, idx, schema, eta, total, ones)
            j, thr, mask = sep
            gain = 0.0
            left, left_ones = int(wi[mask].sum()), int(wyi[mask].sum())
        elif kinds[j] is REAL:
            mask = Xi[:, pos[j]] <= thr
        else:
            mask = Ci[:, pos[j]] == thr

        categorical = kinds[j] is not REAL
        split = Split(j, symbols[thr] if categorical else thr,
                      categorical=categorical)
        lold = rold = None
        if old is not None and old.split == split:
            lold, rold = old.left, old.right
        right, right_ones = total - left, ones - left_ones
        lnode = keep(lold, left) or recurse(idx[mask], eta + 1, left,
                                            left_ones, lold)
        rnode = keep(rold, right) or recurse(idx[~mask], eta + 1, right,
                                             right_ones, rold)
        return TreeNode(
            depth=eta,
            size=total,
            split=split,
            split_gain=gain,
            left=lnode,
            right=rnode,
            height=1 + max(lnode.height, rnode.height),
        )

    tree = recurse(np.arange(n), eta, cols.total, cols.ones, old)
    # recurse refers to itself through its closure; clearing the name frees
    # the snapshot now instead of at the cycle collector's next pass
    del recurse
    return tree


class _CatCounters:
    """Per-feature value counters plus id buckets for one node's examples."""

    __slots__ = ("ids", "counts", "buckets", "n0", "n1")

    def __init__(self, d: int):
        self.ids: set[int] = set()
        self.counts = [dict() for _ in range(d)]   # value -> [w0, w1]
        self.buckets = [dict() for _ in range(d)]  # value -> set of ids
        self.n0 = 0
        self.n1 = 0

    def add(self, i: int, features: tuple, cnt: int, label: int) -> None:
        self.ids.add(i)
        if label:
            self.n1 += cnt
        else:
            self.n0 += cnt
        for j, v in enumerate(features):
            cell = self.counts[j].get(v)
            if cell is None:
                self.counts[j][v] = [0, 0]
                self.buckets[j][v] = set()
                cell = self.counts[j][v]
            cell[label] += cnt
            self.buckets[j][v].add(i)

    def remove(self, i: int, features: tuple, cnt: int, label: int) -> None:
        self.ids.discard(i)
        if label:
            self.n1 -= cnt
        else:
            self.n0 -= cnt
        for j, v in enumerate(features):
            cell = self.counts[j][v]
            cell[label] -= cnt
            bucket = self.buckets[j][v]
            bucket.discard(i)
            if not bucket:
                del self.buckets[j][v]
                del self.counts[j][v]


def build_categorical(
    s: ActiveMultiset, eta: int, params: FeasibilityParams
) -> TreeNode:
    """Counter-based build for all-categorical schemas.

    Chooses the same splits as ``build`` (gain-maximal equality tests with
    the same tie-breaks) but scores them straight from value counters and
    peels the smaller side of each split out of the parent's counters, so
    one side's structures are reused instead of rebuilt.
    """
    schema = s.schema
    if schema is not None and not schema.all_categorical:
        raise SchemaError("build_categorical needs an all-categorical schema")
    return _build_cat_entries(list(s._unsorted_items()), schema, eta, params)


def _build_cat_entries(
    entries: list, schema, eta: int, params: FeasibilityParams,
    old: TreeNode | None = None, path=(), kept: list | None = None,
) -> TreeNode:
    # Takes _build_entries' arguments; it always builds the whole subtree.
    n = len(entries)
    if n == 0:
        empty = ActiveMultiset(schema)
        return TreeNode(depth=eta, size=0, leaf_label=0, leaf_examples=empty,
                        label_hist=[0, 0], height=0)

    d = schema.arity if schema is not None else len(entries[0][0].features)
    feats = [e.features for e, _ in entries]
    cnts = [c for _, c in entries]
    labs = [e.label for e, _ in entries]

    root = _CatCounters(d)
    for i in range(n):
        root.add(i, feats[i], cnts[i], labs[i])

    def close(state: _CatCounters, eta: int) -> TreeNode:
        total = state.n0 + state.n1
        sub = ActiveMultiset._from_sorted_items(
            map(entries.__getitem__, state.ids), schema, total=total
        )
        return TreeNode(
            depth=eta,
            size=total,
            leaf_label=1 if state.n1 > state.n0 else 0,
            leaf_examples=sub,
            label_hist=[state.n0, state.n1],
            height=0,
        )

    def recurse(state: _CatCounters, eta: int) -> TreeNode:
        total = state.n0 + state.n1
        ones = state.n1
        g = _gini_from_counts(total, ones)
        if total <= params.k or g <= params.alpha / 2.0 or params.depth_capped(eta):
            return close(state, eta)

        best_j, best_v, best_gain = 0, None, -1.0
        for j in range(d):
            for v in sorted(state.counts[j]):
                w0, w1 = state.counts[j][v]
                gain = _gain_from_counts(total, ones, w0 + w1, w1)
                if gain > best_gain + TIE_TOL:
                    best_j, best_v, best_gain = j, v, gain

        cell = state.counts[best_j][best_v]
        left_w = cell[0] + cell[1]
        if left_w == total:
            # argmax split puts everything left (all gains are 0); fall
            # back to the first value that separates, else stop here
            fallback = None
            for j in range(d):
                for v in sorted(state.counts[j]):
                    w0, w1 = state.counts[j][v]
                    if w0 + w1 < total:
                        fallback = (j, v, w0 + w1)
                        break
                if fallback is not None:
                    break
            if fallback is None:
                return close(state, eta)
            best_j, best_v, left_w = fallback
            best_gain = 0.0

        left_ids = set(state.buckets[best_j][best_v])
        if 2 * left_w <= total:
            moved_ids, peel_is_left = left_ids, True
        else:
            moved_ids, peel_is_left = state.ids - left_ids, False
        peeled = _CatCounters(d)
        for i in moved_ids:
            state.remove(i, feats[i], cnts[i], labs[i])
            peeled.add(i, feats[i], cnts[i], labs[i])
        left_state, right_state = (
            (peeled, state) if peel_is_left else (state, peeled)
        )

        lnode = recurse(left_state, eta + 1)
        rnode = recurse(right_state, eta + 1)
        return TreeNode(
            depth=eta,
            size=total,
            split=Split(best_j, best_v, categorical=True),
            split_gain=best_gain,
            left=lnode,
            right=rnode,
            height=1 + max(lnode.height, rnode.height),
        )

    tree = recurse(root, eta)
    del recurse  # break the closure's self-reference, as in _build_entries
    return tree


def builder_for(schema) -> "callable":
    """Pick the counter-based path when every feature is categorical."""
    if schema is not None and schema.all_categorical:
        return build_categorical
    return build
