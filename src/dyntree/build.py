"""Exact tree construction from a multiset snapshot.

One builder serves every schema: real features go through one numeric
sweep and categorical ones through one bincount sweep per node (see
``gini``).  A node stops at the size floor k, at Gini at most alpha/2, or
at the depth cap; a chosen split that fails to separate the node also
stops it.  A rebuild passes the subtree it replaces, and the builder keeps
the parts of it that no update reached (see ``_build_entries``).
"""

from __future__ import annotations

import numpy as np

from .core import (
    ActiveMultiset,
    FeasibilityParams,
    FeatureKind,
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
    _unzip,
)


def _stops(total: int, ones: int, eta: int, params: FeasibilityParams) -> bool:
    # the stop rule of every node: size floor, purity, depth cap
    return (total <= params.k
            or _gini_from_counts(total, ones) <= params.alpha / 2.0
            or params.depth_capped(eta))


def _leaf(items, schema, eta: int, total: int, ones: int) -> TreeNode:
    return TreeNode(
        depth=eta,
        size=total,
        leaf_label=1 if ones > total - ones else 0,
        leaf_examples=ActiveMultiset._from_sorted_items(items, schema, total=total),
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
    features, labels, counts, total, ones = _unzip(entries)
    # a root that stops (an empty multiset always does, as k >= 1) needs no
    # column arrays
    if _stops(total, ones, eta, params):
        return _leaf(entries, schema, eta, total, ones)

    cols = _Columns(features, labels, counts, schema)
    d = len(cols.kinds)
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
        if _stops(total, ones, eta, params):
            return _leaf(map(entries.__getitem__, idx.tolist()), schema, eta,
                         total, ones)

        wi = w[idx]
        wyi = wy[idx]
        # one sweep per kind covers every feature of that kind; the
        # categorical sweep already holds each winner's gain, the numeric
        # winners are scored here through the scalar kernel
        found = [None] * d
        Xi = Ci = None
        if num:
            Xi = X[idx]
            for j, (thr, left, left_ones) in zip(
                    num, _sweep_numeric(Xi, wi, wyi, total, ones)):
                found[j] = (thr, left, left_ones,
                            _gain_from_counts(total, ones, left, left_ones))
        if cat:
            Ci = C[idx]
            for j, res in zip(cat, _sweep_categorical(Ci, wi, wyi, total, ones,
                                                      code_col)):
                found[j] = res
        best = None  # (feature, threshold or code, gain, left, left_ones)
        best_gain = -1.0
        for j, (thr, left, left_ones, gain) in enumerate(found):
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
                return _leaf(map(entries.__getitem__, idx.tolist()), schema,
                             eta, total, ones)
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

    tree = recurse(np.arange(len(entries)), eta, total, ones, old)
    # recurse refers to itself through its closure; clearing the name frees
    # the snapshot now instead of at the cycle collector's next pass
    del recurse
    return tree


# Alias kept for bench/tracing.py, which patches this name in this module
# and in dynamic.py; it goes when the benchmark reads engine events instead
# (ROADMAP item 1).
_build_cat_entries = _build_entries
