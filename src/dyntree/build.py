"""Exact tree construction from a multiset snapshot.

One builder serves every schema.  It takes an array of row ids of a row
store (``core._Store``) and slices the store's counts, real matrix and
code matrix by them.  Real features go through one numeric sweep per
node, and categorical ones through one bincount sweep (see ``gini``).
Each leaf gets its slice of the row array, listed under the store's
current clock (``TreeNode.leaf_rows``, ``TreeNode.leaf_ticket``).

A node stops at the size floor k, at Gini at most alpha/2, or at the
depth cap; a chosen split that fails to separate the node also stops it.
A rebuild passes the subtree it replaces, and the builder keeps the parts
of it that no update reached (see ``_build_entries``).
"""

from __future__ import annotations

import numpy as np

from .core import FeasibilityParams, FeatureKind, Split, TreeNode, _Store
from .gini import (TIE_TOL, _gini_from_counts, _sweep_categorical,
                   _sweep_numeric)

# Bound here for bench/tracing.py, which patches it by name in this module;
# the builder calls it nowhere, as both sweeps return their gains.  It goes
# when the benchmark reads engine events instead (ROADMAP item 1).
from .gini import _gain_from_counts  # noqa: F401


def _stops(total: int, ones: int, eta: int, params: FeasibilityParams) -> bool:
    # the stop rule of every node: size floor, purity, depth cap
    return (total <= params.k
            or _gini_from_counts(total, ones) <= params.alpha / 2.0
            or params.depth_capped(eta))


def _leaf(rows: np.ndarray, ticket: int, eta: int, total: int,
          ones: int) -> TreeNode:
    return TreeNode(
        depth=eta,
        size=total,
        leaf_label=1 if ones > total - ones else 0,
        leaf_rows=rows,
        leaf_ticket=ticket,
        leaf_new=None,
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


def build(s, eta: int, params: FeasibilityParams) -> tuple[TreeNode, _Store]:
    """Build an exact tree for the multiset s with the node built at depth
    eta; returns (root, store).

    Every split maximizes Gini gain over all features and observed
    thresholds, ties to the lowest feature then the lowest threshold.
    Fresh nodes carry size = subtree size and a zeroed pending counter.
    The tree's leaves list rows of store, a copy of s's store, counts and
    symbol pin included, so s stays free to change.
    """
    store = s._store.copy()
    root = _build_entries(store.held_rows(), s.label_counts(), store, eta,
                          params)
    return root, store


def _build_entries(
    rows: np.ndarray, hist, store: _Store, eta: int,
    params: FeasibilityParams, old: TreeNode | None = None, path=(),
    kept: list | None = None,
) -> TreeNode:
    # Internal: rows is an array of distinct held row ids of store, weighed
    # by the store's counts, and hist is their (0-label, 1-label) weight.
    # The tree built does not depend on the rows' order.  Each new leaf
    # takes its slice of rows, listed under the store's clock (all of rows
    # were taken at or before it), with no conversion per row; a root that
    # stops takes rows itself.
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
    #
    # Nodes are made in preorder, left child first, from an explicit stack,
    # so the depth of the tree is not bounded by Python's recursion limit.
    n0, ones = hist
    total = n0 + ones
    # a root that stops (an empty multiset always does, as k >= 1) needs no
    # columns
    ticket = store.clock
    if _stops(total, ones, eta, params):
        return _leaf(rows, ticket, eta, total, ones)

    w, wy, X, C = store.columns(rows)
    schema = store.schema
    kinds, num, cat, pos = (schema.kinds, schema._real, schema._categorical,
                            schema._pos)
    symbols, code_col = store.symbols, store.code_col
    d = len(kinds)
    REAL = FeatureKind.REAL
    on_path = {id(v) for v in path}

    def keep(u, total: int):
        # u if it may stand for the new child of weighted count total
        if (u is not None and u.pending == 0 and u.size == total
                and id(u) not in on_path):
            kept.append(u)
            return u
        return None

    root = None
    splits = []  # split nodes in the order made; a node's children come later
    # frames: (row indices, depth, total, ones, old node, parent, left side);
    # the first frame's indices are None, for all of rows in their order, so
    # it sweeps the columns as store.columns returned them
    stack = [(None, eta, total, ones, old, None, True)]
    while stack:
        idx, eta, total, ones, old, parent, is_left = stack.pop()
        node = None
        if not _stops(total, ones, eta, params):
            first = idx is None
            wi = w if first else w[idx]
            wyi = wy if first else wy[idx]
            # one sweep per kind covers every feature of that kind, and each
            # returns its winners' gains
            found = [None] * d
            Xi = Ci = None
            if num:
                Xi = X if first else X[idx]
                for j, res in zip(num, _sweep_numeric(Xi, wi, wyi, total,
                                                      ones)):
                    found[j] = res
            if cat:
                Ci = C if first else C[idx]
                for j, res in zip(cat, _sweep_categorical(Ci, wi, wyi, total,
                                                          ones, code_col)):
                    found[j] = res
            best = None  # (feature, threshold or code, gain, left, left_ones)
            best_gain = -1.0
            for j, (thr, left, left_ones, gain) in enumerate(found):
                if gain > best_gain + TIE_TOL:
                    best = (j, thr, gain, left, left_ones)
                    best_gain = gain

            j, thr, gain, left, left_ones = best
            mask = None
            if left == total:
                # the argmax split sends everything left, which only
                # happens when every gain is 0; fall back to the first
                # split that makes progress so children keep shrinking,
                # else stop here
                sep = _separating_split(kinds, pos, Xi, Ci)
                if sep is not None:
                    j, thr, mask = sep
                    gain = 0.0
                    left, left_ones = int(wi[mask].sum()), int(wyi[mask].sum())
            elif kinds[j] is REAL:
                mask = Xi[:, pos[j]] <= thr
            else:
                mask = Ci[:, pos[j]] == thr
            if mask is not None:
                categorical = kinds[j] is not REAL
                split = Split(j, symbols[thr] if categorical else thr,
                              categorical=categorical)
                node = TreeNode(depth=eta, size=total, split=split,
                                split_gain=gain)
                splits.append(node)
                lold = rold = None
                if old is not None and old.split == split:
                    lold, rold = old.left, old.right
                right, right_ones = total - left, ones - left_ones
                # right pushed first, so the left subtree is made first
                for u, sub, t, t_ones, side in (
                        (rold, ~mask, right, right_ones, False),
                        (lold, mask, left, left_ones, True)):
                    child = keep(u, t)
                    if child is None:
                        stack.append((sub.nonzero()[0] if first else idx[sub],
                                      eta + 1, t, t_ones, u, node, side))
                    elif side:
                        node.left = child
                    else:
                        node.right = child
        if node is None:
            node = _leaf(rows if idx is None else rows[idx], ticket, eta,
                         total, ones)
        if parent is None:
            root = node
        elif is_left:
            parent.left = node
        else:
            parent.right = node
    for v in reversed(splits):
        v.height = 1 + max(v.left.height, v.right.height)
    return root


# Alias kept for bench/tracing.py, which patches this name in this module
# and in dynamic.py; it goes when the benchmark reads engine events instead
# (ROADMAP item 1).
_build_cat_entries = _build_entries
