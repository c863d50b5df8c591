"""Exact tree construction from a multiset snapshot, and its split search.

One builder serves every schema.  It takes an array of row ids of a row
store (``core._Store``) and slices the store's counts, real matrix and
code matrix by them.  The split search is written once, as one build's
node sweep (``_node_sweep``): the builder runs it at every node, and
``best_split`` (acceptance criterion 5) at a multiset's held rows, as at
a rebuild's target.  It picks each node's real-column kernel and
categorical sweep (see ``gini``), runs them and takes the first feature
whose gain is within ``TIE_TOL`` of the best.

The kernel follows a node's real cells, rows times real columns.  A node
of at most ``LIST_CELLS`` runs the list sweep.  A target of at least
``RANK_ROWS`` rows keeps its sort sweep's sort when its columns repeat
values enough: V, their distinct values summed over the columns, with
``RANK_GATE * V`` at most its cells.  Below such a target a node of at
least V cells is counted over rank codes, which the first such node
makes from that sort, local to the one rebuild.  Every other node runs
the sort sweep.

Coded columns follow their code range: V for rank codes, the store's
symbols of every categorical column for categorical codes.  A range of
at most ``SCAN_CODES`` codes is scanned whole in Python (``_scan_binned``,
``_sweep_categorical``), a larger one through the codes present
(``_sweep_binned``, ``_sweep_categorical_present``), so no node's Python
work grows with the store's alphabet.

Each leaf gets its slice of the row array, listed under the store's
current clock (``TreeNode.leaf_rows``, ``TreeNode.leaf_ticket``).

A node stops at the size floor k, at Gini at most alpha/2, or at the
depth cap; so does a node that no feature separates.
A rebuild passes the subtree it replaces, and the builder keeps the parts
of it that no update reached (see ``_build_entries``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from operator import itemgetter

import numpy as np

from .core import (ActiveMultiset, FeasibilityParams, FeatureKind, Split,
                   TreeNode, _Store)
from .gini import (TIE_TOL, _rank_codes, _scan_binned, _sweep_binned,
                   _sweep_categorical, _sweep_categorical_present,
                   _sweep_list, _sweep_numeric)

# Bound here for bench/tracing.py, which patches it by name in this module;
# the builder calls it nowhere, as both sweeps return their gains.  It goes
# when the benchmark reads engine events instead (ROADMAP item 1).
from .gini import _gain_from_counts  # noqa: F401

# A node with at most LIST_CELLS real cells sweeps them on Python lists,
# where numpy's cost per call would outweigh its arithmetic.  It stays
# below RANK_ROWS, so a target that makes rank codes is never that small.
LIST_CELLS = 96

# A rebuild's target keeps its sort for rank codes when it has at least
# RANK_ROWS rows and RANK_GATE times their number of distinct values is at
# most their number of cells.  A smaller target has too few nodes below to
# repay the codes, so it does not even count its values.
RANK_ROWS = 128
RANK_GATE = 16

# A set of coded columns, a node's rank-coded real columns or its
# categorical ones, whose code range is at most SCAN_CODES is scanned over
# its whole range in Python; a larger one is swept through the codes
# present, so that its Python work follows the node, not the range.  On
# synthetic 3-column nodes of 40, 150 and 600 rows with every code
# present, the scan of rank codes takes 0.97-1.00 of the binned sweep's
# time at 42 codes and loses from 48 or 60 codes on; the whole-range
# categorical scan loses to the codes-present sweep only once nodes lack
# many codes, between 90 and 150 codes at 40 rows.  The cutoff sits below
# the lower crossover (``BENCH_34.json``).
SCAN_CODES = 40


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


_gain_of = itemgetter(3)  # of a sweep's (threshold, left, left_ones, gain)


def _node_sweep(store: _Store, rows: np.ndarray):
    """The split search of one build over rows, distinct held row ids of
    store: returns sweep(idx, total, ones) for the node of rows[idx], of
    weight total with ones 1-labels.  idx None, the build's target, is all
    of rows in their order, and comes first.

    sweep returns (j, found, X, C, vals): the chosen feature j, one
    (threshold, left, left_ones, gain) per feature, with float counts, and
    the node's real columns and codes.  Categorical thresholds are codes;
    vals maps real ones, and X, to values when they are rank codes, else
    is None.

    j is the first feature whose gain is within TIE_TOL of the best.  Its
    winner sends every row left (left == total) only when every gain is
    within TIE_TOL of 0, as that winner gains 0.  Then, in each kernel,
    a feature with two or more values on the node wins at its smallest
    value (or smallest code), which gains at least 0, with its exact side
    counts; a feature with one value has the everything-left winner.  So the first feature whose winner has
    left < total is the lowest feature that separates the node, at its
    smallest value: the builder's split of a node that no split gains on.
    """
    w, wy, X, C = store.columns(rows)
    schema = store.schema
    num, cat, code_col = schema._real, schema._categorical, store.code_col
    d, m = len(schema.kinds), len(num)
    # the target's (V, order, sorted values, ties) when it passes the gate,
    # else empty, and the rank codes made from it; once they are made,
    # layout keeps V only
    layout, rank = [], None
    # with both kinds, feature j's winner is (real winners + categorical
    # winners)[at[j]]
    at = sorted(range(d), key=(num + cat).__getitem__)
    # the store's code range holds for the whole build
    cat_sweep = (_sweep_categorical if len(code_col) <= SCAN_CODES
                 else _sweep_categorical_present)

    def sweep(idx, total: int, ones: int) -> tuple:
        nonlocal rank
        first = idx is None
        wi = w if first else w[idx]
        wyi = wy if first else wy[idx]
        # one sweep per kind covers every feature of that kind, and each
        # returns its winners' gains; where one kind covers every feature,
        # its kernel's list is found as it is
        found = None
        Xi = Ci = vals = None
        if num:
            cells = len(wi) * m
            # rows are gathered by take: numpy's X[idx] on a matrix takes a
            # slower path, about 4x at hundreds of rows
            if cells <= LIST_CELLS:
                Xi = X if first else X.take(idx, axis=0)
                found = _sweep_list(Xi.T.tolist(), wi.tolist(),
                                    wyi.tolist(), total, ones)
            elif first and len(rows) >= RANK_ROWS:
                Xi = X
                found = _sweep_numeric(X, w, wy, total, ones, layout)
                if RANK_GATE * layout[0] > cells:
                    layout.clear()
            elif layout and cells >= layout[0]:
                if rank is None:
                    rank = _rank_codes(*layout[1:])
                    del layout[1:]
                # Xi holds codes, thresholds are codes, vals maps them
                R, vals, starts, rcol = rank
                Xi = R.take(idx, axis=0)
                if len(vals) <= SCAN_CODES:
                    found = _scan_binned(Xi, wi, wyi, total, ones, starts)
                else:
                    found = _sweep_binned(Xi, wi, wyi, total, ones, starts,
                                          rcol)
            else:
                Xi = X if first else X.take(idx, axis=0)
                found = _sweep_numeric(Xi, wi, wyi, total, ones)
        if cat:
            Ci = C if first else C.take(idx, axis=0)
            res = cat_sweep(Ci, wi, wyi, total, ones, code_col)
            found = (res if found is None
                     else list(map((found + res).__getitem__, at)))
        # the first feature within TIE_TOL of the best gain
        floor = max(map(_gain_of, found)) - TIE_TOL
        j = 0
        while found[j][3] < floor:
            j += 1
        return j, found, Xi, Ci, vals

    return sweep


def build(s, eta: int, params: FeasibilityParams) -> tuple[TreeNode, _Store]:
    """Build an exact tree for the multiset s with the node built at depth
    eta; returns (root, store).

    Every split maximizes Gini gain over all features and observed
    thresholds; gains within TIE_TOL of the best tie, to the lowest
    feature then (see ``gini``) the lowest threshold.
    Fresh nodes carry size = subtree size and a zeroed pending counter.
    The tree's leaves list rows of store, a copy of s's store, counts and
    symbol pin included, so s stays free to change; the copy codes nothing
    in s, and store codes the rows s had not coded at its first flush.
    """
    store = s._store.copy()
    root = _build_entries(store.held_rows(), s.label_counts(), store, eta,
                          params)
    return root, store


def _build_entries(
    rows: np.ndarray, hist, store: _Store, eta: int,
    params: FeasibilityParams, old: TreeNode | None = None,
    kept: list | None = None,
) -> TreeNode:
    # Internal: rows is an array of distinct held row ids of store, weighed
    # by the store's counts, and hist is their (0-label, 1-label) weight.
    # The tree built does not depend on the rows' order.  Each new leaf
    # takes its slice of rows, listed under the store's clock (all of rows
    # were taken at or before it), with no conversion per row; a root that
    # stops takes rows itself.
    #
    # A rebuild passes the subtree it replaces as old and a list kept; a
    # fresh build passes neither.  Wherever the new tree picks the same
    # split as the old node in the same place, an old child u with
    # u.pending == 0 whose size equals the new child's weighted count is
    # returned as is (and appended to kept) instead of being rebuilt.
    # This is exact:
    # - every update counts on every node of its path, the triggering
    #   update included, so pending == 0 alone means no update has reached
    #   u since it was built (or kept): u's multiset is the one it was
    #   built from, and the routing by the shared split hands the new child
    #   that same multiset;
    # - this builder is a pure function of (multiset, depth, params), so a
    #   fresh build of u's multiset at u's depth reproduces u: size,
    #   pending 0, height, splits, split_gain bits and leaves.
    # The size test is a cheap guard.
    #
    # Nodes are made in preorder, left child first, from an explicit stack,
    # so the depth of the tree is not bounded by Python's recursion limit.
    #
    # A node stops at total <= k, at Gini (``_gini_from_counts``, inlined:
    # past the size floor total >= 1) at most alpha/2, or at depth h or
    # below.  A root that stops (an empty multiset always does, as k >= 1)
    # needs no columns, so the node sweep is made at the first node that
    # does not stop, which is the root.
    k, floor = params.k, params.alpha / 2.0
    h = math.inf if params.h is None else params.h
    ticket = store.clock
    sweep = None
    schema = store.schema
    kinds, pos = schema.kinds, schema._pos
    REAL = FeatureKind.REAL

    def keep(u, total: int):
        # u if it may stand for the new child of weighted count total
        if u is not None and u.pending == 0 and u.size == total:
            kept.append(u)
            return u
        return None

    n0, ones = hist
    root = None
    splits = []  # split nodes in the order made; a node's children come later
    # frames: (row indices, depth, total, ones, old node, parent, left side);
    # the first frame's indices are None, for all of rows in their order
    stack = [(None, eta, n0 + ones, ones, old, None, True)]
    while stack:
        idx, eta, total, ones, old, parent, is_left = stack.pop()
        node = None
        if not (total <= k
                or 2.0 * (ones / total) * ((total - ones) / total) <= floor
                or eta >= h):
            if sweep is None:
                sweep = _node_sweep(store, rows)
            j, found, Xi, Ci, vals = sweep(idx, total, ones)
            gain = found[j][3]
            if found[j][1] == total:
                # the pick sends everything left, so no split gains
                # anything; the first feature that separates the node
                # splits it at its smallest value, so children keep
                # shrinking, else the node stops (see _node_sweep)
                j = next((f for f, r in enumerate(found) if r[1] < total),
                         None)
                gain = 0.0
            if j is not None:
                thr, left, left_ones, _ = found[j]
                left, left_ones = int(left), int(left_ones)  # sizes are ints
                categorical = kinds[j] is not REAL
                mask = (Ci[:, pos[j]] == thr if categorical
                        else Xi[:, pos[j]] <= thr)
                # store.symbols is read here, as the node sweep's flush
                # of the store may replace it
                threshold = (store.symbols[thr] if categorical
                             else thr if vals is None else vals[thr].item())
                # where the old node's split is the one picked, the node
                # takes that Split, and the old children may stand for
                # the new ones
                split = None if old is None else old.split
                lold = rold = None
                if (split is not None and split.feature == j
                        and split.threshold == threshold
                        and split.categorical == categorical):
                    lold, rold = old.left, old.right
                else:
                    split = Split(j, threshold, categorical=categorical)
                node = TreeNode(depth=eta, size=total, split=split,
                                split_gain=gain)
                splits.append(node)
                right, right_ones = total - left, ones - left_ones
                # right pushed first, so the left subtree is made first
                for u, sub, t, t_ones, side in (
                        (rold, ~mask, right, right_ones, False),
                        (lold, mask, left, left_ones, True)):
                    child = keep(u, t)
                    if child is None:
                        stack.append((sub.nonzero()[0] if idx is None
                                      else idx[sub],
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


@dataclass(frozen=True)
class GainResult:
    """Outcome of an exhaustive split search over all features."""

    best_split: Split
    best_gain: float
    per_feature: tuple


def best_split(s: ActiveMultiset) -> GainResult:
    """Exact best split over every feature, observed thresholds only.

    Runs the node sweep that the builder runs at a rebuild's target.
    """
    if len(s) == 0:
        raise ValueError("best_split needs a nonempty multiset")
    store = s._store
    n0, ones = s.label_counts()
    j, found, *_ = _node_sweep(store, store.held_rows())(None, n0 + ones,
                                                         ones)
    kinds = s.schema.kinds
    per_feature = tuple(
        (store.symbols[thr] if kind is FeatureKind.CATEGORICAL else thr,
         gain)
        for kind, (thr, _, _, gain) in zip(kinds, found))
    thr, gain = per_feature[j]
    split = Split(j, thr, categorical=kinds[j] is FeatureKind.CATEGORICAL)
    return GainResult(split, gain, per_feature)


# Alias kept for bench/tracing.py, which patches this name in this module
# and in dynamic.py; it goes when the benchmark reads engine events instead
# (ROADMAP item 1).
_build_cat_entries = _build_entries
