"""Gini impurity, split gain, exact split search, and multiset distance.

All engine-side scoring funnels through two scalar kernels (the
categorical sweep runs an inlined copy of the gain kernel) so that a gain
reported by the sweep equals what ``gini_gain`` computes for the same
split, bit for bit.  Gains within ``TIE_TOL`` of each other count as tied
and ties resolve to the lowest feature index, then the lowest threshold.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain, compress, count
from typing import Optional, Sequence

import numpy as np

from .core import ActiveMultiset, FeatureKind, Schema, Split

TIE_TOL = 1e-12
_REAL = FeatureKind.REAL


def _gini_from_counts(total: int, ones: int) -> float:
    if total == 0:
        return 0.0
    return 2.0 * (ones / total) * ((total - ones) / total)


def _gain_from_counts(total: int, ones: int, left: int, left_ones: int) -> float:
    # Gain of a two-way split with `left`/`left_ones` mass on the left side.
    # A split with an empty side carries no information: gain 0 by definition.
    if total == 0:
        return 0.0
    right = total - left
    if left == 0 or right == 0:
        return 0.0
    right_ones = ones - left_ones
    g = 2.0 * (ones / total) * ((total - ones) / total)
    gl = 2.0 * (left_ones / left) * ((left - left_ones) / left)
    gr = 2.0 * (right_ones / right) * ((right - right_ones) / right)
    return max(0.0, g - (left * gl + right * gr) / total)


def gini_index(s: ActiveMultiset) -> float:
    """2 p (1 - p) for p the fraction of 1-labels; empty multiset gives 0."""
    n0, n1 = s.label_counts()
    return _gini_from_counts(n0 + n1, n1)


def gini_gain(s: ActiveMultiset, split: Split) -> float:
    """Impurity decrease of routing s through one split."""
    total = ones = left = left_ones = 0
    for e, c in s.items():
        total += c
        ones += c * e.label
        if split.routes_left(e.features):
            left += c
            left_ones += c * e.label
    return _gain_from_counts(total, ones, left, left_ones)


def _unzip(entries) -> tuple:
    """(features, labels, counts, total, ones) of (example, count) entries:
    three tuples in entry order, the total weight and the 1-label weight."""
    if not entries:
        return (), (), (), 0, 0
    examples, counts = zip(*entries)
    features, labels = zip(*examples)
    return features, labels, counts, sum(counts), sum(compress(counts, labels))


class _Columns:
    """Column arrays over a multiset snapshot, shared by the engine's builder
    and the exact split search.

    Real features go into one float64 matrix ``X`` (rows x real features).
    Categorical features go into one int64 matrix ``C`` of codes: each
    column's symbols get consecutive codes in sorted symbol order, offset so
    that codes of different columns never collide; ``symbols[code]`` and
    ``code_col[code]`` map a code back to its symbol and categorical column.
    Row i describes the i-th entry; the sweeps do not depend on row order.
    """

    __slots__ = ("w", "wy", "kinds", "num", "cat", "pos", "X", "C", "symbols",
                 "code_col")

    def __init__(self, features, labels, counts, schema: Optional[Schema]):
        # features, labels, counts: nonempty tuples as _unzip returns them.
        # The weights are held as float64 (integers, exact below 2**53) so
        # the sweeps' bincounts and cumsums convert nothing; they are made
        # as int64 first, which reads Python ints faster.
        w = np.array(counts, dtype=np.int64)
        self.w = w.astype(np.float64)
        self.wy = (w * np.array(labels, dtype=np.int64)).astype(np.float64)
        self.kinds = kinds = (schema.kinds if schema is not None
                              else (_REAL,) * len(features[0]))
        d = len(kinds)
        self.num = num = [j for j, k in enumerate(kinds) if k is _REAL]
        self.cat = cat = [j for j, k in enumerate(kinds) if k is not _REAL]
        self.pos = pos = [0] * d  # feature j is column pos[j] of X or of C
        for group in (num, cat):
            for jj, j in enumerate(group):
                pos[j] = jj
        self.X = self.C = None
        self.symbols = symbols = []
        self.code_col = code_col = []
        n, m = len(features), len(num)
        if m == d:
            self.X = np.fromiter(chain.from_iterable(features), dtype=np.float64,
                                 count=n * d).reshape(n, d)
            return
        by_col = list(zip(*features))
        if m:
            self.X = np.fromiter(chain.from_iterable(by_col[j] for j in num),
                                 dtype=np.float64, count=m * n).reshape(m, n).T.copy()
        codes = []
        for jj, j in enumerate(cat):
            col = by_col[j]
            values = sorted(set(col))
            codes.append(map(dict(zip(values, count(len(symbols)))).__getitem__,
                             col))
            symbols += values
            code_col += [jj] * len(values)
        mc = d - m
        self.C = np.fromiter(chain.from_iterable(codes), dtype=np.int64,
                             count=mc * n).reshape(mc, n).T.copy()


def _sweep_numeric(X: np.ndarray, w, wy, total: int, ones: int) -> list:
    """Best threshold of every real feature of one node in one pass.

    X holds the node's rows by real feature. Each column is sorted once
    (stably) and swept at its value boundaries: the candidate thresholds
    are the observed distinct values, and the largest routes everything
    left and scores 0. Per column the winner is the smallest threshold
    whose gain is within TIE_TOL of the column's best. Returns one
    (threshold, left, left_ones) per column so the caller can finalize the
    gain through the scalar kernel.

    The sort need not be stable: only the last row of each run of equal
    values is a candidate, and its running sums cover the whole run in any
    order, so every order of ties gives the same result.
    """
    cols = np.arange(X.shape[1])
    order = X.argsort(axis=0)
    sv = X[order, cols]
    # integer running sums, exact in float64 below 2**53
    wl = w[order].cumsum(axis=0, dtype=np.float64)
    wyl = wy[order].cumsum(axis=0, dtype=np.float64)
    wr = total - wl
    wyr = ones - wyl
    g = 2.0 * (ones / total) * ((total - ones) / total)
    dl = np.maximum(wl, 1.0)
    dr = np.maximum(wr, 1.0)
    gl = 2.0 * (wyl / dl) * ((wl - wyl) / dl)
    gr = 2.0 * (wyr / dr) * ((wr - wyr) / dr)
    gains = np.maximum(0.0, g - (wl * gl + wr * gr) / total)
    gains[(wl == 0) | (wr == 0)] = 0.0
    gains[:-1][sv[:-1] == sv[1:]] = -1.0  # not a value boundary

    sel = (gains >= gains.max(axis=0) - TIE_TOL).argmax(axis=0)
    return list(zip(sv[sel, cols].tolist(),
                    wl[sel, cols].astype(np.int64).tolist(),
                    wyl[sel, cols].astype(np.int64).tolist()))


def _sweep_categorical(C: np.ndarray, w, wy, total: int, ones: int,
                       code_col: list) -> list:
    """Best equality split of every categorical feature of one node.

    C holds the node's codes by categorical feature (see ``_Columns``).
    Scores every code present as the split {x_j == a} versus the rest, in
    code order, so ties resolve to the smallest symbol. Returns one
    (code, left, left_ones, gain) per column.
    """
    m = C.shape[1]
    codes = C.ravel()
    cw = np.bincount(codes, weights=w.repeat(m))
    cwy = np.bincount(codes, weights=wy.repeat(m))
    present = cw.nonzero()[0]
    best: list = [None] * m
    gains = [-1.0] * m
    # _gain_from_counts inlined: the same float operations in the same
    # order, so each gain is bit-identical to the kernel's. The counts stay
    # floats here; they are integers below 2**53, so every operation sees
    # the same values as with ints.
    g = 2.0 * (ones / total) * ((total - ones) / total)
    for code, left, left_ones in zip(present.tolist(), cw[present].tolist(),
                                     cwy[present].tolist()):
        right = total - left
        if right:
            right_ones = ones - left_ones
            gl = 2.0 * (left_ones / left) * ((left - left_ones) / left)
            gr = 2.0 * (right_ones / right) * ((right - right_ones) / right)
            gain = g - (left * gl + right * gr) / total
            if gain <= 0.0:  # as max(0.0, gain)
                gain = 0.0
        else:
            gain = 0.0
        jj = code_col[code]
        if gain > gains[jj] + TIE_TOL:
            best[jj] = (code, left, left_ones)
            gains[jj] = gain
    return [(code, int(left), int(left_ones), gain)
            for (code, left, left_ones), gain in zip(best, gains)]


def _sweep_all(s: ActiveMultiset):
    """Column snapshot of s and (threshold, left, left_ones, gain) per
    feature."""
    features, labels, counts, total, ones = _unzip(list(s._unsorted_items()))
    cols = _Columns(features, labels, counts, s.schema)
    out = [None] * len(cols.kinds)
    if cols.num:
        for j, (thr, left, left_ones) in zip(
            cols.num, _sweep_numeric(cols.X, cols.w, cols.wy, total, ones)
        ):
            out[j] = (thr, left, left_ones,
                      _gain_from_counts(total, ones, left, left_ones))
    if cols.cat:
        for j, (code, left, left_ones, gain) in zip(
            cols.cat, _sweep_categorical(cols.C, cols.w, cols.wy, total, ones,
                                         cols.code_col)
        ):
            out[j] = (cols.symbols[code], left, left_ones, gain)
    return cols, out


@dataclass(frozen=True)
class GainResult:
    """Outcome of an exhaustive split search over all features."""

    best_split: Split
    best_gain: float
    per_feature: tuple


def best_split(s: ActiveMultiset) -> GainResult:
    """Exact best split over every feature, observed thresholds only.

    Runs the sweeps the engine's builder runs at each node.
    """
    if len(s) == 0:
        raise ValueError("best_split needs a nonempty multiset")
    cols, found = _sweep_all(s)
    per_feature = []
    best_j, best_gain = 0, -1.0
    for j, (thr, _, _, gain) in enumerate(found):
        per_feature.append((thr, gain))
        if gain > best_gain + TIE_TOL:
            best_j, best_gain = j, gain
    thr, gain = per_feature[best_j]
    split = Split(best_j, thr, categorical=cols.kinds[best_j] is FeatureKind.CATEGORICAL)
    return GainResult(split, gain, tuple(per_feature))


def relative_edit_distance(s1: ActiveMultiset, s2: ActiveMultiset) -> float:
    """Edits to turn s1 into s2, relative to the larger size.

    Delta = |s1| + |s2| - 2 |s1 cap s2| with key-wise minimum multiplicities;
    the ratio can exceed 1 when the sets are near-disjoint.
    """
    n1, n2 = len(s1), len(s2)
    if n1 == 0 and n2 == 0:
        raise ValueError("relative edit distance of two empty multisets")
    small, large = (s1, s2) if s1.distinct_size <= s2.distinct_size else (s2, s1)
    inter = sum(min(c, large.count(e)) for e, c in small.items())
    return (n1 + n2 - 2 * inter) / max(n1, n2)
