"""Brute-force verification of the tree engine's guarantees.

Everything here recomputes from scratch: node populations come from
routing the ground-truth multiset through the tree, gains from exhaustive
enumeration over every feature and observed threshold, and the exact
variants run in rational arithmetic.  No code is shared with the engine's
incremental machinery beyond the basic multiset type.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional, Sequence

import numpy as np

from .core import (
    ActiveMultiset,
    FeasibilityParams,
    FeatureKind,
    LabeledExample,
    Schema,
    Split,
    make_example,
)
from . import gini as _gini_mod

_SLACK = 1e-12  # float guard on >=/<= comparisons of recomputed quantities


@dataclass
class Violation:
    condition: int
    node_path: str
    detail: str


@dataclass
class FeasibilityReport:
    ok: bool
    violation: Optional[Violation] = None

    def __str__(self) -> str:
        if self.ok:
            return "feasible"
        v = self.violation
        return f"violated condition ({v.condition}) at {v.node_path}: {v.detail}"


class _Columns:
    """Raw arrays for one ground-truth snapshot: ``counts`` holds each
    distinct example's count and 1-label count, one row per example."""

    def __init__(self, s: ActiveMultiset):
        # in storage order: no verdict depends on the rows' order
        entries = s._unsorted_items()
        n = len(entries)
        self.n = n
        w = np.fromiter((c for _, c in entries), dtype=np.int64, count=n)
        y = np.fromiter((e.label for e, _ in entries), dtype=np.int64, count=n)
        self.counts = np.stack([w, w * y], axis=1)
        # a multiset pins its schema at its first insert
        self.kinds = s.schema.kinds if s.schema is not None else ()
        self.cols = []
        for j, kind in enumerate(self.kinds):
            vals = [e.features[j] for e, _ in entries]
            if kind is FeatureKind.REAL:
                self.cols.append(np.asarray(vals, dtype=np.float64))
            else:
                self.cols.append(np.asarray(vals, dtype=object))


# Cells (thresholds times rows) of one block of masks in _sides, a memory
# bound: a cell takes one byte as a bool and eight more while the product
# casts it to int64, so a block's temporaries stay near 0.6 MB.  A node of
# more rows takes one threshold per block.
_BLOCK_CELLS = 1 << 16


def _goes_left(sub, t, categorical: bool):
    # x == t for a categorical split, x <= t for a real one; t broadcasts
    return sub == t if categorical else sub <= t


def _sides(sub: np.ndarray, counts: np.ndarray, thresholds, categorical: bool):
    """Per threshold, the count and the 1-label count of the rows that go
    left, as two lists: sub holds the rows' values of one feature and
    counts their counts.  Each block of thresholds is one boolean
    (thresholds x rows) matrix, times counts in integers."""
    thresholds = np.asarray(thresholds, dtype=object if categorical else float)
    step = max(1, _BLOCK_CELLS // max(1, len(sub)))
    return np.concatenate([
        _goes_left(sub, thresholds[i:i + step, None], categorical) @ counts
        for i in range(0, len(thresholds), step)
    ]).T.tolist()


def _float_gain(total: int, ones: int, left: int, left_ones: int) -> float:
    if left == 0 or left == total or total == 0:
        return 0.0
    right = total - left
    right_ones = ones - left_ones
    p = ones / total
    pl = left_ones / left
    pr = right_ones / right
    g = 2.0 * p * (1.0 - p)
    gl = 2.0 * pl * (1.0 - pl)
    gr = 2.0 * pr * (1.0 - pr)
    return g - (left * gl + right * gr) / total


def _best_gain_for_feature(sub: np.ndarray, counts: np.ndarray, total: int,
                           ones: int, categorical: bool):
    """(gain, threshold) maximal for one feature over the values it takes
    in S_v: sub holds them, one per row, counts the rows' counts, and
    total and ones are the column sums of counts."""
    thresholds = np.unique(sub)
    best_gain, best_thr = -1.0, None
    for t, left, left_ones in zip(
            thresholds.tolist(), *_sides(sub, counts, thresholds, categorical)):
        gain = _float_gain(total, ones, left, left_ones)
        if gain > best_gain + _SLACK:
            best_gain, best_thr = gain, t
    return best_gain, best_thr


def exhaustive_split_search(s: ActiveMultiset):
    """Brute-force best split: (split, gain, per-feature (threshold, gain))."""
    if len(s) == 0:
        raise ValueError("exhaustive_split_search needs a nonempty multiset")
    cols = _Columns(s)
    total, ones = cols.counts.sum(axis=0).tolist()
    per_feature = []
    best_j, best_gain = 0, -1.0
    for j, kind in enumerate(cols.kinds):
        gain, thr = _best_gain_for_feature(
            cols.cols[j], cols.counts, total, ones, kind is FeatureKind.CATEGORICAL)
        per_feature.append((thr, gain))
        if gain > best_gain + _SLACK:
            best_j, best_gain = j, gain
    thr, gain = per_feature[best_j]
    split = Split(best_j, thr, categorical=cols.kinds[best_j] is FeatureKind.CATEGORICAL)
    return split, gain, tuple(per_feature)


def _preorder(tree, cols: _Columns):
    """Yield (node, idx, depth, name, parent) for every node of tree in
    preorder: idx the rows of cols that route to node, name its path from
    the root, such as root.L.R, and parent None at the root."""
    root = tree.root if hasattr(tree, "root") else tree
    stack = [(root, np.arange(cols.n), 0, "root", None)]
    while stack:
        item = stack.pop()
        yield item
        node, idx, depth, name, _ = item
        if not node.is_leaf:
            split = node.split
            mask = _goes_left(cols.cols[split.feature][idx], split.threshold,
                              split.categorical)
            stack.append((node.right, idx[~mask], depth + 1, name + ".R", node))
            stack.append((node.left, idx[mask], depth + 1, name + ".L", node))


def check_feasibility(
    tree, s: ActiveMultiset, params: FeasibilityParams
) -> FeasibilityReport:
    """Verify the three feasibility conditions on every node.

    Node populations are recomputed by routing s from the root; split
    quality is judged against exhaustive search over every feature and
    every threshold observed in that node's population.  Returns the first
    violation in preorder, if any.

    A node whose examples all share one feature vector is exempt from the
    internal-force clause of condition (1): no split separates it, so a
    leaf is the only way such a node can terminate.
    """
    cols = _Columns(s)
    for node, idx, depth, name, _ in _preorder(tree, cols):
        counts = cols.counts[idx]
        total, ones = counts.sum(axis=0).tolist()
        pure = ones == 0 or ones == total
        g = 0.0 if total == 0 else 2.0 * (ones / total) * (1.0 - ones / total)

        must_leaf = (
            total <= params.k
            or pure
            or (params.h is not None and depth == params.h)
        )
        if must_leaf and not node.is_leaf:
            return FeasibilityReport(False, Violation(
                1, name,
                f"must be a leaf: |S_v|={total}, gini={g:.6g}, depth={depth}",
            ))
        # separable: some feature takes two distinct values on S_v, so
        # some split puts at least one example on each side
        if (
            not must_leaf
            and g >= params.alpha
            and node.is_leaf
            and any(sub.min() < sub.max()
                    for sub in (col[idx] for col in cols.cols))
        ):
            return FeasibilityReport(False, Violation(
                1, name,
                f"must be internal: gini={g:.6g} >= alpha={params.alpha}",
            ))

        if node.is_leaf:
            kept = ones if node.leaf_label == 1 else total - ones
            other = total - kept
            if kept < other:
                return FeasibilityReport(False, Violation(
                    3, name,
                    f"label {node.leaf_label} is a minority: {kept} vs {other}",
                ))
            continue

        best_gain = max((
            _best_gain_for_feature(col[idx], counts, total, ones,
                                   kind is FeatureKind.CATEGORICAL)[0]
            for col, kind in zip(cols.cols, cols.kinds)))
        split = node.split
        (left,), (left_ones,) = _sides(cols.cols[split.feature][idx], counts,
                                       [split.threshold], split.categorical)
        own = _float_gain(total, ones, left, left_ones)
        if own + _SLACK < best_gain - params.beta:
            return FeasibilityReport(False, Violation(
                2, name,
                f"split gain {own:.6g} below best {best_gain:.6g} - beta={params.beta}",
            ))
    return FeasibilityReport(True)


@dataclass
class CounterReport:
    ok: bool
    detail: Optional[str] = None


def check_counters(tree, s: ActiveMultiset, epsilon: float) -> CounterReport:
    """Verify the rebuild counters against the ground-truth populations.

    At rest every node must satisfy (1-eps) size <= |S_v| <= (1+eps) size,
    pending <= eps * size, and a child's pending never exceeds its
    parent's.  Small float guards absorb rounding of the products.
    """
    cols = _Columns(s)
    for node, idx, _, name, parent in _preorder(tree, cols):
        total = int(cols.counts[idx, 0].sum())
        lo = (1.0 - epsilon) * node.size - 1e-9
        hi = (1.0 + epsilon) * node.size + 1e-9
        if not (lo <= total <= hi):
            return CounterReport(
                False,
                f"{name}: |S_v|={total} outside [{lo:.6g}, {hi:.6g}] for size={node.size}",
            )
        if node.pending > epsilon * node.size + 1e-9:
            return CounterReport(
                False,
                f"{name}: pending={node.pending} exceeds eps*size={epsilon * node.size:.6g}",
            )
        if parent is not None and node.pending > parent.pending:
            return CounterReport(
                False,
                f"{name}: pending={node.pending} exceeds parent's {parent.pending}",
            )
    return CounterReport(True)


def exact_gini(s: ActiveMultiset) -> Fraction:
    n0, n1 = s.label_counts()
    n = n0 + n1
    if n == 0:
        return Fraction(0)
    return 2 * Fraction(n1, n) * Fraction(n0, n)


def exact_gain(s: ActiveMultiset, split: Split) -> Fraction:
    """Gini gain of one split in exact rational arithmetic."""
    total = ones = left = left_ones = 0
    for e, c in s.items():
        total += c
        ones += c * e.label
        if split.routes_left(e.features):
            left += c
            left_ones += c * e.label
    if total == 0 or left == 0 or left == total:
        return Fraction(0)
    right = total - left
    right_ones = ones - left_ones

    def gini(n, n1):
        return 2 * Fraction(n1, n) * Fraction(n - n1, n)

    g = gini(total, ones)
    return g - (left * gini(left, left_ones) + right * gini(right, right_ones)) / total


def exact_feature_gains(s: ActiveMultiset) -> list[Fraction]:
    """Per feature, the exact maximal gain over observed thresholds."""
    if len(s) == 0:
        raise ValueError("exact_feature_gains needs a nonempty multiset")
    out = []
    for j, kind in enumerate(s.schema.kinds):
        values = sorted({e.features[j] for e in s})
        cat = kind is FeatureKind.CATEGORICAL
        best = Fraction(0)
        for t in values:
            gain = exact_gain(s, Split(j, t, categorical=cat))
            if gain > best:
                best = gain
        out.append(best)
    return out


def generate_index_instance(
    N: int,
    D: int,
    k: int,
    A: Sequence[Sequence[int]],
    kappa: int,
    ell: int,
) -> tuple[ActiveMultiset, ActiveMultiset]:
    """Hard-instance fixture with closed-form gains.

    Encodes an N x D bit matrix A into a stream over {0,1}^(D + Dbar)
    where Dbar suffix bits name the originating row group.  The full set
    holds 2k examples per group; the reduced set keeps only the groups of
    row kappa and of probe column ell (both in full), on which the best
    split is feature ell with gain exactly 1/6, every other probe feature
    gains exactly 1/8, and the suffix features gain 0.
    """
    if N < 1 or D < 1:
        raise ValueError("N and D must be positive")
    if k < 2 or k % 2 != 0:
        raise ValueError(f"k must be a positive even integer >= 2, got {k}")
    if not 1 <= kappa <= N or not 1 <= ell <= D:
        raise ValueError("kappa must be in [1, N] and ell in [1, D]")
    if len(A) != N or any(len(row) != D for row in A):
        raise ValueError("A must be an N x D 0/1 matrix")

    dbar = math.ceil(math.log2(N + D) + 1)
    schema = Schema.numeric(D + dbar)

    def suffix(i: int) -> tuple[int, ...]:
        return tuple((i >> (dbar - 1 - b)) & 1 for b in range(dbar))

    def group(i: int) -> list[LabeledExample]:
        out = []
        suf = suffix(i)
        for h in range(1, 2 * k + 1):
            label = 1 if h > k else 0
            if i <= N:
                row = A[i - 1]
                head = tuple(
                    (1 - row[j]) if h <= k else row[j] for j in range(D)
                )
            else:
                col = i - N
                on = 1 if h % 2 == 0 else 0
                head = tuple(on if (j + 1) != col else 0 for j in range(D))
            out.append(make_example(head + suf, label))
        return out

    full = ActiveMultiset(schema)
    reduced = ActiveMultiset(schema)
    for i in range(1, N + D + 1):
        for e in group(i):
            full.insert(e)
            if i == kappa or i == N + ell:
                reduced.insert(e)
    return full, reduced


@dataclass
class SmoothnessReport:
    trials: int
    checks: int
    violations: list = field(default_factory=list)
    worst_ratio: float = 0.0

    @property
    def ok(self) -> bool:
        return not self.violations


def _edit_distance_ratio(s1: ActiveMultiset, s2: ActiveMultiset) -> float:
    inter = sum(min(c, s2.count(e)) for e, c in s1.items())
    return (len(s1) + len(s2) - 2 * inter) / max(len(s1), len(s2))


def audit_smoothness(trials: int = 1000, seed: int = 0) -> SmoothnessReport:
    """Randomized audit of the edit-distance smoothness bounds.

    For seeded random multiset pairs related by a batch of edits, checks
    |gini(S) - gini(S')| <= 2.5 ED* and, over a grid of splits,
    |gain(S) - gain(S')| <= 12.5 ED*; every trial also applies a lone edit
    and checks the strict single-edit bound 2 / max(|S|, |S'|).
    """
    rng = random.Random(seed)
    report = SmoothnessReport(trials=trials, checks=0)

    def note(diff, bound, what):
        if bound > 0:
            report.worst_ratio = max(report.worst_ratio, diff / bound)
        if diff > bound:
            report.violations.append({"what": what, "diff": diff, "bound": bound})

    for _ in range(trials):
        d = rng.randint(1, 5)
        n = rng.randint(1, 200)
        grid = rng.randint(2, 8)
        schema = Schema.numeric(d)
        p1 = rng.uniform(0.2, 0.8)

        def draw():
            feats = tuple(float(rng.randrange(grid)) for _ in range(d))
            return make_example(feats, 1 if rng.random() < p1 else 0)

        base = [draw() for _ in range(n)]
        s = ActiveMultiset.from_examples(base, schema)

        s2 = s.copy()
        pool = list(base)
        for _ in range(rng.randrange(41)):
            if pool and rng.random() < 0.5:
                victim = pool.pop(rng.randrange(len(pool)))
                s2.delete(victim)
            else:
                e = draw()
                s2.insert(e)
                pool.append(e)
        ed = _edit_distance_ratio(s, s2)
        note(abs(_gini_mod.gini_index(s) - _gini_mod.gini_index(s2)),
             2.5 * ed, "gini pair")
        report.checks += 1
        for j in range(d):
            seen = sorted(
                {e.features[j] for e in s} | {e.features[j] for e in s2}
            )
            step = max(1, len(seen) // 4)
            for t in seen[::step]:
                split = Split(j, t)
                note(abs(_gini_mod.gini_gain(s, split) - _gini_mod.gini_gain(s2, split)),
                     12.5 * ed, "gain pair")
                report.checks += 1

        s3 = s.copy()
        if len(base) and rng.random() < 0.5:
            s3.delete(rng.choice(base))
        else:
            s3.insert(draw())
        strict = 2.0 / max(len(s), len(s3))
        diff = abs(_gini_mod.gini_index(s) - _gini_mod.gini_index(s3))
        report.worst_ratio = max(report.worst_ratio, diff / strict)
        if not diff < strict:
            report.violations.append(
                {"what": "single edit", "diff": diff, "bound": strict}
            )
        report.checks += 1
    return report
