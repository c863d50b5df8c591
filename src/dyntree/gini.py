"""Gini impurity, split gain and the split kernels.

``gini_gain`` scores one split through the scalar kernel
``_gain_from_counts``.  The engine's sweeps score every candidate of a
node at once: the numeric sort sweep and the binned sweep in numpy arrays
(one helper, ``_gains``, holds their arithmetic), the list sweep, the
Python scan of rank codes and the two categorical sweeps in inlined
copies of the kernel.  The list sweep and the scan of rank codes run
the kernel's float operations in its order; ``_gains`` and the categorical
sweeps run them without the kernel's factors 2.0, so every value they
compute is half the kernel's, and double each gain once at the end, which
is exact: scaling by 2 commutes with rounding away from overflow and the
subnormal range.  So a gain a sweep reports equals what ``gini_gain``
computes for the same split, bit for bit.  A sweep returns its winners'
counts as the floats it sums them in, integers exact below 2**53; the sort
sweep takes both running sums in one complex cumsum, counts in the real
part and 1-label counts in the imaginary one, and complex addition adds
the parts apart, so each part is its integer running sum exactly.  It
gathers those sums into a scratch kept across calls, one per thread and at
most ``SCRATCH_CELLS`` cells (``_sums``), so a rebuild of a large node
does not take fresh memory for its largest temporary.

Every gain lies in [0, 0.5], and the sort sweep drops a candidate that is
not at a value boundary out of the running by subtracting 1 from its
gain: it lands at -0.5 or below, never within ``TIE_TOL`` of a column's
best, which is at least 0.

Ties follow one rule: the first candidate whose gain is within
``TIE_TOL`` of the best wins, so a real column's smallest such threshold
and, in ``build``'s node sweep, a node's lowest such feature.  A
categorical column scans its codes in order and keeps a later code only
when it beats the best so far by more than ``TIE_TOL``.

``build``'s node sweep picks the kernel that sweeps a node's real
columns.  Real columns that repeat values can also be split by counting,
as categorical ones are: ``_rank_codes`` turns a sort sweep's sort into
dense rank codes, global across the columns, each column's codes one
block in value order, and the binned sweep (``_sweep_binned``) takes two
bincounts and cumsums over the codes present.  Each row has one code per
column, so column j's running sums over the codes present run on from
``j * total`` and ``j * ones``; less those offsets they are the sort
sweep's running sums exactly, and the winner is the same, bit for bit.

Coded columns, rank-coded or categorical, are counted by two bincounts
and swept in one of two forms: a Python scan of the whole code range,
which skips the codes a node lacks (``_scan_binned``,
``_sweep_categorical``), or a sweep of the codes present only
(``_sweep_binned``, ``_sweep_categorical_present``).  The scan costs
per code of the range and the other per node, so ``build``'s node sweep
picks the form by the code range (``SCAN_CODES``); each pair returns the
same tuples, bit for bit.  Both categorical forms run one strict scan,
in ``_sweep_categorical``, so the categorical tie rule stays one rule.
"""

from __future__ import annotations

import threading
from itertools import count

import numpy as np

from .core import ActiveMultiset, Split

TIE_TOL = 1e-12

# The sort sweep's running sums of up to SCRATCH_CELLS cells (16 bytes
# each) go to a scratch that this thread keeps across sweeps (``_sums``);
# 1 MiB is eight times a 1000x8 node, and a larger node, which sorts far
# more than it allocates, takes a fresh array.
SCRATCH_CELLS = 1 << 16
_scratch = threading.local()


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


def _gains(wl, wyl, total: int, ones: int):
    """``_gain_from_counts`` elementwise, over the running left sums wl,
    wyl of a sweep: the same float operations in the same order on the
    same (integer-valued) counts, so each gain is bit-identical to the
    kernel's.  Every left count is at least 1; where the right count is 0
    it divides by 1, and the caller sets that gain to 0, as the kernel
    defines it.  The right count's stand-in dr = max(wr, 1) also serves
    as the factor wr of wr * gr: it equals wr wherever wr >= 1, and where
    wr is 0 the right 1-label count is 0 too, so gr and both products
    are 0.

    The arithmetic runs in place on four temporaries of wl's shape, and
    it leaves out the kernel's factors 2.0 of g, gl and gr: every value
    below is half the kernel's, and the result is doubled once, after
    ``max(0, .)``.  That is exact, as scaling by 2 commutes with rounding
    away from overflow and the subnormal range, and no value here comes
    near either: the counts are integers below 2**53, so each nonzero
    value lies between about 2**-160 and 2**53.
    """
    g = (ones / total) * ((total - ones) / total)
    gl = wyl / wl
    t = wl - wyl
    t /= wl
    gl *= t
    gl *= wl  # wl * gl
    wr = total - wl
    dr = np.maximum(wr, 1.0)
    np.subtract(ones, wyl, out=t)  # wyr
    wr -= t
    wr /= dr
    t /= dr
    t *= wr  # gr
    t *= dr  # wr * gr
    gl += t
    gl /= total
    np.subtract(g, gl, out=gl)
    np.maximum(gl, 0.0, out=gl)
    gl *= 2.0
    return gl


def _sweep_numeric(X: np.ndarray, w, wy, total: int, ones: int,
                   layout: list | None = None) -> list:
    """Best threshold of every real feature of one node in one pass.

    X holds the node's rows by real feature, and w, wy their counts and
    1-label counts; every row is a held row, so w >= 1 everywhere.  Each
    column is sorted once and swept at its value boundaries: the candidate
    thresholds are the observed distinct values, and the largest routes
    everything left and scores 0.  Per column the winner is the smallest
    threshold whose gain is within TIE_TOL of the column's best.  Returns
    one (threshold, left, left_ones, gain) per column, the counts as
    floats.

    X may be laid out in any order.  The sweep works on X.T made
    contiguous (a copy unless X is column-major), so that each column's
    sort, sorted values, running sums and gains lie in one contiguous row
    of a (columns, rows) array, and each column's best gain and winner are
    reductions along that row: along axis 0 of a row-major (rows, columns)
    matrix, numpy's sorts and reductions take strided slow paths.

    When layout is a list, (V, order, sorted values, ties) is appended to
    it, for ``_rank_codes``: V the number of distinct values summed over
    the columns, and (rows, columns) views, column-major, of the sweep's
    arrays, ``order[i, j]`` the row of column j's i-th smallest value and
    ``ties[i, j]`` whether it equals the next one.

    Both running sums come from one cumsum over a complex128 vector, w
    the real part and wy the imaginary one, gathered by the sort; the
    parts are then copied out, contiguous, as wl and wyl.  Complex
    addition adds the parts apart, and the sums are integers below 2**53,
    so each part is its running sum exactly.  The gains come from
    ``_gains``.  As w >= 1, the left count is at least 1 on every row and
    the right count is 0 only on the last.

    The running sums go to the scratch from ``_sums``, which the next sweep
    overwrites; the sort gathers into it with ``take(out=...,
    mode="clip")``: the sort's indices are in range, and numpy buffers
    ``out`` in mode "raise".  Nothing the sweep returns or appends to
    layout is a view of it.  The scratch pays where the array is large: at
    1000x8 cells it is 128 KB.  With a fresh one per sweep, an eps=0
    sliding window of 1000 rows of 8 real features, which rebuilds such a
    root at every update, took about 100 minor page faults per update in a
    fresh process (memory the allocator had handed back to the system),
    against none with the scratch; how many depends on the heap's history.

    A candidate that is not at a value boundary is folded out by
    subtracting its tie flag (1.0) from its gain.  Every gain lies in
    [0, 0.5], so such a candidate drops to -0.5 or below, while the best
    gain of a column is at least 0 (the last candidate scores 0): it is
    never within TIE_TOL of the best, and never the winner.

    The sort need not be stable: only the last row of each run of equal
    values is a candidate, and its running sums cover the whole run in any
    order.  The threshold is that row's value, so values that compare
    equal must be one value: the row store codes -0.0 as 0.0.
    """
    n, m = X.shape
    XT = np.ascontiguousarray(X.T)
    order = XT.argsort(axis=1)
    at = np.arange(0, X.size, n)  # flat index of each column's first cell
    sv = XT.take(order + at[:, None])
    # both running sums in one cumsum: w real, wy imaginary
    z = np.empty(n, dtype=np.complex128)
    z.real, z.imag = w, wy
    zl = _sums(X.size).reshape(m, n)
    z.take(order, out=zl, mode="clip")
    zl.cumsum(axis=1, out=zl)
    wl, wyl = zl.real.copy(), zl.imag.copy()
    gains = _gains(wl, wyl, total, ones)
    gains[:, -1] = 0.0  # everything left
    # full width, so that the fold below runs contiguous; the last
    # candidate of a column has no next value and stays False
    tie = np.zeros((m, n), dtype=bool)
    np.equal(sv[:, :-1], sv[:, 1:], out=tie[:, :-1])
    # not a value boundary: the gain drops below every column's best
    np.subtract(gains, tie, out=gains)
    if layout is not None:
        layout += (X.size - np.count_nonzero(tie), order.T, sv.T,
                   tie[:, :-1].T)

    # at becomes the flat index of each column's winner
    at += (gains >= gains.max(axis=1, keepdims=True) - TIE_TOL).argmax(axis=1)
    return list(zip(sv.take(at).tolist(),
                    wl.take(at).tolist(),
                    wyl.take(at).tolist(),
                    gains.take(at).tolist()))


def _sums(cells: int) -> np.ndarray:
    """A contiguous complex128 array of cells elements for the sort sweep's
    running sums, which the caller may overwrite until its next call in
    the same thread.

    Up to ``SCRATCH_CELLS`` cells it is a view of this thread's scratch,
    which grows to the largest such request and is kept for the next
    sweep; a larger array is allocated afresh and freed with its sweep, so
    a process keeps at most SCRATCH_CELLS * 16 bytes per thread that
    sweeps, whatever the largest node it has built.
    """
    if cells > SCRATCH_CELLS:
        return np.empty(cells, dtype=np.complex128)
    buf = getattr(_scratch, "sums", None)
    if buf is None or len(buf) < cells:
        _scratch.sums = buf = np.empty(cells, dtype=np.complex128)
    return buf[:cells]


def _sweep_list(cols: list, w: list, wy: list, total: int,
                ones: int) -> list:
    """``_sweep_numeric`` of a small node, on Python lists.

    cols holds the node's real columns, each a list of the rows' values,
    and w, wy the rows' counts and 1-label counts.  Each column is sorted
    once and scanned at its value boundaries, which are the sort sweep's
    candidates, with ``_gain_from_counts`` inlined in the same float order
    on the same running sums.  The winner is picked by the same rule, so
    the result equals the sort sweep's bit for bit.
    """
    g = 2.0 * (ones / total) * ((total - ones) / total)
    rows = range(len(w))
    out = []
    for col in cols:
        cands = []  # (threshold, left, left_ones) at each value boundary
        gains = []
        left = left_ones = 0.0  # integers, exact in a float below 2**53
        order = sorted(rows, key=col.__getitem__)
        prev = col[order[0]]
        for i in order:
            v = col[i]
            if v != prev:
                right = total - left
                right_ones = ones - left_ones
                gl = 2.0 * (left_ones / left) * ((left - left_ones) / left)
                gr = 2.0 * (right_ones / right) * ((right - right_ones)
                                                   / right)
                gain = g - (left * gl + right * gr) / total
                gains.append(gain if gain > 0.0 else 0.0)  # max(0.0, gain)
                cands.append((prev, left, left_ones))
                prev = v
            left += w[i]
            left_ones += wy[i]
        gains.append(0.0)  # everything left
        cands.append((prev, left, left_ones))
        floor = max(gains) - TIE_TOL
        k = 0
        while gains[k] < floor:
            k += 1
        thr, left, left_ones = cands[k]
        out.append((thr, left, left_ones, gains[k]))
    return out


def _rank_codes(order, sv, tie) -> tuple:
    """Dense rank codes of a node's real columns, from their sort (see
    ``_sweep_numeric``'s layout).

    Returns (R, vals, starts, code_col): R[i, j] is the code of row i's
    value in column j, global across columns, column j's codes the block
    from starts[j] in value order; vals[code] is the value and
    code_col[code] the column of a code.  R is row-major, whatever the
    layout of the sort, as the nodes below gather its rows.
    """
    n, m = sv.shape
    # each column's running count of distinct values along one contiguous
    # row, as the sort sweep lays its columns out
    rk = np.empty((m, n), dtype=np.intp)
    rk[:, 0] = 0
    np.cumsum(~tie.T, axis=1, out=rk[:, 1:])
    distinct = rk[:, -1] + 1
    starts = np.zeros(m, dtype=np.intp)
    np.cumsum(distinct[:-1], out=starts[1:])
    rk += starts[:, None]
    R = np.empty((n, m), dtype=np.intp)
    R[order, np.arange(m)] = rk.T
    vals = np.empty(starts[-1] + distinct[-1])
    vals[rk] = sv.T
    return R, vals, starts, np.arange(m).repeat(distinct)


def _sweep_binned(R: np.ndarray, w, wy, total: int, ones: int, starts,
                  code_col) -> list:
    """``_sweep_numeric`` of one node from the rank codes R of its rows.

    starts and code_col are ``_rank_codes``'.  Counts each code's weight,
    keeps the codes present (the node's distinct values) and sweeps them
    in code order, so it scores the same candidates as the sort sweep,
    with the same integer running sums and the same float operations.
    Returns one (code, left, left_ones, gain) per column: the winner's
    threshold is vals[code].
    """
    m = R.shape[1]
    codes = R.ravel()
    cw = np.bincount(codes, weights=w.repeat(m))
    cwy = np.bincount(codes, weights=wy.repeat(m))
    present = cw.nonzero()[0]
    col = code_col[present]
    # each column's weights sum to total (and its 1-labels to ones), so
    # column j's running sums start at j * total and j * ones
    wl = cw[present].cumsum() - col * total
    wyl = cwy[present].cumsum() - col * ones
    gains = _gains(wl, wyl, total, ones)
    gains[wl == total] = 0.0  # each column's last code: everything left

    # per column, the smallest code within TIE_TOL of the column's best
    first = present.searchsorted(starts)
    best = np.maximum.reduceat(gains, first)
    hit = (gains >= (best - TIE_TOL)[col]).nonzero()[0]
    sel = hit[hit.searchsorted(first)]
    return list(zip(present[sel].tolist(),
                    wl[sel].tolist(),
                    wyl[sel].tolist(),
                    gains[sel].tolist()))


def _scan_binned(R: np.ndarray, w, wy, total: int, ones: int,
                 starts) -> list:
    """``_sweep_binned`` in Python, over the whole code range.

    Reads the two bincounts as lists and walks each column's block of
    codes, from starts[j] to the next column's start, skipping the codes
    the node lacks.  Each code present is a value boundary of the sort
    sweep, scored as ``_sweep_list`` scores it, with the same float
    operations in the same order on the same integer running sums, and
    the winner is picked by the same rule, so the result equals
    ``_sweep_binned``'s bit for bit.  Its time grows with the code range,
    which ``build``'s node sweep bounds (``SCAN_CODES``).
    """
    m = R.shape[1]
    codes = R.ravel()
    cw = np.bincount(codes, weights=w.repeat(m)).tolist()
    cwy = np.bincount(codes, weights=wy.repeat(m)).tolist()
    # the last column's block ends at the node's largest code
    bounds = starts.tolist() + [len(cw)]
    g = 2.0 * (ones / total) * ((total - ones) / total)
    out = []
    for lo, hi in zip(bounds, bounds[1:]):
        cands = []  # (code, left, left_ones) at each code present
        gains = []
        left = left_ones = 0.0  # integers, exact in a float below 2**53
        for code in range(lo, hi):
            c = cw[code]
            if not c:
                continue
            left += c
            left_ones += cwy[code]
            right = total - left
            if right:
                right_ones = ones - left_ones
                gl = 2.0 * (left_ones / left) * ((left - left_ones) / left)
                gr = 2.0 * (right_ones / right) * ((right - right_ones)
                                                   / right)
                gain = g - (left * gl + right * gr) / total
                gains.append(gain if gain > 0.0 else 0.0)  # max(0.0, gain)
            else:
                gains.append(0.0)  # the column's last code: everything left
            cands.append((code, left, left_ones))
        floor = max(gains) - TIE_TOL
        k = 0
        while gains[k] < floor:
            k += 1
        code, left, left_ones = cands[k]
        out.append((code, left, left_ones, gains[k]))
    return out


def _sweep_categorical(C: np.ndarray, w, wy, total: int, ones: int,
                       code_col: list, present: bool = False) -> list:
    """Best equality split of every categorical feature of one node.

    C holds the node's codes by categorical feature (see ``core._Store``).
    Scores every code present as the split {x_j == a} versus the rest, in
    code order, so ties resolve to the smallest symbol. Returns one
    (code, left, left_ones, gain) per column.

    The codes' weights and 1-label weights come from two bincounts.  One
    strict scan walks them: over the whole code range, read as whole
    lists, skipping the codes the node lacks; or, with present, over the
    codes present only, found from a bool mask (numpy's ``nonzero`` of a
    float array takes about ten times as long), so that the Python work
    follows the node's cells, whatever the store's alphabet.  ``build``'s
    node sweep picks the form by the code range (``SCAN_CODES``).

    Each gain is ``_gain_from_counts`` inlined as ``_gains`` runs it: the
    same float operations in the same order without the factors 2.0, so
    every value is half the kernel's, and each winner's gain is doubled
    once, on return.  A code beats its column's best half-gain by more
    than TIE_TOL / 2 exactly when its gain beats the best gain by more
    than TIE_TOL, so the winners are the full-gain scan's; each column
    keeps that bar, its best half-gain plus TIE_TOL / 2, as it is
    passed.  The counts stay floats; they are integers below 2**53, so
    every operation sees the same values as with ints.
    """
    m = C.shape[1]
    codes = C.ravel()
    cw = np.bincount(codes, weights=w.repeat(m))
    cwy = np.bincount(codes, weights=wy.repeat(m))
    if present:
        at = (cw != 0).nonzero()[0]
        scan = zip(at.tolist(), cw[at].tolist(), cwy[at].tolist())
    else:
        scan = zip(count(), cw.tolist(), cwy.tolist())
    best: list = [None] * m  # (code, left, left_ones, half-gain)
    tol = TIE_TOL / 2
    bars = [-1.0 + tol] * m
    g = (ones / total) * ((total - ones) / total)
    for code, left, left_ones in scan:
        if not left:
            continue
        right = total - left
        if right:
            right_ones = ones - left_ones
            gl = (left_ones / left) * ((left - left_ones) / left)
            gr = (right_ones / right) * ((right - right_ones) / right)
            gain = g - (left * gl + right * gr) / total
            if gain <= 0.0:  # as max(0.0, gain)
                gain = 0.0
        else:
            gain = 0.0
        jj = code_col[code]
        if gain > bars[jj]:
            best[jj] = (code, left, left_ones, gain)
            bars[jj] = gain + tol
    return [(code, left, left_ones, 2.0 * gain)
            for code, left, left_ones, gain in best]


def _sweep_categorical_present(C: np.ndarray, w, wy, total: int,
                               ones: int, code_col: list) -> list:
    """``_sweep_categorical`` over the codes present only: the form that
    ``build``'s node sweep takes for a code range above ``SCAN_CODES``."""
    return _sweep_categorical(C, w, wy, total, ones, code_col, True)
