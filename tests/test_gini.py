"""Gini index, gain and split search."""

import random
import threading

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from dyntree import (
    ActiveMultiset,
    DecisionTree,
    FeasibilityParams,
    Schema,
    Split,
    best_split,
    make_example,
)
from dyntree import gini
from dyntree.gini import gini_gain, gini_index
import dyntree.build as build_mod
from dyntree.oracle import exhaustive_split_search


def multiset(values, labels, cast=float):
    return ActiveMultiset.from_examples(
        [make_example((cast(v),), lab) for v, lab in zip(values, labels)]
    )


def test_gini_half_half():
    assert gini_index(multiset([0, 1], [0, 1])) == 0.5


def test_gini_three_quarters():
    assert gini_index(multiset([0, 1, 2, 3], [0, 1, 1, 1])) == pytest.approx(3 / 8)


def test_gini_empty_is_zero():
    assert gini_index(ActiveMultiset()) == 0.0


def test_gain_perfect_separation():
    s = multiset([0, 1], [0, 1])
    assert gini_gain(s, Split(0, 0.0)) == 0.5


def test_gain_pure_labels_is_zero():
    s = multiset([0, 1, 2], [1, 1, 1])
    for t in (0.0, 1.0, 2.0):
        assert gini_gain(s, Split(0, t)) == 0.0


def test_gain_empty_multiset_is_zero():
    assert gini_gain(ActiveMultiset(), Split(0, 1.0)) == 0.0


def test_gain_empty_side_is_zero():
    s = multiset([5, 5, 5], [0, 1, 0])
    assert gini_gain(s, Split(0, 5.0)) == 0.0
    assert gini_gain(s, Split(0, 4.0)) == 0.0


def test_best_split_numeric_boundary():
    s = multiset([1, 2, 3, 4], [0, 0, 1, 1])
    assert best_split(s).per_feature[0] == (2.0, 0.5)


def test_best_split_numeric_constant_feature():
    s = multiset([7, 7, 7], [0, 1, 0])
    thr, gain = best_split(s).per_feature[0]
    assert thr == 7.0
    assert gain == 0.0


def test_best_split_numeric_three_point():
    # brute force over t in {1, 2, 3}: gains 1/9, 1/9, 0; smallest threshold wins
    s = multiset([1, 2, 3], [0, 1, 0])
    by_hand = {t: gini_gain(s, Split(0, t)) for t in (1.0, 2.0, 3.0)}
    assert by_hand[1.0] == pytest.approx(1 / 9)
    assert by_hand[2.0] == pytest.approx(1 / 9)
    assert by_hand[3.0] == 0.0
    assert best_split(s).per_feature[0] == (1.0, pytest.approx(1 / 9))


def test_best_split_numeric_empty_raises():
    with pytest.raises(ValueError):
        best_split(ActiveMultiset(Schema.numeric(1)))


def test_best_split_single_example():
    res = best_split(multiset([3], [1]))
    assert res.best_gain == 0.0
    assert res.best_split.feature == 0


def test_best_split_prefers_lowest_feature_on_ties():
    # two identical features: both achieve the same gains everywhere
    exs = [make_example((float(v), float(v)), lab)
           for v, lab in [(0, 0), (1, 1), (2, 0), (3, 1)]]
    res = best_split(ActiveMultiset.from_examples(exs))
    assert res.best_split.feature == 0


def test_best_split_categorical_counts():
    exs = [make_example((sym,), lab)
           for sym, lab in [("a", 0), ("a", 0), ("b", 1), ("b", 1), ("c", 0)]]
    s = ActiveMultiset.from_examples(exs)
    value, gain = best_split(s).per_feature[0]
    assert value == "b"
    assert gain == pytest.approx(gini_index(s))  # b splits off all the 1s


@st.composite
def labeled_multisets(draw, max_n=40, d=1, grid=6):
    n = draw(st.integers(1, max_n))
    rng = random.Random(draw(st.integers(0, 2**31)))
    exs = [
        make_example(
            tuple(float(rng.randrange(grid)) for _ in range(d)), rng.randrange(2)
        )
        for _ in range(n)
    ]
    return ActiveMultiset.from_examples(exs)


@given(labeled_multisets())
def test_gini_range(s):
    g = gini_index(s)
    assert 0.0 <= g <= 0.5


@given(labeled_multisets(), st.integers(0, 5))
def test_gain_bounded_by_gini(s, t):
    gain = gini_gain(s, Split(0, float(t)))
    assert 0.0 <= gain <= gini_index(s) + 1e-12


@given(labeled_multisets(max_n=48, d=3))
@settings(max_examples=60, deadline=None)
def test_best_split_matches_exhaustive_enumeration(s):
    res = best_split(s)
    osplit, ogain, oper = exhaustive_split_search(s)
    assert res.best_split == osplit
    assert res.best_gain == pytest.approx(ogain, abs=1e-12)
    for (thr, gain), (othr, og) in zip(res.per_feature, oper):
        assert gain == pytest.approx(og, abs=1e-12)
        assert thr == othr


@given(labeled_multisets(max_n=30))
def test_best_split_gain_is_max_over_features(s):
    res = best_split(s)
    assert res.best_gain == pytest.approx(
        max(g for _, g in res.per_feature), abs=1e-15
    )


@given(st.integers(0, 2**31))
@settings(max_examples=60, deadline=None)
def test_categorical_gains_equal_the_scalar_kernel_bit_for_bit(seed):
    # the categorical sweep inlines the scalar gain kernel on float counts;
    # each winner's gain must equal gini_gain of the same split exactly
    # (the sweep computes half-gains and doubles each winner's once), with
    # examples held more than once
    rng = random.Random(seed)
    d = rng.randint(1, 3)
    exs = [make_example(tuple("abcd"[rng.randrange(4)] for _ in range(d)),
                        rng.randrange(2))
           for _ in range(rng.randint(1, 40))]
    held = [e for e in exs for _ in range(rng.randint(1, 4))]
    for s in (ActiveMultiset.from_examples(exs),
              ActiveMultiset.from_examples(held)):
        for j, (symbol, gain) in enumerate(best_split(s).per_feature):
            assert gain == gini_gain(s, Split(j, symbol, categorical=True))


def _sweep_categorical_reference(C, w, wy, total, ones, code_col):
    # the categorical sweep as it was written first: the codes present by
    # nonzero, and the scalar kernel inlined with its factors 2.0, so every
    # gain is the kernel's and is compared against TIE_TOL
    m = C.shape[1]
    codes = C.ravel()
    cw = np.bincount(codes, weights=w.repeat(m))
    cwy = np.bincount(codes, weights=wy.repeat(m))
    present = cw.nonzero()[0]
    best = [None] * m
    gains = [-1.0] * m
    g = 2.0 * (ones / total) * ((total - ones) / total)
    for code, left, left_ones in zip(present.tolist(), cw[present].tolist(),
                                     cwy[present].tolist()):
        right = total - left
        if right:
            right_ones = ones - left_ones
            gl = 2.0 * (left_ones / left) * ((left - left_ones) / left)
            gr = 2.0 * (right_ones / right) * ((right - right_ones) / right)
            gain = g - (left * gl + right * gr) / total
            if gain <= 0.0:
                gain = 0.0
        else:
            gain = 0.0
        jj = code_col[code]
        if gain > gains[jj] + gini.TIE_TOL:
            best[jj] = (code, left, left_ones)
            gains[jj] = gain
    return [(code, left, left_ones, gain)
            for (code, left, left_ones), gain in zip(best, gains)]


@pytest.mark.parametrize("tie_tol", [gini.TIE_TOL, 0.0, 1e-3, 0.05])
def test_categorical_sweep_equals_the_full_gain_reference(monkeypatch,
                                                          tie_tol):
    # both categorical sweeps, in half-gains, must return the reference's
    # winner tuples exactly, whatever TIE_TOL is, and so must build's node
    # sweep, whose SCAN_CODES sends every node to one of them: the sweep of
    # the codes present at 0, the scan of the whole code range at 10**9.
    # Inputs have row weights above 1, codes the store holds but the node
    # lacks (each column's block of codes is larger than the codes drawn;
    # in every third store, 5 to 12 times the node's rows), and columns
    # with one code present.  The wider tolerances make later codes within
    # TIE_TOL of a column's best, which the strict scan must pass over
    monkeypatch.setattr(gini, "TIE_TOL", tie_tol)
    tied = beaten = 0  # later codes that tie the winner, or beat it
    wide = 0  # stores whose code range is at least 5 times the node's cells
    for seed in range(300):
        rng = random.Random(seed)
        m = rng.randint(1, 4)
        n = rng.randint(1, 30)
        blocks = [rng.randint(5, 12) * n if seed % 3 == 0
                  else rng.randint(1, 7) for _ in range(m)]
        drawn = [rng.sample(range(b), rng.randint(1, min(b, 7)))
                 for b in blocks]
        node: dict = {}  # example: count
        for _ in range(n):
            e = make_example(tuple(f"{rng.choice(d):04d}" for d in drawn),
                             int(rng.random() < 0.4))
            node[e] = node.get(e, 0) + rng.choice((1, 2, 3, 5))
        # one example per symbol of each block, so that the store codes
        # every one of them
        rest = [make_example(tuple(f"{i if kk == jj else 0:04d}"
                                   for kk in range(m)), 0)
                for jj, b in enumerate(blocks) for i in range(b)]
        store = ActiveMultiset.from_examples(
            [e for e, c in node.items() for _ in range(c)] + rest)._store
        rows = np.array(sorted(store.row_of[e] for e in node))
        w, wy, _, C = store.columns(rows)
        args = C, w, wy, int(w.sum()), int(wy.sum()), store.code_col
        assert len(store.code_col) == sum(blocks)
        wide += len(store.code_col) >= 5 * C.size
        want = _sweep_categorical_reference(*args)
        assert repr(gini._sweep_categorical(*args)) == repr(want), seed
        assert (repr(gini._sweep_categorical_present(*args))
                == repr(want)), seed
        for scan_codes in (0, 10**9):
            monkeypatch.setattr(build_mod, "SCAN_CODES", scan_codes)
            sweep = build_mod._node_sweep(store, rows)
            assert repr(sweep(None, *args[3:5])[1]) == repr(want), seed
        for jj, (code, *_, gain) in enumerate(want):
            for later in set(C[:, jj].tolist()) - set(range(code + 1)):
                at = C[:, jj] == later
                g = gini._gain_from_counts(args[3], args[4],
                                           int(w[at].sum()),
                                           int(wy[at].sum()))
                tied += g == gain
                beaten += g > gain
    assert wide >= 100
    assert tied > 0
    assert (beaten > 0) == (tie_tol >= 1e-3)


@pytest.mark.parametrize("list_cells", [0, build_mod.LIST_CELLS],
                         ids=["sort_sweep", "default_dispatch"])
@given(st.integers(0, 2**31))
@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_numeric_gains_equal_the_scalar_kernel_bit_for_bit(monkeypatch,
                                                           list_cells, seed):
    # the numeric sweeps score every threshold, in numpy arrays or (up to
    # LIST_CELLS cells) on lists; each winner's gain must equal gini_gain
    # of the same split exactly, with examples held more than once, columns
    # that never vary, and a lone example held twice.  LIST_CELLS at 0
    # sends every node to the numpy sort sweep
    monkeypatch.setattr(build_mod, "LIST_CELLS", list_cells)
    rng = random.Random(seed)
    d = rng.randint(1, 4)
    # a pool of one value makes a constant column
    pools = [[rng.uniform(-5.0, 5.0) for _ in range(rng.choice((1, 3, 8)))]
             for _ in range(d)]
    distinct = [make_example(tuple(rng.choice(p) for p in pools),
                             rng.randrange(2))
                for _ in range(rng.randint(1, 30))]
    held = [e for e in distinct for _ in range(rng.randint(1, 4))]
    for s in (ActiveMultiset.from_examples(held),
              ActiveMultiset.from_examples(distinct[:1] * 2)):
        for j, (thr, gain) in enumerate(best_split(s).per_feature):
            assert gain == gini_gain(s, Split(j, thr))


@pytest.mark.parametrize("top", [8, 1000, 2**40])
def test_gain_helper_equals_the_scalar_kernel_on_every_element(top):
    # _gains runs the kernel's float operations in place and doubles once
    # at the end; on random integer running sums (left 1-label counts of 0
    # and equal to the left count among them, counts up to 2**40) every
    # element must equal _gain_from_counts to the bit, once the caller has
    # zeroed the gains whose right count is 0, and the sums must be left
    # as they were
    rng = random.Random(top)
    seen = set()
    for _ in range(20):
        total = rng.randint(1, top)
        ones = rng.randint(0, total)
        wl, wyl = [], []
        for _ in range(200):
            left = rng.choice((1, total, rng.randint(1, total)))
            lo, hi = max(0, ones - (total - left)), min(left, ones)
            wl.append(left)
            wyl.append(rng.choice((lo, hi, rng.randint(lo, hi))))
        want = [0.0 if left == total
                else gini._gain_from_counts(total, ones, left, left_ones)
                for left, left_ones in zip(wl, wyl)]
        a, ay = np.array(wl, dtype=np.float64), np.array(wyl, dtype=np.float64)
        seen.update(case for case, hit in (("no left ones", ay == 0),
                                           ("all left ones", ay == a),
                                           ("empty right", a == total))
                    if hit.any())
        for shape in ((200,), (8, 25)):
            sums = a.reshape(shape), ay.reshape(shape)
            before = [x.tobytes() for x in sums]
            got = gini._gains(*sums, total, ones)
            got[sums[0] == total] = 0.0
            assert ([g.hex() for g in got.ravel().tolist()]
                    == [g.hex() for g in want])
            assert [x.tobytes() for x in sums] == before
    assert seen == {"no left ones", "all left ones", "empty right"}


def _sweep_inputs(rng):
    # rows of a node: columns of low or high cardinality (a pool of one
    # value makes a constant column, and a repeated pool two equal columns),
    # counts of 1 to 4, and labels that mirror around the middle value, so
    # thresholds on either side of it tie
    n = rng.randint(1, 120)
    pools = []
    for _ in range(rng.randint(1, 5)):
        if pools and rng.random() < 0.2:
            pools.append(pools[-1])
        else:
            size = rng.choice((1, 2, 4, 12, 500))
            pools.append(sorted({round(rng.uniform(-5.0, 5.0), 2)
                                 for _ in range(size)}))
    X = np.array([[rng.choice(p) for p in pools] for _ in range(n)])
    w = np.array([float(rng.choice((1, 1, 2, 4))) for _ in range(n)])
    if rng.random() < 0.3:
        mid = np.median(X[:, 0])
        y = (np.abs(X[:, 0] - mid) < 1.0).astype(float)
    else:
        y = (np.array([rng.random() for _ in range(n)]) < rng.random()
             ).astype(float)
    return X, w, w * y


# (counts, 1-label counts) of values 0, 1, ... that mirror around the
# middle value: thresholds on either side of it score gains a few ulps
# apart, and the smallest threshold within TIE_TOL of the best wins where
# the largest gain would not
NEAR_TIES = [
    ([3, 4, 2, 3, 4, 3, 2, 4, 3], [1, 0, 1, 0, 2, 0, 1, 0, 1]),
    ([2, 1, 4, 2, 4, 1, 2], [1, 1, 2, 2, 2, 1, 1]),
    ([1, 5, 1, 1, 1, 5, 1], [1, 4, 1, 0, 1, 4, 1]),
]


def _binned(R, w, wy, vals, starts, code_col):
    # the binned sweep's answer in the sort sweep's terms, after the Python
    # scan of the whole code range has returned the same tuples
    total, ones = int(w.sum()), int(wy.sum())
    found = gini._sweep_binned(R, w, wy, total, ones, starts, code_col)
    scanned = gini._scan_binned(R, w, wy, total, ones, starts)
    assert repr(scanned) == repr(found)
    return [(vals[code].item(), left, left_ones, gain)
            for code, left, left_ones, gain in found]


def _chain_differs(X, w, wy, tol) -> int:
    # columns of X whose strict scan, where a later threshold wins only by
    # beating the best so far by more than tol, picks another threshold
    # than the first within tol of the column's best
    total, ones = int(w.sum()), int(wy.sum())
    differs = 0
    for col in X.T:
        gains = [gini._gain_from_counts(total, ones, int(w[col <= v].sum()),
                                        int(wy[col <= v].sum()))
                 for v in np.unique(col)]
        first = next(k for k, g in enumerate(gains)
                     if g >= max(gains) - tol)
        scan, best = None, -1.0
        for k, g in enumerate(gains):
            if g > best + tol:
                scan, best = k, g
        differs += scan != first
    return differs


def test_binned_sweep_equals_sort_sweep_bit_for_bit(monkeypatch):
    # the binned sweep and the Python scan, over rank codes of a target's
    # columns, must each return the sort sweep's (threshold, left,
    # left_ones, gain) exactly, at the target and at subsets of its rows
    # below it, whatever the columns' cardinality: code ranges on both
    # sides of the node sweep's SCAN_CODES, which picks between them.  With
    # TIE_TOL widened, gains that climb by less than TIE_TOL at a time make
    # the first threshold within TIE_TOL of the best another than the one a
    # strict scan keeps, as the categorical sweep picks
    subsets = chained = 0
    scanned = set()  # whether a target's code range is at most SCAN_CODES
    for tie_tol, seeds in ((gini.TIE_TOL, 200), (0.01, 60), (0.05, 60)):
        monkeypatch.setattr(gini, "TIE_TOL", tie_tol)
        for seed in range(seeds):
            rng = random.Random(seed)
            X, w, wy = _sweep_inputs(rng)
            n = len(X)
            layout = []
            expected = gini._sweep_numeric(X, w, wy, int(w.sum()),
                                           int(wy.sum()), layout)
            V, *sort = layout
            R, vals, starts, code_col = gini._rank_codes(*sort)
            assert len(vals) == V and (vals[R] == X).all()
            scanned.add(V <= build_mod.SCAN_CODES)
            if seeds < 200:
                chained += _chain_differs(X, w, wy, tie_tol)
            nodes = [np.arange(n)]
            nodes += [np.array(sorted(rng.sample(range(n), k)))
                      for k in (1, rng.randint(1, n))]
            for i, idx in enumerate(nodes):
                total, ones = int(w[idx].sum()), int(wy[idx].sum())
                if i:
                    expected = gini._sweep_numeric(X[idx], w[idx], wy[idx],
                                                   total, ones)
                    subsets += 1
                got = _binned(R[idx], w[idx], wy[idx], vals, starts,
                              code_col)
                assert got == expected, (tie_tol, seed, i)
                # -0.0 apart
                assert repr(got) == repr(expected), (tie_tol, seed, i)
    assert subsets == 2 * (200 + 60 + 60)
    assert scanned == {True, False}
    assert chained > 0
    monkeypatch.undo()

    for counts, ones in NEAR_TIES:
        # the mirrored column, then a copy of it, then a constant one; then
        # the same with distinct values in as many more columns as take the
        # code range past SCAN_CODES
        n = len(counts)
        w, wy = np.array(counts, dtype=float), np.array(ones, dtype=float)
        total, n1 = int(w.sum()), int(wy.sum())
        gains = [gini._gain_from_counts(total, n1, int(left), int(left_ones))
                 for left, left_ones in zip(w.cumsum(), wy.cumsum())]
        assert gains.index(max(gains)) != min(
            t for t, g in enumerate(gains) if g >= max(gains) - gini.TIE_TOL)
        wide = build_mod.SCAN_CODES // n + 1
        ranges = set()
        for extra in (0, wide):
            X = np.array([[float(v), float(v), 1.0]
                          + [100.0 * k - v for k in range(extra)]
                          for v in range(n)])
            layout = []
            expected = gini._sweep_numeric(X, w, wy, total, n1, layout)
            V, *sort = layout
            ranges.add(V <= build_mod.SCAN_CODES)
            R, vals, starts, code_col = gini._rank_codes(*sort)
            got = _binned(R, w, wy, vals, starts, code_col)
            assert repr(got) == repr(expected)
        assert ranges == {True, False}


def test_list_sweep_equals_sort_sweep_bit_for_bit():
    # the list sweep must return the numpy sort sweep's (threshold, left,
    # left_ones, gain) exactly, on nodes of one row, constant columns,
    # counts above 1 and near ties; a target that makes rank codes is too
    # large for the list sweep
    assert build_mod.LIST_CELLS < build_mod.RANK_ROWS

    def check(X, w, wy):
        total, ones = int(w.sum()), int(wy.sum())
        expected = gini._sweep_numeric(X, w, wy, total, ones)
        got = gini._sweep_list(X.T.tolist(), w.tolist(), wy.tolist(), total,
                               ones)
        assert repr(got) == repr(expected)

    lone = 0
    for seed in range(200):
        rng = random.Random(seed)
        X, w, wy = _sweep_inputs(rng)
        check(X, w, wy)
        for k in (1, rng.randint(1, len(X))):
            idx = np.array(sorted(rng.sample(range(len(X)), k)))
            check(X[idx], w[idx], wy[idx])
            lone += k == 1
    assert lone >= 200

    for counts, ones in NEAR_TIES:
        # the mirrored column, then a copy of it, then a constant one
        X = np.array([[float(v), float(v), 1.0] for v in range(len(counts))])
        check(X, np.array(counts, dtype=float), np.array(ones, dtype=float))


def test_sort_sweep_in_the_scratch_equals_the_list_sweep(monkeypatch):
    # the sort sweep's running sums go to this thread's scratch, which grows
    # to the largest node of at most SCRATCH_CELLS cells and keeps the
    # stale sums of the last one; nodes that grow it, shrink back below it
    # and grow it again must each return the list sweep's answer exactly,
    # and a larger node sweeps in a fresh array and leaves the scratch as
    # it was.  X reads + 0.0, as the store codes it.  SCRATCH_CELLS at
    # 4000 puts the 1000x8 nodes above it
    monkeypatch.setattr(gini, "SCRATCH_CELLS", 4000)
    monkeypatch.setattr(gini, "_scratch", threading.local())
    largest = 0
    for seed, (n, m) in enumerate([(1000, 8), (40, 2), (300, 3), (7, 1),
                                   (1000, 8), (1000, 4), (120, 4), (1, 3),
                                   (600, 5), (1000, 8), (1000, 4)]):
        rng = random.Random(seed)
        X, w, wy = _layout_inputs(rng, n, m)
        X += 0.0
        total, ones = int(w.sum()), int(wy.sum())
        expected = gini._sweep_list(X.T.tolist(), w.tolist(), wy.tolist(),
                                    total, ones)
        before = getattr(gini._scratch, "sums", None)
        got = gini._sweep_numeric(X, w, wy, total, ones)
        assert repr(got) == repr(expected), seed
        after = getattr(gini._scratch, "sums", None)
        if X.size > 4000:
            assert after is before
            continue
        largest = max(largest, X.size)
        assert len(after) == largest
        assert (after is before) == (before is not None
                                     and len(before) >= X.size)
    assert largest == 4000


def test_each_thread_sweeps_in_a_scratch_of_its_own(monkeypatch):
    # a sweep in another thread neither reads nor overwrites this
    # thread's scratch
    monkeypatch.setattr(gini, "_scratch", threading.local())
    X, w, wy = _layout_inputs(random.Random(0), 300, 3)
    total, ones = int(w.sum()), int(wy.sum())
    got = gini._sweep_numeric(X, w, wy, total, ones)
    mine = gini._scratch.sums.copy()
    theirs = []
    thread = threading.Thread(target=lambda: theirs.append(
        (gini._sweep_numeric(X[::-1], w[::-1], wy[::-1], total, ones),
         gini._scratch.sums)))
    thread.start()
    thread.join()
    assert repr(theirs[0][0]) == repr(got)
    assert not np.shares_memory(theirs[0][1], gini._scratch.sums)
    assert gini._scratch.sums.tobytes() == mine.tobytes()


def test_a_zero_threshold_reads_0_0_in_every_arrival_order(monkeypatch):
    # (-0.0,) and (0.0,) are one example, held as whichever came first; the
    # threshold at their run must not depend on which that was, whether the
    # sort sweep picks it (best_split, and a tree's root) or the binned
    # sweep does.  The root holds 128 rows of seven two-valued columns,
    # which the gate codes, and splits on the first; its impure child, 64
    # rows, splits on the second over rank codes, which a spy checks: in
    # the binned sweep with SCAN_CODES at 0, and in the Python scan of the
    # 14 codes with SCAN_CODES at 10**9
    binned = []
    for name in ("_sweep_binned", "_scan_binned"):
        def spy(*args, name=name, sweep=getattr(build_mod, name)):
            binned.append((name, len(args[0])))
            return sweep(*args)
        monkeypatch.setattr(build_mod, name, spy)
    rng = random.Random(5)
    params = FeasibilityParams(epsilon=0.1, alpha=0.2, beta=0.1, k=1, h=8)
    assert 2 ** 7 >= build_mod.RANK_ROWS
    for trial in range(2):
        monkeypatch.setattr(build_mod, "SCAN_CODES", (0, 10**9)[trial])
        for zeros in ((-0.0, 0.0), (0.0, -0.0)):
            exs = [make_example(
                tuple(zeros[i % 2] if bit == "0" else 1.0
                      for bit in f"{v:07b}"), int(v >= 96))
                for i in range(2) for v in range(128)]
            rng.shuffle(exs)
            s = ActiveMultiset.from_examples(exs)
            assert repr(best_split(s).best_split.threshold) == "0.0"
            nodes, thresholds = [DecisionTree(s, params).root], []
            while nodes:
                v = nodes.pop()
                if not v.is_leaf:
                    thresholds.append(repr(v.split.threshold))
                    nodes += [v.left, v.right]
            assert thresholds == ["0.0", "0.0"]
    assert binned == [("_sweep_binned", 64)] * 2 + [("_scan_binned", 64)] * 2


def _row_major_sweep(X, w, wy, total, ones):
    """The sort sweep on a row-major matrix, each step along axis 0: the
    reference that the sweep's column-major arrays must reproduce.
    Returns its (threshold, left, left_ones, gain) per column and its sort
    (order, sorted values, ties) in ``_rank_codes``' terms."""
    cols = np.arange(X.shape[1])
    order = X.argsort(axis=0)
    sv = X[order, cols]
    wl = w[order].cumsum(axis=0, dtype=np.float64)
    wyl = wy[order].cumsum(axis=0, dtype=np.float64)
    gains = gini._gains(wl, wyl, total, ones)
    gains[-1] = 0.0
    tie = sv[:-1] == sv[1:]
    gains[:-1][tie] = -1.0
    sel = (gains >= gains.max(axis=0) - gini.TIE_TOL).argmax(axis=0)
    found = list(zip(sv[sel, cols].tolist(), wl[sel, cols].tolist(),
                     wyl[sel, cols].tolist(), gains[sel, cols].tolist()))
    return found, (order, sv, tie)


def _layout_inputs(rng, n, m):
    # columns drawn from pools of 1 to n values, some of them holding both
    # -0.0 and 0.0; counts of 1 to 4; labels of random bias
    pools = []
    for _ in range(m):
        pool = [round(rng.uniform(-3.0, 3.0), 1)
                for _ in range(rng.choice((1, 2, 5, 20, n)))]
        if rng.random() < 0.3:
            pool += [0.0, -0.0]
        pools.append(pool)
    X = np.array([[rng.choice(p) for p in pools] for _ in range(n)])
    w = np.array([float(rng.choice((1, 1, 2, 4))) for _ in range(n)])
    y = (np.array([rng.random() for _ in range(n)]) < rng.random())
    return X, w, w * y


def _node_sweep_found(X, w, wy):
    """Runs build's node sweep over a store of X's rows, weighed by w with
    wy 1-labels, at the target and at every other row below it; asserts
    each node's real winners are the row-major reference's on the store's
    columns, bit for bit, rank-code thresholds mapped to values.  Returns
    whether the child took the binned sweep."""
    exs = [make_example(x, int(l > 0))
           for x, c, l in zip(X.tolist(), w.tolist(), wy.tolist())
           for _ in range(int(c))]
    store = ActiveMultiset.from_examples(exs)._store
    rows = store.held_rows()
    sw, swy, SX, _ = store.columns(rows)
    sweep = build_mod._node_sweep(store, rows)
    binned = False
    for idx in (None, np.arange(0, len(rows), 2)):
        wi, wyi, Xi = ((sw, swy, SX) if idx is None
                       else (sw[idx], swy[idx], SX[idx]))
        total, ones = int(wi.sum()), int(wyi.sum())
        expected, _ = _row_major_sweep(Xi, wi, wyi, total, ones)
        _, found, *_, vals = sweep(idx, total, ones)
        if vals is not None:
            binned = True
            found = [(vals[t].item(), *rest) for t, *rest in found]
        assert repr(list(found)) == repr(expected)
    return binned


@pytest.mark.parametrize("rank_gate", [build_mod.RANK_GATE, 1])
def test_sort_sweep_is_bit_identical_in_every_layout(monkeypatch, rank_gate):
    # the sort sweep works on a column-major copy of its input; on C-ordered,
    # F-ordered and column-sliced matrices, with and without layout, it must
    # return the row-major reference's winners exactly, gains to the bit,
    # thresholds to the sign of a zero, and its sort must give the rank
    # codes the reference's sort gives.  Sizes just above LIST_CELLS are the
    # smallest that the node sweep sorts.  Build's node sweep applies the
    # rank gate to the layout its target fills: at a target of RANK_ROWS
    # rows or more, the target and a child below it, binned when the gate
    # keeps the sort and the child has enough cells, must find the same
    # winners
    monkeypatch.setattr(build_mod, "RANK_GATE", rank_gate)
    shapes = [(build_mod.LIST_CELLS // m + 1, m) for m in (1, 2, 3, 8)]
    shapes += [(1000, 8)] * 2
    coded = binned = fine_binned = 0
    for seed, (n, m) in enumerate(shapes * 6):
        rng = random.Random(seed)
        X, w, wy = _layout_inputs(rng, n, m)
        assert X.size > build_mod.LIST_CELLS
        total, ones = int(w.sum()), int(wy.sum())
        expected, sort = _row_major_sweep(X, w, wy, total, ones)
        wide = np.zeros((n, 2 * m + 1))
        wide[:, 1::2] = X
        inputs = {"C": X, "F": np.asfortranarray(X), "sliced": wide[:, 1::2]}
        for name, Xl in inputs.items():
            assert (Xl == X).all()
            for layout in (None, []):
                got = gini._sweep_numeric(Xl, w, wy, total, ones, layout)
                assert repr(got) == repr(expected), (seed, name)
                assert ([g.hex() for *_, g in got]
                        == [g.hex() for *_, g in expected])
                if layout:
                    coded += 1
                    V, *ours = layout
                    assert V == X.size - np.count_nonzero(sort[2])
                    codes = gini._rank_codes(*ours)
                    R, vals = codes[:2]
                    assert len(vals) == V and (vals[R] == X).all()
                    for a, b in zip(codes, gini._rank_codes(*sort)):
                        assert a.tobytes() == b.tobytes(), (seed, name)
        if n >= build_mod.RANK_ROWS:
            binned += _node_sweep_found(X, w, wy)
            # 125 values a column, about 1000 in all: the gate at 1 keeps
            # the target's sort, at 16 it drops it and the child sorts
            fine = np.array([[rng.randrange(125) for _ in range(m)]
                             for _ in range(n)]) / 8
            fine_binned += _node_sweep_found(fine, w, wy)
    assert coded == 3 * 6 * len(shapes)  # a layout list is always filled
    large = 6 * sum(n >= build_mod.RANK_ROWS for n, _ in shapes)
    assert binned == large  # at most 61 values a column pass either gate
    assert fine_binned == (large if rank_gate == 1 else 0)


def test_best_split_reads_the_row_major_reference():
    # best_split runs the node sweep over the store's columns; each real
    # feature's (threshold, gain) must be the reference's, bit for bit.
    # The store codes -0.0 as 0.0, so the reference reads X + 0.0
    for seed, (n, m) in enumerate([(build_mod.LIST_CELLS // 8 + 1, 8),
                                   (300, 3), (1000, 8)]):
        rng = random.Random(100 + seed)
        X, w, wy = _layout_inputs(rng, n, m)
        X += 0.0
        exs = [make_example(x, int(l > 0))
               for x, c, l in zip(X.tolist(), w.tolist(), wy.tolist())
               for _ in range(int(c))]
        s = ActiveMultiset.from_examples(exs)
        expected, _ = _row_major_sweep(X, w, wy, int(w.sum()), int(wy.sum()))
        got = best_split(s).per_feature
        assert repr(got) == repr(tuple((thr, g) for thr, _, _, g in expected))
