"""Synthetic labeled streams used by the tests and the benchmark scripts."""

from __future__ import annotations

import numpy as np

from .core import LabeledExample


def threshold_stream(
    n: int,
    d: int = 8,
    seed: int = 0,
    noise: float = 0.05,
    theta: float = 0.5,
    decimals: int = 3,
) -> list[LabeledExample]:
    """Uniform points on [0, 1]^d labeled by the threshold theta on the
    first feature, plus symmetric label noise.  Coordinates are rounded so
    values repeat."""
    rng = np.random.default_rng(seed)
    x = rng.random((n, d)).round(decimals)
    y = (x[:, 0] > theta).astype(np.int64)
    if noise > 0:
        y ^= rng.random(n) < noise
    rows = x.tolist()
    labels = y.tolist()
    return [LabeledExample(tuple(row), int(lab)) for row, lab in zip(rows, labels)]


def era_flip_stream(
    n_pre: int,
    n_post: int,
    d: int = 4,
    seed: int = 0,
    noise: float = 0.0,
) -> list[LabeledExample]:
    """Abrupt drift: ``threshold_stream`` whose last feature is the era, 0
    for the first n_pre steps and 1 after, when the concept inverts.  A
    stale tree keeps predicting the old concept until it rebuilds.  Needs
    d >= 2, as the era would otherwise be the labelling feature."""
    if d < 2:
        raise ValueError(f"era_flip_stream needs d >= 2, got {d}")
    stream = threshold_stream(n_pre + n_post, d=d, seed=seed, noise=noise)
    return [LabeledExample(e.features[:-1] + (float(t >= n_pre),),
                           e.label ^ (t >= n_pre))
            for t, e in enumerate(stream)]


def mixed_stream(
    n: int,
    d_num: int = 3,
    d_cat: int = 2,
    seed: int = 0,
    grid: int = 12,
    alphabet: int = 4,
) -> list[LabeledExample]:
    """Small-alphabet mixture for feasibility soaks: numeric features on a
    coarse grid, categorical symbols, labels from a noisy rule over the
    first feature of each kind present."""
    if d_num == 0 and d_cat == 0:
        raise ValueError("mixed_stream needs at least one feature")
    rng = np.random.default_rng(seed)
    xnum = rng.integers(0, grid, size=(n, d_num)).astype(float)
    xcat = rng.integers(0, alphabet, size=(n, d_cat))
    score = np.zeros(n, dtype=np.int64)
    if d_num:
        score += xnum[:, 0] >= grid / 2
    if d_cat:
        score += xcat[:, 0] == 0
    y = (score >= 1).astype(np.int64)
    y ^= rng.random(n) < 0.15
    out = []
    for i in range(n):
        feats = tuple(xnum[i].tolist()) + tuple(f"c{v}" for v in xcat[i])
        out.append(LabeledExample(feats, int(y[i])))
    return out
