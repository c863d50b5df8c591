"""Synthetic streams: determinism and the shapes they accept."""

import hashlib

import pytest

from dyntree import Schema, mixed_stream, threshold_stream
from dyntree.synth import era_flip_stream


def _digest(stream):
    return hashlib.sha256(repr(stream).encode()).hexdigest()


def test_mixed_stream_with_real_features_is_pinned():
    # the acceptance soaks and the benchmark's mixed workload replay this
    # generator, so its output for d_num >= 1 must not drift
    stream = mixed_stream(200, d_num=3, d_cat=2, seed=11)
    assert _digest(stream) == (
        "f69feeee342640a1b23703d4f2f7ae0a6c1e0efa0a965e1f71afd421b3687a00")


@pytest.mark.parametrize("kwargs,pinned", [
    (dict(n=200, d=5, seed=3, noise=0.1),
     "ee239d77a09469b62aa47fb5a6547a909f038e3a45058edc81017564b5b97639"),
    (dict(n=300, seed=7, noise=0.05, theta=0.75, decimals=2),
     "5f6a7755645a2a9f8aeebaec3b0c84b4ec7efcb3bc171123b381a04ead550d91"),
])
def test_threshold_stream_is_pinned(kwargs, pinned):
    # the benchmark's numeric workload and the tree digests replay it
    assert _digest(threshold_stream(**kwargs)) == pinned


@pytest.mark.parametrize("kwargs,pinned", [
    (dict(n_pre=120, n_post=80, d=4, seed=5, noise=0.1),
     "69815afbde0d8548d02be27b6701d4d1f8d7f59ab2653d53ac3b8915c16d20ab"),
    (dict(n_pre=50, n_post=50, d=2, seed=1),
     "a6503965146ddb4a891c7b388731de42d847076b0a71851255f6369f436e88da"),
    (dict(n_pre=0, n_post=30, d=3, seed=2),
     "2497bfaaa888697e36141fceee1f47fc4dff0f7db4d036cf6e891f17d9d0af9d"),
])
def test_era_flip_stream_is_pinned(kwargs, pinned):
    # recorded when it drew its own points; it is threshold_stream with
    # the era in its last feature now, element for element
    assert _digest(era_flip_stream(**kwargs)) == pinned


def test_era_flip_stream_needs_a_feature_besides_the_era():
    # with one feature the era would replace the one the label follows
    with pytest.raises(ValueError, match="d >= 2"):
        era_flip_stream(5, 5, d=1)


def test_mixed_stream_all_categorical():
    stream = mixed_stream(10, d_num=0, d_cat=3)
    assert len(stream) == 10
    assert all(Schema.infer(e.features) == Schema.categorical(3)
               for e in stream)
    assert all(len(e.features) == 3 for e in stream)
    # the label follows the categorical rule up to 15% noise
    big = mixed_stream(2000, d_num=0, d_cat=1, seed=4)
    agree = sum((e.features[0] == "c0") == bool(e.label) for e in big)
    assert agree / len(big) > 0.75


def test_mixed_stream_needs_a_feature():
    with pytest.raises(ValueError):
        mixed_stream(10, d_num=0, d_cat=0)
