"""Synthetic streams: determinism and the shapes they accept."""

import hashlib

import pytest

from dyntree import Schema, mixed_stream


def test_mixed_stream_with_real_features_is_pinned():
    # the acceptance soaks and the benchmark's mixed workload replay this
    # generator, so its output for d_num >= 1 must not drift
    stream = mixed_stream(200, d_num=3, d_cat=2, seed=11)
    digest = hashlib.sha256(repr(stream).encode()).hexdigest()
    assert digest == "f69feeee342640a1b23703d4f2f7ae0a6c1e0efa0a965e1f71afd421b3687a00"


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
