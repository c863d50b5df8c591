"""Workload definitions and seeded input generation for the benchmark.

A workload is a list of segments. Each segment is one prequential stream:
a warm window ingested and built exactly, then a fixed number of steps.
All inputs, including which active example a random-update step deletes,
are generated here from the seed, before any timing starts, so the timed
loop only calls the engine and two reruns with one seed do identical work.
"""

from __future__ import annotations

import random
from collections import Counter, deque
from dataclasses import dataclass
from typing import Callable

import numpy as np

from dyntree import FeasibilityParams, LabeledExample, mixed_stream, threshold_stream


def categorical_stream(n: int, d: int, alphabet: int, seed: int,
                       noise: float) -> list[LabeledExample]:
    """All-categorical examples labeled by an XOR of two feature tests.

    Symbols are strings ``s0``..``s{alphabet-1}``; the label is
    ``(x0 < alphabet/2) xor (x1 == s0)`` with symmetric label noise.
    ``synth.mixed_stream`` cannot make this stream: it needs at least one
    real feature.
    """
    rng = np.random.default_rng(seed)
    x = rng.integers(0, alphabet, size=(n, d))
    y = ((x[:, 0] < alphabet // 2) ^ (x[:, 1] == 0)).astype(np.int64)
    y ^= rng.random(n) < noise
    return [
        LabeledExample(tuple(f"s{v}" for v in row), int(label))
        for row, label in zip(x.tolist(), y.tolist())
    ]


@dataclass(frozen=True)
class Workload:
    name: str
    mode: str  # "sw" (sliding window) or "ru" (random update)
    params: FeasibilityParams
    window: int  # warm-window size; the sliding window's length in sw mode
    steps: int  # prequential steps per segment
    segments: int  # segments per round
    make_stream: Callable[[int, int], list]  # (length, seed) -> examples


CHECKPOINTS = 3  # mid-segment correctness checks per segment in the first round


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="numeric-sw-lazy",
            mode="sw",
            params=FeasibilityParams(epsilon=1.0, alpha=0.3, beta=0.4, k=5, h=8),
            window=1000,
            steps=25_000,
            segments=6,
            make_stream=lambda n, seed: threshold_stream(
                n, d=8, seed=seed, noise=0.04, theta=0.75
            ),
        ),
        Workload(
            name="mixed-sw-guaranteed",
            mode="sw",
            params=FeasibilityParams(epsilon=0.03, alpha=0.4, beta=0.5, k=3, h=8),
            window=1000,
            steps=250,
            segments=10,
            make_stream=lambda n, seed: mixed_stream(n, d_num=3, d_cat=2, seed=seed),
        ),
        Workload(
            name="categorical-ru",
            mode="ru",
            params=FeasibilityParams(epsilon=0.1, alpha=0.3, beta=0.4, k=5, h=8),
            window=1000,
            steps=1000,
            segments=28,
            make_stream=lambda n, seed: categorical_stream(
                n, d=6, alphabet=5, seed=seed, noise=0.1
            ),
        ),
    )
}


@dataclass
class Segment:
    """One prepared stream: the warm window and the steps that follow.

    Each step is ``(before, features, label, after)``: the updates applied
    before the step's query, the query's features and true label, and the
    updates applied after it. An update is an ``(example, op)`` pair.
    ``shadows`` maps a step count to the multiset that should be active
    after that many steps (inserts minus deletes, kept by the benchmark).
    """

    warm: list
    steps: list
    shadows: dict


def prepare(workload: Workload, seed: int) -> list[Segment]:
    """Generate every segment of one round from the workload seed."""
    out = []
    n_steps = workload.steps
    stops = {n_steps * c // (CHECKPOINTS + 1) for c in range(1, CHECKPOINTS + 1)}
    stops.add(n_steps)
    for index in range(workload.segments):
        sub = seed * 1000 + index
        stream = workload.make_stream(workload.window + n_steps, sub)
        warm = stream[: workload.window]
        shadow = Counter(warm)
        steps, shadows = [], {}
        if workload.mode == "sw":
            window = deque(warm)
            for t, e in enumerate(stream[workload.window:], start=1):
                old = window.popleft()
                window.append(e)
                steps.append((((old, "del"),), e.features, e.label, ((e, "ins"),)))
                shadow[old] -= 1
                shadow[e] += 1
                if t in stops:
                    shadows[t] = +shadow
        else:
            # the harness's random-update model: a fair coin inserts the
            # step's example or deletes a uniformly drawn active one
            rng = random.Random(sub)
            active = list(warm)
            for t, e in enumerate(stream[workload.window:], start=1):
                if rng.random() < 0.5 or not active:
                    update = (e, "ins")
                    active.append(e)
                    shadow[e] += 1
                else:
                    i = rng.randrange(len(active))
                    victim = active[i]
                    active[i] = active[-1]
                    active.pop()
                    update = (victim, "del")
                    shadow[victim] -= 1
                steps.append(((), e.features, e.label, (update,)))
                if t in stops:
                    shadows[t] = +shadow
        out.append(Segment(warm, steps, shadows))
    return out
