"""Print one sha256 per seeded stream of everything a tree shows.

Each stream drives one ``DecisionTree`` through seeded updates: a numeric
sliding window, a mixed sliding window, categorical random updates, a
sliding window whose inserts mostly bring a symbol no example has had, a
mixed sliding window whose real columns take 4 values each, so they repeat
values at every rebuild target, and a wide numeric sliding window: 8 real
features over 1000 rows, so that its set-up and root rebuilds sort-sweep
1000x8 cells and its flushes code more than ``CODE_CELLS`` cells.  Every
other stream's window holds 200 examples.
After every update the digest takes every node's split, ``split_gain``
(as ``float.hex``), size, pending count and height, and each leaf's label
and label histogram, in preorder.  After every rebuild, and at the end,
it also takes each leaf's multiset.  It finds those multisets by routing
its own shadow of the active set through the tree, so it reads no leaf
internals, and two versions of the engine can be compared by running the
same command on each: equal digests mean the trees were identical at
every step.

    PYTHONPATH=src python3 scripts/tree_digest.py [--steps N] [--seed S]
"""

import argparse
import hashlib
import random
import sys
from collections import Counter, deque

from dyntree import (
    ActiveMultiset,
    DecisionTree,
    FeasibilityParams,
    LabeledExample,
    mixed_stream,
    threshold_stream,
)

def _new_symbol_stream(n: int, seed: int) -> list:
    # a real feature and a symbol that is new to the stream four times in
    # five; the label follows the real feature, with noise
    rng = random.Random(seed)
    out = []
    for i in range(n):
        x = float(rng.randrange(12))
        symbol = f"n{i:06d}" if rng.random() < 0.8 else f"r{rng.randrange(4)}"
        label = int(x >= 6.0) ^ (rng.random() < 0.1)
        out.append(LabeledExample((x, symbol), label))
    return out


# name: (mode, params, stream maker, warm window)
STREAMS = {
    "numeric-sw": (
        "sw", FeasibilityParams(epsilon=0.1, alpha=0.3, beta=0.4, k=3, h=8),
        lambda n, seed: threshold_stream(n, d=4, seed=seed, noise=0.05,
                                         decimals=2), 200),
    "mixed-sw": (
        "sw", FeasibilityParams(epsilon=0.03, alpha=0.4, beta=0.5, k=3, h=8),
        lambda n, seed: mixed_stream(n, d_num=2, d_cat=2, seed=seed), 200),
    "categorical-ru": (
        "ru", FeasibilityParams(epsilon=0.1, alpha=0.2, beta=0.4, k=2, h=8),
        lambda n, seed: mixed_stream(n, d_num=0, d_cat=3, seed=seed), 200),
    "new-symbols-sw": (
        "sw", FeasibilityParams(epsilon=0.1, alpha=0.3, beta=0.4, k=3, h=8),
        _new_symbol_stream, 200),
    "grid-sw": (
        "sw", FeasibilityParams(epsilon=0.05, alpha=0.3, beta=0.4, k=3, h=8),
        lambda n, seed: mixed_stream(n, d_num=3, d_cat=1, seed=seed, grid=4),
        200),
    "numeric-wide-sw": (
        "sw", FeasibilityParams(epsilon=0.1, alpha=0.3, beta=0.4, k=3, h=8),
        lambda n, seed: threshold_stream(n, d=8, seed=seed, noise=0.05,
                                         decimals=2), 1000),
}


def _updates(mode: str, stream: list, seed: int, size: int):
    """(warm window of size examples, [(example, op), ...]) for a stream
    mode."""
    warm, rest = stream[:size], stream[size:]
    out = []
    if mode == "sw":
        window = deque(warm)
        for e in rest:
            out.append((window.popleft(), "del"))
            out.append((e, "ins"))
            window.append(e)
        return warm, out
    rng = random.Random(seed)
    active = list(warm)
    for e in rest:
        if active and rng.random() < 0.5:
            out.append((active.pop(rng.randrange(len(active))), "del"))
        out.append((e, "ins"))
        active.append(e)
    return warm, out


def _preorder(node) -> list:
    out, stack = [], [node]
    while stack:
        v = stack.pop()
        out.append(v)
        if not v.is_leaf:
            stack.append(v.right)
            stack.append(v.left)
    return out


def _shape(root) -> bytes:
    fields = []
    for v in _preorder(root):
        if v.is_leaf:
            fields.append(("leaf", v.size, v.pending, v.height, v.leaf_label,
                           tuple(v.label_hist)))
        else:
            s = v.split
            fields.append((s.feature, repr(s.threshold), s.categorical,
                           v.split_gain.hex(), v.size, v.pending, v.height))
    return repr(fields).encode()


def _leaf_of(node, features):
    while not node.is_leaf:
        s = node.split
        x = features[s.feature]
        left = x == s.threshold if s.categorical else x <= s.threshold
        node = node.left if left else node.right
    return node


def _leaf_multisets(root, shadow: Counter) -> bytes:
    index = {id(v): i for i, v in enumerate(_preorder(root))}
    leaves: dict = {}
    for e, c in shadow.items():
        leaves.setdefault(index[id(_leaf_of(root, e.features))], []).append(
            (e, c))
    return repr(sorted((i, sorted(items)) for i, items in leaves.items())
                ).encode()


def digest(name: str, steps: int, seed: int) -> str:
    mode, params, make, size = STREAMS[name]
    warm, updates = _updates(mode, make(size + steps, seed), seed, size)
    tree = DecisionTree.from_multiset(ActiveMultiset.from_examples(warm),
                                      params)
    shadow = Counter(warm)
    h = hashlib.sha256(_shape(tree.root))
    for e, op in updates:
        info = tree.update(e, op)
        shadow[e] += 1 if op == "ins" else -1
        if not shadow[e]:
            del shadow[e]
        h.update(_shape(tree.root))
        if info is not None:
            h.update(_leaf_multisets(tree.root, shadow))
    h.update(_leaf_multisets(tree.root, shadow))
    return h.hexdigest()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--steps", type=int, default=1500,
                        help="examples each stream brings after its warm "
                        "window")
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args(argv)
    for name in STREAMS:
        print(f"{name:>15} {digest(name, args.steps, args.seed)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
