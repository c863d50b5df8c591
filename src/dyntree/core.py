"""Core types shared by the tree engine, the oracle, and the harness.

Examples are immutable (features, label) pairs with binary labels.  The
active set is a multiset over examples backed by a hash map; enumeration
sorts on demand, lexicographically by features then label, so its order
is deterministic regardless of the order updates arrived in.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field
from typing import Iterable, Iterator, Mapping, NamedTuple, Optional, Sequence, Union


class SchemaError(ValueError):
    """Example shape or feature kind disagrees with the declared schema."""


class ExampleNotFound(KeyError):
    """Deletion of an example that is not in the active set."""


# Categorical symbols must be scalars; see Schema._validate_full.
_CONTAINERS = (tuple, list, set, frozenset, dict)


class FeatureKind(enum.Enum):
    REAL = "real"
    CATEGORICAL = "categorical"


@dataclass(frozen=True)
class Schema:
    """Per-position feature kinds for a stream.

    Every feature position is consistently real-valued or consistently
    categorical across a stream; real features split by thresholds
    (x_j <= t goes left), categorical ones by equality (x_j == a goes left).
    """

    kinds: tuple[FeatureKind, ...]
    # Derived in __post_init__; neither compared, hashed nor shown.
    # _exact: per column, the one type validate accepts without the full
    # check.  _categorical: the categorical column indices.
    _exact: tuple = field(init=False, repr=False, compare=False)
    _categorical: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if len(self.kinds) < 1:
            raise SchemaError("schema needs at least one feature")
        object.__setattr__(self, "_exact", tuple(
            float if k is FeatureKind.REAL else str for k in self.kinds
        ))
        object.__setattr__(self, "_categorical", tuple(
            j for j, k in enumerate(self.kinds) if k is FeatureKind.CATEGORICAL
        ))

    @property
    def arity(self) -> int:
        return len(self.kinds)

    @property
    def all_categorical(self) -> bool:
        return all(k is FeatureKind.CATEGORICAL for k in self.kinds)

    @classmethod
    def numeric(cls, d: int) -> "Schema":
        return cls((FeatureKind.REAL,) * d)

    @classmethod
    def categorical(cls, d: int) -> "Schema":
        return cls((FeatureKind.CATEGORICAL,) * d)

    @classmethod
    def infer(cls, features: Sequence) -> "Schema":
        """Derive kinds from one example: numbers are real, all else categorical."""
        kinds = []
        for v in features:
            if isinstance(v, bool) or not isinstance(v, (int, float)):
                kinds.append(FeatureKind.CATEGORICAL)
            else:
                kinds.append(FeatureKind.REAL)
        return cls(tuple(kinds))

    def validate(self, features: Sequence) -> None:
        """Raise SchemaError unless features fit this schema.

        Real features must be int or float (not bool, not NaN); categorical
        ones may be any symbol that is not a float or a container (tuple,
        list, set, frozenset, dict).  The fast path accepts
        only features of the right arity whose every value has exactly its
        column's type in ``_exact`` (float or str) and is not NaN: a subset
        of what ``_validate_full`` accepts.  Everything else goes to that
        full check, so acceptance and error messages do not depend on the
        path taken.
        """
        exact = self._exact
        if len(features) == len(exact):
            for v, t in zip(features, exact):
                if type(v) is not t or v != v:
                    break
            else:
                return
        self._validate_full(features)

    def _validate_full(self, features: Sequence) -> None:
        if len(features) != self.arity:
            raise SchemaError(
                f"expected {self.arity} features, got {len(features)}"
            )
        for j, (v, kind) in enumerate(zip(features, self.kinds)):
            numeric = isinstance(v, (int, float)) and not isinstance(v, bool)
            if kind is FeatureKind.REAL:
                if not numeric:
                    raise SchemaError(f"feature {j} must be real-valued, got {v!r}")
                if v != v:
                    # NaN compares false to every threshold and equal to nothing
                    raise SchemaError(f"feature {j} is NaN")
            elif numeric and isinstance(v, float):
                # int/bool symbols are fine as category codes, bare floats are not
                raise SchemaError(f"feature {j} must be categorical, got {v!r}")
            elif isinstance(v, _CONTAINERS):
                # a pinned type does not make containers orderable
                # against each other, and rebuilds sort symbols
                raise SchemaError(
                    f"feature {j} must be a scalar symbol, got {type(v).__name__}"
                )

    def _check_symbols(self, features: Sequence, pinned: Optional[tuple]) -> tuple:
        # Symbols of one categorical column are sorted together when a
        # subtree is built, so each column takes one symbol type, pinned by
        # the holder (multiset or tree) at its first example; pinned is None
        # before that.  Returns the types of features' categorical values,
        # to pin.  Call after validate.
        types = tuple([type(features[j]) for j in self._categorical])
        if pinned is not None and types != pinned:
            for j, t, p in zip(self._categorical, types, pinned):
                if t is not p:
                    raise SchemaError(
                        f"feature {j} holds {p.__name__} symbols, "
                        f"got {features[j]!r} of type {t.__name__}"
                    )
        return types


class LabeledExample(NamedTuple):
    """An example with a binary label.

    A NamedTuple so keys compare and hash at tuple speed; ordering is
    lexicographic over features then label.
    """

    features: tuple
    label: int


def make_example(features: Iterable, label: int) -> LabeledExample:
    label = int(label)
    if label not in (0, 1):
        raise ValueError(f"label must be 0 or 1, got {label}")
    return LabeledExample(tuple(features), label)


def majority_label(
    source: Union["ActiveMultiset", Mapping[int, int], Sequence[int]]
) -> int:
    """Label with the strictly greater count; ties and empty input give 0."""
    if isinstance(source, ActiveMultiset):
        n0, n1 = source.label_counts()
    elif isinstance(source, Mapping):
        n0, n1 = source.get(0, 0), source.get(1, 0)
    else:
        n0, n1 = source
    return 1 if n1 > n0 else 0


class ActiveMultiset:
    """Multiset of labeled examples keyed by (features, label) with counts.

    Backed by a hash map, so point updates take O(1) expected time.
    ``items``, ``items_list`` and iteration sort the keys on each call and
    enumerate them in lexicographic order.  The schema is pinned on
    construction or by the first inserted example, and so is the symbol
    type of each categorical column.
    """

    __slots__ = ("_entries", "_schema", "_total", "_symbols")

    def __init__(self, schema: Optional[Schema] = None):
        self._entries: dict = {}
        self._schema = schema
        self._total = 0
        self._symbols = None  # pinned symbol types, see Schema._check_symbols

    @classmethod
    def from_examples(
        cls, examples: Iterable[LabeledExample], schema: Optional[Schema] = None
    ) -> "ActiveMultiset":
        s = cls(schema)
        for e in examples:
            s.insert(e)
        return s

    @classmethod
    def _from_sorted_items(
        cls,
        items: Iterable[tuple[LabeledExample, int]],
        schema: Optional[Schema],
        total: Optional[int] = None,
    ) -> "ActiveMultiset":
        # Internal: trusted pre-validated (example, count) pairs with
        # distinct examples, in any order.
        s = cls.__new__(cls)
        s._entries = dict(items)
        s._schema = schema
        s._symbols = None
        s._total = (
            total if total is not None else sum(s._entries.values())
        )
        return s

    def items_list(self) -> list:
        """Sorted (example, count) pairs as a plain list."""
        return sorted(self._entries.items())

    def _unsorted_items(self):
        # Internal: (example, count) pairs in storage order, for callers
        # whose result does not depend on the order.
        return self._entries.items()

    @property
    def schema(self) -> Optional[Schema]:
        return self._schema

    @property
    def total_size(self) -> int:
        return self._total

    @property
    def distinct_size(self) -> int:
        return len(self._entries)

    def __len__(self) -> int:
        return self._total

    def __bool__(self) -> bool:
        return self._total > 0

    def __contains__(self, example: LabeledExample) -> bool:
        return example in self._entries

    def __iter__(self) -> Iterator[LabeledExample]:
        return iter(sorted(self._entries))

    def __eq__(self, other) -> bool:
        if not isinstance(other, ActiveMultiset):
            return NotImplemented
        return self._entries == other._entries

    def _check(self, example: LabeledExample) -> None:
        if example.label not in (0, 1):
            raise SchemaError(f"label must be 0 or 1, got {example.label!r}")
        schema = self._schema
        if schema is None:
            # keep an inferred schema only once the example fits it
            schema = Schema.infer(example.features)
            schema.validate(example.features)
            self._schema = schema
        else:
            schema.validate(example.features)
        if schema._categorical:
            pinned = self._symbols
            if pinned is None and self._entries:
                # built from trusted items: pin what they hold
                held = next(iter(self._entries)).features
                pinned = schema._check_symbols(held, None)
            self._symbols = schema._check_symbols(example.features, pinned)

    def insert(self, example: LabeledExample) -> None:
        self._check(example)
        self._insert_trusted(example)

    def _insert_trusted(self, example: LabeledExample) -> None:
        # Internal: insert for callers that already ran _check's checks.
        self._entries[example] = self._entries.get(example, 0) + 1
        self._total += 1

    def delete(self, example: LabeledExample) -> None:
        cnt = self._entries.get(example, 0)
        if cnt == 0:
            raise ExampleNotFound(f"example not in active set: {example}")
        if cnt == 1:
            del self._entries[example]
        else:
            self._entries[example] = cnt - 1
        self._total -= 1

    def count(self, example: LabeledExample) -> int:
        return self._entries.get(example, 0)

    def items(self) -> Iterator[tuple[LabeledExample, int]]:
        return iter(self.items_list())

    def expanded(self) -> Iterator[LabeledExample]:
        for e, c in self.items_list():
            for _ in range(c):
                yield e

    def label_counts(self) -> tuple[int, int]:
        n1 = sum(c for e, c in self._entries.items() if e.label == 1)
        return self._total - n1, n1

    def copy(self) -> "ActiveMultiset":
        return ActiveMultiset._from_sorted_items(
            self._entries.items(), self._schema, total=self._total
        )


@dataclass(frozen=True)
class Split:
    """One split test.  Real features send x_j <= threshold left,
    categorical ones send x_j == threshold left."""

    feature: int
    threshold: object
    categorical: bool = False

    def routes_left(self, features: Sequence) -> bool:
        v = features[self.feature]
        if self.categorical:
            return v == self.threshold
        return v <= self.threshold


@dataclass(slots=True)
class TreeNode:
    """Node of the dynamic tree.

    Leaves own a multiset of the examples routed to them plus a label
    histogram; every node carries the rebuild counters: ``size`` is the
    subtree size at the time the node was built and ``pending`` counts
    updates routed through it since.
    """

    depth: int
    size: int = 0
    pending: int = 0
    split: Optional[Split] = None
    left: Optional["TreeNode"] = None
    right: Optional["TreeNode"] = None
    split_gain: float = 0.0
    leaf_label: int = 0
    leaf_examples: Optional[ActiveMultiset] = None
    label_hist: Optional[list[int]] = None
    height: int = 0

    @property
    def is_leaf(self) -> bool:
        return self.split is None

    def route_child(self, features: Sequence) -> "TreeNode":
        return self.left if self.split.routes_left(features) else self.right


@dataclass(frozen=True)
class FeasibilityParams:
    """Knobs of the approximation contract.

    ``alpha`` forces splits on nodes whose Gini is at least alpha, ``beta``
    is the allowed slack of a kept split against the current best, ``k``
    is the leaf size floor, ``h`` the depth cap (None = unbounded) and
    ``epsilon`` the drift fraction a subtree tolerates before rebuild.
    """

    epsilon: float
    alpha: float = 0.0
    beta: float = 0.0
    k: int = 1
    h: Optional[int] = None

    def __post_init__(self):
        if not 0.0 <= self.alpha <= 1.0:
            raise ValueError(f"alpha must be in [0, 1], got {self.alpha}")
        if not 0.0 <= self.beta <= 1.0:
            raise ValueError(f"beta must be in [0, 1], got {self.beta}")
        if self.k < 1:
            raise ValueError(f"k must be a positive integer, got {self.k}")
        if self.h is not None and self.h < 1:
            raise ValueError(f"h must be a positive integer or None, got {self.h}")
        if self.epsilon < 0.0:
            raise ValueError(f"epsilon must be nonnegative, got {self.epsilon}")

    @property
    def guaranteed(self) -> bool:
        """True when epsilon is small enough for the maintenance guarantee."""
        if self.epsilon <= 0.0:
            return False
        bound = min(1.0 / (self.k + 1), self.alpha / 5.0, self.beta / 12.5)
        return self.epsilon < bound

    def depth_capped(self, eta: int) -> bool:
        return self.h is not None and eta >= self.h
