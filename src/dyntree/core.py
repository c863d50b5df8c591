"""Core types shared by the tree engine, the oracle, and the harness.

Examples are immutable (features, label) pairs with binary labels.  The
active set is a multiset over examples, kept in a row store
(``_Store``): each distinct example gets one row, coded into column
arrays once, and the store counts each row's copies in one dense per-row
count.  A caller's multiset owns its store; a tree keeps one for all its
leaves, and each leaf lists the rows routed to it (see ``TreeNode``), so
a rebuild slices the store's columns and counts by row id instead of
re-reading examples.  Enumeration sorts on demand, lexicographically by
features then label, so its order is deterministic regardless of the
order updates arrived in.

Store invariants, which hold whenever the store is flushed (see
``_Store.flush``):

- one row per distinct example the store holds: ``row_of`` maps each of
  them to its row, and ``count[row]`` is its number of copies;
- a row freed by the last delete of its example is reused before a new
  one is made, so there are never more row ids than the largest number of
  distinct examples held at once;
- a row's ``stamp`` is the ticket of its last take, a tick of the store's
  ``clock``, or ``_FREED`` once it is freed.  A tree lists a row in a leaf
  with a ticket, and the listing is current while ``stamp <= ticket``;
  only a row's last listing passes, so a freed and reused row is never
  counted through the stale listings it leaves behind;
- every held example's categorical symbols have the types that
  ``symbol_types`` pins, one per column;
- a categorical symbol gets an id when it first reaches its column, and
  rows hold ids, so a new symbol leaves the coded rows as they are;
- within a categorical column, the codes that ``_Store.columns`` hands
  out (ids mapped through a rank table) order like the symbols they stand
  for, so sweeps that take the lowest code take the smallest symbol;
- ids of symbols that no row holds are dropped once the ids number more
  than twice the store's categorical cells (row ids times categorical
  columns), so the tables stay O(rows).
"""

from __future__ import annotations

import enum
import operator
from dataclasses import dataclass, field
from itertools import chain
from typing import Iterable, Iterator, NamedTuple, Optional, Sequence

import numpy as np


class SchemaError(ValueError):
    """Example shape or feature kind disagrees with the declared schema."""


class ExampleNotFound(KeyError):
    """Deletion of an example that is not in the active set."""


# Categorical symbols must be scalars; see Schema._validate_full.
_CONTAINERS = (tuple, list, set, frozenset, dict)


def _unequal_to_itself(v) -> bool:
    try:
        return v != v
    except ArithmeticError:  # a signalling NaN, Decimal("sNaN")
        return True


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
    # check.  _real, _categorical: the real and the categorical column
    # indices.  _pos: feature j is column _pos[j] of the store's real
    # matrix or of its code matrix.  _str_symbols: the symbol types pinned
    # by an example that validate's fast path accepted, (str,) per
    # categorical column.
    _exact: tuple = field(init=False, repr=False, compare=False)
    _real: tuple = field(init=False, repr=False, compare=False)
    _categorical: tuple = field(init=False, repr=False, compare=False)
    _pos: tuple = field(init=False, repr=False, compare=False)
    _str_symbols: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if len(self.kinds) < 1:
            raise SchemaError("schema needs at least one feature")
        real = tuple(j for j, k in enumerate(self.kinds) if k is FeatureKind.REAL)
        cat = tuple(j for j, k in enumerate(self.kinds) if k is not FeatureKind.REAL)
        pos = [0] * len(self.kinds)
        for group in (real, cat):
            for jj, j in enumerate(group):
                pos[j] = jj
        object.__setattr__(self, "_exact", tuple(
            float if k is FeatureKind.REAL else str for k in self.kinds
        ))
        object.__setattr__(self, "_real", real)
        object.__setattr__(self, "_categorical", cat)
        object.__setattr__(self, "_pos", tuple(pos))
        object.__setattr__(self, "_str_symbols", (str,) * len(cat))

    @property
    def arity(self) -> int:
        return len(self.kinds)

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

    def validate(self, features: Sequence) -> bool:
        """Raise SchemaError unless features fit this schema.

        Real features must be int or float (not bool, not NaN); categorical
        ones may be any symbol that is not a float or a container (tuple,
        list, set, frozenset, dict).  The fast path accepts
        only features of the right arity whose every value has exactly its
        column's type in ``_exact`` (float or str) and is not NaN: a subset
        of what ``_validate_full`` accepts.  Everything else goes to that
        full check, so acceptance and error messages do not depend on the
        path taken.

        Returns True when the fast path accepted, so every categorical
        value is exactly a ``str`` and the symbol types are
        ``_str_symbols``; False when the full check did.
        """
        exact = self._exact
        if len(features) == len(exact):
            for v, t in zip(features, exact):
                if type(v) is not t or v != v:
                    break
            else:
                return True
        self._validate_full(features)
        return False

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
            elif _unequal_to_itself(v):
                # such a symbol (Decimal("NaN")) can be neither found again
                # nor sorted
                raise SchemaError(f"feature {j} is a symbol unequal to itself")

    def _check_symbols(self, features: Sequence, pinned: Optional[tuple]) -> tuple:
        # Symbols of one categorical column are sorted together when a
        # subtree is built, so each column takes one symbol type, pinned in
        # the row store (``_Store.symbol_types``) by its first example;
        # pinned is None before that, and then each type must order against
        # itself.  Returns the types of features' categorical values, to
        # pin.  Call after validate.
        types = tuple([type(features[j]) for j in self._categorical])
        if pinned is None:
            for j in self._categorical:
                v = features[j]
                try:
                    v < v
                except TypeError:
                    raise SchemaError(
                        f"feature {j} must be a symbol that sorts, got {v!r}"
                    ) from None
        elif types != pinned:
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


# stamp of a freed row: above every ticket, so no listing of it is current
_FREED = np.iinfo(np.int64).max


def _binary_label(label) -> bool:
    # an integer (int, bool or a type with __index__) equal to 0 or 1
    try:
        return operator.index(label) in (0, 1)
    except TypeError:
        return False


def _int64s(n: int) -> memoryview:
    # a per-row column: Python reads and writes plain ints through the
    # memoryview, about twice as fast as through the array, and numpy reads
    # the array under it (.obj) without a copy
    return memoryview(np.zeros(n, dtype=np.int64))


class _Store:
    """Rows of distinct examples, coded into column arrays.

    Row r holds ``examples[r]`` (None while free, and then listed in
    ``free``) and ``row_of`` maps each held example back to its row.  Rows
    are taken by ``take`` and freed by ``release``, in pure Python, and
    nothing else touches ``row_of``, ``examples``, ``free``, ``uncoded``,
    ``count`` or ``stamp``.  ``count[r]`` is the number of copies of row
    r's example that the store's holder (a caller's multiset, or the
    leaves of one tree) holds: each ``take`` counts one copy and each
    ``release`` one fewer.  A free row counts 1, the count it has when it
    is taken again, so that neither call writes the count of a row it
    takes afresh or frees.  ``take`` ticks ``clock`` for every row it
    hands out afresh and writes the tick to the row's ``stamp``;
    ``release`` writes ``_FREED`` when it frees a row.  A tree lists a
    row in a leaf with a ticket, and the listing is current while
    ``stamp <= ticket`` (see the module docstring).  ``count`` and
    ``stamp`` are memoryviews of int64 arrays, grown geometrically, so
    they may hold more rows than there are row ids.

    Coding waits for ``flush``, which fills the columns of the rows taken
    since: ``y`` (labels), ``X`` (real features, one column per real
    feature, float64) and ``C`` (categorical symbol ids, int64).  A symbol
    gets an id when it first reaches a column (``ids``, per column: symbol
    -> id), so a new symbol never touches the rows already coded.
    ``rank`` maps ids to the codes that ``columns`` hands out: global
    across columns, each column's in one block that follows its sorted
    symbols (see the module docstring), with ``symbols[code]`` and
    ``code_col[code]`` the symbol and the categorical column of a code.
    The arrays grow geometrically, so they may hold more rows than there
    are row ids.  ``symbol_types`` is the symbol type of each categorical
    column, pinned by the first example the store took (see
    ``Schema._check_symbols``); None before that.
    """

    __slots__ = ("schema", "row_of", "examples", "free", "uncoded", "count",
                 "stamp", "clock", "y", "X", "C", "ids", "rank", "symbols",
                 "code_col", "symbol_types")

    def __init__(self, schema: Optional[Schema]):
        self.schema = schema
        self.row_of: dict = {}
        self.examples: list = []
        self.free: list = []
        self.uncoded: set = set()  # rows taken since the last flush
        self.count = _int64s(0)
        self.stamp = _int64s(0)
        self.clock = 0
        self.y = self.X = self.C = None
        self.ids: list = []
        self.rank = np.zeros(0, dtype=np.int64)
        self.symbols: list = []
        self.code_col: list = []
        self.symbol_types: Optional[tuple] = None

    def copy(self) -> "_Store":
        self.flush()
        new = _Store(self.schema)
        new.row_of = dict(self.row_of)
        new.examples = list(self.examples)
        new.free = list(self.free)
        new.count = memoryview(self.count.obj.copy())
        new.stamp = memoryview(self.stamp.obj.copy())
        new.clock = self.clock
        for name in ("y", "X", "C", "rank"):
            a = getattr(self, name)
            setattr(new, name, None if a is None else a.copy())
        new.ids = [dict(d) for d in self.ids]
        new.symbols = list(self.symbols)
        new.code_col = list(self.code_col)
        new.symbol_types = self.symbol_types
        return new

    def __getstate__(self) -> dict:
        # memoryviews do not pickle; the arrays under them do
        state = {name: getattr(self, name) for name in self.__slots__}
        state["count"], state["stamp"] = self.count.obj, self.stamp.obj
        return state

    def __setstate__(self, state: dict) -> None:
        for name, value in state.items():
            setattr(self, name, value)
        self.count, self.stamp = memoryview(self.count), memoryview(self.stamp)

    def check(self, example: LabeledExample, insert: bool = True) -> tuple:
        """(schema, symbol types) to keep once ``take`` has taken example's
        row.  Changes nothing, and raises SchemaError first unless the label
        is an integer equal to 0 or 1, the features fit the schema (inferred
        when the store has none) and, for an insert, the symbols have the
        pinned types.
        """
        label = example.label
        if not (type(label) is int and 0 <= label <= 1
                or _binary_label(label)):
            raise SchemaError(f"label must be 0 or 1, got {label!r}")
        schema = self.schema
        if schema is None:
            schema = Schema.infer(example.features)
        fast = schema.validate(example.features)
        types = self.symbol_types
        if insert and schema._categorical and not (
                fast and types == schema._str_symbols):
            types = schema._check_symbols(example.features, types)
        return schema, types

    def take(self, example: LabeledExample,
             listing: Optional[list] = None) -> int:
        """Count one more copy of example, and return its row: the held
        one, else a free one, else a new one.

        A row handed out afresh is stamped with a new tick of ``clock``,
        and when a listing is given, the pair (row, tick) is appended to
        it.  Raises TypeError for unhashable features before any change.
        """
        free = self.free
        row = free[-1] if free else len(self.examples)
        # setdefault offers the row a new example would take, and returns
        # the held row otherwise
        held = self.row_of.setdefault(example, row)
        if held != row:
            self.count[held] += 1
            return held
        # a free row counts 1 already
        if free:
            del free[-1]
            self.examples[row] = example
        else:
            self.examples.append(example)
            if row == len(self.count):
                self._grow_rows()
        self.uncoded.add(row)
        self.clock = t = self.clock + 1
        self.stamp[row] = t
        if listing is not None:
            listing.append(row)
            listing.append(t)
        return row

    def release(self, row: int) -> None:
        """Count one copy fewer of row's example, and free the row for the
        next example once none is left."""
        count = self.count
        c = count[row]
        if c > 1:
            count[row] = c - 1
            return
        # the row keeps its count of 1 for its next example
        examples = self.examples
        del self.row_of[examples[row]]
        examples[row] = None
        self.free.append(row)
        self.stamp[row] = _FREED

    def _grow_rows(self) -> None:
        n = len(self.count)
        count, stamp = _int64s(2 * n or 16), _int64s(2 * n or 16)
        count.obj[n:] = 1  # rows not yet made count as free ones do
        count.obj[:n] = self.count.obj
        stamp.obj[:n] = self.stamp.obj
        self.count, self.stamp = count, stamp

    def held_rows(self) -> np.ndarray:
        """Every held row id, ascending."""
        return np.flatnonzero(self.stamp.obj[:len(self.examples)] != _FREED)

    def flush(self) -> None:
        """Code the rows taken since the last flush.

        All or nothing: if coding raises, the coded rows, the symbol ids
        and the rank table are as they were, and the rows stay uncoded.
        """
        examples = self.examples
        rows = [r for r in self.uncoded if examples[r] is not None]
        if rows:
            self._code(rows)
        self.uncoded.clear()

    def _code(self, rows: list) -> None:
        # Writes the columns of rows, which are uncoded; only a new
        # symbol's ids and rank, committed together, reach other rows.
        examples = self.examples
        schema = self.schema
        if self.y is None or len(self.y) < len(examples):
            self._grow(len(examples))
        exs = [examples[r] for r in rows]
        idx = np.array(rows, dtype=np.intp)
        k, d = len(rows), schema.arity
        num, cat = schema._real, schema._categorical
        self.y[idx] = [e.label for e in exs]
        if len(num) == d:
            self.X[idx] = np.fromiter(chain.from_iterable(e.features for e in exs),
                                      dtype=np.float64, count=k * d).reshape(k, d)
            return
        by_col = list(zip(*(e.features for e in exs)))
        if num:
            m = len(num)
            self.X[idx] = np.fromiter(
                chain.from_iterable(by_col[j] for j in num), dtype=np.float64,
                count=m * k).reshape(m, k).T
        mc = len(cat)
        if not self.ids:
            self.ids = [{} for _ in cat]

        def code():
            return np.fromiter(
                chain.from_iterable(map(ids.__getitem__, by_col[j])
                                    for ids, j in zip(self.ids, cat)),
                dtype=np.int64, count=mc * k)
        try:
            codes = code()
        except KeyError:  # a symbol without an id
            self._add_symbols([by_col[j] for j in cat], idx)
            codes = code()
        self.C[idx] = codes.reshape(mc, k).T

    def _grow(self, rows: int) -> None:
        size = max(rows, 2 * (0 if self.y is None else len(self.y)), 16)
        m, mc = len(self.schema._real), len(self.schema._categorical)
        for name, cols, dtype in (("y", None, np.float64), ("X", m, np.float64),
                                  ("C", mc, np.int64)):
            if cols == 0:
                continue
            a = np.zeros(size if cols is None else (size, cols), dtype=dtype)
            old = getattr(self, name)
            if old is not None:
                a[:len(old)] = old
            setattr(self, name, a)

    def _add_symbols(self, batch: list, rows: np.ndarray) -> None:
        # Gives ids to the symbols of batch (per categorical column, the
        # symbols of the rows being coded) that have none, then ranks every
        # id again: O(symbols log symbols), whatever the number of rows.
        # The new tables are made aside and committed only once the sort,
        # which can raise, is done.
        n = sum(map(len, self.ids))
        live = None
        if n > 2 * len(self.ids) * len(self.examples):
            # more ids than twice the rows' cells: drop those no row holds,
            # so the tables stay O(rows); as many ids were made since the
            # last drop as this one costs
            live, held, ids = self._drop_unheld(rows)
            n = sum(map(len, ids))
        else:
            ids = [dict(codes) for codes in self.ids]
        for codes, values in zip(ids, batch):
            for v in values:
                if v not in codes:
                    codes[v] = n
                    n += 1
        rank = np.zeros(n, dtype=np.int64)
        symbols, code_col = [], []
        for jj, codes in enumerate(ids):
            col = sorted(codes)
            rank[[codes[v] for v in col]] = np.arange(len(symbols),
                                                      len(symbols) + len(col))
            symbols += col
            code_col += [jj] * len(col)
        if live is not None:
            self.C[live] = held
        self.ids, self.rank, self.symbols, self.code_col = (ids, rank, symbols,
                                                            code_col)

    def _drop_unheld(self, rows: np.ndarray) -> tuple:
        # The ids of symbols that some coded row holds, numbered again in
        # the same order, as (coded rows, their renumbered ids, new id
        # tables); changes nothing.  rows are being coded, so their ids are
        # stale.
        n = sum(map(len, self.ids))
        live = np.fromiter(self.row_of.values(), dtype=np.intp,
                           count=len(self.row_of))
        stale = np.zeros(len(self.examples), dtype=bool)
        stale[rows] = True
        live = live[~stale[live]]
        held = self.C[live]
        used = np.zeros(n, dtype=bool)
        used[held] = True
        renumber = np.cumsum(used) - 1
        held = renumber[held]
        renumber = renumber.tolist()
        used = used.tolist()
        ids = [{v: renumber[i] for v, i in codes.items() if used[i]}
               for codes in self.ids]
        return live, held, ids

    def columns(self, rows: np.ndarray) -> tuple:
        """(w, wy, X, C) of an array of held row ids.

        w and wy are the rows' counts and 1-label counts as float64
        (integers, exact below 2**53); X and C are the rows' real matrix
        and code matrix, or None for a schema without real or without
        categorical features.
        """
        self.flush()
        w = self.count.obj[rows].astype(np.float64)
        return (w, w * self.y[rows],
                None if self.X is None else self.X[rows],
                None if self.C is None else self.rank[self.C[rows]])


class ActiveMultiset:
    """Multiset of labeled examples keyed by (features, label) with counts.

    Stored in a ``_Store`` of its own, which holds exactly the examples it
    counts and their counts, so point updates take O(1) expected time.
    ``items``, ``items_list`` and iteration sort on each call and
    enumerate in lexicographic order.  The schema is pinned on
    construction or by the first inserted example, and the store pins the
    symbol type of each categorical column.
    """

    __slots__ = ("_store", "_total")

    def __init__(self, schema: Optional[Schema] = None):
        self._store = _Store(schema)
        self._total = 0

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
        schema: Schema,
    ) -> "ActiveMultiset":
        # Internal: trusted pre-validated (example, count) pairs with
        # distinct examples of one symbol type per column, in any order,
        # pinned by the first of them.
        s = cls(schema)
        store = s._store
        for e, c in items:
            row = store.take(e)  # may grow count, so look count up after
            store.count[row] = c
            s._total += c
        if store.examples:
            store.symbol_types = schema._check_symbols(
                store.examples[0].features, None)
        return s

    def items_list(self) -> list:
        """Sorted (example, count) pairs as a plain list."""
        return sorted(self._unsorted_items())

    def _unsorted_items(self) -> list:
        # Internal: (example, count) pairs in storage order, for callers
        # whose result does not depend on the order.
        count = self._store.count
        return [(e, count[r]) for e, r in self._store.row_of.items()]

    @property
    def schema(self) -> Optional[Schema]:
        return self._store.schema

    @property
    def distinct_size(self) -> int:
        return len(self._store.row_of)

    def __len__(self) -> int:
        return self._total

    def __bool__(self) -> bool:
        return self._total > 0

    def __contains__(self, example: LabeledExample) -> bool:
        return example in self._store.row_of

    def __iter__(self) -> Iterator[LabeledExample]:
        return iter(sorted(self._store.row_of))

    def __eq__(self, other) -> bool:
        if not isinstance(other, ActiveMultiset):
            return NotImplemented
        return dict(self._unsorted_items()) == dict(other._unsorted_items())

    def insert(self, example: LabeledExample) -> None:
        store = self._store
        schema, types = store.check(example)
        store.take(example)
        # take raises TypeError for unhashable features before it changes
        # anything, so an inferred schema and the pin are kept only after it
        store.schema = schema
        store.symbol_types = types
        self._total += 1

    def delete(self, example: LabeledExample) -> None:
        store = self._store
        row = store.row_of.get(example)
        if row is None:
            raise ExampleNotFound(f"example not in active set: {example}")
        store.release(row)
        self._total -= 1

    def count(self, example: LabeledExample) -> int:
        store = self._store
        row = store.row_of.get(example)
        return 0 if row is None else store.count[row]

    def items(self) -> Iterator[tuple[LabeledExample, int]]:
        return iter(self.items_list())

    def label_counts(self) -> tuple[int, int]:
        count = self._store.count
        n1 = sum([count[r] for e, r in self._store.row_of.items()
                  if e.label == 1])
        return self._total - n1, n1

    def copy(self) -> "ActiveMultiset":
        new = ActiveMultiset.__new__(ActiveMultiset)
        new._store = self._store.copy()
        new._total = self._total
        return new


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

    A leaf lists the rows of its tree's row store (``_Store``) whose
    examples route to it, and keeps their label histogram.  ``leaf_rows``
    is the array of rows the builder listed, all under the ticket
    ``leaf_ticket`` (the store's clock when it built the leaf);
    ``leaf_new`` is a flat list of (row, ticket) pairs, one per row an
    update took afresh for this leaf since (None until the first).  An
    insert that makes ``leaf_new`` too long folds the leaf's current
    listings into a new ``leaf_rows`` under the clock's ticket (see
    ``dynamic``).  A
    listing is current while the row's stamp is at most its ticket, and a
    held row has exactly one current listing; the others are stale, left
    behind by rows that were freed (see the module docstring).  The
    example counts are the store's.  Every node carries the rebuild
    counters: ``size`` is the subtree size at the time the node was built
    and ``pending`` counts updates routed through it since.
    """

    depth: int
    size: int = 0
    pending: int = 0
    split: Optional[Split] = None
    left: Optional["TreeNode"] = None
    right: Optional["TreeNode"] = None
    split_gain: float = 0.0
    leaf_label: int = 0
    leaf_rows: Optional[np.ndarray] = None
    leaf_ticket: int = 0
    leaf_new: Optional[list] = None
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
        # written so that a NaN epsilon, which compares false both ways and
        # would make every drift bound NaN, is rejected too
        if not self.epsilon >= 0.0:
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
