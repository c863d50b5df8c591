"""Core types shared by the tree engine, the oracle, and the harness.

Examples are immutable (features, label) pairs with binary labels.  The
active set is a multiset over examples, kept in a row store
(``_Store``): each distinct example gets one row, coded into column
arrays once, and the store counts each row's copies in one dense per-row
count and all of them in one total.  A caller's multiset owns its store;
a tree keeps one for all its leaves, and each leaf lists the rows routed
to it (see ``TreeNode``), so a rebuild slices the store's columns and
counts by row id instead of re-reading examples.  A multiset made from a
batch (``ActiveMultiset.from_examples``) takes all its rows in one pass
when every example would pass ``Schema.validate``'s fast path, checked
column by column; any other batch is inserted one example at a time, and
both leave the same store.  A row is coded by the first flush after its
take: a rebuild's flush, which codes only the few rows taken since the
last one, writes them cell by cell in Python, and a large one, such as a
set-up's, with numpy (see ``_Store``).  Enumeration sorts on demand,
lexicographically by features then label, so its order is deterministic
regardless of the order updates arrived in.

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
import math
import operator
import struct
from dataclasses import dataclass, field
from itertools import chain
from typing import Iterable, Iterator, NamedTuple, Optional, Sequence

import numpy as np


class SchemaError(ValueError):
    """Example shape or feature kind disagrees with the declared schema."""


class ExampleNotFound(KeyError):
    """Deletion of an example that is not in the active set."""


# The exact types a categorical symbol may have.  A rebuild sorts each
# column's symbols, which share one type (see Schema._check_symbols), and
# within each of these types ``<`` cannot raise; subclasses, which may
# override it, are not among them.
_SYMBOL_TYPES = frozenset((
    str, np.str_, int, bool, np.int8, np.int16, np.int32, np.int64,
    np.longlong, np.uint8, np.uint16, np.uint32, np.uint64, np.ulonglong))


def _exact_float(v: int) -> bool:
    try:
        return float(v) == v
    except OverflowError:  # beyond the largest float64
        return False


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
    # categorical column, or None, the pin of a schema without one (see
    # _check_symbols).
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
        object.__setattr__(self, "_str_symbols", (str,) * len(cat) or None)

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
        """Derive kinds from one example.  An int other than a bool, or a
        float (``np.float64`` is a float subclass), is real; every other
        value is categorical, ``bool`` and numpy integers included."""
        kinds = []
        for v in features:
            if isinstance(v, bool) or not isinstance(v, (int, float)):
                kinds.append(FeatureKind.CATEGORICAL)
            else:
                kinds.append(FeatureKind.REAL)
        return cls(tuple(kinds))

    def validate(self, features: Sequence) -> bool:
        """Raise SchemaError unless features fit this schema.

        Real features must be int or float (not bool, not NaN), and an int
        must have an exact float64 value (``2**53 + 1`` and ``10**400``
        have none); categorical ones must have exactly one of the symbol
        types in ``_SYMBOL_TYPES``: ``str``, ``np.str_``, ``int``, ``bool``
        or a numpy integer type, not a subclass.  The fast path
        accepts only features of the right arity whose every value has
        exactly its column's type in ``_exact`` (float or str) and is not
        NaN: a subset of what ``_validate_full`` accepts.  Everything else
        goes to that full check, so acceptance and error messages do not
        depend on the path taken.

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
            if kind is not FeatureKind.REAL:
                if type(v) not in _SYMBOL_TYPES:
                    raise SchemaError(
                        f"feature {j} must be a str or integer symbol, "
                        f"got {v!r} of type {type(v).__name__}")
            elif isinstance(v, bool) or not isinstance(v, (int, float)):
                raise SchemaError(
                    f"feature {j} must be real-valued, got {v!r}")
            elif v != v:
                # NaN compares false to every threshold and equal to nothing
                raise SchemaError(f"feature {j} is NaN")
            elif not isinstance(v, float) and not _exact_float(v):
                # the row store codes real values as float64, and a rounded
                # int would route one way and be built another
                raise SchemaError(
                    f"feature {j} is an int that float64 cannot hold exactly")

    def _check_symbols(self, features: Sequence, pinned: Optional[tuple]) -> tuple:
        # Symbols of one categorical column are sorted together when a
        # subtree is built, so each column takes one symbol type, pinned in
        # the row store (``_Store.symbol_types``) by its first example;
        # pinned is None before that.  Returns the types of features'
        # categorical values, to pin, or None for a schema without
        # categorical columns, which pins nothing.  Call after validate.
        types = tuple([type(features[j]) for j in self._categorical]) or None
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
    """An example of label 0 or 1, stored as an int.  The label must be an
    integer (int, bool or a type with ``__index__``), as the tree's
    boundary requires: 1.7, "1" and ``np.True_`` are rejected, not
    coerced."""
    if not _binary_label(label):
        raise ValueError(f"label must be 0 or 1, got {label!r}")
    return LabeledExample(tuple(features), int(label))


# stamp of a freed row: above every ticket, so no listing of it is current
_FREED = np.iinfo(np.int64).max

# A flush of at most CODE_CELLS cells (rows times features) writes its rows
# cell by cell through memoryviews; a larger one packs its real values into
# one bytes object (``_reals``) and writes by numpy fancy assignment.
# Measured per flush, the two break even near 20 cells for all-real rows,
# 30 for all-categorical ones and 40 for mixed ones; a one-row flush takes
# 0.4-0.7 of numpy's time.
CODE_CELLS = 30


def _reals(values: Iterable, cells: int) -> np.ndarray:
    """The float64 of each of cells real values, + 0.0, which turns -0.0
    into 0.0.  One ``struct.pack`` converts them all, faster than
    ``np.fromiter``, and numpy reads its bytes without a copy."""
    return np.frombuffer(struct.pack(f"{cells}d", *values)) + 0.0


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
    ``count``, ``stamp`` or ``total``.  ``count[r]`` is the number of
    copies of row r's example that the store's holder (a caller's
    multiset, or the leaves of one tree) holds, and ``total`` the number
    of copies of all of them, which the holder reads as its size: each
    ``take`` counts one copy and each ``release`` one fewer, in both.  A
    free row counts 1, the count it has when it is taken again, so that
    neither call writes the count of a row it takes afresh or frees.
    ``take`` ticks ``clock`` for every row it hands out afresh and writes
    the tick to the row's ``stamp``; ``release`` writes ``_FREED`` when it
    frees a row.  A tree lists a row in a leaf with a ticket, and the
    listing is current while ``stamp <= ticket`` (see the module
    docstring).  ``count`` and ``stamp`` are memoryviews of int64 arrays,
    grown geometrically, so they may hold more rows than there are row
    ids.  ``take_all`` takes a whole batch into an empty store in one pass
    and writes what a run of ``take`` calls would; ``check_all`` says
    whether the batch may go that way, that is whether every example
    would pass ``check`` on ``Schema.validate``'s fast path.  A batch that
    may not is taken one ``take`` at a time (see
    ``ActiveMultiset.from_examples``).

    Coding waits for ``flush``, which fills the columns of the rows taken
    since: ``y`` (labels), ``X`` (real features, one column per real
    feature, float64) and ``C`` (categorical symbol ids, int64).  It makes
    every value and id first and writes only then: a flush of at most
    ``CODE_CELLS`` cells (rows times features), as most rebuilds' are,
    writes cell by cell through memoryviews of the arrays, and a larger
    one packs all its real values with one ``struct.pack`` (``_reals``),
    takes its labels as one bytes object and writes by numpy fancy
    assignment; the two write the same.  A symbol gets an id when it first
    reaches a column (``ids``, per column: symbol -> id), so a new symbol
    never touches the rows already coded.
    ``rank`` maps ids to the codes that ``columns`` hands out: global
    across columns, each column's in one block that follows its sorted
    symbols (see the module docstring), with ``symbols[code]`` and
    ``code_col[code]`` the symbol and the categorical column of a code.
    The arrays grow geometrically, so they may hold more rows than there
    are row ids.  ``symbol_types`` is the symbol type of each categorical
    column, pinned by the first example the store took (see
    ``Schema._check_symbols``); None before that, and always for a schema
    without categorical columns.  Each is one of ``_SYMBOL_TYPES``, whose
    ``<`` cannot raise within the type, so the sort of a column's symbols
    in ``_add_symbols`` cannot fail on them.

    ``copy`` clones the store from the state that pickling takes (see
    ``__getstate__``), one level deep: every container and array in it is
    copied, and what they hold is shared.
    """

    __slots__ = ("schema", "row_of", "examples", "free", "uncoded", "count",
                 "stamp", "clock", "total", "y", "X", "C", "ids", "rank",
                 "symbols", "code_col", "symbol_types")

    def __init__(self, schema: Optional[Schema]):
        self.schema = schema
        self.row_of: dict = {}
        self.examples: list = []
        self.free: list = []
        self.uncoded: set = set()  # rows taken since the last flush
        self.count = _int64s(0)
        self.stamp = _int64s(0)
        self.clock = 0
        self.total = 0
        self.y = self.X = self.C = None
        self.ids: list = []
        self.rank = np.zeros(0, dtype=np.int64)
        self.symbols: list = []
        self.code_col: list = []
        self.symbol_types: Optional[tuple] = None

    def copy(self) -> "_Store":
        # Codes nothing: the copy's uncoded rows are this store's, and each
        # store codes them at its own next flush.  The two stores share
        # only what the containers hold, which no store changes in place:
        # examples, symbols, ints and the dicts in ids, since _add_symbols
        # and _drop_unheld always build new ones.
        state = self.__getstate__()
        for name, value in state.items():
            if hasattr(value, "copy"):  # a container or an array
                state[name] = value.copy()
        new = _Store.__new__(_Store)
        new.__setstate__(state)
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

    def check(self, example: LabeledExample, valid: bool = False) -> tuple:
        """(schema, symbol types) to keep once ``take`` has taken example's
        row.  Changes nothing, and raises SchemaError first unless the label
        is an integer equal to 0 or 1, the features fit the schema (inferred
        when the store has none) and the symbols have the pinned types.  A
        delete that does not pass the held object runs the same checks.
        ``valid`` says the caller knows the features pass
        ``Schema.validate``'s fast path under the store's schema (as
        ``DecisionTree.update`` does for the tuple its last query
        accepted); ``Schema.validate`` is then skipped, and the label and
        symbol types are checked all the same.
        """
        label = example.label
        if not (type(label) is int and 0 <= label <= 1
                or _binary_label(label)):
            raise SchemaError(f"label must be 0 or 1, got {label!r}")
        schema = self.schema
        if schema is None:
            schema = Schema.infer(example.features)
        fast = valid or schema.validate(example.features)
        types = self.symbol_types
        if not (fast and types == schema._str_symbols):
            types = schema._check_symbols(example.features, types)
        return schema, types

    def check_all(self, examples: list) -> Optional[tuple]:
        """(schema, symbol types) to keep once ``take_all`` has taken
        examples into this empty store, when every one of them would pass
        ``check`` on ``Schema.validate``'s fast path: exactly a
        ``LabeledExample`` with an ``int`` label of 0 or 1, and features
        exactly a ``tuple`` of the schema's arity (inferred from the first
        example when the store has none) whose every value has exactly its
        column's type in ``_exact`` and is not NaN.  None otherwise,
        including a real column that holds both inf and -inf, whose sum is
        NaN.  Changes nothing and raises nothing.
        """
        if set(map(type, examples)) != {LabeledExample}:
            return None
        feats, labels = zip(*examples)
        if set(map(type, labels)) != {int} or not set(labels) <= {0, 1}:
            return None
        if set(map(type, feats)) != {tuple}:
            return None
        schema = self.schema
        if schema is None:
            if not feats[0]:  # no schema of no feature; insert raises
                return None
            schema = Schema.infer(feats[0])
        exact = schema._exact
        if set(map(len, feats)) != {len(exact)}:
            return None
        for col, t in zip(zip(*feats), exact):
            if set(map(type, col)) != {t}:
                return None
            if t is float:
                total = sum(col)
                if total != total:  # a NaN, or both inf and -inf
                    return None
        return schema, schema._str_symbols

    def take_all(self, examples: list,
                 counts: Optional[list] = None) -> None:
        """Take every one of examples into this empty store in one pass,
        writing what a run of ``take`` calls would: rows in first-seen
        order, each holding the first of its equal examples, counts equal
        to multiplicities, stamps 1..k and ``clock`` k for k rows, every
        row uncoded, ``total`` the batch's length, and per-row arrays grown
        as ``take`` grows them, whose unused rows count 1.  With counts,
        the examples are distinct and example i is taken counts[i] times.
        Checks nothing (see ``check_all``)."""
        row_of: dict = {}
        setdefault = row_of.setdefault
        rows = [setdefault(e, len(row_of)) for e in examples]
        k = len(row_of)
        if k > len(self.count):
            self._grow_rows(k)
        if counts is None:
            self.count.obj[:k] = np.bincount(rows)
            self.total = len(examples)
        else:
            self.count.obj[:k] = counts
            self.total = sum(counts)
        self.stamp.obj[:k] = np.arange(1, k + 1)
        self.row_of = row_of
        self.examples = list(row_of)
        self.uncoded = set(range(k))
        self.clock = k

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
        self.total += 1
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
                self._grow_rows(row + 1)
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
        self.total -= 1
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

    def _grow_rows(self, rows: int) -> None:
        # doubles the per-row arrays, from 16 rows, until they hold rows
        n = len(self.count)
        size = 2 * n or 16
        while size < rows:
            size *= 2
        count, stamp = _int64s(size), _int64s(size)
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
        # Every value and id is made before the first write, so a raise
        # leaves the columns as they were.  A flush of at most CODE_CELLS
        # cells writes them one by one through memoryviews, where numpy's
        # cost per call would outweigh its copying; a larger one packs its
        # real values in one go (``_reals``) and writes by fancy assignment.
        examples = self.examples
        schema = self.schema
        if self.y is None or len(self.y) < len(examples):
            self._grow(len(examples))
        exs = [examples[r] for r in rows]
        k, d = len(rows), len(schema.kinds)
        num, cat = schema._real, schema._categorical
        few = k * d <= CODE_CELLS
        if not few:
            # one pass splits the examples into features and labels; the
            # labels, checked to be integers equal to 0 or 1, are bytes
            feats, labels = zip(*exs)
            labels = np.frombuffer(bytes(labels), dtype=np.uint8)
        # real values are coded + 0.0 on both paths, which turns -0.0 into
        # 0.0: the two compare equal, so a threshold at their run would
        # otherwise read as whichever sign the run's held example arrived
        # with
        if not (few or cat):
            x = _reals(chain.from_iterable(feats), k * d)
            idx = np.array(rows, dtype=np.intp)
            self.y[idx] = labels
            self.X[idx] = x.reshape(k, d)
            return
        by_col = None if few else list(zip(*feats))
        if cat and not self.ids:
            self.ids = [{} for _ in cat]

        def code():
            # raises KeyError for a symbol without an id
            if few:  # (row, label, real values, ids) per row
                idcols = list(zip(self.ids, cat))
                return [(r, e.label, [f[j] + 0.0 for j in num],
                         [ids[f[j]] for ids, j in idcols])
                        for r, e in zip(rows, exs) for f in (e.features,)]
            return np.fromiter(
                chain.from_iterable(map(ids.__getitem__, by_col[j])
                                    for ids, j in zip(self.ids, cat)),
                dtype=np.int64, count=len(cat) * k).reshape(len(cat), k).T
        try:
            coded = code()
        except KeyError:  # a symbol without an id
            cols = by_col or list(zip(*(e.features for e in exs)))
            self._add_symbols([cols[j] for j in cat], rows)
            coded = code()
        if few:
            y = memoryview(self.y)
            X = None if self.X is None else memoryview(self.X)
            C = None if self.C is None else memoryview(self.C)
            for r, label, xs, ids in coded:
                y[r] = label
                for jj, v in enumerate(xs):
                    X[r, jj] = v
                for jj, v in enumerate(ids):
                    C[r, jj] = v
            return
        if num:
            x = _reals(chain.from_iterable(by_col[j] for j in num),
                       len(num) * k)
        idx = np.array(rows, dtype=np.intp)
        self.y[idx] = labels
        if num:
            self.X[idx] = x.reshape(len(num), k).T
        self.C[idx] = coded

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

    def _add_symbols(self, batch: list, rows: list) -> None:
        # Gives ids to the symbols of batch (per categorical column, the
        # symbols of the rows being coded) that have none, then ranks every
        # id again: O(symbols log symbols), whatever the number of rows.
        # The new tables are made aside and committed together at the end,
        # so a raise on the way leaves them as they were.
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

    def _drop_unheld(self, rows: list) -> tuple:
        # The ids of symbols that some coded row holds, numbered again in
        # the same order, as (coded rows, their renumbered ids, new id
        # tables); changes nothing.  rows are being coded, so their ids are
        # stale.
        n = sum(map(len, self.ids))
        live = self.held_rows()
        stale = np.zeros(len(self.examples), dtype=bool)
        stale[rows] = True
        live = live[~stale[live]]
        held = self.C.take(live, axis=0)
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
        if self.y is None:  # no row coded yet: empty columns of the schema
            self._grow(0)
        w = self.count.obj[rows].astype(np.float64)
        # matrix rows by take, not X[rows], which takes numpy's slower path
        return (w, w * self.y[rows],
                None if self.X is None else self.X.take(rows, axis=0),
                None if self.C is None
                else self.rank.take(self.C.take(rows, axis=0)))


class ActiveMultiset:
    """Multiset of labeled examples keyed by (features, label) with counts.

    Stored in a ``_Store`` of its own, which holds exactly the examples it
    counts and their counts, so point updates take O(1) expected time.
    The store counts the copies too (``_Store.total``, the multiset's
    length), and ``copy`` clones it (``_Store.copy``).  ``items`` and
    iteration sort on each call and enumerate in lexicographic order.  The
    schema is pinned on construction or by the first inserted example, and
    the store pins the symbol type of each categorical column.
    """

    __slots__ = ("_store",)

    def __init__(self, schema: Optional[Schema] = None):
        self._store = _Store(schema)

    @classmethod
    def from_examples(
        cls, examples: Iterable[LabeledExample], schema: Optional[Schema] = None
    ) -> "ActiveMultiset":
        """The multiset of examples, as if each were inserted in turn.

        A batch that ``Schema.validate``'s fast path would accept example
        by example (see ``_Store.check_all``) is taken in one pass
        (``_Store.take_all``); any other goes through ``insert`` one
        example at a time, from the start, so what is accepted, every
        exception and the final state do not depend on the path taken.
        """
        s = cls(schema)
        examples = list(examples)
        store = s._store
        checked = store.check_all(examples)
        if checked is None:
            for e in examples:
                s.insert(e)
            return s
        store.take_all(examples)
        store.schema, store.symbol_types = checked
        return s

    @classmethod
    def _from_sorted_items(
        cls,
        items: Iterable[tuple[LabeledExample, int]],
        schema: Schema,
    ) -> "ActiveMultiset":
        # Internal: trusted pre-validated (example, count) pairs with
        # distinct examples of one symbol type per column, in any order,
        # pinned by the first of them as insert pins them.
        s = cls(schema)
        store = s._store
        items = list(items)
        store.take_all([e for e, _ in items], [c for _, c in items])
        if store.examples:
            store.symbol_types = schema._check_symbols(
                store.examples[0].features, None)
        return s

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
        return self._store.total

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

    def delete(self, example: LabeledExample) -> None:
        store = self._store
        row = store.row_of.get(example)
        if row is None:
            raise ExampleNotFound(f"example not in active set: {example}")
        store.release(row)

    def count(self, example: LabeledExample) -> int:
        store = self._store
        row = store.row_of.get(example)
        return 0 if row is None else store.count[row]

    def items(self) -> Iterator[tuple[LabeledExample, int]]:
        return iter(sorted(self._unsorted_items()))

    def label_counts(self) -> tuple[int, int]:
        count = self._store.count
        n1 = sum([count[r] for e, r in self._store.row_of.items()
                  if e.label == 1])
        return self._store.total - n1, n1

    def copy(self) -> "ActiveMultiset":
        new = ActiveMultiset.__new__(ActiveMultiset)
        new._store = self._store.copy()
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


@dataclass(slots=True, eq=False)
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

    Nodes compare and hash by identity, and ``repr`` shows one node, not
    its children, so it stays short and flat on a tree of any height.
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

    def __repr__(self) -> str:
        head = (f"TreeNode(depth={self.depth}, size={self.size}, "
                f"pending={self.pending}, height={self.height}, ")
        if self.split is not None:
            return head + f"split={self.split!r})"
        # rows listed, stale listings included (see above)
        rows = 0 if self.leaf_rows is None else len(self.leaf_rows)
        rows += len(self.leaf_new or ()) // 2
        return head + (f"leaf_label={self.leaf_label}, "
                       f"label_hist={self.label_hist}, rows={rows})")

    @property
    def is_leaf(self) -> bool:
        return self.split is None

    def route_child(self, features: Sequence) -> "TreeNode":
        return self.left if self.split.routes_left(features) else self.right


def _positive_int(v) -> bool:
    return isinstance(v, int) and not isinstance(v, bool) and v >= 1


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
        # the must-leaf rule tests depth == h, which a fractional h never
        # meets, while the builder caps depth by eta >= h
        if not _positive_int(self.k):
            raise ValueError(f"k must be a positive integer, got {self.k!r}")
        if self.h is not None and not _positive_int(self.h):
            raise ValueError(
                f"h must be a positive integer or None, got {self.h!r}")
        # written so that a NaN epsilon, which compares false both ways, is
        # rejected too; NaN would make every drift bound NaN, and so would
        # an infinite one on an empty subtree (inf * 0), which never rebuilds
        if not 0.0 <= self.epsilon < math.inf:
            raise ValueError(
                f"epsilon must be nonnegative and finite, got {self.epsilon}")

    @property
    def guaranteed(self) -> bool:
        """True when epsilon is small enough for the maintenance guarantee."""
        if self.epsilon <= 0.0:
            return False
        bound = min(1.0 / (self.k + 1), self.alpha / 5.0, self.beta / 12.5)
        return self.epsilon < bound
