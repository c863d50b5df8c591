"""Core types shared by the tree engine, the oracle, and the harness.

Examples are immutable (features, label) pairs with binary labels.  The
active set is a multiset over examples, kept in a row store
(``_Store``): each distinct example gets one row, coded into column
arrays once, and the store counts each row's copies in one dense per-row
count and all of them in one total.  Its per-row arrays share one
capacity, which one growth step raises before a take writes anything.  A
caller's multiset owns its store; a tree keeps one for all its leaves,
and each leaf lists the rows routed to it (see ``TreeNode``), so a
rebuild slices the store's columns and counts by row id instead of
re-reading examples.  The store lists nothing: the tree lists each row
that a take hands out afresh in the leaf its example routes to.  Both
holders edit the store by example through one pair: ``_Store.take``
counts a copy in and pins its symbol types, and ``_Store.remove``
counts one out under the one delete rule, checking the example unless
it is the very object held.  A
multiset made from a batch (``ActiveMultiset.from_examples``) takes all
its rows in one pass when every example would pass ``Schema.validate``'s
fast path, checked column by column; any other batch is inserted one
example at a time, and both leave the same store.  A row is coded by the
first flush after its take: a rebuild's flush, which codes only the few
rows taken since the last one, writes them cell by cell in Python, and a
large one, such as a set-up's, with numpy (see ``_Store``).  Enumeration
sorts on demand, lexicographically by features then label, so its order
is deterministic regardless of the order updates arrived in.

Store invariants, which hold whenever the store is flushed (see
``_Store.flush``):

- one row per distinct example the store holds: ``row_of`` maps each of
  them to its row, and ``count[row]`` is its number of copies;
- a row freed by the last delete of its example counts 0, and is reused
  only once its holder hands it back (``_Store.recycle``): a multiset at
  once, a tree once no leaf lists the row (see ``TreeNode``).  So a
  row is listed at most once, and a listing is current exactly when its
  row is held.  A new row is made only when no recycled row is left, so
  row ids never outnumber the most, at any one time, of the distinct
  examples held plus the freed rows that some leaf still lists (see
  ``dynamic`` for a bound on those);
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


class _Store:
    """Rows of distinct examples, coded into column arrays.

    Row r holds ``examples[r]`` (None while free) and ``row_of`` maps each
    held example back to its row.  The store is edited by example through
    one pair, in pure Python: ``take`` counts a copy in and ``remove``
    counts one out, applying the delete rule (see ``remove``).  Rows
    that ``remove`` frees are handed back for reuse by ``recycle``.
    ``take`` (and ``take_all`` for a batch) writes ``row_of``,
    ``examples``, ``free``, ``uncoded``, ``count``, ``total`` and
    ``symbol_types``; ``remove`` writes ``row_of``, ``examples``,
    ``count`` and ``total``; ``recycle`` writes ``free``, and ``flush``
    ``uncoded``.  Nothing else writes them, but the tree's undo of a
    failed insert restores the ``symbol_types`` it found (see
    ``DecisionTree.update``).  ``count[r]`` is the number of copies of
    row r's example that the store's holder (a caller's multiset, or the
    leaves of one tree) holds, 0 for a free row, and ``total`` the number
    of copies of all of them, which the holder reads as its size.  A row
    that ``remove`` frees is not reused until the holder passes it to
    ``recycle``, which it does once nothing it keeps names the row (see
    the module docstring); ``free`` lists the rows recycled and not taken
    since, and ``take`` hands them out before it makes a new one.  The
    store lists no row: its holder keeps track of the rows that ``take``
    hands out afresh, those it counts 1 (see ``TreeNode``).  ``count`` is
    a memoryview of an int64 array.  ``take_all`` takes a whole batch
    into an empty store in one pass and writes what a run of ``take``
    calls would; ``check_all`` says whether the batch may go that way,
    that is whether every example would pass ``check`` on
    ``Schema.validate``'s fast path.  A batch that may not is taken one
    ``take`` at a time (see ``ActiveMultiset.from_examples``).

    Every per-row array, ``count`` and the columns ``y``, ``X`` and ``C``
    below, has one capacity: no rows until the first take, then 16 rows,
    doubled as rows are made, so it may hold more rows than there are row
    ids; a row not yet made counts 0.
    One growth step, ``_grow``, sizes them all: it makes every new array
    before it assigns any, and ``take`` and ``take_all`` call it before
    their first write, so a growth that raises leaves the store as it
    was.  The columns exist once the schema is known: a store made
    without one is empty, and a multiset replaces it at its first insert
    (see ``ActiveMultiset.insert``).

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
    ``symbol_types`` is the symbol type of each categorical
    column, pinned by the first example the store took (see
    ``Schema._check_symbols``): ``take`` and ``take_all`` write the types
    their caller had ``check`` or ``check_all`` return, which equal the
    pin once there is one.  None before that, and always for a schema
    without categorical columns.  Each is one of ``_SYMBOL_TYPES``, whose
    ``<`` cannot raise within the type, so the sort of a column's symbols
    in ``_add_symbols`` cannot fail on them.

    ``copy`` clones the store from the state that pickling takes (see
    ``__getstate__``), one level deep: every container and array in it is
    copied, and what they hold is shared.
    """

    __slots__ = ("schema", "row_of", "examples", "free", "uncoded", "count",
                 "total", "y", "X", "C", "ids", "rank", "symbols", "code_col",
                 "symbol_types")

    def __init__(self, schema: Optional[Schema]):
        self.schema = schema
        self.row_of: dict = {}
        self.examples: list = []
        self.free: list = []
        self.uncoded: set = set()  # rows taken since the last flush
        self.total = 0
        self.count = self.y = self.X = self.C = None
        self.ids: list = []
        self.rank = np.zeros(0, dtype=np.int64)
        self.symbols: list = []
        self.code_col: list = []
        self.symbol_types: Optional[tuple] = None
        self._grow(0)

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
        state["count"] = self.count.obj
        return state

    def __setstate__(self, state: dict) -> None:
        for name, value in state.items():
            setattr(self, name, value)
        self.count = memoryview(self.count)

    def check(self, example: LabeledExample, valid: bool = False) -> tuple:
        """(schema, symbol types) of example, the types for ``take`` to
        pin.  Changes nothing, and raises SchemaError first unless the label
        is an integer equal to 0 or 1, the features fit the schema (inferred
        when the store has none) and the symbols have the pinned types.  A
        ``remove`` that is not handed the held object runs the same checks.
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
        """(schema, symbol types) of examples, the types for ``take_all``
        to pin, when every one of them would pass
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

    def take_all(self, examples: list, types: Optional[tuple],
                 counts: Optional[list] = None) -> None:
        """Take every one of examples into this empty store in one pass,
        writing what a run of ``take`` calls would: rows in first-seen
        order, each holding the first of its equal examples, counts equal
        to multiplicities, every row uncoded, ``total`` the batch's length,
        the per-row counts grown as ``take`` grows them, whose unused rows
        count 0, and types pinned.  With counts, the examples are distinct
        and example i is taken counts[i] times.  Checks nothing (see
        ``check_all``)."""
        row_of: dict = {}
        setdefault = row_of.setdefault
        rows = [setdefault(e, len(row_of)) for e in examples]
        k = len(row_of)
        if k > len(self.count):
            self._grow(k)
        if counts is None:
            self.count.obj[:k] = np.bincount(rows)
            self.total = len(examples)
        else:
            self.count.obj[:k] = counts
            self.total = sum(counts)
        self.row_of = row_of
        self.examples = list(row_of)
        self.uncoded = set(range(k))
        self.symbol_types = types

    def take(self, example: LabeledExample, types: Optional[tuple]) -> int:
        """Count one more copy of example, pin types, the symbol types that
        ``check`` returned for it, and return its row: the held one, else a
        recycled one, else a new one, which counts 1.

        Raises TypeError for unhashable features, and whatever the growth
        step raises, before any change.
        """
        free = self.free
        row = free[-1] if free else len(self.examples)
        # a new example past the capacity grows the arrays first; the
        # lookup raises TypeError for unhashable features, as setdefault
        # does
        if row == len(self.count) and example not in self.row_of:
            self._grow(row + 1)
        # setdefault offers the row a new example would take, and returns
        # the held row otherwise
        held = self.row_of.setdefault(example, row)
        self.total += 1
        self.symbol_types = types
        if held != row:
            self.count[held] += 1
            return held
        if free:
            del free[-1]
            self.examples[row] = example
        else:
            self.examples.append(example)
        self.count[row] = 1
        self.uncoded.add(row)
        return row

    def remove(self, example: LabeledExample) -> tuple:
        """Count one copy of example out, and return (its row, the object
        the row held).  The row is freed once no copy is left: it counts 0
        and holds no example, but ``take`` hands it out again only after
        ``recycle``.

        The store holds only examples that passed ``check`` when they were
        taken, so a remove of the very object held skips it.  Any other
        runs it, because equality can join values of types the schema
        rejects (``True == 1.0``), and raises ``ExampleNotFound`` when
        the store holds no equal example; every raise comes before any
        change.
        """
        row_of = self.row_of
        try:
            row = row_of.get(example)
        except TypeError:  # unhashable features
            self.check(example)
            raise
        held = None if row is None else self.examples[row]
        if held is not example:
            self.check(example)
            if row is None:
                raise ExampleNotFound(f"example not in active set: {example}")
        self.total -= 1
        count = self.count
        c = count[row] - 1
        count[row] = c
        if not c:
            del row_of[held]
            self.examples[row] = None
        return row, held

    def recycle(self, rows: list) -> None:
        """Hand rows, freed rows that nothing of the holder names any
        more, to ``take`` for reuse."""
        self.free += rows

    def _grow(self, rows: int) -> None:
        # The one growth step: sizes every per-row array, count and, once
        # the schema is known, y, X and C, to one capacity, no rows for no
        # rows, else 16 doubled until it holds rows, and makes every new
        # array before it assigns any, so a raise leaves the store as it
        # was.
        size = 16 if rows else 0
        while size < rows:
            size *= 2
        schema = self.schema
        shapes = {"count": (size, np.int64)}
        if schema is not None:  # else empty until a multiset replaces it
            shapes["y"] = (size, np.float64)
            for name, cols, dtype in (("X", schema._real, np.float64),
                                      ("C", schema._categorical, np.int64)):
                if cols:
                    shapes[name] = ((size, len(cols)), dtype)
        new = {name: np.zeros(shape, dtype=dtype)
               for name, (shape, dtype) in shapes.items()}
        for name, a in new.items():
            old = getattr(self, name)
            if old is not None:
                a[:len(old)] = old
            setattr(self, name, a)
        # Python reads and writes plain ints through the memoryview of the
        # counts, about twice as fast as through the array, and numpy reads
        # the array under it (.obj) without a copy
        self.count = memoryview(self.count)

    def held_rows(self) -> np.ndarray:
        """Every held row id, ascending."""
        return np.flatnonzero(self.count.obj[:len(self.examples)])

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
        checked = s._store.check_all(examples)
        if checked is None:
            for e in examples:
                s.insert(e)
            return s
        s = cls(checked[0])  # the schema sizes the store's columns
        s._store.take_all(examples, checked[1])
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
        items = list(items)
        types = (schema._check_symbols(items[0][0].features, None)
                 if items else None)
        s._store.take_all([e for e, _ in items], types,
                          [c for _, c in items])
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
        if store.schema is None:
            # the first insert brings the schema, which sizes the store's
            # columns; the store is empty, so a new one replaces it
            store = _Store(schema)
        # take raises before it changes anything, so the new store is kept
        # only after it
        store.take(example, types)
        self._store = store

    def delete(self, example: LabeledExample) -> None:
        """Count one copy of example out (``_Store.remove``, which checks
        it unless handed the very object held), and recycle its row once
        none is left, since a multiset lists no row."""
        store = self._store
        row, _ = store.remove(example)
        if not store.count[row]:
            store.recycle([row])

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
    is the array of rows the builder or the last fold listed;
    ``leaf_new`` is the list of rows that inserts took afresh for this
    leaf since (None until the first).  ``DecisionTree.update`` alone
    adds rows to ``leaf_new`` and takes them off: an insert lists the row
    it took afresh, and the undo of a failed insert unlists it.  An insert
    that leaves the leaf too many listings, freed ones included, folds
    its held listings into a new ``leaf_rows`` (see ``dynamic``).  A row
    is listed at most once in the whole tree: a held row in the leaf its
    example routes to, and a row freed since the leaf was built or folded
    in the leaf that held it, until a rebuild or a fold drops the listing
    and recycles the row (see the module docstring).  The example counts
    are the store's.  Every node carries the rebuild
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
    leaf_new: Optional[list] = None
    label_hist: Optional[list[int]] = None
    height: int = 0

    def __repr__(self) -> str:
        head = (f"TreeNode(depth={self.depth}, size={self.size}, "
                f"pending={self.pending}, height={self.height}, ")
        if self.split is not None:
            return head + f"split={self.split!r})"
        # rows listed, freed ones included (see above)
        rows = 0 if self.leaf_rows is None else len(self.leaf_rows)
        rows += len(self.leaf_new or ())
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
