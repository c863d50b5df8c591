"""Helpers that several test modules share."""

from dataclasses import astuple

from dyntree import ActiveMultiset


def walk(node):
    """The nodes of node's subtree in preorder, left child first."""
    stack = [node]
    while stack:
        v = stack.pop()
        yield v
        if not v.is_leaf:
            stack += (v.right, v.left)


def current_rows(store, leaf):
    """The rows leaf lists currently: those whose stamp is at most the
    ticket they are listed under."""
    listed = [(r, leaf.leaf_ticket) for r in leaf.leaf_rows.tolist()]
    new = leaf.leaf_new or []
    listed += zip(new[::2], new[1::2])
    return [r for r, ticket in listed if store.stamp[r] <= ticket]


def leaf_multiset(store, leaf):
    """The multiset that leaf lists currently over its tree's row store."""
    return ActiveMultiset._from_sorted_items(
        [(store.examples[r], store.count[r]) for r in current_rows(store, leaf)],
        store.schema)


def subtree_multiset(store, node):
    """The union of the multisets of the leaves below node."""
    out = ActiveMultiset(store.schema)
    for v in walk(node):
        if v.is_leaf:
            for e, c in leaf_multiset(store, v).items():
                for _ in range(c):
                    out.insert(e)
    return out


def state(tree):
    """What a rejected update must leave as it was."""
    store = tree._store
    return ([(id(v), v.pending) for v in walk(tree.root)],
            dict(tree.leaf_union().items()), tree.active_size,
            astuple(tree.stats), store.symbol_types, len(store.row_of),
            list(store.examples), list(store.free))


class Picky:
    """A user-defined type whose ``<`` raises between 1 and 2 only.  Its
    instances once passed the ``v < v`` probe, so 1 and 2 could stand side
    by side in a column; none is a symbol now."""

    def __init__(self, v):
        self.v = v

    def __eq__(self, other):
        return isinstance(other, Picky) and self.v == other.v

    def __hash__(self):
        return hash(self.v)

    def __lt__(self, other):
        if {self.v, other.v} == {1, 2}:
            raise TypeError("1 and 2 do not order")
        return self.v < other.v


class Unordered(str):
    """A str whose ``<`` raises: not exactly a str, so not a symbol."""

    def __lt__(self, other):
        raise TypeError("no order")


class Code(int):
    """An int that is not exactly an int, so not a symbol."""
