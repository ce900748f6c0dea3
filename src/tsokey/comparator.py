"""Reference comparison of two elements under an order tree.

This module executes the order definitions directly on the element values
and never touches the byte-key encoder, so it doubles as the oracle the
encoder is tested against.  ``compare`` validates the tree once, as
``encode`` does, then walks it recursively:

* every sequence operator extends one rule, "if the current items are
  equal, compare the next items": one search finds the question, the
  first position where the items differ, reading front to back (back to
  front for the anti* operators), and a length rule decides when there is
  none;
* hierar-family operators compare lengths before looking for a question;
* Sum compares master ranks first, then the sub-values;
* Inv (structural or the builtin ``inverted`` flag) flips the outcome.

Floats follow the total order of the key format: -0.0 sorts below +0.0 and,
under the nan_high policy, every NaN is one equivalence class above +inf.

``compare_keys`` gives the same ``Ordering`` for two encoded keys, by their
bytes alone; the tests hold it equal to ``compare`` on the elements.
"""

from __future__ import annotations

import math
import struct
from enum import IntEnum
from typing import Optional

from .errors import IncompatibleElements, PrefixAnomaly, shown
from .order_model import (
    KIND_TABLE,
    OMEGA,
    Builtin,
    BuiltinKind,
    Finite,
    Inv,
    OrderNode,
    SeqOp,
    Sum,
    _int_bounds,
    item_order_at,
    rational_parts,
    validate,
)

__all__ = ["Ordering", "compare", "compare_keys", "find_question"]


class Ordering(IntEnum):
    LESS = -1
    EQUAL = 0
    GREATER = 1

    @property
    def reversed(self) -> "Ordering":
        return Ordering(-self.value)


def compare_keys(a: bytes, b: bytes) -> Ordering:
    """Bytewise unsigned comparison of two encoded keys.

    Distinct keys of the same order always disagree before either ends; a
    strict prefix therefore means an encoder bug, and debug runs flag it.
    """
    if a == b:
        return Ordering.EQUAL
    if __debug__:
        if a.startswith(b) or b.startswith(a):
            raise PrefixAnomaly(f"key {a.hex()} is a strict prefix of {b.hex()}")
    return Ordering.LESS if a < b else Ordering.GREATER


def _cmp(a, b) -> Ordering:
    if a < b:
        return Ordering.LESS
    if a > b:
        return Ordering.GREATER
    return Ordering.EQUAL


def _float_cmp(x: float, y: float, kind: BuiltinKind, nan_high: bool) -> Ordering:
    """Total order on floats: ... < -0.0 < +0.0 < ... < +inf < NaN class."""
    if kind is BuiltinKind.FLOAT32:
        # The leaf stores float32: round both sides the way the encoder will.
        try:
            x = struct.unpack(">f", struct.pack(">f", x))[0]
            y = struct.unpack(">f", struct.pack(">f", y))[0]
        except OverflowError:
            raise IncompatibleElements("value does not fit in float32") from None
    x_nan = math.isnan(x)
    y_nan = math.isnan(y)
    if x_nan or y_nan:
        if not nan_high:
            raise IncompatibleElements("NaN element without the nan_high policy")
        if x_nan and y_nan:
            return Ordering.EQUAL
        return Ordering.GREATER if x_nan else Ordering.LESS
    if x < y:
        return Ordering.LESS
    if x > y:
        return Ordering.GREATER
    # Numerically equal: split the two zeros by sign.
    x_neg = math.copysign(1.0, x) < 0
    y_neg = math.copysign(1.0, y) < 0
    if x_neg == y_neg:
        return Ordering.EQUAL
    return Ordering.LESS if x_neg else Ordering.GREATER


def _seq_items(node: SeqOp, value) -> list:
    """The items of a sequence value, checked against the node's length bounds."""
    if isinstance(value, (str, set, frozenset)) or not hasattr(value, "__len__"):
        raise IncompatibleElements(f"expected a sequence, got {type(value).__name__}")
    items = list(value)
    if len(items) < node.min_len or (node.max_len is not OMEGA and len(items) >= node.max_len):
        raise IncompatibleElements(f"sequence length {len(items)} outside [{node.min_len}, {node.max_len})")
    return items


def _question(node: SeqOp, xs: list, ys: list, nan_high: bool) -> Optional[tuple[int, Ordering]]:
    """Where the items of xs and ys first differ, and their verdict; None if nowhere.

    The anti kinds read back to front, so their positions count from the end;
    ``item_order_at`` gives them their one period order at every position.
    """
    if node.kind.is_anti:
        xs, ys = xs[::-1], ys[::-1]
    for position in range(min(len(xs), len(ys))):
        verdict = _compare(item_order_at(node, position), xs[position], ys[position], nan_high)
        if verdict:
            return position, verdict
    return None


def find_question(node: SeqOp, x, y, *, nan_high: bool = False) -> Optional[int]:
    """The position of the question: where the items of x and y first differ.

    Positions count from the front, but from the end under the four anti
    kinds, which read back to front: there 0 is the last items.  None means
    the items agree up to the shorter length, so the length rule decides
    (the hierar kinds apply it first whenever the lengths differ).  Raises
    what ``compare`` raises.
    """
    validate(node)
    if not isinstance(node, SeqOp):
        raise TypeError(f"find_question needs a SeqOp node, got {type(node).__name__}")
    question = _question(node, _seq_items(node, x), _seq_items(node, y), nan_high)
    return None if question is None else question[0]


def _compare_seq(node: SeqOp, x, y, nan_high: bool) -> Ordering:
    xs = _seq_items(node, x)
    ys = _seq_items(node, y)
    length_cmp = _cmp(len(xs), len(ys))
    if not node.kind.shorter_sorts_first:
        length_cmp = length_cmp.reversed
    if node.kind.is_hierar_family and length_cmp:
        return length_cmp
    question = _question(node, xs, ys, nan_high)
    return length_cmp if question is None else question[1]


def compare(tree: OrderNode, x, y, *, nan_high: bool = False) -> Ordering:
    """Compare two elements of ``tree``.

    Raises the tree's ValidationError when it is not a valid order, and
    IncompatibleElements when x or y is not one of its elements.
    """
    validate(tree)
    return _compare(tree, x, y, nan_high)


def _compare(tree: OrderNode, x, y, nan_high: bool) -> Ordering:
    if isinstance(tree, Inv):
        return _compare(tree.child, x, y, nan_high).reversed

    if isinstance(tree, Finite):
        # A bool is an int, so it is a rank here as in the encoder.
        x = int(x) if isinstance(x, bool) else x
        y = int(y) if isinstance(y, bool) else y
        for value in (x, y):
            if not isinstance(value, int):
                raise IncompatibleElements(f"expected a rank integer, got {type(value).__name__}")
            if not 0 <= value < tree.cardinality:
                raise IncompatibleElements(f"rank {shown(value, format)} outside 0..{tree.cardinality - 1}")
        if tree.collation is not None:
            return _cmp(tree.collation[x], tree.collation[y])
        return _cmp(x, y)

    if isinstance(tree, Builtin):
        verdict = _compare_builtin(tree, x, y, nan_high)
        return verdict.reversed if tree.inverted else verdict

    if isinstance(tree, SeqOp):
        return _compare_seq(tree, x, y, nan_high)

    # A Sum: validate() admits no other node.
    mx, sx = _sum_pair(tree, x)
    my, sy = _sum_pair(tree, y)
    master_cmp = _compare(tree.master, mx, my, nan_high)
    if master_cmp:
        return master_cmp
    return _compare(tree.cases[mx], sx, sy, nan_high)


def _sum_pair(node: Sum, value) -> tuple[int, object]:
    if isinstance(value, (str, set, frozenset)) or not hasattr(value, "__len__") or len(value) != 2:
        raise IncompatibleElements("expected a (master_rank, sub) pair")
    master_rank, sub = value
    if (
        not isinstance(master_rank, int)
        or isinstance(master_rank, bool)
        or not 0 <= master_rank < node.master.cardinality
    ):
        raise IncompatibleElements(f"master rank {shown(master_rank)} out of range")
    return master_rank, sub


def _compare_builtin(leaf: Builtin, x, y, nan_high: bool) -> Ordering:
    kind = leaf.kind
    if KIND_TABLE[kind].family == "float":
        for value in (x, y):
            if isinstance(value, bool) or not isinstance(value, (int, float)):
                raise IncompatibleElements(f"expected a float, got {type(value).__name__}")
        try:
            x, y = float(x), float(y)
        except OverflowError:
            raise IncompatibleElements(f"integer too large for {kind.value}") from None
        return _float_cmp(x, y, kind, nan_high)

    if kind is BuiltinKind.RATIONAL:
        try:
            px, qx = rational_parts(x)
            py, qy = rational_parts(y)
        except Exception as exc:
            raise IncompatibleElements(str(exc)) from None
        return _cmp(px * qy, py * qx)

    if kind is BuiltinKind.BYTES:
        for value in (x, y):
            if not isinstance(value, (bytes, bytearray)):
                raise IncompatibleElements(f"expected bytes, got {type(value).__name__}")
        if leaf.collation is not None:
            table = leaf.collation
            for a, b in zip(x, y):
                verdict = _cmp(table[a], table[b])
                if verdict:
                    return verdict
            return _cmp(len(x), len(y))
        return _cmp(bytes(x), bytes(y))

    if kind is BuiltinKind.BOOL:
        for value in (x, y):
            if not isinstance(value, (bool, int)) or value not in (0, 1):
                raise IncompatibleElements("expected a bool")
        return _cmp(int(x), int(y))

    # Fixed-width integers.
    lo, hi = _int_bounds(kind)
    for value in (x, y):
        if not isinstance(value, int) or isinstance(value, bool):
            raise IncompatibleElements(f"expected an integer, got {type(value).__name__}")
        if not lo <= value <= hi:
            raise IncompatibleElements(f"{shown(value, format)} outside {kind.value} range")
    return _cmp(x, y)
