"""Reference comparison of two elements under an order tree.

This module executes the order definitions directly on the element values
and never touches the byte-key encoder, so it doubles as the oracle the
encoder is tested against.  ``compare`` walks the tree recursively:

* sequence operators locate the question (the first rank, from the front or
  from the back for anti* operators, where the items differ) and fall back
  to a length rule when there is none;
* hierar-family operators compare lengths before looking for a question;
* Sum compares master ranks first, then the sub-values;
* Inv (structural or the builtin ``inverted`` flag) flips the outcome.

Floats follow the total order of the key format: -0.0 sorts below +0.0 and,
under the nan_high policy, every NaN is one equivalence class above +inf.
"""

from __future__ import annotations

import math
import struct
from enum import IntEnum
from typing import Optional

from .errors import IncompatibleElements
from .order_model import (
    KIND_TABLE,
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
)

__all__ = ["Ordering", "compare", "find_question"]


class Ordering(IntEnum):
    LESS = -1
    EQUAL = 0
    GREATER = 1

    @property
    def reversed(self) -> "Ordering":
        return Ordering(-self.value)


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


def _seq_items(value) -> list:
    if isinstance(value, str) or not hasattr(value, "__len__"):
        raise IncompatibleElements(f"expected a sequence, got {type(value).__name__}")
    return list(value)


def find_question(node: SeqOp, x, y, *, nan_high: bool = False) -> Optional[int]:
    """Smallest rank below min(len) where the items of x and y differ.

    Returns None when one sequence is a prefix of the other or they are
    equal.  Item inequality is judged recursively under the item order the
    node assigns to that rank.
    """
    xs = _seq_items(x)
    ys = _seq_items(y)
    for rank in range(min(len(xs), len(ys))):
        if compare(item_order_at(node, rank), xs[rank], ys[rank], nan_high=nan_high):
            return rank
    return None


def _compare_seq(node: SeqOp, x, y, nan_high: bool) -> Ordering:
    xs = _seq_items(x)
    ys = _seq_items(y)
    for items in (xs, ys):
        length = len(items)
        if length < node.min_len or not node.max_len > length:
            raise IncompatibleElements(
                f"sequence length {length} outside [{node.min_len}, {node.max_len})"
            )

    kind = node.kind
    length_cmp = _cmp(len(xs), len(ys))
    if not kind.shorter_sorts_first:
        length_cmp = length_cmp.reversed

    if kind.is_hierar_family and length_cmp:
        return length_cmp

    if kind.is_anti:
        # Items are read from the right end; the period is a single order.
        item_order = node.period[0]
        for back in range(1, min(len(xs), len(ys)) + 1):
            verdict = compare(item_order, xs[len(xs) - back], ys[len(ys) - back], nan_high=nan_high)
            if verdict:
                return verdict
        return length_cmp

    for rank in range(min(len(xs), len(ys))):
        verdict = compare(item_order_at(node, rank), xs[rank], ys[rank], nan_high=nan_high)
        if verdict:
            return verdict
    return length_cmp


def compare(tree: OrderNode, x, y, *, nan_high: bool = False) -> Ordering:
    """Compare two elements of ``tree``; raises IncompatibleElements on misuse."""
    if isinstance(tree, Inv):
        return compare(tree.child, x, y, nan_high=nan_high).reversed

    if isinstance(tree, Finite):
        # A bool is an int, so it is a rank here as in the encoder.
        x = int(x) if isinstance(x, bool) else x
        y = int(y) if isinstance(y, bool) else y
        for value in (x, y):
            if not isinstance(value, int):
                raise IncompatibleElements(f"expected a rank integer, got {type(value).__name__}")
            if not 0 <= value < tree.cardinality:
                raise IncompatibleElements(f"rank {value} outside 0..{tree.cardinality - 1}")
        if tree.collation is not None:
            return _cmp(tree.collation[x], tree.collation[y])
        return _cmp(x, y)

    if isinstance(tree, Builtin):
        verdict = _compare_builtin(tree, x, y, nan_high)
        return verdict.reversed if tree.inverted else verdict

    if isinstance(tree, SeqOp):
        return _compare_seq(tree, x, y, nan_high)

    if isinstance(tree, Sum):
        mx, sx = _sum_pair(tree, x)
        my, sy = _sum_pair(tree, y)
        master_cmp = compare(tree.master, mx, my, nan_high=nan_high)
        if master_cmp:
            return master_cmp
        return compare(tree.cases[mx], sx, sy, nan_high=nan_high)

    raise IncompatibleElements(f"not an order node: {type(tree).__name__}")


def _sum_pair(node: Sum, value) -> tuple[int, object]:
    if isinstance(value, str) or not hasattr(value, "__len__") or len(value) != 2:
        raise IncompatibleElements("expected a (master_rank, sub) pair")
    master_rank, sub = value
    if (
        not isinstance(master_rank, int)
        or isinstance(master_rank, bool)
        or not 0 <= master_rank < node.master.cardinality
    ):
        raise IncompatibleElements(f"master rank {master_rank!r} out of range")
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
            raise IncompatibleElements(f"{value} outside {kind.value} range")
    return _cmp(x, y)
