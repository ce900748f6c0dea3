"""Reference comparison of two elements under an order tree.

This module executes the order definitions directly on the element values
and never reads a byte key, so it doubles as the oracle the encoder is
tested against for order.  Membership has one definition, the encoder's
plan: ``compare`` first runs the padded plan ``check_element`` runs on
both values, so a non-element anywhere in either value raises
IncompatibleElements with the plan's message, and then walks the tree
recursively, only ordering:

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

from .encoder import prepare
from .errors import ElementError, IncompatibleElements, PrefixAnomaly
from .order_model import (
    KIND_TABLE,
    Builtin,
    BuiltinKind,
    Finite,
    Inv,
    OrderNode,
    SeqOp,
    item_order_at,
    rational_parts,
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
    """Bytewise unsigned comparison of two padded or packed keys.

    Distinct keys of the same order always disagree before either ends; a
    strict prefix therefore means an encoder bug, and debug runs flag it.
    Open keys are strict prefixes of each other by design (``[900, "ab"]``
    and ``[900, "abc"]``), so this takes no open keys: compare those as
    plain ``bytes``.
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


def _check(plan, x, y) -> None:
    """Raise IncompatibleElements unless ``plan`` accepts both x and y.

    ``plan`` is the tree's padded plan, the one ``check_element`` runs, so
    the message is the plan's, tree path included.  ``prepare`` validates a
    tree once and caches it; an invalid tree raises its ValidationError there.
    """
    try:
        plan(x)
        plan(y)
    except ElementError as exc:
        raise IncompatibleElements(str(exc)) from None


def _float_cmp(x: float, y: float, kind: BuiltinKind) -> Ordering:
    """Total order on floats: ... < -0.0 < +0.0 < ... < +inf < NaN class."""
    if kind is BuiltinKind.FLOAT32:
        # The leaf stores float32: round both sides the way the encoder will.
        x = struct.unpack(">f", struct.pack(">f", x))[0]
        y = struct.unpack(">f", struct.pack(">f", y))[0]
    x_nan = math.isnan(x)
    y_nan = math.isnan(y)
    if x_nan or y_nan:  # an element only under the nan_high policy
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


def _question(node: SeqOp, xs: list, ys: list) -> Optional[tuple[int, Ordering]]:
    """Where the items of xs and ys first differ, and their verdict; None if nowhere.

    The anti kinds read back to front, so their positions count from the end;
    ``item_order_at`` gives them their one period order at every position.
    """
    if node.kind.is_anti:
        xs, ys = xs[::-1], ys[::-1]
    for position in range(min(len(xs), len(ys))):
        verdict = _compare(item_order_at(node, position), xs[position], ys[position])
        if verdict:
            return position, verdict
    return None


def find_question(node: SeqOp, x, y, *, nan_high: bool = False) -> Optional[int]:
    """The position of the question: where the items of x and y first differ.

    Positions count from the front, but from the end under the four anti
    kinds, which read back to front: there 0 is the last items.  None means
    the items agree up to the shorter length, so the length rule decides
    (the hierar kinds apply it first whenever the lengths differ).  Raises
    what ``compare`` raises, and TypeError when ``node`` is no sequence node.
    """
    if not isinstance(node, SeqOp):
        raise TypeError(f"find_question needs a SeqOp node, got {type(node).__name__}")
    _check(prepare(node).plan(nan_high=nan_high), x, y)
    question = _question(node, list(x), list(y))
    return None if question is None else question[0]


def _compare_seq(node: SeqOp, x, y) -> Ordering:
    xs, ys = list(x), list(y)
    length_cmp = _cmp(len(xs), len(ys))
    if not node.kind.shorter_sorts_first:
        length_cmp = length_cmp.reversed
    if node.kind.is_hierar_family and length_cmp:
        return length_cmp
    question = _question(node, xs, ys)
    return length_cmp if question is None else question[1]


def compare(tree: OrderNode, x, y, *, nan_high: bool = False) -> Ordering:
    """Compare two elements of ``tree``.

    Raises the tree's ValidationError when it is not a valid order, and
    IncompatibleElements, with the message ``check_element`` gives, when x
    or y is not one of its elements, wherever in the value the fault lies.
    """
    _check(prepare(tree).plan(nan_high=nan_high), x, y)
    return _compare(tree, x, y)


def _compare(tree: OrderNode, x, y) -> Ordering:
    """The order of two values already known to be elements of ``tree``."""
    if isinstance(tree, Inv):
        return _compare(tree.child, x, y).reversed

    if isinstance(tree, Finite):
        if tree.collation is not None:
            return _cmp(tree.collation[x], tree.collation[y])
        return _cmp(x, y)

    if isinstance(tree, Builtin):
        verdict = _compare_builtin(tree, x, y)
        return verdict.reversed if tree.inverted else verdict

    if isinstance(tree, SeqOp):
        return _compare_seq(tree, x, y)

    # A Sum: validate() admits no other node.
    mx, sx = x
    my, sy = y
    master_cmp = _compare(tree.master, mx, my)
    if master_cmp:
        return master_cmp
    return _compare(tree.cases[mx], sx, sy)


def _compare_builtin(leaf: Builtin, x, y) -> Ordering:
    kind = leaf.kind
    if KIND_TABLE[kind].family == "float":
        return _float_cmp(float(x), float(y), kind)

    if kind is BuiltinKind.RATIONAL:
        px, qx = rational_parts(x)
        py, qy = rational_parts(y)
        return _cmp(px * qy, py * qx)

    if kind is BuiltinKind.BYTES and leaf.collation is not None:
        table = leaf.collation
        for a, b in zip(x, y):
            verdict = _cmp(table[a], table[b])
            if verdict:
                return verdict
        return _cmp(len(x), len(y))

    # Bytes, bools (either 0/1 spelling) and fixed-width integers order as they are.
    return _cmp(x, y)
