"""Labelled trees describing tree structured orders.

A tree's leaves are finite orders or builtin scalar orders; internal nodes
combine the orders of their children into an order on longer values:

* ``Finite(k)``      -- the first k naturals, optionally re-enumerated by a
                        collation table.
* ``Builtin(kind)``  -- machine scalars (uintN / intN / floatN / bool),
                        byte strings, exact rationals.
* ``Inv(child)``     -- the reversed order.
* ``SeqOp(...)``     -- an order on sequences whose items are drawn from a
                        prelude followed by a cyclic period of item orders.
                        Nine operators are supported: next, lex, contrelex,
                        hierar, contrehierar, and the four anti* variants
                        that read items from the right end.
* ``Sum(master, cases)`` -- a tagged union ordered by master rank first.

Elements of an order are plain Python values: ints for Finite ranks and
integer leaves, floats, bools, bytes, Fraction or (num, den) pairs for
rationals, lists/tuples for sequence nodes and (master_rank, sub) pairs for
Sum nodes.  The encoder's plan for a tree is the one definition of which
values are elements: ``tsokey.check_element`` runs it and discards the key,
and ``tsokey.compare`` runs it on both values before it orders them.

One walk prepares a tree: it checks every node, builds the node with its
inversions pushed into the leaves (an operator swaps for its contre
partner, a leaf reverses) and counts depth, lex and contrelex paths and
variable length on the node it built, and whether it is open.
``validate`` returns the counts, ``push_inv_to_leaves`` the tree, and
``encoder.prepare`` keeps all three.

Nodes and ``PathStats`` are frozen slotted records (``errors.Record``), not
dataclasses: equal when class and fields are, hashable (a node caches its
hash), picklable by their fields, matched by position through
``__match_args__``; assignment raises ``AttributeError``.  A list of
children or a list collation table becomes a tuple.
"""

from __future__ import annotations

from enum import Enum
from typing import NamedTuple, Union

from .errors import (
    AntiNotUniform,
    ElementMismatch,
    MalformedNode,
    NextNotFixedLength,
    OrderTooDeep,
    PeriodMissing,
    RankOutOfRange,
    Record,
    shown,
)

__all__ = [
    "OMEGA",
    "SeqKind",
    "BuiltinKind",
    "KindInfo",
    "KIND_TABLE",
    "Finite",
    "Builtin",
    "Inv",
    "SeqOp",
    "Sum",
    "OrderNode",
    "PathStats",
    "finite",
    "inv",
    "next_",
    "lex",
    "contrelex",
    "hierar",
    "contrehierar",
    "antilex",
    "anticontrelex",
    "antihierar",
    "anticontrehierar",
    "sum_of",
    "UINT8",
    "UINT16",
    "UINT32",
    "UINT64",
    "INT8",
    "INT16",
    "INT32",
    "INT64",
    "FLOAT32",
    "FLOAT64",
    "BOOL",
    "BYTES",
    "RATIONAL",
    "validate",
    "item_order_at",
    "push_inv_to_leaves",
]

# The key format's one nesting budget: the empty-sequence marker stores the
# node depth in one nibble, and the padding nibbles (0..15) then hold every
# end mark too, since no path has more marking levels than operator levels.
MAX_DEPTH = 14

COUNT_CAP = 1 << 64  # sequence counts and finite ranks must stay below this


class _Omega:
    """The upper bound of a sequence node that allows any finite length.

    A sentinel, tested by identity (``max_len is OMEGA``): it has no order
    against integers.  It is one object per process, unpickling included.
    """

    _singleton = None

    def __new__(cls):
        if cls._singleton is None:
            cls._singleton = super().__new__(cls)
        return cls._singleton

    def __repr__(self):
        return "OMEGA"


OMEGA = _Omega()


class SeqKind(str, Enum):
    NEXT = "next"
    LEX = "lex"
    CONTRELEX = "contrelex"
    HIERAR = "hierar"
    CONTREHIERAR = "contrehierar"
    ANTILEX = "antilex"
    ANTICONTRELEX = "anticontrelex"
    ANTIHIERAR = "antihierar"
    ANTICONTREHIERAR = "anticontrehierar"

    @property
    def is_anti(self) -> bool:
        return self.value.startswith("anti")

    @property
    def is_hierar_family(self) -> bool:
        """Length beats content for these; keys carry a count header."""
        return self in (
            SeqKind.HIERAR,
            SeqKind.CONTREHIERAR,
            SeqKind.ANTIHIERAR,
            SeqKind.ANTICONTREHIERAR,
        )

    @property
    def end_mark(self) -> str | None:
        """The mark the kind's encoding leaves on its final byte: "L" (lex family, a
        step down), "C" (contrelex family, a step up), or None (next, hierar family)."""
        if self.value.endswith("contrelex"):
            return "C"
        return "L" if self.value.endswith("lex") else None

    @property
    def shorter_sorts_first(self) -> bool:
        """How a length tie-break resolves when no question exists."""
        return self not in (
            SeqKind.CONTRELEX,
            SeqKind.CONTREHIERAR,
            SeqKind.ANTICONTRELEX,
            SeqKind.ANTICONTREHIERAR,
        )


# Swapping an operator with its partner and inverting every item order
# inverts the whole order; next is its own partner.
_CONTRE_PARTNER = {
    SeqKind.NEXT: SeqKind.NEXT,
    SeqKind.LEX: SeqKind.CONTRELEX,
    SeqKind.CONTRELEX: SeqKind.LEX,
    SeqKind.HIERAR: SeqKind.CONTREHIERAR,
    SeqKind.CONTREHIERAR: SeqKind.HIERAR,
    SeqKind.ANTILEX: SeqKind.ANTICONTRELEX,
    SeqKind.ANTICONTRELEX: SeqKind.ANTILEX,
    SeqKind.ANTIHIERAR: SeqKind.ANTICONTREHIERAR,
    SeqKind.ANTICONTREHIERAR: SeqKind.ANTIHIERAR,
}


class BuiltinKind(str, Enum):
    UINT8 = "uint8"
    UINT16 = "uint16"
    UINT32 = "uint32"
    UINT64 = "uint64"
    INT8 = "int8"
    INT16 = "int16"
    INT32 = "int32"
    INT64 = "int64"
    FLOAT32 = "float32"
    FLOAT64 = "float64"
    BOOL = "bool"
    BYTES = "bytes"
    RATIONAL = "rational"


class KindInfo(NamedTuple):
    """How a builtin kind's scalars are laid out: ``family`` is "uint", "int"
    or "float" with ``bits`` its width, or both are None (bool, bytes,
    rational)."""

    family: str | None
    bits: int | None


# Every builtin kind's layout, looked up instead of parsing the kind's name.
KIND_TABLE = {
    BuiltinKind.UINT8: KindInfo("uint", 8),
    BuiltinKind.UINT16: KindInfo("uint", 16),
    BuiltinKind.UINT32: KindInfo("uint", 32),
    BuiltinKind.UINT64: KindInfo("uint", 64),
    BuiltinKind.INT8: KindInfo("int", 8),
    BuiltinKind.INT16: KindInfo("int", 16),
    BuiltinKind.INT32: KindInfo("int", 32),
    BuiltinKind.INT64: KindInfo("int", 64),
    BuiltinKind.FLOAT32: KindInfo("float", 32),
    BuiltinKind.FLOAT64: KindInfo("float", 64),
    BuiltinKind.BOOL: KindInfo(None, None),
    BuiltinKind.BYTES: KindInfo(None, None),
    BuiltinKind.RATIONAL: KindInfo(None, None),
}


def _node_hash(node) -> int:
    # A node hashes its fields, children included, once and keeps the result:
    # prepare() is cached by tree value, so a one-shot encode hashes the tree.
    value = node._hash
    if value is None:
        value = hash(node._values)
        object.__setattr__(node, "_hash", value)
    return value


def _freeze(node, *names) -> None:
    # Nodes are hashed (prepare is cached per tree), so a list of children or
    # a list table given by the caller becomes a tuple; validate() checks the entries.
    for name in names:
        if isinstance(getattr(node, name), list):
            object.__setattr__(node, name, tuple(getattr(node, name)))


class _Node(Record):
    # The cached hash lives in a slot of its own, outside eq, repr and pickling.
    __slots__ = ("_hash",)
    __hash__ = _node_hash

    def _store(self, *values) -> None:
        object.__setattr__(self, "_hash", None)
        for name, value in zip(self.__match_args__, values):
            object.__setattr__(self, name, value)


class Finite(_Node):
    """The naturals 0 .. cardinality-1.

    ``collation`` optionally re-enumerates the raw values: it maps a raw
    value to its rank, must be a bijection on 0..cardinality-1 and is only
    allowed for cardinality <= 256 (one data byte).  The one exception is
    ``range(cardinality - 1, -1, -1)``, the reversed enumeration that
    push_inv_to_leaves gives an inverted leaf: it is allowed at any
    cardinality.
    """

    __slots__ = __match_args__ = ("cardinality", "collation")

    def __init__(self, cardinality: int, collation: tuple[int, ...] | None = None):
        self._store(cardinality, collation)
        _freeze(self, "collation")


class Builtin(_Node):
    """A scalar leaf with a dedicated key encoder.

    ``collation`` applies to BYTES leaves only.  ``inverted`` marks a
    descending leaf; push_inv_to_leaves produces it and the encoder consumes
    it by flipping the key bits (a BOOL leaf mirrors its rank instead, a
    BYTES leaf also ends as a contrelex node).
    """

    __slots__ = __match_args__ = ("kind", "collation", "inverted")

    def __init__(self, kind: BuiltinKind, collation: tuple[int, ...] | None = None, inverted: bool = False):
        self._store(kind, collation, inverted)
        _freeze(self, "collation")


class Inv(_Node):
    """The child order reversed."""

    __slots__ = __match_args__ = ("child",)

    def __init__(self, child: OrderNode):
        self._store(child)


class SeqOp(_Node):
    """An order on sequences of length L with min_len <= L < max_len.

    The item order at rank r is prelude[r] while r falls inside the prelude,
    then the period repeats cyclically.  max_len may be OMEGA (any finite
    length) provided the period is non-empty.
    """

    __slots__ = __match_args__ = ("kind", "min_len", "max_len", "prelude", "period")

    def __init__(
        self,
        kind: SeqKind,
        min_len: int,
        max_len: Union[int, _Omega],
        prelude: tuple[OrderNode, ...] = (),
        period: tuple[OrderNode, ...] = (),
    ):
        self._store(kind, min_len, max_len, prelude, period)
        _freeze(self, "prelude", "period")


class Sum(_Node):
    """Disjoint union tagged by a Finite master order.

    Elements are (master_rank, sub) pairs; master_rank picks the case the
    sub-value lives in, and the master order decides first.
    """

    __slots__ = __match_args__ = ("master", "cases")

    def __init__(self, master: Finite, cases: tuple[OrderNode, ...]):
        self._store(master, cases)
        _freeze(self, "cases")


OrderNode = Union[Finite, Builtin, Inv, SeqOp, Sum]


class PathStats(Record):
    """What validate() learned while walking a tree.

    depth counts operator nodes (SeqOp / Sum) on the deepest root-leaf path;
    max_lex_path and max_contrelex_path count decrementing respectively
    incrementing operators on any single path, byte-string leaves included
    as lex nodes, each as the encoder writes it: under an odd number of
    inversions (Inv nodes, a ``desc`` leaf) lex and contrelex swap.
    has_variable_length is True as soon as any node can produce elements of
    more than one encoded length; an item order counts, here and in every
    plan, only at a rank some element of its sequence has (``_reached``).
    """

    __slots__ = __match_args__ = ("depth", "max_lex_path", "max_contrelex_path", "has_variable_length")

    def __init__(self, depth: int, max_lex_path: int, max_contrelex_path: int, has_variable_length: bool):
        self._store(depth, max_lex_path, max_contrelex_path, has_variable_length)


# ---------------------------------------------------------------------------
# Constructors.  They only normalise argument types; validate() does the
# real checking.


def finite(cardinality: int, collation=None) -> Finite:
    return Finite(cardinality, None if collation is None else tuple(collation))


def inv(child: OrderNode) -> Inv:
    return Inv(child)


def _seq(kind: SeqKind, min_len, max_len, prelude, period) -> SeqOp:
    return SeqOp(kind, min_len, max_len, tuple(prelude), tuple(period))


def next_(min_len, max_len, prelude=(), period=()) -> SeqOp:
    """Fixed-length sequence order (max_len must be min_len + 1)."""
    return _seq(SeqKind.NEXT, min_len, max_len, prelude, period)


def lex(min_len, max_len, prelude=(), period=()) -> SeqOp:
    return _seq(SeqKind.LEX, min_len, max_len, prelude, period)


def contrelex(min_len, max_len, prelude=(), period=()) -> SeqOp:
    return _seq(SeqKind.CONTRELEX, min_len, max_len, prelude, period)


def hierar(min_len, max_len, prelude=(), period=()) -> SeqOp:
    return _seq(SeqKind.HIERAR, min_len, max_len, prelude, period)


def contrehierar(min_len, max_len, prelude=(), period=()) -> SeqOp:
    return _seq(SeqKind.CONTREHIERAR, min_len, max_len, prelude, period)


def antilex(min_len, max_len, prelude=(), period=()) -> SeqOp:
    return _seq(SeqKind.ANTILEX, min_len, max_len, prelude, period)


def anticontrelex(min_len, max_len, prelude=(), period=()) -> SeqOp:
    return _seq(SeqKind.ANTICONTRELEX, min_len, max_len, prelude, period)


def antihierar(min_len, max_len, prelude=(), period=()) -> SeqOp:
    return _seq(SeqKind.ANTIHIERAR, min_len, max_len, prelude, period)


def anticontrehierar(min_len, max_len, prelude=(), period=()) -> SeqOp:
    return _seq(SeqKind.ANTICONTREHIERAR, min_len, max_len, prelude, period)


def sum_of(master: Finite, cases) -> Sum:
    return Sum(master, tuple(cases))


UINT8 = Builtin(BuiltinKind.UINT8)
UINT16 = Builtin(BuiltinKind.UINT16)
UINT32 = Builtin(BuiltinKind.UINT32)
UINT64 = Builtin(BuiltinKind.UINT64)
INT8 = Builtin(BuiltinKind.INT8)
INT16 = Builtin(BuiltinKind.INT16)
INT32 = Builtin(BuiltinKind.INT32)
INT64 = Builtin(BuiltinKind.INT64)
FLOAT32 = Builtin(BuiltinKind.FLOAT32)
FLOAT64 = Builtin(BuiltinKind.FLOAT64)
BOOL = Builtin(BuiltinKind.BOOL)
BYTES = Builtin(BuiltinKind.BYTES)
RATIONAL = Builtin(BuiltinKind.RATIONAL)


# ---------------------------------------------------------------------------
# Validation


def _check_collation(table: tuple[int, ...], size: int, path: str) -> None:
    if len(table) != size:
        raise MalformedNode(path, f"collation has {len(table)} entries, expected {size}")
    seen = [False] * size
    for value in table:
        if not isinstance(value, int) or isinstance(value, bool) or not 0 <= value < size:
            raise MalformedNode(path, f"collation entry {value!r} outside 0..{size - 1}")
        if seen[value]:
            raise MalformedNode(path, f"collation repeats rank {value}")
        seen[value] = True


# A node's shape, worst first: variable-length, variable-length but open
# (docs/key_format.md), fixed-length maybe no byte wide, fixed-length.
_CLOSED, _OPEN, _BLANK, _FIXED = range(4)


def _walk(node: OrderNode, path: str, negate: bool) -> tuple[OrderNode, int, int, int, int]:
    """Check node and build it with its inversions pushed into the leaves.

    Returns the built node and its (depth, lex_path, contrelex_path,
    shape).  ``negate`` (an odd number of Inv nodes above) swaps
    an operator for its contre partner, reverses a Finite leaf and flips a
    Builtin leaf's ``inverted``; the path counts are taken on the built
    node, as the encoder writes it.  Byte-string leaves are charged as one
    lex level (contrelex when inverted) because the encoder writes them as
    the key of lex(0, OMEGA, [finite(256)]), end mark and empty-sequence
    marker included; anything else would let a deep tree pass validation
    and then underflow a padding counter.  A node with no Inv at or below
    it and none above comes back as itself, so an Inv-free tree allocates
    nothing.
    """
    if isinstance(node, Finite):
        if not isinstance(node.cardinality, int) or isinstance(node.cardinality, bool):
            raise MalformedNode(path, "cardinality must be an integer")
        if node.cardinality < 1:
            raise MalformedNode(path, f"cardinality {node.cardinality} < 1")
        if node.cardinality > COUNT_CAP:
            raise MalformedNode(path, f"cardinality {node.cardinality} above 2**64")
        # The reversed range is what an inverted leaf becomes, at any
        # cardinality; ranges compare in O(1), and it is never iterated.
        if node.collation is not None and node.collation != _reversed_ranks(node.cardinality):
            if node.cardinality > 256:
                raise MalformedNode(path, "collation requires cardinality <= 256")
            _check_collation(node.collation, node.cardinality, path)
        return _reversed_finite(node) if negate else node, 0, 0, 0, _FIXED

    if isinstance(node, Builtin):
        if node.collation is not None:
            if node.kind is not BuiltinKind.BYTES:
                raise MalformedNode(path, f"collation not allowed on {node.kind.value}")
            _check_collation(node.collation, 256, path)
        if negate:
            node = Builtin(node.kind, node.collation, not node.inverted)
        if node.kind is BuiltinKind.BYTES:
            return (node, 1, 0, 1, _CLOSED) if node.inverted else (node, 1, 1, 0, _OPEN)
        return node, 0, 0, 0, _CLOSED if node.kind is BuiltinKind.RATIONAL else _FIXED

    if isinstance(node, Inv):
        return _walk(node.child, path + ".child", not negate)

    if isinstance(node, Sum):
        if not isinstance(node.master, Finite):
            raise MalformedNode(path, "sum master must be a finite order")
        master = _walk(node.master, path + ".master", negate)[0]
        if len(node.cases) != node.master.cardinality:
            raise MalformedNode(
                path,
                f"sum has {len(node.cases)} cases for master cardinality {node.master.cardinality}",
            )
        parts = [_walk(case, f"{path}.cases[{index}]", negate) for index, case in enumerate(node.cases)]
        cases = tuple(part[0] for part in parts)
        same = not negate and all(case is old for case, old in zip(cases, node.cases))
        built = node if same else Sum(master, cases)
        mark, shapes = None, [part[4] for part in parts]

    elif isinstance(node, SeqOp):
        if not isinstance(node.min_len, int) or isinstance(node.min_len, bool) or node.min_len < 0:
            raise MalformedNode(path, f"min_len {node.min_len!r} must be a non-negative integer")
        bounded = node.max_len is not OMEGA
        if bounded and (not isinstance(node.max_len, int) or isinstance(node.max_len, bool)):
            raise MalformedNode(path, f"max_len {node.max_len!r} must be an integer or OMEGA")
        if bounded and COUNT_CAP < node.max_len:
            raise MalformedNode(path, f"max_len {node.max_len} above 2**64")
        if bounded and node.max_len <= node.min_len:
            raise MalformedNode(path, f"bounds require min_len < max_len, got {node.min_len} and {node.max_len}")
        if not bounded and not node.period:
            raise PeriodMissing(f"{path}: unbounded {node.kind.value} node needs a period")
        if bounded and not node.period and len(node.prelude) < node.max_len - 1:
            raise PeriodMissing(
                f"{path}: {node.kind.value} node with empty period needs at least "
                f"{node.max_len - 1} prelude orders, has {len(node.prelude)}"
            )
        if node.kind is SeqKind.NEXT and node.max_len != node.min_len + 1:
            raise NextNotFixedLength(
                f"{path}: next requires max_len == min_len + 1, got {node.min_len} and {node.max_len}"
            )
        if node.kind.is_anti:
            if not bounded:
                raise AntiNotUniform(f"{path}: {node.kind.value} requires a finite max_len")
            if node.prelude or len(node.period) != 1:
                raise AntiNotUniform(
                    f"{path}: {node.kind.value} requires an empty prelude and a one-order period"
                )
        prelude = [_walk(child, f"{path}.prelude[{index}]", negate) for index, child in enumerate(node.prelude)]
        period = [_walk(child, f"{path}.period[{index}]", negate) for index, child in enumerate(node.period)]
        kind = _CONTRE_PARTNER[node.kind] if negate else node.kind
        children, cut = tuple(part[0] for part in prelude + period), len(prelude)
        same = not negate and all(child is old for child, old in zip(children, node.prelude + node.period))
        built = node if same else SeqOp(kind, node.min_len, node.max_len, children[:cut], children[cut:])
        parts = prelude + period
        # An order no element reaches writes no byte; the reached ones are a prefix zip stops at.
        mark, shapes = kind.end_mark, [part[4] for part, _ in zip(parts, _reached(node))]

    else:
        raise MalformedNode(path, f"not an order node: {type(node).__name__}")

    # The path counts are validation budgets: every child order is charged.
    depth = lex_n = contre_n = 0
    for _, d, l, c, _ in parts:
        depth, lex_n, contre_n = max(depth, d), max(lex_n, l), max(contre_n, c)
    if isinstance(node, Sum):  # the master is fixed-length, and decides first
        low = min(shapes)
        shape = _FIXED if low >= _BLANK else low
    elif node.max_len != node.min_len + 1:
        shape = _OPEN if kind is SeqKind.LEX and min(shapes) == _FIXED else _CLOSED
    else:
        low = min(shapes, default=_FIXED)
        if low >= _BLANK:
            shape = _FIXED if node.min_len and low == _FIXED else _BLANK
        else:
            shape = _OPEN if kind is SeqKind.NEXT and _open_tail(node, shapes) else _CLOSED
    return built, depth + 1, lex_n + (mark == "L"), contre_n + (mark == "C"), shape


def _reached(node: SeqOp) -> tuple[OrderNode, ...]:
    """The item orders that some element of ``node`` uses: ranks 0 .. max_len - 2 take the
    prelude's orders, then the period's, in the order they are listed."""
    orders = node.prelude + node.period
    return orders if node.max_len is OMEGA else orders[: node.max_len - 1]


def _open_tail(node: SeqOp, shapes: list[int]) -> bool:
    """Whether the orders of a fixed-length node's ranks, ``shapes``, end in an open one
    after fixed-length ones; a period that repeats the last rank's order is never open."""
    return len(shapes) == node.min_len and shapes[-1] >= _OPEN and min(shapes[:-1], default=_FIXED) >= _BLANK


def _prepared(tree: OrderNode) -> tuple[OrderNode, PathStats, bool]:
    """The one walk behind validate, push_inv_to_leaves and prepare; the flag says the tree is open."""
    built, depth, lex_n, contre_n, shape = _walk(tree, "$", False)
    if depth > MAX_DEPTH:
        raise OrderTooDeep(f"operator nesting {depth} exceeds the maximum of {MAX_DEPTH}")
    return built, PathStats(depth, lex_n, contre_n, shape < _BLANK), shape >= _OPEN


def validate(tree: OrderNode) -> PathStats:
    """Check every structural invariant of a tree and return its PathStats.

    Raises a ValidationError subclass naming the offending node path.  The
    one budget comes from the key format: empty-sequence markers store the
    node depth in one nibble, so at most MAX_DEPTH operator levels nest.
    Every level that adds to a lex or contrelex path is an operator level
    (a bytes leaf counts as one), so both path counts are at most the
    depth, and the padding nibbles (0..15) hold every end mark.  The counts
    are taken on ``push_inv_to_leaves`` of the tree, which the encoder
    writes; the same walk builds it.
    """
    return _prepared(tree)[1]


# ---------------------------------------------------------------------------
# Tree operations


def item_order_at(node: SeqOp, rank: int) -> OrderNode:
    """The order governing the item at ``rank`` in elements of ``node``."""
    if not isinstance(node, SeqOp):
        raise TypeError(f"item_order_at needs a SeqOp node, got {type(node).__name__}")
    if rank < 0 or (node.max_len is not OMEGA and rank >= node.max_len):
        raise RankOutOfRange(f"rank {rank} outside 0..{node.max_len}-1")
    if rank < len(node.prelude):
        return node.prelude[rank]
    if not node.period:
        raise RankOutOfRange(f"rank {rank} beyond the prelude and the period is empty")
    return node.period[(rank - len(node.prelude)) % len(node.period)]


def _reversed_ranks(cardinality: int) -> range:
    # Rank r of an inverted uncollated leaf reads top - r from a range: a
    # cardinality may reach 2**64, too many entries for a table.
    return range(cardinality - 1, -1, -1)


def _reversed_finite(node: Finite) -> Finite:
    if node.collation is None:
        return Finite(node.cardinality, _reversed_ranks(node.cardinality))
    if node.collation == _reversed_ranks(node.cardinality):
        return Finite(node.cardinality)
    top = node.cardinality - 1
    return Finite(node.cardinality, tuple(top - r for r in node.collation))


def push_inv_to_leaves(tree: OrderNode) -> OrderNode:
    """Rewrite a valid tree into an equivalent one without structural Inv nodes.

    Inv over a Finite leaf becomes a reversed enumeration; Inv over a
    Builtin leaf becomes the ``inverted`` flag; Inv over an operator swaps
    the operator with its contre partner and inverts its children.  The
    result orders elements exactly as the input does.  The tree is checked
    on the way, by the walk validate runs: an invalid tree raises its
    ValidationError.
    """
    return _prepared(tree)[0]


# ---------------------------------------------------------------------------
# Element helpers


def _int_bounds(kind: BuiltinKind) -> tuple[int, int]:
    family, bits = KIND_TABLE[kind]
    if family == "uint":
        return 0, (1 << bits) - 1
    half = 1 << (bits - 1)
    return -half, half - 1


def rational_parts(value) -> tuple[int, int]:
    """(num, den) with den > 0 for any accepted rational spelling."""
    if isinstance(value, int) and not isinstance(value, bool):
        return value, 1
    if isinstance(value, tuple) and len(value) == 2:
        num, den = value
        if (
            isinstance(num, int)
            and isinstance(den, int)
            and not isinstance(num, bool)
            and not isinstance(den, bool)
        ):
            if den <= 0:
                raise ElementMismatch(f"rational denominator must be positive, got {shown(den, format)}")
            return num, den
    from fractions import Fraction  # loaded only for the spelling that needs it

    if isinstance(value, Fraction):
        return value.numerator, value.denominator
    raise ElementMismatch(
        f"expected a Fraction, an int, or a (num, den) pair, got {type(value).__name__}"
    )
