"""Order-preserving byte keys for tree structured orders.

The padded key format interleaves every data byte with two padding bytes:

    padding0  data  padding2      (one triple per data byte)

A padding byte packs two 4-bit counters: the high nibble is the lex counter
(initially 15) and the low nibble the contrelex counter (initially 0), so
the default padding byte is 0xF0.  Wrapping a leaf drops the very last
padding to 0xE0.  When a variable-length sequence node finishes, its mark
lands on that same final byte: the byte steps through a small table of
"ending values", one entry per enclosing lex- or contrelex-family node.
Along a run of lex-family ends the values are the classic high-nibble
decrements (0xE0, 0xD0, ...), and along a run of contrelex-family ends the
low-nibble increments (0xE0, 0xE1, ...); once both directions occur in one
chain the later values interleave strictly between the earlier ones, in
nesting order, so that a key that stops at this byte sorts below every
continuation of a still-open lex node and above every continuation of a
still-open contrelex node.  Hierar-family nodes prepend a wrapped count
header instead of marking anything.  An empty sequence at a lex-family node
of depth d emits the single triple (d<<4, 0x00, 0xF0) and at a
contrelex-family node (0xF0 | (15-d), 0x00, 0xF0).  Bytewise comparison of
two padded keys then reproduces the tree order exactly, and every padded
key is exactly three times its data-byte count long.

Packed mode drops the padding altogether and is available only for trees
whose elements all encode to the same positions: every sequence node fixed
length and no bytes/rational leaf, among the item orders some element
reaches, the only ones a plan compiles in any mode.  Open mode, for open
trees only, writes a packed key whose variable-length tail goes raw: memcmp's
"a prefix sorts first" does the end marks' work (docs/key_format.md, "Open keys").

``encode`` takes elements as Python values; ``encode_doc`` takes the value
``json.loads`` gives for one JSON Lines record and reads the dataset's JSON
spellings as it encodes: a decimal string for a ``finite`` or ``sum``
master rank, an integer leaf, a float leaf or a rational; a string or
``{"hex": ...}`` for bytes; ``{"num": p, "den": q}`` or ``"p/q"`` for a
rational; an array, never an object, for a sequence or ``sum`` node.

``prepare`` validates and lowers a tree once; ``PreparedOrder.plan``
compiles it, on first use for each (mode, nan_high, doc), into a plan:
Python source that ``_Compiler`` writes and runs through ``exec``, kept
as ``plan.source``.  ``encode``, ``encode_doc``, ``check_element`` and
``encode_batch`` all run the plan, so the tree is interpreted once, not
once per element, and an accepted element builds no path strings.

A plan carries bounded state: each padded integer leaf of 3 or more
bytes and each padded byte-string leaf keeps a memo of its own, from a value
of one exact type (``int``; ``str`` in doc plans, ``bytes`` otherwise)
to the fragment it wrote, so a value it has seen costs one dict lookup.
A memo keeps at most ``MEMO_ENTRIES`` fragments of at most
``MEMO_VALUE_BYTES`` data bytes each, only of values that passed their
checks, and a leaf that fills it with fewer hits than that turns it off
for the life of the plan.  Keys and faults are those of a plan without
memos.  Rational leaves share two process-wide tables of the fragments
that finish a walk from small pairs, at most 177 KB each (see
``_rational_fragments``).

Scalar leaves use order-preserving transforms: unsigned ints big-endian,
signed ints with the sign bit flipped, floats with the sign bit set for
non-negatives and all bits flipped for negatives.  Rationals encode their
continued fraction with every odd-rank term bit-flipped and an infinity
terminator, negatives flipping the whole payload behind a sign byte; a
plan runs the Euclid walk inline, and ``rational_key`` runs that plan.
"""

from __future__ import annotations

import struct
import sys
from functools import lru_cache
from typing import Iterable

from .errors import (
    CounterOverflow,
    CounterUnderflow,
    CountTooLarge,
    DepthOverflow,
    DomainError,
    ElementMismatch,
    NaNRejected,
    PackedModeUnavailable,
    Record,
    ZeroDenominator,
    shown,
)
from .order_model import (
    COUNT_CAP,
    KIND_TABLE,
    MAX_DEPTH,
    OMEGA,
    RATIONAL,
    Builtin,
    BuiltinKind,
    Finite,
    OrderNode,
    PathStats,
    SeqKind,
    SeqOp,
    Sum,
    _int_bounds,
    _prepared,
    _reached,
    rational_parts,
)

__all__ = [
    "PreparedOrder",
    "prepare",
    "encode",
    "encode_doc",
    "check_element",
    "encode_batch",
    "wrap_finite_leaf",
    "empty_sequence_pattern",
    "hierar_count_header",
    "primitive_key",
    "continued_fraction",
    "rational_key",
    "data_byte_count",
]

PAD_DEFAULT = 0xF0  # lex counter 15, contrelex counter 0

_PAD_TRIPLE = bytes((PAD_DEFAULT, PAD_DEFAULT, PAD_DEFAULT))
_LEAF_TRIPLE = bytes((PAD_DEFAULT, 0x00, 0xE0))  # a one-byte leaf, data byte zero
# The padded triple of each data byte, inside a fragment and at its end.
_TRIPLES = tuple(bytes((PAD_DEFAULT, byte, PAD_DEFAULT)) for byte in range(256))
_LAST_TRIPLES = tuple(bytes((PAD_DEFAULT, byte, 0xE0)) for byte in range(256))
_FLIP = bytes(255 - value for value in range(256))
# Added to the bytes of an extended-slice assignment: CPython copies bytes
# through the bytearray constructor first, which costs more than this add.
_EMPTY = bytearray()

# The bounds of a leaf site's memo: the fragments it keeps, and the most
# data bytes one of them carries.
MEMO_ENTRIES = 1024
MEMO_VALUE_BYTES = 32
# A rational walk whose pair left after the first term has ``den`` below this
# finishes from a process-wide table of those pairs' tails.
RATIONAL_TAIL = 64


# ---------------------------------------------------------------------------
# Building blocks


def wrap_finite_leaf(data: bytes) -> bytes:
    """Wrap raw leaf bytes in padding triples, final padding dropped to (14,0)."""
    if not data:
        raise ValueError("cannot wrap an empty data string")
    return _spread(data)[:-1] + b"\xe0"


def empty_sequence_pattern(kind: SeqKind, depth: int) -> bytes:
    """The single triple standing for an empty sequence at a given node depth."""
    if depth < 0 or depth > MAX_DEPTH:
        raise DepthOverflow(f"empty-sequence marker cannot store depth {depth}")
    if kind.end_mark == "C":
        return bytes((0xF0 | (15 - depth), 0x00, PAD_DEFAULT))
    # lex family and next: sorts below every non-empty encoding
    return bytes(((depth << 4), 0x00, PAD_DEFAULT))


@lru_cache(maxsize=None)
def _ending_values(base: int, kinds: tuple[str, ...]) -> tuple[int, ...]:
    """Final-byte values as enclosing sequence ends land on one position.

    ``kinds`` lists the marking ancestors of the position from the inside
    out ("L" for lex family, "C" for contrelex family); entry j of the
    result is the byte shown once the innermost j of them have ended.  A
    key stopping at this byte must sort below any continuation of an open
    lex node and above any continuation of an open contrelex node: where
    the current items are equal, a lex sequence that ends sorts first and
    a contrelex one last.  A leading lex run therefore keeps the plain
    high-nibble decrement.  After it, each contrelex end goes just above
    the previous mark and each lex end just below it, and the marks are
    numbered upward from one above the floor the run left, inside the gap
    its last decrement opened (the whole byte range above ``base`` when
    there is no leading run).
    """
    values = [base]
    for kind in kinds:
        if kind != "L":
            break
        if values[-1] < 0x10:
            raise CounterUnderflow("lex counter already zero in final padding byte")
        values.append(values[-1] - 0x10)
    run = len(values) - 1
    floor, ceiling = values[-1], values[-1] + 0x10 if run else 0x100
    marks: list[int] = []  # the later marks' indices, lowest first
    at = -1  # where the previous mark sits in ``marks``; the floor sits below them all
    for index, kind in enumerate(kinds[run:]):
        at += kind == "C"
        marks.insert(at, index)
    if floor + len(marks) >= ceiling:
        raise CounterOverflow("contrelex counter already fifteen in final padding byte")
    return tuple(values) + tuple(floor + 1 + marks.index(index) for index in range(len(marks)))


def _count_header_unbounded(n: int) -> bytes:
    """Count header of any size: continued-fraction terms use it as is.

    The plans call it for sequences of 256 or more items, which stay below
    the 2**64 cap ``hierar_count_header`` checks.

    Layout: a unary run of U ones followed by a zero, padded out to whole
    bytes, where U is the byte length of B; then B, the byte length of n,
    big-endian over U bytes; then n itself big-endian over B bytes.  Zero is
    treated as occupying one bit so that B >= 1 always.
    """
    if n < 0:
        raise ValueError("count cannot be negative")
    value_len = max(1, (n.bit_length() + 7) // 8)
    unary_len = (value_len.bit_length() + 7) // 8
    prefix_len = unary_len // 8 + 1  # U ones and a zero, in whole bytes
    prefix = ((1 << unary_len) - 1) << (8 * prefix_len - unary_len)
    return (
        prefix.to_bytes(prefix_len, "big")
        + value_len.to_bytes(unary_len, "big")
        + n.to_bytes(value_len, "big")
    )


def hierar_count_header(n: int) -> bytes:
    """Self-delimiting, order-preserving encoding of a sequence count."""
    if n < 0 or n >= COUNT_CAP:
        raise CountTooLarge(f"count {n} outside 0..2**64-1")
    return _count_header_unbounded(n)


@lru_cache(maxsize=None)
def _primitive_plan(kind: BuiltinKind, nan_high: bool):
    """The packed plan of one fixed-width scalar kind, kept for ``primitive_key``."""
    if KIND_TABLE[kind].family is None:
        raise DomainError(f"primitive_key does not handle {kind.value}")
    return prepare(Builtin(kind)).plan("packed", nan_high=nan_high)


def primitive_key(kind: BuiltinKind, value, *, nan_high: bool = False) -> bytes:
    """Raw order-preserving bytes for a fixed-width scalar leaf: the key of its packed plan."""
    plan = _primitive_plan(kind, bool(nan_high))
    try:
        return plan(value)
    except (ElementMismatch, NaNRejected) as exc:  # "$: " and the leaf's own message
        cls = NaNRejected if isinstance(exc, NaNRejected) else DomainError
        raise cls(str(exc)[3:]) from None


def _check_ints(name: str, p, q) -> None:
    """Raise DomainError unless ``p`` and ``q`` are ints (a bool is not), ZeroDenominator if q is 0."""
    for arg in (p, q):
        if not isinstance(arg, int) or isinstance(arg, bool):
            raise DomainError(f"{name} takes ints, got {type(arg).__name__}")
    if q == 0:
        raise ZeroDenominator("denominator is zero")


def continued_fraction(p: int, q: int) -> list[int]:
    """Canonical continued fraction of p/q for ints p >= 0, q > 0.

    Plain Euclid: only the first term may be zero and the last term is at
    least two unless the whole expansion is a single term.
    """
    _check_ints("continued_fraction", p, q)
    if q < 0 or p < 0:
        raise ValueError("continued_fraction needs p >= 0 and q > 0")
    terms = []
    while True:
        terms.append(p // q)
        p, q = q, p % q
        if q == 0:
            return terms


@lru_cache(maxsize=None)
def _hierar_headers():
    """The wrapped count headers of the counts below 256, plain and bit-flipped.

    ``_hierar_headers()[flip][n]`` is ``wrap_finite_leaf`` of
    ``hierar_count_header(n)``, bit-flipped first when ``flip`` is 1 (the
    contre-hierar kinds).  Built once per process, on first use.
    """
    plain = [_count_header_unbounded(n) for n in range(256)]
    return (
        tuple(map(wrap_finite_leaf, plain)),
        tuple(wrap_finite_leaf(header.translate(_FLIP)) for header in plain),
    )


def _spread(data: bytes) -> bytes:
    """``data`` in padding triples, F0 d F0 each; the final byte is left F0."""
    out = bytearray(_PAD_TRIPLE * len(data))
    out[1::3] = data
    return bytes(out)


def _pair(data: bytes) -> tuple[bytes, bytes]:
    """``data`` in padding triples, plain and bit-flipped."""
    return _spread(data), _spread(data.translate(_FLIP))


def _unit(term: int) -> tuple[bytes, bytes]:
    """The unit of a continued-fraction term, plain and bit-flipped: flag 00 and its count header."""
    return _pair(b"\x00" + _count_header_unbounded(term))


@lru_cache(maxsize=None)
def _rational_fragments():
    """The rows of the rational walk in padding triples, as ``[inverted][negative]``: the
    sign byte, the units of the terms below 256 at even and at odd ranks, the terminator
    01 after an even- and after an odd-rank last term, ``flip``, ``inverted ^ negative``,
    which bit-flips the even ranks, and ``tails``, the table of ``flip``.

    ``tails[den * RATIONAL_TAIL + num]`` is the rest of the walk from the pair ``0 < num
    < den < RATIONAL_TAIL`` the first term leaves, kept by the walk that first meets it:
    at most 1,953 fragments per table, 177 KB when full.  Built on first use, about
    30 KB and the tables' 64 KB of slots."""
    units, ends, signs = tuple(zip(*map(_unit, range(256)))), _pair(b"\x01"), (_pair(b"\x01"), _pair(b"\x00"))
    tails = [None] * RATIONAL_TAIL**2, [None] * RATIONAL_TAIL**2
    return tuple(tuple((signs[negative][inverted], units[flip], units[flip ^ 1], ends[flip ^ 1], ends[flip], flip,
                        tails[flip]) for negative, flip in ((0, inverted), (1, inverted ^ 1))) for inverted in (0, 1))


def rational_key(p: int, q: int) -> bytes:
    """Raw order-preserving bytes for an exact rational p/q of ints with q > 0.

    A sign byte (0x00 negative, 0x01 otherwise) is followed by the
    continued-fraction terms of |p|/q, each a flag byte 0x00 plus an
    uncapped count header, closed by an infinity terminator flag 0x01;
    terms sitting at odd ranks are bit-flipped, and for negative p the
    whole payload behind the sign byte is bit-flipped.  The bytes are the
    data bytes of the padded plan of a ``rational`` leaf, so this and the
    encode plans run one walk.
    """
    _check_ints("rational_key", p, q)
    if q < 0:
        raise ValueError("rational_key needs q > 0")
    return prepare(RATIONAL).plan()((p, q))[1::3]


# ---------------------------------------------------------------------------
# Whole-tree encoding


class PreparedOrder(Record):
    """A validated tree lowered for encoding, and the plans compiled from it.

    ``tree`` has all Inv structure pushed into the leaves and is otherwise
    the tree the user wrote; ``stats`` are the validation statistics;
    ``packed_ok`` and ``open_ok`` say whether packed and open mode are
    available.  ``plan`` compiles the tree on first use for each (mode,
    nan_high, doc) and keeps the result in ``plans``, so a tree is
    interpreted once, not once per element.
    """

    __match_args__ = ("tree", "stats", "packed_ok", "open_ok")
    __slots__ = (*__match_args__, "plans")

    def __init__(self, tree: OrderNode, stats: PathStats, packed_ok: bool, open_ok: bool = False):
        self._store(tree, stats, packed_ok, open_ok)
        object.__setattr__(self, "plans", {})

    def plan(self, mode: str = "padded", *, nan_high: bool = False, doc: bool = False):
        """The function taking one element to its key; ``plan().source`` is its code.

        With ``doc`` it takes a ``json.loads`` record instead, as
        ``encode_doc`` does.  It raises what ``encode`` raises.  The plan
        keeps its leaf memos (see the module docstring) for as long as it
        lives here, at most ``MEMO_ENTRIES`` fragments per leaf.
        """
        key = (mode, nan_high, doc)
        try:
            return self.plans[key]
        except KeyError:
            pass
        if mode not in ("padded", "packed", "open"):
            raise ValueError(f"unknown mode {mode!r}")
        if mode == "packed" and not self.packed_ok:
            raise PackedModeUnavailable("tree has variable-length elements")
        if mode == "open" and not self.open_ok:
            raise PackedModeUnavailable("tree is not open: its variable-length part must be an ascending"
                                        " bytes leaf or a lex of fixed-width items, last in the key")
        run = self.plans[key] = _compile(self.tree, mode != "padded", bool(nan_high), bool(doc))
        return run


@lru_cache(maxsize=128)
def prepare(tree: OrderNode) -> PreparedOrder:
    """Validate a tree and lower it once; results are cached by tree value."""
    pushed, stats, is_open = _prepared(tree)
    return PreparedOrder(pushed, stats, not stats.has_variable_length, is_open)


def _finite_width(cardinality: int) -> int:
    return max(1, ((cardinality - 1).bit_length() + 7) // 8)


class _Fault(Exception):
    """An element fault on its way out of a plan: every sequence item and sum part it
    leaves prepends its step to ``path``, and ``run`` raises ``cls`` with the whole path."""

    def __init__(self, cls, message: str, path: str = ""):
        super().__init__(message)
        self.cls = cls
        self.message = message
        self.path = path


# ---------------------------------------------------------------------------
# Value checks the plans call off their fast path; with ``doc`` they read JSON spellings


def _decimal(value, path: str = ""):
    """A decimal string as an int; any other value unchanged."""
    if not isinstance(value, str):
        return value
    try:
        return int(value, 10)
    except ValueError:
        raise _Fault(ElementMismatch, f"{shown(value)} is not a decimal integer", path) from None


def _finite(value, doc: bool, cardinality: int, message: str) -> int:
    """A finite leaf's value that is not an int rank below ``cardinality``; with doc,
    a decimal string is a rank and a bool is not."""
    if doc and isinstance(value, bool):
        raise _Fault(ElementMismatch, "expected a rank integer, got a bool")
    if doc:
        value = _decimal(value)
    if not isinstance(value, int):
        raise _Fault(ElementMismatch, f"expected a rank integer, got {type(value).__name__}")
    if 0 <= value < cardinality:
        return value
    raise _Fault(ElementMismatch, message % shown(value, format))


def _integer(value, doc: bool, low: int, high: int, message: str) -> int:
    """An integer leaf's value that is not an int in low..high; ``message`` words its fault."""
    if doc and isinstance(value, str):
        value = _decimal(value)
    if isinstance(value, int) and not isinstance(value, bool) and low <= value <= high:
        return value
    raise _Fault(ElementMismatch, message % shown(value))


def _real(value, doc: bool, name: str) -> float:
    """A float leaf's value that is not exactly a float."""
    if doc and isinstance(value, str):
        try:
            value = float(value)
        except ValueError:
            raise _Fault(ElementMismatch, f"{shown(value)} is not a number") from None
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise _Fault(ElementMismatch, f"expected a float, got {type(value).__name__}")
    try:
        return float(value)
    except OverflowError:
        raise _Fault(ElementMismatch, f"integer too large for {name}") from None


def _rational(value) -> tuple[int, int]:
    """(num, den) of a rational leaf's value that is not already an (int, int > 0) pair."""
    try:
        return rational_parts(value)
    except ElementMismatch as exc:
        raise _Fault(ElementMismatch, str(exc)) from None


def _doc_rational(value) -> tuple[int, int]:
    """(num, den), den > 0, of a rational in a JSON record that is not already an exact
    {"num": int, "den": int > 0} dict: {"num", "den"}, "p/q", or an integer."""
    if isinstance(value, str):
        num, slash, den = value.strip().partition("/")
        try:
            num, den = int(num, 10), int(den, 10) if slash else 1
        except ValueError:
            raise _Fault(ElementMismatch, f"{shown(value)} is not a p/q rational") from None
        if den > 0:
            return num, den
        value = num, den
    elif isinstance(value, dict) and value.keys() == {"num", "den"}:
        value = (_doc_integer(value["num"], ".num"), _doc_integer(value["den"], ".den"))
    return _rational(value)


def _doc_integer(value, path: str) -> int:
    """The num or den member of a {"num", "den"} rational."""
    value = _decimal(value, path)
    if isinstance(value, int) and not isinstance(value, bool):
        return value
    raise _Fault(ElementMismatch, f"expected an integer, got {type(value).__name__}", path)


def _bytes(value, doc: bool):
    """A bytes leaf's value that is not exactly bytes."""
    if doc and isinstance(value, str):
        try:
            value = value.encode("utf-8")
        except UnicodeEncodeError:  # a lone surrogate escape
            raise _Fault(ElementMismatch, "string is not valid Unicode") from None
    elif doc and isinstance(value, dict) and value.keys() == {"hex"} and isinstance(value["hex"], str):
        try:
            value = bytes.fromhex(value["hex"])
        except ValueError:
            raise _Fault(ElementMismatch, "bad hex string") from None
    if isinstance(value, (bytes, bytearray)):
        return value
    raise _Fault(ElementMismatch, f"expected bytes, got {type(value).__name__}")


def _items(value, doc: bool):
    """The items of a sequence node's value that is not exactly a list (or, outside doc, a tuple)."""
    if doc and not isinstance(value, list):
        raise _Fault(ElementMismatch, f"expected an array, got {type(value).__name__}")
    if not doc and (isinstance(value, (str, set, frozenset)) or not hasattr(value, "__len__")):
        raise _Fault(ElementMismatch, f"expected a sequence, got {type(value).__name__}")
    return value if doc else list(value)


# ---------------------------------------------------------------------------
# Compiling a tree into a plan

# What a plan's functions may use besides builtins and their own constants.
_PLAN_HELPERS = {name: globals()[name] for name in (
    "_Fault ElementMismatch NaNRejected shown _decimal _finite _integer _real _rational "
    "_doc_rational _bytes _items _unit _count_header_unbounded wrap_finite_leaf "
    "_FLIP _EMPTY _LEAF_TRIPLE _TRIPLES _LAST_TRIPLES"
).split()}


# The code fields that name a function: 3.10 has no ``co_qualname``.
_CODE_NAMES = ("co_name", "co_qualname") if sys.version_info >= (3, 11) else ("co_name",)


@lru_cache(maxsize=4096)
def _code(source: str):
    """The compiled source of one generated function; trees share most function shapes."""
    return compile(source, "<tsokey plan>", "exec")


def _compile(tree: OrderNode, packed: bool, nan_high: bool, doc: bool):
    """The plan of a prepared tree, its generated source kept as ``plan.source``."""
    return _Compiler(packed, nan_high, doc).plan(tree)


def _indent(lines: list[str]) -> list[str]:
    return ["    " + line for line in lines]


def _at(path: str, lines: list[str]) -> list[str]:
    """``lines`` in a try block that prepends the expression ``path`` to a fault's path."""
    handler = ["except _Fault as fault:", f"    fault.path = {path} + fault.path", "    raise"]
    return ["try:", *_indent(lines), *handler]


def _fixed_count(node: OrderNode) -> bool:
    """Whether every element of ``node`` writes one number of fragments: each sequence
    node that a rank reaches has one length, and the orders of its ranks do too."""
    if isinstance(node, Sum):
        return all(map(_fixed_count, node.cases))
    if isinstance(node, SeqOp):
        return node.max_len == node.min_len + 1 and all(map(_fixed_count, _reached(node)))
    return True


class _Compiler:
    """Writes a plan as Python source and runs it: ``run(value)`` returns the key of ``value``.

    Leaves are written inline into their parent's code, a rational's
    Euclid walk too (an ``if`` whose last branch holds a ``while`` with an
    ``if`` in it).  Every sequence and sum node gets a function
    ``step(value, out)``, which checks the value, appends its key fragment
    and returns ``ends``, the ending-value table of the last byte it wrote,
    so no function nests more than a few blocks.  A sequence node compiles
    the steps of the item orders some element reaches (``_reached``), no other.
    ``run``'s ``try`` raises a ``_Fault`` as its class with the whole path.
    ``chain`` lists the marking sequence nodes open around a node, outermost
    first ("L" lex family, "C" contrelex family); ``ends[k]`` is the last
    byte once the marking nodes at chain index k and inward have all ended,
    so the marking node at index k closes with ``out[-1] = last[k]``.

    Each function is ``exec``-ed, innermost first, in a namespace of the plan
    helpers and its constants: every table, template, ends value, bound,
    collation and called function, named in the order it makes them.  So the
    source holds only names and numbers computed here, never text from the
    tree, and equal shapes give equal text, which ``_code`` compiles once.
    ``plan.source`` lists the functions, each headed by its number, the
    name profiles and tracebacks show for it (``step_3``), and those it calls.
    Packed plans, open ones too, neither mark nor return tables; an open
    plan's bytes leaf writes its ranks raw.  A plan whose elements all
    write one number of fragments (``_fixed_count``: every packed plan, and
    an open plan with no variable-count lex tail) starts from ``out = []``,
    writes each fragment with ``out.append`` (``put``) and returns
    ``b"".join(out)``.  Every other plan adds to a bytearray: padded plans
    overwrite end marks and slice-write templates, and a list would hold
    one object per item of a long lex tail.  Padded integer leaves of 3 or
    more bytes and padded byte-string leaves are written behind ``memo``;
    its dict and hit count are constants their function rebinds, named in
    a ``global`` line.
    """

    def __init__(self, packed: bool, nan_high: bool, doc: bool):
        self.packed, self.nan_high, self.doc = packed, nan_high, doc
        self.fragments = False  # whether ``out`` is a list of fragments; ``plan`` decides
        self.listing = []  # the source of each function made, headed by its number
        self.made = {}  # each function made, to its number in the listing
        self.scope = {}  # the constants of the function being written, by name
        self.tables = {}  # the names of its ending-value tables, by (base, chain)

    def const(self, value, stem: str) -> str:
        name = f"{stem}_{len(self.scope)}"
        self.scope[name] = value
        return name

    def ends(self, base: int, chain: tuple[str, ...]):
        """The name of a position's ending-value table; None in packed plans."""
        if not self.packed and (base, chain) not in self.tables:
            self.tables[base, chain] = self.const(_ending_values(base, chain[::-1])[::-1], "ends")
        return self.tables.get((base, chain))

    def define(self, name: str, signature: str, lines: list[str]):
        """Run the source of one function in a namespace of its constants; return the function."""
        rebound = [key for key in self.scope if key.startswith(("memo_", "hits_"))]
        if rebound:
            lines = [f"global {', '.join(rebound)}", *lines]
        source = "\n".join([f"def {name}({signature}):", *_indent(lines)]) + "\n"
        namespace = {**_PLAN_HELPERS, **self.scope}
        exec(_code(source), namespace)
        function, number = namespace[name], len(self.listing)
        # Renamed on a copy of its code, so the code ``_code`` caches per shape keeps ``step``.
        label = f"{name}_{number}"
        function.__code__ = function.__code__.replace(**dict.fromkeys(_CODE_NAMES, label))
        function.__name__ = function.__qualname__ = label
        calls = [f"{key} = " + ", ".join(str(self.made[step]) for step in (steps if key[:5] == "cases" else [steps]))
                 for key, steps in self.scope.items() if key.startswith(("step_", "cases_"))]
        self.made[function] = number
        self.listing.append(f"# function {number} ({label}){'; ' if calls else ''}{'; '.join(calls)}\n{source}")
        return function

    def plan(self, tree: OrderNode):
        self.fragments = self.packed and _fixed_count(tree)
        lines, _ = self.body(tree, 0, (), "value")
        start, key = ("out = []", 'b"".join(out)') if self.fragments else ("out = bytearray()", "bytes(out)")
        lines = [start, "try:", *_indent(lines), "except _Fault as fault:"]
        lines += ['    raise fault.cls(f"${fault.path}: {fault.message}") from None', f"return {key}"]
        run = self.define("run", "value", lines)
        run.source = "\n".join(self.listing)
        return run

    def function(self, node: OrderNode, depth: int, chain):
        """A new function ``step(value, out)`` running ``node``'s step."""
        outer = self.scope, self.tables
        self.scope, self.tables = {}, {}
        lines, ends = self.body(node, depth, chain, "value")
        function = self.define("step", "value, out", lines if self.packed else lines + [f"return {ends}"])
        self.scope, self.tables = outer
        return function

    def step(self, node: OrderNode, depth: int, chain, var: str):
        """``body`` for a leaf; a call of the node's own function for the rest."""
        if not isinstance(node, (SeqOp, Sum)):
            return self.body(node, depth, chain, var)
        call = f"{self.const(self.function(node, depth, chain), 'step')}({var}, out)"
        return ([call], None) if self.packed else ([f"last = {call}"], "last")

    def body(self, node: OrderNode, depth: int, chain, var: str):
        """Code encoding the local ``var``, and the name of its last byte's ends (or ``last``)."""
        if isinstance(node, SeqOp):
            return self.sequence(node, depth, chain, var)
        if isinstance(node, Sum):
            return self.union(node, depth, chain, var)
        if isinstance(node, Finite):
            return self.finite(node, var), self.ends(0xE0, chain)
        # A Builtin: prepare admits no other node.
        kind = node.kind
        if kind is BuiltinKind.BYTES:
            return self.byte_string(node, depth, chain, var)
        if kind is BuiltinKind.BOOL:
            lines = self.boolean(node, var)
        elif kind is BuiltinKind.RATIONAL:
            lines = self.rational(node, var)
        elif KIND_TABLE[kind].family == "float":
            lines = self.real(node, var)
        else:
            lines = self.integer(node, var)
        return lines, self.ends(0xE0, chain)

    def put(self, fragment: str) -> str:
        """The line writing the bytes expression ``fragment`` where a packed or open plan
        writes: one append to a list of fragments, else one add to the bytearray."""
        return f"out.append({fragment})" if self.fragments else f"out += {fragment}"

    def fixed(self, width: int, data: str) -> list[str]:
        """Append ``width`` data bytes, big-endian, of the int expression ``data``."""
        if self.packed:
            return [self.put(f"{data}.to_bytes({width}, 'big')")]
        if width == 1:  # a padded triple per data byte from a table beats a template up to two
            return [f"out += _LAST_TRIPLES[{data}]"]
        if width == 2:
            return [f"data = {data}", "out += _TRIPLES[data >> 8]", "out += _LAST_TRIPLES[data & 255]"]
        template = self.const(wrap_finite_leaf(bytes(width)), "template")
        return [f"out += {template}", f"out[{1 - 3 * width}::3] = _EMPTY + {data}.to_bytes({width}, 'big')"]

    def memo(self, var: str, exact: str, lines: list[str], size: str, hit=(), keep: str = "") -> list[str]:
        """``lines`` behind a memo of this leaf's own, from a ``var`` of type exactly ``exact``
        to the last ``size`` bytes ``lines`` wrote for it; ``hit`` runs after a fragment is reused.

        A miss runs ``lines`` and keeps their fragment if ``var`` is still of
        that type after their checks passed, and ``keep`` holds, until the
        memo holds ``MEMO_ENTRIES``.  A leaf that fills it with fewer hits
        than that turns the memo off for the life of the plan; the hit count
        stops there, the most that rule reads.  Each call reads the memo once
        into a local, so a thread that turns it off cannot pull it from
        under another.
        """
        memo, hits = self.const({}, "memo"), self.const(0, "hits")
        store = f"memo is not None and type({var}) is {exact}" + (f" and {keep}" if keep else "")
        return [
            f"memo = {memo}",
            f"if memo is not None and type({var}) is {exact} and (frag := memo.get({var})) is not None:",
            "    out += frag",
            f"    if {hits} < {MEMO_ENTRIES}:",
            f"        {hits} += 1",
            *_indent(hit),
            "else:",
            *_indent(lines),
            f"    if {store}:",
            f"        if len(memo) < {MEMO_ENTRIES}:",
            f"            memo[{var}] = bytes(out[-{size}:])",
            f"        elif {hits} < {MEMO_ENTRIES}:",
            f"            {memo} = None",
        ]

    def finite(self, node: Finite, var: str) -> list[str]:
        message = self.const(f"rank %s outside 0..{node.cardinality - 1}", "message")
        rank = var if node.collation is None else f"{self.const(node.collation, 'collation')}[{var}]"
        cardinality = self.const(node.cardinality, "cardinality")
        return [
            f"if type({var}) is not int or not 0 <= {var} < {cardinality}:",
            f"    {var} = _finite({var}, {self.doc}, {cardinality}, {message})",
            *self.fixed(_finite_width(node.cardinality), rank),
        ]

    def boolean(self, node: Builtin, var: str) -> list[str]:
        """The key of finite(2): the rank byte, mirrored when inverted."""
        keys = tuple(bytes((rank ^ node.inverted,)) for rank in (0, 1))
        keys = keys if self.packed else tuple(map(wrap_finite_leaf, keys))
        return [
            f"if not isinstance({var}, int) or {var} not in (0, 1):",
            '    raise _Fault(ElementMismatch, "expected a bool")',
            self.put(f"{self.const(keys, 'keys')}[int({var})]"),
        ]

    def integer(self, node: Builtin, var: str) -> list[str]:
        """Unsigned ints big-endian, signed ones offset by half their range."""
        lo, hi = _int_bounds(node.kind)
        width = KIND_TABLE[node.kind].bits // 8
        message = self.const(f"%s outside {node.kind.value} range", "message")
        low, high = self.const(lo, "low"), self.const(hi, "high")
        data = f"({var} - {low})" if lo else var
        if node.inverted:
            data = f"({data} ^ {self.const((1 << (8 * width)) - 1, 'mask')})"
        lines = [
            f"if type({var}) is not int or not {low} <= {var} <= {high}:",
            f"    {var} = _integer({var}, {self.doc}, {low}, {high}, {message})",
            *self.fixed(width, data),
        ]
        # A kept fragment pays only where it saves a template and a slice write.
        return lines if self.packed or width < 3 else self.memo(var, "int", lines, str(3 * width))

    def real(self, node: Builtin, var: str) -> list[str]:
        """IEEE bits with the sign bit set on non-negatives, all bits flipped on negatives."""
        bits = KIND_TABLE[node.kind].bits
        width, sign = bits // 8, 1 << (bits - 1)
        flip = (1 << bits) - 1 if node.inverted else 0
        pack = self.const(struct.Struct(">f" if width == 4 else ">d").pack, "pack")
        coerce = f"_real({var}, {self.doc}, {self.const(node.kind.value, 'name')})"
        lines = [f"if type({var}) is not float:", f"    {var} = {coerce}", f"if {var} != {var}:"]
        if self.nan_high:  # one equivalence class above +inf: the canonical quiet NaN
            nan = ((0x7FC00000 if width == 4 else 0x7FF8000000000000) ^ sign ^ flip).to_bytes(width, "big")
            lines.append("    " + self.put(self.const(nan if self.packed else wrap_finite_leaf(nan), "nan")))
        else:
            lines.append('    raise _Fault(NaNRejected, "NaN needs the nan_high policy")')
        raw = f"raw = int.from_bytes({pack}({var}), 'big')"
        if width == 4:  # a float64 always fits; single precision overflows
            message = self.const(f"%s does not fit in {node.kind.value}", "message")
            fault = f"raise _Fault(ElementMismatch, {message} % shown({var})) from None"
            lines += ["else:", "    try:", f"        {raw}", "    except OverflowError:", f"        {fault}"]
        else:
            lines += ["else:", f"    {raw}"]
        negative = self.const(((1 << bits) - 1) ^ flip, "negative")
        positive, sign = self.const(sign ^ flip, "positive"), self.const(sign, "sign")
        data = f"(raw ^ ({negative} if raw & {sign} else {positive}))"
        return lines + _indent(self.fixed(width, data))

    def rational(self, node: Builtin, var: str) -> list[str]:
        """The Euclid walk of (num, den), inline: an exact (int, int > 0) pair, or {"num": int,
        "den": int > 0} or "p/q" of decimal ints with q > 0 in doc plans, is read inline and
        the rest by a helper.  A term is one division and its remainder a subtraction, after
        a multiply unless the term is 1, as most of a long expansion's are.  The pair the
        first term leaves is looked up once in ``tails`` if its ``den`` is small; a miss
        walks on, two terms a pass so the pair never swaps, and keeps its fragment there."""
        if self.doc:
            exact, num, den, other = "dict", f'{var}.get("num")', f'{var}.get("den")', "_doc_rational"
        else:
            exact, num, den, other = "tuple", f"{var}[0]", f"{var}[1]", "_rational"
        read = [
            f"if not (type({var}) is {exact} and len({var}) == 2 and type(num := {num}) is int"
            f" and type(den := {den}) is int and den > 0):",
            f"    num, den = {other}({var})",
        ]
        if self.doc:  # a "p/q" the helper would read to the same pair; it words every fault
            ratio = [f'num, _, den = {var}.partition("/")', "try:", "    num, den = int(num, 10), int(den, 10)",
                     "except ValueError:", "    den = 0", "if den <= 0:", f"    num, den = _doc_rational({var})"]
            read = [f"if type({var}) is str:", *_indent(ratio), "el" + read[0], read[1]]
        rows = self.const(_rational_fragments()[node.inverted], "rows")
        return read + [
            f"sign, even, odd, end_even, end_odd, flip, tails = {rows}[num < 0]",
            "out += sign",
            "if num < 0:",
            "    num = -num",
            "term = num // den",
            "num -= den if term == 1 else term * den",
            "out += even[term] if term < 256 else _unit(term)[flip]",
            "if not num:",
            "    out += end_even",
            f"elif (slot := den * {RATIONAL_TAIL} + num if den < {RATIONAL_TAIL} else 0)"
            " and (tail := tails[slot]) is not None:",
            "    out += tail",
            "else:",
            "    start = len(out)",
            "    while True:",
            "        term = den // num",
            "        den -= num if term == 1 else term * num",
            "        out += odd[term] if term < 256 else _unit(term)[flip ^ 1]",
            "        if not den:",
            "            out += end_odd",
            "            break",
            "        term = num // den",
            "        num -= den if term == 1 else term * den",
            "        out += even[term] if term < 256 else _unit(term)[flip]",
            "        if not num:",
            "            out += end_even",
            "            break",
            "    if slot:",
            "        tails[slot] = bytes(out[start:])",
            "out[-1] = 0xE0",
        ]

    def byte_string(self, node: Builtin, depth: int, chain, var: str):
        """The key of lex(0, omega, [finite(256)]), contrelex when inverted: a translate
        to the ranks, one slice assignment into F0 rank E0 triples, the end mark last."""
        kind = SeqKind.CONTRELEX if node.inverted else SeqKind.LEX
        table = None if node.collation is None else bytes(node.collation)
        if node.inverted:
            table = _FLIP if table is None else table.translate(_FLIP)
        ends = self.ends(0xE0, chain + (kind.end_mark,))
        plain = f"{var} if type({var}) is bytes else _bytes({var}, {self.doc})"
        if self.doc:  # a str, as JSON gives, first; _bytes words the fault of a lone surrogate
            encode = ["try:", f"    data = {var}.encode()", "except UnicodeEncodeError:", f"    data = _bytes({var}, True)"]
            lines = [f"if type({var}) is str:", *_indent(encode), "else:", f"    data = {plain}"]
        else:
            lines = [f"data = {plain}"]
        if self.packed:  # an open plan's tail: ascending, so no flip, and the ranks raw
            ranks = "data" if table is None else f"data.translate({self.const(table, 'table')})"
            return lines + [self.put(ranks)], None
        lines.append("if data:")
        if table is not None:
            lines.append(f"    data = data.translate({self.const(table, 'table')})")
        lines += [
            "    out += _LEAF_TRIPLE * len(data)",
            "    out[1 - 3 * len(data)::3] = _EMPTY + data",
            f"    out[-1] = {self.const(self.scope[ends][len(chain)], 'end')}",
            f"    last = {ends}",
            "else:",
            f"    out += {self.const(empty_sequence_pattern(kind, depth), 'marker')}",
            f"    last = {self.ends(PAD_DEFAULT, chain)}",
        ]
        # An empty value is not kept: its ``last`` is another table.
        keep = f"0 < len(data) <= {MEMO_VALUE_BYTES}"
        exact = "str" if self.doc else "bytes"
        return self.memo(var, exact, lines, "3 * len(data)", [f"last = {ends}"], keep), "last"

    def sequence(self, node: SeqOp, depth: int, chain, var: str):
        kind, min_len, max_len = node.kind, node.min_len, node.max_len
        mark = None if self.packed else kind.end_mark
        inner = chain + (mark,) if mark else chain
        steps = [self.step(child, depth + 1, inner, "item") for child in _reached(node)]
        plain = f"type({var}) is list" + ("" if self.doc else f" or type({var}) is tuple")
        lines = [f"items = {var} if {plain} else _items({var}, {self.doc})", "length = len(items)"]
        bounds = [f"length < {self.const(min_len, 'min_len')}"] if min_len else []
        if max_len is not OMEGA:  # a list is always shorter than 2**64
            bounds.append(f"length >= {self.const(max_len, 'max_len')}")
        if bounds:
            message = self.const(f"length %s outside [{min_len}, {max_len})", "message")
            lines += [f"if {' or '.join(bounds)}:", f"    raise _Fault(ElementMismatch, {message} % length)"]
        if self.packed:
            return lines + self.items(node, [code for code, _ in steps]), None
        items = self.items(node, [code if ends == "last" else code + [f"last = {ends}"] for code, ends in steps])
        # An empty element writes the hierar header alone, or the empty-sequence marker.
        if kind.is_hierar_family:
            flip = not kind.shorter_sorts_first  # the contre kinds: longer sequences first
            wide = "_count_header_unbounded(length)" + (".translate(_FLIP)" if flip else "")
            headers = self.const(_hierar_headers()[flip], "headers")
            lines.append(f"out += {headers}[length] if length < 256 else wrap_finite_leaf({wide})")
            empty = [f"last = {self.ends(0xE0, chain)}"]
        else:
            marker = self.const(empty_sequence_pattern(kind, depth), "marker")
            empty = [f"out += {marker}", f"last = {self.ends(PAD_DEFAULT, chain)}"]
        if not items:
            return lines + empty, "last"
        if mark:
            items.append(f"out[-1] = last[{len(chain)}]")
        if min_len or kind.is_hierar_family:
            return lines + (empty if not min_len else []) + items, "last"
        return lines + ["if not length:", *_indent(empty), "else:", *_indent(items)], "last"

    def items(self, node: SeqOp, steps: list[list[str]]) -> list[str]:
        """Each item through the step of its reached order, in one ``try`` that puts the rank
        in a fault's path: a block per prelude rank, then a loop over the period's steps,
        backwards for the anti kinds; a period cut short is never wrapped."""
        blocks = min(len(node.prelude), len(steps))
        period = steps[blocks:]
        lines = []
        for rank in range(blocks):
            block = [f"rank = {rank}", f"item = items[{rank}]", *steps[rank]]
            lines += block if rank < node.min_len else [f"if length > {rank}:", *_indent(block)]
        if period:
            loop = f"range({blocks}, length)" if blocks else "range(length)"
            if node.kind.is_anti:
                loop = "range(length - 1, -1, -1)"
            if len(period) == 1:
                body = period[0]
            else:
                body = [f"phase = (rank - {blocks}) % {len(period)}"]
                for phase, code in enumerate(period):
                    body += [f"{'el' * bool(phase)}if phase == {phase}:", *_indent(code)]
            lines += [f"for rank in {loop}:", *_indent(["item = items[rank]", *body])]
        return _at('f"[{rank}]"', lines) if lines else []

    def union(self, node: Sum, depth: int, chain, var: str):
        cases = self.const(tuple(self.function(case, depth + 1, chain) for case in node.cases), "cases")
        if self.doc:
            check, shape = f"not isinstance({var}, list) or len({var}) != 2", "a [master_rank, sub] array"
        else:
            check = f'isinstance({var}, (str, set, frozenset)) or not hasattr({var}, "__len__") or len({var}) != 2'
            shape = "a (master_rank, sub) pair"
        lines = [f"if {check}:", f'    raise _Fault(ElementMismatch, "expected {shape}")', f"rank, sub = {var}"]
        if self.doc:
            lines.append('rank = _decimal(rank, ".master")')
        call = f"{cases}[rank](sub, out)"
        # A finite leaf takes a bool as a rank; a master rank never is one.
        return lines + [
            "if not isinstance(rank, int) or isinstance(rank, bool):",
            '    raise _Fault(ElementMismatch, "master rank must be an integer")',
            *_at('".master"', self.finite(node.master, "rank")),
            *_at('f".case({rank})"', [call if self.packed else f"last = {call}"]),
        ], None if self.packed else "last"


# ---------------------------------------------------------------------------
# Entry points


def encode(tree: OrderNode, value, mode: str = "padded", *, nan_high: bool = False) -> bytes:
    """Encode one element of ``tree`` as an order-preserving byte key.

    mode "padded" works for every valid tree; mode "packed" omits the
    padding and needs a fixed-length tree; mode "open" writes a packed key
    with its variable-length tail raw and needs an open tree.  Inv nodes
    never reach the plan: ``prepare`` rewrites them into inverted leaves
    and mirrored operators.
    """
    return prepare(tree).plan(mode, nan_high=nan_high)(value)


def encode_doc(tree: OrderNode, doc, mode: str = "padded", *, nan_high: bool = False) -> bytes:
    """Encode one JSON Lines record: ``doc`` is what ``json.loads`` returned.

    The record's JSON spellings (decimal strings, ``{"hex": ...}``,
    ``{"num", "den"}``, ``"p/q"``) are read by the plan's own steps, and
    the key is the key of the element they spell.  Any other value meets
    the checks ``encode`` makes, except that sequence and sum nodes take a
    JSON array only and a bool is no ``finite`` rank.
    """
    return prepare(tree).plan(mode, nan_high=nan_high, doc=True)(doc)


def check_element(tree: OrderNode, value, *, nan_high: bool = False) -> None:
    """Raise an ElementError unless ``value`` is an element of ``tree``.

    This runs the padded plan and throws the key away, so a value is an
    element exactly when it encodes.  A tree that is not valid raises its
    ValidationError.
    """
    prepare(tree).plan(nan_high=nan_high)(value)


def encode_batch(
    tree: OrderNode,
    values: Iterable,
    mode: str = "padded",
    *,
    nan_high: bool = False,
) -> list[bytes]:
    """Encode many elements through one plan; safe to call from several workers on one tree.

    The plan's only state is its leaf memos.  A memo entry is written once,
    whole, from a fragment the writing call built in its own buffer; each
    call reads a memo into a local once, so turning it off cannot pull it
    from under another call.  Calls that race can lose a hit from the
    count, or each store one fragment past ``MEMO_ENTRIES`` before the
    memo is seen full; neither changes a key.
    """
    return list(map(prepare(tree).plan(mode, nan_high=nan_high), values))


def data_byte_count(key: bytes) -> int:
    """Number of data bytes a padded key carries (its length divided by 3)."""
    if len(key) % 3:
        raise ValueError("not a padded key: length is not a multiple of three")
    return len(key) // 3
