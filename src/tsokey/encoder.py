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
whose elements all encode to the same positions (every sequence node fixed
length, no bytes/rational leaves).

Scalar leaves use order-preserving transforms: unsigned ints big-endian,
signed ints with the sign bit flipped, floats with the sign bit set for
non-negatives and all bits flipped for negatives.  Rationals encode their
continued fraction with every odd-rank term bit-flipped and an infinity
terminator, negatives flipping the whole payload behind a sign byte.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Iterable

from .comparator import Ordering
from .errors import (
    CounterOverflow,
    CounterUnderflow,
    CountTooLarge,
    DepthOverflow,
    DomainError,
    ElementMismatch,
    NaNRejected,
    PackedModeUnavailable,
    PrefixAnomaly,
    ZeroDenominator,
)
from .order_model import (
    Builtin,
    BuiltinKind,
    Finite,
    Inv,
    OrderNode,
    PathStats,
    SeqKind,
    SeqOp,
    Sum,
    _int_bounds,
    item_order_at,
    push_inv_to_leaves,
    rational_parts,
    validate,
)

__all__ = [
    "PreparedOrder",
    "prepare",
    "encode",
    "check_element",
    "encode_batch",
    "compare_keys",
    "wrap_finite_leaf",
    "empty_sequence_pattern",
    "hierar_count_header",
    "primitive_key",
    "continued_fraction",
    "rational_key",
    "data_byte_count",
    "packed_width",
]

PAD_DEFAULT = 0xF0  # lex counter 15, contrelex counter 0
COUNT_CAP = 1 << 64

# One wrapped triple per possible data byte, precomputed.
_TRIPLE = [bytes((PAD_DEFAULT, value, PAD_DEFAULT)) for value in range(256)]
_LEAF_TRIPLE = bytes((PAD_DEFAULT, 0x00, 0xE0))  # a one-byte leaf, data byte zero
_FLIP = bytes(255 - value for value in range(256))


# ---------------------------------------------------------------------------
# Building blocks


def wrap_finite_leaf(data: bytes) -> bytes:
    """Wrap raw leaf bytes in padding triples, final padding dropped to (14,0)."""
    if not data:
        raise ValueError("cannot wrap an empty data string")
    out = bytearray()
    for value in data:
        out += _TRIPLE[value]
    out[-1] = 0xE0
    return bytes(out)


def empty_sequence_pattern(kind: SeqKind, depth: int) -> bytes:
    """The single triple standing for an empty sequence at a given node depth."""
    if depth < 0 or depth > 14:
        raise DepthOverflow(f"empty-sequence marker cannot store depth {depth}")
    if kind in (SeqKind.CONTRELEX, SeqKind.ANTICONTRELEX):
        return bytes((0xF0 | (15 - depth), 0x00, PAD_DEFAULT))
    # lex family and next: sorts below every non-empty encoding
    return bytes(((depth << 4), 0x00, PAD_DEFAULT))


# Which sequence kinds leave a mark on the final byte of their encoding.
_CHAIN_CHAR = {
    SeqKind.LEX: "L",
    SeqKind.ANTILEX: "L",
    SeqKind.CONTRELEX: "C",
    SeqKind.ANTICONTRELEX: "C",
}


@lru_cache(maxsize=None)
def _ending_values(base: int, kinds: tuple[str, ...]) -> tuple[int, ...]:
    """Final-byte values as enclosing sequence ends land on one position.

    ``kinds`` lists the marking ancestors of the position from the inside
    out ("L" for lex family, "C" for contrelex family); entry j of the
    result is the byte shown once the innermost j of them have ended.  A
    key stopping at this byte must sort below any continuation of an open
    lex node and above any continuation of an open contrelex node, which
    pins the relative order of all the values: everything after an "L" at
    value v stays below v, everything after a "C" stays above.  A leading
    lex run therefore keeps the plain high-nibble decrement, and the rest
    is laid out by rank inside the gap the last decrement opened (the
    whole byte range above ``base`` when there is no leading run).
    """
    values = [base]
    i = 0
    while i < len(kinds) and kinds[i] == "L":
        nxt = values[-1] - 0x10
        if nxt < 0:
            raise CounterUnderflow("lex counter already zero in final padding byte")
        values.append(nxt)
        i += 1
    if i == len(kinds):
        return tuple(values)
    floor = values[-1]
    ceiling = floor + 0x10 if i > 0 else 0x100
    lo, hi = Fraction(0), Fraction(1)
    cur = Fraction(0)
    marks = []
    for kind in kinds[i:]:
        if kind == "C":
            lo = cur
        else:
            hi = cur
        cur = (lo + hi) / 2
        marks.append(cur)
    by_mark = sorted(range(len(marks)), key=marks.__getitem__)
    rank = [0] * len(marks)
    for position, index in enumerate(by_mark):
        rank[index] = position
    for index in range(len(marks)):
        value = floor + 1 + rank[index]
        if value >= ceiling:
            raise CounterOverflow("contrelex counter already fifteen in final padding byte")
        values.append(value)
    return tuple(values)


def _count_header_unbounded(n: int) -> bytes:
    """Count header of any size: continued-fraction terms use it as is.

    Sequence counts go through ``hierar_count_header``, which caps them
    below 2**64; for counts in that range the bytes are the same.

    Layout: a unary run of U ones followed by a zero, padded out to whole
    bytes, where U is the byte length of B; then B, the byte length of n,
    big-endian over U bytes; then n itself big-endian over B bytes.  Zero is
    treated as occupying one bit so that B >= 1 always.
    """
    if n < 0:
        raise ValueError("count cannot be negative")
    value_len = max(1, (max(n, 1).bit_length() + 7) // 8)
    unary_len = max(1, (value_len.bit_length() + 7) // 8)
    prefix_bits = "1" * unary_len + "0"
    prefix_bits += "0" * (-len(prefix_bits) % 8)
    prefix = int(prefix_bits, 2).to_bytes(len(prefix_bits) // 8, "big")
    return prefix + value_len.to_bytes(unary_len, "big") + n.to_bytes(value_len, "big")


def hierar_count_header(n: int) -> bytes:
    """Self-delimiting, order-preserving encoding of a sequence count."""
    if n < 0 or n >= COUNT_CAP:
        raise CountTooLarge(f"count {n} outside 0..2**64-1")
    return _count_header_unbounded(n)


def primitive_key(kind: BuiltinKind, value, *, nan_high: bool = False) -> bytes:
    """Raw order-preserving bytes for a fixed-width scalar leaf."""
    bits = kind.bit_width
    if kind.is_unsigned_int:
        lo, hi = _int_bounds(kind)
        if not isinstance(value, int) or isinstance(value, bool) or not lo <= value <= hi:
            raise DomainError(f"{value!r} outside {kind.value} range")
        return value.to_bytes(bits // 8, "big")
    if kind.is_signed_int:
        lo, hi = _int_bounds(kind)
        if not isinstance(value, int) or isinstance(value, bool) or not lo <= value <= hi:
            raise DomainError(f"{value!r} outside {kind.value} range")
        return (value + (1 << (bits - 1))).to_bytes(bits // 8, "big")
    if kind.is_float:
        return _float_key(kind, value, nan_high)
    raise DomainError(f"primitive_key does not handle {kind.value}")


def _float_key(kind: BuiltinKind, value, nan_high: bool) -> bytes:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise DomainError(f"expected a float, got {type(value).__name__}")
    try:
        value = float(value)
    except OverflowError:
        raise DomainError(f"integer too large for {kind.value}") from None
    width = kind.bit_width // 8
    fmt = ">f" if width == 4 else ">d"
    if math.isnan(value):
        if not nan_high:
            raise NaNRejected("NaN needs the nan_high policy")
        # One equivalence class above +inf: the canonical quiet NaN pattern.
        bits = 0x7FC00000 if width == 4 else 0x7FF8000000000000
    else:
        try:
            raw = struct.pack(fmt, value)
        except OverflowError:
            raise DomainError(f"{value!r} does not fit in {kind.value}") from None
        bits = int.from_bytes(raw, "big")
    top = 1 << (kind.bit_width - 1)
    if bits & top:
        bits ^= (1 << kind.bit_width) - 1
    else:
        bits |= top
    return bits.to_bytes(width, "big")


def continued_fraction(p: int, q: int) -> list[int]:
    """Canonical continued fraction of p/q for p >= 0, q > 0.

    Plain Euclid: only the first term may be zero and the last term is at
    least two unless the whole expansion is a single term.
    """
    if q == 0:
        raise ZeroDenominator("denominator is zero")
    if q < 0 or p < 0:
        raise ValueError("continued_fraction needs p >= 0 and q > 0")
    terms = []
    while True:
        terms.append(p // q)
        p, q = q, p % q
        if q == 0:
            return terms


def rational_key(p: int, q: int) -> bytes:
    """Raw order-preserving bytes for an exact rational p/q with q > 0.

    A sign byte (0x00 negative, 0x01 otherwise) is followed by the
    continued-fraction terms of |p|/q, each a flag byte 0x00 plus an
    uncapped count header, closed by an infinity terminator flag 0x01;
    terms sitting at odd ranks are bit-flipped, and for negative p the
    whole payload behind the sign byte is bit-flipped.
    """
    if q == 0:
        raise ZeroDenominator("denominator is zero")
    if q < 0:
        raise ValueError("rational_key needs q > 0")
    negative = p < 0
    terms = continued_fraction(abs(p), q)
    payload = bytearray()
    rank = 0
    for term in terms:
        chunk = b"\x00" + _count_header_unbounded(term)
        payload += chunk.translate(_FLIP) if rank & 1 else chunk
        rank += 1
    terminator = b"\x01"
    payload += terminator.translate(_FLIP) if rank & 1 else terminator
    if negative:
        payload = payload.translate(_FLIP)
    return bytes((0x00,) if negative else (0x01,)) + bytes(payload)


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


# ---------------------------------------------------------------------------
# Whole-tree encoding


@dataclass(frozen=True)
class PreparedOrder:
    """A validated tree lowered for encoding.

    ``tree`` has all Inv structure pushed into the leaves and is otherwise
    the tree the user wrote; ``stats`` are the validation statistics;
    ``packed_ok`` says whether packed mode is available; ``max_packed_width``
    is the largest packed key size in bytes (None when packed mode is
    unavailable).
    """

    tree: OrderNode
    stats: PathStats
    packed_ok: bool
    max_packed_width: int | None


@lru_cache(maxsize=128)
def prepare(tree: OrderNode) -> PreparedOrder:
    """Validate a tree and lower it once; results are cached by tree value."""
    stats = validate(tree)
    lowered = push_inv_to_leaves(tree)
    packed_ok = not stats.has_variable_length
    width = packed_width(lowered) if packed_ok else None
    return PreparedOrder(lowered, stats, packed_ok, width)


def _finite_width(cardinality: int) -> int:
    return max(1, ((cardinality - 1).bit_length() + 7) // 8)


def packed_width(tree: OrderNode) -> int | None:
    """Largest packed key width of a fixed-length tree, None if variable.

    Sum cases may have different widths; the master bytes disambiguate
    before the difference matters, so the maximum is what cell sizing needs.
    """
    if isinstance(tree, Inv):
        return packed_width(tree.child)
    if isinstance(tree, Finite):
        return _finite_width(tree.cardinality)
    if isinstance(tree, Builtin):
        bits = tree.kind.bit_width
        if bits is None:
            if tree.kind is BuiltinKind.BOOL:
                return 1
            return None  # bytes / rational never have a fixed width
        return bits // 8
    if isinstance(tree, SeqOp):
        if tree.max_len != tree.min_len + 1:
            return None
        total = 0
        for rank in range(tree.min_len):
            w = packed_width(item_order_at(tree, rank))
            if w is None:
                return None
            total += w
        return total
    if isinstance(tree, Sum):
        widest = 0
        for case in tree.cases:
            w = packed_width(case)
            if w is None:
                return None
            widest = max(widest, w)
        return _finite_width(tree.master.cardinality) + widest
    return None


def _finite_data(node: Finite, value, path: str) -> bytes:
    if not isinstance(value, int):  # a bool is an int: rank 0 or 1
        raise ElementMismatch(f"{path}: expected a rank integer, got {type(value).__name__}")
    if not 0 <= value < node.cardinality:
        raise ElementMismatch(f"{path}: rank {value} outside 0..{node.cardinality - 1}")
    rank = node.collation[value] if node.collation is not None else value
    return rank.to_bytes(_finite_width(node.cardinality), "big")


def _leaf_data(node: Builtin, value, path: str, nan_high: bool) -> bytes:
    kind = node.kind
    if kind is BuiltinKind.BOOL:
        # The key of finite(2): the rank byte, mirrored when inverted.
        if not isinstance(value, int) or value not in (0, 1):
            raise ElementMismatch(f"{path}: expected a bool")
        return bytes((int(value) ^ node.inverted,))
    try:
        if kind is BuiltinKind.RATIONAL:
            num, den = rational_parts(value)
            data = rational_key(num, den)
        else:
            data = primitive_key(kind, value, nan_high=nan_high)
    except (DomainError, ElementMismatch) as exc:
        raise ElementMismatch(f"{path}: {exc}") from None
    except NaNRejected as exc:
        raise NaNRejected(f"{path}: {exc}") from None
    return data.translate(_FLIP) if node.inverted else data


class _Encoder:
    """One tree walk appending to a shared buffer.

    ``chain`` tracks the marking sequence nodes currently open around the
    walk, outermost first.  Whenever a fragment's final byte is emitted the
    encoder snapshots that chain into an ending-value table for the byte;
    each enclosing sequence end then advances the byte one step through the
    table instead of doing counter arithmetic on it.
    """

    __slots__ = ("out", "packed", "nan_high", "chain", "tail", "tail_level")

    def __init__(self, packed: bool, nan_high: bool):
        self.out = bytearray()
        self.packed = packed
        self.nan_high = nan_high
        self.chain: list[str] = []
        self.tail: tuple[int, ...] = ()
        self.tail_level = 0

    def _set_tail(self) -> None:
        self.tail = _ending_values(self.out[-1], tuple(reversed(self.chain)))
        self.tail_level = 0

    def _mark_end(self) -> None:
        level = self.tail_level + 1
        if level >= len(self.tail):
            raise AssertionError("sequence end with no remaining ending value")
        self.tail_level = level
        self.out[-1] = self.tail[level]

    def put_leaf(self, data: bytes) -> None:
        if not data:
            raise AssertionError("leaf produced no data bytes")
        if self.packed:
            self.out += data
            return
        out = self.out
        for value in data:
            out += _TRIPLE[value]
        out[-1] = 0xE0
        self._set_tail()

    def node(self, node: OrderNode, value, depth: int, path: str) -> None:
        if isinstance(node, Finite):
            self.put_leaf(_finite_data(node, value, path))
            return
        if isinstance(node, Builtin):
            if node.kind is BuiltinKind.BYTES:
                self.bytes_leaf(node, value, depth, path)
            else:
                self.put_leaf(_leaf_data(node, value, path, self.nan_high))
            return
        if isinstance(node, SeqOp):
            self.seq(node, value, depth, path)
            return
        if isinstance(node, Sum):
            if isinstance(value, str) or not hasattr(value, "__len__") or len(value) != 2:
                raise ElementMismatch(f"{path}: expected a (master_rank, sub) pair")
            master_rank, sub = value
            # _finite_data takes a bool as a rank; a master rank never is one.
            if not isinstance(master_rank, int) or isinstance(master_rank, bool):
                raise ElementMismatch(f"{path}: master rank must be an integer")
            self.node(node.master, master_rank, depth + 1, path + ".master")
            self.node(node.cases[master_rank], sub, depth + 1, f"{path}.case({master_rank})")
            return
        if isinstance(node, Inv):
            raise AssertionError("Inv survived preparation")
        raise ElementMismatch(f"{path}: not an order node: {type(node).__name__}")

    def bytes_leaf(self, node: Builtin, value, depth: int, path: str) -> None:
        """The key of lex(0, omega, [finite(256)]), contrelex when inverted.

        Every byte is a wrapped finite(256) leaf, F0 rank E0: one translate
        maps the bytes to their ranks, one slice assignment places the ranks
        in their triples, and the lex (contrelex) end mark goes on the final
        byte.
        """
        if not isinstance(value, (bytes, bytearray)):
            raise ElementMismatch(f"{path}: expected bytes, got {type(value).__name__}")
        kind = SeqKind.CONTRELEX if node.inverted else SeqKind.LEX
        out = self.out
        if not value:
            out += empty_sequence_pattern(kind, depth)
            self._set_tail()
            return
        data = value
        if node.collation is not None:
            data = data.translate(bytes(node.collation))
        if node.inverted:
            data = data.translate(_FLIP)
        start = len(out)
        out += _LEAF_TRIPLE * len(data)
        out[start + 1 :: 3] = data
        self.chain.append(_CHAIN_CHAR[kind])
        self._set_tail()
        self.chain.pop()
        self._mark_end()

    def seq(self, node: SeqOp, value, depth: int, path: str) -> None:
        if isinstance(value, str) or not hasattr(value, "__len__"):
            raise ElementMismatch(f"{path}: expected a sequence, got {type(value).__name__}")
        items = list(value)
        length = len(items)
        if length >= COUNT_CAP:
            raise CountTooLarge(f"{path}: sequence count {length} at or above 2**64")
        if length < node.min_len or not node.max_len > length:
            raise ElementMismatch(
                f"{path}: length {length} outside [{node.min_len}, {node.max_len})"
            )

        kind = node.kind
        if kind.is_hierar_family:
            if not self.packed:
                header = hierar_count_header(length)
                if kind in (SeqKind.CONTREHIERAR, SeqKind.ANTICONTREHIERAR):
                    header = header.translate(_FLIP)
                self.put_leaf(header)
        elif length == 0:
            # Nothing below will emit a byte; stand in with a marker so the
            # enclosing ends still have something to act on.  next(0, 1)
            # nodes take the lex-family marker: their single element makes
            # any constant correct.  The empty node itself leaves no mark.
            if not self.packed:
                self.out += empty_sequence_pattern(kind, depth)
                self._set_tail()
            return

        marks = not self.packed and kind in _CHAIN_CHAR
        if marks:
            self.chain.append(_CHAIN_CHAR[kind])
        if kind.is_anti:
            item_order = node.period[0]
            for rank in range(length - 1, -1, -1):
                self.node(item_order, items[rank], depth + 1, f"{path}[{rank}]")
        else:
            for rank, item in enumerate(items):
                self.node(item_order_at(node, rank), item, depth + 1, f"{path}[{rank}]")
        if marks:
            self.chain.pop()
            self._mark_end()


def encode(tree: OrderNode, value, mode: str = "padded", *, nan_high: bool = False) -> bytes:
    """Encode one element of ``tree`` as an order-preserving byte key.

    mode "padded" works for every valid tree; mode "packed" omits the
    padding and needs a fixed-length tree.  Inv nodes never reach the
    walker: ``prepare`` rewrites them into inverted leaves and mirrored
    operators.
    """
    if mode not in ("padded", "packed"):
        raise ValueError(f"unknown mode {mode!r}")
    prep = prepare(tree)
    if mode == "packed" and not prep.packed_ok:
        raise PackedModeUnavailable("tree has variable-length elements")
    walker = _Encoder(mode == "packed", nan_high)
    walker.node(prep.tree, value, 0, "$")
    return bytes(walker.out)


def check_element(tree: OrderNode, value, *, nan_high: bool = False) -> None:
    """Raise an ElementError unless ``value`` is an element of ``tree``.

    This is the encoder's own walk with the key thrown away, so a value is
    an element exactly when it encodes.  A tree that is not valid raises its
    ValidationError.
    """
    _Encoder(False, nan_high).node(prepare(tree).tree, value, 0, "$")


def encode_batch(
    tree: OrderNode,
    values: Iterable,
    mode: str = "padded",
    *,
    nan_high: bool = False,
) -> list[bytes]:
    """Encode many elements; safe to call from several workers on one tree."""
    prepare(tree)  # fail fast and warm the cache once
    return [encode(tree, value, mode, nan_high=nan_high) for value in values]


def data_byte_count(key: bytes) -> int:
    """Number of data bytes a padded key carries (its length divided by 3)."""
    if len(key) % 3:
        raise ValueError("not a padded key: length is not a multiple of three")
    return len(key) // 3
