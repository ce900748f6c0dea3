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

``encode`` takes elements as Python values; ``encode_doc`` takes the value
``json.loads`` gives for one JSON Lines record and reads the dataset's JSON
spellings as it encodes: a decimal string for a ``finite`` or ``sum``
master rank, an integer leaf, a float leaf or a rational; a string or
``{"hex": ...}`` for bytes; ``{"num": p, "den": q}`` or ``"p/q"`` for a
rational; an array, never an object, for a sequence or ``sum`` node.

``prepare`` validates and lowers a tree once; ``PreparedOrder.plan``
compiles it, on first use for each (mode, nan_high, doc), into a plan:
nested closures, one per node, with every width, bound, translate table
and ending-value table fixed in advance.  ``encode``, ``encode_doc``, ``check_element`` and
``encode_batch`` all run the plan, so the tree is interpreted once, not
once per element.  Paths are lazy: a fault starts with an empty path and
each sequence item or ``sum`` part it climbs out of prepends its own step
(``[rank]``, ``.master``, ``.case(r)``), so an accepted element builds no
path strings.

Scalar leaves use order-preserving transforms: unsigned ints big-endian,
signed ints with the sign bit flipped, floats with the sign bit set for
non-negatives and all bits flipped for negatives.  Rationals encode their
continued fraction with every odd-rank term bit-flipped and an infinity
terminator, negatives flipping the whole payload behind a sign byte.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field
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
    KIND_TABLE,
    OMEGA,
    Builtin,
    BuiltinKind,
    Finite,
    OrderNode,
    PathStats,
    SeqKind,
    SeqOp,
    Sum,
    _int_bounds,
    push_inv_to_leaves,
    rational_parts,
    validate,
)

__all__ = [
    "PreparedOrder",
    "prepare",
    "encode",
    "encode_doc",
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
]

PAD_DEFAULT = 0xF0  # lex counter 15, contrelex counter 0
COUNT_CAP = 1 << 64

_PAD_TRIPLE = bytes((PAD_DEFAULT, PAD_DEFAULT, PAD_DEFAULT))
_LEAF_TRIPLE = bytes((PAD_DEFAULT, 0x00, 0xE0))  # a one-byte leaf, data byte zero
_FLIP = bytes(255 - value for value in range(256))


# ---------------------------------------------------------------------------
# Building blocks


def wrap_finite_leaf(data: bytes) -> bytes:
    """Wrap raw leaf bytes in padding triples, final padding dropped to (14,0)."""
    if not data:
        raise ValueError("cannot wrap an empty data string")
    out = bytearray(_PAD_TRIPLE * len(data))
    out[1::3] = data
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
    value_len = max(1, (n.bit_length() + 7) // 8)
    if value_len < 256:  # U = 1: the prefix is the one byte 0b10000000
        return bytes((0x80, value_len)) + n.to_bytes(value_len, "big")
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


def primitive_key(kind: BuiltinKind, value, *, nan_high: bool = False) -> bytes:
    """Raw order-preserving bytes for a fixed-width scalar leaf.

    These are the data bytes of the leaf's packed plan step.
    """
    if KIND_TABLE[kind].family is None:
        raise DomainError(f"primitive_key does not handle {kind.value}")
    step = _Compiler(True, nan_high, False).node(Builtin(kind), 0, ())
    out = bytearray()
    try:
        step(value, out)
    except _Fault as fault:
        cls = NaNRejected if fault.cls is NaNRejected else DomainError
        raise cls(fault.message) from None
    return bytes(out)


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


@lru_cache(maxsize=None)
def _rational_fragments(spread):
    """The precomputed fragments of the rational walk, each passed through ``spread``.

    ``signs[inverted][negative]`` is the sign byte, ``terms[flip][t]`` the
    unit of a term t below 256 (flag 00, then the count header 80 01 t), and
    ``terminators[flip]`` the infinity terminator 01; ``flip`` 1 bit-flips a
    fragment.  Two sets exist, raw (``spread`` is ``bytes``) and padded
    (``_spread``), about 30 KB each, built on first use so that a process
    encoding no rational builds neither.
    """

    def pair(data: bytes):
        return spread(data), spread(data.translate(_FLIP))

    signs = (spread(b"\x01"), spread(b"\x00")), (spread(b"\xfe"), spread(b"\xff"))
    units = [pair(bytes((0x00, 0x80, 0x01, term))) for term in range(256)]
    terms = tuple(unit[0] for unit in units), tuple(unit[1] for unit in units)
    return signs, terms, pair(b"\x01"), spread


def _rational_walk(num: int, den: int, inverted: bool, out: bytearray, fragments) -> None:
    """Append the key of num/den (den > 0), bit-flipped when ``inverted``, to ``out``.

    One Euclid ``divmod`` per continued-fraction term.  A term below 256
    appends its precomputed unit; a larger one builds its uncapped count
    header, so terms of any size encode.  ``flip`` says whether the unit at
    hand is bit-flipped: inversion, a negative sign and each odd rank toggle
    it.  ``rational_key`` runs this walk over the raw fragments and rational
    plan steps over the padded ones.
    """
    signs, terms, terminators, spread = fragments
    negative = num < 0
    out += signs[inverted][negative]
    if negative:
        num = -num
    flip = inverted ^ negative
    while True:
        term, num = divmod(num, den)
        if term < 256:
            out += terms[flip][term]
        else:
            unit = b"\x00" + _count_header_unbounded(term)
            out += spread(unit.translate(_FLIP) if flip else unit)
        flip ^= 1
        if not num:
            break
        num, den = den, num
    out += terminators[flip]


def rational_key(p: int, q: int) -> bytes:
    """Raw order-preserving bytes for an exact rational p/q with q > 0.

    A sign byte (0x00 negative, 0x01 otherwise) is followed by the
    continued-fraction terms of |p|/q, each a flag byte 0x00 plus an
    uncapped count header, closed by an infinity terminator flag 0x01;
    terms sitting at odd ranks are bit-flipped, and for negative p the
    whole payload behind the sign byte is bit-flipped.  The bytes come from
    the one continued-fraction walk the encode plans run, over a table of
    the precomputed units of every term below 256.
    """
    if q == 0:
        raise ZeroDenominator("denominator is zero")
    if q < 0:
        raise ValueError("rational_key needs q > 0")
    out = bytearray()
    _rational_walk(p, q, False, out, _rational_fragments(bytes))
    return bytes(out)


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
    """A validated tree lowered for encoding, and the plans compiled from it.

    ``tree`` has all Inv structure pushed into the leaves and is otherwise
    the tree the user wrote; ``stats`` are the validation statistics;
    ``packed_ok`` says whether packed mode is available.  ``plan`` compiles
    the tree on first use for each (mode, nan_high, doc) and keeps the
    result in ``plans``, so a tree is interpreted once, not once per element.
    """

    tree: OrderNode
    stats: PathStats
    packed_ok: bool
    plans: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def plan(self, mode: str = "padded", *, nan_high: bool = False, doc: bool = False):
        """The function taking one element to its key.

        With ``doc`` it takes a ``json.loads`` record instead, as
        ``encode_doc`` does.  It raises what ``encode`` raises.
        """
        key = (mode, nan_high, doc)
        try:
            return self.plans[key]
        except KeyError:
            pass
        if mode not in ("padded", "packed"):
            raise ValueError(f"unknown mode {mode!r}")
        if mode == "packed" and not self.packed_ok:
            raise PackedModeUnavailable("tree has variable-length elements")
        run = self.plans[key] = _compile(self.tree, mode == "packed", bool(nan_high), bool(doc))
        return run


@lru_cache(maxsize=128)
def prepare(tree: OrderNode) -> PreparedOrder:
    """Validate a tree and lower it once; results are cached by tree value."""
    stats = validate(tree)
    return PreparedOrder(push_inv_to_leaves(tree), stats, not stats.has_variable_length)


def _finite_width(cardinality: int) -> int:
    return max(1, ((cardinality - 1).bit_length() + 7) // 8)


class _Fault(Exception):
    """An element fault on its way out of a plan.

    Every sequence item and sum part it leaves prepends its own step to
    ``path``; the plan's entry raises ``cls`` with the whole path, so path
    strings are built only for values that are rejected.
    """

    def __init__(self, cls, message: str, path: str = ""):
        super().__init__(message)
        self.cls = cls
        self.message = message
        self.path = path


# ---------------------------------------------------------------------------
# Value checks shared by the plans; the doc_* ones read the JSON spellings


def _decimal(value, path: str = ""):
    """A decimal string as an int; any other value unchanged."""
    if not isinstance(value, str):
        return value
    try:
        return int(value, 10)
    except ValueError:
        raise _Fault(ElementMismatch, f"{value!r} is not a decimal integer", path) from None


def _rank(value):
    """A finite rank that is not exactly an int: any other int, a bool too, passes."""
    if isinstance(value, int):
        return value
    raise _Fault(ElementMismatch, f"expected a rank integer, got {type(value).__name__}")


def _doc_rank(value):
    """A finite rank in a JSON record: an integer or a decimal string, never a bool."""
    if isinstance(value, bool):
        raise _Fault(ElementMismatch, "expected a rank integer, got a bool")
    return _rank(_decimal(value))


def _doc_integer(value, path: str) -> int:
    """The num or den member of a {"num", "den"} rational."""
    value = _decimal(value, path)
    if isinstance(value, int) and not isinstance(value, bool):
        return value
    raise _Fault(ElementMismatch, f"expected an integer, got {type(value).__name__}", path)


def _doc_bytes(value):
    """The bytes a JSON string or {"hex": ...} object spells; other values unchanged."""
    if isinstance(value, str):
        try:
            return value.encode("utf-8")
        except UnicodeEncodeError:  # a lone surrogate escape
            raise _Fault(ElementMismatch, "string is not valid Unicode") from None
    if isinstance(value, dict) and value.keys() == {"hex"} and isinstance(value["hex"], str):
        try:
            return bytes.fromhex(value["hex"])
        except ValueError:
            raise _Fault(ElementMismatch, "bad hex string") from None
    return value


def _doc_rational(value):
    """The rational a "p/q" string or {"num", "den"} object spells; other values unchanged."""
    if type(value) is dict and len(value) == 2:
        num, den = value.get("num"), value.get("den")
        if type(num) is int and type(den) is int:
            return num, den
    if isinstance(value, str):
        num, slash, den = value.strip().partition("/")
        try:
            return (int(num, 10), int(den, 10)) if slash else int(num, 10)
        except ValueError:
            raise _Fault(ElementMismatch, f"{value!r} is not a p/q rational") from None
    if isinstance(value, dict) and value.keys() == {"num", "den"}:
        return (_doc_integer(value["num"], ".num"), _doc_integer(value["den"], ".den"))
    return value


# ---------------------------------------------------------------------------
# Compiling a tree into a plan


def _compile(tree: OrderNode, packed: bool, nan_high: bool, doc: bool):
    root = _Compiler(packed, nan_high, doc).node(tree, 0, ())

    def run(value) -> bytes:
        out = bytearray()
        try:
            root(value, out)
        except _Fault as fault:
            raise fault.cls(f"${fault.path}: {fault.message}") from None
        return bytes(out)

    return run


class _Compiler:
    """Turns each node of a prepared tree into a step ``step(value, out)``.

    A step checks its value, appends the value's key fragment to ``out``
    and returns ``ends``, the ending-value table of the last byte it wrote.
    ``chain`` lists the marking sequence nodes open around a node,
    outermost first ("L" lex family, "C" contrelex family); ``ends[k]`` is
    the last byte once the marking nodes at chain index k and inward have
    all ended, so the marking node at index k closes with
    ``out[-1] = ends[k]``.  Every table, width, bound and translate table
    is fixed here, once per tree; steps only read them.  Each sequence
    step runs the item loop of its shape, chosen when it is compiled:
    backwards for the anti kinds, the one step of a one-order period with
    no prelude, step k for item k when the steps cover every admissible
    length, and the cycling prelude-then-period loop otherwise.
    Hierar-family steps take the wrapped count header of a count below
    256 from ``_hierar_headers``, a table built once per process.
    Rational steps run ``rational_key``'s continued-fraction walk over a
    module-level table of padded units, one per term below 256 and flip
    state.  Packed plans neither mark nor carry tables, and their steps
    return None.  Bytes and rational leaves are variable-length, so packed
    plans never hold them.
    """

    def __init__(self, packed: bool, nan_high: bool, doc: bool):
        self.packed = packed
        self.nan_high = nan_high
        self.doc = doc

    def ends(self, base: int, chain: tuple[str, ...]):
        if self.packed:
            return None
        return _ending_values(base, chain[::-1])[::-1]

    def slots(self, width: int):
        """(template, offset, step): a fragment of ``width`` data bytes is the
        template with the data assigned to ``out[start + offset :: step]``."""
        if self.packed:
            return bytes(width), 0, 1
        return wrap_finite_leaf(bytes(width)), 1, 3

    def node(self, node: OrderNode, depth: int, chain: tuple[str, ...]):
        if isinstance(node, Finite):
            return self.finite(node, chain)
        if isinstance(node, SeqOp):
            return self.sequence(node, depth, chain)
        if isinstance(node, Sum):
            return self.union(node, depth, chain)
        if isinstance(node, Builtin):
            kind = node.kind
            if kind is BuiltinKind.BYTES:
                return self.byte_string(node, depth, chain)
            if kind is BuiltinKind.BOOL:
                return self.boolean(node, chain)
            if kind is BuiltinKind.RATIONAL:
                return self.rational(node, chain)
            if KIND_TABLE[kind].family == "float":
                return self.real(node, chain)
            return self.integer(node, chain)
        raise AssertionError(f"{type(node).__name__} node survived preparation")

    def finite(self, node: Finite, chain):
        card = node.cardinality
        top = card - 1
        ranks = node.collation
        width = _finite_width(card)
        template, offset, step = self.slots(width)
        ends = self.ends(0xE0, chain)
        coerce = _doc_rank if self.doc else _rank

        def finite(value, out):
            if type(value) is not int:
                value = coerce(value)
            if 0 <= value < card:
                rank = value if ranks is None else ranks[value]
                start = len(out)
                out += template
                out[start + offset :: step] = rank.to_bytes(width, "big")
                return ends
            raise _Fault(ElementMismatch, f"rank {value} outside 0..{top}")

        return finite

    def boolean(self, node: Builtin, chain):
        """The key of finite(2): the rank byte, mirrored when inverted."""
        keys = [bytes((rank ^ node.inverted,)) for rank in (0, 1)]
        if not self.packed:
            keys = [wrap_finite_leaf(key) for key in keys]
        ends = self.ends(0xE0, chain)

        def boolean(value, out):
            if isinstance(value, int) and value in (0, 1):
                out += keys[int(value)]
                return ends
            raise _Fault(ElementMismatch, "expected a bool")

        return boolean

    def integer(self, node: Builtin, chain):
        """Unsigned ints big-endian, signed ones offset by half their range."""
        name = node.kind.value
        lo, hi = _int_bounds(node.kind)
        width = KIND_TABLE[node.kind].bits // 8
        flip = (1 << (8 * width)) - 1 if node.inverted else 0
        template, offset, step = self.slots(width)
        ends = self.ends(0xE0, chain)
        doc = self.doc

        def coerce(value):
            if doc and isinstance(value, str):
                value = _decimal(value)
            if isinstance(value, int) and not isinstance(value, bool):
                return value
            raise _Fault(ElementMismatch, f"{value!r} outside {name} range")

        def integer(value, out):
            if type(value) is not int:
                value = coerce(value)
            if lo <= value <= hi:
                start = len(out)
                out += template
                out[start + offset :: step] = ((value - lo) ^ flip).to_bytes(width, "big")
                return ends
            raise _Fault(ElementMismatch, f"{value!r} outside {name} range")

        return integer

    def real(self, node: Builtin, chain):
        """IEEE bits with the sign bit set on non-negatives, all bits flipped on negatives."""
        name = node.kind.value
        bits = KIND_TABLE[node.kind].bits
        width = bits // 8
        pack = struct.Struct(">f" if width == 4 else ">d").pack
        sign = 1 << (bits - 1)
        flip = (1 << bits) - 1 if node.inverted else 0
        negative_mask = ((1 << bits) - 1) ^ flip
        positive_mask = sign ^ flip
        # One equivalence class above +inf: the canonical quiet NaN pattern.
        nan_bits = 0x7FC00000 if width == 4 else 0x7FF8000000000000
        nan_data = (nan_bits ^ positive_mask).to_bytes(width, "big")
        template, offset, step = self.slots(width)
        ends = self.ends(0xE0, chain)
        doc, nan_high = self.doc, self.nan_high

        def coerce(value):
            if doc and isinstance(value, str):
                try:
                    value = float(value)
                except ValueError:
                    raise _Fault(ElementMismatch, f"{value!r} is not a number") from None
            if isinstance(value, bool) or not isinstance(value, (int, float)):
                raise _Fault(ElementMismatch, f"expected a float, got {type(value).__name__}")
            try:
                return float(value)
            except OverflowError:
                raise _Fault(ElementMismatch, f"integer too large for {name}") from None

        def real(value, out):
            if type(value) is not float:
                value = coerce(value)
            if value != value:
                if not nan_high:
                    raise _Fault(NaNRejected, "NaN needs the nan_high policy")
                data = nan_data
            else:
                try:
                    raw = int.from_bytes(pack(value), "big")
                except OverflowError:
                    raise _Fault(ElementMismatch, f"{value!r} does not fit in {name}") from None
                data = (raw ^ (negative_mask if raw & sign else positive_mask)).to_bytes(width, "big")
            start = len(out)
            out += template
            out[start + offset :: step] = data
            return ends

        return real

    def rational(self, node: Builtin, chain):
        """The rational walk over the padded fragments, then the leaf's final E0."""
        inverted, doc = node.inverted, self.doc
        ends = self.ends(0xE0, chain)
        fragments = _rational_fragments(_spread)

        def rational(value, out):
            if doc:
                value = _doc_rational(value)
            if (
                type(value) is tuple
                and len(value) == 2
                and type(value[0]) is int
                and type(value[1]) is int
                and value[1] > 0
            ):
                num, den = value
            else:
                try:
                    num, den = rational_parts(value)
                except ElementMismatch as exc:
                    raise _Fault(ElementMismatch, str(exc)) from None
            _rational_walk(num, den, inverted, out, fragments)
            out[-1] = 0xE0
            return ends

        return rational

    def byte_string(self, node: Builtin, depth: int, chain):
        """The key of lex(0, omega, [finite(256)]), contrelex when inverted.

        Every byte is a wrapped finite(256) leaf, F0 rank E0: one translate
        maps the bytes to their ranks, one slice assignment places the ranks
        in their triples, and the lex (contrelex) end mark goes on the final
        byte.
        """
        kind = SeqKind.CONTRELEX if node.inverted else SeqKind.LEX
        table = None if node.collation is None else bytes(node.collation)
        if node.inverted:
            table = _FLIP if table is None else table.translate(_FLIP)
        marker = empty_sequence_pattern(kind, depth)
        marker_ends = self.ends(PAD_DEFAULT, chain)
        ends = self.ends(0xE0, chain + (_CHAIN_CHAR[kind],))
        last = ends[len(chain)]
        doc = self.doc

        def byte_string(value, out):
            if type(value) is not bytes:
                if doc:
                    value = _doc_bytes(value)
                if not isinstance(value, (bytes, bytearray)):
                    raise _Fault(ElementMismatch, f"expected bytes, got {type(value).__name__}")
            if not value:
                out += marker
                return marker_ends
            if table is not None:
                value = value.translate(table)
            start = len(out)
            out += _LEAF_TRIPLE * len(value)
            out[start + 1 :: 3] = value
            out[-1] = last
            return ends

        return byte_string

    def sequence(self, node: SeqOp, depth: int, chain):
        kind, min_len, max_len = node.kind, node.min_len, node.max_len
        upper = COUNT_CAP if max_len is OMEGA else max_len
        packed, doc = self.packed, self.doc
        marks = not packed and kind in _CHAIN_CHAR
        inner = chain + (_CHAIN_CHAR[kind],) if marks else chain
        own = len(chain)
        prelude = [self.node(child, depth + 1, inner) for child in node.prelude]
        period = [self.node(child, depth + 1, inner) for child in node.period]
        steps = prelude + period
        n_steps, n_prelude, n_period = len(steps), len(prelude), len(period)
        # The item loop, chosen here once per node (see the class docstring).
        # Anti kinds are validated to have no prelude and a one-order period.
        anti = kind.is_anti
        only = period[0] if not prelude and n_period == 1 else None
        covered = max_len is not OMEGA and max_len - 1 <= n_steps
        hierar = kind.is_hierar_family
        flip_header = kind in (SeqKind.CONTREHIERAR, SeqKind.ANTICONTREHIERAR)
        headers = _hierar_headers()[flip_header] if hierar and not packed else None
        header_ends = self.ends(0xE0, chain)
        # Nothing below an empty sequence emits a byte; a marker stands in
        # so that the enclosing ends still have something to act on.
        # next(0, 1) nodes take the lex-family marker: their single element
        # makes any constant correct.  The empty node itself leaves no mark.
        marker = b"" if packed or hierar else empty_sequence_pattern(kind, depth)
        marker_ends = self.ends(PAD_DEFAULT, chain)
        plain = (list,) if doc else (list, tuple)  # taken as they are; the rest meets coerce

        def coerce(value):
            if doc:
                if not isinstance(value, list):
                    raise _Fault(ElementMismatch, f"expected an array, got {type(value).__name__}")
                return value
            if isinstance(value, str) or not hasattr(value, "__len__"):
                raise _Fault(ElementMismatch, f"expected a sequence, got {type(value).__name__}")
            return list(value)

        def sequence(value, out):
            items = value if type(value) in plain else coerce(value)
            length = len(items)
            if not min_len <= length < upper:
                if length >= COUNT_CAP:
                    raise _Fault(CountTooLarge, f"sequence count {length} at or above 2**64")
                raise _Fault(ElementMismatch, f"length {length} outside [{min_len}, {max_len})")
            if hierar:
                last = header_ends
                if not packed:
                    if length < 256:
                        out += headers[length]
                    else:
                        header = _count_header_unbounded(length)
                        out += wrap_finite_leaf(header.translate(_FLIP) if flip_header else header)
            elif not length:
                out += marker
                return marker_ends
            try:
                if anti:
                    for rank in range(length - 1, -1, -1):
                        last = only(items[rank], out)
                elif only is not None:
                    for rank, item in enumerate(items):
                        last = only(item, out)
                elif covered:
                    for rank, item in enumerate(items):
                        last = steps[rank](item, out)
                else:
                    for rank, item in enumerate(items):
                        if rank < n_steps:
                            last = steps[rank](item, out)
                        else:
                            last = period[(rank - n_prelude) % n_period](item, out)
            except _Fault as fault:
                fault.path = f"[{rank}]{fault.path}"
                raise
            if marks:
                out[-1] = last[own]
            return last

        return sequence

    def union(self, node: Sum, depth: int, chain):
        master = self.finite(node.master, chain)
        cases = [self.node(case, depth + 1, chain) for case in node.cases]
        doc = self.doc

        def union(value, out):
            if doc:
                if not isinstance(value, list) or len(value) != 2:
                    raise _Fault(ElementMismatch, "expected a [master_rank, sub] array")
            elif isinstance(value, str) or not hasattr(value, "__len__") or len(value) != 2:
                raise _Fault(ElementMismatch, "expected a (master_rank, sub) pair")
            rank, sub = value
            if doc:
                rank = _decimal(rank, ".master")
            # A finite leaf takes a bool as a rank; a master rank never is one.
            if not isinstance(rank, int) or isinstance(rank, bool):
                raise _Fault(ElementMismatch, "master rank must be an integer")
            try:
                master(rank, out)
            except _Fault as fault:
                fault.path = ".master" + fault.path
                raise
            try:
                return cases[rank](sub, out)
            except _Fault as fault:
                fault.path = f".case({rank}){fault.path}"
                raise

        return union


# ---------------------------------------------------------------------------
# Entry points


def encode(tree: OrderNode, value, mode: str = "padded", *, nan_high: bool = False) -> bytes:
    """Encode one element of ``tree`` as an order-preserving byte key.

    mode "padded" works for every valid tree; mode "packed" omits the
    padding and needs a fixed-length tree.  Inv nodes never reach the
    plan: ``prepare`` rewrites them into inverted leaves and mirrored
    operators.
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
    """Encode many elements through one plan; safe to call from several workers on one tree."""
    return list(map(prepare(tree).plan(mode, nan_high=nan_high), values))


def data_byte_count(key: bytes) -> int:
    """Number of data bytes a padded key carries (its length divided by 3)."""
    if len(key) % 3:
        raise ValueError("not a padded key: length is not a multiple of three")
    return len(key) // 3
