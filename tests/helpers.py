"""Shared test helpers: bounded element enumeration for small trees, JSON
Lines spellings of elements, and a digest of the keys and faults of seeded
trees."""

import hashlib
import json
import math
import random
from fractions import Fraction
from itertools import product

from tsokey import (
    OMEGA,
    Builtin,
    BuiltinKind,
    Finite,
    Inv,
    SeqOp,
    Sum,
    TsokeyError,
    compare,
    compare_keys,
    encode,
    encode_doc,
    item_order_at,
    prepare,
)
from tsokey.order_model import KIND_TABLE
from tsokey.randgen import random_element, random_tree

_FLOATS = [-2.0, -0.5, -0.0, 0.0, 1.5]
_SIGNED = [-2, -1, 0, 1, 2]
_UNSIGNED = [0, 1, 2, 5]
_RATIONALS = [(-3, 2), (-1, 1), (0, 1), (1, 3), (1, 2), (2, 1)]


def elements(tree, budget=2):
    """Every element of tree, sequence lengths capped at min_len + budget."""
    if isinstance(tree, Inv):
        return elements(tree.child, budget)
    if isinstance(tree, Finite):
        return list(range(tree.cardinality))
    if isinstance(tree, Builtin):
        kind = tree.kind
        if kind is BuiltinKind.BOOL:
            return [False, True]
        if kind is BuiltinKind.RATIONAL:
            return list(_RATIONALS)
        if kind is BuiltinKind.BYTES:
            return [b"", b"a", b"ab", b"b"]
        if KIND_TABLE[kind].family == "float":
            return list(_FLOATS)
        if KIND_TABLE[kind].family == "int":
            return list(_SIGNED)
        return list(_UNSIGNED)
    if isinstance(tree, SeqOp):
        top = tree.min_len + budget
        if tree.max_len is not OMEGA:
            top = min(top, tree.max_len - 1)
        out = []
        for length in range(tree.min_len, top + 1):
            pools = [elements(item_order_at(tree, rank), budget) for rank in range(length)]
            out.extend(list(combo) for combo in product(*pools))
        return out
    if isinstance(tree, Sum):
        return [
            (rank, sub)
            for rank in range(tree.master.cardinality)
            for sub in elements(tree.cases[rank], budget)
        ]
    raise TypeError(f"not an order node: {type(tree).__name__}")


def assert_keys_match_oracle(tree, elems, mode="padded", **encode_kw):
    """Bytewise order of the encoded keys must equal the oracle on every pair."""
    keys = [encode(tree, value, mode, **encode_kw) for value in elems]
    for i, x in enumerate(elems):
        for j in range(i, len(elems)):
            y = elems[j]
            want = compare(tree, x, y)
            got = compare_keys(keys[i], keys[j])
            assert got is want, (
                f"disagree on {x!r} vs {y!r}: keys {keys[i].hex()} / {keys[j].hex()}, "
                f"oracle {want.name}, bytewise {got.name}"
            )


def _rational_doc(rng, value):
    if isinstance(value, Fraction):
        num, den = value.numerator, value.denominator
    elif isinstance(value, tuple):
        num, den = value
    else:
        num, den = value, 1
    roll = rng.random()
    if roll < 0.3:
        return {"num": num, "den": den}
    if roll < 0.4:
        return {"num": str(num), "den": str(den)}
    if roll < 0.7 or den != 1:
        return f"{num}/{den}"
    return num if roll < 0.85 else str(num)


def _doc(rng, tree, value):
    if isinstance(tree, Inv):
        return _doc(rng, tree.child, value)
    if isinstance(tree, Finite):
        return value if rng.random() < 0.5 else str(value)
    if isinstance(tree, Builtin):
        kind = tree.kind
        if kind is BuiltinKind.BOOL:
            return bool(value) if rng.random() < 0.5 else int(value)
        if kind is BuiltinKind.BYTES:
            if rng.random() < 0.5:
                try:
                    return value.decode("utf-8")
                except UnicodeDecodeError:
                    pass
            return {"hex": value.hex()}
        if kind is BuiltinKind.RATIONAL:
            return _rational_doc(rng, value)
        if KIND_TABLE[kind].family == "float":
            return value if rng.random() < 0.5 else repr(value)
        return value if rng.random() < 0.5 else str(value)
    if isinstance(tree, SeqOp):
        return [_doc(rng, item_order_at(tree, rank), item) for rank, item in enumerate(value)]
    if isinstance(tree, Sum):
        rank, sub = value
        return [rank if rng.random() < 0.5 else str(rank), _doc(rng, tree.cases[rank], sub)]
    raise TypeError(f"not an order node: {type(tree).__name__}")


def to_doc(rng, tree, value):
    """A JSON Lines record spelling the element value of tree.

    Each leaf takes one of its documented JSON forms, drawn from rng: a
    decimal string for ranks and numbers, a string or {"hex": ...} for
    bytes, {"num", "den"} or "p/q" for rationals.  The record has been
    through json.dumps and json.loads, as a line of a dataset would.
    """
    return json.loads(json.dumps(_doc(rng, tree, value)))


# Values that are elements of some trees and not of others.  Every repr is
# short and the same in every process, so the messages they cause are too.
_BAD_ELEMENTS = [
    True, False, None, 0, 1, -1, 256, 70000, 2**64, 2**70, -(2**63) - 1, 1.0, -0.0, 1e300,
    math.inf, math.nan, "ab", "1", "", b"", b"ab", bytearray(b"a"), [], [0, 1], [97, 98],
    (1,), (1, 0), (0, 1, 2), (True, 3), (1, -2), {"hex": "61"}, Fraction(1, 3), Fraction(-7, 2),
]
# The same for JSON Lines records: what json.loads returns for bad spellings.
_BAD_DOCS = [
    True, None, 0, 1, -1, 256, 70000, 2**64, 1.0, 1e300, "1", " 2 ", "x", "", "1/2", "1/0",
    "-3/4", "nan", "1e3", "\ud800", {"hex": "61"}, {"hex": "zz"}, {"num": 1, "den": 2},
    {"num": "1", "den": True}, {"num": 1, "den": 0}, {"num": 1.5, "den": 2}, {"1": 2},
    [], [0, 1], ["0", [1, 2]], [1, "a"],
]


def _splice_bad(rng, value, palette):
    """value with itself, or one item somewhere inside it, replaced from palette."""
    if isinstance(value, (list, tuple)) and value and rng.random() < 0.7:
        items = list(value)
        index = rng.randrange(len(items))
        items[index] = _splice_bad(rng, items[index], palette)
        return type(value)(items)
    return rng.choice(palette)


def _outcome(run):
    try:
        return run().hex()
    except TsokeyError as exc:
        return f"{type(exc).__name__}: {exc}"


def fixed_throughout(tree):
    """Whether every order in ``tree`` has one length, also those at ranks no element
    reaches: no ``bytes`` or ``rational`` leaf, and no sequence node of two lengths."""
    if isinstance(tree, Inv):
        return fixed_throughout(tree.child)
    if isinstance(tree, Builtin):
        return tree.kind not in (BuiltinKind.BYTES, BuiltinKind.RATIONAL)
    if isinstance(tree, SeqOp):
        return tree.max_len == tree.min_len + 1 and all(map(fixed_throughout, tree.prelude + tree.period))
    if isinstance(tree, Sum):
        return all(map(fixed_throughout, tree.cases))
    return True


def plan_digest(trees=3000, values=3):
    """SHA-256 over the keys and faults of seeded trees and values, and the case count.

    Tree i comes from ``random_tree(random.Random(i), ...)``.  Each draws
    ``values`` elements, each also spelled as a JSON Lines record; about
    half of them, element and record apart, get a bad value spliced in from
    the palettes above.  Every value is encoded with ``encode`` and every
    record with ``encode_doc``, padded and (when the tree is
    ``fixed_throughout``) packed, with ``nan_high`` off and on.  The digest
    covers each key's bytes, or the exception class and message of each
    fault.  Packed mode is also open to trees whose only variable-length
    orders sit at ranks no element reaches; those trees were not packed
    when the digest was pinned, so their packed keys are checked against
    padded ones in ``tests/test_open_keys.py`` instead.
    """
    digest = hashlib.sha256()
    cases = 0
    for index in range(trees):
        rng = random.Random(index)
        tree = random_tree(rng, rng.randrange(0, 5), fixed_only=rng.random() < 0.3)
        packed = fixed_throughout(tree)
        assert not packed or prepare(tree).packed_ok, tree
        modes = ("padded", "packed") if packed else ("padded",)
        for _ in range(values):
            value = random_element(rng, tree, length_cap=4)
            doc = to_doc(rng, tree, value)
            if rng.random() < 0.5:
                value = _splice_bad(rng, value, _BAD_ELEMENTS)
            if rng.random() < 0.5:
                doc = _splice_bad(rng, doc, _BAD_DOCS)
            for mode in modes:
                for nan_high in (False, True):
                    for entry, given in ((encode, value), (encode_doc, doc)):
                        line = _outcome(lambda: entry(tree, given, mode, nan_high=nan_high))
                        digest.update(f"{index} {mode} {nan_high} {entry.__name__} {line}\n".encode())
                        cases += 1
    return digest.hexdigest(), cases
