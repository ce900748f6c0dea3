"""Shared test helpers: bounded element enumeration for small trees, and
JSON Lines spellings of elements."""

import json
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
    compare,
    compare_keys,
    encode,
    item_order_at,
)
from tsokey.order_model import KIND_TABLE

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
