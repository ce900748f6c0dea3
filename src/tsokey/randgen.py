"""Seeded generation of random order trees and conforming elements.

The self-test command, the benchmark's custom generator and the randomized
test suites all draw from here so that a single --seed reproduces a run.
Trees are valid by construction: operator choices respect the structural
rules (anti* uniformity, next fixed length, period/prelude coverage) and
the depth accounting matches validate(), so any tree built within the
requested budget passes validation.

Everything takes an explicit random.Random instance; no global state.
"""

from __future__ import annotations

import math
import random
from fractions import Fraction

from .order_model import (
    KIND_TABLE,
    OMEGA,
    Builtin,
    BuiltinKind,
    Finite,
    Inv,
    OrderNode,
    SeqKind,
    SeqOp,
    Sum,
    item_order_at,
)

__all__ = ["random_tree", "random_element", "random_pair"]

_SCALAR_KINDS = [
    BuiltinKind.UINT8,
    BuiltinKind.UINT16,
    BuiltinKind.UINT32,
    BuiltinKind.UINT64,
    BuiltinKind.INT8,
    BuiltinKind.INT16,
    BuiltinKind.INT32,
    BuiltinKind.INT64,
    BuiltinKind.FLOAT32,
    BuiltinKind.FLOAT64,
    BuiltinKind.BOOL,
]

# Values from a small palette collide often, which is what an order test
# wants: ties exercise the question search and the tie-break rules.
_FLOAT32_PALETTE = [
    0.0, -0.0, 1.0, -1.0, 0.5, -0.5, 1.5, 2.0, -2.0,
    math.inf, -math.inf, 2.0 ** -126, -(2.0 ** -149), 3.0e38, -3.0e38, 0.1,
]
_FLOAT64_PALETTE = _FLOAT32_PALETTE + [1e300, -1e300, 5e-324, -5e-324, 1e-200]


def _random_collation(rng: random.Random, size: int) -> tuple[int, ...]:
    table = list(range(size))
    rng.shuffle(table)
    return tuple(table)


def _random_leaf(rng: random.Random, depth_budget: int, fixed_only: bool) -> OrderNode:
    roll = rng.random()
    if roll < 0.45:
        cardinality = rng.choice((1, 2, 2, 3, 3, 4, 5, 8, 256))
        collation = _random_collation(rng, cardinality) if rng.random() < 0.25 else None
        return Finite(cardinality, collation)
    if not fixed_only and roll < 0.55:
        return Builtin(BuiltinKind.RATIONAL, None, rng.random() < 0.2)
    if not fixed_only and roll < 0.7 and depth_budget >= 1:
        collation = _random_collation(rng, 256) if rng.random() < 0.2 else None
        return Builtin(BuiltinKind.BYTES, collation, rng.random() < 0.2)
    kind = rng.choice(_SCALAR_KINDS)
    return Builtin(kind, None, rng.random() < 0.2)


def _random_seqop(rng: random.Random, depth_budget: int, fixed_only: bool) -> SeqOp:
    child_budget = depth_budget - 1

    def child() -> OrderNode:
        return random_tree(rng, child_budget, fixed_only=fixed_only)

    kind = rng.choice(list(SeqKind))
    if fixed_only and kind is not SeqKind.NEXT:
        kind = SeqKind.NEXT
    if kind.is_anti:
        min_len = rng.randrange(0, 3)
        max_len = min_len + rng.randrange(1, 4)
        return SeqOp(kind, min_len, max_len, (), (child(),))
    if kind is SeqKind.NEXT:
        min_len = rng.randrange(0, 4)
        if min_len and rng.random() < 0.5:
            # Cover the whole length range with the prelude, no period.
            return SeqOp(kind, min_len, min_len + 1, tuple(child() for _ in range(min_len)), ())
        prelude = tuple(child() for _ in range(rng.randrange(0, min_len + 1)))
        return SeqOp(kind, min_len, min_len + 1, prelude, (child(),))
    min_len = rng.randrange(0, 3)
    unbounded = rng.random() < 0.4
    max_len = OMEGA if unbounded else min_len + rng.randrange(1, 5)
    prelude = tuple(child() for _ in range(rng.randrange(0, 3)))
    if not unbounded and not rng.random() < 0.8 and len(prelude) >= max_len - 1:
        period: tuple[OrderNode, ...] = ()
    else:
        period = tuple(child() for _ in range(rng.randrange(1, 3)))
    return SeqOp(kind, min_len, max_len, prelude, period)


def random_tree(
    rng: random.Random,
    depth_budget: int = 5,
    *,
    fixed_only: bool = False,
    inv_budget: int = 2,
) -> OrderNode:
    """A random valid order tree using at most depth_budget operator levels.

    fixed_only restricts the output to fixed-length trees (every sequence
    node a next, no bytes or rational leaves) so packed mode is available.
    """
    if depth_budget <= 0:
        return _random_leaf(rng, depth_budget, fixed_only)
    roll = rng.random()
    if roll < 0.3:
        return _random_leaf(rng, depth_budget, fixed_only)
    if roll < 0.4 and inv_budget > 0:
        return Inv(random_tree(rng, depth_budget, fixed_only=fixed_only, inv_budget=inv_budget - 1))
    if roll < 0.55:
        cardinality = rng.randrange(1, 4)
        collation = _random_collation(rng, cardinality) if rng.random() < 0.25 else None
        cases = tuple(
            random_tree(rng, depth_budget - 1, fixed_only=fixed_only) for _ in range(cardinality)
        )
        return Sum(Finite(cardinality, collation), cases)
    return _random_seqop(rng, depth_budget, fixed_only)


def _random_scalar(rng: random.Random, kind: BuiltinKind):
    family, bits = KIND_TABLE[kind]
    if family == "uint":
        hi = (1 << bits) - 1
        return rng.choice((0, 1, hi, hi - 1, rng.randrange(0, hi + 1), rng.randrange(0, 17)))
    if family == "int":
        half = 1 << (bits - 1)
        return rng.choice(
            (-half, half - 1, -1, 0, 1, rng.randrange(-half, half), rng.randrange(-8, 9))
        )
    if kind is BuiltinKind.FLOAT32:
        if rng.random() < 0.3:
            return rng.uniform(-100.0, 100.0)
        return rng.choice(_FLOAT32_PALETTE)
    if kind is BuiltinKind.FLOAT64:
        if rng.random() < 0.3:
            return rng.uniform(-1e6, 1e6)
        return rng.choice(_FLOAT64_PALETTE)
    if kind is BuiltinKind.BOOL:
        return rng.choice((False, True, 0, 1))
    raise AssertionError(f"no scalar generator for {kind.value}")


def _random_rational(rng: random.Random):
    num = rng.randrange(-30, 31)
    den = rng.randrange(1, 31)
    spelling = rng.random()
    if spelling < 0.4:
        return Fraction(num, den)
    if spelling < 0.7:
        return (num, den)  # possibly unreduced; the key must not care
    return num  # integer spelling of num/1


def random_element(rng: random.Random, tree: OrderNode, *, length_cap: int = 6):
    """A random element conforming to tree (never NaN)."""
    if isinstance(tree, Inv):
        return random_element(rng, tree.child, length_cap=length_cap)
    if isinstance(tree, Finite):
        return rng.randrange(tree.cardinality)
    if isinstance(tree, Builtin):
        if tree.kind is BuiltinKind.RATIONAL:
            return _random_rational(rng)
        if tree.kind is BuiltinKind.BYTES:
            length = rng.randrange(0, length_cap + 1)
            alphabet = b"abc" if rng.random() < 0.7 else bytes(range(256))
            return bytes(rng.choice(alphabet) for _ in range(length))
        return _random_scalar(rng, tree.kind)
    if isinstance(tree, SeqOp):
        if tree.max_len is OMEGA:
            top = tree.min_len + length_cap
        else:
            top = min(tree.max_len - 1, tree.min_len + length_cap)
        length = rng.randint(tree.min_len, top)
        items = [
            random_element(rng, item_order_at(tree, rank), length_cap=length_cap)
            for rank in range(length)
        ]
        return items if rng.random() < 0.8 else tuple(items)
    if isinstance(tree, Sum):
        rank = rng.randrange(tree.master.cardinality)
        sub = random_element(rng, tree.cases[rank], length_cap=length_cap)
        return (rank, sub)
    raise AssertionError(f"not an order node: {type(tree).__name__}")


def random_pair(rng: random.Random, tree: OrderNode, *, length_cap: int = 6):
    """Two elements of tree, biased toward ties and prefix pairs."""
    x = random_element(rng, tree, length_cap=length_cap)
    roll = rng.random()
    if roll < 0.12:
        return x, x
    if roll < 0.22 and isinstance(tree, SeqOp) and isinstance(x, list) and len(x) > tree.min_len:
        return x, x[:-1]  # one a strict prefix of the other
    return x, random_element(rng, tree, length_cap=length_cap)
