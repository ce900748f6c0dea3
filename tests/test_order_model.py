"""Tree validation, rewrites, and element conformance."""

import copy
import math
import operator
import pickle
import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from tsokey import (
    BOOL,
    BYTES,
    FLOAT64,
    INT8,
    OMEGA,
    RATIONAL,
    UINT8,
    AntiNotUniform,
    Builtin,
    BuiltinKind,
    ElementMismatch,
    Finite,
    Inv,
    MalformedNode,
    NaNRejected,
    NextNotFixedLength,
    OrderTooDeep,
    PackedModeUnavailable,
    PathStats,
    PeriodMissing,
    PreparedOrder,
    RankOutOfRange,
    SeqKind,
    SeqOp,
    SourceSpan,
    Sum,
    TsodlSyntaxError,
    antilex,
    check_element,
    compare,
    contrehierar,
    contrelex,
    encode,
    finite,
    hierar,
    inv,
    item_order_at,
    lex,
    next_,
    parse,
    prepare,
    push_inv_to_leaves,
    rational_parts,
    sum_of,
    validate,
)
from tsokey.order_model import KIND_TABLE
from tsokey.randgen import random_pair, random_tree

from helpers import elements


def nested(make, levels):
    node = Finite(2)
    for _ in range(levels):
        node = make(0, 3, period=(node,))
    return node


def test_kind_table_matches_the_kind_names():
    for kind in BuiltinKind:
        family = next((f for f in ("uint", "int", "float") if kind.value.startswith(f)), None)
        bits = int(kind.value[len(family):]) if family else None
        assert KIND_TABLE[kind] == (family, bits)


class TestValidate:
    def test_stats_for_a_small_tree(self):
        tree = lex(0, OMEGA, period=(contrelex(0, 3, period=(finite(2),)),))
        stats = validate(tree)
        assert stats.depth == 2
        assert stats.max_lex_path == 1
        assert stats.max_contrelex_path == 1
        assert stats.has_variable_length

    def test_fixed_length_tree_is_not_variable(self):
        tree = next_(2, 3, period=(UINT8,))
        assert validate(tree).has_variable_length is False

    def test_bytes_leaf_counts_as_one_lex_level(self):
        stats = validate(BYTES)
        assert stats.depth == 1
        assert stats.max_lex_path == 1
        assert stats.has_variable_length

    @pytest.mark.parametrize(
        "text", ["inv(lex(0, omega, ([uint8])))", "contrelex(0, omega, ([uint8 desc]))", "bytes desc"]
    )
    def test_path_counts_follow_inversion(self, text):
        # The first two encode [1, 2] alike, f0fee0f0fde1: one contrelex level each.
        stats = validate(parse(text))
        assert (stats.max_lex_path, stats.max_contrelex_path) == (0, 1)

    @pytest.mark.parametrize(
        "tree, stats",
        [
            (finite(3), PathStats(0, 0, 0, False)),
            (RATIONAL, PathStats(0, 0, 0, True)),
            (lex(0, 1), PathStats(1, 1, 0, False)),  # no children, still one level
        ],
    )
    def test_stats_of_leaves_and_a_childless_node(self, tree, stats):
        assert validate(tree) == stats

    def test_bounds_at_the_count_cap_pass(self):
        # Ranks and lengths stay below the bound, so 2**64 is the largest one allowed.
        validate(lex(0, 1 << 64, period=(Finite(1 << 64),)))

    def test_rational_leaf_is_variable_length(self):
        assert validate(RATIONAL).has_variable_length

    @pytest.mark.parametrize("make", [lex, contrelex])
    def test_fourteen_nested_levels_pass(self, make):
        validate(nested(make, 14))

    @pytest.mark.parametrize("make", [lex, contrelex, hierar])
    def test_fifteen_nested_levels_rejected(self, make):
        with pytest.raises(OrderTooDeep):
            validate(nested(make, 15))

    def test_bytes_under_fourteen_lex_levels_rejected(self):
        node = BYTES
        for _ in range(14):
            node = lex(0, 3, period=(node,))
        with pytest.raises(OrderTooDeep):
            validate(node)

    @pytest.mark.parametrize(
        "tree",
        [
            Finite(0),
            Finite(-1),
            Finite(True),
            Finite(1 << 65),
            Finite(3, (0, 1)),
            Finite(3, (0, 1, 1)),
            Finite(3, (0, 1, 3)),
            Finite(300, tuple(range(300))),
            Finite(257, tuple(range(257))),
            Builtin(BuiltinKind.UINT8, tuple(range(256))),
            SeqOp(SeqKind.LEX, -1, 3, (), (Finite(2),)),
            SeqOp(SeqKind.LEX, 3, 3, (), (Finite(2),)),
            SeqOp(SeqKind.LEX, 3, 2, (), (Finite(2),)),
            SeqOp(SeqKind.LEX, 0, 1 << 65, (), (Finite(2),)),
            SeqOp(SeqKind.LEX, 0, "3", (), (Finite(2),)),
            SeqOp(SeqKind.LEX, 0, True, (), (Finite(2),)),
            Sum(Finite(2), (Finite(2),)),
            Sum(UINT8, (Finite(2), Finite(2))),
            "not a tree",
        ],
    )
    def test_malformed_nodes_rejected(self, tree):
        with pytest.raises(MalformedNode):
            validate(tree)

    @pytest.mark.parametrize(
        "tree",
        [
            lex(0, OMEGA),
            contrehierar(1, OMEGA, prelude=(Finite(2),)),
            lex(0, 4, prelude=(Finite(2),)),
        ],
    )
    def test_period_missing(self, tree):
        with pytest.raises(PeriodMissing):
            validate(tree)

    def test_prelude_can_cover_a_bounded_node_without_period(self):
        validate(lex(0, 4, prelude=(Finite(2), Finite(2), Finite(3))))

    @pytest.mark.parametrize(
        "tree",
        [
            SeqOp(SeqKind.ANTILEX, 0, OMEGA, (), (Finite(2),)),
            SeqOp(SeqKind.ANTILEX, 0, 3, (Finite(2),), (Finite(2),)),
            SeqOp(SeqKind.ANTICONTREHIERAR, 0, 3, (), (Finite(2), Finite(2))),
        ],
    )
    def test_anti_uniformity(self, tree):
        with pytest.raises(AntiNotUniform):
            validate(tree)

    def test_next_requires_fixed_length(self):
        with pytest.raises(NextNotFixedLength):
            validate(next_(0, 3, period=(Finite(2),)))
        validate(next_(2, 3, period=(Finite(2),)))


class TestOmega:
    def test_unpickles_as_the_same_object(self):
        assert pickle.loads(pickle.dumps(OMEGA)) is OMEGA

    @pytest.mark.parametrize("op", [operator.lt, operator.le, operator.gt, operator.ge])
    def test_has_no_order_against_integers(self, op):
        with pytest.raises(TypeError):
            op(OMEGA, 5)

    def test_unbounded_node_supplies_any_rank(self):
        node = lex(0, OMEGA, prelude=(Finite(2),), period=(Finite(3), Finite(4)))
        assert item_order_at(node, 10**30) == Finite(4)

    @pytest.mark.parametrize("min_len, max_len", [(3, 3), (3, 2)])
    def test_bounds_message(self, min_len, max_len):
        with pytest.raises(MalformedNode) as info:
            validate(SeqOp(SeqKind.LEX, min_len, max_len, (), (Finite(2),)))
        assert str(info.value) == f"$: bounds require min_len < max_len, got {min_len} and {max_len}"


class TestItemOrderAt:
    def test_prelude_then_period_cycles(self):
        a, b, c, d = Finite(2), Finite(3), Finite(4), Finite(5)
        node = lex(0, OMEGA, prelude=(a, b), period=(c, d))
        assert [item_order_at(node, r) for r in range(6)] == [a, b, c, d, c, d]

    def test_rank_at_or_past_max_len_rejected(self):
        node = next_(2, 3, period=(Finite(2),))
        with pytest.raises(RankOutOfRange):
            item_order_at(node, 3)
        with pytest.raises(RankOutOfRange):
            item_order_at(node, -1)

    def test_rank_past_prelude_with_no_period_rejected(self):
        node = lex(0, 4, prelude=(Finite(2), Finite(2), Finite(2)))
        with pytest.raises(RankOutOfRange):
            item_order_at(node, 3)


class TestCheckElement:
    def test_accepts_conforming_elements(self):
        tree = lex(0, 3, period=(finite(2),))
        check_element(tree, [])
        check_element(tree, [0, 1])
        check_element(tree, (1,))

    def test_bool_accepted_as_a_finite_rank(self):
        check_element(finite(2), True)
        check_element(BOOL, False)
        check_element(BOOL, 1)

    @pytest.mark.parametrize(
        "tree, value",
        [
            (finite(2), 2),
            (finite(2), -1),
            (finite(2), "0"),
            (lex(1, 3, period=(finite(2),)), []),
            (lex(0, 3, period=(finite(2),)), [0, 0, 0]),
            (lex(0, 3, period=(finite(2),)), "00"),
            (lex(0, 3, period=(finite(2),)), 7),
            (UINT8, 256),
            (UINT8, -1),
            (UINT8, True),
            (INT8, 128),
            (Builtin(BuiltinKind.FLOAT64), "x"),
            (BYTES, "text"),
            (RATIONAL, (1, 0)),
            (RATIONAL, (1, -2)),
            (RATIONAL, 1.5),
            (sum_of(finite(2), (finite(2), finite(3))), (2, 0)),
            (sum_of(finite(2), (finite(2), finite(3))), (0, 5)),
            (sum_of(finite(2), (finite(2), finite(3))), 0),
        ],
    )
    def test_rejects_nonconforming_elements(self, tree, value):
        with pytest.raises(ElementMismatch):
            check_element(tree, value)

    def test_nan_needs_the_nan_high_policy(self):
        with pytest.raises(NaNRejected):
            check_element(Builtin(BuiltinKind.FLOAT64), float("nan"))
        check_element(Builtin(BuiltinKind.FLOAT64), float("nan"), nan_high=True)


class TestRationalParts:
    def test_accepted_spellings(self):
        from fractions import Fraction

        assert rational_parts(Fraction(-14, 6)) == (-7, 3)
        assert rational_parts((14, 6)) == (14, 6)
        assert rational_parts(5) == (5, 1)

    def test_rejected_spellings(self):
        with pytest.raises(ElementMismatch):
            rational_parts((1, 0))
        with pytest.raises(ElementMismatch):
            rational_parts(True)


class TestRewrites:
    def test_push_inv_removes_structural_inversions(self):
        tree = inv(lex(0, 3, period=(inv(finite(3)), INT8)))
        rewritten = push_inv_to_leaves(tree)
        assert rewritten.kind is SeqKind.CONTRELEX
        assert rewritten.period[0] == Finite(3)  # double inversion cancels
        assert rewritten.period[1].inverted

    def test_double_inversion_is_identity(self):
        tree = lex(0, 3, period=(finite(4, (2, 0, 1, 3)),))
        assert push_inv_to_leaves(inv(inv(tree))) == tree

    @pytest.mark.parametrize(
        "node",
        [
            lex(0, 4, period=(finite(3),)),
            contrelex(0, 4, period=(finite(3),)),
            hierar(0, 4, period=(finite(2),)),
            contrehierar(0, 4, period=(finite(2),)),
            next_(2, 3, period=(finite(3),)),
            sum_of(finite(2), (finite(2), finite(3))),
        ],
    )
    def test_contre_rewrite_matches_inversion(self, node):
        """One inversion step: the operator swaps for its contre partner, its children invert."""
        rewritten = push_inv_to_leaves(inv(node))
        for x in elements(node):
            for y in elements(node):
                assert compare(rewritten, x, y) is compare(inv(node), x, y)

    def test_push_inv_validates_the_tree(self):
        with pytest.raises(MalformedNode, match=r"\$\.child: cardinality 0 < 1"):
            push_inv_to_leaves(inv(Finite(0)))

    def test_a_reversed_leaf_inverts_back_to_the_plain_leaf(self):
        pushed = push_inv_to_leaves(inv(finite(2**64)))
        assert pushed == Finite(2**64, range(2**64 - 1, -1, -1))
        assert push_inv_to_leaves(inv(pushed)) == finite(2**64)

    def test_an_inv_free_tree_comes_back_as_itself(self):
        rng = random.Random(23)
        trees = [random_tree(rng, budget) for budget in range(6) for _ in range(200)]
        trees = [tree for tree in trees if not any(isinstance(n, Inv) for n in _walk(tree))]
        trees.append(parse("next(2, 3, (int32 desc, sum(finite(2, collation=0100), (bytes desc, uint8))))"))
        assert len(trees) > 300
        for tree in trees:
            assert push_inv_to_leaves(tree) is tree
        # Below an Inv only the inverted part is new: its siblings are the nodes given.
        plain = lex(0, 3, period=(finite(3),))
        pushed = push_inv_to_leaves(next_(2, 3, period=(plain, inv(plain))))
        assert pushed.period[0] is plain and pushed.period[1] is not plain

    @given(st.integers(0, 2**32 - 1))
    def test_push_inv_preserves_the_order(self, seed):
        rng = random.Random(seed)
        tree = Inv(random_tree(rng, rng.randrange(0, 4)))
        rewritten = push_inv_to_leaves(tree)
        assert not any(isinstance(n, Inv) for n in _walk(rewritten))
        x, y = random_pair(rng, tree, length_cap=3)
        assert compare(rewritten, x, y) is compare(tree, x, y)


def _walk(node):
    yield node
    if isinstance(node, Inv):
        yield from _walk(node.child)
    elif isinstance(node, SeqOp):
        for child in node.prelude + node.period:
            yield from _walk(child)
    elif isinstance(node, Sum):
        yield from _walk(node.master)
        for case in node.cases:
            yield from _walk(case)


def _marking_chain(rng, levels, leaf):
    """``levels`` lex- and contrelex-family nodes around ``leaf``, some under an Inv."""
    node = leaf
    for _ in range(levels):
        kind = rng.choice((SeqKind.LEX, SeqKind.CONTRELEX, SeqKind.ANTILEX, SeqKind.ANTICONTRELEX))
        bound = 3 if kind.is_anti else OMEGA
        node = SeqOp(kind, 0, bound, (), (node,))
        if rng.random() < 0.2:
            node = Inv(node)
    return node


def test_path_counts_never_exceed_the_depth():
    """validate has one cap, on depth: no accepted tree has more lex or contrelex levels on a path."""
    rng = random.Random(17)
    trees = [random_tree(rng, budget) for budget in range(15) for _ in range(60)]
    for levels in range(16):
        for leaf in (UINT8, BYTES, Builtin(BuiltinKind.BYTES, None, True), RATIONAL):
            trees += [_marking_chain(rng, levels, leaf) for _ in range(8)]
    accepted = 0
    for tree in trees:
        try:
            stats = validate(tree)
        except OrderTooDeep:
            continue
        accepted += 1
        assert stats.max_lex_path <= stats.depth
        assert stats.max_contrelex_path <= stats.depth
    assert accepted > len(trees) // 2


def test_pushing_inversions_to_the_leaves_keeps_the_path_stats():
    """Over criterion 2's generator, and on finite leaves of more than 256 ranks
    under an inversion, which push to a reversed range collation."""
    rng = random.Random(20260818)
    for _ in range(5000):
        tree = random_tree(rng, rng.randrange(0, 6))
        assert validate(tree) == validate(push_inv_to_leaves(tree))
    wide = [
        (inv(finite(300)), [0, 1, 256, 299]),
        (inv(finite(2**64)), [0, 255, 2**63, 2**64 - 1]),
        (inv(sum_of(finite(300), [UINT8] * 300)), [(0, 7), (1, 0), (299, 255)]),
    ]
    for tree, values in wide:
        pushed = push_inv_to_leaves(tree)
        assert validate(pushed) == validate(tree)
        assert prepare(pushed).tree == prepare(tree).tree
        for value in values:
            assert encode(pushed, value) == encode(tree, value)


# A parsed tree holding every node kind: a sum, sequence nodes (one unbounded),
# a finite leaf with a collation, an Inv over a sequence and inverted builtins.
RECORD_TREE = (
    "sum(finite(2), (lex(0, omega, (finite(3, collation=020001) [inv(hierar(1, 3, ([uint8])))])),"
    " next(1, 2, (bytes desc, float64))))"
)


def _records():
    tree = parse(RECORD_TREE)
    stats = validate(tree)
    return [*_walk(tree), stats, SourceSpan(2, 5, 17), PreparedOrder(tree, stats, False)]


class TestRecords:
    """Tree nodes, PathStats, SourceSpan and PreparedOrder are frozen value records."""

    def test_repr(self):
        tree = parse(RECORD_TREE)
        assert repr(tree) == (
            "Sum(master=Finite(cardinality=2, collation=None), cases=(SeqOp(kind=<SeqKind.LEX: 'lex'>,"
            " min_len=0, max_len=OMEGA, prelude=(Finite(cardinality=3, collation=(2, 0, 1)),),"
            " period=(Inv(child=SeqOp(kind=<SeqKind.HIERAR: 'hierar'>, min_len=1, max_len=3, prelude=(),"
            " period=(Builtin(kind=<BuiltinKind.UINT8: 'uint8'>, collation=None, inverted=False),))),)),"
            " SeqOp(kind=<SeqKind.NEXT: 'next'>, min_len=1, max_len=2,"
            " prelude=(Builtin(kind=<BuiltinKind.BYTES: 'bytes'>, collation=None, inverted=True),"
            " Builtin(kind=<BuiltinKind.FLOAT64: 'float64'>, collation=None, inverted=False)), period=())))"
        )
        assert repr(validate(tree)) == (
            "PathStats(depth=3, max_lex_path=1, max_contrelex_path=1, has_variable_length=True)"
        )
        assert repr(SourceSpan(2, 5, 17)) == "SourceSpan(line=2, column=5, offset=17)"

    def test_records_of_different_classes_are_unequal(self):
        class Subclass(Finite):
            __slots__ = ()

        assert Finite(2) != Subclass(2)
        assert Subclass(2) == Subclass(2)
        assert Finite(2) != (2, None)
        assert (Finite(2) == (2, None)) is False
        assert Inv(Finite(2)) != Inv(Subclass(2))
        assert SourceSpan(1, 1, 0) != (1, 1, 0)

    def test_equal_trees_hash_equal_and_the_cached_hash_is_hidden(self):
        first, second = parse(RECORD_TREE), parse(RECORD_TREE)
        assert first is not second
        assert first == second and hash(first) == hash(second)
        node, twin = Finite(3), Finite(3)
        object.__setattr__(node, "_hash", 12345)
        assert hash(node) == 12345
        assert node == twin and repr(node) == repr(twin) == "Finite(cardinality=3, collation=None)"
        for cls in (Finite, Builtin, Inv, SeqOp, Sum):
            assert "_hash" not in cls.__match_args__

    @pytest.mark.parametrize("record", _records(), ids=lambda record: type(record).__name__)
    def test_fields_cannot_be_set_or_deleted(self, record):
        for field in type(record).__match_args__:
            with pytest.raises(AttributeError, match=f"cannot assign to field '{field}'"):
                setattr(record, field, 1)
            with pytest.raises(AttributeError, match=f"cannot delete field '{field}'"):
                delattr(record, field)

    @pytest.mark.parametrize("record", _records(), ids=lambda record: type(record).__name__)
    def test_pickle_and_deepcopy_round_trip(self, record):
        for clone in (pickle.loads(pickle.dumps(record)), copy.deepcopy(record), copy.copy(record)):
            assert type(clone) is type(record)
            assert clone == record and hash(clone) == hash(record) and repr(clone) == repr(record)

    def test_keyword_construction(self):
        leaf = Finite(cardinality=3, collation=(2, 0, 1))
        assert leaf == Finite(3, (2, 0, 1))
        assert Builtin(kind=BuiltinKind.BYTES, collation=None, inverted=True) == Builtin(BuiltinKind.BYTES, None, True)
        assert Builtin(BuiltinKind.UINT8) == Builtin(BuiltinKind.UINT8, None, False)
        assert Inv(child=leaf) == Inv(leaf)
        seq = SeqOp(kind=SeqKind.LEX, min_len=0, max_len=OMEGA, prelude=(leaf,), period=(UINT8,))
        assert seq == SeqOp(SeqKind.LEX, 0, OMEGA, (leaf,), (UINT8,))
        assert SeqOp(SeqKind.NEXT, 1, 2) == SeqOp(SeqKind.NEXT, 1, 2, (), ())
        assert Sum(master=Finite(2), cases=(UINT8, leaf)) == Sum(Finite(2), (UINT8, leaf))
        stats = PathStats(depth=1, max_lex_path=1, max_contrelex_path=0, has_variable_length=True)
        assert stats == PathStats(1, 1, 0, True)
        assert SourceSpan(line=2, column=5, offset=17) == SourceSpan(2, 5, 17)
        assert PreparedOrder(tree=seq, stats=stats, packed_ok=False) == PreparedOrder(seq, stats, False)

    def test_list_children_and_tables_become_tuples(self):
        node = SeqOp(SeqKind.LEX, 0, OMEGA, [Finite(2)], [Finite(3, [2, 0, 1])])
        assert node.prelude == (Finite(2),) and type(node.prelude) is tuple
        assert node.period[0].collation == (2, 0, 1) and type(node.period[0].collation) is tuple
        assert type(Sum(Finite(2), [UINT8, BOOL]).cases) is tuple
        assert type(Builtin(BuiltinKind.BYTES, list(range(256))).collation) is tuple
        assert hash(node) == hash(SeqOp(SeqKind.LEX, 0, OMEGA, (Finite(2),), (Finite(3, (2, 0, 1)),)))

    def test_match_by_position(self):
        match parse("finite(3, collation=020001)"):
            case Finite(cardinality, collation):
                assert (cardinality, collation) == (3, (2, 0, 1))
            case _:
                pytest.fail("no match")
        match parse("lex(0, omega, (uint8 [bytes desc]))"):
            case SeqOp(SeqKind.LEX, 0, max_len, (Builtin(BuiltinKind.UINT8),), (Builtin(_, None, True),)):
                assert max_len is OMEGA
            case _:
                pytest.fail("no match")
        assert Sum.__match_args__ == ("master", "cases")
        assert Inv.__match_args__ == ("child",)
        assert PathStats.__match_args__ == ("depth", "max_lex_path", "max_contrelex_path", "has_variable_length")


# One call for each error class that parse, validate and encode raise.
FAILING_CALLS = [
    (TsodlSyntaxError, lambda: parse("finite(3)\n  x")),
    (MalformedNode, lambda: validate(Finite(3, (0, 1, 1)))),
    (OrderTooDeep, lambda: validate(nested(lex, 15))),
    (PeriodMissing, lambda: validate(lex(0, OMEGA))),
    (AntiNotUniform, lambda: validate(antilex(0, OMEGA, prelude=(Finite(2),), period=(Finite(3),)))),
    (NextNotFixedLength, lambda: validate(next_(0, 3, period=(Finite(2),)))),
    (ElementMismatch, lambda: encode(lex(0, OMEGA, period=(UINT8,)), [1, "x"])),
    (NaNRejected, lambda: encode(FLOAT64, math.nan)),
    (PackedModeUnavailable, lambda: encode(lex(0, OMEGA, period=(UINT8,)), [1], mode="packed")),
]


@pytest.mark.parametrize("cls, call", FAILING_CALLS, ids=[cls.__name__ for cls, _ in FAILING_CALLS])
def test_errors_survive_pickling(cls, call):
    """Errors cross process boundaries: same class, message and attributes after a round trip."""
    with pytest.raises(cls) as info:
        call()
    error = info.value
    clone = pickle.loads(pickle.dumps(error))
    assert type(clone) is type(error) is cls
    assert str(clone) == str(error) and clone.args == error.args
    assert vars(clone) == vars(error)
