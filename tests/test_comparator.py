"""Oracle comparator semantics for every operator."""

import functools
import math
import random
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from tsokey import (
    BYTES,
    FLOAT32,
    FLOAT64,
    INT8,
    OMEGA,
    UINT8,
    AntiNotUniform,
    Builtin,
    BuiltinKind,
    ElementError,
    Finite,
    IncompatibleElements,
    MalformedNode,
    Ordering,
    PeriodMissing,
    SeqKind,
    SeqOp,
    anticontrehierar,
    anticontrelex,
    antihierar,
    antilex,
    check_element,
    compare,
    contrehierar,
    contrelex,
    find_question,
    finite,
    hierar,
    inv,
    item_order_at,
    lex,
    next_,
    parse,
    sum_of,
)
from tsokey.randgen import random_pair, random_tree

from helpers import elements

BITS = [[], [0], [1], [0, 0], [0, 1], [1, 0], [1, 1]]


def ordered(tree, candidates):
    key = functools.cmp_to_key(lambda a, b: compare(tree, a, b))
    return sorted(candidates, key=key)


def bit_seq(make):
    return make(0, 3, period=(finite(2),))


class TestSequenceKinds:
    def test_lex_prefers_the_question_then_shorter(self):
        expected = [[], [0], [0, 0], [0, 1], [1], [1, 0], [1, 1]]
        assert ordered(bit_seq(lex), BITS) == expected

    def test_contrelex_prefers_the_question_then_longer(self):
        expected = [[0, 0], [0, 1], [0], [1, 0], [1, 1], [1], []]
        assert ordered(bit_seq(contrelex), BITS) == expected

    def test_hierar_prefers_shorter_then_the_question(self):
        expected = [[], [0], [1], [0, 0], [0, 1], [1, 0], [1, 1]]
        assert ordered(bit_seq(hierar), BITS) == expected

    def test_contrehierar_prefers_longer_then_the_question(self):
        expected = [[0, 0], [0, 1], [1, 0], [1, 1], [0], [1], []]
        assert ordered(bit_seq(contrehierar), BITS) == expected

    def test_next_is_plain_product_order(self):
        tree = next_(2, 3, period=(finite(2),))
        pairs = [[0, 0], [0, 1], [1, 0], [1, 1]]
        assert ordered(tree, list(reversed(pairs))) == pairs

    @pytest.mark.parametrize(
        "anti, plain",
        [
            (antilex, lex),
            (anticontrelex, contrelex),
            (antihierar, hierar),
            (anticontrehierar, contrehierar),
        ],
    )
    def test_anti_kinds_read_items_from_the_right(self, anti, plain):
        anti_tree = anti(0, 3, period=(finite(2),))
        plain_tree = plain(0, 3, period=(finite(2),))
        for x in BITS:
            for y in BITS:
                assert compare(anti_tree, x, y) is compare(plain_tree, x[::-1], y[::-1])

    def test_prelude_orders_apply_before_the_period(self):
        tree = lex(0, OMEGA, prelude=(finite(2, (1, 0)),), period=(finite(2),))
        assert compare(tree, [0], [1]) is Ordering.GREATER
        assert compare(tree, [0, 0], [0, 1]) is Ordering.LESS

    def test_length_outside_bounds_rejected(self):
        tree = lex(1, 3, period=(finite(2),))
        with pytest.raises(IncompatibleElements):
            compare(tree, [], [0])
        with pytest.raises(IncompatibleElements):
            compare(tree, [0], [0, 0, 0])


class TestFindQuestion:
    def test_smallest_differing_rank(self):
        tree = bit_seq(lex)
        assert find_question(tree, [0, 1], [0, 0]) == 1
        assert find_question(tree, [1], [0, 1]) == 0

    def test_prefix_pairs_have_no_question(self):
        tree = bit_seq(lex)
        assert find_question(tree, [0], [0, 1]) is None
        assert find_question(tree, [1, 0], [1, 0]) is None

    def test_anti_positions_count_from_the_end(self):
        tree = antilex(0, 4, period=(UINT8,))
        assert compare(tree, [1, 2, 3], [2, 3]) is Ordering.GREATER
        assert find_question(tree, [1, 2, 3], [2, 3]) is None
        assert find_question(tree, [5, 2, 3], [7, 2, 3]) == 2

    def test_anticontrehierar_finds_the_question_before_the_length_rule(self):
        tree = anticontrehierar(0, 4, period=(finite(3),))
        assert find_question(tree, [2, 0, 1], [0, 2, 1]) == 1
        assert compare(tree, [2, 0, 1], [0, 2, 1]) is Ordering.LESS
        # Lengths differ, so longer sorts first whatever the question says.
        assert find_question(tree, [0, 1], [2, 1, 1]) == 1
        assert compare(tree, [0, 1], [2, 1, 1]) is Ordering.GREATER

    def test_the_question_decides_where_the_length_rule_does_not(self):
        # Criterion 2's generator and seed, on the trees whose root is a sequence.
        rng = random.Random(20260818)
        kinds = set()
        questions = 0
        while len(kinds) < len(SeqKind) or questions < 2000:
            tree = random_tree(rng, rng.randrange(0, 6))
            if not isinstance(tree, SeqOp):
                continue
            x, y = random_pair(rng, tree, length_cap=4)
            verdict = compare(tree, x, y)
            length_rule = Ordering((len(x) > len(y)) - (len(x) < len(y)))
            if not tree.kind.shorter_sorts_first:
                length_rule = length_rule.reversed
            position = find_question(tree, x, y)
            if position is None or (tree.kind.is_hierar_family and length_rule):
                assert verdict is length_rule
                continue
            kinds.add(tree.kind)
            questions += 1
            at = -1 - position if tree.kind.is_anti else position
            assert compare(item_order_at(tree, position), x[at], y[at]) is verdict


class TestInvalidTrees:
    """compare and find_question reject the trees that encode rejects."""

    @pytest.mark.parametrize(
        "tree, x, y, error",
        [
            (Finite(3, (0, 0, 1)), 0, 1, MalformedNode),
            (SeqOp(SeqKind.ANTILEX, 0, 3, (), (UINT8, INT8)), [1, 2], [1, 3], AntiNotUniform),
            (SeqOp(SeqKind.LEX, 0, OMEGA, (), ()), [], [], PeriodMissing),
            (lex(0, 3, period=(finite(3, (0, 0, 1)),)), [0], [1], MalformedNode),
        ],
        ids=["repeated-collation", "anti-two-order-period", "unbounded-no-period", "bad-item-order"],
    )
    def test_the_tree_is_validated(self, tree, x, y, error):
        with pytest.raises(error):
            compare(tree, x, y)
        if isinstance(tree, SeqOp):
            with pytest.raises(error):
                find_question(tree, x, y)

    def test_find_question_needs_a_sequence_node(self):
        with pytest.raises(TypeError, match="find_question needs a SeqOp node, got Finite"):
            find_question(finite(2), 0, 1)


class TestMembership:
    """A non-element anywhere in either value is rejected with the plan's message,
    also past the question, where the order rules alone would stop reading."""

    @pytest.mark.parametrize(
        "text, bad, good, message",
        [
            ("next(2, 3, (uint8, bytes))", [1, "not bytes"], [2, b"x"], "$[1]: expected bytes, got str"),
            ("lex(0, omega, ([uint8]))", [1, 300], [1], "$[1]: 300 outside uint8 range"),
            ("sum(finite(2), (float32, uint8))", (0, 1e300), (1, 0), "$.case(0): 1e+300 does not fit in float32"),
            ("hierar(0, omega, ([uint8]))", [300], [1, 2], "$[0]: 300 outside uint8 range"),
            ("lex(0, omega, ([float64]))", [0.0, math.nan], [1.0], "$[1]: NaN needs the nan_high policy"),
        ],
        ids=["next-past-question", "lex-past-question", "sum-past-master", "hierar-past-length", "nan-past-question"],
    )
    def test_non_element_past_the_question(self, text, bad, good, message):
        tree = parse(text)
        with pytest.raises(ElementError) as info:
            check_element(tree, bad)
        assert str(info.value) == message
        runs = [lambda: compare(tree, bad, good), lambda: compare(tree, good, bad)]
        if isinstance(tree, SeqOp):
            runs += [lambda: find_question(tree, bad, good), lambda: find_question(tree, good, bad)]
        for run in runs:
            with pytest.raises(IncompatibleElements) as info:
                run()
            assert str(info.value) == message


class TestLeaves:
    def test_finite_collation_reorders_the_ranks(self):
        tree = finite(3, (2, 0, 1))
        assert ordered(tree, [0, 1, 2]) == [1, 2, 0]

    def test_inverted_builtin_descends(self):
        tree = Builtin(BuiltinKind.UINT8, None, True)
        assert compare(tree, 1, 2) is Ordering.GREATER

    def test_inv_node_swaps_the_verdict(self):
        tree = bit_seq(lex)
        assert compare(inv(tree), [0], [1]) is compare(tree, [1], [0])

    def test_bytes_collation(self):
        table = list(range(256))
        table[ord("a")], table[ord("b")] = table[ord("b")], table[ord("a")]
        tree = Builtin(BuiltinKind.BYTES, tuple(table))
        assert compare(tree, b"a", b"b") is Ordering.GREATER
        assert compare(tree, b"a", b"ab") is Ordering.LESS

    def test_bool_values_compare_as_ranks(self):
        assert compare(finite(2), False, 1) is Ordering.LESS
        assert compare(Builtin(BuiltinKind.BOOL), True, True) is Ordering.EQUAL


class TestFloats:
    def test_negative_zero_sorts_below_positive_zero(self):
        assert compare(FLOAT64, -0.0, 0.0) is Ordering.LESS
        assert compare(FLOAT64, 0.0, -0.0) is Ordering.GREATER

    def test_float32_leaf_rounds_before_comparing(self):
        rounded = float.fromhex("0x1.99999ap-4")  # 0.1 as float32
        assert compare(FLOAT32, 0.1, rounded) is Ordering.EQUAL
        assert compare(FLOAT64, 0.1, rounded) is Ordering.LESS

    def test_float32_overflow_is_incompatible(self):
        with pytest.raises(IncompatibleElements):
            compare(FLOAT32, 1e300, 0.0)

    def test_nan_rejected_without_the_policy(self):
        with pytest.raises(IncompatibleElements):
            compare(FLOAT64, math.nan, 0.0)

    def test_nan_high_puts_nan_above_infinity(self):
        assert compare(FLOAT64, math.nan, math.inf, nan_high=True) is Ordering.GREATER
        assert compare(FLOAT64, math.nan, math.nan, nan_high=True) is Ordering.EQUAL

    def test_ints_accepted_on_float_leaves(self):
        assert compare(FLOAT64, 1, 1.0) is Ordering.EQUAL


class TestRationals:
    def test_fraction_order(self):
        tree = Builtin(BuiltinKind.RATIONAL)
        assert compare(tree, (1, 3), (1, 2)) is Ordering.LESS
        assert compare(tree, (-1, 2), (-1, 3)) is Ordering.LESS

    def test_unreduced_spellings_are_equal(self):
        tree = Builtin(BuiltinKind.RATIONAL)
        assert compare(tree, (2, 4), Fraction(1, 2)) is Ordering.EQUAL
        assert compare(tree, 3, (6, 2)) is Ordering.EQUAL


class TestSum:
    def test_master_decides_before_the_case(self):
        tree = sum_of(finite(2), (UINT8, BYTES))
        assert compare(tree, (0, 200), (1, b"")) is Ordering.LESS
        assert compare(tree, (1, b"a"), (1, b"b")) is Ordering.LESS

    def test_collated_master(self):
        tree = sum_of(finite(2, (1, 0)), (finite(2), finite(2)))
        assert compare(tree, (0, 0), (1, 1)) is Ordering.GREATER

    def test_bad_pairs_rejected(self):
        tree = sum_of(finite(2), (finite(2), finite(2)))
        with pytest.raises(IncompatibleElements):
            compare(tree, (2, 0), (0, 0))
        with pytest.raises(IncompatibleElements):
            compare(tree, 0, (0, 0))


@given(st.integers(0, 2**32 - 1))
def test_compare_is_antisymmetric_and_reflexive(seed):
    rng = random.Random(seed)
    tree = random_tree(rng, rng.randrange(0, 4))
    x, y = random_pair(rng, tree, length_cap=3)
    assert compare(tree, x, x) is Ordering.EQUAL
    assert compare(tree, x, y) is compare(tree, y, x).reversed


@given(st.integers(0, 2**32 - 1))
def test_compare_is_transitive(seed):
    rng = random.Random(seed)
    tree = random_tree(rng, rng.randrange(0, 3))
    pool = [random_pair(rng, tree, length_cap=3)[0] for _ in range(3)]
    verdicts = {}
    for i, x in enumerate(pool):
        for j, y in enumerate(pool):
            verdicts[i, j] = compare(tree, x, y)
    for i in range(3):
        for j in range(3):
            for k in range(3):
                if verdicts[i, j] is not Ordering.GREATER and verdicts[j, k] is not Ordering.GREATER:
                    assert verdicts[i, k] is not Ordering.GREATER
