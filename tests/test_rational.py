"""Continued fractions and rational keys."""

import math
import random
import sys
import threading
from fractions import Fraction

import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

from tsokey import (
    RATIONAL,
    Builtin,
    BuiltinKind,
    DomainError,
    ElementMismatch,
    Ordering,
    ZeroDenominator,
    compare_keys,
    continued_fraction,
    encode,
    encode_batch,
    encode_doc,
    parse,
    rational_key,
    wrap_finite_leaf,
)
from tsokey import encoder
from tsokey.encoder import RATIONAL_TAIL, _count_header_unbounded, prepare

from helpers import assert_keys_match_oracle

FLIP = bytes(255 - value for value in range(256))


class TestContinuedFraction:
    @pytest.mark.parametrize(
        "p, q, terms",
        [
            (0, 1, [0]),
            (1, 1, [1]),
            (2, 1, [2]),
            (1, 2, [0, 2]),
            (7, 3, [2, 3]),
            (355, 113, [3, 7, 16]),
            (14, 6, [2, 3]),
        ],
    )
    def test_euclid_expansions(self, p, q, terms):
        assert continued_fraction(p, q) == terms

    def test_zero_denominator(self):
        with pytest.raises(ZeroDenominator):
            continued_fraction(1, 0)

    def test_negative_arguments_rejected(self):
        with pytest.raises(ValueError):
            continued_fraction(-1, 2)
        with pytest.raises(ValueError):
            continued_fraction(1, -2)

    @given(st.integers(0, 10**6), st.integers(1, 10**6))
    def test_expansion_reproduces_the_fraction(self, p, q):
        terms = continued_fraction(p, q)
        assert from_terms(terms) == Fraction(p, q)
        # canonical form: only the first term may be zero, final term >= 2
        assert all(t >= 1 for t in terms[1:])
        if len(terms) > 1:
            assert terms[-1] >= 2


class TestRationalKey:
    def test_frozen_zero(self):
        assert rational_key(0, 1) == bytes.fromhex("0100800100fe")

    def test_unreduced_fractions_share_the_key(self):
        assert rational_key(14, 6) == rational_key(7, 3)
        assert rational_key(-14, 6) == rational_key(-7, 3)

    def test_negative_payload_is_the_flipped_positive_one(self):
        positive = rational_key(7, 3)
        negative = rational_key(-7, 3)
        assert positive[0] == 0x01 and negative[0] == 0x00
        assert negative[1:] == positive[1:].translate(FLIP)

    def test_errors(self):
        with pytest.raises(ZeroDenominator):
            rational_key(1, 0)
        with pytest.raises(ValueError):
            rational_key(1, -3)

    @pytest.mark.parametrize("function", [rational_key, continued_fraction])
    @pytest.mark.parametrize("p, q", [(True, 2), (1, True), (1.5, 2), (1, 2.0), ("1", 2), (1, "2"), (1.0, 0)])
    def test_only_ints_are_arguments(self, function, p, q):
        bad = next(arg for arg in (p, q) if type(arg) is not int)
        with pytest.raises(DomainError) as info:
            function(p, q)
        assert str(info.value) == f"{function.__name__} takes ints, got {type(bad).__name__}"

    def test_exhaustive_small_range_matches_fraction_order(self):
        values = set()
        for p in range(-30, 31):
            for q in range(1, 21):
                if math.gcd(p, q) == 1:
                    values.add(Fraction(p, q))
        ordered = sorted(values)
        keys = [rational_key(f.numerator, f.denominator) for f in ordered]
        assert keys == sorted(keys)
        assert len(set(keys)) == len(keys)

    def test_no_key_is_a_prefix_of_another(self):
        keys = []
        for p in range(-15, 16):
            for q in range(1, 13):
                if math.gcd(p, q) == 1:
                    keys.append(rational_key(p, q))
        for i, a in enumerate(keys):
            for j, b in enumerate(keys):
                if i != j:
                    assert not a.startswith(b)

    @given(
        st.fractions(min_value=-1000, max_value=1000, max_denominator=999),
        st.fractions(min_value=-1000, max_value=1000, max_denominator=999),
    )
    def test_key_order_is_fraction_order(self, x, y):
        kx = rational_key(x.numerator, x.denominator)
        ky = rational_key(y.numerator, y.denominator)
        if x < y:
            assert compare_keys(kx, ky) is Ordering.LESS
        elif x > y:
            assert compare_keys(kx, ky) is Ordering.GREATER
        else:
            assert kx == ky


class TestRationalLeafEncoding:
    def test_key_is_wrapped_leaf_data(self):
        value = Fraction(7, 3)
        assert encode(RATIONAL, value) == wrap_finite_leaf(rational_key(7, 3))

    def test_inverted_leaf_flips_before_wrapping(self):
        tree = Builtin(BuiltinKind.RATIONAL, None, True)
        assert encode(tree, (7, 3)) == wrap_finite_leaf(rational_key(7, 3).translate(FLIP))

    def test_spellings_agree(self):
        assert encode(RATIONAL, (3, 1)) == encode(RATIONAL, 3)
        assert encode(RATIONAL, (10, 4)) == encode(RATIONAL, Fraction(5, 2))


class TestTermsOfAnySize:
    """Continued-fraction terms at or above 2**64 encode like smaller ones."""

    VALUES = [
        2**64 - 1,
        2**64,
        2**70,
        2**70 + 1,
        -(2**70),
        Fraction(1, 2**70),
        Fraction(10**30, 7),
        Fraction(-1, 2**70),
        Fraction(7, 3),
        0,
    ]

    def test_key_order_is_compare_order(self):
        assert_keys_match_oracle(RATIONAL, self.VALUES)

    def test_frozen_keys_on_both_sides_of_2_to_the_64(self):
        assert rational_key(2**64 - 1, 1) == bytes.fromhex("01008008fffffffffffffffffe")
        assert rational_key(2**64, 1) == bytes.fromhex("0100800901" + "00" * 8 + "fe")


def reference_rational_key(p: int, q: int) -> bytes:
    """rational_key spelled out term by term, as key_format.md describes it."""
    terms = continued_fraction(abs(p), q)
    payload = b""
    for rank, term in enumerate(terms):
        unit = b"\x00" + _count_header_unbounded(term)
        payload += unit.translate(FLIP) if rank % 2 else unit
    payload += b"\xfe" if len(terms) % 2 else b"\x01"
    if p < 0:
        return b"\x00" + payload.translate(FLIP)
    return b"\x01" + payload


def reference_leaf(value: Fraction, inverted: bool) -> bytes:
    data = reference_rational_key(value.numerator, value.denominator)
    return wrap_finite_leaf(data.translate(FLIP) if inverted else data)


def from_terms(terms) -> Fraction:
    value = Fraction(terms[-1])
    for term in reversed(terms[:-1]):
        value = term + 1 / value
    return value


# Terms on both sides of the one-byte table (255, 256) and of 2**64.
EDGE_TERMS = (0, 1, 255, 256, 2**64, 2**70)
_POSITIVE = [Fraction(term) for term in EDGE_TERMS] + [
    from_terms([0, 1, 255, 256, 2**64, 2**70, 2]),
    from_terms([2**70, 255, 1, 256]),
    from_terms([255, 2**64]),
    from_terms([0, 256, 1, 255]),
    from_terms([3, 7, 16]),
]
VALUES = _POSITIVE + [-value for value in _POSITIVE if value]


def spellings(value: Fraction, doc: bool):
    """Every way an encode (or encode_doc) caller may write ``value``."""
    p, q = value.numerator, value.denominator
    if doc:
        return [{"num": p, "den": q}, f"{p}/{q}", {"num": str(2 * p), "den": str(2 * q)}]
    return [value, (p, q), (3 * p, 3 * q)] + ([p] if q == 1 else [])


class TestRationalWalkMatchesReference:
    """The table-driven walk against a term-by-term reference."""

    def test_edge_terms_are_in_the_expansions(self):
        for terms in ([0, 1, 255, 256, 2**64, 2**70, 2], [2**70, 255, 1, 256]):
            value = from_terms(terms)
            assert continued_fraction(value.numerator, value.denominator) == terms

    @pytest.mark.parametrize("value", VALUES, ids=str)
    def test_rational_key(self, value):
        p, q = value.numerator, value.denominator
        assert rational_key(p, q) == reference_rational_key(p, q)
        assert rational_key(5 * p, 5 * q) == reference_rational_key(p, q)

    @given(st.integers(-(2**80), 2**80), st.integers(1, 2**72))
    def test_rational_key_on_any_pair(self, p, q):
        assert rational_key(p, q) == reference_rational_key(p, q)

    @seed(7)
    @settings(max_examples=300, deadline=None)
    @given(st.integers(-(2**80) + 1, 2**80 - 1), st.integers(1, 2**72 - 1))
    def test_leaf_plans_on_any_pair(self, p, q):
        value = Fraction(p, q)
        for text, inverted in (("rational", False), ("rational desc", True)):
            expected = reference_leaf(value, inverted)
            for doc in (False, True):
                plan = prepare(parse(text)).plan(doc=doc)
                for spelling in spellings(value, doc):
                    assert plan(spelling) == expected, (text, doc, spelling)

    @pytest.mark.parametrize("text, inverted", [("rational", False), ("rational desc", True)])
    @pytest.mark.parametrize("doc", [False, True])
    def test_leaf_plans(self, text, inverted, doc):
        plan = prepare(parse(text)).plan(doc=doc)
        for value in VALUES:
            expected = reference_leaf(value, inverted)
            for spelling in spellings(value, doc):
                assert plan(spelling) == expected, spelling

    @pytest.mark.parametrize(
        "text, inverted, close",
        [
            ("lex(0, omega, ([rational]))", False, 0xD0),
            ("lex(0, omega, ([rational desc]))", True, 0xD0),
            ("contrelex(0, omega, ([rational]))", False, 0xE1),
            ("contrelex(0, omega, ([rational desc]))", True, 0xE1),
            ("hierar(0, omega, ([rational]))", False, None),
            ("hierar(0, omega, ([rational desc]))", True, None),
        ],
    )
    @pytest.mark.parametrize("doc", [False, True])
    def test_under_sequence_parents(self, text, inverted, close, doc):
        plan = prepare(parse(text)).plan(doc=doc)
        for start in range(len(VALUES)):
            items = VALUES[start : start + 3]
            key = bytearray(b"".join(reference_leaf(value, inverted) for value in items))
            if close is None:
                key[:0] = wrap_finite_leaf(_count_header_unbounded(len(items)))
            else:
                key[-1] = close
            for pick in range(3):
                element = [spellings(value, doc)[pick] for value in items]
                assert plan(element) == key, element
        assert encode_doc(parse(text), [str(value) for value in VALUES]) == encode(parse(text), VALUES)


class TestBadRationals:
    """Exception class and message of each malformed rational, pinned."""

    @pytest.mark.parametrize(
        "doc, value, message",
        [
            (True, "3/0", "$: rational denominator must be positive, got 0"),
            (True, {"num": 1, "den": 0}, "$: rational denominator must be positive, got 0"),
            (True, {"num": True, "den": 2}, "$.num: expected an integer, got bool"),
            (True, {"num": 1, "den": True}, "$.den: expected an integer, got bool"),
            (True, {"num": 1.0, "den": 2}, "$.num: expected an integer, got float"),
            (True, {"num": 1, "den": 2, "x": 0}, "$: expected a Fraction, an int, or a (num, den) pair, got dict"),
            (True, {"num": 1, "den": -2}, "$: rational denominator must be positive, got -2"),
            (False, (True, 2), "$: expected a Fraction, an int, or a (num, den) pair, got tuple"),
            (False, (1, 2.0), "$: expected a Fraction, an int, or a (num, den) pair, got tuple"),
            (False, (1, 2, 3), "$: expected a Fraction, an int, or a (num, den) pair, got tuple"),
            (False, (1, 0), "$: rational denominator must be positive, got 0"),
            (True, "a/b", "$: 'a/b' is not a p/q rational"),
            (True, "3/-4", "$: rational denominator must be positive, got -4"),
            (True, "3/4/5", "$: '3/4/5' is not a p/q rational"),
            (True, "/4", "$: '/4' is not a p/q rational"),
            (True, "3/", "$: '3/' is not a p/q rational"),
            (True, "1_/2", "$: '1_/2' is not a p/q rational"),
            (True, "+-3/4", "$: '+-3/4' is not a p/q rational"),
            (True, "3 4/5", "$: '3 4/5' is not a p/q rational"),
            (True, "", "$: '' is not a p/q rational"),
            (False, (1, -2), "$: rational denominator must be positive, got -2"),
            (True, True, "$: expected a Fraction, an int, or a (num, den) pair, got bool"),
            (False, True, "$: expected a Fraction, an int, or a (num, den) pair, got bool"),
            (True, 1.5, "$: expected a Fraction, an int, or a (num, den) pair, got float"),
            (False, 1.5, "$: expected a Fraction, an int, or a (num, den) pair, got float"),
        ],
    )
    def test_message(self, doc, value, message):
        with pytest.raises(Exception) as info:
            (encode_doc if doc else encode)(RATIONAL, value)
        assert type(info.value) is ElementMismatch
        assert str(info.value) == message

    @pytest.mark.parametrize(
        "value, fraction",
        [
            ({"num": "6", "den": "4"}, Fraction(3, 2)),
            ({"den": 2, "num": 1}, Fraction(1, 2)),
            ({"num": 2**70, "den": 3}, Fraction(2**70, 3)),
            ({"num": -(2**70), "den": 2**64}, Fraction(-64)),
        ],
    )
    def test_a_look_alike_of_the_inline_dict_gets_the_key_of_its_value(self, value, fraction):
        assert encode_doc(RATIONAL, value) == reference_leaf(fraction, False)

    @pytest.mark.parametrize(
        "value, fraction",
        [
            (" 3/4", Fraction(3, 4)),
            (" 3 / 4 ", Fraction(3, 4)),
            ("\t-3/4\n", Fraction(-3, 4)),
            ("+3/4", Fraction(3, 4)),
            ("3/+4", Fraction(3, 4)),
            ("3_0/4", Fraction(30, 4)),
            ("-0/5", Fraction(0)),
            ("3", Fraction(3)),
            ("-7", Fraction(-7)),
        ],
    )
    def test_a_string_spelling_int_accepts_gets_the_key_of_its_value(self, value, fraction):
        assert encode_doc(RATIONAL, value) == reference_leaf(fraction, False)


def _u8(byte: int) -> bytes:
    return wrap_finite_leaf(bytes((byte,)))


class TestTheWalkAtDepth:
    """A rational leaf where its walk's blocks sit deepest in the parent's function:
    inside a prelude rank past min_len, a phase of a two-item period, an anti kind's
    backward loop, and a sum case, each under a sequence that may be empty."""

    @pytest.mark.parametrize("doc", [False, True])
    def test_a_prelude_past_min_len_and_a_two_item_period(self, doc):
        plan = prepare(parse("lex(0, omega, (uint8, rational desc [rational, uint8]))")).plan(doc=doc)
        assert plan([]) == bytes((0x00, 0x00, 0xF0))
        for length in range(1, 6):
            for start in range(len(VALUES)):
                picks = [VALUES[(start + rank) % len(VALUES)] for rank in range(length)]
                element, key = [], bytearray()
                for rank, value in enumerate(picks):
                    place = min(rank, 2 + rank % 2)  # uint8, rational desc, then [rational, uint8]
                    if place in (0, 3):
                        element.append(rank + 7)
                        key += _u8(rank + 7)
                    else:
                        element.append(spellings(value, doc)[start % 3])
                        key += reference_leaf(value, place == 1)
                key[-1] = 0xD0
                assert plan(element) == key, element

    @pytest.mark.parametrize("text, inverted", [("antilex(0, 4, ([rational]))", False), ("antilex(0, 4, ([rational desc]))", True)])
    @pytest.mark.parametrize("doc", [False, True])
    def test_an_anti_kinds_backward_loop(self, text, inverted, doc):
        plan = prepare(parse(text)).plan(doc=doc)
        assert plan([]) == bytes((0x00, 0x00, 0xF0))
        for start in range(len(VALUES)):
            picks = VALUES[start : start + 3]
            key = bytearray(b"".join(reference_leaf(value, inverted) for value in reversed(picks)))
            key[-1] = 0xD0
            assert plan([spellings(value, doc)[start % 3] for value in picks]) == key

    @pytest.mark.parametrize("doc", [False, True])
    def test_a_sum_case_in_a_period(self, doc):
        plan = prepare(parse("contrelex(0, omega, ([sum(finite(2), (rational, rational desc))]))")).plan(doc=doc)
        for start in range(len(VALUES)):
            picks = VALUES[start : start + 3]
            element = [[rank % 2, spellings(value, doc)[rank % 3]] for rank, value in enumerate(picks)]
            key = bytearray()
            for rank, value in enumerate(picks):
                key += _u8(rank % 2) + reference_leaf(value, rank % 2 == 1)
            key[-1] = 0xE1
            assert plan(element) == key, element


# Every pair whose remainder after the first term can sit in a tails table, and more.
SMALL_PAIRS = [(p, q) for q in range(1, 131) for p in range(-130, 131)]


def _tails():
    """The tails tables, plain and bit-flipped."""
    rows = encoder._rational_fragments()
    return rows[0][0][-1], rows[0][1][-1]


def _empty_tails():
    for tails in _tails():
        tails[:] = [None] * len(tails)


def _reference_keys(pairs, inverted=False):
    return [reference_leaf(Fraction(p, q), inverted) for p, q in pairs]


class TestTails:
    """The fragments a walk keeps for the small pairs its first term leaves."""

    @pytest.mark.parametrize("inverted", [False, True])
    @pytest.mark.parametrize("doc", [False, True])
    def test_every_small_pair_at_the_top_and_under_contrelex(self, doc, inverted):
        text = "rational desc" if inverted else "rational"
        top = prepare(parse(text)).plan(doc=doc)
        nested = prepare(parse(f"contrelex(0, omega, ([{text}]))")).plan(doc=doc)
        for (p, q), leaf in zip(SMALL_PAIRS, _reference_keys(SMALL_PAIRS, inverted)):
            value = (f"{p}/{q}" if (p + q) % 2 else {"num": p, "den": q}) if doc else (p, q)
            assert top(value) == leaf, value
            assert nested([value]) == leaf[:-1] + b"\xe1", value

    def test_fill_order_changes_no_key(self):
        plan = prepare(parse("rational")).plan()
        expected = _reference_keys(SMALL_PAIRS)
        for pairs, keys in ((SMALL_PAIRS, expected), (SMALL_PAIRS[::-1], expected[::-1])):
            _empty_tails()
            assert [plan(pair) for pair in pairs] == keys  # the walks fill the tables
            assert [plan(pair) for pair in reversed(pairs)] == keys[::-1]  # every small pair a hit

    def test_each_table_keeps_one_fragment_per_small_pair_and_no_more(self):
        plan = prepare(parse("rational")).plan()
        _empty_tails()
        for p, q in SMALL_PAIRS:
            plan((p, q))
            plan((p * 2**70 + 1, q))
        for tails in _tails():
            kept = [slot for slot, tail in enumerate(tails) if tail is not None]
            assert len(tails) == RATIONAL_TAIL**2
            assert len(kept) == (RATIONAL_TAIL - 1) * (RATIONAL_TAIL - 2) // 2
            assert all(0 < slot % RATIONAL_TAIL < slot // RATIONAL_TAIL for slot in kept)

    @pytest.mark.parametrize("doc", [False, True])
    def test_pairs_with_a_common_factor_share_one_fragment(self, doc):
        plan = prepare(parse("rational")).plan(doc=doc)
        for fill in (SMALL_PAIRS, SMALL_PAIRS[::-1]):  # the reduced pair met first, then last
            _empty_tails()
            keys = [plan(f"{p}/{q}" if doc else (p, q)) for p, q in fill]
            assert keys == _reference_keys(fill)
            for tails in _tails():
                for den in range(2, RATIONAL_TAIL):
                    for num in range(1, den):
                        factor = math.gcd(num, den)
                        reduced = tails[den // factor * RATIONAL_TAIL + num // factor]
                        assert tails[den * RATIONAL_TAIL + num] is reduced is not None, (num, den)
                kept = {id(tail) for tail in tails if tail is not None}
                assert len(kept) == sum(math.gcd(num, den) == 1 for den in range(2, RATIONAL_TAIL) for num in range(1, den))

    def test_four_threads_filling_the_tables_give_the_keys_of_one_thread(self):
        rng = random.Random(11)
        pairs = [(rng.randint(-300, 300), rng.randint(1, 80)) for _ in range(4000)]
        # A tree no other test prepares, so its plan is new; the tables are emptied below.
        tree = parse("next(2, 3, (rational desc, rational))")
        values = [(pairs[rank], pairs[-rank - 1]) for rank in range(len(pairs))]
        expected = [a + b for a, b in zip(_reference_keys(pairs, True), _reference_keys(pairs[::-1]))]
        results = [None] * 4
        start = threading.Barrier(len(results))

        def work(index):
            start.wait()
            results[index] = encode_batch(tree, values[index:] + values[:index])

        _empty_tails()
        saved = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)  # switch threads often, between a miss and its store
        try:
            threads = [threading.Thread(target=work, args=(index,)) for index in range(len(results))]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
                assert not thread.is_alive()
        finally:
            sys.setswitchinterval(saved)
        for index, keys in enumerate(results):
            assert keys == expected[index:] + expected[:index]
