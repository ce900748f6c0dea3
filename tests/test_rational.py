"""Continued fractions and rational keys."""

import math
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from tsokey import (
    RATIONAL,
    Builtin,
    BuiltinKind,
    Ordering,
    ZeroDenominator,
    compare_keys,
    continued_fraction,
    encode,
    rational_key,
    wrap_finite_leaf,
)

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
        value = Fraction(terms[-1])
        for term in reversed(terms[:-1]):
            value = term + 1 / value
        assert value == Fraction(p, q)
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
