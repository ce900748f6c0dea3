"""Order definition text: parsing, serializing, and positioned errors."""

import random
import sys

import pytest
from hypothesis import given
from hypothesis import strategies as st

from tsokey import (
    OMEGA,
    Builtin,
    BuiltinKind,
    Finite,
    Inv,
    PeriodMissing,
    SeqKind,
    SeqOp,
    Sum,
    TsodlSyntaxError,
    ValidationError,
    parse,
    push_inv_to_leaves,
    serialize,
)
from tsokey.randgen import random_tree


class TestParse:
    def test_finite(self):
        assert parse("finite(2)") == Finite(2)
        assert parse("finite(4, collation=02000103)") == Finite(4, (2, 0, 1, 3))

    def test_builtin_leaves(self):
        assert parse("uint8") == Builtin(BuiltinKind.UINT8)
        assert parse("rational desc") == Builtin(BuiltinKind.RATIONAL, None, True)
        assert parse("float64  DESC") == Builtin(BuiltinKind.FLOAT64, None, True)

    def test_named_collations_mean_identity(self):
        assert parse("bytes(collation=ascii)") == Builtin(BuiltinKind.BYTES)
        assert parse("bytes(collation=identity)") == Builtin(BuiltinKind.BYTES)

    def test_inline_byte_collation(self):
        table = bytes(range(256))
        tree = parse(f"bytes(collation={table.hex()})")
        assert tree == Builtin(BuiltinKind.BYTES, tuple(range(256)))

    def test_seqop_prelude_and_period(self):
        tree = parse("hierar(1, 4, (finite(3) [finite(2), bool]))")
        assert tree == SeqOp(
            SeqKind.HIERAR,
            1,
            4,
            (Finite(3),),
            (Finite(2), Builtin(BuiltinKind.BOOL)),
        )

    def test_unbounded_seqop(self):
        tree = parse("lex(0, omega, ([finite(2)]))")
        assert tree == SeqOp(SeqKind.LEX, 0, OMEGA, (), (Finite(2),))

    def test_prelude_only_seqop(self):
        tree = parse("next(2, 3, (uint8, int16))")
        assert tree == SeqOp(SeqKind.NEXT, 2, 3, (Builtin(BuiltinKind.UINT8), Builtin(BuiltinKind.INT16)), ())

    def test_sum(self):
        tree = parse("sum(finite(2), (uint8, rational desc))")
        assert tree == Sum(
            Finite(2),
            (Builtin(BuiltinKind.UINT8), Builtin(BuiltinKind.RATIONAL, None, True)),
        )

    def test_inv_folds_into_builtin_leaves(self):
        assert parse("inv(uint8)") == Builtin(BuiltinKind.UINT8, None, True)
        assert parse("inv(uint8 desc)") == Builtin(BuiltinKind.UINT8)
        assert parse("inv(finite(2))") == Inv(Finite(2))

    def test_keywords_are_case_insensitive(self):
        assert parse("LEX(0, OMEGA, ([FINITE(2)]))") == parse("lex(0, omega, ([finite(2)]))")

    def test_comments_and_whitespace(self):
        text = """
        // order for the request log
        contrelex(0, omega, (  // prelude is empty
            [bytes]
        ))
        """
        assert parse(text) == SeqOp(
            SeqKind.CONTRELEX, 0, OMEGA, (), (Builtin(BuiltinKind.BYTES),)
        )

    def test_parse_validates_the_tree(self):
        with pytest.raises(PeriodMissing):
            parse("lex(0, omega, ())")
        with pytest.raises(ValidationError):
            parse("antilex(0, 3, (finite(2) [finite(2)]))")


class TestSyntaxErrors:
    @pytest.mark.parametrize(
        "text, line, column, expected_word",
        [
            ("lex(0, 3)", 1, 9, "','"),
            ("finite()", 1, 8, "a cardinality"),
            ("finite(1_000)", 1, 8, "a cardinality"),
            ("", 1, 1, "an order node"),
            ("finite(2) finite(2)", 1, 11, "end of input"),
            ("uint8(collation=ff)", 1, 6, "'desc'"),
            ("bytes(collation=0001)", 1, 17, "a 256-entry hex byte table"),
            ("finite(2", 1, 9, "')'"),
            ("lex(0, omega,\n    [bytes])", 2, 5, "'('"),
            ("sum(uint8, (finite(2)))", 1, 5, "'finite'"),
            ("widget(2)", 1, 1, "an order node"),
            ("\nwidget(2)", 2, 1, "an order node"),
            ("finite(3, collation=zz)", 1, 21, "a hex byte table"),
        ],
    )
    def test_positions_and_expectations(self, text, line, column, expected_word):
        with pytest.raises(TsodlSyntaxError) as excinfo:
            parse(text)
        error = excinfo.value
        assert error.span.line == line
        assert error.span.column == column
        assert expected_word in error.expected
        assert str(error).startswith(f"{line}:{column}: expected ")

    def test_nesting_bound(self):
        assert parse("inv(" * 99 + "uint8" + ")" * 99) == Builtin(BuiltinKind.UINT8, None, True)
        # The bound is on nesting, not on nodes read: both leaves sit 99 deep.
        parse("inv(" * 97 + "next(2, 3, (uint8, uint8))" + ")" * 97)
        with pytest.raises(TsodlSyntaxError) as excinfo:
            parse("inv(" * 100 + "uint8" + ")" * 100)
        assert excinfo.value.span.column == 401
        assert excinfo.value.found == "'uint8'"

    def test_unexpected_character(self):
        with pytest.raises(TsodlSyntaxError) as excinfo:
            parse("finite(2)$")
        assert excinfo.value.span.column == 10
        assert "character" in excinfo.value.found


# The interpreter's cap on the digits int() reads (0: no cap, as before 3.10.7).
_INT_DIGIT_LIMIT = getattr(sys, "get_int_max_str_digits", lambda: 0)()


@pytest.mark.skipif(_INT_DIGIT_LIMIT == 0, reason="this interpreter reads integers of any length")
class TestIntegerPastTheDigitLimit:
    @pytest.mark.parametrize(
        "before, after, line, column, what",
        [
            ("finite(", ")", 1, 8, "a cardinality"),
            ("// a comment\nlex(0, ", ", ([uint8]))", 2, 8, "a maximum length or 'omega'"),
        ],
        ids=["cardinality", "lex-length-bound"],
    )
    def test_is_a_positioned_syntax_error(self, before, after, line, column, what):
        digits = "1" * (_INT_DIGIT_LIMIT + 1)
        with pytest.raises(TsodlSyntaxError) as excinfo:
            parse(before + digits + after)
        error = excinfo.value
        assert (error.span.line, error.span.column) == (line, column)
        assert error.expected == what
        assert error.found == f"an integer of {len(digits)} digits (more than {_INT_DIGIT_LIMIT})"
        assert str(error).startswith(f"{line}:{column}: expected {what}, found ")


class TestSerialize:
    @pytest.mark.parametrize(
        "text",
        [
            "finite(2)",
            "finite(4, collation=02000103)",
            "uint8",
            "rational desc",
            "lex(0, omega, ([finite(2)]))",
            "contrelex(1, 5, (uint8 [int32 desc]))",
            "hierar(1, 4, (finite(3) [finite(2), bool]))",
            "next(2, 3, (uint8, int16))",
            "sum(finite(2), (uint8, rational desc))",
            "inv(lex(0, 5, ([bytes])))",
            "anticontrehierar(0, 3, ([float64 desc]))",
            f"bytes(collation={bytes(range(255, -1, -1)).hex()}) desc",
        ],
    )
    def test_canonical_text_round_trips_verbatim(self, text):
        assert serialize(parse(text)) == text

    def test_normalizes_case_and_spacing(self):
        assert serialize(parse("LEX( 0 ,OMEGA,( [ FINITE(2) ] ) )")) == "lex(0, omega, ([finite(2)]))"

    def test_desc_sugar_is_canonical_for_inverted_leaves(self):
        assert serialize(Builtin(BuiltinKind.UINT8, None, True)) == "uint8 desc"
        assert serialize(Inv(Builtin(BuiltinKind.UINT8))) == "uint8 desc"
        assert serialize(Inv(Finite(2))) == "inv(finite(2))"

    def test_rejects_non_nodes(self):
        with pytest.raises(TypeError):
            serialize("finite(2)")

    @pytest.mark.parametrize("cardinality", [3, 300, 2**64])
    def test_a_pushed_finite_leaf_round_trips(self, cardinality):
        pushed = push_inv_to_leaves(Inv(Finite(cardinality)))
        text = serialize(pushed)
        assert text == f"inv(finite({cardinality}))"
        assert push_inv_to_leaves(parse(text)) == pushed
        assert serialize(Inv(pushed)) == f"finite({cardinality})"

    def test_a_rank_above_255_has_no_spelling(self):
        pushed = push_inv_to_leaves(Inv(Sum(Finite(300), (Builtin(BuiltinKind.UINT8),) * 300)))
        with pytest.raises(ValueError):
            serialize(pushed)


@given(st.integers(0, 2**32 - 1))
def test_round_trip_fixpoint_on_random_trees(seed):
    rng = random.Random(seed)
    tree = random_tree(rng, rng.randrange(0, 5))
    text = serialize(tree)
    # not always equal to tree: inv over a builtin leaf normalizes to desc
    assert serialize(parse(text)) == text
