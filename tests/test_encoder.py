"""Key encoding: building blocks, frozen vectors, and oracle agreement."""

import hashlib
import json
import math
import random
import struct
from itertools import product

import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

from tsokey import (
    BOOL,
    BYTES,
    FLOAT32,
    FLOAT64,
    INT8,
    OMEGA,
    UINT8,
    UINT16,
    Builtin,
    BuiltinKind,
    CounterOverflow,
    CounterUnderflow,
    CountTooLarge,
    DepthOverflow,
    DomainError,
    ElementMismatch,
    Finite,
    IncompatibleElements,
    NaNRejected,
    Ordering,
    PackedModeUnavailable,
    PrefixAnomaly,
    SeqKind,
    SeqOp,
    Sum,
    TsokeyError,
    anticontrehierar,
    anticontrelex,
    antihierar,
    antilex,
    check_element,
    compare,
    compare_keys,
    contrehierar,
    contrelex,
    data_byte_count,
    empty_sequence_pattern,
    encode,
    encode_batch,
    encode_doc,
    finite,
    hierar,
    hierar_count_header,
    inv,
    lex,
    next_,
    parse,
    prepare,
    primitive_key,
    sum_of,
    validate,
    wrap_finite_leaf,
)
from tsokey import encoder
from tsokey.encoder import _count_header_unbounded, _ending_values
from tsokey.order_model import KIND_TABLE
from tsokey.randgen import random_element, random_pair, random_tree

from helpers import assert_keys_match_oracle, elements, to_doc

F2 = finite(2)


class TestWrapping:
    def test_every_data_byte_gets_a_padding_triple(self):
        assert wrap_finite_leaf(b"\x61") == bytes.fromhex("f061e0")
        assert wrap_finite_leaf(b"\x61\x62") == bytes.fromhex("f061f0f062e0")

    def test_empty_data_rejected(self):
        with pytest.raises(ValueError):
            wrap_finite_leaf(b"")

    def test_empty_sequence_markers(self):
        assert empty_sequence_pattern(SeqKind.LEX, 0) == bytes.fromhex("0000f0")
        assert empty_sequence_pattern(SeqKind.LEX, 2) == bytes.fromhex("2000f0")
        assert empty_sequence_pattern(SeqKind.NEXT, 0) == bytes.fromhex("0000f0")
        assert empty_sequence_pattern(SeqKind.CONTRELEX, 0) == bytes.fromhex("ff00f0")
        assert empty_sequence_pattern(SeqKind.CONTRELEX, 3) == bytes.fromhex("fc00f0")
        assert empty_sequence_pattern(SeqKind.ANTICONTRELEX, 1) == bytes.fromhex("fe00f0")

    def test_marker_depth_is_bounded(self):
        with pytest.raises(DepthOverflow):
            empty_sequence_pattern(SeqKind.LEX, 15)


class TestEndingValues:
    def test_no_enclosing_marks(self):
        assert _ending_values(0xE0, ()) == (0xE0,)

    def test_lex_chain_decrements_the_high_nibble(self):
        assert _ending_values(0xE0, ("L", "L")) == (0xE0, 0xD0, 0xC0)

    def test_contrelex_chain_climbs_just_above_the_base(self):
        assert _ending_values(0xE0, ("C", "C")) == (0xE0, 0xE1, 0xE2)

    def test_contrelex_after_lex_stays_inside_the_gap(self):
        assert _ending_values(0xE0, ("L", "C")) == (0xE0, 0xD0, 0xD1)

    def test_lex_after_contrelex_lands_between_base_and_mark(self):
        assert _ending_values(0xE0, ("C", "L")) == (0xE0, 0xE2, 0xE1)

    def test_alternating_chain_bisects(self):
        assert _ending_values(0xE0, ("C", "L", "C")) == (0xE0, 0xE3, 0xE1, 0xE2)

    def test_budget_bounds(self):
        full = _ending_values(0xE0, ("L",) * 14)
        assert full[-1] == 0x00
        with pytest.raises(CounterUnderflow):
            _ending_values(0xE0, ("L",) * 15)
        assert _ending_values(0xF0, ("C",) * 15)[-1] == 0xFF
        with pytest.raises(CounterOverflow):
            _ending_values(0xF0, ("C",) * 16)

    def test_every_chain_up_to_sixteen_marks_is_pinned(self):
        # SHA-256 over each base, chain and table (or exception class and
        # message), as the bisection over Fractions computed them before the
        # insertion rule replaced it: 262,142 chains.
        digest = hashlib.sha256()
        for base in (0xE0, 0xF0):
            for length in range(17):
                for kinds in product("LC", repeat=length):
                    try:
                        shown = bytes(_ending_values.__wrapped__(base, kinds)).hex()
                    except TsokeyError as exc:
                        shown = f"{type(exc).__name__}: {exc}"
                    digest.update(f"{base:02x} {''.join(kinds)} {shown}\n".encode())
        assert digest.hexdigest() == "312d24d97fd1fdc37cf86fd0aa0d378129348680aa0fff033a9bd8f259130552"

    @given(
        st.lists(st.sampled_from("LC"), max_size=10).map(tuple),
        st.sampled_from([0xE0, 0xF0]),
    )
    def test_values_are_distinct_and_order_consistent(self, kinds, base):
        values = _ending_values(base, kinds)
        assert len(set(values)) == len(values)
        # a key that stops before an L-node end sorts above everything that
        # ends it; stopping before a C-node end sorts below
        for level, kind in enumerate(kinds):
            before = values[level]
            after = values[level + 1 :]
            if kind == "L":
                assert all(v < before for v in after)
            else:
                assert all(v > before for v in after)


class TestFrozenKeys:
    """Whole-key byte vectors, pinned."""

    def test_finite_leaf(self):
        assert encode(finite(5), 3) == bytes.fromhex("f003e0")

    def test_bytes_leaf(self):
        assert encode(BYTES, b"ab") == bytes.fromhex("f061e0f062d0")
        assert encode(BYTES, b"") == bytes.fromhex("0000f0")

    def test_contrelex_endings(self):
        tree = contrelex(0, 3, period=(finite(256),))
        assert encode(tree, [0x61]) == bytes.fromhex("f061e1")
        assert encode(tree, [0x61, 0x62]) == bytes.fromhex("f061e0f062e1")
        assert encode(tree, []) == bytes.fromhex("ff00f0")

    def test_nested_empty_markers(self):
        tree = lex(0, 3, period=(lex(0, 3, period=(F2,)),))
        assert encode(tree, []) == bytes.fromhex("0000f0")
        assert encode(tree, [[]]) == bytes.fromhex("1000e0")
        ctree = contrelex(0, 3, period=(contrelex(0, 3, period=(F2,)),))
        assert encode(ctree, [[]]) == bytes.fromhex("fe00f1")

    def test_hierar_count_header_is_wrapped(self):
        tree = hierar(0, 3, period=(F2,))
        assert encode(tree, []) == bytes.fromhex("f080f0f001f0f000e0")
        assert encode(tree, [1]) == bytes.fromhex("f080f0f001f0f001e0f001e0")

    def test_contrehierar_flips_the_header(self):
        tree = contrehierar(0, 3, period=(F2,))
        assert encode(tree, []) == bytes.fromhex("f07ff0f0fef0f0ffe0")
        assert encode(tree, [1]) == bytes.fromhex("f07ff0f0fef0f0fee0f001e0")

    def test_sum_writes_master_then_case(self):
        tree = sum_of(F2, (F2, finite(3)))
        assert encode(tree, (1, 2)) == bytes.fromhex("f001e0f002e0")
        assert encode(tree, (0, 1)) == bytes.fromhex("f000e0f001e0")

    def test_anti_kinds_write_items_back_to_front(self):
        tree = antilex(0, 3, period=(F2,))
        assert encode(tree, [0, 1]) == bytes.fromhex("f001e0f000d0")

    def test_packed_mode_strips_padding_and_headers(self):
        tree = next_(2, 3, period=(UINT8,))
        assert encode(tree, [7, 8]) == bytes.fromhex("f007e0f008e0")
        assert encode(tree, [7, 8], "packed") == bytes.fromhex("0708")


class TestCompositionRegressions:
    """Shapes where a contrelex end shares its final byte with a lex end."""

    def test_lex_over_contrelex_prefix_pair(self):
        tree = lex(0, 3, period=(contrelex(0, 3, period=(F2,)),))
        x, y = [[0]], [[0, 1]]
        assert encode(tree, x) == bytes.fromhex("f000e1")
        assert encode(tree, y) == bytes.fromhex("f000e0f001e1")
        assert compare(tree, x, y) is Ordering.GREATER
        assert compare_keys(encode(tree, x), encode(tree, y)) is Ordering.GREATER

    def test_contrelex_lex_contrelex_quadruple(self):
        tree = contrelex(0, 3, period=(lex(0, 3, period=(contrelex(0, 3, period=(F2,)),)),))
        x = [[[0]]]
        y1 = [[[0, 0]]]
        y2 = [[[0], [0]]]
        y3 = [[[0]], [[0]]]
        keys = {name: encode(tree, value) for name, value in
                [("x", x), ("y1", y1), ("y2", y2), ("y3", y3)]}
        assert sorted(keys, key=keys.get) == ["y1", "y3", "x", "y2"]
        assert keys["x"] == bytes.fromhex("f000e2")
        assert keys["y1"] == bytes.fromhex("f000e0f000e2")
        assert keys["y2"] == bytes.fromhex("f000e3f000e2")
        assert keys["y3"] == bytes.fromhex("f000e1f000e2")

    @pytest.mark.parametrize("outer", [lex, contrelex, hierar, contrehierar])
    @pytest.mark.parametrize("inner", [lex, contrelex, hierar, contrehierar])
    def test_two_level_nesting_matches_the_oracle(self, outer, inner):
        tree = outer(0, 3, period=(inner(0, 3, period=(F2,)),))
        assert_keys_match_oracle(tree, elements(tree, budget=2))

    @pytest.mark.parametrize("outer", [lex, contrelex])
    @pytest.mark.parametrize("mid", [lex, contrelex])
    @pytest.mark.parametrize("inner", [lex, contrelex])
    def test_three_level_marking_chains_match_the_oracle(self, outer, mid, inner):
        tree = outer(0, 2, period=(mid(0, 2, period=(inner(0, 2, period=(F2,)),)),))
        assert_keys_match_oracle(tree, elements(tree, budget=2))

    @pytest.mark.parametrize(
        "make", [antilex, anticontrelex, antihierar, anticontrehierar]
    )
    def test_anti_over_contrelex_matches_the_oracle(self, make):
        tree = make(0, 3, period=(contrelex(0, 2, period=(F2,)),))
        assert_keys_match_oracle(tree, elements(tree, budget=2))

    def test_prelude_and_period_mix_matches_the_oracle(self):
        tree = lex(
            0,
            4,
            prelude=(contrelex(0, 2, period=(F2,)), F2),
            period=(finite(3),),
        )
        assert_keys_match_oracle(tree, elements(tree, budget=3))

    def test_sum_inside_marking_chain_matches_the_oracle(self):
        tree = contrelex(0, 3, period=(sum_of(F2, (lex(0, 2, period=(F2,)), F2)),))
        assert_keys_match_oracle(tree, elements(tree, budget=2))


class TestPrimitiveKeys:
    @pytest.mark.parametrize(
        "kind, value, expected",
        [
            (BuiltinKind.INT8, -128, "00"),
            (BuiltinKind.INT8, -1, "7f"),
            (BuiltinKind.INT8, 0, "80"),
            (BuiltinKind.INT8, 127, "ff"),
            (BuiltinKind.UINT8, 0, "00"),
            (BuiltinKind.UINT8, 255, "ff"),
            (BuiltinKind.UINT16, 0x1234, "1234"),
            (BuiltinKind.FLOAT64, 1.0, "bff0000000000000"),
            (BuiltinKind.FLOAT64, -2.0, "3fffffffffffffff"),
            (BuiltinKind.FLOAT64, -0.0, "7fffffffffffffff"),
            (BuiltinKind.FLOAT64, 0.0, "8000000000000000"),
            (BuiltinKind.FLOAT32, 1.5, "bfc00000"),
        ],
    )
    def test_frozen_scalars(self, kind, value, expected):
        assert primitive_key(kind, value) == bytes.fromhex(expected)

    def test_uint8_keys_are_monotone(self):
        keys = [primitive_key(BuiltinKind.UINT8, v) for v in range(256)]
        assert keys == sorted(keys)

    def test_int16_keys_are_monotone(self):
        values = list(range(-300, 301)) + [-32768, 32767]
        values.sort()
        keys = [primitive_key(BuiltinKind.INT16, v) for v in values]
        assert keys == sorted(keys)

    def test_float64_keys_follow_the_float_order(self):
        values = [-math.inf, -1e300, -2.0, -0.5, -5e-324, -0.0, 0.0, 5e-324, 0.5, 2.0, math.inf]
        keys = [primitive_key(BuiltinKind.FLOAT64, v) for v in values]
        assert keys == sorted(keys)
        assert len(set(keys)) == len(keys)

    def test_nan_key_sits_above_infinity(self):
        top = primitive_key(BuiltinKind.FLOAT64, math.inf)
        nan = primitive_key(BuiltinKind.FLOAT64, math.nan, nan_high=True)
        assert nan > top
        with pytest.raises(NaNRejected):
            primitive_key(BuiltinKind.FLOAT64, math.nan)

    def test_float32_rounds_through_single_precision(self):
        rounded = struct.unpack(">f", struct.pack(">f", 0.1))[0]
        assert primitive_key(BuiltinKind.FLOAT32, 0.1) == primitive_key(
            BuiltinKind.FLOAT32, rounded
        )

    @pytest.mark.parametrize(
        "kind, value",
        [
            (BuiltinKind.UINT8, 256),
            (BuiltinKind.UINT8, -1),
            (BuiltinKind.UINT8, True),
            (BuiltinKind.INT8, 128),
            (BuiltinKind.FLOAT32, 1e300),
            (BuiltinKind.FLOAT64, "x"),
            (BuiltinKind.BOOL, 1),
            (BuiltinKind.BYTES, b"x"),
        ],
    )
    def test_domain_errors(self, kind, value):
        with pytest.raises(DomainError):
            primitive_key(kind, value)

    @pytest.mark.parametrize("nan_high", [False, True])
    @pytest.mark.parametrize("kind", list(BuiltinKind), ids=lambda kind: kind.value)
    def test_every_kind_gives_the_key_or_fault_of_its_packed_leaf(self, kind, nan_high):
        values = [0, 1, -1, 127, 128, 255, 256, -129, 2**31, -(2**31) - 1, 2**63, 2**64, -(2**64)]
        values += [True, 1.5, -0.0, 1e300, -math.inf, math.nan, "7", None, b"x"]
        if KIND_TABLE[kind].family is None:  # bool, bytes, rational
            with pytest.raises(DomainError, match=f"primitive_key does not handle {kind.value}"):
                primitive_key(kind, 0, nan_high=nan_high)
            return
        for value in values:
            try:
                expected = encode(Builtin(kind), value, "packed", nan_high=nan_high)
            except (ElementMismatch, NaNRejected) as exc:
                with pytest.raises(NaNRejected if isinstance(exc, NaNRejected) else DomainError) as info:
                    primitive_key(kind, value, nan_high=nan_high)
                assert f"$: {info.value}" == str(exc)
            else:
                assert primitive_key(kind, value, nan_high=nan_high) == expected, value


def _bit_string_count_header(n):
    """The count header as first written: the unary prefix built as a bit string."""
    value_len = max(1, (max(n, 1).bit_length() + 7) // 8)
    unary_len = max(1, (value_len.bit_length() + 7) // 8)
    prefix_bits = "1" * unary_len + "0"
    prefix_bits += "0" * (-len(prefix_bits) % 8)
    prefix = int(prefix_bits, 2).to_bytes(len(prefix_bits) // 8, "big")
    return prefix + value_len.to_bytes(unary_len, "big") + n.to_bytes(value_len, "big")


class TestCountHeaders:
    def test_matches_the_bit_string_formula(self):
        # 2**2040 and 2**524288 take two and three bytes of unary prefix.
        wide = [2**64 - 1, 2**64, 2**70, 10**30, 2**2040 - 1, 2**2040, 2**524288]
        for n in [*range(2**16 + 1), *wide]:
            assert _count_header_unbounded(n) == _bit_string_count_header(n), n

    @pytest.mark.parametrize(
        "n, expected",
        [
            (0, "800100"),
            (1, "800101"),
            (51, "800133"),
            (255, "8001ff"),
            (256, "80020100"),
            (2**64 - 1, "8008ffffffffffffffff"),
        ],
    )
    def test_frozen_headers(self, n, expected):
        assert hierar_count_header(n) == bytes.fromhex(expected)

    def test_wide_header_worked_example(self):
        header = _count_header_unbounded(2**400)
        assert header[0] == 0x80
        assert header[1] == 0x33 == 51
        assert header[2:] == (2**400).to_bytes(51, "big")
        assert len(header) == 2 + 51

    def test_headers_are_bytewise_monotone(self):
        previous = hierar_count_header(0)
        for n in range(1, 5000):
            current = hierar_count_header(n)
            assert previous < current
            previous = current

    def test_headers_are_prefix_free_across_width_jumps(self):
        for n in [0, 1, 255, 256, 65535, 65536, 2**24 - 1, 2**24]:
            a = hierar_count_header(n)
            b = hierar_count_header(n + 1)
            assert not a.startswith(b) and not b.startswith(a)

    def test_count_cap(self):
        with pytest.raises(CountTooLarge):
            hierar_count_header(2**64)
        with pytest.raises(CountTooLarge):
            hierar_count_header(-1)


class TestPackedMode:
    def test_packed_needs_a_fixed_length_tree(self):
        with pytest.raises(PackedModeUnavailable):
            encode(lex(0, 3, period=(F2,)), [], "packed")

    def test_packed_key_length(self):
        tree = next_(2, 3, period=(UINT16,))
        assert prepare(tree).packed_ok
        assert len(encode(tree, [1, 2], "packed")) == 4

    def test_variable_trees_do_not_pack(self):
        assert not prepare(lex(0, 3, period=(F2,))).packed_ok
        assert not prepare(BYTES).packed_ok

    def test_sum_cases_pack_to_their_own_width(self):
        tree = sum_of(F2, (UINT8, UINT16))
        assert len(encode(tree, (0, 7), "packed")) == 2
        assert len(encode(tree, (1, 7), "packed")) == 3

    @pytest.mark.parametrize(
        "tree",
        [
            next_(2, 3, period=(F2,)),
            next_(1, 2, prelude=(finite(300),)),
            sum_of(F2, (UINT8, finite(3))),
            next_(2, 3, period=(INT8,)),
        ],
    )
    def test_packed_order_agrees_with_padded(self, tree):
        elems = elements(tree, budget=2)
        padded = [encode(tree, e) for e in elems]
        packed = [encode(tree, e, "packed") for e in elems]
        by_padded = sorted(range(len(elems)), key=padded.__getitem__)
        by_packed = sorted(range(len(elems)), key=packed.__getitem__)
        assert by_padded == by_packed

    def test_prepare_caches_by_tree_value(self):
        tree_a = next_(2, 3, period=(UINT8,))
        tree_b = next_(2, 3, period=(UINT8,))
        assert prepare(tree_a) is prepare(tree_b)


class TestEncodeErrors:
    def test_unknown_mode(self):
        with pytest.raises(ValueError):
            encode(F2, 0, "loose")

    @pytest.mark.parametrize(
        "tree, value",
        [
            (F2, 2),
            (F2, "0"),
            (lex(1, 3, period=(F2,)), []),
            (lex(0, 3, period=(F2,)), [0, 0, 0]),
            (lex(0, 3, period=(F2,)), "00"),
            (sum_of(F2, (F2, F2)), (0,)),
            (UINT8, 300),
        ],
    )
    def test_nonconforming_elements(self, tree, value):
        with pytest.raises(ElementMismatch):
            encode(tree, value)

    def test_nan_policy_is_enforced(self):
        with pytest.raises(NaNRejected):
            encode(FLOAT64, math.nan)
        key = encode(FLOAT64, math.nan, nan_high=True)
        assert compare_keys(key, encode(FLOAT64, math.inf)) is Ordering.GREATER


class TestValidatorsAgree:
    """check_element, encode and compare accept and reject the same values."""

    @pytest.mark.parametrize(
        "tree, bad, good",
        [
            (sum_of(F2, (UINT8, UINT8)), (True, 3), (1, 3)),
            (FLOAT32, 1e300, 1.0),
            (FLOAT64, 10**400, 1.0),
            (BYTES, [97, 98], b"ab"),
            (BYTES, (97, 98), b"ab"),
            (BYTES, memoryview(b"ab"), b"ab"),
            (Finite(3, [2, 0, 1]), 3, 1),
            (Builtin(BuiltinKind.BYTES, list(range(255, -1, -1))), "ab", b"ab"),
        ],
        ids=[
            "bool-master-rank",
            "float32-overflow",
            "float64-huge-int",
            "bytes-list",
            "bytes-tuple",
            "bytes-memoryview",
            "finite-list-collation",
            "bytes-list-collation",
        ],
    )
    def test_all_three_reject(self, tree, bad, good):
        check_element(tree, good)
        encode(tree, good)
        with pytest.raises(ElementMismatch):
            check_element(tree, bad)
        with pytest.raises(ElementMismatch):
            encode(tree, bad)
        with pytest.raises(IncompatibleElements):
            compare(tree, bad, good)

    @pytest.mark.parametrize(
        "tree, bad, message",
        [
            (lex(0, OMEGA, period=(BYTES,)), {b"a", b"b", b"c"}, "expected a sequence, got set"),
            (lex(0, OMEGA, period=(UINT8,)), frozenset({0}), "expected a sequence, got frozenset"),
            (sum_of(F2, (F2, F2)), {0, 1}, "expected a (master_rank, sub) pair"),
            (sum_of(F2, (F2, F2)), frozenset({0, 1}), "expected a (master_rank, sub) pair"),
        ],
        ids=["set-sequence", "frozenset-sequence", "set-sum", "frozenset-sum"],
    )
    def test_unordered_collections_rejected(self, tree, bad, message):
        # Their iteration order can change with the hash seed, so no key is stable.
        for run in (lambda: encode(tree, bad), lambda: check_element(tree, bad)):
            with pytest.raises(ElementMismatch) as info:
                run()
            assert str(info.value) == f"$: {message}"
        with pytest.raises(IncompatibleElements) as info:
            compare(tree, bad, bad)
        assert str(info.value) == f"$: {message}"

    @pytest.mark.parametrize(
        "listed, tupled, values",
        [
            (Finite(3, [2, 0, 1]), Finite(3, (2, 0, 1)), [0, 1, 2]),
            (SeqOp(SeqKind.LEX, 0, OMEGA, [], [UINT8]), lex(0, OMEGA, period=(UINT8,)), [[], [1], [1, 2], [2]]),
            (SeqOp(SeqKind.NEXT, 2, 3, [UINT8, BYTES]), next_(2, 3, (UINT8, BYTES)), [[1, b""], [1, b"a"], [0, b"b"]]),
            (Sum(F2, [UINT8, UINT8]), sum_of(F2, (UINT8, UINT8)), [(0, 5), (1, 3), (1, 4)]),
        ],
        ids=["list-collation", "list-period", "list-prelude", "list-cases"],
    )
    def test_lists_key_and_compare_as_tuples(self, listed, tupled, values):
        assert listed == tupled and hash(listed) == hash(tupled)
        assert [encode(listed, v) for v in values] == [encode(tupled, v) for v in values]
        for x, y in product(values, repeat=2):
            assert compare(listed, x, y) is compare(tupled, x, y)


class TestPaperDefinitions:
    """bytes and bool leaves give the keys of the trees the paper defines them as.

    bytes is lex(0, omega, [finite(256)]) and bool is finite(2); a descending
    leaf is that tree under inv.  Each leaf is checked at the root and as an
    item of lex and contrelex parents, so its end mark lands on every kind of
    ending-value chain.
    """

    PARENTS = [
        (lambda t: t, lambda v: v),
        (lambda t: lex(0, 3, period=(t,)), lambda v: [v, v]),
        (lambda t: contrelex(0, 3, period=(t,)), lambda v: [v, v]),
        (lambda t: contrelex(0, 2, period=(lex(0, 2, period=(t,)),)), lambda v: [[v]]),
        (lambda t: lex(0, 2, period=(contrelex(0, 2, period=(t,)),)), lambda v: [[v]]),
    ]

    @pytest.mark.parametrize("case", range(40))
    def test_bytes_is_lex_of_finite_256(self, case):
        rng = random.Random(case)
        length = rng.randrange(0, 5) if case else 0  # case 0: the empty string
        data = bytes(rng.randrange(256) for _ in range(length))
        collation = None
        if rng.random() < 0.5:
            collation = list(range(256))
            rng.shuffle(collation)
            collation = tuple(collation)
        reference = lex(0, OMEGA, period=(Finite(256, collation),))
        for inverted in (False, True):
            leaf = Builtin(BuiltinKind.BYTES, collation, inverted)
            defined = inv(reference) if inverted else reference
            for make, wrap in self.PARENTS:
                assert encode(make(leaf), wrap(data)) == encode(make(defined), wrap(list(data)))

    @pytest.mark.parametrize("mode", ["padded", "packed"])
    def test_bool_is_finite_2(self, mode):
        parents = [(lambda t: t, lambda v: v), (lambda t: next_(2, 3, period=(t,)), lambda v: [v, v])]
        if mode == "padded":
            parents += self.PARENTS[1:]
        for leaf, defined in [(BOOL, F2), (Builtin(BuiltinKind.BOOL, None, True), inv(F2))]:
            for make, wrap in parents:
                for value in (False, True, 0, 1):
                    got = encode(make(leaf), wrap(value), mode)
                    assert got == encode(make(defined), wrap(int(value)), mode)


class TestInvertedShapes:
    @pytest.mark.parametrize(
        "tree",
        [
            inv(finite(3)),
            inv(UINT8),
            inv(lex(0, 3, period=(F2,))),
            inv(inv(lex(0, 3, period=(F2,)))),
            inv(hierar(0, 3, period=(F2,))),
            inv(sum_of(F2, (F2, finite(3)))),
            lex(0, 3, period=(inv(F2),)),
            contrelex(0, 3, period=(inv(lex(0, 3, period=(F2,))),)),
            inv(BYTES),
            inv(contrelex(0, 3, period=(F2,))),
            inv(lex(0, 3, period=(contrelex(0, 3, period=(F2,)),))),
            inv(anticontrelex(0, 3, period=(F2,))),
            inv(inv(contrelex(0, 3, period=(F2,)))),
        ],
    )
    def test_agrees_with_the_oracle(self, tree):
        assert_keys_match_oracle(tree, elements(tree, budget=2))

    def test_inverted_leaf_stores_the_mirrored_rank(self):
        assert encode(inv(finite(3)), 0) == bytes.fromhex("f002e0")

    def test_inverted_leaf_of_the_largest_cardinality(self):
        n = 2**64
        tree, plain = inv(finite(n)), finite(n)
        validate(tree)
        for rank in (0, 1, 2**63, n - 2, n - 1):
            assert encode(tree, rank) == encode(plain, n - 1 - rank)
        assert compare(tree, 0, n - 1) is Ordering.GREATER


class TestKeyComparison:
    def test_verdicts(self):
        assert compare_keys(b"\xf0\x00", b"\xf0\x00") is Ordering.EQUAL
        assert compare_keys(b"\xf0\x00", b"\xf0\x01") is Ordering.LESS
        assert compare_keys(b"\xf1", b"\xf0\x01") is Ordering.GREATER

    def test_strict_prefixes_are_flagged(self):
        with pytest.raises(PrefixAnomaly):
            compare_keys(b"\xf0", b"\xf0\x00")

    def test_data_byte_count(self):
        assert data_byte_count(encode(BYTES, b"ab")) == 2
        with pytest.raises(ValueError):
            data_byte_count(b"\xf0\x61")


class TestEncodeDoc:
    """The JSON forms of a dataset record, read in the encoder's walk."""

    seq = parse("lex(0, omega, ([uint8]))")

    def test_integer_forms(self):
        tree = parse("uint64")
        assert encode_doc(tree, 7) == encode(tree, 7)
        assert encode_doc(tree, "18446744073709551615") == encode(tree, 2**64 - 1)
        with pytest.raises(ElementMismatch, match="True outside uint64 range"):
            encode_doc(tree, True)
        with pytest.raises(ElementMismatch, match="decimal"):
            encode_doc(tree, "0x10")

    def test_finite_rank_forms(self):
        tree = parse("finite(3)")
        assert encode_doc(tree, "2") == encode(tree, 2)
        with pytest.raises(ElementMismatch, match="bool"):
            encode_doc(tree, True)
        with pytest.raises(ElementMismatch, match="decimal"):
            encode_doc(tree, "two")

    def test_float_forms(self):
        tree = parse("float64")
        assert encode_doc(tree, 1.5) == encode(tree, 1.5)
        assert encode_doc(tree, "2.5e3") == encode(tree, 2500.0)
        assert encode_doc(tree, 2) == encode(tree, 2.0)
        with pytest.raises(ElementMismatch, match="expected a float"):
            encode_doc(tree, [])
        with pytest.raises(ElementMismatch, match="not a number"):
            encode_doc(tree, "one")

    def test_bool_forms(self):
        tree = parse("bool")
        assert encode_doc(tree, True) == encode(tree, True)
        assert encode_doc(tree, 0) == encode(tree, False)
        for doc in ("yes", 1.0, 0.0, 2):
            with pytest.raises(ElementMismatch, match="expected a bool"):
                encode_doc(tree, doc)

    def test_bytes_forms(self):
        tree = parse("bytes")
        assert encode_doc(tree, "ab") == encode(tree, b"ab")
        assert encode_doc(tree, {"hex": "00ff"}) == encode(tree, b"\x00\xff")
        with pytest.raises(ElementMismatch, match="bad hex"):
            encode_doc(tree, {"hex": "0g"})
        with pytest.raises(ElementMismatch, match="expected bytes, got dict"):
            encode_doc(tree, {"hex": "00", "pad": 1})
        with pytest.raises(ElementMismatch, match="not valid Unicode"):
            encode_doc(tree, "\ud800")

    def test_rational_forms(self):
        tree = parse("rational")
        assert encode_doc(tree, {"num": -3, "den": 2}) == encode(tree, (-3, 2))
        assert encode_doc(tree, {"num": "-3", "den": "2"}) == encode(tree, (-3, 2))
        assert encode_doc(tree, "355/113") == encode(tree, (355, 113))
        assert encode_doc(tree, "-7") == encode(tree, -7)
        assert encode_doc(tree, 5) == encode(tree, 5)
        with pytest.raises(ElementMismatch, match="positive"):
            encode_doc(tree, {"num": 1, "den": 0})
        with pytest.raises(ElementMismatch, match="positive"):
            encode_doc(tree, "1/-2")
        with pytest.raises(ElementMismatch, match="rational"):
            encode_doc(tree, "one half")

    @pytest.mark.parametrize(
        "doc, message",
        [
            ({"num": 1.5, "den": 2}, "$.num: expected an integer, got float"),
            ({"num": 1, "den": 2.0}, "$.den: expected an integer, got float"),
            ({"num": True, "den": 2}, "$.num: expected an integer, got bool"),
            ({"num": 1, "den": False}, "$.den: expected an integer, got bool"),
        ],
    )
    def test_rational_members_are_integers(self, doc, message):
        with pytest.raises(ElementMismatch) as info:
            encode_doc(parse("rational"), doc)
        assert str(info.value) == message

    def test_sequence_with_path_in_message(self):
        assert encode_doc(self.seq, [1, 2]) == encode(self.seq, [1, 2])
        with pytest.raises(ElementMismatch, match=r"\$\[1\]"):
            encode_doc(self.seq, [1, "pear"])
        with pytest.raises(ElementMismatch, match="expected an array"):
            encode_doc(self.seq, 3)

    def test_sequence_too_long(self):
        tree = parse("next(2, 3, (uint8, uint8))")
        with pytest.raises(ElementMismatch, match=r"length 3 outside \[2, 3\)"):
            encode_doc(tree, [1, 2, 3])

    def test_sum_forms(self):
        tree = parse("sum(finite(2), (uint8, bool))")
        assert encode_doc(tree, [0, 9]) == encode(tree, (0, 9))
        assert encode_doc(tree, ["1", True]) == encode(tree, (1, True))
        with pytest.raises(ElementMismatch, match=r"\$\.master: rank 2 outside"):
            encode_doc(tree, [2, 0])
        with pytest.raises(ElementMismatch, match="master_rank"):
            encode_doc(tree, {"case": 0})

    def test_inversion_is_transparent(self):
        tree = parse("uint8 desc")
        assert encode_doc(tree, 200) == encode(tree, 200)

    @pytest.mark.parametrize(
        "text, doc",
        [
            # Elements of encode (a mapping has a length, a bool is a rank),
            # never of encode_doc: JSON spells sequences as arrays only.
            ("lex(0, omega, ([uint8]))", {"1": 2}),
            ("sum(finite(2), (uint8, uint8))", {"0": 1, "a": 2}),
            ("finite(2)", True),
            ("bool", 1.0),
            ("rational", [1, 2]),
        ],
    )
    def test_rejects_what_no_spelling_covers(self, text, doc):
        with pytest.raises(ElementMismatch):
            encode_doc(parse(text), doc)


@seed(2)
@settings(max_examples=300, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_encode_doc_reads_every_spelling_of_an_element(draw):
    rng = random.Random(draw)
    tree = random_tree(rng, rng.randrange(0, 5), fixed_only=rng.random() < 0.3)
    value = random_element(rng, tree, length_cap=4)
    doc = to_doc(rng, tree, value)
    assert encode_doc(tree, doc) == encode(tree, value)
    if prepare(tree).packed_ok:
        assert encode_doc(tree, doc, "packed") == encode(tree, value, "packed")


def _nested_list(depth):
    value = []
    for _ in range(depth):
        value = [value]
    return value


_DEEP_LIST = _nested_list(5000)


class TestFaultPaths:
    """Full messages and classes of faults deep in a tree, through every entry."""

    NESTED = parse("lex(0, omega, ([sum(finite(2), (uint8, next(1, 2, ([bytes]))))]))")

    @pytest.mark.parametrize(
        "tree, value, doc, cls, message",
        [
            (NESTED, [(0, 5), (1, [7])], [[0, 5], [1, [7]]], ElementMismatch,
             "$[1].case(1)[0]: expected bytes, got int"),
            (NESTED, [(0, 300)], [[0, 300]], ElementMismatch,
             "$[0].case(0): 300 outside uint8 range"),
            (NESTED, [(1, [b"a"]), (2, 0)], [[1, ["a"]], [2, 0]], ElementMismatch,
             "$[1].master: rank 2 outside 0..1"),
            # Items are encoded back to front; the path names the item's rank.
            (parse("antilex(0, 3, ([uint8]))"), [300, 999], [300, 999], ElementMismatch,
             "$[1]: 999 outside uint8 range"),
            (parse("hierar(0, omega, ([float64]))"), [1.0, math.nan], [1.0, math.nan],
             NaNRejected, "$[1]: NaN needs the nan_high policy"),
            # Values whose repr fails are shown by their type's name.
            (parse("uint8"), _DEEP_LIST, _DEEP_LIST, ElementMismatch, "$: list outside uint8 range"),
            (parse("int64"), 10**5000, 10**5000, ElementMismatch, "$: int outside int64 range"),
            # A repr of up to 200 characters is shown whole.
            (parse("uint8"), b"x" * 197, b"x" * 197, ElementMismatch, f"$: {b'x' * 197!r} outside uint8 range"),
            (parse("uint8"), b"x" * 198, b"x" * 198, ElementMismatch, "$: bytes outside uint8 range"),
        ],
        ids=[
            "bytes-in-case", "uint8-in-case", "master", "anti-rank", "nan-under-hierar",
            "list-too-deep-to-repr", "int-too-long-to-repr", "repr-at-the-limit", "repr-past-the-limit",
        ],
    )
    def test_message_and_class(self, tree, value, doc, cls, message):
        for run in (
            lambda: encode(tree, value),
            lambda: encode_doc(tree, doc),
            lambda: check_element(tree, value),
        ):
            with pytest.raises(cls) as info:
                run()
            assert type(info.value) is cls
            assert str(info.value) == message


def _doc_of(value):
    """The JSON form of an element made of ints, bytes and lists."""
    if isinstance(value, bytes):
        return value.decode("ascii")
    if isinstance(value, list):
        return [_doc_of(item) for item in value]
    return value


class TestLoopShapes:
    """Each item loop a sequence step can compile to, against keys pinned before the loops split.

    One order per shape: a one-order period with no prelude; steps that
    cover every admissible length; a prelude followed by a cycling
    period; the two backward anti loops; and the hierar family, whose
    count headers below 256 come from a table.
    """

    PINNED = {
        "lex(0, omega, ([bytes]))": [
            ([], "0000f0"),
            ([b""], "1000e0"),
            ([b"ab", b"c"], "f061e0f062d0f063c0"),
            ([b"a", b"", b"b"], "f061d01000f0f062c0"),
        ],
        "next(2, 3, (int32 desc, bytes))": [
            ([5, b"a"], "f07ff0f0fff0f0fff0f0fae0f061d0"),
            ([-7, b""], "f080f0f000f0f000f0f006e01000f0"),
        ],
        "lex(0, 3, (uint8 [int16]))": [
            ([], "0000f0"),
            ([3], "f003d0"),
            ([3, -2], "f003e0f07ff0f0fed0"),
        ],
        "lex(0, omega, (uint8 [bytes, int16]))": [
            ([], "0000f0"),
            ([3], "f003d0"),
            ([3, b"x"], "f003e0f078c0"),
            ([3, b"x", -2, b"", 7], "f003e0f078d0f07ff0f0fee01000f0f080f0f007d0"),
        ],
        "antilex(0, 5, ([uint8]))": [
            ([], "0000f0"),
            ([1], "f001d0"),
            ([1, 2, 3], "f003e0f002e0f001d0"),
            ([3, 2, 1, 0], "f000e0f001e0f002e0f003d0"),
        ],
        "anticontrelex(0, 5, ([uint8]))": [
            ([], "ff00f0"),
            ([1], "f001e1"),
            ([1, 2, 3], "f003e0f002e0f001e1"),
            ([3, 2, 1, 0], "f000e0f001e0f002e0f003e1"),
        ],
        "hierar(0, omega, ([int16 desc]))": [
            ([], "f080f0f001f0f000e0"),
            ([1], "f080f0f001f0f001e0f07ff0f0fee0"),
            ([1, -2, 3], "f080f0f001f0f003e0f07ff0f0fee0f080f0f001e0f07ff0f0fce0"),
        ],
        "contrehierar(0, omega, ([int16 desc]))": [
            ([], "f07ff0f0fef0f0ffe0"),
            ([1], "f07ff0f0fef0f0fee0f07ff0f0fee0"),
            ([1, -2, 3], "f07ff0f0fef0f0fce0f07ff0f0fee0f080f0f001e0f07ff0f0fce0"),
        ],
    }

    # One bad item per order, and its rank.
    BAD = {
        "lex(0, omega, ([bytes]))": ([b"a", b"b", 5], 2),
        "next(2, 3, (int32 desc, bytes))": ([5, 7], 1),
        "lex(0, 3, (uint8 [int16]))": ([3, 40000], 1),
        "lex(0, omega, (uint8 [bytes, int16]))": ([3, b"x", -2, b"", 70000], 4),
        "antilex(0, 5, ([uint8]))": ([1, 300, 2], 1),
        "anticontrelex(0, 5, ([uint8]))": ([1, 300, 2], 1),
        "hierar(0, omega, ([int16 desc]))": ([1, -2, 40000], 2),
        "contrehierar(0, omega, ([int16 desc]))": ([1, -2, 40000], 2),
    }

    @pytest.mark.parametrize("text", list(PINNED))
    def test_keys_are_the_pinned_ones(self, text):
        tree = parse(text)
        for value, key in self.PINNED[text]:
            assert encode(tree, value).hex() == key
            assert encode(tree, tuple(value)).hex() == key
            assert encode_doc(tree, _doc_of(value)).hex() == key
            check_element(tree, value)

    @pytest.mark.parametrize("text", list(BAD))
    def test_bad_item_fails_at_its_rank(self, text):
        tree = parse(text)
        value, rank = self.BAD[text]
        for run in (
            lambda: encode(tree, value),
            lambda: encode(tree, tuple(value)),
            lambda: encode_doc(tree, _doc_of(value)),
        ):
            with pytest.raises(ElementMismatch) as info:
                run()
            assert str(info.value).startswith(f"$[{rank}]: ")

    @pytest.mark.parametrize("kind", ["hierar", "contrehierar"])
    @pytest.mark.parametrize("count", [0, 1, 255, 256, 300])
    def test_count_header(self, kind, count):
        tree = parse(f"{kind}(0, omega, ([int16 desc]))")
        header = hierar_count_header(count)
        if kind == "contrehierar":
            header = bytes(255 - byte for byte in header)
        expected = wrap_finite_leaf(header)
        for key in (encode(tree, [0] * count), encode_doc(tree, [0] * count)):
            assert key[: len(expected)] == expected
            assert len(key) == len(expected) + 6 * count


def test_repeated_encode_doc_calls_reuse_one_plan(monkeypatch):
    compiled = []
    compile_plan = encoder._compile
    monkeypatch.setattr(
        encoder, "_compile", lambda *args: compiled.append(args) or compile_plan(*args)
    )
    tree = parse("next(2, 3, (int32 desc, bytes))")
    prepare.cache_clear()
    for doc in ([1, "a"], [2, "b"], [3, "c"]):
        encode_doc(tree, doc)
    assert len(compiled) == 1
    prep = prepare(tree)
    assert list(prep.plans) == [("padded", False, True)]
    assert prep.plan(doc=True) is prep.plans[("padded", False, True)]


class TestBatch:
    def test_encode_batch_matches_encode(self):
        tree = lex(0, 4, period=(finite(3),))
        values = [[], [0], [2, 1], [1, 1, 1]]
        assert encode_batch(tree, values) == [encode(tree, v) for v in values]


@given(st.integers(0, 2**32 - 1))
def test_random_trees_agree_with_the_oracle(seed):
    rng = random.Random(seed)
    tree = random_tree(rng, rng.randrange(0, 5))
    x, y = random_pair(rng, tree, length_cap=4)
    kx = encode(tree, x)
    ky = encode(tree, y)
    assert len(kx) % 3 == 0 and len(ky) % 3 == 0
    assert compare_keys(kx, ky) is compare(tree, x, y)


@given(st.integers(0, 2**32 - 1))
def test_equal_elements_share_one_key(seed):
    rng = random.Random(seed)
    tree = random_tree(rng, rng.randrange(0, 4))
    x, y = random_pair(rng, tree, length_cap=3)
    if compare(tree, x, y) is Ordering.EQUAL:
        assert encode(tree, x) == encode(tree, y)


# Values that are elements of some trees and not of others; the JSON-decoded
# ones are what a JSON Lines reader hands over.
_MISFITS = [json.loads(text) for text in ("[0, 1]", "1.0", "true", '"ab"', "null", '{"hex": "61"}')]
_MISFITS += [[97, 98], memoryview(b"q"), 2**70, math.nan, 1e300, (1, 0), _DEEP_LIST, 10**5000]
_MISFITS += [{1, 2}, frozenset({0})]  # unordered, so neither a sequence nor a sum value


def _mutate(rng, value):
    """Replace the value, or one item somewhere inside it, with a misfit."""
    if isinstance(value, (list, tuple)) and value and rng.random() < 0.6:
        items = list(value)
        index = rng.randrange(len(items))
        items[index] = _mutate(rng, items[index])
        return type(value)(items)
    return rng.choice(_MISFITS)


def _accepts(run):
    try:
        run()
    except TsokeyError:
        return False
    return True


@seed(1)
@settings(max_examples=300, deadline=None)
@given(st.integers(0, 2**32 - 1), st.booleans())
def test_validator_encoder_and_comparator_agree_on_membership(draw, nan_high):
    rng = random.Random(draw)
    tree = random_tree(rng, rng.randrange(0, 4))
    value = good = random_element(rng, tree, length_cap=3)
    if rng.random() < 0.8:
        value = _mutate(rng, value)
    verdicts = (
        _accepts(lambda: check_element(tree, value, nan_high=nan_high)),
        _accepts(lambda: encode(tree, value, nan_high=nan_high)),
        _accepts(lambda: compare(tree, value, value, nan_high=nan_high)),
        _accepts(lambda: compare(tree, value, good, nan_high=nan_high)),
        _accepts(lambda: compare(tree, good, value, nan_high=nan_high)),
    )
    assert len(set(verdicts)) == 1, f"{tree!r} {value!r} {good!r}: check/encode/compare x3 {verdicts}"
