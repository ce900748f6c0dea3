"""Open keys: packed keys whose variable-length tail is written raw.

Open keys are prefixes of each other by design, so these tests compare them
as plain ``bytes``, never through ``compare_keys``.
"""

import json
import random
from itertools import combinations

import pytest

from tsokey import PathStats, compare, encode, encode_doc, parse, prepare
from tsokey.cli import main
from tsokey.comparator import compare_keys
from tsokey.errors import PackedModeUnavailable, PrefixAnomaly
from tsokey.randgen import random_element, random_pair, random_tree

from helpers import _BAD_DOCS, _BAD_ELEMENTS, _outcome, _splice_bad, elements, fixed_throughout, to_doc

SCORE_NAME = "next(2, 3, (int32 desc, bytes))"

OPEN = [
    "lex(0, omega, ([uint16]))",
    "next(2, 3, (uint8, bytes))",
    "sum(finite(2), (finite(1), bytes))",
    "next(2, 3, (uint8, lex(0, omega, ([uint16]))))",
    SCORE_NAME,
    "bytes",
    "next(2, 3, (uint8, uint16))",
    "next(2, 3, (uint8 [bytes]))",  # the period's one use is the last rank
    "next(1, 2, (uint8 [bytes]))",  # no rank uses the period: fixed-length
    "next(0, 1, ([bytes]))",
]

NOT_OPEN = [
    "bytes desc",
    "contrelex(0, omega, ([uint8]))",
    "hierar(0, omega, ([uint8]))",
    "rational",
    "next(2, 3, (bytes, uint8))",  # the variable item is not last
    "inv(next(2, 3, (uint8, bytes)))",
    "antilex(0, 3, ([uint8]))",
    "lex(0, omega, ([bytes]))",  # an item of variable length
    "lex(0, omega, ([next(0, 1, ())]))",  # an item no byte wide: [] and [[]] would share a key
    "lex(0, omega, ([next(1, 2, (next(0, 1, ())))]))",
    "next(3, 4, (uint8 [bytes]))",  # the period repeats the open item before the last rank
    "sum(finite(2), (bytes, bytes desc))",
    # An order that an element does reach has variable length, or the kind is not lex.
    "contrelex(0, 2, (uint8 [bytes]))",
    "hierar(0, 2, (uint8 [bytes]))",
    "lex(0, 3, (uint8 [bytes]))",
]


def _sign(a: bytes, b: bytes) -> int:
    return (a > b) - (a < b)


def _open_trees(count: int):
    """(rng, tree) for each open tree among ``count`` seeded draws of criterion 2's generator."""
    for index in range(count):
        rng = random.Random(f"open:{index}")
        tree = random_tree(rng, rng.randrange(0, 5))
        if prepare(tree).open_ok:
            yield rng, tree


@pytest.mark.parametrize("text", OPEN)
def test_named_orders_are_open(text):
    assert prepare(parse(text)).open_ok


@pytest.mark.parametrize("text", NOT_OPEN)
def test_named_orders_are_not_open(text):
    prepared = prepare(parse(text))
    assert not prepared.open_ok
    with pytest.raises(PackedModeUnavailable, match="tree is not open: its variable-length part"):
        prepared.plan("open")


def test_open_keys_sort_as_padded_keys_and_as_compare():
    """On every open tree: the stable argsort of open keys is that of padded keys, and
    the sign of each sampled open-key comparison is ``compare``'s verdict."""
    variable = 0
    for rng, tree in _open_trees(3000):
        prepared = prepare(tree)
        variable += not prepared.packed_ok
        values = [random_element(rng, tree, length_cap=4) for _ in range(6)]
        values += [value for _ in range(6) for value in random_pair(rng, tree, length_cap=4)]
        padded = list(map(prepared.plan(), values))
        opened = list(map(prepared.plan("open"), values))
        by_padded = sorted(range(len(values)), key=padded.__getitem__)
        assert sorted(range(len(values)), key=opened.__getitem__) == by_padded, tree
        for i, j in combinations(range(len(values)), 2):
            assert _sign(opened[i], opened[j]) == compare(tree, values[i], values[j]), (tree, values[i], values[j])
        if prepared.packed_ok:
            assert opened == list(map(prepared.plan("packed"), values))
    assert variable >= 100


# Fixed-length trees whose variable-length orders sit only at ranks no element reaches.
UNREACHED = {
    "next(1, 2, (uint8 [bytes]))": PathStats(2, 1, 0, False),
    "next(0, 1, ([bytes]))": PathStats(2, 1, 0, False),
    "next(2, 3, (int16, bytes [rational]))": PathStats(2, 1, 0, True),  # open, not packed
    "antilex(0, 1, ([rational]))": PathStats(1, 1, 0, False),
    "next(1, 2, (bool, lex(0, omega, ([bytes desc]))))": PathStats(3, 1, 1, False),
}


@pytest.mark.parametrize("text", sorted(UNREACHED))
def test_an_order_at_no_rank_leaves_the_length_fixed(text):
    """Its shape is not folded in: the tree is packed where every rank's order is fixed-length,
    and the depth and path counts, validation budgets, still charge it."""
    prepared = prepare(parse(text))
    assert prepared.stats == UNREACHED[text]
    assert prepared.packed_ok is not UNREACHED[text].has_variable_length
    assert prepared.open_ok


# Variable-length lex nodes whose orders of variable length sit only at ranks no element
# reaches, each with its ``tsokey validate`` line.
LEX_UNREACHED = {
    "lex(0, 2, (uint8 [bytes]))": "depth=2 lex_path=2 contrelex_path=0",
    "lex(0, 2, (uint8, rational))": "depth=1 lex_path=1 contrelex_path=0",
    "lex(1, 3, (int8 desc, uint16 [bytes desc]))": "depth=2 lex_path=1 contrelex_path=1",
}


@pytest.mark.parametrize("text", sorted(LEX_UNREACHED))
def test_a_lex_of_fixed_width_reached_orders_is_open(text):
    """The open and padded keys of every element (up to length 2 past ``min_len``) give
    one stable argsort, and each pair's open-key sign is ``compare``'s."""
    tree = parse(text)
    prepared = prepare(tree)
    assert prepared.open_ok and not prepared.packed_ok
    values = elements(tree)
    padded, opened = (list(map(prepared.plan(mode), values)) for mode in ("padded", "open"))
    assert sorted(range(len(values)), key=opened.__getitem__) == sorted(range(len(values)), key=padded.__getitem__)
    for i, j in combinations(range(len(values)), 2):
        assert _sign(opened[i], opened[j]) == compare(tree, values[i], values[j]), (values[i], values[j])


def test_an_order_at_no_rank_keeps_the_padded_key():
    assert encode(parse("next(0, 1, ([bytes]))"), []).hex() == "0000f0"
    assert encode(parse("next(1, 2, (uint8 [bytes]))"), [7]).hex() == "f007e0"
    assert encode(parse("next(1, 2, (uint8 [bytes]))"), [7], "packed").hex() == "07"


def _reached_only():
    """(rng, tree) for each tree of the pinned digest's draws that is packed, but only because
    an order no rank uses is not folded in."""
    for index in range(3000):
        rng = random.Random(index)
        tree = random_tree(rng, rng.randrange(0, 5), fixed_only=rng.random() < 0.3)
        if prepare(tree).packed_ok and not fixed_throughout(tree):
            yield rng, tree


def test_packed_keys_of_trees_with_orders_at_no_rank_sort_as_padded_keys():
    trees = [(random.Random(text), parse(text)) for text in UNREACHED] + list(_reached_only())
    assert len(trees) >= 50
    for rng, tree in trees:
        prepared = prepare(tree)
        values = [random_element(rng, tree, length_cap=4) for _ in range(12)] + elements(tree)[:40]
        padded = list(map(prepared.plan(), values))
        opened = list(map(prepared.plan("open"), values))
        assert sorted(range(len(values)), key=opened.__getitem__) == sorted(range(len(values)), key=padded.__getitem__)
        if prepared.packed_ok:
            assert opened == list(map(prepared.plan("packed"), values))
        for value in values:
            bad = _splice_bad(rng, value, _BAD_ELEMENTS)
            want, got = (_outcome(lambda: encode(tree, bad, mode)) for mode in ("padded", "open"))
            if ":" in want or ":" in got:  # a hex key has no colon, a fault has one
                assert got == want, (tree, bad)


# Small trees built from leaves of every shape the open rule tells apart.
_LEAVES = ["uint8", "bytes", "bytes desc", "finite(1)", "next(0, 1, ())", "rational"]
_NODES = [
    "lex(0, omega, ([{a}]))",
    "lex(1, 3, ({a} [{b}]))",
    "next(2, 3, ({a}, {b}))",
    "next(3, 4, ({a} [{b}]))",
    "sum(finite(2), ({a}, {b}))",
    "contrelex(0, omega, ([{a}]))",
    "hierar(0, 3, ([{a}]))",
    "inv({a})",
]


def _small_trees():
    level1 = sorted({node.format(a=a, b=b) for node in _NODES for a in _LEAVES for b in _LEAVES})
    rng = random.Random("open:small")
    pool = _LEAVES + level1
    level2 = {node.format(a=rng.choice(pool), b=rng.choice(level1)) for node in _NODES[:5] for _ in range(60)}
    return level1 + sorted(level2)


def test_small_trees_that_report_open_order_every_pair_as_compare():
    """Each open tree among small trees of every shape: for every pair of its elements (up to
    length 2 past ``min_len``, at most 40 sampled), the open keys' sign is ``compare``'s."""
    rng = random.Random("open:pairs")
    opened = 0
    for text in _small_trees():
        tree = parse(text)
        if not prepare(tree).open_ok:
            continue
        opened += 1
        values = elements(tree)
        values = rng.sample(values, 40) if len(values) > 40 else values
        keys = [encode(tree, value, "open") for value in values]
        for i, j in combinations(range(len(values)), 2):
            assert _sign(keys[i], keys[j]) == compare(tree, values[i], values[j]), (text, values[i], values[j])
    assert opened >= 60


def test_bad_values_fail_alike_in_both_modes():
    """A value or record that one mode refuses, the other refuses with the same class and message."""
    for rng, tree in _open_trees(1500):
        for _ in range(4):
            value = _splice_bad(rng, random_element(rng, tree, length_cap=4), _BAD_ELEMENTS)
            doc = _splice_bad(rng, to_doc(rng, tree, random_element(rng, tree, length_cap=4)), _BAD_DOCS)
            for entry, given in ((encode, value), (encode_doc, doc)):
                for nan_high in (False, True):
                    padded, opened = (
                        _outcome(lambda: entry(tree, given, mode, nan_high=nan_high)) for mode in ("padded", "open")
                    )
                    if ":" in padded or ":" in opened:  # a hex key has no colon, a fault has one
                        assert opened == padded, (tree, given)


def test_json_records_give_the_keys_of_their_elements():
    for rng, tree in _open_trees(800):
        value = random_element(rng, tree, length_cap=4)
        assert encode_doc(tree, to_doc(rng, tree, value), "open") == encode(tree, value, "open")


def test_a_name_that_is_a_prefix_gives_a_key_that_is_a_prefix():
    short, long = (encode(parse(SCORE_NAME), [900, name], "open") for name in (b"ab", b"abc"))
    assert long.startswith(short) and short < long


def test_collated_bytes_write_their_ranks():
    table = tuple(255 - byte for byte in range(256))
    tree = parse("bytes(collation=" + "".join(f"{rank:02x}" for rank in table) + ")")
    assert prepare(tree).open_ok
    assert encode(tree, b"\x00\x01", "open") == b"\xff\xfe"


def test_compare_keys_still_flags_open_keys_that_are_prefixes():
    tree = parse(SCORE_NAME)
    with pytest.raises(PrefixAnomaly):
        compare_keys(encode(tree, [900, b"ab"], "open"), encode(tree, [900, b"abc"], "open"))


class TestCommandLine:
    def _files(self, tmp_path, order, docs):
        order_path = tmp_path / "o.tsodl"
        order_path.write_text(order, encoding="utf-8")
        data_path = tmp_path / "d.jsonl"
        data_path.write_text("".join(json.dumps(doc) + "\n" for doc in docs), encoding="utf-8")
        return str(order_path), str(data_path)

    def test_encode_writes_open_keys(self, tmp_path, capsys):
        order, data = self._files(tmp_path, SCORE_NAME, [[900, "ada"], [900, ""]])
        assert main(["encode", order, data, "--mode", "open", "--hex"]) == 0
        assert capsys.readouterr().out == "7FFFFC7B616461\n7FFFFC7B\n"

    def test_encode_refuses_an_order_that_is_not_open(self, tmp_path, capsys):
        order, data = self._files(tmp_path, "next(2, 3, (int32, bytes desc))", [[900, "ada"]])
        assert main(["encode", order, data, "--mode", "open"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: tree is not open") and "Traceback" not in err

    def test_sort_uses_open_keys(self, tmp_path, capsys):
        names = ["", "a", "ab", "abc", "b", "ba", "ab"]
        docs = [[score, name] for score in (7, -3, 7) for name in names]
        order, data = self._files(tmp_path, SCORE_NAME, docs)
        assert main(["sort", order, data, "--output", "indices"]) == 0
        got = list(map(int, capsys.readouterr().out.split()))
        tree = parse(SCORE_NAME)
        keys = [encode_doc(tree, doc) for doc in docs]
        assert got == sorted(range(len(docs)), key=keys.__getitem__)
        assert ("open", False, True) in prepare(tree).plans

    @pytest.mark.parametrize("text, shown", [(SCORE_NAME, "yes"), ("uint8", "yes"), ("bytes desc", "no")])
    def test_validate_says_whether_an_order_is_open(self, tmp_path, capsys, text, shown):
        order, _ = self._files(tmp_path, text, [])
        assert main(["validate", order]) == 0
        assert capsys.readouterr().out.rstrip().endswith(f" open={shown}")

    @pytest.mark.parametrize("text", ["next(1, 2, (uint8 [bytes]))", "next(0, 1, ([bytes]))"])
    def test_validate_calls_an_order_at_no_rank_fixed_length(self, tmp_path, capsys, text):
        order, _ = self._files(tmp_path, text, [])
        assert main(["validate", order]) == 0
        assert capsys.readouterr().out == "ok: depth=2 lex_path=1 contrelex_path=0 variable_length=no open=yes\n"

    @pytest.mark.parametrize("text", sorted(LEX_UNREACHED))
    def test_validate_calls_a_lex_of_fixed_width_reached_orders_open(self, tmp_path, capsys, text):
        order, _ = self._files(tmp_path, text, [])
        assert main(["validate", order]) == 0
        assert capsys.readouterr().out == f"ok: {LEX_UNREACHED[text]} variable_length=yes open=yes\n"

    @pytest.mark.parametrize("text", sorted(LEX_UNREACHED))
    def test_sort_compiles_only_the_open_plan_of_a_lex_of_fixed_width_reached_orders(self, tmp_path, capsys, text):
        tree = parse(text)
        rng = random.Random(text)
        values = [rng.choice(elements(tree)) for _ in range(40)]
        docs = [to_doc(rng, tree, value) for value in values]
        order, data = self._files(tmp_path, text, docs)
        assert main(["sort", order, data, "--output", "indices"]) == 0
        got = list(map(int, capsys.readouterr().out.split()))
        keys = [encode(tree, value) for value in values]
        assert got == sorted(range(len(values)), key=keys.__getitem__)
        assert [key for key in prepare(tree).plans if key[2]] == [("open", False, True)]

    def test_sort_uses_packed_keys_where_no_rank_reaches_the_bytes(self, tmp_path, capsys):
        text = "next(1, 2, (int8 desc [bytes]))"
        docs = [[value] for value in (3, -1, 3, 0, 127, -128)]
        order, data = self._files(tmp_path, text, docs)
        assert main(["sort", order, data, "--output", "indices"]) == 0
        assert list(map(int, capsys.readouterr().out.split())) == [4, 0, 2, 3, 1, 5]
        assert ("open", False, True) in prepare(parse(text)).plans
        assert ("padded", False, True) not in prepare(parse(text)).plans
