"""The generated encode plans: pinned keys and faults, deep trees, the kept source."""

import pickle

import pytest

from tsokey import (
    ElementMismatch,
    compare,
    compare_keys,
    encode,
    encode_doc,
    parse,
    prepare,
    tsodl,
)
from tsokey import encoder
from tsokey.order_model import push_inv_to_leaves

from helpers import plan_digest

# plan_digest() as the nested closures computed it, before plans were
# generated as source: 58,704 keys and faults over 3,000 seeded trees.
PINNED_DIGEST = "55e9c2f36452ca6ede30f52482d12539981e560d8b376df1e63d9d987eff007e"
PINNED_CASES = 58_704


def test_generated_plans_reproduce_the_pinned_digest():
    assert plan_digest() == (PINNED_DIGEST, PINNED_CASES)


LEX_LEVELS = 14  # order_model.MAX_DEPTH: validate allows no deeper operator nesting
INV_PAIRS = 3  # per lex level; with the leaf's inv they fill tsodl.MAX_NESTING


def _deep_text():
    text = "inv(uint8)"
    for _ in range(LEX_LEVELS):
        text = "inv(inv(" * INV_PAIRS + f"lex(0, omega, ([{text}]))" + "))" * INV_PAIRS
    return text


def _deep_value(leaf):
    value = leaf
    for _ in range(LEX_LEVELS):
        value = [value]
    return value


class TestDeepTree:
    """A lex tree nested as deep as the order language allows."""

    text = _deep_text()

    def test_nesting_is_the_parser_bound(self):
        assert LEX_LEVELS * (1 + 2 * INV_PAIRS) + 2 == tsodl.MAX_NESTING
        parse(self.text)

    def test_compiles_and_encodes(self):
        tree = parse(self.text)
        low, high = _deep_value(5), _deep_value(6)
        keys = [encode(tree, low), encode(tree, high)]
        assert keys == [encode_doc(tree, low), encode_doc(tree, high)]
        assert compare_keys(*keys) is compare(tree, low, high)
        assert encode(tree, []) < keys[0]

    def test_fault_at_the_deepest_leaf_has_the_full_path(self):
        tree = parse(self.text)
        for run in (encode, encode_doc):
            with pytest.raises(ElementMismatch) as info:
                run(tree, _deep_value(300))
            assert str(info.value) == "$" + "[0]" * LEX_LEVELS + ": 300 outside uint8 range"

    def test_same_tree_gives_the_same_source(self):
        trees = [push_inv_to_leaves(parse(self.text)) for _ in range(2)]
        first, second = (encoder._compile(tree, False, False, False).source for tree in trees)
        assert first == second


def test_plan_keeps_its_source():
    prep = prepare(parse("next(2, 3, (int32 desc, bytes(collation=ascii)))"))
    plan = prep.plan(doc=True)
    assert "def run(value):" in plan.source
    # Names and numbers only: no kind name or other text of the order.
    for word in ("int32", "desc", "ascii"):
        assert word not in plan.source


def test_equal_trees_built_apart_share_one_prepared_order():
    text = "sum(finite(2, collation=0100), (lex(0, omega, ([bytes])), hierar(1, 4, ([float64]))))"
    first, second = parse(text), parse(text)
    assert first is not second and first == second
    assert prepare(first) is prepare(second)
    assert encode(first, (0, [b"a"])) == encode(second, (0, [b"a"]))


def test_a_pickled_tree_leaves_its_cached_hash_behind():
    # A str hashes differently in another process, so the hash is not pickled.
    tree = parse("next(2, 3, (int32 desc, bytes))")
    hash(tree)
    copy = pickle.loads(pickle.dumps(tree))
    assert copy == tree and copy._hash is None
    assert prepare(copy) is prepare(tree)
