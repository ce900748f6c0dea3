"""The generated encode plans: pinned keys and faults, deep trees, the kept source."""

import cProfile
import functools
import gc
import json
import pickle
import pstats
import random
import re
import sys
import threading
import weakref

import pytest

from tsokey import (
    BuiltinKind,
    ElementMismatch,
    compare,
    compare_keys,
    encode,
    encode_batch,
    encode_doc,
    parse,
    prepare,
    primitive_key,
    tsodl,
)
from tsokey import encoder
from tsokey.cli import main
from tsokey.errors import TsokeyError
from tsokey.order_model import KIND_TABLE, push_inv_to_leaves
from tsokey.randgen import random_element, random_tree

from helpers import _BAD_DOCS, _BAD_ELEMENTS, _outcome, _splice_bad, plan_digest, to_doc

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

    def test_the_cli_encodes_it_as_encode_doc(self, tmp_path, capsys):
        # The record loop writes the root's body inside three more blocks than ``run`` does.
        tree = parse(self.text)
        order, data = tmp_path / "o.tsodl", tmp_path / "d.jsonl"
        order.write_text(self.text, encoding="utf-8")
        docs = [_deep_value(5), _deep_value(6), [], _deep_value(5)]
        data.write_text("".join(json.dumps(doc) + "\n" for doc in docs), encoding="utf-8")
        for argv in (["encode", "--hex"], ["sort", "--output", "indices"]):
            assert main([argv[0], str(order), str(data), *argv[1:]]) == 0
            keys = [encode_doc(tree, doc) for doc in docs]
            expected = [key.hex().upper() for key in keys] if argv[0] == "encode" else [
                str(index) for index in sorted(range(len(keys)), key=keys.__getitem__)]
            assert capsys.readouterr().out.splitlines() == expected

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


# The order of perfbench's encode_nested workload: one sequence function each
# for its lex, hierar and contrelex nodes, under the run function.
NESTED_ORDER = (
    "next(4, 5, (uint32, lex(0, omega, ([bytes])), hierar(0, omega, ([int16 desc])), "
    "contrelex(0, omega, ([rational]))))"
)


def test_each_plan_function_has_a_row_of_its_own_in_a_profile():
    plan = prepare(parse(NESTED_ORDER)).plan(doc=True)
    docs = [[n, ["a", "bc"][: n % 3], [n, -n], [f"{n}/7"]] for n in range(50)]
    profile = cProfile.Profile()
    profile.runcall(lambda: [plan(doc) for doc in docs])
    rows = {
        name: calls
        for (filename, _, name), (_, calls, *_) in pstats.Stats(profile).stats.items()
        if filename == "<tsokey plan>"
    }
    assert rows == {"step_0": 50, "step_1": 50, "step_2": 50, "run_3": 50}
    assert [line for line in plan.source.splitlines() if line.startswith("# function")] == [
        "# function 0 (step_0)",
        "# function 1 (step_1)",
        "# function 2 (step_2)",
        "# function 3 (run_3); step_7 = 0; step_8 = 1; step_9 = 2",
    ]


def test_renamed_functions_still_compile_each_shape_once():
    tree = push_inv_to_leaves(parse(NESTED_ORDER))
    encoder._compile(tree, False, False, True)
    before = encoder._code.cache_info()
    plan = encoder._compile(tree, False, False, True)
    after = encoder._code.cache_info()
    assert after.misses == before.misses
    assert after.hits - before.hits == 4
    # The cached code keeps the name its source gives it; each function got a renamed copy.
    sources = [chunk.split("\n", 1)[1].rstrip("\n") + "\n" for chunk in plan.source.split("# function")[1:]]
    cached = [next(c for c in encoder._code(source).co_consts if hasattr(c, "co_name")) for source in sources]
    assert encoder._code.cache_info().misses == before.misses
    assert [code.co_name for code in cached] == ["step", "step", "step", "run"]
    assert plan.__code__ is not cached[-1] and plan.__code__.co_name == "run_3"
    assert getattr(plan.__code__, "co_qualname", "run_3") == "run_3"  # 3.10 has no co_qualname


# ---------------------------------------------------------------------------
# The leaf memos of a plan


def _memos(plan):
    """(namespace, name) of each memo in a plan's functions: its run function and every step it calls."""
    found, functions = [], [plan]
    while functions:
        namespace = functions.pop().__globals__
        for name, value in namespace.items():
            if name.startswith("memo_"):
                found.append((namespace, name))
            elif name.startswith("step_"):
                functions.append(value)
            elif name.startswith("cases_"):
                functions.extend(value)
    return found


def _plan(tree, mode="padded", doc=False, memo=True):
    """A freshly compiled plan of ``tree``, its memos turned off unless ``memo``."""
    plan = encoder._compile(push_inv_to_leaves(tree), mode == "packed", False, doc)
    if not memo:
        for namespace, name in _memos(plan):
            namespace[name] = None
    return plan


def _outcomes(plan, values):
    return [_outcome(lambda: plan(value)) for value in values]


def test_memoized_plans_give_the_keys_and_faults_of_plans_without_memos():
    """Criterion 2's tree generator; every value list repeats its values, and about
    a third of them are bad.  Hits must give what misses gave, and both what a
    plan with its memos off gives."""
    memoized = 0
    for index in range(400):
        rng = random.Random(f"memo:{index}")
        tree = random_tree(rng, rng.randrange(0, 6))
        modes = ("padded", "packed") if prepare(tree).packed_ok else ("padded",)
        elements = [random_element(rng, tree, length_cap=4) for _ in range(4)]
        for doc in (False, True):
            values = [to_doc(rng, tree, value) for value in elements] if doc else list(elements)
            palette = _BAD_DOCS if doc else _BAD_ELEMENTS
            values += [_splice_bad(rng, value, palette) for value in values[:2]]
            values = [rng.choice(values) for _ in range(3 * len(values))]
            for mode in modes:
                plan = _plan(tree, mode, doc)
                forwards = _outcomes(plan, values)
                backwards = _outcomes(plan, values[::-1])[::-1]
                fresh = _outcomes(_plan(tree, mode, doc), values)
                assert forwards == backwards == fresh == _outcomes(_plan(tree, mode, doc, memo=False), values)
                memoized += any(namespace[name] for namespace, name in _memos(plan))
    assert memoized >= 100  # the memos were used, not just present


# Each case: a value to memoize first, then a look-alike that must not take its fragment.
LOOK_ALIKES = [
    ("int32", False, 1, True),
    ("int32", True, 1, True),
    ("int32", False, 7, "7"),
    ("int32", True, 7, "7"),
    ("int32", True, "7", 7),
    ("int32", False, 1, 1.0),
    ("int32", True, 1, 1.0),
    ("uint64", True, 2**64 - 1, 2**64),
    ("bytes", False, b"a", b""),
    ("bytes", True, "a", ""),
    ("bytes", True, "", "a"),
    ("bytes", False, b"a", "a"),
    ("bytes", True, "a", b"a"),
    ("bytes", True, "a", "\ud800"),
    ("bytes", False, b"a", bytearray(b"a")),
    ("bytes", True, "61", {"hex": "61"}),
    ("bytes", True, "a", {"hex": "61"}),
    ("bytes desc", True, "ab", "ab"),
    ("lex(0, omega, ([bytes]))", True, ["", "a"], [""]),
    ("lex(0, omega, ([bytes]))", False, [b"a", b""], [b"", b"a"]),
    ("bytes(collation=ascii)", False, b"B", b"b"),
    ("float64", False, 0.0, -0.0),
    ("float64", True, -0.0, 0.0),
    ("float32", False, 1.0, 1),
    ("lex(0, omega, ([int32 desc]))", False, [1, 1], [True, 1]),
    ("next(2, 3, (int32, bytes))", True, [1, "a"], [True, "a"]),
]


@pytest.mark.parametrize("order, doc, first, then", LOOK_ALIKES)
def test_a_look_alike_of_a_memoized_value_gets_its_own_key(order, doc, first, then):
    tree = parse(order)
    plan = _plan(tree, doc=doc)
    for _ in range(3):  # a miss that stores, then hits
        plan(first)
    reference = _plan(tree, doc=doc, memo=False)
    assert _outcomes(plan, [then, first]) == _outcomes(reference, [then, first])


def _memo_of(plan):
    """The one memo of a plan's one memoized leaf, by its namespace and name."""
    [(namespace, name)] = _memos(plan)
    return namespace, name


def test_a_site_fed_distinct_values_turns_its_memo_off():
    tree = parse("int32")
    values = list(range(-5, encoder.MEMO_ENTRIES + 5))
    plan = _plan(tree, doc=True)
    namespace, name = _memo_of(plan)
    keys = [plan(value) for value in values[: encoder.MEMO_ENTRIES]]
    assert len(namespace[name]) == encoder.MEMO_ENTRIES
    keys += [plan(value) for value in values[encoder.MEMO_ENTRIES :]]
    assert namespace[name] is None
    keys += [plan(value) for value in values[:20]]
    reference = _plan(tree, doc=True, memo=False)
    assert keys == [reference(value) for value in values + values[:20]]


def _zipf(rng, size, count):
    weights = [1 / rank for rank in range(1, size + 1)]
    return rng.choices(range(size), weights, k=count)


def test_a_site_fed_zipf_values_keeps_its_memo_full_and_no_larger():
    rng = random.Random(20261019)
    words = ["".join(rng.choice("abcdefgh") for _ in range(rng.randrange(1, 48))) for _ in range(3000)]
    words = list(dict.fromkeys(words))
    tree = parse("lex(0, omega, ([bytes]))")
    plan = _plan(tree, doc=True)
    namespace, name = _memo_of(plan)
    docs = [[words[rank] for rank in _zipf(rng, len(words), 4)] for _ in range(5000)]
    keys = [plan(doc) for doc in docs]
    memo = namespace[name]
    assert memo is not None and len(memo) == encoder.MEMO_ENTRIES
    assert all(0 < len(fragment) // 3 <= encoder.MEMO_VALUE_BYTES for fragment in memo.values())
    assert all(len(word.encode()) <= encoder.MEMO_VALUE_BYTES for word in memo)
    assert any(len(word) > encoder.MEMO_VALUE_BYTES for word in words[:100])
    [hits] = [value for key, value in namespace.items() if key.startswith("hits_")]
    assert hits == encoder.MEMO_ENTRIES  # the count stops where the off rule stops reading it
    reference = _plan(tree, doc=True, memo=False)
    assert keys == [reference(doc) for doc in docs]


def test_four_threads_running_encode_batch_on_one_tree_give_the_keys_of_one_thread():
    rng = random.Random(7)
    # A tree no other test prepares, so its plan starts with empty memos: the
    # bytes site stays on, the int32 and uint64 sites fill and turn off.
    tree = parse("next(3, 4, (uint64 desc, bytes, int32))")
    values = [
        (rng.getrandbits(64), b"w%d" % rank, rng.getrandbits(31))
        for rank in _zipf(rng, 3000, 4 * encoder.MEMO_ENTRIES)
    ]
    results = [None] * 4
    start = threading.Barrier(len(results))

    def work(index):
        start.wait()
        results[index] = encode_batch(tree, values[index:] + values[:index])

    saved = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)  # switch threads often, inside fills and the off switch
    try:
        threads = [threading.Thread(target=work, args=(index,)) for index in range(len(results))]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
            assert not thread.is_alive()
    finally:
        sys.setswitchinterval(saved)
    expected = encode_batch(tree, values)
    reference = _plan(tree, memo=False)
    assert expected == [reference(value) for value in values]
    for index, keys in enumerate(results):
        assert keys == expected[index:] + expected[:index]


def _shape(plan) -> str:
    """How a plan builds its key, read from its ``run``: "straight" when it names each
    fragment and returns them joined, "list" when it appends them to ``out = []``,
    "bytearray" when it adds them to ``out = bytearray()``."""
    run = plan.source[plan.source.rindex("def run(value):") :].splitlines()
    first = next(line.strip() for line in run[1:] if not line.strip().startswith("global "))
    if first == "try:":
        returned = run[-1].strip()
        assert "out" not in plan.source and re.fullmatch(
            r'return (b""|frag_0|frag_0 \+ frag_1|b"".join\(\(frag_0(, frag_\d+){2,}\)\))', returned), returned
        return "straight"
    assert first in ("out = []", "out = bytearray()"), first
    return "list" if first == "out = []" else "bytearray"


@pytest.mark.parametrize(
    "text, mode, shape",
    [
        ("uint64", "packed", "straight"),
        ("next(2, 3, (int32 desc, bytes))", "open", "straight"),
        ("next(2, 3, (int32 desc, bytes))", "padded", "bytearray"),
        ("lex(0, omega, ([uint16]))", "open", "bytearray"),
        ("lex(0, omega, ([uint16]))", "padded", "bytearray"),
        ("next(2, 3, (uint8, lex(0, omega, ([uint16]))))", "open", "bytearray"),
        ("sum(finite(2), (finite(1), bytes))", "open", "list"),
        ("sum(finite(2), (uint32, next(2, 3, (uint8, uint8))))", "packed", "list"),
        ("lex(8, 9, ([uint16]))", "packed", "list"),  # a period loop
        ("next(2, 3, (uint8, next(1, 2, (uint8))))", "packed", "list"),  # a nested function
        ("next(3, 4, (uint64 desc, float32, bool))", "packed", "straight"),
        ("next(3, 4, (uint64 desc, float32, bool))", "padded", "bytearray"),
        ("next(1, 2, (uint8 [lex(0, omega, ([uint8]))]))", "packed", "straight"),  # the lex is at no rank
        ("next(0, 1, ([bytes]))", "packed", "straight"),  # no fragment at all
    ],
)
def test_the_buffer_of_a_plan(text, mode, shape):
    for doc in (False, True):
        for nan_high in (False, True):  # with it, a float writes its fragment in both branches of a NaN test
            plan = prepare(parse(text)).plan(mode, doc=doc, nan_high=nan_high)
            assert _shape(plan) == shape, (doc, nan_high)


def test_every_plan_returns_bytes_and_packed_plans_join_fragments():
    """Over criterion 2's generator: each plan, doc and not, returns exactly ``bytes``.  Every
    padded plan writes a bytearray.  A packed or open plan is straight-line exactly when its
    ``run`` is its only function and writes each item unconditionally, with no loop; every
    other packed plan joins a list."""
    seen = set()
    for index in range(1500):
        rng = random.Random(f"buffer:{index}")
        tree = random_tree(rng, rng.randrange(0, 6), fixed_only=rng.random() < 0.3)
        prepared = prepare(tree)
        modes = ["padded"] + ["packed"] * prepared.packed_ok + ["open"] * prepared.open_ok
        values = [random_element(rng, tree, length_cap=4) for _ in range(3)]
        for mode in modes:
            for doc in (False, True):
                plan = prepared.plan(mode, doc=doc, nan_high=True)
                shape = _shape(plan)
                seen.add((mode, shape))
                if mode == "padded":
                    assert shape == "bytearray", tree
                else:
                    alone = not re.search(r"# function 1 |for rank in|if length > ", plan.source)
                    assert (shape == "straight") is alone, (tree, mode, shape)
                    assert mode == "open" or shape != "bytearray", tree
                given = [to_doc(rng, tree, value) for value in values] if doc else values
                assert all(type(key) is bytes for key in map(plan, given)), (tree, mode, doc)
            assert all(type(key) is bytes for key in encode_batch(tree, values, mode, nan_high=True))
    assert seen == {("padded", "bytearray"), ("packed", "straight"), ("packed", "list"),
                    ("open", "straight"), ("open", "list"), ("open", "bytearray")}


# Trees that list item orders at ranks no element reaches.
UNREACHED = [
    "lex(0, 2, (uint8 [lex(0, omega, ([bytes]))]))",
    "antilex(0, 1, ([rational]))",
    "lex(0, 2, (uint8 [rational]))",
    "next(1, 2, (uint8 [sum(finite(2), (bytes, uint8))]))",
    "lex(0, 3, ([uint8, next(1, 2, ([bool])), hierar(0, omega, ([int8]))]))",
]


def _dead_steps(plan) -> list[str]:
    """Each step or cases constant that a ``# function`` header of a plan's source names
    and that the function's body never reads, with its header."""
    dead = []
    for chunk in plan.source.split("# function ")[1:]:
        header, body = chunk.split("\n", 1)
        names = [call.split(" = ")[0] for call in header.split("; ")[1:]]
        dead += [f"{header}: {name}" for name in names if not re.search(rf"\b{name}\b", body)]
    return dead


def test_no_plan_compiles_a_step_that_no_element_reaches():
    """Over criterion 2's generator and the trees above, in every mode, doc and not."""
    trees = [parse(text) for text in UNREACHED]
    for index in range(2000):
        rng = random.Random(f"dead:{index}")
        trees.append(random_tree(rng, rng.randrange(0, 6), fixed_only=rng.random() < 0.3))
    seen = set()
    for tree in trees:
        prepared = prepare(tree)
        for mode in ["padded"] + ["packed"] * prepared.packed_ok + ["open"] * prepared.open_ok:
            for doc in (False, True):
                plan = prepared.plan(mode, doc=doc)
                assert not _dead_steps(plan), (tree, mode, doc, _dead_steps(plan))
                seen.add((mode, doc))
    assert len(seen) == 6


def _function(source: str, name: str) -> list[str]:
    """The lines of the function ``name`` in a plan's source."""
    return source[source.rindex(f"def {name}(") :].split("\n\n# function ")[0].rstrip("\n").splitlines()


# The placeholder a framed loop that writes into the batch's buffer puts where ``run`` starts its bytearray.
_PLACEHOLDER = 'out += b"\\0\\0\\0\\0"'


def _unwrapped(run: list[str], records: list[str]):
    """The code ``run`` and ``records`` each wrap, as (global line, start and body, key
    expression): ``run``'s between its ``try`` and the handler that words a fault, ``records``'
    between the scan's checks and the handler that returns a fault.  A framed loop that writes
    into the batch's buffer has the placeholder for ``run``'s start and no key expression; it
    is read as ``run``'s start and ``bytes(out)``, once its last line is the one filling the frame."""
    head = [run[1]] if run[1].startswith("    global ") else []
    begin = run.index("    try:")
    end = len(run) - 1 - run[::-1].index("    except _Fault as fault:")
    body = [line[4:] for line in run[1 + len(head) : begin]] + [line[8:] for line in run[begin + 1 : end]]
    plain = head, body, run[-1].removeprefix("    return ")
    check = next(index for index, line in enumerate(records) if line.strip() == "if end != len(line):")
    indent = len(records[check]) - len(records[check].lstrip())
    outer = " " * (indent - 4)
    handler = records.index(outer + "except _Fault as fault:", check)
    looped = [line[indent:] for line in records[check + 2 : handler]]
    head = [records[1]] if records[1].startswith("    global ") else []
    if looped[:1] == [_PLACEHOLDER]:
        assert records[-1] == outer + "_frame_into(out, at, len(out) - at - 4)"
        return plain, (head, ["out = bytearray()", *looped[1:]], "bytes(out)")
    key = next(line for line in records[handler:] if line.startswith(outer) and line[len(outer)] not in " e")
    key = key.strip().removeprefix("key = known[line] = ").removeprefix("key = ")
    return plain, (head, looped, key.removeprefix("append(").removesuffix(")") if key[:7] == "append(" else key)


def _drive(records, texts, sink, *known):
    """``records`` over ``texts`` as the CLI drives it, resumed after each line it returns:
    the list of what it returned, and, after each return, the bytes in ``sink`` (a framed
    loop's buffer) or the number of keys appended to it."""
    rest, returned, after = iter(texts), [], []
    take = functools.partial(records, rest, sink if type(sink) is bytearray else sink.append, *known)
    while (line := take()) is not None:
        returned.append(line)
        after.append(bytes(sink) if type(sink) is bytearray else len(sink))
    return returned, after


def test_the_record_loop_carries_the_body_of_run():
    """Over criterion 2's generator, padded, packed and open, in every form: ``records`` wraps
    ``run``'s body line for line, takes each line ``run`` takes, with its key, and returns the
    rest, each line too long to scan as itself and each line ``run`` faults on as the fault,
    whose message is ``run``'s.  A framed loop writes the frames of the keys the key-list loop
    appends, behind whatever its buffer already held, and after each line it returns its buffer
    ends at the last whole frame."""
    seen = set()
    for index in range(2000):
        rng = random.Random(f"loop:{index}")
        tree = random_tree(rng, rng.randrange(0, 6), fixed_only=rng.random() < 0.3)
        prepared = prepare(tree)
        texts = []
        for _ in range(4):
            doc = to_doc(rng, tree, random_element(rng, tree, length_cap=4))
            texts.append(json.dumps(_splice_bad(rng, doc, _BAD_DOCS) if rng.random() < 0.2 else doc))
        before = rng.randbytes(rng.randrange(1, 9)) if index % 4 else b""
        for mode in ["padded"] + ["packed"] * prepared.packed_ok + ["open"] * prepared.open_ok:
            run = prepared.plan(mode, doc=True)
            expected, left = [], []
            for text in texts:
                if len(text) >= encoder.SCAN_MAX_LEN:
                    left.append(text)
                    continue
                try:
                    expected.append(run(json.loads(text)))
                except TsokeyError as exc:
                    left.append((type(exc), str(exc)))
            keys, known = [], {}
            for form in ["memo" if index % 2 else "keys", "framed"]:
                records = prepared.record_loop(mode, form=form)
                plain, looped = _unwrapped(_function(run.source, "run"), _function(records.source, "records"))
                assert plain == looped, (tree, mode, form)
                if form == "framed":
                    frames = bytearray(before)
                    returned, after = _drive(records, texts, frames)
                    framed = [encoder._FRAME.pack(len(key)) + key for key in keys]
                    assert frames == before + b"".join(framed), (tree, mode, texts)
                    assert after == [before + b"".join(framed[:count]) for count in counts], (tree, mode, texts)
                else:
                    returned, counts = _drive(records, texts, keys, *[known.get, known] * (form == "memo"))
                    assert keys == expected, (tree, mode, texts)
                shown = [(line.cls, f"${line.path}: {line.message}") if type(line) is encoder._Fault else line
                         for line in returned]
                assert shown == left, (tree, mode, form, texts)
                seen.add((mode, form))
    assert len(seen) == 9


def _weak_plan_parts(text):
    """Weak references to the doc plan of ``text``, to one of its steps and to its framed record loop."""
    prepared = prepare(parse(text))
    run = prepared.plan(doc=True)
    step = next(value for name, value in run.__globals__.items() if name.startswith("step_"))
    return [weakref.ref(part) for part in (run, step, prepared.record_loop(form="framed"))]


def test_a_dropped_plan_is_freed_without_the_cyclic_collector():
    """No plan function, step or record loop is in a reference cycle, so a plan goes, leaf
    memos and all, as soon as the ``prepare`` cache lets its order go."""
    gc.disable()
    try:
        parts = _weak_plan_parts("next(2, 3, (int32 desc, lex(0, omega, ([bytes]))))")
        assert all(part() is not None for part in parts)
        prepare.cache_clear()
        assert [part() for part in parts] == [None, None, None]
    finally:
        gc.enable()


@pytest.mark.parametrize("text", ["antilex(0, 1, ([rational]))", "lex(0, 2, (uint8 [rational]))"])
def test_a_rational_at_no_rank_builds_no_rational_tables(text):
    tree = push_inv_to_leaves(parse(text))
    assert prepare(tree).open_ok  # so its open plan, compiled as a packed one, exists too
    before = encoder._rational_fragments.cache_info()
    for packed in (False, True):
        for doc in (False, True):
            assert "tails" not in encoder._compile(tree, packed, False, doc).source
    assert encoder._rational_fragments.cache_info() == before


@pytest.mark.parametrize("kind", [kind for kind in BuiltinKind if KIND_TABLE[kind].family is not None])
def test_primitive_key_returns_bytes(kind):
    value = 1.5 if KIND_TABLE[kind].family == "float" else 1
    assert type(primitive_key(kind, value)) is bytes
