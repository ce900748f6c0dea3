"""Tests for the sorter: cells, sort_cells and the key argsort."""

import copy
import dataclasses
import pickle
import random
from operator import attrgetter
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tsokey import LongCell, MixedCellKinds, ShortCell, encode, parse, sort_cells
from tsokey._pure_sort import _groups, msd_sort_indices


def short_cells(rng, n, distinct_bytes=256):
    return [
        ShortCell(bytes(rng.randrange(distinct_bytes) for _ in range(8)), ref)
        for ref in range(n)
    ]


def long_cells(rng, n, max_len=12, distinct_bytes=4):
    return [
        LongCell(
            bytes(rng.randrange(distinct_bytes) for _ in range(rng.randrange(max_len + 1))),
            ref,
        )
        for ref in range(n)
    ]


def path_cells(rng, n):
    """Padded keys of file paths: few distinct paths, long shared prefixes."""
    bytes_order = parse("bytes")
    root = b"/srv/projects/tsokey/build/"
    dirs = [root + bytes(rng.choice(b"abc") for _ in range(6)) + b"/" for _ in range(3)]
    paths = sorted(
        {rng.choice(dirs) + b"file_%02d.py" % rng.randrange(100) for _ in range(200)}
    )
    keys = [encode(bytes_order, path) for path in paths]
    # Zipf-like skew: low ranks repeat far more often than high ones.
    return [
        LongCell(keys[int(len(keys) * rng.random() ** 3)], ref) for ref in range(n)
    ]


def zipf_keys(rng, n, distinct, exponent=3):
    """n padded path keys over ``distinct`` paths, low ranks drawn far more often."""
    bytes_order = parse("bytes")
    keys = [encode(bytes_order, b"/srv/data/part_%05d.bin" % rank) for rank in range(distinct)]
    return [keys[int(distinct * rng.random() ** exponent)] for _ in range(n)]


def distinct_keys(rng, n):
    return [bytes(rng.randrange(256) for _ in range(6)) + ref.to_bytes(3, "big") for ref in range(n)]


def layout(name):
    """Keys for one layout the grouping sort must choose for or against."""
    rng = random.Random(name)
    if name == "all-distinct":
        return distinct_keys(rng, 6000)
    if name == "half-repeats":
        keys = distinct_keys(rng, 3000)
        keys += [rng.choice(keys) for _ in range(3000)]
        rng.shuffle(keys)
        return keys
    if name == "zipf-94%-repeats":
        return zipf_keys(rng, 10000, 600)
    if name == "all-equal":
        return [b"\x07" * 8] * 5000
    if name == "repeats-then-distinct":
        # Passes the checks at 4096 and 8192, fails the one at 16384.
        return [rng.choice([b"a", b"b", b"c"]) * 8 for _ in range(8192)] + distinct_keys(rng, 12000)
    if name == "repeats-then-distinct-half":
        # Passes every check; the unchecked last chunk is all distinct.
        return [rng.choice([b"a", b"b", b"c"]) * 8 for _ in range(8192)] + distinct_keys(rng, 8192)
    if name == "equal-keys-apart":
        # Equal keys held in distinct bytes objects, so buckets meet by value.
        keys = [bytes(bytearray(b"key-%d" % rng.randrange(40))) for _ in range(5000)]
        assert len({id(key) for key in keys}) == len(keys)
        return keys
    size = int(name.removeprefix("n="))  # sizes around the probe
    return [b"%02d" % rng.randrange(30) for _ in range(size)]


LAYOUTS = [
    "all-distinct",
    "half-repeats",
    "zipf-94%-repeats",
    "all-equal",
    "repeats-then-distinct",
    "repeats-then-distinct-half",
    "equal-keys-apart",
    "n=0",
    "n=1",
    "n=4095",
    "n=4096",
    "n=4097",
]


def stable_oracle(cells):
    return sorted(cells, key=attrgetter("key"))


def argsort_cells(cells):
    """The cells in the order msd_sort_indices gives their keys (tsokey sort's path)."""
    return [cells[i] for i in msd_sort_indices([cell.key for cell in cells])]


# Both sort entry points must give the same stable bytewise order.
SORTS = pytest.mark.parametrize(
    "sort", [sort_cells, argsort_cells], ids=["sort_cells", "argsort"]
)


class TestCells:
    def test_short_cell_holds_eight_bytes(self):
        cell = ShortCell(b"\x00" * 8, 7)
        assert cell.key == b"\x00" * 8
        assert cell.ref == 7

    @pytest.mark.parametrize("length", [0, 1, 7, 9, 16])
    def test_short_cell_rejects_other_lengths(self, length):
        with pytest.raises(ValueError, match="8 bytes"):
            ShortCell(b"\x00" * length, 0)

    def test_long_cell_any_length(self):
        assert LongCell(b"", 0).key_length == 0
        assert LongCell(b"abc", 1).key_length == 3

    def test_cells_are_immutable(self):
        cell = LongCell(b"a", 0)
        with pytest.raises(AttributeError):
            cell.ref = 1


# One cell of each kind, with a twin built apart and a cell that differs.
CELL_KINDS = pytest.mark.parametrize(
    "cell, twin, other",
    [
        (ShortCell(b"12345678", 7), ShortCell(b"12345678", 7), ShortCell(b"12345678", 8)),
        (LongCell(b"path", 7), LongCell(b"path", 7), LongCell(b"pat", 7)),
    ],
    ids=["short", "long"],
)


class TestCellContract:
    """The cells behave as the frozen slotted dataclasses they are declared as."""

    @CELL_KINDS
    @pytest.mark.parametrize("field", ["key", "ref"])
    def test_fields_cannot_be_set_or_deleted(self, cell, twin, other, field):
        with pytest.raises(dataclasses.FrozenInstanceError, match=f"cannot assign to field '{field}'"):
            setattr(cell, field, getattr(other, field))
        with pytest.raises(dataclasses.FrozenInstanceError, match=f"cannot delete field '{field}'"):
            delattr(cell, field)
        assert cell == twin

    @CELL_KINDS
    def test_eq_hash_and_repr(self, cell, twin, other):
        assert cell == twin and hash(cell) == hash(twin)
        assert cell != other
        assert hash(cell) == hash((cell.key, cell.ref))
        assert cell != (cell.key, cell.ref)
        assert repr(cell) == f"{type(cell).__name__}(key={cell.key!r}, ref=7)"
        assert not hasattr(cell, "__dict__")
        assert [f.name for f in dataclasses.fields(cell)] == ["key", "ref"]

    @CELL_KINDS
    def test_pickle_copy_and_replace_round_trip(self, cell, twin, other):
        for copied in (pickle.loads(pickle.dumps(cell)), copy.copy(cell), copy.deepcopy(cell)):
            assert type(copied) is type(cell) and copied == cell
        assert dataclasses.replace(cell) == cell
        assert dataclasses.replace(cell, key=other.key, ref=other.ref) == other
        assert type(cell)(key=cell.key, ref=cell.ref) == cell

    def test_short_cell_message_also_through_replace(self):
        message = "short cell key must be 8 bytes, got 7"
        with pytest.raises(ValueError) as direct:
            ShortCell(b"\x00" * 7, 0)
        assert str(direct.value) == message
        with pytest.raises(ValueError) as replaced:
            dataclasses.replace(ShortCell(b"\x00" * 8, 0), key=b"\x00" * 7)
        assert str(replaced.value) == message


class TestSortCells:
    def test_empty(self):
        assert sort_cells([]) == []

    @SORTS
    def test_small_array(self, sort):
        rng = random.Random(0)
        cells = short_cells(rng, 20)
        assert sort(cells) == stable_oracle(cells)

    @SORTS
    def test_short_cells_match_oracle(self, sort):
        rng = random.Random(1)
        cells = short_cells(rng, 3000, distinct_bytes=7)
        assert sort(cells) == stable_oracle(cells)

    @SORTS
    def test_long_cells_match_oracle(self, sort):
        rng = random.Random(2)
        cells = long_cells(rng, 3000)
        assert sort(cells) == stable_oracle(cells)

    @SORTS
    def test_stability_with_heavy_duplicates(self, sort):
        rng = random.Random(3)
        keys = [bytes([rng.randrange(2)]) * 8 for _ in range(500)]
        cells = [ShortCell(key, ref) for ref, key in enumerate(keys)]
        result = sort(cells)
        assert result == stable_oracle(cells)
        refs_per_key = {}
        for cell in result:
            refs_per_key.setdefault(cell.key, []).append(cell.ref)
        for refs in refs_per_key.values():
            assert refs == sorted(refs)

    @SORTS
    def test_prefix_ordering(self, sort):
        cells = [
            LongCell(key, ref)
            for ref, key in enumerate([b"ab", b"a", b"abc", b"", b"b", b"aa"])
        ]
        result = sort(cells)
        assert [c.key for c in result] == [b"", b"a", b"aa", b"ab", b"abc", b"b"]

    def test_duplicate_heavy_path_keys(self):
        rng = random.Random(16)
        cells = path_cells(rng, 5000)
        assert len({cell.key for cell in cells}) < len(cells) // 10
        result = sort_cells(cells)
        assert result == stable_oracle(cells)

    @SORTS
    def test_strict_prefixes_and_empty_keys(self, sort):
        rng = random.Random(17)
        stems = [b"", b"p", b"pa", b"pat", b"path", b"path\x00", b"path\x00\x00"]
        cells = [LongCell(rng.choice(stems), ref) for ref in range(500)]
        result = sort(cells)
        assert result == stable_oracle(cells)

    @SORTS
    def test_equal_keys_keep_input_order(self, sort):
        key = encode(parse("bytes"), b"/srv/projects/tsokey/same/path.py")
        cells = [LongCell(key, ref) for ref in range(300)]
        cells[100:200] = reversed(cells[100:200])
        result = sort(cells)
        assert result == cells

    @SORTS
    def test_input_not_mutated(self, sort):
        rng = random.Random(4)
        cells = long_cells(rng, 200)
        snapshot = list(cells)
        sort(cells)
        assert cells == snapshot

    @SORTS
    def test_tiny_arrays(self, sort):
        cells = [LongCell(b"b", 0), LongCell(b"a", 1)]
        assert [c.ref for c in sort(cells)] == [1, 0]
        assert sort([LongCell(b"x", 0)]) == [LongCell(b"x", 0)]

    @SORTS
    @pytest.mark.parametrize("name", LAYOUTS)
    def test_key_layouts(self, sort, name):
        cells = [LongCell(key, ref) for ref, key in enumerate(layout(name))]
        assert sort(cells) == stable_oracle(cells)

    @SORTS
    def test_unhashable_keys_still_sort(self, sort):
        cells = [LongCell(bytearray(b"b"), 0), LongCell(b"a", 1), LongCell(bytearray(b"a"), 2)]
        assert [cell.ref for cell in sort(cells)] == [1, 2, 0]

    @SORTS
    @pytest.mark.parametrize("position", [0, 4095, 4096, 9999])
    def test_one_unhashable_key_anywhere(self, sort, position):
        # In the probe, in the first grouped chunk past it, and in the last chunk.
        keys = layout("zipf-94%-repeats")
        keys[position] = bytearray(keys[position])
        cells = [LongCell(key, ref) for ref, key in enumerate(keys)]
        assert sort(cells) == stable_oracle(cells)

    def test_mixed_kinds_rejected(self):
        cells = [ShortCell(b"\x00" * 8, 0), LongCell(b"a", 1)]
        with pytest.raises(MixedCellKinds):
            sort_cells(cells)

    @pytest.mark.parametrize(
        "cells", [[LongCell(b"a", 0), b"bare key"], [b"bare key", ShortCell(b"\x00" * 8, 1)]]
    )
    def test_non_cell_rejected(self, cells):
        with pytest.raises(MixedCellKinds, match="not a cell: bytes"):
            sort_cells(cells)


class TestPureKernels:
    @pytest.mark.parametrize(
        "name, grouped",
        [
            ("all-distinct", False),
            ("half-repeats", False),
            ("zipf-94%-repeats", True),
            ("all-equal", False),  # already in order: timsort takes it in one pass
            ("repeats-then-distinct", False),
            ("repeats-then-distinct-half", True),
            ("equal-keys-apart", True),
        ],
    )
    def test_grouping_is_chosen_by_the_repeat_share(self, name, grouped):
        keys = layout(name)
        groups = _groups(range(len(keys)), keys.__getitem__)
        assert (groups is not None) is grouped
        if grouped:
            assert len(groups) == len(set(keys))

    def test_msd_trivial_sizes(self):
        assert msd_sort_indices([]) == []
        assert msd_sort_indices([b"z"]) == [0]

    def test_msd_matches_stable_argsort(self):
        rng = random.Random(9)
        keys = [
            bytes(rng.randrange(4) for _ in range(rng.randrange(10)))
            for _ in range(2000)
        ]
        expected = sorted(range(len(keys)), key=keys.__getitem__)
        assert msd_sort_indices(keys) == expected

    def test_msd_skips_shared_prefixes(self):
        prefix = b"\x55" * 64
        keys = [prefix + bytes([b]) for b in (3, 1, 2, 0)] + [prefix]
        assert msd_sort_indices(keys) == [4, 3, 1, 2, 0]

    def test_msd_on_path_keys(self):
        rng = random.Random(14)
        cells = path_cells(rng, 4000)
        keys = [cell.key for cell in cells]
        order = msd_sort_indices(keys)
        assert [cells[i] for i in order] == stable_oracle(cells)

    def test_msd_strict_prefixes_and_empty_keys(self):
        keys = [b"abc", b"", b"ab", b"a", b"", b"abc\x00", b"ab", b"b"]
        assert list(msd_sort_indices(keys)) == [1, 4, 3, 2, 6, 0, 5, 7]

    def test_msd_keeps_equal_keys_in_input_order(self):
        rng = random.Random(15)
        keys = [rng.choice([b"", b"\x00", b"\x00\x00", b"\xff"]) for _ in range(3000)]
        order = list(msd_sort_indices(keys))
        for position in range(1, len(order)):
            before, after = order[position - 1], order[position]
            assert keys[before] < keys[after] or (
                keys[before] == keys[after] and before < after
            )


@settings(max_examples=150, deadline=None)
@given(st.lists(st.binary(max_size=10)))
def test_sort_cells_matches_oracle_on_random_long_keys(keys):
    cells = [LongCell(key, ref) for ref, key in enumerate(keys)]
    assert sort_cells(cells) == stable_oracle(cells)
    assert msd_sort_indices(keys) == [cell.ref for cell in stable_oracle(cells)]


@settings(max_examples=150, deadline=None)
@given(st.lists(st.binary(min_size=8, max_size=8), max_size=60))
def test_sort_cells_matches_oracle_on_random_short_keys(keys):
    cells = [ShortCell(key, ref) for ref, key in enumerate(keys)]
    assert sort_cells(cells) == stable_oracle(cells)
    assert msd_sort_indices(keys) == [cell.ref for cell in stable_oracle(cells)]


def test_readme_quick_start_prints_its_closing_comment(capsys):
    """The ``python`` block under README "Quick start" runs and prints the line its last comment gives."""
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
    block = readme.split("\n## Quick start\n", 1)[1].split("```python\n", 1)[1].split("```", 1)[0]
    exec(compile(block, "README.md", "exec"), {})
    assert capsys.readouterr().out == block.rstrip().splitlines()[-1].removeprefix("# ") + "\n"
