"""Tests for the radix sorter: cells, kernels, backend selection."""

import array
import random
from operator import attrgetter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tsokey import (
    HAVE_COMPILED,
    LongCell,
    MixedCellKinds,
    ShortCell,
    SortPolicy,
    choose_algorithm,
    encode,
    parse,
    sort_cells,
)
from tsokey import sorter
from tsokey._pure_sort import msd_sort_indices

BACKENDS = ["pure"] + (["compiled"] if HAVE_COMPILED else [])


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


def stable_oracle(cells):
    return sorted(cells, key=attrgetter("key"))


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


class TestChooseAlgorithm:
    def test_threshold_boundary(self):
        policy = SortPolicy(switch_threshold=64)
        assert choose_algorithm(63, policy) == "comparison"
        assert choose_algorithm(64, policy) == "radix"
        assert choose_algorithm(10**6, policy) == "radix"

    def test_custom_threshold(self):
        policy = SortPolicy(switch_threshold=2)
        assert choose_algorithm(1, policy) == "comparison"
        assert choose_algorithm(2, policy) == "radix"


class TestSortCells:
    def test_empty(self):
        assert sort_cells([]) == []

    def test_comparison_path_small_array(self):
        rng = random.Random(0)
        cells = short_cells(rng, 20)
        assert sort_cells(cells) == stable_oracle(cells)

    @pytest.mark.parametrize("backend", BACKENDS + ["auto"])
    def test_short_cells_match_oracle(self, backend):
        rng = random.Random(1)
        cells = short_cells(rng, 3000, distinct_bytes=7)
        policy = SortPolicy(backend=backend)
        assert sort_cells(cells, policy) == stable_oracle(cells)

    @pytest.mark.parametrize("backend", BACKENDS + ["auto"])
    def test_long_cells_match_oracle(self, backend):
        rng = random.Random(2)
        cells = long_cells(rng, 3000)
        policy = SortPolicy(backend=backend)
        assert sort_cells(cells, policy) == stable_oracle(cells)

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_stability_with_heavy_duplicates(self, backend):
        rng = random.Random(3)
        keys = [bytes([rng.randrange(2)]) * 8 for _ in range(500)]
        cells = [ShortCell(key, ref) for ref, key in enumerate(keys)]
        result = sort_cells(cells, SortPolicy(backend=backend))
        assert result == stable_oracle(cells)
        refs_per_key = {}
        for cell in result:
            refs_per_key.setdefault(cell.key, []).append(cell.ref)
        for refs in refs_per_key.values():
            assert refs == sorted(refs)

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_prefix_ordering(self, backend):
        cells = [
            LongCell(key, ref)
            for ref, key in enumerate([b"ab", b"a", b"abc", b"", b"b", b"aa"])
        ]
        policy = SortPolicy(switch_threshold=0, backend=backend)
        result = sort_cells(cells, policy)
        assert [c.key for c in result] == [b"", b"a", b"aa", b"ab", b"abc", b"b"]

    @pytest.mark.parametrize("backend", BACKENDS + ["auto"])
    def test_duplicate_heavy_path_keys(self, backend):
        rng = random.Random(16)
        cells = path_cells(rng, 5000)
        assert len({cell.key for cell in cells}) < len(cells) // 10
        result = sort_cells(cells, SortPolicy(backend=backend))
        assert result == stable_oracle(cells)

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_strict_prefixes_and_empty_keys(self, backend):
        rng = random.Random(17)
        stems = [b"", b"p", b"pa", b"pat", b"path", b"path\x00", b"path\x00\x00"]
        cells = [LongCell(rng.choice(stems), ref) for ref in range(500)]
        result = sort_cells(cells, SortPolicy(backend=backend))
        assert result == stable_oracle(cells)

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_equal_keys_keep_input_order(self, backend):
        key = encode(parse("bytes"), b"/srv/projects/tsokey/same/path.py")
        cells = [LongCell(key, ref) for ref in range(300)]
        cells[100:200] = reversed(cells[100:200])
        result = sort_cells(cells, SortPolicy(switch_threshold=0, backend=backend))
        assert result == cells

    def test_input_not_mutated(self):
        rng = random.Random(4)
        cells = long_cells(rng, 200)
        snapshot = list(cells)
        sort_cells(cells, SortPolicy(backend="pure"))
        assert cells == snapshot

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_forced_radix_on_tiny_arrays(self, backend):
        policy = SortPolicy(switch_threshold=0, backend=backend)
        cells = [LongCell(b"b", 0), LongCell(b"a", 1)]
        assert [c.ref for c in sort_cells(cells, policy)] == [1, 0]
        assert sort_cells([LongCell(b"x", 0)], policy) == [LongCell(b"x", 0)]

    @pytest.mark.parametrize("threshold", [0, 1, 2, 10**9])
    def test_insertion_threshold_extremes(self, threshold):
        rng = random.Random(7)
        cells = long_cells(rng, 300)
        policy = SortPolicy(
            switch_threshold=0, insertion_threshold=threshold, backend="pure"
        )
        assert sort_cells(cells, policy) == stable_oracle(cells)

    def test_mixed_kinds_rejected(self):
        cells = [ShortCell(b"\x00" * 8, 0), LongCell(b"a", 1)]
        with pytest.raises(MixedCellKinds):
            sort_cells(cells)

    def test_non_cell_rejected(self):
        with pytest.raises(MixedCellKinds, match="bytes"):
            sort_cells([LongCell(b"a", 0), b"bare key"])

    def test_unknown_backend(self):
        policy = SortPolicy(switch_threshold=0, backend="fast")
        with pytest.raises(ValueError, match="backend"):
            sort_cells([LongCell(b"a", 0)], policy)

    def test_compiled_backend_without_extension(self, monkeypatch):
        monkeypatch.setattr(sorter, "HAVE_COMPILED", False)
        cells = [LongCell(bytes([i]), i) for i in range(100)]
        with pytest.raises(RuntimeError, match="compiled"):
            sort_cells(cells, SortPolicy(backend="compiled"))

    @pytest.mark.skipif(not HAVE_COMPILED, reason="extension not built")
    def test_auto_prefers_compiled(self, monkeypatch):
        calls = []
        real = sorter._radixcore.sort_short_keys

        def spy(keys, threshold):
            calls.append(len(keys))
            return real(keys, threshold)

        monkeypatch.setattr(sorter._radixcore, "sort_short_keys", spy)
        rng = random.Random(8)
        sort_cells(short_cells(rng, 100))
        assert calls == [100]


class TestPureKernels:
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
        assert list(msd_sort_indices(keys, 16)) == expected

    def test_msd_skips_shared_prefixes(self):
        prefix = b"\x55" * 64
        keys = [prefix + bytes([b]) for b in (3, 1, 2, 0)] + [prefix]
        assert list(msd_sort_indices(keys, 0)) == [4, 3, 1, 2, 0]

    @pytest.mark.parametrize("threshold", [0, 1, 32, 10**9])
    def test_msd_on_path_keys(self, threshold):
        rng = random.Random(14)
        cells = path_cells(rng, 4000)
        keys = [cell.key for cell in cells]
        order = msd_sort_indices(keys, threshold)
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


@pytest.mark.skipif(not HAVE_COMPILED, reason="extension not built")
class TestCompiledKernels:
    def test_short_returns_index_array(self):
        from tsokey import _radixcore

        result = _radixcore.sort_short_keys([b"\x00" * 7 + b"\x01", b"\x00" * 8])
        assert isinstance(result, array.array)
        assert result.typecode == "q"
        assert list(result) == [1, 0]

    def test_short_agrees_with_pure(self):
        from tsokey import _radixcore

        rng = random.Random(11)
        keys = [bytes(rng.randrange(5) for _ in range(8)) for _ in range(5000)]
        assert list(_radixcore.sort_short_keys(keys, 16)) == list(
            msd_sort_indices(keys, 16)
        )

    def test_long_agrees_with_pure(self):
        from tsokey import _radixcore

        rng = random.Random(12)
        keys = [
            bytes(rng.randrange(3) for _ in range(rng.randrange(15)))
            for _ in range(5000)
        ]
        assert list(_radixcore.sort_long_keys(keys, 16)) == list(
            msd_sort_indices(keys, 16)
        )

    @pytest.mark.parametrize("threshold", [0, 1, 64])
    def test_threshold_extremes(self, threshold):
        from tsokey import _radixcore

        rng = random.Random(13)
        keys = [bytes(rng.randrange(4) for _ in range(6)) for _ in range(400)]
        long_keys = [k[: rng.randrange(7)] for k in keys]
        padded = [k + b"\x00" * (8 - len(k)) for k in long_keys]
        assert list(_radixcore.sort_short_keys(padded, threshold)) == sorted(
            range(len(padded)), key=padded.__getitem__
        )
        assert list(_radixcore.sort_long_keys(long_keys, threshold)) == sorted(
            range(len(long_keys)), key=long_keys.__getitem__
        )

    def test_short_rejects_wrong_length(self):
        from tsokey import _radixcore

        with pytest.raises(ValueError, match="length 8"):
            _radixcore.sort_short_keys([b"\x00" * 8, b"\x00" * 7])

    def test_rejects_non_bytes(self):
        from tsokey import _radixcore

        with pytest.raises(ValueError):
            _radixcore.sort_short_keys(["eightchr"])
        with pytest.raises(ValueError):
            _radixcore.sort_long_keys([b"ok", "not bytes"])

    def test_empty_input(self):
        from tsokey import _radixcore

        assert list(_radixcore.sort_short_keys([])) == []
        assert list(_radixcore.sort_long_keys([])) == []


@settings(max_examples=150, deadline=None)
@given(st.lists(st.binary(max_size=10)), st.sampled_from(BACKENDS))
def test_sort_cells_matches_oracle_on_random_long_keys(keys, backend):
    cells = [LongCell(key, ref) for ref, key in enumerate(keys)]
    policy = SortPolicy(switch_threshold=0, insertion_threshold=4, backend=backend)
    assert sort_cells(cells, policy) == stable_oracle(cells)


@settings(max_examples=150, deadline=None)
@given(
    st.lists(st.binary(min_size=8, max_size=8), max_size=60),
    st.sampled_from(BACKENDS),
)
def test_sort_cells_matches_oracle_on_random_short_keys(keys, backend):
    cells = [ShortCell(key, ref) for ref, key in enumerate(keys)]
    policy = SortPolicy(switch_threshold=0, insertion_threshold=4, backend=backend)
    assert sort_cells(cells, policy) == stable_oracle(cells)
