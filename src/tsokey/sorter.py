"""Sorting of encoded keys: MSD radix with a compiled core when available.

Keys travel in cells that pair the key bytes with an opaque reference (a
row id, an input line number, ...).  Short cells carry exactly eight key
bytes, long cells any number.  ``sort_cells`` picks between a comparison
sort of the cells (Python's built-in timsort) below the policy's switch
threshold and an argsort of their keys above it.  The argsort runs the MSD
radix kernels of the C extension ``tsokey._radixcore`` when the build
produced it; otherwise ``tsokey._pure_sort`` does it with the built-in
timsort, in C, so a pure-Python install needs no build step.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import attrgetter

from . import _pure_sort
from .errors import MixedCellKinds

try:
    from . import _radixcore
except ImportError:  # pure-Python install
    _radixcore = None

HAVE_COMPILED = _radixcore is not None

__all__ = [
    "ShortCell",
    "LongCell",
    "SortPolicy",
    "HAVE_COMPILED",
    "choose_algorithm",
    "sort_cells",
]


@dataclass(frozen=True, slots=True)
class ShortCell:
    """Eight key bytes (one big-endian machine word) plus a reference."""

    key: bytes
    ref: int

    def __post_init__(self):
        if len(self.key) != 8:
            raise ValueError(f"short cell key must be 8 bytes, got {len(self.key)}")


@dataclass(frozen=True, slots=True)
class LongCell:
    """A key of any length plus a reference."""

    key: bytes
    ref: int

    @property
    def key_length(self) -> int:
        return len(self.key)


@dataclass(frozen=True, slots=True)
class SortPolicy:
    """Tuning knobs for sort_cells.

    Arrays shorter than switch_threshold go to the comparison sort; buckets
    of the compiled radix kernels shorter than insertion_threshold finish
    with insertion sort.  backend picks the kernels: "auto" prefers the
    compiled core and falls back to pure Python, the other two values force
    one of them.
    """

    switch_threshold: int = 64
    insertion_threshold: int = 32
    backend: str = "auto"


DEFAULT_POLICY = SortPolicy()


def choose_algorithm(n: int, policy: SortPolicy = DEFAULT_POLICY) -> str:
    """"comparison" or "radix" for an array of n cells."""
    return "comparison" if n < policy.switch_threshold else "radix"


def _cell_kind(cells: list) -> str:
    # One C-level pass settles the usual uniform array; the loop below runs
    # only to name what is wrong with a mixed one (or to accept subclasses).
    types = set(map(type, cells))
    if types == {LongCell}:
        return "long"
    if types == {ShortCell}:
        return "short"
    first_short = isinstance(cells[0], ShortCell)
    for cell in cells:
        if isinstance(cell, ShortCell) != first_short:
            raise MixedCellKinds("short and long cells in one array")
        if not isinstance(cell, (ShortCell, LongCell)):
            raise MixedCellKinds(f"not a cell: {type(cell).__name__}")
    return "short" if first_short else "long"


def _resolve_backend(policy: SortPolicy):
    if policy.backend == "auto":
        return _radixcore if HAVE_COMPILED else _pure_sort
    if policy.backend == "compiled":
        if not HAVE_COMPILED:
            raise RuntimeError("compiled sorting core is not available in this install")
        return _radixcore
    if policy.backend == "pure":
        return _pure_sort
    raise ValueError(f"unknown backend {policy.backend!r}")


def sort_cells(cells: list, policy: SortPolicy = DEFAULT_POLICY) -> list:
    """Return the cells in stable ascending order of bytewise key comparison."""
    if not cells:
        return []
    kind = _cell_kind(cells)
    if choose_algorithm(len(cells), policy) == "comparison":
        return sorted(cells, key=attrgetter("key"))
    backend = _resolve_backend(policy)
    keys = list(map(attrgetter("key"), cells))
    if kind == "short" and backend is _radixcore:
        order = _radixcore.sort_short_keys(keys, policy.insertion_threshold)
    elif backend is _radixcore:
        order = _radixcore.sort_long_keys(keys, policy.insertion_threshold)
    else:
        order = _pure_sort.msd_sort_indices(keys, policy.insertion_threshold)
    return list(map(cells.__getitem__, order))
