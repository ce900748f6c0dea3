"""Stable sorting of encoded keys carried in cells.

Keys travel in cells that pair the key bytes with an opaque reference (a
row id, an input line number, ...).  Short cells carry exactly eight key
bytes, long cells any number.  Because the keys sort correctly under plain
bytewise comparison, ``sort_cells`` is the stable sort of the cells by
their key bytes that ``_pure_sort.sort_by_key`` gives ``tsokey sort`` too:
a counting sort over the distinct keys when keys repeat, the built-in
timsort otherwise.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import attrgetter

from ._pure_sort import sort_by_key
from .errors import MixedCellKinds

# No compiled core ships; kept because perfbench's traced harness reads it.
_radixcore = None

# Always False; kept because perfbench's worker imports it on every run.
HAVE_COMPILED = False

__all__ = ["ShortCell", "LongCell", "HAVE_COMPILED", "sort_cells"]


# Both cells stay frozen slotted dataclasses (eq, hash, repr, pickling and
# ``dataclasses.replace`` are the generated ones), unlike the package's other
# records: their tests bind that contract (``FrozenInstanceError``,
# ``dataclasses.fields`` and ``replace``), and ``tsokey validate``, ``encode``
# and ``sort`` never load this module, so none of them imports ``dataclasses``.
# Only ``__init__`` is written here.  It stores each field through its slot's member descriptor,
# taken from the final class below, instead of the generated
# ``object.__setattr__`` per field, about 30% of building a cell.


@dataclass(frozen=True, slots=True)
class ShortCell:
    """Eight key bytes (one big-endian machine word) plus a reference.

    A key of any other length raises ``ValueError``.
    """

    key: bytes
    ref: int

    def __init__(self, key: bytes, ref: int) -> None:
        if len(key) != 8:
            raise ValueError(f"short cell key must be 8 bytes, got {len(key)}")
        _set_short_key(self, key)
        _set_short_ref(self, ref)


@dataclass(frozen=True, slots=True)
class LongCell:
    """A key of any length plus a reference."""

    key: bytes
    ref: int

    def __init__(self, key: bytes, ref: int) -> None:
        _set_long_key(self, key)
        _set_long_ref(self, ref)

    @property
    def key_length(self) -> int:
        return len(self.key)


# ``slots=True`` builds a new class, so the descriptors come from the final one.
_set_short_key, _set_short_ref = ShortCell.key.__set__, ShortCell.ref.__set__
_set_long_key, _set_long_ref = LongCell.key.__set__, LongCell.ref.__set__


def _check_cells(cells: list) -> None:
    # One C-level pass settles the usual uniform array; the loop below runs
    # only to name what is wrong with a mixed one (or to accept subclasses).
    types = set(map(type, cells))
    if types == {LongCell} or types == {ShortCell}:
        return
    first_short = isinstance(cells[0], ShortCell)
    for cell in cells:
        if isinstance(cell, ShortCell) != first_short:
            raise MixedCellKinds("short and long cells in one array")
        if not isinstance(cell, (ShortCell, LongCell)):
            raise MixedCellKinds(f"not a cell: {type(cell).__name__}")


def sort_cells(cells: list) -> list:
    """Return the cells in stable ascending order of bytewise key comparison."""
    if cells:
        _check_cells(cells)
    return sort_by_key(cells, attrgetter("key"))
