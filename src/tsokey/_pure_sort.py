"""The stable sort by key bytes behind ``tsokey sort`` and ``sort_cells``.

The padded, packed and open key formats are built so that plain bytewise
comparison is the tree order, so a stable sort by the key bytes is all a
sort has to do.  ``sort_by_key`` picks one of two ways from the keys it is
given:

* **Grouping**, when keys repeat.  A counting sort over the distinct keys:
  each item is appended to its key's bucket in input order (a dict lookup,
  which compares a repeated key by identity or one memcmp), only the
  distinct keys are sorted, and the buckets are joined in their order.
  Every step is a C-level call; the interpreter runs no loop per item.
* **Timsort**, the interpreter's own ``sorted``, otherwise.  It runs in C
  and compares whole keys with memcmp; where keys are mostly distinct,
  grouping adds a bucket per key and lost 2-4x to it.

The choice is made from the input, with no setting.  The first ``PROBE``
keys go into a set; if more than ``MAX_DISTINCT_SHARE`` of them are
distinct, or they are already in order (timsort takes a sorted run in one
pass), the sort is timsort.  Otherwise grouping starts, and checks the
share again each time the grouped prefix doubles (``PROBE``, ``2 * PROBE``,
...), short of the whole input; past the share it drops the buckets and
runs timsort.  A key that cannot be hashed (a ``bytearray``) also sends the
sort to timsort, wherever it sits in the input.

The prefix decides, so grouping pays where repeats show early, as in a
Zipf-skewed input; uniform repeats over more distinct keys than ``PROBE``
look distinct in the probe and go to timsort.  The worst case is a
repeat-heavy prefix followed by distinct keys: at most the grouping of all
n items and a sort of their distinct keys, or the grouping of fewer than n
items and then timsort.  On 2**18 keys of 42 bytes (half drawn from 100
keys, then distinct) both measured 2.5-3.3x the timsort alone.  Grouping
breaks even at about 10% distinct keys, so an input that brings a new key
at a steady 25-40% of positions passes every check and loses 1.7-2.0x
(README, "Sorting").

A radix pass written in Python pays an interpreted loop per shared byte and
loses to both on every key shape measured (short, long, shared-prefix,
duplicate-heavy), so there is none.
"""

from __future__ import annotations

from collections import defaultdict
from itertools import islice
from operator import le

__all__ = ["msd_sort_indices", "sort_by_key"]

# Keys read before the first choice, and the grouped prefix of the first re-check.
PROBE = 4096
# Grouping goes on while at most this share of the keys seen is distinct.
MAX_DISTINCT_SHARE = 0.5


def sort_by_key(items, key) -> list:
    """``sorted(items, key=key)``: the items in stable ascending order of their keys.

    ``items`` is a sized iterable that can be iterated more than once.
    """
    groups = _groups(items, key)
    if groups is None:
        return sorted(items, key=key)
    out = []
    # Popping each bucket as it is copied keeps the peak at buckets plus output.
    any(map(out.extend, map(groups.pop, sorted(groups))))
    return out


def _groups(items, key) -> dict | None:
    """Every item in its key's bucket, in input order; None where grouping would lose."""
    n = len(items)
    try:
        probe = list(islice(map(key, items), PROBE))
        if len(set(probe)) > MAX_DISTINCT_SHARE * len(probe):
            return None
        if all(map(le, probe, islice(probe, 1, None))):
            return None
        groups = defaultdict(list)
        # islice comes first, so map stops before taking an item past it.
        keys, rest = map(key, items), iter(items)
        seen, step = 0, PROBE
        while seen < n:
            any(map(list.append, map(groups.__getitem__, islice(keys, step)), rest))
            seen += step
            step = seen
            if seen < n and len(groups) > MAX_DISTINCT_SHARE * seen:
                return None
    except TypeError:  # a key that cannot be hashed
        return None
    return groups


# The name predates the present body; perfbench traces it as the sort kernel.
def msd_sort_indices(keys: list[bytes]) -> list[int]:
    """Stable ascending permutation of range(len(keys)) by bytewise key order."""
    return sort_by_key(range(len(keys)), keys.__getitem__)
