"""The argsort behind ``tsokey sort``.

The padded and packed key formats are built so that plain bytewise
comparison is the tree order, so a stable argsort by the key bytes is all a
sort has to do.  Under CPython the fastest one is the interpreter's own
timsort, which runs in C and compares whole keys with memcmp; a radix pass
written in Python pays an interpreted loop per shared byte and loses to it
on every key shape measured (short, long, shared-prefix, duplicate-heavy).
"""

from __future__ import annotations

__all__ = ["msd_sort_indices"]


# The name predates the timsort body; perfbench traces it as the sort kernel.
def msd_sort_indices(keys: list[bytes]) -> list[int]:
    """Stable ascending permutation of range(len(keys)) by bytewise key order."""
    return sorted(range(len(keys)), key=keys.__getitem__)
