"""Pure-Python sorting kernel; the fallback when the C core is absent.

The padded and packed key formats are built so that plain bytewise
comparison is the tree order, so a stable argsort by the key bytes is all a
kernel has to do.  Under CPython the fastest one is the interpreter's own
timsort, which runs in C and compares whole keys with memcmp; a radix pass
written in Python pays an interpreted loop per shared byte and loses to it
on every key shape measured (short, long, shared-prefix, duplicate-heavy).
"""

from __future__ import annotations

__all__ = ["msd_sort_indices"]


def msd_sort_indices(keys: list[bytes], insertion_threshold: int = 32) -> list[int]:
    """Stable ascending permutation of range(len(keys)) by bytewise key order.

    insertion_threshold is accepted for parity with the compiled kernels'
    signature and has no effect here.
    """
    return sorted(range(len(keys)), key=keys.__getitem__)
