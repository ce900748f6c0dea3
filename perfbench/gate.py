"""Correctness gate: checks each workload's output against its generator.

Every check returns the number of records whose output is missing or
wrong, so the caller can report it against the records attempted.  None of
this runs inside the timed region.
"""

from __future__ import annotations

import hashlib
import io
import random

from tsokey import compare, compare_keys
from tsokey.errors import TsokeyError

from inputs import WorkloadInput, read_keys

PAIR_SAMPLE = 4000  # pairs per encode output compared against the reference


def check_sort(output: list[int], n: int, cmp) -> int:
    """Failed records of a claimed stable sort of records 0..n-1.

    ``output`` must be a permutation of range(n).  ``cmp(a, b)`` compares
    records a and b (negative, zero, positive); every adjacent pair must be
    non-decreasing, and equal records must keep their input order.
    """
    valid = {index for index in output if 0 <= index < n}
    failed = (n - len(valid)) + (len(output) - len(valid))
    for a, b in zip(output, output[1:]):
        if not (0 <= a < n and 0 <= b < n):
            continue
        verdict = cmp(a, b)
        if verdict > 0 or (verdict == 0 and a > b):
            failed += 1
    return min(failed, n)


def check_keys(keys: list[bytes], inp: WorkloadInput, seed: int) -> int:
    """Failed records of an encode run: key shape plus a seeded pair sample.

    Each padded key's length is a multiple of 3, and for a sample of pairs
    ``compare_keys`` agrees with the reference ``compare`` on the
    generator's own elements.
    """
    n = inp.records
    elements = inp.elements
    bad = {i for i, key in enumerate(keys[:n]) if not key or len(key) % 3}
    if len(keys) == n:
        tree = inp.tree
        rng = random.Random(f"gate:{seed}")
        for _ in range(PAIR_SAMPLE):
            i, j = rng.randrange(n), rng.randrange(n)
            try:
                agree = compare_keys(keys[i], keys[j]) == compare(tree, elements[i], elements[j])
            except TsokeyError:
                agree = False
            if not agree:
                bad.update((i, j))
    return min(n, len(bad) + abs(n - len(keys)))


def parse_indices(data: bytes) -> list[int]:
    return [int(line) for line in data.split()]


def cells_output(refs: list[int], keys: list[bytes]) -> bytes:
    """Byte form of a sorted cell list: each ref and its key, in output order."""
    parts = []
    for ref in refs:
        key = keys[ref] if 0 <= ref < len(keys) else b""
        parts.append(ref.to_bytes(4, "big") + len(key).to_bytes(4, "big") + key)
    return b"".join(parts)


def output_digest(inp: WorkloadInput, output: bytes) -> str:
    """SHA-256 of a workload's output; for sorted cells, refs with their keys."""
    if inp.name == "sortkeys_paths":
        refs = [int.from_bytes(output[i : i + 4], "big") for i in range(0, len(output), 4)]
        output = cells_output(refs, inp.keys)
    return hashlib.sha256(output).hexdigest()


def check_output(inp: WorkloadInput, output: bytes, seed: int) -> int:
    """Failed records of one workload output, in its on-disk form."""
    n = inp.records
    if inp.name == "sort_score_name":
        tree = inp.tree
        elements = inp.elements
        try:
            indices = parse_indices(output)
        except ValueError:
            return n
        return check_sort(indices, n, lambda a, b: compare(tree, elements[a], elements[b]))
    if inp.name == "encode_nested":
        try:
            keys = read_keys(io.BytesIO(output))
        except ValueError:
            return n
        return check_keys(keys, inp, seed)
    keys = inp.keys
    refs = [int.from_bytes(output[i : i + 4], "big") for i in range(0, len(output), 4)]
    return check_sort(refs, n, lambda a, b: (keys[a] > keys[b]) - (keys[a] < keys[b]))
