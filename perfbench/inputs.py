"""Seeded inputs for the benchmark workloads.

Every generator draws only from ``random.Random(seed)``, so one seed gives
the same input bytes on every machine and Python 3 version.  Each returns a
``WorkloadInput``: the files the timed process reads, the record count, and
the generator's own view of the records that ``gate`` checks outputs
against (elements for the CLI workloads, key bytes for the library one).
"""

from __future__ import annotations

import bisect
import itertools
import json
import random
import string
from dataclasses import dataclass, field
from pathlib import Path

from tsokey import encode, parse

SORT_ORDER = "next(2, 3, (int32 desc, bytes))"
NESTED_ORDER = (
    "next(4, 5, (uint32, lex(0, omega, ([bytes])), hierar(0, omega, ([int16 desc])), "
    "contrelex(0, omega, ([rational]))))"
)
PATHS_ORDER = "bytes"
PATH_BYTES = 42

# Record counts at full scale.  Tests pass smaller ones.
SIZES = {
    "sort_score_name": 50_000,
    "encode_nested": 20_000,
    "sortkeys_paths": 2**18,
}

# Workloads run through ``tsokey.cli.main``; the rest through the library.
CLI_WORKLOADS = ("sort_score_name", "encode_nested")


@dataclass
class WorkloadInput:
    name: str
    records: int
    order_text: str
    order_path: Path
    data_path: Path
    elements: list = field(default_factory=list)
    keys: list = field(default_factory=list)

    @property
    def tree(self):
        return parse(self.order_text)

    def cli_argv(self) -> list[str]:
        if self.name == "sort_score_name":
            return ["sort", str(self.order_path), str(self.data_path), "--output", "indices"]
        return ["encode", str(self.order_path), str(self.data_path)]


def _zipf(rng: random.Random, size: int, exponent: float):
    """Return a draw() giving ranks 0..size-1, rank r with weight 1/(r+1)**exponent."""
    cumulative = list(itertools.accumulate(1.0 / rank**exponent for rank in range(1, size + 1)))
    total = cumulative[-1]
    last = size - 1

    def draw() -> int:
        return min(bisect.bisect_left(cumulative, rng.random() * total), last)

    return draw


def _words(rng: random.Random, count: int, min_len: int, max_len: int) -> list[str]:
    """count distinct random words; word i is min_len + i % span letters long.

    Lengths depend on the rank only, so a Zipf draw over the list has the
    same length distribution for every seed.
    """
    span = max_len - min_len + 1
    seen: set[str] = set()
    words = []
    while len(words) < count:
        length = min_len + len(words) % span
        word = "".join(rng.choice(string.ascii_lowercase) for _ in range(length))
        if word not in seen:
            seen.add(word)
            words.append(word)
    return words


def _write_jsonl(path: Path, docs) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        for doc in docs:
            handle.write(json.dumps(doc, separators=(", ", ": ")))
            handle.write("\n")


def _sort_score_name(rng: random.Random, n: int):
    """Scores with heavy ties (400 values) and Zipf-skewed names (3000 words)."""
    vocabulary = _words(rng, 3000, 3, 10)
    name_rank = _zipf(rng, len(vocabulary), 1.0)
    docs, elements = [], []
    for _ in range(n):
        score = rng.randrange(400) * 25 - 5000
        name = vocabulary[name_rank()]
        docs.append([score, name])
        elements.append([score, name.encode("ascii")])
    return docs, elements


def _encode_nested(rng: random.Random, n: int):
    """Four-field records; the first field has 16 values so later fields decide."""
    firsts = [rng.getrandbits(32) for _ in range(16)]
    vocabulary = _words(rng, 200, 1, 8)
    word_rank = _zipf(rng, len(vocabulary), 1.1)
    docs, elements = [], []
    for _ in range(n):
        first = rng.choice(firsts)
        words = [vocabulary[word_rank()] for _ in range(rng.randint(0, 4))]
        shorts = [rng.randint(-300, 300) for _ in range(rng.randint(0, 5))]
        fractions = [(rng.randint(-200, 200), rng.randint(1, 50)) for _ in range(rng.randint(0, 3))]
        # Both JSON spellings of a rational appear in the data.
        spelled = [
            {"num": p, "den": q} if rng.random() < 0.5 else f"{p}/{q}" for p, q in fractions
        ]
        docs.append([first, words, shorts, spelled])
        elements.append([first, [w.encode("ascii") for w in words], shorts, fractions])
    return docs, elements


def _directories(rng: random.Random) -> list[str]:
    """Six directory prefixes, 20 to 35 bytes long, each ending in '/'."""
    dirs = []
    for length in (20, 23, 26, 29, 32, 35):
        text = "/"
        while len(text) < length:
            part = min(rng.randint(3, 8), length - len(text) - 1)
            text += "".join(rng.choice(string.ascii_lowercase) for _ in range(max(part, 1))) + "/"
        dirs.append(text[: length - 1] + "/")
    return dirs


def _sortkeys_paths(rng: random.Random, n: int):
    """n padded keys of 42-byte file paths; 16384 distinct paths drawn Zipf-skewed.

    Every path has the same length, so the cost of a duplicate group does not
    depend on which path the seed puts at the head of the Zipf ranking.
    """
    dirs = _directories(rng)
    extensions = ("py", "c", "h", "md", "rs", "go")
    distinct = min(16_384, max(2, n // 16))
    paths: list[bytes] = []
    seen: set[bytes] = set()
    while len(paths) < distinct:
        directory, extension = rng.choice(dirs), rng.choice(extensions)
        stem_len = PATH_BYTES - len(directory) - len(extension) - 4
        stem = "".join(rng.choice(string.ascii_lowercase) for _ in range(stem_len))
        path = f"{directory}{stem}_{rng.randrange(100):02d}.{extension}".encode("ascii")
        if path not in seen:
            seen.add(path)
            paths.append(path)
    tree = parse(PATHS_ORDER)
    distinct_keys = [encode(tree, path) for path in paths]
    path_rank = _zipf(rng, distinct, 1.0)
    return [distinct_keys[path_rank()] for _ in range(n)]


def write_keys(path: Path, keys: list[bytes]) -> None:
    """Length-prefixed keys, the binary format of ``tsokey encode``."""
    with open(path, "wb") as handle:
        for key in keys:
            handle.write(len(key).to_bytes(4, "big"))
            handle.write(key)


def read_keys(stream) -> list[bytes]:
    """Keys from a binary stream of length-prefixed keys, read key by key."""
    keys = []
    while header := stream.read(4):
        length = int.from_bytes(header, "big")
        key = stream.read(length)
        if len(header) != 4 or len(key) != length:
            raise ValueError("truncated key stream")
        keys.append(key)
    return keys


def generate(name: str, seed: int, workdir: Path, records: int | None = None) -> WorkloadInput:
    """Write the input files of one workload under workdir and return them."""
    n = SIZES[name] if records is None else records
    rng = random.Random(f"{name}:{seed}")
    workdir.mkdir(parents=True, exist_ok=True)
    order_text = {
        "sort_score_name": SORT_ORDER,
        "encode_nested": NESTED_ORDER,
        "sortkeys_paths": PATHS_ORDER,
    }[name]
    order_path = workdir / f"{name}.tsodl"
    order_path.write_text(order_text + "\n", encoding="utf-8")
    if name == "sortkeys_paths":
        keys = _sortkeys_paths(rng, n)
        data_path = workdir / f"{name}.keys"
        write_keys(data_path, keys)
        return WorkloadInput(name, n, order_text, order_path, data_path, keys=keys)
    make = _sort_score_name if name == "sort_score_name" else _encode_nested
    docs, elements = make(rng, n)
    data_path = workdir / f"{name}.jsonl"
    _write_jsonl(data_path, docs)
    return WorkloadInput(name, n, order_text, order_path, data_path, elements=elements)
