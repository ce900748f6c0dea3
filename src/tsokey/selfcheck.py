"""Built-in correctness checks behind the selftest command.

Five check families, each reported as named results rather than exceptions
so the CLI can print one line per check and exit nonzero if any failed:

* golden tables: the eight bundled orderings of the short binary strings,
  each verified through the reference comparator and through the
  encode-then-compare-bytes pipeline;
* count headers: the 2**400 worked example plus bounded monotonicity;
* rationals: brute-force agreement with exact fraction order;
* randomized oracle equivalence on seeded random trees and element pairs;
* open keys: on seeded open trees, open keys sort elements as padded keys do.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from fractions import Fraction
from functools import cmp_to_key
from importlib import resources
from math import gcd
from pathlib import Path

from .comparator import Ordering, compare, compare_keys
from .encoder import _count_header_unbounded, hierar_count_header, prepare, rational_key
from .randgen import random_element, random_pair, random_tree
from .tsodl import parse

__all__ = [
    "CheckResult",
    "GoldenTable",
    "load_golden_tables",
    "check_golden_table",
    "run_selftest",
]


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str = ""


@dataclass(frozen=True)
class GoldenTable:
    name: str
    order_text: str
    expected: tuple[str, ...]


def _bit_list(text: str) -> list[int]:
    return [int(ch) for ch in text]


def load_golden_tables(path: str | None = None) -> tuple[list[str], list[GoldenTable]]:
    """Read the golden-table file; raises ValueError naming a bad table."""
    if path is None:
        raw = resources.files("tsokey").joinpath("data/golden_tables.json").read_text("utf-8")
    else:
        raw = Path(path).read_text("utf-8")
    doc = json.loads(raw)
    universe = doc["universe"]
    if not isinstance(universe, list) or not all(
        isinstance(item, str) and set(item) <= {"0", "1"} for item in universe
    ):
        raise ValueError("golden universe must be a list of binary strings")
    tables = []
    for entry in doc["tables"]:
        name = entry.get("name", "<unnamed>")
        order_text = entry.get("order")
        expected = entry.get("expected")
        if not isinstance(order_text, str) or not isinstance(expected, list):
            raise ValueError(f"golden table {name!r}: missing order text or expected column")
        if sorted(expected) != sorted(universe):
            raise ValueError(f"golden table {name!r}: expected column is not a permutation of the universe")
        tables.append(GoldenTable(name, order_text, tuple(expected)))
    return universe, tables


def check_golden_table(universe: list[str], table: GoldenTable) -> CheckResult:
    """Verify one expected column through both pipelines."""
    tree = parse(table.order_text)
    elements = {text: _bit_list(text) for text in universe}

    def oracle(a: str, b: str) -> int:
        return compare(tree, elements[a], elements[b])

    by_oracle = sorted(universe, key=cmp_to_key(oracle))
    encode = prepare(tree).plan()
    keys = {text: encode(elements[text]) for text in universe}
    by_key = sorted(universe, key=keys.__getitem__)

    failures = []
    if tuple(by_oracle) != table.expected:
        failures.append(f"comparator produced {by_oracle}")
    if tuple(by_key) != table.expected:
        failures.append(f"encoded keys produced {by_key}")
    return CheckResult(f"golden:{table.name}", not failures, "; ".join(failures))


def _check_header_example() -> CheckResult:
    n = 2 ** 400
    expected = bytes((0x80, 0x33)) + n.to_bytes(51, "big")
    got = _count_header_unbounded(n)
    ok = got == expected
    detail = "" if ok else f"2**400 header is {got.hex()} not {expected.hex()}"
    return CheckResult("header:example-2**400", ok, detail)


def _check_header_monotonic(rng: random.Random, adjacent_top: int, pairs: int) -> CheckResult:
    previous = hierar_count_header(0)
    for n in range(1, adjacent_top + 1):
        current = hierar_count_header(n)
        if not previous < current or current.startswith(previous):
            return CheckResult(
                "header:monotonic", False, f"header({n - 1}) does not sort strictly below header({n})"
            )
        previous = current
    top = (1 << 64) - 1
    for _ in range(pairs):
        a = rng.randrange(0, top + 1)
        b = rng.randrange(0, top + 1)
        if a == b:
            continue
        if a > b:
            a, b = b, a
        ha, hb = hierar_count_header(a), hierar_count_header(b)
        if not ha < hb or hb.startswith(ha):
            return CheckResult(
                "header:monotonic", False, f"header({a}) does not sort strictly below header({b})"
            )
    return CheckResult("header:monotonic", True)


def _check_rationals(max_abs_num: int, max_den: int) -> CheckResult:
    fractions = []
    for den in range(1, max_den + 1):
        for num in range(-max_abs_num, max_abs_num + 1):
            if gcd(abs(num), den) == 1:
                fractions.append(Fraction(num, den))
    fractions.sort()
    keys = [rational_key(f.numerator, f.denominator) for f in fractions]
    for i in range(len(keys) - 1):
        if not keys[i] < keys[i + 1] or keys[i + 1].startswith(keys[i]):
            return CheckResult(
                "rational:order",
                False,
                f"key({fractions[i]}) does not sort strictly below key({fractions[i + 1]})",
            )
    return CheckResult("rational:order", True, f"{len(fractions)} fractions in order")


def _check_oracle_equivalence(rng: random.Random, trials: int) -> CheckResult:
    for trial in range(trials):
        tree = random_tree(rng, rng.randrange(0, 5))
        x, y = random_pair(rng, tree, length_cap=4)
        verdict = compare(tree, x, y)
        encode = prepare(tree).plan()
        key_x = encode(x)
        key_y = encode(y)
        if len(key_x) % 3 or len(key_y) % 3:
            return CheckResult(
                "oracle:equivalence", False, f"trial {trial}: padded key length not a multiple of 3"
            )
        if compare_keys(key_x, key_y) is not Ordering(int(verdict)):
            return CheckResult(
                "oracle:equivalence",
                False,
                f"trial {trial}: comparator says {verdict.name}, keys disagree for {x!r} / {y!r}",
            )
    return CheckResult("oracle:equivalence", True, f"{trials} trials")


def _check_open_equivalence(rng: random.Random, trials: int) -> CheckResult:
    """On the open trees among ``trials`` seeded ones, open keys give the stable argsort padded keys give."""
    checked = variable = 0
    for trial in range(trials):
        tree = random_tree(rng, rng.randrange(0, 5))
        prepared = prepare(tree)
        if not prepared.open_ok:
            continue
        values = [random_element(rng, tree, length_cap=4) for _ in range(8)]
        by_padded, by_open = (
            sorted(range(len(values)), key=list(map(prepared.plan(mode), values)).__getitem__)
            for mode in ("padded", "open")
        )
        if by_open != by_padded:
            detail = f"trial {trial}: open keys sort {values!r} as {by_open}, padded keys as {by_padded}"
            return CheckResult("open:equivalence", False, detail)
        checked += 1
        variable += not prepared.packed_ok
    return CheckResult("open:equivalence", True, f"{checked} open trees, {variable} of them variable-length")


def _guard(name: str, fn, *args) -> CheckResult:
    try:
        return fn(*args)
    except Exception as exc:  # a crash is a failed check, not a crash of selftest
        return CheckResult(name, False, f"{type(exc).__name__}: {exc}")


def run_selftest(
    seed: int = 0,
    golden_path: str | None = None,
    trials: int = 2000,
) -> list[CheckResult]:
    """Run every check family; deterministic for a given seed."""
    rng = random.Random(seed)
    results: list[CheckResult] = []

    try:
        universe, tables = load_golden_tables(golden_path)
    except Exception as exc:
        results.append(CheckResult("golden:load", False, f"{type(exc).__name__}: {exc}"))
    else:
        for table in tables:
            results.append(_guard(f"golden:{table.name}", check_golden_table, universe, table))

    results.append(_guard("header:example-2**400", _check_header_example))
    results.append(_guard("header:monotonic", _check_header_monotonic, rng, 4096, 2000))
    results.append(_guard("rational:order", _check_rationals, 20, 12))
    results.append(_guard("oracle:equivalence", _check_oracle_equivalence, rng, trials))
    results.append(_guard("open:equivalence", _check_open_equivalence, rng, trials))
    return results
