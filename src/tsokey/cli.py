"""Command-line front end: validate, encode, sort, bench, selftest.

Dataset files are JSON Lines, one value per line, shaped like the order
tree: a finite leaf takes an integer rank, numeric leaves a number or a
decimal string (big values stay exact as strings), bytes a string or
{"hex": "..."}, bool true/false, rationals {"num": p, "den": q} or "p/q",
sequence nodes an array and sum nodes a two-element [master_rank, sub]
array.  Keys leave as hex lines with --hex or length-prefixed binary
(4-byte big-endian length before each key) by default.

Exit codes: 0 success, 1 user error (bad file, bad syntax, bad element),
2 internal invariant failure.
"""

from __future__ import annotations

import argparse
import json
import random
import statistics
import sys
import time
from operator import attrgetter

from .encoder import encode, prepare
from .errors import (
    CounterOverflow,
    CounterUnderflow,
    CountTooLarge,
    DepthOverflow,
    ElementError,
    ElementMismatch,
    PrefixAnomaly,
    RankOutOfRange,
    TsokeyError,
)
from .order_model import (
    Builtin,
    BuiltinKind,
    Finite,
    Inv,
    OrderNode,
    SeqOp,
    Sum,
    item_order_at,
)
from .randgen import random_element
from .selfcheck import run_selftest
from .sorter import LongCell, ShortCell, SortPolicy, sort_cells
from .tsodl import parse as parse_order

__all__ = ["main"]

_INTERNAL_ERRORS = (CounterUnderflow, CounterOverflow, DepthOverflow, PrefixAnomaly, AssertionError)

_DEFAULT_BENCH_SIZES = [2 ** k for k in range(10, 23)]


class _ArgumentParser(argparse.ArgumentParser):
    """argparse exits with 2 on usage errors; 2 is reserved for internal bugs."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


# ---------------------------------------------------------------------------
# Dataset records


def _int_field(doc, path: str) -> int:
    if isinstance(doc, bool):
        raise ElementMismatch(f"{path}: expected an integer, got a bool")
    if isinstance(doc, int):
        return doc
    if isinstance(doc, str):
        try:
            return int(doc, 10)
        except ValueError:
            raise ElementMismatch(f"{path}: {doc!r} is not a decimal integer") from None
    raise ElementMismatch(f"{path}: expected an integer, got {type(doc).__name__}")


def _float_field(doc, path: str) -> float:
    if isinstance(doc, bool):
        raise ElementMismatch(f"{path}: expected a number, got a bool")
    if isinstance(doc, (int, float)):
        try:
            return float(doc)
        except OverflowError:
            raise ElementMismatch(f"{path}: integer too large for a float") from None
    if isinstance(doc, str):
        try:
            return float(doc)
        except ValueError:
            raise ElementMismatch(f"{path}: {doc!r} is not a number") from None
    raise ElementMismatch(f"{path}: expected a number, got {type(doc).__name__}")


def _bytes_field(doc, path: str) -> bytes:
    if isinstance(doc, str):
        return doc.encode("utf-8")
    if isinstance(doc, dict) and set(doc) == {"hex"} and isinstance(doc["hex"], str):
        try:
            return bytes.fromhex(doc["hex"])
        except ValueError:
            raise ElementMismatch(f"{path}: bad hex string") from None
    raise ElementMismatch(f'{path}: expected a string or {{"hex": ...}}')


def _rational_field(doc, path: str):
    if isinstance(doc, dict):
        if set(doc) != {"num", "den"}:
            raise ElementMismatch(f'{path}: rational object needs exactly "num" and "den"')
        num = _int_field(doc["num"], f"{path}.num")
        den = _int_field(doc["den"], f"{path}.den")
        if den <= 0:
            raise ElementMismatch(f"{path}: denominator must be positive, got {den}")
        return (num, den)
    if isinstance(doc, str):
        text = doc.strip()
        num_text, slash, den_text = text.partition("/")
        try:
            if not slash:
                return int(num_text, 10)
            num = int(num_text, 10)
            den = int(den_text, 10)
        except ValueError:
            raise ElementMismatch(f"{path}: {doc!r} is not a p/q rational") from None
        if den <= 0:
            raise ElementMismatch(f"{path}: denominator must be positive, got {den}")
        return (num, den)
    if isinstance(doc, int) and not isinstance(doc, bool):
        return doc
    raise ElementMismatch(f'{path}: expected {{"num", "den"}}, a "p/q" string or an integer')


def record_to_element(tree: OrderNode, doc, path: str = "$"):
    """Convert one parsed JSON Lines value into an element of ``tree``."""
    if isinstance(tree, Inv):
        return record_to_element(tree.child, doc, path)
    if isinstance(tree, Finite):
        return _int_field(doc, path)
    if isinstance(tree, Builtin):
        kind = tree.kind
        if kind.is_unsigned_int or kind.is_signed_int:
            return _int_field(doc, path)
        if kind.is_float:
            return _float_field(doc, path)
        if kind is BuiltinKind.BOOL:
            if isinstance(doc, bool):
                return doc
            if isinstance(doc, int) and doc in (0, 1):
                return bool(doc)
            raise ElementMismatch(f"{path}: expected true or false")
        if kind is BuiltinKind.BYTES:
            return _bytes_field(doc, path)
        if kind is BuiltinKind.RATIONAL:
            return _rational_field(doc, path)
        raise ElementMismatch(f"{path}: unhandled builtin {kind.value}")
    if isinstance(tree, SeqOp):
        if not isinstance(doc, list):
            raise ElementMismatch(f"{path}: expected an array, got {type(doc).__name__}")
        items = []
        for rank, item in enumerate(doc):
            try:
                item_order = item_order_at(tree, rank)
            except RankOutOfRange:
                raise ElementMismatch(
                    f"{path}: array of {len(doc)} items is longer than the order allows"
                ) from None
            items.append(record_to_element(item_order, item, f"{path}[{rank}]"))
        return items
    if isinstance(tree, Sum):
        if not isinstance(doc, list) or len(doc) != 2:
            raise ElementMismatch(f"{path}: expected a [master_rank, sub] array")
        master_rank = _int_field(doc[0], f"{path}[0]")
        if not 0 <= master_rank < tree.master.cardinality:
            raise ElementMismatch(
                f"{path}: master rank {master_rank} outside 0..{tree.master.cardinality - 1}"
            )
        sub = record_to_element(tree.cases[master_rank], doc[1], f"{path}[1]")
        return (master_rank, sub)
    raise ElementMismatch(f"{path}: not an order node: {type(tree).__name__}")


# ---------------------------------------------------------------------------
# Shared file plumbing


def _read_order(path: str) -> OrderNode:
    with open(path, "r", encoding="utf-8") as handle:
        return parse_order(handle.read())


def _iter_lines(path: str):
    """Yield (line_number, stripped_line) for every non-blank input line."""
    handle = sys.stdin if path == "-" else open(path, "r", encoding="utf-8")
    try:
        for number, raw in enumerate(handle, start=1):
            line = raw.rstrip("\n")
            if line.strip():
                yield number, line
    finally:
        if handle is not sys.stdin:
            handle.close()


def _encode_records(tree: OrderNode, path: str, mode: str, nan_high: bool, skip_bad: bool):
    """Yield (line_number, raw_line, key); bad lines raise or warn per skip_bad."""
    prepare(tree)
    for number, line in _iter_lines(path):
        try:
            try:
                doc = json.loads(line)
            except (ValueError, RecursionError) as exc:
                # ValueError covers JSONDecodeError and integers past the
                # interpreter's digit limit; RecursionError, deep nesting.
                raise ElementMismatch(f"not valid JSON: {exc}") from None
            element = record_to_element(tree, doc)
            key = encode(tree, element, mode, nan_high=nan_high)
        except (ElementError, CountTooLarge) as exc:
            message = f"line {number}: {exc}"
            if skip_bad:
                print(f"warning: skipped {message}", file=sys.stderr)
                continue
            raise ElementMismatch(message) from None
        yield number, line, key


# ---------------------------------------------------------------------------
# Subcommands


def _cmd_validate(args) -> int:
    tree = _read_order(args.order)
    stats = prepare(tree).stats
    variable = "yes" if stats.has_variable_length else "no"
    print(
        f"ok: depth={stats.depth} lex_path={stats.max_lex_path} "
        f"contrelex_path={stats.max_contrelex_path} variable_length={variable}"
    )
    return 0


def _cmd_encode(args) -> int:
    tree = _read_order(args.order)
    out = sys.stdout
    for _, _, key in _encode_records(tree, args.data, args.mode, args.nan_high, args.skip_bad):
        if args.hex:
            out.write(key.hex().upper() + "\n")
        else:
            out.buffer.write(len(key).to_bytes(4, "big") + key)
    out.flush()
    return 0


def _cmd_sort(args) -> int:
    tree = _read_order(args.order)
    prep = prepare(tree)
    # Short cells only when every key fits eight packed bytes; shorter
    # packed keys are zero-padded, safe because the packing is positional.
    packed = prep.packed_ok and prep.max_packed_width <= 8
    mode = "packed" if packed else "padded"
    cells: list = []
    lines: list[str] = []
    for _, line, key in _encode_records(tree, args.data, mode, args.nan_high, args.skip_bad):
        index = len(lines)
        lines.append(line)
        if packed:
            cells.append(ShortCell(key.ljust(8, b"\x00"), index))
        else:
            cells.append(LongCell(key, index))
    ordered = sort_cells(cells)
    for cell in ordered:
        if args.output == "lines":
            print(lines[cell.ref])
        else:
            print(cell.ref)
    return 0


def _cmd_selftest(args) -> int:
    results = run_selftest(seed=args.seed, golden_path=args.golden, trials=args.trials)
    failures = 0
    for result in results:
        if result.passed:
            suffix = f" ({result.detail})" if result.detail else ""
            print(f"ok   {result.name}{suffix}")
        else:
            failures += 1
            print(f"FAIL {result.name}: {result.detail}")
    print(f"{len(results) - failures}/{len(results)} checks passed")
    return 0 if failures == 0 else 1


# ---------------------------------------------------------------------------
# Benchmark


_UINT64_TREE = Builtin(BuiltinKind.UINT64)


def _bench_cells(generator: str, tree: OrderNode | None, rng: random.Random, n: int) -> list:
    """Build the cell array for one repeat; the work timed as nextify."""
    if generator == "uniform":
        return [
            ShortCell(encode(_UINT64_TREE, rng.getrandbits(64), "packed"), index)
            for index in range(n)
        ]
    if generator == "prefix":
        prefix = bytes(rng.randrange(256) for _ in range(90))
        cells = []
        for index in range(n):
            suffix_len = rng.randrange(10, 39)
            key = prefix + bytes(rng.randrange(256) for _ in range(suffix_len))
            cells.append(LongCell(key, index))
        return cells
    # custom: random elements of the supplied order, padded keys
    assert tree is not None
    cells = []
    for index in range(n):
        element = random_element(rng, tree)
        cells.append(LongCell(encode(tree, element), index))
    return cells


def _cmd_bench(args) -> int:
    tree = None
    if args.gen == "custom":
        if not args.order:
            raise ElementMismatch("--gen=custom needs --order")
        tree = _read_order(args.order)
    sizes = args.n if args.n is not None else _DEFAULT_BENCH_SIZES
    policy = SortPolicy(switch_threshold=0, backend=args.backend)
    out = sys.stdout
    out.write("generator,n,nextify_ns,radix_sort_ns,comparison_sort_ns,ratio\n")
    for n in sizes:
        if n == 0:
            out.write(f"{args.gen},0,0,0,0,0.000\n")
            continue
        nextify_runs = []
        radix_runs = []
        comparison_runs = []
        for repeat in range(args.repeat):
            rng = random.Random(args.seed * 1_000_003 + n * 1_009 + repeat)
            t0 = time.perf_counter_ns()
            cells = _bench_cells(args.gen, tree, rng, n)
            t1 = time.perf_counter_ns()
            sort_cells(cells, policy)
            t2 = time.perf_counter_ns()
            sorted(cells, key=attrgetter("key"))
            t3 = time.perf_counter_ns()
            nextify_runs.append(t1 - t0)
            radix_runs.append(t2 - t1)
            comparison_runs.append(t3 - t2)
        nextify = int(statistics.median(nextify_runs))
        radix = int(statistics.median(radix_runs))
        comparison = int(statistics.median(comparison_runs))
        ratio = comparison / max(radix, 1)
        out.write(f"{args.gen},{n},{nextify},{radix},{comparison},{ratio:.3f}\n")
        out.flush()
    return 0


# ---------------------------------------------------------------------------
# Wiring


def _positive_sizes(text: str) -> list[int]:
    sizes = []
    for chunk in text.split(","):
        value = int(chunk)
        if value < 0:
            raise ValueError("sizes must be non-negative")
        sizes.append(value)
    return sizes


def _build_parser() -> argparse.ArgumentParser:
    parser = _ArgumentParser(
        prog="tsokey",
        description="Order-preserving byte keys for tree structured orders.",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    p_validate = commands.add_parser("validate", help="check an order file and print its stats")
    p_validate.add_argument("order", help="order definition file")
    p_validate.set_defaults(func=_cmd_validate)

    p_encode = commands.add_parser("encode", help="encode a JSON Lines dataset into keys")
    p_encode.add_argument("order", help="order definition file")
    p_encode.add_argument("data", help="JSON Lines dataset ('-' for stdin)")
    p_encode.add_argument("--mode", choices=("padded", "packed"), default="padded")
    p_encode.add_argument("--hex", action="store_true", help="hex lines instead of binary")
    p_encode.add_argument("--skip-bad", action="store_true", help="warn and continue on bad lines")
    p_encode.add_argument("--nan-high", action="store_true", help="allow NaN, sorting above +inf")
    p_encode.set_defaults(func=_cmd_encode)

    p_sort = commands.add_parser("sort", help="sort a JSON Lines dataset by an order")
    p_sort.add_argument("order", help="order definition file")
    p_sort.add_argument("data", help="JSON Lines dataset ('-' for stdin)")
    p_sort.add_argument("--output", choices=("lines", "indices"), default="lines")
    p_sort.add_argument("--skip-bad", action="store_true", help="warn and continue on bad lines")
    p_sort.add_argument("--nan-high", action="store_true", help="allow NaN, sorting above +inf")
    p_sort.set_defaults(func=_cmd_sort)

    p_bench = commands.add_parser("bench", help="time the radix path against the comparison sort")
    p_bench.add_argument("--gen", choices=("uniform", "prefix", "custom"), default="uniform")
    p_bench.add_argument("--order", help="order file for --gen=custom")
    p_bench.add_argument("--n", type=_positive_sizes, default=None, help="comma-separated sizes")
    p_bench.add_argument("--repeat", type=int, default=3, help="repeats per size (median wins)")
    p_bench.add_argument("--seed", type=int, default=0)
    p_bench.add_argument("--backend", choices=("auto", "compiled", "pure"), default="auto")
    p_bench.set_defaults(func=_cmd_bench)

    p_selftest = commands.add_parser("selftest", help="run the built-in checks")
    p_selftest.add_argument("--seed", type=int, default=0)
    p_selftest.add_argument("--trials", type=int, default=2000, help="random equivalence trials")
    p_selftest.add_argument("--golden", default=None, help="alternative golden-table file")
    p_selftest.set_defaults(func=_cmd_selftest)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except _INTERNAL_ERRORS as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        return 1
    except (TsokeyError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
