"""Command-line front end: validate, encode, sort, bench, selftest.

Order files are UTF-8 text in the definition language of ``tsodl``.
Dataset files are JSON Lines, one value per line, shaped like the order
tree.  Each line is read by ``_scan``: the C scanner ``json.loads``
runs, called directly, whose result stands only when the line is short
and the scan read all of it from index 0; every other line goes through
``json.loads``, so values and errors are those of ``json.loads``.  The
value goes straight to the order's encode plan, compiled once per run
(``PreparedOrder.plan`` with ``doc=True``, the plan ``encoder.encode_doc``
runs), which reads the dataset's JSON forms (decimal strings, {"hex":
"..."}, {"num": p, "den": q}, "p/q", arrays for sequence and sum nodes)
as it encodes; README "Dataset format" lists them.  The plan is Python
source generated for the order and run once through ``exec``; its
``source`` attribute shows the code each record goes through.
A key depends on its record alone, so ``sort``, which holds every key
(and, for ``--output lines``, every line) until it sorts, keeps a memo
from line text to key: each distinct line is scanned and encoded once,
and equal lines share one key object.  It sorts on packed keys where the
tree allows them, else on open keys (``encode --mode open``), else padded.
``encode`` streams and encodes every line, so its memory does not grow
with the input: the plan's leaf memos are bounded (``encoder.MEMO_ENTRIES``
fragments per leaf).  Input is read ``_CHUNK`` raw lines at a time, and each
batch is encoded in one loop before any of it is written.  Keys leave
as hex lines with --hex or length-prefixed binary (4-byte big-endian
length before each key) by default.  Output goes out in one write per
batch, or per ``_CHUNK`` lines of a sorted order, so a write holds at
most ``_CHUNK`` lines or keys: fewer when its batch held blank or
skipped lines.

Exit codes: 0 success, 1 user error (bad file, bad syntax, bad element),
2 internal invariant failure.

What only ``bench`` and ``selftest`` use is imported inside them, so
``validate``, ``encode`` and ``sort`` load none of it.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from functools import partial
from itertools import islice
from operator import attrgetter
from typing import TYPE_CHECKING

from . import _pure_sort
from .encoder import prepare
from .errors import (
    CounterOverflow,
    CounterUnderflow,
    DepthOverflow,
    ElementError,
    ElementMismatch,
    PrefixAnomaly,
    SourceSpan,
    TsodlSyntaxError,
    TsokeyError,
)
from .order_model import Builtin, BuiltinKind, OrderNode
from .tsodl import parse as parse_order

if TYPE_CHECKING:  # bench imports it when it runs
    import random

__all__ = ["main"]

_INTERNAL_ERRORS = (CounterUnderflow, CounterOverflow, DepthOverflow, PrefixAnomaly, AssertionError)

_DEFAULT_BENCH_SIZES = [2 ** k for k in range(10, 23)]

_CHUNK = 1024  # input lines per batch, and at most this many output lines (or key frames) per write


class _ArgumentParser(argparse.ArgumentParser):
    """argparse exits with 2 on usage errors; 2 is reserved for internal bugs."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


# Records go through the order's encode plan; kept because perfbench's traced harness reads it.
record_to_element = None


# ---------------------------------------------------------------------------
# Shared file plumbing


def _read_order(path: str) -> OrderNode:
    """Parse an order file; a byte that is not UTF-8 fails at its line and column."""
    with open(path, "rb") as handle:
        raw = handle.read()
    # The line ends text mode reads: \r\n and a lone \r end a line too.
    raw = raw.replace(b"\r\n", b"\n").replace(b"\r", b"\n")
    try:
        text = raw.decode("utf-8")
    except UnicodeDecodeError as exc:
        before = raw[: exc.start].decode("utf-8")
        span = SourceSpan.at(before, len(before))
        raise TsodlSyntaxError(span, "UTF-8 text", f"byte 0x{raw[exc.start]:02x}") from None
    return parse_order(text)


_scan_once = json.JSONDecoder().scan_once  # the scanner json.loads runs
# A document in a line shorter than this nests fewer than 256 levels deep,
# far inside the recursion limit, so the scanner called here and inside
# json.loads, some frames deeper, cannot disagree on it.
_SCAN_MAX_LEN = 512
_UNSCANNED = object()


def _scan(line: str):
    """The value ``json.loads(line)`` returns, read by its C scanner directly; else ``_UNSCANNED``.

    The scanner's result stands only when the line is shorter than
    ``_SCAN_MAX_LEN`` and the scan read all of it from index 0.  Every
    other line (leading or trailing whitespace, a BOM, trailing data, no
    value at all, a scanner error, a long line) gives ``_UNSCANNED``, and
    the caller passes it to ``json.loads``, so values, exception classes
    and messages are those of ``json.loads``.
    """
    if len(line) < _SCAN_MAX_LEN:
        try:
            doc, end = _scan_once(line, 0)
        except (StopIteration, ValueError, RecursionError):
            return _UNSCANNED
        if end == len(line):
            return doc
    return _UNSCANNED


def _encode_records(
    tree: OrderNode,
    path: str,
    mode: str,
    nan_high: bool,
    skip_bad: bool,
    memo: dict | None = None,
    lines: list[str] | None = None,
):
    """Yield the keys of each batch of ``_CHUNK`` input lines; bad lines raise or warn per skip_bad.

    A batch holds fewer keys than it read lines when some of its lines are
    blank or skipped.  Lines are read as bytes so that one that is not
    UTF-8 fails on its own, with its number.  When a line raises, the keys
    before it in its batch are yielded first, so they are still written.
    With a ``lines`` list, the decoded text of each line that gives a key
    is appended to it, in step with the keys.

    With a ``memo`` dict, each line that encodes is stored as
    ``memo[line] = key`` under its decoded text, and a later line with the
    same text takes the stored key object and skips ``_scan``,
    ``json.loads`` and the plan: a key depends on its record alone, so
    equal lines share one key.  A line that fails is never stored, so each
    copy of it fails again under its own number; blank lines never encode,
    so they are never stored either.
    """
    encode_record = prepare(tree).plan(mode, nan_high=nan_high, doc=True)
    handle = sys.stdin.buffer if path == "-" else open(path, "rb")
    number = 0  # the number of the last line read
    try:
        while True:
            keys: list[bytes] = []
            first = number
            try:
                for number, raw in enumerate(islice(handle, _CHUNK), first + 1):
                    try:
                        try:
                            line = raw.rstrip(b"\r\n").decode("utf-8")
                        except UnicodeDecodeError as exc:
                            raise ElementMismatch(f"not valid UTF-8: {exc}") from None
                        key = memo.get(line) if memo is not None else None
                        if key is None:
                            doc = _scan(line)
                            if doc is _UNSCANNED:
                                if not line.strip():  # a blank line never scans
                                    continue
                                try:
                                    doc = json.loads(line)
                                except (ValueError, RecursionError) as exc:
                                    # ValueError covers JSONDecodeError and integers past the
                                    # interpreter's digit limit; RecursionError, deep nesting.
                                    raise ElementMismatch(f"not valid JSON: {exc}") from None
                            key = encode_record(doc)
                            if memo is not None:
                                memo[line] = key
                    except ElementError as exc:
                        message = f"line {number}: {exc}"
                        if not skip_bad:
                            raise ElementMismatch(message) from None
                        print(f"warning: skipped {message}", file=sys.stderr)
                        continue
                    if lines is not None:
                        lines.append(line)
                    keys.append(key)
            except BaseException:
                yield keys
                raise
            if number == first:  # the input is used up
                return
            yield keys
    finally:
        if path != "-":
            handle.close()


# ---------------------------------------------------------------------------
# Subcommands


def _cmd_validate(args) -> int:
    tree = _read_order(args.order)
    prepared = prepare(tree)
    stats = prepared.stats
    variable = "yes" if stats.has_variable_length else "no"
    print(
        f"ok: depth={stats.depth} lex_path={stats.max_lex_path} "
        f"contrelex_path={stats.max_contrelex_path} variable_length={variable} "
        f"open={'yes' if prepared.open_ok else 'no'}"
    )
    return 0


def _cmd_encode(args) -> int:
    tree = _read_order(args.order)
    out = sys.stdout
    for keys in _encode_records(tree, args.data, args.mode, args.nan_high, args.skip_bad):
        if not keys:
            continue
        if args.hex:
            out.write("\n".join(map(bytes.hex, keys)).upper() + "\n")
        else:
            out.buffer.write(b"".join([len(key).to_bytes(4, "big") + key for key in keys]))
    out.flush()
    return 0


def _cmd_sort(args) -> int:
    tree = _read_order(args.order)
    # A fixed-length tree is open, and its open plan is its packed plan.
    mode = "open" if prepare(tree).open_ok else "padded"
    lines: list[str] | None = [] if args.output == "lines" else None
    keys: list[bytes] = []
    # Every key is held until the sort anyway, so the memo adds only its hash
    # table and one copy of each distinct line, and that goes with the
    # generator, before the sort runs.
    batches = _encode_records(tree, args.data, mode, args.nan_high, args.skip_bad, memo={}, lines=lines)
    for batch_keys in batches:
        keys += batch_keys
    # Looked up on the module at call time, so a wrapper installed there sees the sort.
    order = _pure_sort.msd_sort_indices(keys)
    shown = str if lines is None else lines.__getitem__
    for start in range(0, len(order), _CHUNK):
        sys.stdout.write("\n".join(map(shown, order[start : start + _CHUNK])) + "\n")
    return 0


def _cmd_selftest(args) -> int:
    from .selfcheck import run_selftest

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


def _bench_keys(generator: str, tree: OrderNode | None, rng: random.Random, n: int) -> list:
    """Build the key list for one repeat; the work timed as nextify."""
    if generator == "uniform":
        encode = prepare(_UINT64_TREE).plan("packed")
        return [encode(rng.getrandbits(64)) for _ in range(n)]
    if generator == "prefix":
        prefix = bytes(rng.randrange(256) for _ in range(90))
        return [
            prefix + bytes(rng.randrange(256) for _ in range(rng.randrange(10, 39)))
            for _ in range(n)
        ]
    # custom: random elements of the supplied order, padded keys
    from .randgen import random_element

    assert tree is not None
    encode = prepare(tree).plan()
    return [encode(random_element(rng, tree)) for _ in range(n)]


def _time_ns(run) -> int:
    """Wall time of one call of ``run``, in nanoseconds."""
    start = time.perf_counter_ns()
    run()
    return time.perf_counter_ns() - start


def _cmd_bench(args) -> int:
    import random
    import statistics

    from .sorter import LongCell

    tree = None
    if args.gen == "custom":
        if not args.order:
            raise ElementMismatch("--gen=custom needs --order")
        tree = _read_order(args.order)
    sizes = args.n if args.n is not None else _DEFAULT_BENCH_SIZES
    out = sys.stdout
    out.write("generator,n,nextify_ns,radix_sort_ns,comparison_sort_ns,ratio\n")
    for n in sizes:
        if n == 0:
            out.write(f"{args.gen},0,0,0,0,0.000\n")
            continue
        nextify_runs = []
        argsort_runs = []
        comparison_runs = []
        for repeat in range(args.repeat):
            rng = random.Random(args.seed * 1_000_003 + n * 1_009 + repeat)
            t0 = time.perf_counter_ns()
            keys = _bench_keys(args.gen, tree, rng, n)
            t1 = time.perf_counter_ns()
            cells = list(map(LongCell, keys, range(n)))
            run_argsort = partial(_pure_sort.msd_sort_indices, keys)
            run_comparison = partial(sorted, cells, key=attrgetter("key"))
            # A, B, B, A over the same keys, keeping each sort's minimum, so
            # a change in machine load during the repeat hits both sorts alike.
            a1, b1, b2, a2 = map(_time_ns, (run_argsort, run_comparison, run_comparison, run_argsort))
            nextify_runs.append(t1 - t0)
            argsort_runs.append(min(a1, a2))
            comparison_runs.append(min(b1, b2))
        nextify = int(statistics.median(nextify_runs))
        argsort = int(statistics.median(argsort_runs))
        comparison = int(statistics.median(comparison_runs))
        ratio = comparison / max(argsort, 1)
        out.write(f"{args.gen},{n},{nextify},{argsort},{comparison},{ratio:.3f}\n")
        out.flush()
    return 0


# ---------------------------------------------------------------------------
# Wiring


def _sizes(text: str) -> list[int]:
    """Comma-separated counts of zero or more: ``--n``."""
    try:
        sizes = [int(chunk) for chunk in text.split(",")]
    except ValueError:
        sizes = [-1]
    if min(sizes) < 0:
        raise argparse.ArgumentTypeError(f"expected comma-separated non-negative integers, got {text!r}")
    return sizes


def _positive_int(text: str) -> int:
    """A count of one or more: ``--repeat`` and ``--trials``."""
    try:
        value = int(text)
    except ValueError:
        value = 0
    if value < 1:
        raise argparse.ArgumentTypeError(f"expected a positive integer, got {text!r}")
    return value


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
    p_encode.add_argument("--mode", choices=("padded", "packed", "open"), default="padded")
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

    p_bench = commands.add_parser("bench", help="time the key argsort against a sort of cells")
    p_bench.add_argument("--gen", choices=("uniform", "prefix", "custom"), default="uniform")
    p_bench.add_argument("--order", help="order file for --gen=custom")
    p_bench.add_argument("--n", type=_sizes, default=None, help="comma-separated sizes")
    p_bench.add_argument("--repeat", type=_positive_int, default=3, help="repeats per size (median wins)")
    p_bench.add_argument("--seed", type=int, default=0)
    p_bench.set_defaults(func=_cmd_bench)

    p_selftest = commands.add_parser("selftest", help="run the built-in checks")
    p_selftest.add_argument("--seed", type=int, default=0)
    p_selftest.add_argument("--trials", type=_positive_int, default=2000, help="random equivalence trials")
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
