"""Command-line front end: validate, encode, sort, bench, selftest.

Order files are UTF-8 text in the definition language of ``tsodl``.
Dataset files are JSON Lines, one value per line, shaped like the order
tree.  Records go through the order's doc plan (``PreparedOrder.plan``
with ``doc=True``, the plan ``encoder.encode_doc`` runs), compiled once
per run, which reads the dataset's JSON forms (decimal strings, {"hex":
"..."}, {"num": p, "den": q}, "p/q", arrays for sequence and sum nodes)
as it encodes; README "Dataset format" lists them.  Each batch of lines
goes through the plan's record loop (``PreparedOrder.record_loop``): for
each line it runs the C scanner ``json.loads`` runs, called directly,
keeps its result only when the line is short and the scan read all of it
from index 0, and runs the plan's root body written into the loop.  A run
compiles the loop in one of three forms: binary ``encode`` the framed
one, which writes each key behind its length straight into its batch's
``bytearray``, ``encode --hex`` the one that appends keys to a list, and
``sort`` that one with its memo.  At a line it cannot take (blank,
padded, long, not UTF-8, bad JSON) it returns the line, and that line
alone is read the careful way, with ``json.loads`` and the plan, so
values, errors and messages are those of ``json.loads`` and
``encode_doc``; at a record the root body faults on it returns the
fault, worded here as the plan words it, so no line is read twice.  The
loop then resumes.  Plan and loop are Python source generated for the
order and run once through ``exec``; their ``source`` attributes show
the code each record goes through.
A key depends on its record alone, so ``sort``, which holds every key
(and, for ``--output lines``, every line) until it sorts, keeps a memo
from line text to key: each distinct line is scanned and encoded once,
and equal lines share one key object.  It sorts on packed keys where the
tree allows them, else on open keys (``encode --mode open``), else padded.
``encode`` streams and encodes every line, so its memory does not grow
with the input: the plan's leaf memos are bounded (``encoder.MEMO_ENTRIES``
fragments per leaf).  Input is read ``_READ_BYTES`` raw bytes at a time,
each read finished at the end of its last line, so a read holds about that
much or one longer line.  A read is decoded from UTF-8 in one call and split
at its line feeds into batches of at most ``_CHUNK`` lines; a read that is
not UTF-8 is decoded line by line, so each bad line fails on its own, with
its number.  Each batch is encoded in one loop before any of it is written.
Keys leave as hex lines with --hex or length-prefixed binary (4-byte
big-endian length before each key) by default; binary output is the framed
loop's buffer as it stands.  Output goes out in one write
per batch, or per ``_CHUNK`` lines of a sorted order (indices formatted in
one ``%`` per write), so a write holds at most ``_CHUNK`` lines or keys:
fewer when its batch held blank or skipped lines.

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
from operator import attrgetter, length_hint
from typing import TYPE_CHECKING

from . import _pure_sort
from .encoder import _FRAME, _Fault, prepare
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
_READ_BYTES = 1 << 14  # raw input bytes per read, past which it stops at the next line end


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


def _line(raw: bytes):
    """The text of one raw line, its line end stripped; the UnicodeDecodeError of a line that is not UTF-8."""
    try:
        return raw.rstrip(b"\r\n").decode("utf-8")
    except UnicodeDecodeError as exc:
        return exc


def _batches(handle):
    """The lines of ``handle``, line ends stripped, in lists of at most ``_CHUNK``.

    Each read takes ``_READ_BYTES`` raw bytes and finishes its last line with
    one ``readline``, so it holds about that much text or one long line,
    however long the lines are.  A read is decoded from UTF-8 in one call and
    split at each line feed only, carriage returns before it stripped as
    ``_line`` strips them; a read that is not UTF-8 is decoded line by line by
    ``_line``, so each bad line is a UnicodeDecodeError of its own, in its
    place.  A read's raw bytes are let go before its first batch is yielded.
    """
    while raw := handle.read(_READ_BYTES):
        if raw[-1] != 10:  # the read stopped inside a line: take the rest of it
            raw += handle.readline()
        try:
            lines = raw.decode("utf-8").split("\n")
        except UnicodeDecodeError:
            lines = list(map(_line, raw.split(b"\n")))
        else:
            if b"\r" in raw:
                lines = [line.rstrip("\r") for line in lines]
        if raw[-1] == 10:
            del lines[-1]  # the empty piece after the last line end
        del raw
        while len(lines) > _CHUNK:
            batch = lines[:_CHUNK]
            del lines[:_CHUNK]
            yield batch
        yield lines


def _encode_records(
    tree: OrderNode,
    path: str,
    mode: str,
    nan_high: bool,
    skip_bad: bool,
    memo: dict | None = None,
    lines: list[str] | None = None,
    framed: bool = False,
):
    """Yield the keys of each batch of input lines (``_batches``); bad lines raise or warn per skip_bad.

    Each batch goes through the order's record loop (``PreparedOrder.record_loop``),
    which scans each line and runs the doc plan's root body inline.  It
    returns at a line it cannot take, which this function reads the careful
    way: blank, else ``json.loads``, then the plan, so that line gives the
    message, line number or key it always did.  At a record the body faults
    on it returns the ``_Fault``, which is worded here as the plan words it,
    with no second read of the line.  Then the loop resumes after it.  With
    ``framed``, a batch's keys come as one ``bytearray`` of frames, each key
    behind its 4-byte big-endian length, as binary ``encode`` writes them;
    the loop writes them there itself, and the careful path adds its keys
    the same way.  A batch holds fewer keys than it read lines when some of
    its lines are blank or skipped.  A line that is not UTF-8 fails on its
    own, with its number.  When a line raises, the keys before it in its
    batch are yielded first, so they are still written.  A batch's text is
    let go before its keys are yielded.  With a ``lines`` list, the decoded
    text of each line that gives a key is appended to it, in step with the
    keys.

    With a ``memo`` dict, each line that encodes is stored as
    ``memo[line] = key`` under its decoded text, and a later line with the
    same text takes the stored key object and skips the scan and the plan: a
    key depends on its record alone, so equal lines share one key.  A line
    that fails is never stored, so each copy of it fails again under its own
    number; blank lines never encode, so they are never stored either.
    """
    prepared = prepare(tree)
    encode_record = prepared.plan(mode, nan_high=nan_high, doc=True)
    form = "framed" if framed else "keys" if memo is None else "memo"
    records = prepared.record_loop(mode, nan_high=nan_high, form=form)
    known = () if memo is None else (memo.get, memo)
    handle = sys.stdin.buffer if path == "-" else open(path, "rb")
    number = 0  # the lines of the batches before this one
    try:
        for texts in _batches(handle):
            keys = bytearray() if framed else []
            rest = iter(texts)
            # The loop, resumed after the line it returned.
            take = partial(records, rest, keys if framed else keys.append, *known)
            kept = 0  # with ``lines``, the lines of this batch up to the last one the loop returned
            try:
                # The loop returns only a line the memo does not hold, or its fault; None at the end of the batch.
                while (line := take()) is not None:
                    if lines is not None:
                        at = len(texts) - length_hint(rest)  # the line's number in its batch
                        lines += texts[kept : at - 1]
                        kept = at
                    try:
                        if type(line) is not str:
                            if type(line) is _Fault:  # the root's body faulted on the record the loop scanned
                                raise line.cls(f"${line.path}: {line.message}")
                            raise ElementMismatch(f"not valid UTF-8: {line}")
                        if not line.strip():  # a blank line holds no record
                            continue
                        try:
                            doc = json.loads(line)
                        except (ValueError, RecursionError) as exc:
                            # ValueError covers JSONDecodeError and integers past the
                            # interpreter's digit limit; RecursionError, deep nesting.
                            raise ElementMismatch(f"not valid JSON: {exc}") from None
                        key = encode_record(doc)
                    except ElementError as exc:
                        # A list iterator's length hint is exact: the items it has left.
                        message = f"line {number + len(texts) - length_hint(rest)}: {exc}"
                        if not skip_bad:
                            raise ElementMismatch(message) from None
                        print(f"warning: skipped {message}", file=sys.stderr)
                        continue
                    if memo is not None:
                        memo[line] = key
                    if lines is not None:
                        lines.append(line)
                    if framed:
                        keys += _FRAME.pack(len(key))
                        keys += key
                    else:
                        keys.append(key)
                if lines is not None:
                    lines += texts[kept:]
            except BaseException:
                yield keys
                raise
            number += len(texts)
            del texts
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
    # Binary output takes each batch as the record loop framed it, in one bytearray.
    for keys in _encode_records(tree, args.data, args.mode, args.nan_high, args.skip_bad, framed=not args.hex):
        if not keys:
            continue
        if args.hex:
            out.write("\n".join(map(bytes.hex, keys)).upper() + "\n")
        else:
            out.buffer.write(keys)
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
    for start in range(0, len(order), _CHUNK):
        chunk = order[start : start + _CHUNK]
        if lines is None:
            sys.stdout.write("%d\n" * len(chunk) % tuple(chunk))
        else:
            sys.stdout.write("\n".join(map(lines.__getitem__, chunk)) + "\n")
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
