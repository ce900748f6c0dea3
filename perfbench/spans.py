"""In-memory spans recorded around the calls into each tsokey layer.

A span is ``[name, start_ns, end_ns, parent, record]``: ``parent`` is the
index of the enclosing span (-1 at the root) and ``record`` the id of the
input record being processed (-1 outside the per-record loop).  Spans stay
in memory and are written out once, when the run ends.

The wrappers are installed from outside the package, on the module
attributes each layer is entered through, so the program itself is
unchanged; ``install`` lists them.
"""

from __future__ import annotations

import statistics
import time


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.record = -1
        self.errors: dict[str, int] = {}

    def wrap(self, name: str, fn, *, outermost: bool = False, new_record: bool = False, on_result=None):
        """Return fn wrapped in a span named name.

        outermost: a call made while an earlier call of the same wrapper is
        still open runs unrecorded (for functions that recurse through their
        module-global name).  new_record: each recorded call starts a new
        input record.  on_result: called with every return value.
        """
        spans, stack, clock = self.spans, self.stack, time.perf_counter_ns
        active = False

        def traced(*args, **kwargs):
            nonlocal active
            if outermost and active:
                return fn(*args, **kwargs)
            if new_record:
                self.record += 1
            span = [name, clock(), 0, stack[-1] if stack else -1, self.record]
            stack.append(len(spans))
            spans.append(span)
            active = True
            try:
                result = fn(*args, **kwargs)
            except Exception:
                self.errors[name] = self.errors.get(name, 0) + 1
                raise
            finally:
                active = False
                stack.pop()
                span[2] = clock()
            if on_result is not None:
                on_result(result)
            return result

        return traced

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            handle.write("name\tstart_ns\tend_ns\tparent\trecord\n")
            for name, start, end, parent, record in self.spans:
                handle.write(f"{name}\t{start}\t{end}\t{parent}\t{record}\n")


def install(tracer: Tracer, on_key) -> None:
    """Wrap each layer's entry point; on_key receives every encoded key."""
    from tsokey import _pure_sort, cli, encoder, sorter, tsodl

    parse = tracer.wrap("tsodl.parse", tsodl.parse)
    tsodl.parse = cli.parse_order = parse
    # prepare is lru-cached: only a call on a tree not seen before does work.
    # The wrapper goes on the CLI's reference only; the cache hits inside
    # encode() belong to encode.
    cli.prepare = tracer.wrap("encoder.prepare", encoder.prepare)
    cli.record_to_element = tracer.wrap(
        "cli.record_to_element", cli.record_to_element, outermost=True, new_record=True
    )
    cli.encode = tracer.wrap("encoder.encode", encoder.encode, on_result=on_key)
    cli.LongCell = tracer.wrap("sorter.cell_build", sorter.LongCell)
    cli.ShortCell = tracer.wrap("sorter.cell_build", sorter.ShortCell)
    cli.sort_cells = sorter.sort_cells = tracer.wrap("sorter.sort_cells", sorter.sort_cells)
    # sort_cells looks the kernels up as module attributes at call time.
    _pure_sort.msd_sort_indices = tracer.wrap("kernel.sort", _pure_sort.msd_sort_indices)
    if sorter._radixcore is not None:
        core = sorter._radixcore
        core.sort_short_keys = tracer.wrap("kernel.sort", core.sort_short_keys)
        core.sort_long_keys = tracer.wrap("kernel.sort", core.sort_long_keys)


def self_times(spans: list[list], first: int = 0) -> dict[str, int]:
    """Self time in ns per span name, over spans[first:].

    A span's self time is its duration minus the part its child spans
    cover; children of one span never overlap (one thread), so that part is
    the sum of their durations.
    """
    covered = [0] * len(spans)
    for name, start, end, parent, _ in spans[first:]:
        if parent >= 0:
            covered[parent] += end - start
    totals: dict[str, int] = {}
    for index in range(first, len(spans)):
        name, start, end, _, _ = spans[index]
        totals[name] = totals.get(name, 0) + (end - start) - covered[index]
    return totals


def durations(spans: list[list], name: str, first: int = 0, roots_only: bool = False) -> list[int]:
    return [
        end - start
        for span_name, start, end, parent, _ in spans[first:]
        if span_name == name and (parent < 0 or not roots_only)
    ]


def percentile(values: list[int], share: float) -> float:
    if not values:
        return 0.0
    if len(values) == 1:
        return float(values[0])
    return statistics.quantiles(values, n=100, method="inclusive")[round(share * 100) - 1]
