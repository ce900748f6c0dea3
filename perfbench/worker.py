"""One benchmark process: set-up, then the timed operation, in a fresh interpreter.

Reads a JSON job description on stdin and prints one JSON result line.

After the set-up that setup_probe.py times, the workload's timed operation
runs in a closed loop (one thread, one job at a time) until ``seconds`` have
passed and at least ``min_jobs`` jobs ran, sampling the core's speed during
each job (calibration.py).  With ``trace`` the first half of that time runs
untraced, the second half with spans around every layer (see spans.py) and
core speed sampled only before and after each job, so that no sample falls
inside a span.  Linux only: the peak resident set is read from /proc.
"""

import hashlib
import io
import json
import os
import statistics
import struct
import sys
import time

import calibration

PROBE_INTERVAL_S = 0.05


def _setup(spec: dict) -> None:
    __import__("tsokey.cli" if spec["cli"] else "tsokey")
    from tsokey import encoder, tsodl

    encoder.prepare(tsodl.parse(spec["order_text"]))


def _peak_rss_mb() -> float:
    """Peak resident set of this program, in MiB.

    ``VmHWM`` belongs to the memory of the program that exec started;
    ``getrusage``'s ``ru_maxrss`` also carries the peak of the parent that
    forked it, here the runner holding the generated inputs.
    """
    with open("/proc/self/status", encoding="ascii") as status:
        for line in status:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024
    raise RuntimeError("no VmHWM line in /proc/self/status")


class _CliJob:
    """``tsokey.cli.main(argv)`` with stdout sent to a file."""

    def __init__(self, spec: dict):
        from tsokey import cli

        self.argv = spec["argv"]
        self.out_path = spec["out_path"]
        self.main = cli.main
        self.exit_codes: list[int] = []

    def __call__(self):
        with open(self.out_path, "wb") as raw:
            stream = io.TextIOWrapper(raw, encoding="utf-8")
            saved = sys.stdout
            sys.stdout = stream
            try:
                code = self.main(self.argv)
                stream.flush()
            finally:
                sys.stdout = saved
                stream.detach()
        return code

    def finish(self, code) -> str:
        self.exit_codes.append(code)
        with open(self.out_path, "rb") as handle:
            return hashlib.sha256(handle.read()).hexdigest()


class _CellsJob:
    """Build ``LongCell(key, i)`` for every key, then ``sorter.sort_cells``."""

    def __init__(self, spec: dict):
        from inputs import read_keys
        from tsokey import sorter

        self.sorter = sorter
        with open(spec["keys_path"], "rb") as handle:
            self.keys = read_keys(handle)
        self.out_path = spec["out_path"]
        self.build = self._build
        self.exit_codes: list[int] = []

    def _build(self, keys):
        cell = self.sorter.LongCell
        return [cell(key, index) for index, key in enumerate(keys)]

    def __call__(self):
        return self.sorter.sort_cells(self.build(self.keys))

    def finish(self, cells) -> str:
        self.exit_codes.append(0)
        data = struct.pack(f">{len(cells)}I", *(cell.ref for cell in cells))
        with open(self.out_path, "wb") as handle:
            handle.write(data)
        return hashlib.sha256(data).hexdigest()


def _loop(job, seconds: float, min_jobs: int, digests: list, interval: float) -> tuple[list, list]:
    """Run jobs back to back; return their wall times and scaled times."""
    times, scaled = [], []
    start = time.perf_counter()
    while len(times) < min_jobs or time.perf_counter() - start < seconds:
        with calibration.Probe(interval) as probe:
            t0 = time.perf_counter()
            result = job()
            elapsed = time.perf_counter() - t0
        times.append(elapsed)
        scaled.append(probe.scale(elapsed))
        digests.append(job.finish(result))
        del result  # the next job must not run beside this one's output
    return times, scaled


def _input_shape(keys: list) -> dict:
    n = len(keys)
    distinct = sorted(set(keys))
    lcps = [len(os.path.commonprefix([a, b])) for a, b in zip(distinct, distinct[1:])]
    return {
        "input.key_bytes_mean": sum(map(len, keys)) / n if n else 0.0,
        "input.dup_share": 1 - len(distinct) / n if n else 0.0,
        "input.lcp_bytes_mean": statistics.fmean(lcps) if lcps else 0.0,
    }


def _traced(spec: dict, job, untraced: list, digests: list) -> dict:
    import spans
    from tsokey import cli, encoder, tsodl

    records = spec["records"]
    tracer = spans.Tracer()
    keys: list = []

    def on_key(key):
        if len(keys) < records:
            keys.append(key)

    spans.install(tracer, on_key)
    # prepare is lru-cached: clearing the cache makes each of these calls do
    # the work that only the first call of a process does.
    for _ in range(3):
        tree = tsodl.parse(spec["order_text"])
        encoder.prepare.cache_clear()
        cli.prepare(tree)
    first = len(tracer.spans)
    if spec["cli"]:
        job.main = tracer.wrap("cli.main", cli.main)
    else:
        job.build = tracer.wrap("sorter.cell_build", job._build)
        keys = job.keys
    traced_job = tracer.wrap("job", job)
    traced_job.finish = job.finish
    times, scaled = _loop(traced_job, spec["seconds"] / 2, 2, digests, 0.0)
    tracer.write(spec["trace_path"])

    jobs = len(times)
    per_record = 1e3 * jobs * records  # ns → µs, per record
    self_ns = spans.self_times(tracer.spans, first)
    job_ns = sum(spans.durations(tracer.spans, "job", first))
    encode_ns = spans.durations(tracer.spans, "encoder.encode", first)
    key_bytes = sum(map(len, keys)) if spec["cli"] else 0
    layers = {
        "tsodl.parse_ms": statistics.median(spans.durations(tracer.spans, "tsodl.parse")) / 1e6,
        "encoder.prepare_ms": statistics.median(
            spans.durations(tracer.spans, "encoder.prepare", roots_only=True)
        )
        / 1e6,
        "cli.self_us_per_record": self_ns.get("cli.main", 0) / per_record,
        "cli.record_to_element_us_per_record": self_ns.get("cli.record_to_element", 0) / per_record,
        "encoder.encode_us_per_record": self_ns.get("encoder.encode", 0) / per_record,
        "encoder.encode_us_p50": spans.percentile(encode_ns, 0.50) / 1e3,
        "encoder.encode_us_p99": spans.percentile(encode_ns, 0.99) / 1e3,
        "encoder.encode_ns_per_key_byte": (
            self_ns.get("encoder.encode", 0) / (key_bytes * jobs) if key_bytes else 0.0
        ),
        "encoder.calls": len(encode_ns) / jobs,
        "encoder.errors": tracer.errors.get("encoder.encode", 0) / jobs,
        "encoder.key_bytes": key_bytes,
        "sorter.cell_build_us_per_record": self_ns.get("sorter.cell_build", 0) / per_record,
        "sorter.self_ms": self_ns.get("sorter.sort_cells", 0) / jobs / 1e6,
        "kernel.sort_ms": self_ns.get("kernel.sort", 0) / jobs / 1e6,
        "kernel.ns_per_key": self_ns.get("kernel.sort", 0) / (jobs * records),
        **_input_shape(keys),
        "trace.overhead_ratio": statistics.median(scaled) / statistics.median(untraced),
        "trace.unattributed_share": self_ns.get("job", 0) / job_ns,
    }
    self_ms = {name: ns / jobs / 1e6 for name, ns in sorted(self_ns.items())}
    return {"layers": layers, "self_ms_per_job": self_ms, "traced_job_s": times}


def main() -> int:
    spec = json.load(sys.stdin)
    _setup(spec)
    from tsokey import HAVE_COMPILED

    job = _CliJob(spec) if spec["cli"] else _CellsJob(spec)
    digests: list = []
    seconds = spec["seconds"] / 2 if spec["trace"] else spec["seconds"]
    # A traced run needs only a baseline for trace.overhead_ratio.
    min_jobs = 2 if spec["trace"] else spec["min_jobs"]
    times, scaled = _loop(job, seconds, min_jobs, digests, PROBE_INTERVAL_S)
    result = {
        "backend": "compiled" if HAVE_COMPILED else "pure",
        "job_s": times,
        "scaled_job_s": scaled,
        "peak_rss_mb": _peak_rss_mb(),
    }
    if spec["trace"]:
        result.update(_traced(spec, job, scaled, digests))
    result["digests"] = digests
    result["exit_codes"] = job.exit_codes
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
