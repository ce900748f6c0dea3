"""Seeded benchmark of tsokey's record -> key -> sort pipeline.

    python3 perfbench/run.py [--workload NAME|all] [--seed N] [--seconds S] [--trace 0|1]

Run from the root of a checkout.  tsokey is imported from ``src/`` as the
tier-1 tests do; nothing is built, so the kernel backend is whatever that
import gives (``pure`` unless a compiled ``_radixcore`` sits in ``src/``).

Workloads (closed loop: one process, one thread, one batch job at a time):

* ``sort_score_name``: ``tsokey.cli.main(["sort", order, data, "--output",
  "indices"])`` in-process on 50k rows of ``next(2, 3, (int32 desc,
  bytes))``: scores with heavy ties, Zipf-skewed names.  The whole CLI path;
  encode dominates, the sort is a small share.
* ``encode_nested``: ``tsokey.cli.main(["encode", order, data])`` on 20k
  nested records (lex of bytes, hierar of int16 desc, contrelex of
  rationals).  Encoder only: ending-value chains, count headers, continued
  fractions, inverted leaves; the sort kernel is idle.
* ``sortkeys_paths``: ``LongCell(key, i)`` for 2**18 padded ``bytes`` keys of
  file paths (about 94% duplicates, 20-35 byte shared prefixes), then
  ``sort_cells``.  Sorter and kernel only; keys are made before timing.

Each run generates its inputs from ``--seed`` under ``perfbench/.work/``,
times set-up in 21 fresh interpreters (setup_probe.py), runs the timed
operation in one more for ``--seconds`` (worker.py), then checks every
output (gate.py).  ``records_per_s`` comes from the median job time and
``setup_s`` is the median set-up, both wall times rescaled by the core speed
sampled while they ran (calibration.py, which says why); the wall figures
are printed too.  The whole run is pinned to one core, so that each speed
sample and the work it rescales share a core.  With
``--trace 0`` it prints the end-to-end metrics, with ``--trace 1`` the
per-layer ones from a run whose second half is traced (spans.py).  The last
stdout line is one JSON object: correct, attempted, failed, metrics.  The
exit code is 1 when any output is wrong or a digest of the default seed
differs from ``baseline.json``, 2 when the checkout has no ``src/tsokey``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKDIR = HERE / ".work"
WORKLOADS = ("sort_score_name", "encode_nested", "sortkeys_paths")
DEFAULT_SEED = 0
SETUP_REPEATS = 21
MIN_JOBS = 3
WORKER_TIMEOUT_S = 170

END_TO_END_UNITS = {
    "records_per_s": "records/s",
    "setup_s": "s",
    "peak_rss_mb": "MiB",
}

LAYER_UNITS = {
    "tsodl.parse_ms": "ms",
    "encoder.prepare_ms": "ms",
    "cli.self_us_per_record": "us",
    "cli.record_to_element_us_per_record": "us",
    "encoder.encode_us_per_record": "us",
    "encoder.encode_us_p50": "us",
    "encoder.encode_us_p99": "us",
    "encoder.encode_ns_per_key_byte": "ns",
    "encoder.calls": "count",
    "encoder.errors": "count",
    "encoder.key_bytes": "count",
    "sorter.cell_build_us_per_record": "us",
    "sorter.self_ms": "ms",
    "kernel.sort_ms": "ms",
    "kernel.ns_per_key": "ns",
    "input.key_bytes_mean": "bytes",
    "input.dup_share": "ratio",
    "input.lcp_bytes_mean": "bytes",
    "trace.overhead_ratio": "ratio",
    "trace.unattributed_share": "ratio",
}


class BenchmarkError(Exception):
    """A worker process failed; no result can be reported."""


def _python(script: str, args: list[str], stdin: str = "") -> str:
    """Run a script of this directory in a fresh interpreter; return its last stdout line."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC), str(HERE)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    done = subprocess.run(
        [sys.executable, str(HERE / script), *args],
        input=stdin,
        capture_output=True,
        text=True,
        env=env,
        cwd=ROOT,
        timeout=WORKER_TIMEOUT_S,
    )
    if done.returncode != 0:
        raise BenchmarkError(f"{script} exited with {done.returncode}:\n{done.stderr}")
    return done.stdout.splitlines()[-1]


def _git_commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=30
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() or None


def run_workload(name: str, seed: int, seconds: float, trace: bool, records: int | None = None) -> dict:
    """Generate, time and check one workload; return its result record."""
    # Both import tsokey, which main() first puts on sys.path.
    import gate
    import inputs

    load_before = os.getloadavg()
    inp = inputs.generate(name, seed, WORKDIR, records)
    is_cli = name in inputs.CLI_WORKLOADS
    spec = {
        "cli": is_cli,
        "order_text": inp.order_text,
        "records": inp.records,
        "seconds": seconds,
        "min_jobs": MIN_JOBS,
        "trace": trace,
        "out_path": str(WORKDIR / f"{name}.out"),
        "trace_path": str(WORKDIR / f"{name}.spans.tsv"),
    }
    if is_cli:
        spec["argv"] = inp.cli_argv()
    else:
        spec["keys_path"] = str(inp.data_path)
    setup_args = ["tsokey.cli" if is_cli else "tsokey", inp.order_text]
    setups = [] if trace else [_python("setup_probe.py", setup_args).split() for _ in range(SETUP_REPEATS)]
    measured = json.loads(_python("worker.py", [], json.dumps(spec)))

    output = Path(spec["out_path"]).read_bytes()
    checked_failed = gate.check_output(inp, output, seed)
    # The last job's output is checked in full; every other job must have
    # produced the same bytes, else all of its records count as failed.
    last = measured["digests"][-1]
    failed = sum(
        checked_failed if job_digest == last and code == 0 else inp.records
        for job_digest, code in zip(measured["digests"], measured["exit_codes"])
    )
    attempted = inp.records * len(measured["digests"])

    digest = gate.output_digest(inp, output)
    baseline = json.loads((HERE / "baseline.json").read_text(encoding="utf-8"))
    frozen = baseline["digests"].get(name) if seed == DEFAULT_SEED and records is None else None
    if frozen is not None and digest != frozen:
        failed = attempted

    if trace:
        metrics = {key: (value, LAYER_UNITS[key]) for key, value in measured["layers"].items()}
    else:
        metrics = {
            "records_per_s": (inp.records / statistics.median(measured["scaled_job_s"]), "records/s"),
            "setup_s": (statistics.median(float(scaled) for _, scaled in setups), "s"),
            "peak_rss_mb": (measured["peak_rss_mb"], "MiB"),
        }
    return {
        "workload": name,
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
        "digest": digest,
        "frozen_digest": frozen,
        "self_ms_per_job": measured.get("self_ms_per_job"),
        "job_s": measured["job_s"] + measured.get("traced_job_s", []),
        "wall": {
            "records_per_s": inp.records / statistics.median(measured["job_s"]),
            "setup_s": statistics.median(float(wall) for wall, _ in setups) if setups else None,
        },
        "environment": {
            "backend": measured["backend"],
            "python": platform.python_version(),
            "cpu_count": os.cpu_count(),
            "loadavg_before": load_before,
            "loadavg_after": os.getloadavg(),
            "git_commit": _git_commit(),
            "seed": seed,
            "records": inp.records,
        },
    }


def report(result: dict) -> None:
    """Print one workload's result for a reader."""
    env = result["environment"]
    print(
        f"workload {result['workload']}  seed {env['seed']}  records {env['records']}  "
        f"backend {env['backend']}  jobs {len(result['job_s'])}"
    )
    for key, (value, unit) in result["metrics"].items():
        print(f"  {key:<38} {value:>14.6g} {unit}")
    ratio = result["failed"] / result["attempted"]
    print(
        f"  {'fail_ratio':<38} {ratio:>14.6g} ratio "
        f"({result['failed']} failed / {result['attempted']} attempted)"
    )
    wall = result["wall"]
    if wall["setup_s"] is not None:
        print(
            f"  wall time, not rescaled: {wall['records_per_s']:.6g} records/s, "
            f"set-up {wall['setup_s']:.6g} s"
        )
    if result["frozen_digest"] is None:
        checked = "not checked for this seed"
    elif result["frozen_digest"] == result["digest"]:
        checked = "matches baseline.json"
    else:
        checked = f"DIFFERS from baseline.json {result['frozen_digest']}"
    print(f"  output sha256 {result['digest']} ({checked})")
    if result["self_ms_per_job"]:
        total = sum(result["self_ms_per_job"].values())
        print(f"  traced self time per job, {total:.1f} ms in all ('job' is the unattributed rest):")
        for layer, ms in sorted(result["self_ms_per_job"].items(), key=lambda item: -item[1]):
            print(f"    {layer:<24} {ms:>12.3f} ms  {100 * ms / total:6.2f}%")
    print("  environment " + json.dumps(env))


def summarize(results: list[dict]) -> dict:
    """The result line; metric names get a workload prefix when several ran."""
    if len(results) == 1:
        metrics = results[0]["metrics"]
    else:
        metrics = {f"{r['workload']}.{k}": v for r in results for k, v in r["metrics"].items()}
    return {
        "correct": all(r["correct"] for r in results),
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "metrics": {key: {"value": value, "unit": unit} for key, (value, unit) in metrics.items()},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS + ("all",), default="all")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=20.0, help="timed seconds per workload")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "tsokey" / "__init__.py").is_file():
        print(f"error: no tsokey package under {SRC}; run from a full checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    # The cores of a shared host drift in speed independently (calibration.py).
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    try:
        results = [run_workload(name, args.seed, args.seconds, bool(args.trace)) for name in names]
    except (BenchmarkError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    for result in results:
        report(result)
    summary = summarize(results)
    print(json.dumps(summary))
    return 0 if summary["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
