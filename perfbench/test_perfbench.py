"""The benchmark's own checks: the gate rejects wrong outputs, metrics print.

Run with ``PYTHONPATH=src python -m pytest -q perfbench``.
"""

from __future__ import annotations

import functools
import json

import pytest

import gate
import inputs
import run
from tsokey import LongCell, compare, encode, sort_cells

SEED = 7


@pytest.fixture
def workdir(tmp_path, monkeypatch):
    monkeypatch.setattr(run, "WORKDIR", tmp_path)
    monkeypatch.setattr(run, "SETUP_REPEATS", 1)
    return tmp_path


def _score_name(workdir, n=300):
    inp = inputs.generate("sort_score_name", SEED, workdir, n)
    tree = inp.tree
    key = functools.cmp_to_key(lambda a, b: compare(tree, inp.elements[a], inp.elements[b]))
    return inp, sorted(range(n), key=key)


def _paths(workdir, n=256):
    inp = inputs.generate("sortkeys_paths", SEED, workdir, n)
    cells = sort_cells([LongCell(key, i) for i, key in enumerate(inp.keys)])
    return inp, [cell.ref for cell in cells]


def _refs_bytes(refs):
    return b"".join(ref.to_bytes(4, "big") for ref in refs)


def _nested(workdir, n=200):
    inp = inputs.generate("encode_nested", SEED, workdir, n)
    tree = inp.tree
    keys = [encode(tree, element) for element in inp.elements]
    return inp, keys


def _key_stream(keys):
    return b"".join(len(key).to_bytes(4, "big") + key for key in keys)


def test_gate_accepts_true_outputs(workdir):
    inp, order = _score_name(workdir)
    assert gate.check_output(inp, "".join(f"{i}\n" for i in order).encode(), SEED) == 0
    inp, refs = _paths(workdir)
    assert gate.check_output(inp, _refs_bytes(refs), SEED) == 0
    inp, keys = _nested(workdir)
    assert gate.check_output(inp, _key_stream(keys), SEED) == 0


def test_gate_rejects_swapped_adjacent_pair(workdir):
    inp, order = _score_name(workdir)
    tree, elements = inp.tree, inp.elements
    i = next(i for i in range(len(order) - 1) if compare(tree, elements[order[i]], elements[order[i + 1]]) < 0)
    order[i], order[i + 1] = order[i + 1], order[i]
    assert gate.check_output(inp, "".join(f"{i}\n" for i in order).encode(), SEED) > 0


def test_gate_rejects_stability_violation(workdir):
    inp, refs = _paths(workdir)
    keys = inp.keys
    i = next(i for i in range(len(refs) - 1) if keys[refs[i]] == keys[refs[i + 1]])
    refs[i], refs[i + 1] = refs[i + 1], refs[i]
    assert gate.check_output(inp, _refs_bytes(refs), SEED) > 0


def test_gate_rejects_flipped_key_byte(workdir):
    inp, keys = _nested(workdir)
    good = gate.output_digest(inp, _key_stream(keys))
    # The first data byte holds the top byte of the uint32 field, which
    # decides the order against most other records.
    keys[0] = keys[0][:1] + bytes([keys[0][1] ^ 0xFF]) + keys[0][2:]
    assert gate.check_output(inp, _key_stream(keys), SEED) > 0
    assert gate.output_digest(inp, _key_stream(keys)) != good


def test_gate_rejects_missing_and_bad_length_keys(workdir):
    inp, keys = _nested(workdir)
    assert gate.check_output(inp, _key_stream(keys[:-1]), SEED) > 0
    keys[3] = keys[3] + b"\x00"
    assert gate.check_output(inp, _key_stream(keys), SEED) > 0


def test_benchmark_json_names_match_the_runner():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.LAYER_UNITS


@pytest.mark.parametrize("trace", [False, True])
@pytest.mark.parametrize("name", run.WORKLOADS)
def test_every_metric_printed_with_unit(workdir, capsys, name, trace):
    result = run.run_workload(name, SEED, 0, trace, records=80)
    assert result["correct"] and result["failed"] == 0
    run.report(result)
    summary = run.summarize([result])
    printed = capsys.readouterr().out
    units = run.LAYER_UNITS if trace else run.END_TO_END_UNITS
    assert set(summary["metrics"]) == set(units)
    for metric, unit in units.items():
        assert summary["metrics"][metric]["unit"] == unit
        assert any(line.split()[:1] == [metric] and line.split()[-1] == unit for line in printed.splitlines())
    assert "fail_ratio" in printed
