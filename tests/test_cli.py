"""End-to-end tests of the command line through main(argv)."""

import contextlib
import io
import json
import random
import re
import sys
import tempfile
from functools import cmp_to_key
from pathlib import Path

import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

from tsokey import compare, encode, encode_doc, parse, prepare, serialize, tsodl
from tsokey.cli import _UNSCANNED, _scan, main
from tsokey.errors import DepthOverflow, TsokeyError
from tsokey.randgen import random_element, random_tree

from helpers import to_doc


def write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return str(path)


def jsonl(tmp_path, name, docs):
    text = "\n".join(json.dumps(doc) for doc in docs) + "\n"
    return write(tmp_path, name, text)


def read_frames(blob):
    """Split length-prefixed binary key output back into keys."""
    frames = []
    pos = 0
    while pos < len(blob):
        length = int.from_bytes(blob[pos : pos + 4], "big")
        frames.append(blob[pos + 4 : pos + 4 + length])
        pos += 4 + length
    return frames


class TestValidateCommand:
    def test_prints_stats(self, tmp_path, capsys):
        order = write(tmp_path, "o.tsodl", "lex(0, omega, ([uint8]))")
        assert main(["validate", order]) == 0
        out = capsys.readouterr().out
        assert out.startswith("ok: depth=")
        assert "lex_path=" in out
        assert "variable_length=yes" in out

    def test_fixed_length_order(self, tmp_path, capsys):
        order = write(tmp_path, "o.tsodl", "next(2, 3, (uint8, bool))")
        assert main(["validate", order]) == 0
        assert "variable_length=no" in capsys.readouterr().out

    def test_syntax_error_is_positioned(self, tmp_path, capsys):
        order = write(tmp_path, "bad.tsodl", "lex(0, omega,\n  [uint8)")
        assert main(["validate", order]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: 2:")
        assert "expected" in err

    @pytest.mark.parametrize(
        "raw, message",
        [
            (b"uint8\xff", "1:6: expected UTF-8 text, found byte 0xff"),
            (b"// caf\xc3\xa9\r\nnext(1, 2, (uint8\xfe))", "2:18: expected UTF-8 text, found byte 0xfe"),
        ],
        ids=["first-line", "after-a-two-byte-character"],
    )
    def test_non_utf8_order_file_is_positioned(self, tmp_path, capsys, raw, message):
        order = tmp_path / "o.tsodl"
        order.write_bytes(raw)
        data = write(tmp_path, "d.jsonl", "[1]\n")
        assert main(["sort", str(order), data]) == 1
        assert capsys.readouterr().err == f"error: {message}\n"

    @pytest.mark.parametrize(
        "text",
        [
            "inv(" * 5000 + "uint8" + ")" * 5000,
            "lex(0, omega, ([" * 3000 + "uint8" + "]))" * 3000,
        ],
        ids=["inv-chain", "lex-nest"],
    )
    def test_deep_order_file_is_a_syntax_error(self, tmp_path, capsys, text):
        order = write(tmp_path, "o.tsodl", text)
        data = write(tmp_path, "d.jsonl", "1\n")
        assert main(["sort", order, data]) == 1
        err = capsys.readouterr().err
        assert re.match(r"error: 1:\d+: expected nodes nested at most 100 deep", err)
        assert "Traceback" not in err

    @pytest.mark.skipif(
        getattr(sys, "get_int_max_str_digits", lambda: 0)() == 0,
        reason="this interpreter reads integers of any length",
    )
    @pytest.mark.parametrize(
        "before, after, position",
        [("finite(", ")", "1:8"), ("// a comment\nlex(0, ", ", ([uint8]))", "2:8")],
        ids=["cardinality", "lex-length-bound"],
    )
    def test_integer_past_the_digit_limit_is_positioned(self, tmp_path, capsys, before, after, position):
        digits = "1" * (sys.get_int_max_str_digits() + 1)
        order = write(tmp_path, "o.tsodl", before + digits + after)
        assert main(["validate", order]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"error: {position}: expected ")
        assert f"found an integer of {len(digits)} digits" in captured.err

    def test_semantic_error(self, tmp_path, capsys):
        order = write(tmp_path, "bad.tsodl", "lex(0, 5, ())")
        assert main(["validate", order]) == 1
        assert "error:" in capsys.readouterr().err

    def test_missing_file(self, tmp_path, capsys):
        assert main(["validate", str(tmp_path / "nope.tsodl")]) == 1
        assert "error:" in capsys.readouterr().err


class TestEncodeCommand:
    def test_hex_lines_are_uppercase(self, tmp_path, capsys):
        order = write(tmp_path, "o.tsodl", "uint8")
        data = jsonl(tmp_path, "d.jsonl", [0, 7, 255])
        assert main(["encode", order, data, "--hex"]) == 0
        lines = capsys.readouterr().out.splitlines()
        tree = parse("uint8")
        assert lines == [encode(tree, v).hex().upper() for v in (0, 7, 255)]
        assert lines[0] == "F000E0"

    def test_binary_is_length_prefixed(self, tmp_path, capsysbinary):
        order = write(tmp_path, "o.tsodl", "lex(0, omega, ([uint8]))")
        docs = [[], [1], [1, 2, 3]]
        data = jsonl(tmp_path, "d.jsonl", docs)
        assert main(["encode", order, data]) == 0
        tree = parse("lex(0, omega, ([uint8]))")
        expected = [encode(tree, doc) for doc in docs]
        assert read_frames(capsysbinary.readouterr().out) == expected

    def test_packed_mode(self, tmp_path, capsys):
        order = write(tmp_path, "o.tsodl", "next(2, 3, (uint8, uint8))")
        data = jsonl(tmp_path, "d.jsonl", [[1, 2]])
        assert main(["encode", order, data, "--mode", "packed", "--hex"]) == 0
        assert capsys.readouterr().out == "0102\n"

    def test_packed_mode_needs_fixed_width(self, tmp_path, capsys):
        order = write(tmp_path, "o.tsodl", "lex(0, omega, ([uint8]))")
        data = jsonl(tmp_path, "d.jsonl", [[1]])
        assert main(["encode", order, data, "--mode", "packed"]) == 1
        assert "error:" in capsys.readouterr().err

    def test_bool_forms(self, tmp_path, capsys):
        order = write(tmp_path, "o.tsodl", "bool")
        data = write(tmp_path, "d.jsonl", "true\n0\n1.0\n")
        assert main(["encode", order, data, "--hex"]) == 1
        captured = capsys.readouterr()
        assert captured.out == "F001E0\nF000E0\n"
        assert "line 3: $: expected a bool" in captured.err

    def test_bad_line_names_line_number(self, tmp_path, capsys):
        order = write(tmp_path, "o.tsodl", "uint8")
        data = write(tmp_path, "d.jsonl", "3\n256\n")
        assert main(["encode", order, data, "--hex"]) == 1
        assert "line 2" in capsys.readouterr().err

    def test_invalid_json_names_line_number(self, tmp_path, capsys):
        order = write(tmp_path, "o.tsodl", "uint8")
        data = write(tmp_path, "d.jsonl", "1\n{oops\n")
        assert main(["encode", order, data, "--hex"]) == 1
        err = capsys.readouterr().err
        assert "line 2" in err and "JSON" in err

    def test_skip_bad_warns_and_continues(self, tmp_path, capsys):
        order = write(tmp_path, "o.tsodl", "uint8")
        data = write(tmp_path, "d.jsonl", "3\n999\n5\n")
        assert main(["encode", order, data, "--hex", "--skip-bad"]) == 0
        captured = capsys.readouterr()
        assert len(captured.out.splitlines()) == 2
        assert "warning: skipped line 2" in captured.err

    def test_integer_too_large_for_float_leaf(self, tmp_path, capsys):
        order = write(tmp_path, "o.tsodl", "lex(0, omega, ([float64]))")
        data = write(tmp_path, "d.jsonl", f"[1.5]\n[2, {10**400}]\n[3]\n")
        assert main(["encode", order, data, "--hex"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: line 2: $[1]: ") and "too large" in err
        assert "Traceback" not in err
        assert main(["encode", order, data, "--hex", "--skip-bad"]) == 0
        captured = capsys.readouterr()
        assert len(captured.out.splitlines()) == 2
        assert "warning: skipped line 2: $[1]: " in captured.err

    def test_rational_terms_of_any_size(self, tmp_path, capsys):
        order = write(tmp_path, "o.tsodl", "rational")
        docs = [2**70, f"{10**30}/7", {"num": 1, "den": 2**70}, -(2**70)]
        data = jsonl(tmp_path, "d.jsonl", docs)
        assert main(["encode", order, data, "--hex"]) == 0
        tree = parse("rational")
        expected = [encode_doc(tree, doc).hex().upper() for doc in docs]
        assert capsys.readouterr().out.splitlines() == expected

    def test_rational_key_is_the_documented_one(self, tmp_path, capsys, monkeypatch):
        order = write(tmp_path, "o.tsodl", "rational")
        monkeypatch.setattr(sys, "stdin", io.TextIOWrapper(io.BytesIO(b'"355/113"\n')))
        assert main(["encode", order, "-", "--hex"]) == 0
        data = bytes.fromhex(capsys.readouterr().out.strip())[1::3]
        page = (Path(__file__).resolve().parent.parent / "docs" / "key_format.md").read_text(encoding="utf-8")
        documented = re.search(r"^rational 355/113 +(.*)$", page, re.M).group(1).replace(" ", "")
        assert data.hex() == documented

    def test_deep_nesting_is_invalid_json(self, tmp_path, capsys):
        order = write(tmp_path, "o.tsodl", "lex(0, omega, ([uint8]))")
        deep = "[" * 100_000 + "]" * 100_000
        data = write(tmp_path, "d.jsonl", f"[1]\n{deep}\n[2]\n")
        assert main(["encode", order, data, "--hex"]) == 1
        assert capsys.readouterr().err.startswith("error: line 2: not valid JSON")
        assert main(["encode", order, data, "--hex", "--skip-bad"]) == 0
        captured = capsys.readouterr()
        assert len(captured.out.splitlines()) == 2
        assert captured.err.startswith("warning: skipped line 2: not valid JSON")

    def test_blank_lines_are_ignored(self, tmp_path, capsys):
        order = write(tmp_path, "o.tsodl", "uint8")
        data = write(tmp_path, "d.jsonl", "1\n\n   \n2\n")
        assert main(["encode", order, data, "--hex"]) == 0
        assert len(capsys.readouterr().out.splitlines()) == 2

    def test_reads_stdin_with_dash(self, tmp_path, capsys, monkeypatch):
        order = write(tmp_path, "o.tsodl", "uint8")
        monkeypatch.setattr(sys, "stdin", io.TextIOWrapper(io.BytesIO(b"4\n2\n")))
        assert main(["encode", order, "-", "--hex"]) == 0
        assert len(capsys.readouterr().out.splitlines()) == 2

    def test_crlf_line_endings(self, tmp_path, capsys):
        order = write(tmp_path, "o.tsodl", "uint8")
        data = tmp_path / "d.jsonl"
        data.write_bytes(b"4\r\n2\r\n")
        assert main(["encode", order, str(data), "--hex"]) == 0
        assert capsys.readouterr().out.splitlines() == ["F004E0", "F002E0"]

    def test_non_utf8_line_names_line_number(self, tmp_path, capsys):
        order = write(tmp_path, "o.tsodl", "bytes")
        data = tmp_path / "d.jsonl"
        data.write_bytes(b'"a"\n"\xff"\n"b"\n')
        assert main(["encode", order, str(data), "--hex"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: line 2: not valid UTF-8")
        assert main(["encode", order, str(data), "--hex", "--skip-bad"]) == 0
        captured = capsys.readouterr()
        assert len(captured.out.splitlines()) == 2
        assert captured.err.startswith("warning: skipped line 2: not valid UTF-8")

    def test_non_utf8_stdin_names_line_number(self, tmp_path, capsys, monkeypatch):
        order = write(tmp_path, "o.tsodl", "uint8")
        monkeypatch.setattr(sys, "stdin", io.TextIOWrapper(io.BytesIO(b"4\n\xfe\n")))
        assert main(["encode", order, "-", "--hex"]) == 1
        assert capsys.readouterr().err.startswith("error: line 2: not valid UTF-8")

    def test_lone_surrogate_on_a_bytes_leaf(self, tmp_path, capsys):
        order = write(tmp_path, "o.tsodl", "bytes")
        data = write(tmp_path, "d.jsonl", '"a"\n"\\ud800"\n"b"\n')
        assert main(["encode", order, data, "--hex"]) == 1
        assert capsys.readouterr().err == "error: line 2: $: string is not valid Unicode\n"
        assert main(["encode", order, data, "--hex", "--skip-bad"]) == 0
        assert len(capsys.readouterr().out.splitlines()) == 2

    def test_nan_policy(self, tmp_path, capsys):
        order = write(tmp_path, "o.tsodl", "float64")
        data = write(tmp_path, "d.jsonl", '"nan"\n')
        assert main(["encode", order, data, "--hex"]) == 1
        assert main(["encode", order, data, "--hex", "--nan-high"]) == 0


def _assert_scan_agrees_with_json_loads(line):
    """Where the CLI keeps the scanner's value, ``json.loads`` returns that value.

    Where ``_scan`` gives ``_UNSCANNED`` the CLI calls ``json.loads`` on
    the line itself, so the value, or the exception and its message, is
    that of ``json.loads`` by construction.
    """
    doc = _scan(line)
    if doc is not _UNSCANNED:
        # json.dumps tells 1 from 1.0 and True, and shows NaN as NaN.
        assert json.dumps(doc) == json.dumps(json.loads(line))


# Lines the C scanner alone would read differently from json.loads, or not at all.
_EDGE_LINES = {
    "plain": "[0.25, -3]",
    "leading-spaces": "  [1.5]",
    "trailing-spaces": "[1.5]  ",
    "leading-tab": "\t[1.5]",
    "trailing-tab": "[1.5]\t",
    "bom": "\ufeff[1.5]",
    "nan": "[NaN]",
    "infinity": "[Infinity, -Infinity]",
    "trailing-comma": "[1,]",
    "two-numbers": "1 2",
    "two-arrays": "[1] [2]",
    "5000-digit-integer": "[" + "1" * 5000 + "]",
    "5000-nested-brackets": "[" * 5000,
    "leading-nbsp": "\u00a0[1]",
    "255-nested-in-510-characters": "[" * 255 + "]" * 255,
    "300-nested": "[" * 300 + "]" * 300,
    "600-characters": "[" + ", ".join(["0.5"] * 120) + "]",
}


class TestJsonFastPath:
    """The CLI reads each line with the C scanner only where json.loads would read it the same."""

    @pytest.mark.parametrize("line", list(_EDGE_LINES.values()), ids=list(_EDGE_LINES))
    def test_scan_agrees_with_json_loads(self, line):
        _assert_scan_agrees_with_json_loads(line)

    def test_only_lines_shorter_than_512_characters_are_scanned(self):
        # A document nested near the recursion limit needs a longer line.
        assert _scan("[" * 255 + "]" * 255) == json.loads("[" * 255 + "]" * 255)
        assert _scan("[" * 256 + "]" * 256) is _UNSCANNED

    @pytest.mark.parametrize("line", list(_EDGE_LINES.values()), ids=list(_EDGE_LINES))
    def test_cli_outcome_is_that_of_json_loads(self, tmp_path, capsys, line):
        order = write(tmp_path, "o.tsodl", "lex(0, omega, ([float64]))")
        data = tmp_path / "d.jsonl"
        data.write_bytes(f"[0.5]\n{line}\n".encode("utf-8"))
        tree = parse("lex(0, omega, ([float64]))")
        first = encode_doc(tree, [0.5]).hex().upper() + "\n"
        try:
            doc = json.loads(line)
        except (ValueError, RecursionError) as exc:
            expected = (1, first, f"error: line 2: not valid JSON: {exc}\n")
        else:
            try:
                key = encode_doc(tree, doc, nan_high=True)
            except TsokeyError as exc:
                expected = (1, first, f"error: line 2: {exc}\n")
            else:
                expected = (0, first + key.hex().upper() + "\n", "")
        code = main(["encode", order, str(data), "--hex", "--nan-high"])
        captured = capsys.readouterr()
        assert (code, captured.out, captured.err) == expected


class _RecordingStdout:
    """A stdout that keeps each write call, text and binary alike."""

    def __init__(self):
        self.writes = []
        self.buffer = self

    def write(self, data):
        self.writes.append(data)
        return len(data)

    def flush(self):
        pass


class TestChunkedOutput:
    """Output leaves in writes of at most 1024 lines or keys, never joined whole."""

    VALUES = [(i * 7919) % 65536 for i in range(2500)]

    def test_sort_writes_three_chunks(self, tmp_path, monkeypatch):
        order = write(tmp_path, "o.tsodl", "uint16")
        data = jsonl(tmp_path, "d.jsonl", self.VALUES)
        out = _RecordingStdout()
        monkeypatch.setattr(sys, "stdout", out)
        assert main(["sort", order, data, "--output", "indices"]) == 0
        assert len(out.writes) == 3
        expected = sorted(range(len(self.VALUES)), key=self.VALUES.__getitem__)
        assert "".join(out.writes).splitlines() == [str(i) for i in expected]

    def test_encode_writes_three_chunks(self, tmp_path, monkeypatch):
        order = write(tmp_path, "o.tsodl", "uint16")
        data = jsonl(tmp_path, "d.jsonl", self.VALUES)
        out = _RecordingStdout()
        monkeypatch.setattr(sys, "stdout", out)
        assert main(["encode", order, data]) == 0
        assert len(out.writes) == 3
        tree = parse("uint16")
        assert read_frames(b"".join(out.writes)) == [encode(tree, v) for v in self.VALUES]

    def test_keys_before_a_bad_line_are_written(self, tmp_path, monkeypatch, capsys):
        order = write(tmp_path, "o.tsodl", "uint16")
        data = jsonl(tmp_path, "d.jsonl", self.VALUES[:1500] + [-1] + self.VALUES[1500:])
        out = _RecordingStdout()
        monkeypatch.setattr(sys, "stdout", out)
        assert main(["encode", order, data, "--hex"]) == 1
        assert "line 1501: $: -1 outside uint16 range" in capsys.readouterr().err
        tree = parse("uint16")
        keys = [encode(tree, v).hex().upper() for v in self.VALUES[:1500]]
        assert "".join(out.writes).splitlines() == keys

    def _encode(self, monkeypatch, argv):
        """main(argv) with stdout recorded: (exit code, the writes, their hex lines)."""
        out = _RecordingStdout()
        monkeypatch.setattr(sys, "stdout", out)
        code = main(argv)
        return code, out.writes, "".join(out.writes).splitlines()

    def _hex(self, values):
        tree = parse("uint16")
        return [encode(tree, v).hex().upper() for v in values]

    def test_bad_first_line_of_a_batch(self, tmp_path, monkeypatch, capsys):
        order = write(tmp_path, "o.tsodl", "uint16")
        data = jsonl(tmp_path, "d.jsonl", self.VALUES[:1024] + [-1] + self.VALUES[1024:])
        code, writes, lines = self._encode(monkeypatch, ["encode", order, data, "--hex"])
        assert code == 1
        assert capsys.readouterr().err == "error: line 1025: $: -1 outside uint16 range\n"
        assert len(writes) == 1 and lines == self._hex(self.VALUES[:1024])

    def test_skip_bad_on_both_sides_of_a_boundary(self, tmp_path, monkeypatch, capsys):
        order = write(tmp_path, "o.tsodl", "uint16")
        values = list(self.VALUES)
        values[1023], values[1024] = -1, "x"
        data = jsonl(tmp_path, "d.jsonl", values)
        code, writes, lines = self._encode(monkeypatch, ["encode", order, data, "--hex", "--skip-bad"])
        assert code == 0
        warnings = capsys.readouterr().err.splitlines()
        assert [w.split(":")[0] for w in warnings] == ["warning"] * 2
        assert warnings[0].startswith("warning: skipped line 1024: ")
        assert warnings[1].startswith("warning: skipped line 1025: ")
        assert len(lines) == 2498 and lines == self._hex(values[:1023] + values[1025:])
        assert [w.count("\n") for w in writes] == [1023, 1023, 452]

    def test_blank_lines_around_a_boundary_keep_line_numbers(self, tmp_path, monkeypatch, capsys):
        order = write(tmp_path, "o.tsodl", "uint16")
        rows = [str(v) for v in self.VALUES[:1022]] + ["", "  ", "\t", "", "-1"]
        data = write(tmp_path, "d.jsonl", "\n".join(rows) + "\n")
        code, _, lines = self._encode(monkeypatch, ["encode", order, data, "--hex"])
        assert code == 1
        assert capsys.readouterr().err == "error: line 1027: $: -1 outside uint16 range\n"
        assert lines == self._hex(self.VALUES[:1022])

    @pytest.mark.parametrize(
        "argv",
        [["encode", "--hex", "--skip-bad"], ["encode", "--skip-bad"], ["sort", "--skip-bad"]],
        ids=["encode-hex", "encode-binary", "sort"],
    )
    def test_stdin_gives_the_same_bytes(self, tmp_path, monkeypatch, capsysbinary, argv):
        order = write(tmp_path, "o.tsodl", "uint16")
        values = list(self.VALUES)
        values[1023], values[2047] = -1, "x"
        rows = [json.dumps(v) for v in values]
        rows[1024:1024] = ["", " "]
        raw = ("\n".join(rows) + "\n").encode()
        data = tmp_path / "d.jsonl"
        data.write_bytes(raw)
        command, *options = argv
        assert main([command, order, str(data), *options]) == 0
        from_file = capsysbinary.readouterr()
        monkeypatch.setattr(sys, "stdin", io.TextIOWrapper(io.BytesIO(raw)))
        assert main([command, order, "-", *options]) == 0
        assert capsysbinary.readouterr() == from_file
        assert from_file.err.count(b"warning: skipped line") == 2
        assert b"line 2050: " in from_file.err


class TestSortCommand:
    def test_lines_output_keeps_original_text(self, tmp_path, capsys):
        order = write(tmp_path, "o.tsodl", "uint8")
        data = write(tmp_path, "d.jsonl", "20\n  3\n255\n10\n")
        assert main(["sort", order, data]) == 0
        assert capsys.readouterr().out.splitlines() == ["  3", "10", "20", "255"]

    def test_indices_output(self, tmp_path, capsys):
        order = write(tmp_path, "o.tsodl", "uint8")
        data = jsonl(tmp_path, "d.jsonl", [20, 3, 255, 10])
        assert main(["sort", order, data, "--output", "indices"]) == 0
        assert capsys.readouterr().out.splitlines() == ["1", "3", "0", "2"]

    def test_stable_for_duplicates(self, tmp_path, capsys):
        order = write(tmp_path, "o.tsodl", "uint8")
        data = jsonl(tmp_path, "d.jsonl", [5, 3, 5, 1, 3])
        assert main(["sort", order, data, "--output", "indices"]) == 0
        assert capsys.readouterr().out.splitlines() == ["3", "1", "4", "0", "2"]

    def test_variable_length_order(self, tmp_path, capsys):
        order = write(tmp_path, "o.tsodl", "lex(0, omega, ([uint8]))")
        docs = [[2], [1, 2], [], [1]]
        data = jsonl(tmp_path, "d.jsonl", docs)
        assert main(["sort", order, data]) == 0
        out = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
        assert out == [[], [1], [1, 2], [2]]

    def test_descending_order(self, tmp_path, capsys):
        order = write(tmp_path, "o.tsodl", "uint8 desc")
        data = jsonl(tmp_path, "d.jsonl", [20, 3, 255])
        assert main(["sort", order, data]) == 0
        out = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
        assert out == [255, 20, 3]

    def test_large_input(self, tmp_path, capsys):
        order = write(tmp_path, "o.tsodl", "uint16")
        values = [(i * 7919) % 65536 for i in range(500)]
        data = jsonl(tmp_path, "d.jsonl", values)
        assert main(["sort", order, data]) == 0
        out = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
        assert out == sorted(values)

    def test_skip_bad(self, tmp_path, capsys):
        order = write(tmp_path, "o.tsodl", "uint8")
        data = write(tmp_path, "d.jsonl", "7\nbroken\n2\n")
        assert main(["sort", order, data, "--skip-bad"]) == 0
        captured = capsys.readouterr()
        assert captured.out.splitlines() == ["2", "7"]
        assert "warning" in captured.err

    def test_non_utf8_line(self, tmp_path, capsys):
        order = write(tmp_path, "o.tsodl", "bytes")
        data = tmp_path / "d.jsonl"
        data.write_bytes(b'"b"\n"\xc3("\n"a"\n')
        assert main(["sort", order, str(data)]) == 1
        assert capsys.readouterr().err.startswith("error: line 2: not valid UTF-8")
        assert main(["sort", order, str(data), "--skip-bad"]) == 0
        captured = capsys.readouterr()
        assert captured.out.splitlines() == ['"a"', '"b"']
        assert captured.err.startswith("warning: skipped line 2: not valid UTF-8")

    @pytest.mark.parametrize(
        "text, make_doc",
        [
            # Packed keys of 12 bytes: wider than one machine word.
            (
                "next(2, 3, (uint64, int32 desc))",
                lambda rng: [rng.randrange(4) << 62, rng.randrange(-3, 3)],
            ),
            # Packed keys of 3, 7 and 2 bytes, by case.
            (
                "sum(finite(3), (uint16, next(2, 3, (int16, uint32 desc)), finite(1)))",
                lambda rng: rng.choice(
                    [
                        lambda: [0, rng.randrange(3)],
                        lambda: [1, [rng.randrange(-2, 2), rng.randrange(3)]],
                        lambda: [2, 0],
                    ]
                )(),
            ),
        ],
        ids=["wider-than-8", "sum-of-widths"],
    )
    def test_packed_keys_of_any_width(self, tmp_path, capsys, text, make_doc):
        tree = parse(text)
        assert prepare(tree).packed_ok
        rng = random.Random(5)
        docs = [make_doc(rng) for _ in range(300)]
        order = write(tmp_path, "o.tsodl", text)
        data = jsonl(tmp_path, "d.jsonl", docs)
        assert main(["sort", order, data, "--output", "indices"]) == 0
        got = [int(line) for line in capsys.readouterr().out.splitlines()]
        # Every record here is also an element: plain integers and lists.
        by_compare = cmp_to_key(lambda i, j: compare(tree, docs[i], docs[j]))
        assert got == sorted(range(len(docs)), key=by_compare)


class TestRepeatedLines:
    """``sort`` encodes each distinct line once; equal lines share its key."""

    ORDER = "next(2, 3, (int32 desc, bytes))"

    def _rows(self, count=2500):
        """``count`` records drawn from 60 distinct lines, two spellings of one record among them."""
        compact = (",", ":")
        pool = [json.dumps([i % 7 - 3, "abcdef"[i % 6] * (1 + i // 42)], separators=compact) for i in range(59)]
        pool.append(pool[0].replace(",", ", "))
        rng = random.Random(13)
        rows = [rng.choice(pool) for _ in range(count)]
        rows[1023] = rows[1024] = rows[2047] = rows[0]  # copies on both sides of each batch boundary
        return rows

    def _counting_plans(self, monkeypatch):
        """Patch ``cli.prepare`` so that every call of the plans it returns is recorded."""
        import tsokey.cli as cli

        real_prepare = cli.prepare
        calls = []

        class Counting:
            def __init__(self, prepared):
                self._prepared = prepared

            def __getattr__(self, name):
                return getattr(self._prepared, name)

            def plan(self, *args, **kwargs):
                plan = self._prepared.plan(*args, **kwargs)

                def counted(doc):
                    calls.append(doc)
                    return plan(doc)

                return counted

        monkeypatch.setattr(cli, "prepare", lambda tree: Counting(real_prepare(tree)))
        return calls

    @pytest.mark.parametrize("count", [2500, 9000])
    @pytest.mark.parametrize("output", ["lines", "indices"])
    def test_sort_is_a_stable_sort_of_per_line_keys(self, tmp_path, capsys, output, count):
        rows = self._rows(count)
        order = write(tmp_path, "o.tsodl", self.ORDER)
        data = write(tmp_path, "d.jsonl", "\n".join(rows) + "\n")
        assert main(["sort", order, data, "--output", output]) == 0
        tree = parse(self.ORDER)
        mode = "packed" if prepare(tree).packed_ok else "padded"
        keys = [encode_doc(tree, json.loads(row), mode) for row in rows]
        expected = sorted(range(len(rows)), key=keys.__getitem__)
        shown = rows.__getitem__ if output == "lines" else str
        assert capsys.readouterr().out.splitlines() == list(map(shown, expected))
        # Ties keep input order, also between the two spellings of one record.
        ties = [(i, j) for i, j in zip(expected, expected[1:]) if keys[i] == keys[j]]
        assert all(i < j for i, j in ties)
        assert any(rows[i] != rows[j] for i, j in ties)

    def test_one_plan_call_per_distinct_valid_line(self, tmp_path, monkeypatch, capsys):
        rows = self._rows()
        order = write(tmp_path, "o.tsodl", self.ORDER)
        data = write(tmp_path, "d.jsonl", "\n".join(rows) + "\n")
        calls = self._counting_plans(monkeypatch)
        assert main(["sort", order, data, "--output", "indices"]) == 0
        assert len(calls) == len(set(rows)) == 60
        assert len(capsys.readouterr().out.splitlines()) == 2500
        # encode streams: every line goes through the plan.
        calls.clear()
        assert main(["encode", order, data, "--hex"]) == 0
        assert len(calls) == 2500
        assert len(capsys.readouterr().out.splitlines()) == 2500

    @pytest.mark.parametrize("bad", ['[3,]', '[3, 5]'], ids=["json", "plan"])
    def test_repeated_bad_line_fails_per_copy(self, tmp_path, capsys, bad):
        rows = self._rows()
        for number in (5, 1024, 1025, 2400):
            rows[number - 1] = bad
        order = write(tmp_path, "o.tsodl", self.ORDER)
        data = write(tmp_path, "d.jsonl", "\n".join(rows) + "\n")
        assert main(["sort", order, data, "--output", "indices", "--skip-bad"]) == 0
        captured = capsys.readouterr()
        warnings = captured.err.splitlines()
        assert [w.split(":")[0] for w in warnings] == ["warning"] * 4
        numbers = [int(w.split(":")[1].removeprefix(" skipped line ")) for w in warnings]
        assert numbers == [5, 1024, 1025, 2400]
        assert len(set(w.split(": ", 2)[2] for w in warnings)) == 1
        assert len(captured.out.splitlines()) == 2496
        assert main(["sort", order, data]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: line 5: ")

    @pytest.mark.parametrize(
        "rows, indices, skipped",
        [
            (['[3,"b"]', '[5,"a"]', '[3,"a"]', '[3,{"hex":"61"}]'], [1, 2, 3, 0], []),
            ([' [3,"b"]\t', '[5,"a"]', '[3,"a"] ', '\t[3,{"hex":"61"}]'], [1, 2, 3, 0], []),
            (['[3,"b"]', '[5,"a"]', '[3,"b"]', "[3,]", '[5,"a"]', "[3,]", '[3,"a"]'], [1, 3, 4, 0, 2], [4, 6]),
        ],
        ids=["rows", "spaced-rows", "repeated-rows-with-bad-copies"],
    )
    def test_small_datasets(self, tmp_path, capsys, rows, indices, skipped):
        order = write(tmp_path, "o.tsodl", self.ORDER)
        data = write(tmp_path, "d.jsonl", "\n".join(rows) + "\n")
        argv = ["sort", order, data, "--output", "indices"] + (["--skip-bad"] if skipped else [])
        assert main(argv) == 0
        captured = capsys.readouterr()
        assert captured.out.splitlines() == list(map(str, indices))
        numbers = re.findall(r"^warning: skipped line (\d+): ", captured.err, re.M)
        assert list(map(int, numbers)) == skipped and len(captured.err.splitlines()) == len(skipped)

    def test_bad_json_line_fails_the_sort(self, tmp_path, capsys):
        order = write(tmp_path, "o.tsodl", self.ORDER)
        data = write(tmp_path, "d.jsonl", '[3,"b"]\n[3,]\n')
        assert main(["sort", order, data]) == 1
        assert capsys.readouterr().err.startswith("error: line 2: not valid JSON: Expecting value")

    @pytest.mark.parametrize(
        "output, expected",
        [("indices", ["0", "2", "3", "1"]), ("lines", ['[3,"b"]'] * 3 + ['[1,"a"]'])],
    )
    def test_crlf_and_lf_copies_are_equal(self, tmp_path, capsys, output, expected):
        order = write(tmp_path, "o.tsodl", self.ORDER)
        data = tmp_path / "d.jsonl"
        data.write_bytes(b'[3,"b"]\r\n[1,"a"]\n[3,"b"]\n[3,"b"]\r\n')
        assert main(["sort", order, str(data), "--output", output]) == 0
        assert capsys.readouterr().out.splitlines() == expected

    def test_blank_lines_keep_line_numbers(self, tmp_path, capsys):
        order = write(tmp_path, "o.tsodl", self.ORDER)
        rows = ['[1,"a"]', "", '[1,"a"]', "  ", "\t", '[1,"a"]', "", '[1,"a"]', '"x"', "  ", '"x"']
        data = write(tmp_path, "d.jsonl", "\n".join(rows) + "\n")
        assert main(["sort", order, data, "--output", "indices", "--skip-bad"]) == 0
        captured = capsys.readouterr()
        assert captured.out.splitlines() == ["0", "1", "2", "3"]
        warnings = captured.err.splitlines()
        assert [w.split(": ")[1] for w in warnings] == ["skipped line 9", "skipped line 11"]
        assert main(["sort", order, data]) == 1
        assert capsys.readouterr().err.startswith("error: line 9: ")


class TestBenchCommand:
    HEADER = "generator,n,nextify_ns,radix_sort_ns,comparison_sort_ns,ratio"

    def test_csv_shape(self, capsys):
        assert main(["bench", "--n", "0,64", "--repeat", "1"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == self.HEADER
        assert lines[1] == "uniform,0,0,0,0,0.000"
        generator, n, nextify, radix, comparison, ratio = lines[2].split(",")
        assert generator == "uniform"
        assert int(n) == 64
        assert int(nextify) > 0 and int(radix) > 0 and int(comparison) > 0
        float(ratio)

    def test_prefix_generator(self, capsys):
        assert main(["bench", "--gen", "prefix", "--n", "32", "--repeat", "1"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[1].startswith("prefix,32,")

    def test_custom_generator_needs_order(self, capsys):
        assert main(["bench", "--gen", "custom", "--n", "8"]) == 1
        assert "--order" in capsys.readouterr().err

    def test_custom_generator(self, tmp_path, capsys):
        order = write(tmp_path, "o.tsodl", "lex(0, omega, ([uint8]))")
        argv = ["bench", "--gen", "custom", "--order", order, "--n", "16", "--repeat", "1"]
        assert main(argv) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[1].startswith("custom,16,")

    def test_negative_sizes_rejected(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["bench", "--n", "-4"])
        assert excinfo.value.code == 1

    def test_zero_repeats_is_a_usage_error(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["bench", "--n", "16", "--repeat", "0"])
        assert excinfo.value.code == 1
        captured = capsys.readouterr()
        assert captured.out == ""  # no CSV header
        assert "argument --repeat: expected a positive integer, got '0'" in captured.err


class TestSelftestCommand:
    def test_all_checks_pass(self, capsys):
        assert main(["selftest", "--trials", "25"]) == 0
        out = capsys.readouterr().out
        assert "ok   golden:lex" in out
        assert "ok   golden:contrehierar_desc" in out
        assert "ok   header:example-2**400" in out
        assert "ok   rational:order" in out
        assert "ok   oracle:equivalence" in out
        lines = out.splitlines()
        assert lines[-1].endswith("checks passed")
        count = len(lines) - 1
        assert lines[-1] == f"{count}/{count} checks passed"

    def test_negative_trials_is_a_usage_error(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["selftest", "--trials", "-3"])
        assert excinfo.value.code == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "argument --trials: expected a positive integer, got '-3'" in captured.err

    def test_corrupted_golden_file_names_the_table(self, tmp_path, capsys):
        from tsokey.selfcheck import load_golden_tables

        universe, tables = load_golden_tables()
        doc = {
            "universe": universe,
            "tables": [
                {
                    "name": table.name,
                    "order": table.order_text,
                    "expected": list(table.expected),
                }
                for table in tables
            ],
        }
        doc["tables"][0]["expected"][0] = "0110"
        bad = write(tmp_path, "bad.json", json.dumps(doc))
        assert main(["selftest", "--golden", bad, "--trials", "1"]) == 1
        out = capsys.readouterr().out
        assert "FAIL golden:load" in out
        assert f"golden table '{tables[0].name}'" in out

    def test_wrong_expected_column_fails_that_table(self, tmp_path, capsys):
        from tsokey.selfcheck import load_golden_tables

        universe, tables = load_golden_tables()
        doc = {
            "universe": universe,
            "tables": [
                {
                    "name": table.name,
                    "order": table.order_text,
                    "expected": list(table.expected),
                }
                for table in tables
            ],
        }
        column = doc["tables"][2]["expected"]
        column[0], column[1] = column[1], column[0]
        name = doc["tables"][2]["name"]
        bad = write(tmp_path, "wrong.json", json.dumps(doc))
        assert main(["selftest", "--golden", bad, "--trials", "1"]) == 1
        out = capsys.readouterr().out
        assert f"FAIL golden:{name}" in out
        assert "produced" in out
        assert "ok   golden:lex" in out


class TestExitCodes:
    def test_usage_error_is_one(self):
        with pytest.raises(SystemExit) as excinfo:
            main(["frobnicate"])
        assert excinfo.value.code == 1

    def test_missing_argument_is_one(self):
        with pytest.raises(SystemExit) as excinfo:
            main(["encode"])
        assert excinfo.value.code == 1

    def test_internal_error_is_two(self, tmp_path, capsys, monkeypatch):
        import tsokey.cli as cli

        def explode(tree):
            raise DepthOverflow("invariant violated")

        monkeypatch.setattr(cli, "prepare", explode)
        order = write(tmp_path, "o.tsodl", "uint8")
        assert main(["validate", order]) == 2
        assert "internal error:" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# Fuzz: random orders, arbitrary dataset lines


def _run_main(argv):
    """main(argv) with stdout and stderr captured; returns (exit code, stderr)."""
    out = io.TextIOWrapper(io.BytesIO(), encoding="utf-8")
    err = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, err.getvalue()


# Spellings that are right for some leaves and wrong for others.
_PALETTE = [
    True, 0, 1, -1, 256, 1.0, 2**64, "1", " 2 ", "x", "", "1/2", "1/0", "nan", "\ud800",
    {"hex": "61"}, {"hex": "zz"}, {"num": 1, "den": 2}, {"num": "1", "den": True},
    {"1": 2}, {"0": 1, "a": 2}, [], [0, 1], ["0", [1, 2]],
]
_JSON = st.recursive(
    st.none()
    | st.booleans()
    | st.integers()
    | st.floats()
    | st.text(max_size=6)
    | st.sampled_from(_PALETTE),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=3), inner, max_size=3),
    max_leaves=12,
)
_LINES = st.one_of(
    _JSON.map(lambda value: json.dumps(value).encode()),
    # Lone surrogates become bytes that are not UTF-8.
    _JSON.map(lambda value: json.dumps(value, ensure_ascii=False).encode("utf-8", "surrogatepass")),
    st.binary(max_size=12).map(lambda raw: raw.replace(b"\n", b"")),
    st.integers(1, 5000).map(lambda depth: b"[" * depth + b"]" * depth),
    st.integers(1, 5000).map(lambda depth: b'{"a": ' * depth + b"1" + b"}" * depth),
    st.just(b"1" * 5000),
)


def _splice(rng, doc, value):
    """doc with one item somewhere inside it, or all of it, replaced by value."""
    if isinstance(doc, list) and doc and rng.random() < 0.7:
        items = list(doc)
        index = rng.randrange(len(items))
        items[index] = _splice(rng, items[index], value)
        return items
    return value


@seed(3)
@settings(max_examples=100, deadline=None)
@given(
    st.integers(0, 2**32 - 1),
    st.lists(_LINES, max_size=4),
    st.lists(st.sampled_from(_PALETTE) | _JSON, max_size=6),
)
def test_cli_fuzz_exits_zero_or_one(draw, noise, splices):
    rng = random.Random(draw)
    tree = random_tree(rng, rng.randrange(0, 4))
    docs = [to_doc(rng, tree, random_element(rng, tree, length_cap=3)) for _ in range(2)]
    docs += [_splice(rng, rng.choice(docs), value) for value in splices]
    lines = [json.dumps(doc).encode() for doc in docs] + noise
    rng.shuffle(lines)
    with tempfile.TemporaryDirectory() as tmp:
        order = Path(tmp, "o.tsodl")
        order.write_text(serialize(tree), encoding="utf-8")
        data = Path(tmp, "d.jsonl")
        data.write_bytes(b"\n".join(lines) + b"\n")
        for command in (["encode", "--hex"], ["sort", "--output", "indices"]):
            argv = [command[0], str(order), str(data), *command[1:]]
            code, err = _run_main(argv)
            assert code in (0, 1), err
            assert "Traceback" not in err
            if code == 1:
                assert re.match(r"error: line \d+: ", err), err
            code, err = _run_main(argv + ["--skip-bad"])
            assert code == 0, err
            assert "Traceback" not in err


@seed(4)
@settings(max_examples=300, deadline=None)
@given(_LINES)
def test_scan_agrees_with_json_loads_on_fuzz_lines(raw):
    _assert_scan_agrees_with_json_loads(raw.decode("utf-8", "surrogateescape"))


def _order_variant(rng, raw, noise):
    """Order text as written, truncated, spliced with noise, or nested around MAX_NESTING."""
    how = rng.randrange(4)
    if how == 0:
        return raw
    if how == 1:
        return raw[: rng.randrange(len(raw) + 1)]
    if how == 2:
        at = rng.randrange(len(raw) + 1)
        return raw[:at] + noise + raw[at:]
    depth = tsodl.MAX_NESTING + rng.randrange(-1, 3)
    if rng.random() < 0.5:
        return b"inv(" * depth + raw + b")" * depth
    return b"lex(0, omega, ([" * depth + raw + b"]))" * depth


@seed(5)
@settings(max_examples=100, deadline=None)
@given(st.integers(0, 2**32 - 1), st.binary(max_size=8), st.lists(_LINES, max_size=2))
def test_order_file_fuzz_exits_zero_or_one(draw, noise, noise_lines):
    rng = random.Random(draw)
    tree = random_tree(rng, rng.randrange(0, 4))
    raw = _order_variant(rng, serialize(tree).encode("utf-8"), noise)
    doc = to_doc(rng, tree, random_element(rng, tree, length_cap=3))
    lines = [json.dumps(doc).encode()] + noise_lines
    with tempfile.TemporaryDirectory() as tmp:
        order = Path(tmp, "o.tsodl")
        order.write_bytes(raw)
        data = Path(tmp, "d.jsonl")
        data.write_bytes(b"\n".join(lines) + b"\n")
        for argv in (["validate", str(order)], ["encode", str(order), str(data), "--hex"]):
            code, err = _run_main(argv)
            assert code in (0, 1), err
            assert "Traceback" not in err
            if code == 1:
                assert err.startswith("error: "), err
