"""End-to-end tests of the command line through main(argv)."""

import io
import json
import sys

import pytest

from tsokey import ElementMismatch, encode, parse
from tsokey.cli import main, record_to_element
from tsokey.errors import DepthOverflow


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


class TestRecordToElement:
    def setup_method(self):
        self.seq = parse("lex(0, omega, ([uint8]))")

    def test_integer_forms(self):
        tree = parse("uint64")
        assert record_to_element(tree, 7) == 7
        assert record_to_element(tree, "18446744073709551615") == 2**64 - 1
        with pytest.raises(ElementMismatch, match="bool"):
            record_to_element(tree, True)
        with pytest.raises(ElementMismatch, match="decimal"):
            record_to_element(tree, "0x10")

    def test_float_forms(self):
        tree = parse("float64")
        assert record_to_element(tree, 1.5) == 1.5
        assert record_to_element(tree, "2.5e3") == 2500.0
        assert record_to_element(tree, 2) == 2.0
        with pytest.raises(ElementMismatch, match="number"):
            record_to_element(tree, [])

    def test_bool_forms(self, tmp_path, capsys):
        tree = parse("bool")
        assert record_to_element(tree, True) is True
        assert record_to_element(tree, 0) is False
        for doc in ("yes", 1.0, 0.0, 2):
            with pytest.raises(ElementMismatch, match="true or false"):
                record_to_element(tree, doc)
        order = write(tmp_path, "o.tsodl", "bool")
        data = write(tmp_path, "d.jsonl", "true\n0\n1.0\n")
        assert main(["encode", order, data, "--hex"]) == 1
        captured = capsys.readouterr()
        assert captured.out == "F001E0\nF000E0\n"
        assert "line 3: $: expected true or false" in captured.err

    def test_bytes_forms(self):
        tree = parse("bytes")
        assert record_to_element(tree, "ab") == b"ab"
        assert record_to_element(tree, {"hex": "00ff"}) == b"\x00\xff"
        with pytest.raises(ElementMismatch, match="bad hex"):
            record_to_element(tree, {"hex": "0g"})
        with pytest.raises(ElementMismatch, match="hex"):
            record_to_element(tree, {"hex": "00", "pad": 1})

    def test_rational_forms(self):
        tree = parse("rational")
        assert record_to_element(tree, {"num": -3, "den": 2}) == (-3, 2)
        assert record_to_element(tree, "355/113") == (355, 113)
        assert record_to_element(tree, "-7") == -7
        assert record_to_element(tree, 5) == 5
        with pytest.raises(ElementMismatch, match="positive"):
            record_to_element(tree, {"num": 1, "den": 0})
        with pytest.raises(ElementMismatch, match="positive"):
            record_to_element(tree, "1/-2")
        with pytest.raises(ElementMismatch, match="rational"):
            record_to_element(tree, "one half")

    def test_sequence_with_path_in_message(self):
        assert record_to_element(self.seq, [1, 2]) == [1, 2]
        with pytest.raises(ElementMismatch, match=r"\$\[1\]"):
            record_to_element(self.seq, [1, "pear"])
        with pytest.raises(ElementMismatch, match="expected an array"):
            record_to_element(self.seq, 3)

    def test_sequence_too_long(self):
        tree = parse("next(2, 3, (uint8, uint8))")
        with pytest.raises(ElementMismatch, match="longer than the order allows"):
            record_to_element(tree, [1, 2, 3])

    def test_sum_forms(self):
        tree = parse("sum(finite(2), (uint8, bool))")
        assert record_to_element(tree, [0, 9]) == (0, 9)
        assert record_to_element(tree, [1, True]) == (1, True)
        with pytest.raises(ElementMismatch, match="master rank"):
            record_to_element(tree, [2, 0])
        with pytest.raises(ElementMismatch, match="master_rank"):
            record_to_element(tree, {"case": 0})

    def test_inversion_is_transparent(self):
        tree = parse("uint8 desc")
        assert record_to_element(tree, 200) == 200


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
        expected = [encode(tree, record_to_element(tree, doc)).hex().upper() for doc in docs]
        assert capsys.readouterr().out.splitlines() == expected

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
        monkeypatch.setattr(sys, "stdin", io.StringIO("4\n2\n"))
        assert main(["encode", order, "-", "--hex"]) == 0
        assert len(capsys.readouterr().out.splitlines()) == 2

    def test_nan_policy(self, tmp_path, capsys):
        order = write(tmp_path, "o.tsodl", "float64")
        data = write(tmp_path, "d.jsonl", '"nan"\n')
        assert main(["encode", order, data, "--hex"]) == 1
        assert main(["encode", order, data, "--hex", "--nan-high"]) == 0


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

    def test_large_input_hits_radix_path(self, tmp_path, capsys):
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

    def test_pure_backend(self, capsys):
        assert main(["bench", "--n", "32", "--repeat", "1", "--backend", "pure"]) == 0
        assert len(capsys.readouterr().out.splitlines()) == 2

    def test_negative_sizes_rejected(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["bench", "--n", "-4"])
        assert excinfo.value.code == 1


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
