"""What start-up loads: the package and each CLI command import only what they run.

Every check runs in a fresh interpreter, since this test process has
already imported every tsokey module.
"""

import json
import subprocess
import sys
from pathlib import Path
from textwrap import dedent

SRC = Path(__file__).resolve().parents[1] / "src"

# What `tsokey validate`, `encode` and `sort` load besides the package.
COMMAND_MODULES = {
    "tsokey",
    "tsokey._pure_sort",
    "tsokey.cli",
    "tsokey.encoder",
    "tsokey.errors",
    "tsokey.order_model",
    "tsokey.tsodl",
}
# Modules that only `bench`, `selftest` or the library's other names use
# (`dataclasses`, which pulls in `inspect`, only for the sorter's cells).
NEVER_LOADED = {
    "dataclasses",
    "decimal",
    "fractions",
    "inspect",
    "numbers",
    "statistics",
    "tsokey.comparator",
    "tsokey.randgen",
    "tsokey.selfcheck",
    "tsokey.sorter",
}
SUBMODULES = ("comparator", "encoder", "errors", "order_model", "sorter", "tsodl")


def run_fresh(code: str, *args: str):
    """Run ``code`` in a new interpreter that imports tsokey from src; return the JSON it prints last.

    ``-I`` keeps the environment and user site out; ``-B`` writes no bytecode into src.
    """
    prelude = f"import json, sys\nsys.path.insert(0, {str(SRC)!r})\n"
    done = subprocess.run(
        [sys.executable, "-I", "-B", "-c", prelude + dedent(code), *args],
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.splitlines()[-1])


def test_import_tsokey_loads_no_submodule():
    loaded = run_fresh(
        """
        import tsokey
        print(json.dumps(sorted(m for m in sys.modules if m.split('.')[0] == 'tsokey')))
        """
    )
    assert loaded == ["tsokey"]


def test_cli_commands_load_only_what_they_run(tmp_path):
    order = tmp_path / "order.tsodl"
    order.write_text("next(2, 3, (int32 desc, bytes))\n", encoding="utf-8")
    rows = tmp_path / "rows.jsonl"
    rows.write_text('[3,"b"]\n[5,"a"]\n[3,"a"]\n[3,{"hex":"61"}]\n', encoding="utf-8")
    # Every JSON spelling of a rational; a Fraction element alone needs `fractions`.
    rational = tmp_path / "rational.tsodl"
    rational.write_text("lex(0, omega, ([rational]))\n", encoding="utf-8")
    rationals = tmp_path / "rationals.jsonl"
    spellings = ['5', '"-7"', '"355/113"', '{"num": 1, "den": 3}', '{"num": "2", "den": "9"}']
    rationals.write_text("".join(f"[{spelling}]\n" for spelling in spellings), encoding="utf-8")
    result = run_fresh(
        """
        import contextlib, io
        from tsokey import cli
        order, rows, rational, rationals = sys.argv[1:]
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            codes = [
                cli.main(['validate', order]),
                cli.main(['encode', order, rows, '--hex']),
                cli.main(['encode', rational, rationals, '--hex']),
                cli.main(['sort', order, rows, '--output', 'indices']),
            ]
        print(json.dumps({'codes': codes, 'out': out.getvalue(), 'modules': sorted(sys.modules)}))
        """,
        str(order),
        str(rows),
        str(rational),
        str(rationals),
    )
    assert result["codes"] == [0, 0, 0, 0]
    assert result["out"].endswith("1\n2\n3\n0\n")  # the sort ran
    modules = set(result["modules"])
    assert {m for m in modules if m.split(".")[0] == "tsokey"} == COMMAND_MODULES
    assert not modules & NEVER_LOADED


def test_every_exported_name_is_its_modules_object():
    # A name's module is the one that lists it in __all__ or defines it (errors has no __all__).
    result = run_fresh(
        f"""
        import importlib, tsokey
        names = {{}}
        for name in tsokey.__all__:
            value = getattr(tsokey, name)
            modules = [importlib.import_module('tsokey.' + m) for m in {SUBMODULES!r}]
            owners = [
                m for m in modules
                if name in getattr(m, '__all__', ()) or getattr(value, '__module__', None) == m.__name__
            ]
            names[name] = [[m.__name__ for m in owners], [getattr(m, name) is value for m in owners]]
        print(json.dumps({{'names': names, 'dir': dir(tsokey), 'all': tsokey.__all__}}))
        """
    )
    assert len(result["all"]) == len(set(result["all"])) > 0
    for name, (owners, same) in result["names"].items():
        assert len(owners) == 1, (name, owners)
        assert same == [True], name
    assert set(result["all"]) <= set(result["dir"])


def test_star_import_binds_every_name():
    unbound = run_fresh(
        """
        import tsokey
        namespace = {}
        exec('from tsokey import *', namespace)
        print(json.dumps([n for n in tsokey.__all__ if namespace.get(n) is not getattr(tsokey, n)]))
        """
    )
    assert unbound == []


def test_submodule_import_and_unknown_name():
    result = run_fresh(
        """
        from tsokey import encoder
        import tsokey
        try:
            tsokey.nope
            missing = 'no error'
        except AttributeError as exc:
            missing = str(exc)
        print(json.dumps([encoder is sys.modules['tsokey.encoder'], missing]))
        """
    )
    assert result == [True, "module 'tsokey' has no attribute 'nope'"]


def test_commands_on_an_order_without_rationals_never_build_the_rational_tables(tmp_path):
    order = tmp_path / "order.tsodl"
    order.write_text("next(3, 4, (int32 desc, lex(0, omega, ([bytes])), float64))\n", encoding="utf-8")
    rows = tmp_path / "rows.jsonl"
    rows.write_text('[3,["b"],1.5]\n[5,[],-2]\n[3,["a","c"],"0.25"]\n', encoding="utf-8")
    result = run_fresh(
        """
        import contextlib, io
        from tsokey import cli, encoder
        order, rows = sys.argv[1:]
        with contextlib.redirect_stdout(io.StringIO()):
            codes = [
                cli.main(['encode', order, rows, '--hex']),
                cli.main(['sort', order, rows, '--output', 'indices']),
            ]
        print(json.dumps({'codes': codes, 'built': encoder._rational_fragments.cache_info().misses}))
        """,
        str(order),
        str(rows),
    )
    assert result == {"codes": [0, 0], "built": 0}
