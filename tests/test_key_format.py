"""docs/key_format.md: every hex example in the page is real encoder output."""

import re
from pathlib import Path

from tsokey import (
    BuiltinKind,
    encode,
    hierar_count_header,
    parse,
    primitive_key,
    rational_key,
)

PAGE = Path(__file__).resolve().parent.parent / "docs" / "key_format.md"

# A line of a fenced block: a label, two or more spaces, the key in hex
# (spaces allowed), then an optional note in parentheses or a payload
# length standing in for bytes too long to print.
_EXAMPLE = re.compile(r"(\S.*?) {2,}([0-9a-f]{2}[0-9a-f ]*?)(?: +\(.*\)| <(\d+) payload bytes>)?")


def _key(order: str, value) -> bytes:
    return encode(parse(order), value)


LEX = "lex(0, omega, ([uint8]))"
CONTRELEX = "contrelex(0, omega, ([uint8]))"
HIERAR = "hierar(0, omega, ([uint8]))"

# Each label in the page, and how to make the bytes it shows.
EXPECTED = {
    "finite(5), rank 3": lambda: _key("finite(5)", 3),
    "uint16, 0x1234": lambda: _key("uint16", 0x1234),
    'bytes, b"ab"': lambda: _key("bytes", b"ab"),
    "lex [5]": lambda: _key(LEX, [5]),
    "lex [5, 6]": lambda: _key(LEX, [5, 6]),
    "contrelex [5]": lambda: _key(CONTRELEX, [5]),
    "contrelex [5, 6]": lambda: _key(CONTRELEX, [5, 6]),
    "lex of lex": lambda: _key(f"lex(0, omega, ([{LEX}]))", [[5]]),
    "contrelex of lex": lambda: _key(f"contrelex(0, omega, ([{LEX}]))", [[5]]),
    "lex []": lambda: _key(LEX, []),
    "contrelex []": lambda: _key(CONTRELEX, []),
    "header(0)": lambda: hierar_count_header(0),
    "header(1)": lambda: hierar_count_header(1),
    "header(255)": lambda: hierar_count_header(255),
    "header(256)": lambda: hierar_count_header(256),
    "header(2**64 - 1)": lambda: hierar_count_header(2**64 - 1),
    # Above the sequence-count cap: the same header, as the one term of a rational.
    "header(2**400)": lambda: rational_key(2**400, 1)[2:-1],
    "hierar []": lambda: _key(HIERAR, []),
    "hierar [5]": lambda: _key(HIERAR, [5]),
    "contrehierar []": lambda: _key("contrehierar(0, omega, ([uint8]))", []),
    "rational 0": lambda: rational_key(0, 1),
    "rational 1/2": lambda: rational_key(1, 2),
    "rational 7/3": lambda: rational_key(7, 3),
    "rational 355/113": lambda: rational_key(355, 113),
    "rational -7/3": lambda: rational_key(-7, 3),
    "sum(finite(2), (uint8, bool)), (1, true)": lambda: _key("sum(finite(2), (uint8, bool))", (1, True)),
    'open next(2, 3, (int32 desc, bytes)), [900, "ada"]': lambda: encode(
        parse("next(2, 3, (int32 desc, bytes))"), [900, b"ada"], "open"
    ),
}


def _page_examples() -> dict:
    """Label to (hex, payload length or None) for every example line in a fenced block."""
    examples = {}
    fenced = False
    for line in PAGE.read_text(encoding="utf-8").splitlines():
        if line.startswith("```"):
            fenced = not fenced
            continue
        match = _EXAMPLE.fullmatch(line) if fenced else None
        if match:
            label, key, payload = match.groups()
            assert label not in examples, f"label {label!r} is used twice"
            examples[label] = (key.replace(" ", ""), None if payload is None else int(payload))
    return examples


def test_every_hex_example_is_encoder_output():
    examples = _page_examples()
    assert examples.keys() == EXPECTED.keys()
    for label, (key, payload) in examples.items():
        made = EXPECTED[label]()
        if payload is None:
            assert made.hex() == key, label
        else:  # the page prints the header's first bytes and counts the rest
            assert made[: len(key) // 2].hex() == key and len(made) == len(key) // 2 + payload, label


def test_scalar_table_examples_are_encoder_output():
    text = PAGE.read_text(encoding="utf-8")

    def raw(kind, value) -> str:
        return primitive_key(BuiltinKind(kind), value).hex()

    shown = [
        f"`uint16 0x1234` -> `{raw('uint16', 0x1234)}`",
        f"`-128` -> `{raw('int8', -128)}`, `0` -> `{raw('int8', 0)}`, `127` -> `{raw('int8', 127)}`",
        f"`1.0` -> `{raw('float64', 1.0)[:4]}...`, `-2.0` -> `{raw('float64', -2.0)[:4]}...`",
        f"`false` -> `{_key('bool', False)[1:2].hex()}`",
        f"`finite(5)` rank 3 -> `{_key('finite(5)', 3)[1:2].hex()}`",
        f"`-0.0` (`{raw('float64', -0.0)[:4]}...`) strictly below `+0.0` (`{raw('float64', 0.0)[:4]}...`)",
    ]
    for example in shown:
        assert example in " ".join(text.split()), example
