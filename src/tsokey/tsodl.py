"""Parser and canonical serializer for order definition text.

The language is a direct spelling of the order model::

    node     := finite | builtin | inv | seqop | sum
    finite   := "finite" "(" INT [ "," "collation" "=" HEXLIST ] ")"
    builtin  := KIND [ "(" "collation" "=" NAME-or-HEXLIST ")" ] [ "desc" ]
    inv      := "inv" "(" node ")"
    seqop    := OPNAME "(" INT "," (INT | "omega") "," "(" [nodelist] [ "[" nodelist "]" ] ")" ")"
    sum      := "sum" "(" finite "," "(" nodelist ")" ")"
    nodelist := node ("," node)*

Keywords are case-insensitive, ``//`` starts a line comment, and whitespace
is insignificant.  The collation group is only meaningful on byte-string
leaves; it takes either a named table (``ascii`` and ``identity`` both mean
the identity enumeration) or an inline hex table with two digits per entry.
``desc`` marks a descending leaf and is sugar for wrapping the leaf in
``inv(...)``; both spellings produce the same flagged Builtin node so that
canonical output is stable.

``serialize`` emits lowercase keywords, ``", "`` separators and the ``desc``
sugar, and ``parse(serialize(parse(text)))`` equals ``parse(text)`` for any
valid input.
"""

from __future__ import annotations

from dataclasses import replace

from .errors import SourceSpan, TsodlSyntaxError
from .order_model import (
    OMEGA,
    Builtin,
    BuiltinKind,
    Finite,
    Inv,
    OrderNode,
    SeqKind,
    SeqOp,
    Sum,
    validate,
)

__all__ = ["parse", "serialize"]

_PUNCT = "()[],="
_HEX_DIGITS = frozenset("0123456789abcdef")
_NAMED_COLLATIONS = ("ascii", "identity")  # both are the identity table

# Nodes nested deeper than this fail as a syntax error before the parser's
# recursion nears Python's limit.  validate allows 14 operator levels, so
# only long inv chains come anywhere near it.
MAX_NESTING = 100

_SEQ_KINDS = {kind.value: kind for kind in SeqKind}
_BUILTIN_KINDS = {kind.value: kind for kind in BuiltinKind}


class _Token:
    __slots__ = ("kind", "text", "span")

    def __init__(self, kind: str, text: str, span: SourceSpan):
        self.kind = kind  # "word" | "punct" | "end"
        self.text = text
        self.span = span

    def describe(self) -> str:
        if self.kind == "end":
            return "end of input"
        return f"'{self.text}'"


def _tokenize(text: str) -> list[_Token]:
    tokens: list[_Token] = []
    line = 1
    column = 1
    i = 0
    n = len(text)
    while i < n:
        ch = text[i]
        if ch == "\n":
            line += 1
            column = 1
            i += 1
            continue
        if ch in " \t\r":
            column += 1
            i += 1
            continue
        if ch == "/" and text[i + 1 : i + 2] == "/":
            while i < n and text[i] != "\n":
                i += 1
                column += 1
            continue
        if ch in _PUNCT:
            tokens.append(_Token("punct", ch, SourceSpan(line, column, i)))
            column += 1
            i += 1
            continue
        if ch.isascii() and (ch.isalnum() or ch == "_"):
            start = i
            start_column = column
            while i < n and text[i].isascii() and (text[i].isalnum() or text[i] == "_"):
                i += 1
                column += 1
            tokens.append(_Token("word", text[start:i], SourceSpan(line, start_column, start)))
            continue
        raise TsodlSyntaxError(SourceSpan(line, column, i), "a token", f"character {ch!r}")
    tokens.append(_Token("end", "", SourceSpan(line, column, n)))
    return tokens


class _Parser:
    def __init__(self, tokens: list[_Token]):
        self._tokens = tokens
        self._pos = 0
        self._depth = 0

    def _peek(self) -> _Token:
        return self._tokens[self._pos]

    def _advance(self) -> _Token:
        token = self._tokens[self._pos]
        if token.kind != "end":
            self._pos += 1
        return token

    def _fail(self, expected: str, token: _Token | None = None) -> None:
        token = token or self._peek()
        raise TsodlSyntaxError(token.span, expected, token.describe())

    def _expect_punct(self, ch: str) -> _Token:
        token = self._peek()
        if token.kind != "punct" or token.text != ch:
            self._fail(f"'{ch}'")
        return self._advance()

    def _at_punct(self, ch: str) -> bool:
        token = self._peek()
        return token.kind == "punct" and token.text == ch

    def _int(self, what: str = "an integer") -> int:
        token = self._peek()
        if token.kind != "word" or not token.text.isdigit():
            self._fail(what)
        self._advance()
        return int(token.text)

    def _hexlist(self, token: _Token, what: str) -> tuple[int, ...]:
        word = token.text.lower()
        if len(word) % 2 != 0 or not set(word) <= _HEX_DIGITS:
            self._fail(what, token)
        return tuple(int(word[i : i + 2], 16) for i in range(0, len(word), 2))

    # -- productions --------------------------------------------------------

    def node(self) -> OrderNode:
        if self._depth == MAX_NESTING:
            self._fail(f"nodes nested at most {MAX_NESTING} deep")
        self._depth += 1
        tree = self._node()
        self._depth -= 1
        return tree

    def _node(self) -> OrderNode:
        token = self._peek()
        if token.kind != "word":
            self._fail("an order node")
        word = token.text.lower()
        if word == "finite":
            return self.finite()
        if word == "inv":
            self._advance()
            self._expect_punct("(")
            child = self.node()
            self._expect_punct(")")
            if isinstance(child, Builtin):
                return replace(child, inverted=not child.inverted)
            return Inv(child)
        if word == "sum":
            return self._sum()
        if word in _SEQ_KINDS:
            return self._seqop(_SEQ_KINDS[word])
        if word in _BUILTIN_KINDS:
            return self._builtin(_BUILTIN_KINDS[word])
        self._fail("an order node")

    def finite(self) -> Finite:
        token = self._peek()
        if token.kind != "word" or token.text.lower() != "finite":
            self._fail("'finite'")
        self._advance()
        self._expect_punct("(")
        cardinality = self._int("a cardinality")
        collation = None
        if self._at_punct(","):
            self._advance()
            key = self._peek()
            if key.kind != "word" or key.text.lower() != "collation":
                self._fail("'collation'")
            self._advance()
            self._expect_punct("=")
            value = self._peek()
            if value.kind != "word":
                self._fail("a hex byte table")
            self._advance()
            collation = self._hexlist(value, "a hex byte table")
        self._expect_punct(")")
        return Finite(cardinality, collation)

    def _builtin(self, kind: BuiltinKind) -> Builtin:
        self._advance()
        collation = None
        if self._at_punct("("):
            if kind is not BuiltinKind.BYTES:
                self._fail("'desc' or the end of the leaf")
            self._advance()
            key = self._peek()
            if key.kind != "word" or key.text.lower() != "collation":
                self._fail("'collation'")
            self._advance()
            self._expect_punct("=")
            value = self._peek()
            if value.kind != "word":
                self._fail("a collation name or hex byte table")
            self._advance()
            if value.text.lower() in _NAMED_COLLATIONS:
                collation = None
            else:
                collation = self._hexlist(value, "a collation name or hex byte table")
                if len(collation) != 256:
                    self._fail(
                        "a 256-entry hex byte table",
                        value,
                    )
            self._expect_punct(")")
        inverted = False
        trailer = self._peek()
        if trailer.kind == "word" and trailer.text.lower() == "desc":
            self._advance()
            inverted = True
        return Builtin(kind, collation, inverted)

    def _seqop(self, kind: SeqKind) -> SeqOp:
        self._advance()
        self._expect_punct("(")
        min_len = self._int("a minimum length")
        self._expect_punct(",")
        bound = self._peek()
        if bound.kind == "word" and bound.text.lower() == "omega":
            self._advance()
            max_len = OMEGA
        else:
            max_len = self._int("a maximum length or 'omega'")
        self._expect_punct(",")
        self._expect_punct("(")
        prelude: list[OrderNode] = []
        if not self._at_punct(")") and not self._at_punct("["):
            prelude.append(self.node())
            while self._at_punct(","):
                self._advance()
                prelude.append(self.node())
        period: list[OrderNode] = []
        if self._at_punct("["):
            self._advance()
            period.append(self.node())
            while self._at_punct(","):
                self._advance()
                period.append(self.node())
            self._expect_punct("]")
        self._expect_punct(")")
        self._expect_punct(")")
        return SeqOp(kind, min_len, max_len, tuple(prelude), tuple(period))

    def _sum(self) -> Sum:
        self._advance()
        self._expect_punct("(")
        master = self.finite()
        self._expect_punct(",")
        self._expect_punct("(")
        cases: list[OrderNode] = [self.node()]
        while self._at_punct(","):
            self._advance()
            cases.append(self.node())
        self._expect_punct(")")
        self._expect_punct(")")
        return Sum(master, tuple(cases))

    def end(self) -> None:
        token = self._peek()
        if token.kind != "end":
            self._fail("end of input")


def parse(text: str) -> OrderNode:
    """Parse definition text into a validated order tree.

    Raises TsodlSyntaxError with the offending token's position on bad
    syntax and forwards ValidationError from the structural checks.
    """
    parser = _Parser(_tokenize(text))
    tree = parser.node()
    parser.end()
    validate(tree)
    return tree


def _hex_table(table: tuple[int, ...]) -> str:
    return "".join(f"{value:02x}" for value in table)


def serialize(tree: OrderNode) -> str:
    """Canonical text for a tree; re-parsing gives an order-equivalent tree.

    Inversions normalize on the way out: stacked Inv wrappers cancel in
    pairs, and a net inversion around a builtin leaf prints through the
    ``desc`` sugar, so programmatically built trees and parsed ones print
    alike and serialize(parse(text)) is a fixpoint.
    """
    if isinstance(tree, Finite):
        if tree.collation is None:
            return f"finite({tree.cardinality})"
        return f"finite({tree.cardinality}, collation={_hex_table(tree.collation)})"
    if isinstance(tree, Builtin):
        text = tree.kind.value
        if tree.collation is not None:
            text += f"(collation={_hex_table(tree.collation)})"
        if tree.inverted:
            text += " desc"
        return text
    if isinstance(tree, Inv):
        base: OrderNode = tree
        flipped = False
        while isinstance(base, Inv):
            base = base.child
            flipped = not flipped
        if not flipped:
            return serialize(base)
        if isinstance(base, Builtin):
            return serialize(replace(base, inverted=not base.inverted))
        return f"inv({serialize(base)})"
    if isinstance(tree, SeqOp):
        bound = "omega" if tree.max_len is OMEGA else str(tree.max_len)
        items = ", ".join(serialize(child) for child in tree.prelude)
        if tree.period:
            brackets = f"[{', '.join(serialize(child) for child in tree.period)}]"
            items = f"{items} {brackets}" if items else brackets
        return f"{tree.kind.value}({tree.min_len}, {bound}, ({items}))"
    if isinstance(tree, Sum):
        cases = ", ".join(serialize(case) for case in tree.cases)
        return f"sum({serialize(tree.master)}, ({cases}))"
    raise TypeError(f"not an order node: {type(tree).__name__}")
