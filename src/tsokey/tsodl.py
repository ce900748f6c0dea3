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

import re
import sys

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
    _reversed_ranks,
    validate,
)

__all__ = ["parse", "serialize"]

_HEX_DIGITS = frozenset("0123456789abcdef")
_NAMED_COLLATIONS = ("ascii", "identity")  # both are the identity table

# Nodes nested deeper than this fail as a syntax error before the parser's
# recursion nears Python's limit.  validate allows 14 operator levels, so
# only long inv chains come anywhere near it.
MAX_NESTING = 100

_SEQ_KINDS = {kind.value: kind for kind in SeqKind}
_BUILTIN_KINDS = {kind.value: kind for kind in BuiltinKind}

# Whitespace and comments, then a token (an ASCII word or one punctuation
# character), then any other character, which is an error.
_TOKEN = re.compile(r"[ \t\r\n]+|//[^\n]*|([A-Za-z0-9_]+|[()\[\],=])|(.)", re.DOTALL)


def _tokenize(text: str) -> list[tuple[str, int]]:
    """Each token's text and offset, then ``("", len(text))`` for the end of input."""
    tokens = []
    for match in _TOKEN.finditer(text):
        token, bad = match.groups()
        if bad is not None:
            raise TsodlSyntaxError(SourceSpan.at(text, match.start()), "a token", f"character {bad!r}")
        if token is not None:
            tokens.append((token, match.start()))
    tokens.append(("", len(text)))
    return tokens


class _Parser:
    """One method per production; a token is consumed only once it has matched."""

    def __init__(self, text: str):
        self._text = text
        self._tokens = _tokenize(text)
        self._pos = 0
        self._depth = 0

    def _fail(self, expected: str) -> None:
        token, offset = self._tokens[self._pos]
        found = f"'{token}'" if token else "end of input"
        raise TsodlSyntaxError(SourceSpan.at(self._text, offset), expected, found)

    def _peek(self) -> str:
        return self._tokens[self._pos][0]

    def _accept(self, token: str) -> bool:
        """Consume the next token if it is ``token``, a punctuation or a keyword in any case."""
        if self._peek().lower() != token:
            return False
        self._pos += 1
        return True

    def _expect(self, token: str) -> None:
        if not self._accept(token):
            self._fail(f"'{token}'")

    def _int(self, what: str) -> int:
        token, offset = self._tokens[self._pos]
        if not token.isdigit():
            self._fail(what)
        try:
            value = int(token)
        except ValueError:  # more digits than the interpreter converts to an int
            found = f"an integer of {len(token)} digits (more than {sys.get_int_max_str_digits()})"
            raise TsodlSyntaxError(SourceSpan.at(self._text, offset), what, found) from None
        self._pos += 1
        return value

    def _nodes(self) -> tuple[OrderNode, ...]:
        """A comma-separated node list: a prelude, a period or the cases of a sum."""
        nodes = [self.node()]
        while self._accept(","):
            nodes.append(self.node())
        return tuple(nodes)

    def _collation(self, named: bool) -> tuple[int, ...] | None:
        """The table of a ``collation=`` clause; with ``named`` (a bytes leaf) a name means None."""
        what = "a collation name or hex byte table" if named else "a hex byte table"
        self._expect("collation")
        self._expect("=")
        word = self._peek().lower()
        table = None
        if not named or word not in _NAMED_COLLATIONS:
            if not word or len(word) % 2 != 0 or not set(word) <= _HEX_DIGITS:
                self._fail(what)
            table = tuple(bytes.fromhex(word))
            if named and len(table) != 256:
                self._fail("a 256-entry hex byte table")
        self._pos += 1
        return table

    # -- productions --------------------------------------------------------

    def node(self) -> OrderNode:
        if self._depth == MAX_NESTING:
            self._fail(f"nodes nested at most {MAX_NESTING} deep")
        self._depth += 1
        tree = self._node()
        self._depth -= 1
        return tree

    def _node(self) -> OrderNode:
        word = self._peek().lower()
        if word == "finite":
            return self.finite()
        if word == "inv":
            self._pos += 1
            self._expect("(")
            child = self.node()
            self._expect(")")
            if isinstance(child, Builtin):
                return Builtin(child.kind, child.collation, not child.inverted)
            return Inv(child)
        if word == "sum":
            return self._sum()
        if word in _SEQ_KINDS:
            return self._seqop(_SEQ_KINDS[word])
        if word in _BUILTIN_KINDS:
            return self._builtin(_BUILTIN_KINDS[word])
        self._fail("an order node")

    def finite(self) -> Finite:
        self._expect("finite")
        self._expect("(")
        cardinality = self._int("a cardinality")
        collation = self._collation(named=False) if self._accept(",") else None
        self._expect(")")
        return Finite(cardinality, collation)

    def _builtin(self, kind: BuiltinKind) -> Builtin:
        self._pos += 1
        collation = None
        if self._peek() == "(":
            if kind is not BuiltinKind.BYTES:
                self._fail("'desc' or the end of the leaf")
            self._pos += 1
            collation = self._collation(named=True)
            self._expect(")")
        return Builtin(kind, collation, self._accept("desc"))

    def _seqop(self, kind: SeqKind) -> SeqOp:
        self._pos += 1
        self._expect("(")
        min_len = self._int("a minimum length")
        self._expect(",")
        max_len = OMEGA if self._accept("omega") else self._int("a maximum length or 'omega'")
        self._expect(",")
        self._expect("(")
        prelude = () if self._peek() in (")", "[") else self._nodes()
        period = ()
        if self._accept("["):
            period = self._nodes()
            self._expect("]")
        self._expect(")")
        self._expect(")")
        return SeqOp(kind, min_len, max_len, prelude, period)

    def _sum(self) -> Sum:
        self._pos += 1
        self._expect("(")
        master = self.finite()
        self._expect(",")
        self._expect("(")
        cases = self._nodes()
        self._expect(")")
        self._expect(")")
        return Sum(master, cases)

    def end(self) -> None:
        if self._peek():
            self._fail("end of input")


def parse(text: str) -> OrderNode:
    """Parse definition text into a validated order tree.

    Raises TsodlSyntaxError with the offending token's position on bad
    syntax and forwards ValidationError from the structural checks.
    """
    parser = _Parser(text)
    tree = parser.node()
    parser.end()
    validate(tree)
    return tree


def _hex_table(table: tuple[int, ...]) -> str:
    return bytes(table).hex()  # ValueError on a rank above 255: no spelling has one


def _finite(node: Finite) -> str:
    if node.collation is None:
        return f"finite({node.cardinality})"
    return f"finite({node.cardinality}, collation={_hex_table(node.collation)})"


def serialize(tree: OrderNode) -> str:
    """Canonical text for a tree; re-parsing gives an order-equivalent tree.

    Inversions normalize on the way out: stacked Inv wrappers cancel in
    pairs, and a net inversion around a builtin leaf prints through the
    ``desc`` sugar, so programmatically built trees and parsed ones print
    alike and serialize(parse(text)) is a fixpoint.  A leaf whose collation
    is the reversed range that push_inv_to_leaves gives prints as
    ``inv(finite(n))``, and as ``finite(n)`` under a net inversion; any
    other table with a rank above 255 (a sum master of more than 256 cases
    under an inversion) has no spelling and raises ValueError.
    """
    if isinstance(tree, Finite):
        if tree.collation == _reversed_ranks(tree.cardinality):
            return f"inv(finite({tree.cardinality}))"
        return _finite(tree)
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
            return serialize(Builtin(base.kind, base.collation, not base.inverted))
        if isinstance(base, Finite) and base.collation == _reversed_ranks(base.cardinality):
            return f"finite({base.cardinality})"
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
        return f"sum({_finite(tree.master)}, ({cases}))"
    raise TypeError(f"not an order node: {type(tree).__name__}")
