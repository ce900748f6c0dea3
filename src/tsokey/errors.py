"""Exception taxonomy for the tsokey package.

Every error raised on a user-facing path derives from TsokeyError.  The CLI
maps ordinary input problems (bad tree, bad element, bad syntax) to exit code
1 and internal invariant failures (counter underflow and friends, which would
mean validation let a bad tree through) to exit code 2.
"""

from __future__ import annotations

from operator import attrgetter


class Record:
    """Base of the package's frozen slotted value records (tree nodes, spans, ...).

    A subclass lists its fields in ``__match_args__``, names its slots and
    stores the fields in ``__init__`` through ``_store``.  The base gives
    equality within one class, a hash, a repr and pickling by those fields
    alone, and refuses assignment and deletion with ``AttributeError``.
    ``_values``, the tuple of the fields, is an ``attrgetter`` made per class.
    """

    __slots__ = ()

    def __init_subclass__(cls) -> None:
        names = getattr(cls, "__match_args__", ())
        if len(names) > 1:
            cls._values = property(attrgetter(*names))
        elif names:  # attrgetter of one name gives the bare value
            get = attrgetter(*names)
            cls._values = property(lambda self: (get(self),))

    def _store(self, *values) -> None:
        for name, value in zip(self.__match_args__, values):
            object.__setattr__(self, name, value)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._values == other._values
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._values)

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__match_args__)
        return f"{type(self).__qualname__}({fields})"

    def __reduce__(self):
        return type(self), self._values

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")


class TsokeyError(Exception):
    """Base class for all package errors."""


# ---------------------------------------------------------------------------
# Order model / validation


class ValidationError(TsokeyError):
    """An order tree violates a structural invariant."""


class MalformedNode(ValidationError):
    """A node has fields that make no sense (bad bounds, bad collation, ...).

    Carries the path of the offending node, e.g. "$.period[0].cases[2]".
    """

    def __init__(self, path: str, reason: str):
        super().__init__(f"{path}: {reason}")
        self.path = path
        self.reason = reason

    def __reduce__(self):
        return type(self), (self.path, self.reason)


class OrderTooDeep(ValidationError):
    """Nesting exceeds what the padding counters / depth nibble can express."""


class PeriodMissing(ValidationError):
    """An unbounded sequence node has no period to draw item orders from."""


class AntiNotUniform(ValidationError):
    """An anti* node is not of the uniform bounded shape they require."""


class NextNotFixedLength(ValidationError):
    """A next node does not have max_len == min_len + 1."""


class RankOutOfRange(TsokeyError):
    """item_order_at was asked for a rank the node cannot supply."""


# ---------------------------------------------------------------------------
# Elements


class ElementError(TsokeyError):
    """Base class for element-vs-tree mismatches."""


class ElementMismatch(ElementError):
    """An element value does not conform to the order tree (encoder side)."""


class IncompatibleElements(ElementError):
    """compare() or find_question() was handed a value that is not an element of the tree.

    The message is the one check_element gives for that value, tree path included.
    """


class NaNRejected(ElementError):
    """A float NaN was seen and the nan_high policy is not enabled."""


class DomainError(ElementError):
    """A numeric value falls outside the leaf's representable domain."""


class ZeroDenominator(ElementError):
    """A rational with denominator zero."""


SHOWN_CHARS = 200  # the longest value text an element error prints


def shown(value, form=repr) -> str:
    """``form(value)`` for an element error, or the name of the value's type.

    The name stands in when that text is longer than ``SHOWN_CHARS`` or
    cannot be made at all: a list nested too deep to repr, an int with
    more digits than Python converts to text.
    """
    try:
        text = form(value)
    except (RecursionError, ValueError):
        return type(value).__name__
    return text if len(text) <= SHOWN_CHARS else type(value).__name__


# ---------------------------------------------------------------------------
# Encoding


class EncodingError(TsokeyError):
    """Base class for key-construction failures."""


class CounterUnderflow(EncodingError):
    """A lex padding nibble would drop below zero (internal invariant)."""


class CounterOverflow(EncodingError):
    """A contrelex padding nibble would exceed fifteen (internal invariant)."""


class DepthOverflow(EncodingError):
    """An empty-sequence marker would need a depth nibble above fourteen."""


class CountTooLarge(EncodingError):
    """A sequence count at or above 2**64."""


class PackedModeUnavailable(EncodingError):
    """Packed keys were requested for a tree that is not fixed-length."""


class PrefixAnomaly(EncodingError):
    """One key is a strict prefix of another (internal invariant, debug only)."""


# ---------------------------------------------------------------------------
# Sorting


class MixedCellKinds(TsokeyError):
    """sort_cells was given short and long cells in the same array."""


# ---------------------------------------------------------------------------
# Order definition language


class SourceSpan(Record):
    """Position of a token in a definition file: 1-based line and column."""

    __slots__ = __match_args__ = ("line", "column", "offset")

    def __init__(self, line: int, column: int, offset: int):
        self._store(line, column, offset)

    @classmethod
    def at(cls, text: str, offset: int) -> SourceSpan:
        """The span of ``offset`` in ``text``: only ``\\n`` ends a line, and a column counts characters."""
        return cls(text.count("\n", 0, offset) + 1, offset - text.rfind("\n", 0, offset), offset)

    def __str__(self) -> str:
        return f"{self.line}:{self.column}"


class TsodlSyntaxError(TsokeyError):
    """A .tsodl file failed to tokenize or parse.

    Named to avoid shadowing the Python builtin.  `span` points inside the
    offending token; `expected` and `found` describe the mismatch.
    """

    def __init__(self, span: SourceSpan, expected: str, found: str):
        super().__init__(f"{span}: expected {expected}, found {found}")
        self.span = span
        self.expected = expected
        self.found = found

    def __reduce__(self):
        return type(self), (self.span, self.expected, self.found)
