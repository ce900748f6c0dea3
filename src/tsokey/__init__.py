"""Order-preserving byte keys for tree structured orders.

Build an order tree (or parse one from its text form), encode elements into
byte keys whose plain bytewise comparison reproduces the tree order, and
sort large key arrays with the built-in timsort (C, no build step).
"""

from .comparator import Ordering, compare, find_question
from .encoder import (
    PreparedOrder,
    check_element,
    compare_keys,
    continued_fraction,
    data_byte_count,
    empty_sequence_pattern,
    encode,
    encode_batch,
    encode_doc,
    hierar_count_header,
    prepare,
    primitive_key,
    rational_key,
    wrap_finite_leaf,
)
from .errors import (
    AntiNotUniform,
    CounterOverflow,
    CounterUnderflow,
    CountTooLarge,
    DepthOverflow,
    DomainError,
    ElementError,
    ElementMismatch,
    EncodingError,
    IncompatibleElements,
    MalformedNode,
    MixedCellKinds,
    NaNRejected,
    NextNotFixedLength,
    OrderTooDeep,
    PackedModeUnavailable,
    PeriodMissing,
    PrefixAnomaly,
    RankOutOfRange,
    SourceSpan,
    TsodlSyntaxError,
    TsokeyError,
    ValidationError,
    ZeroDenominator,
)
from .order_model import (
    BOOL,
    BYTES,
    FLOAT32,
    FLOAT64,
    INT8,
    INT16,
    INT32,
    INT64,
    OMEGA,
    RATIONAL,
    UINT8,
    UINT16,
    UINT32,
    UINT64,
    Builtin,
    BuiltinKind,
    Finite,
    Inv,
    OrderNode,
    PathStats,
    SeqKind,
    SeqOp,
    Sum,
    anticontrehierar,
    anticontrelex,
    antihierar,
    antilex,
    contre_rewrite,
    contrehierar,
    contrelex,
    finite,
    hierar,
    inv,
    item_order_at,
    lex,
    next_,
    push_inv_to_leaves,
    rational_parts,
    sum_of,
    validate,
)
# HAVE_COMPILED is always False; perfbench's worker imports it from here.
from .sorter import HAVE_COMPILED, LongCell, ShortCell, sort_cells
from .tsodl import parse, serialize

__version__ = "0.1.0"
