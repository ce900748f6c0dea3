"""Order-preserving byte keys for tree structured orders.

Build an order tree (or parse one from its text form), encode elements into
byte keys whose plain bytewise comparison reproduces the tree order, and
sort large key arrays: by distinct key where keys repeat, else by timsort.

Importing the package loads none of its modules: each public name below is
looked up in its module on first use (PEP 562), so ``tsokey sort`` pays
only for the modules it runs.
"""

import importlib

# Each public name, by the module that defines it.
_MODULE_NAMES = {
    "comparator": ("Ordering", "compare", "compare_keys", "find_question"),
    "encoder": (
        "PreparedOrder",
        "check_element",
        "continued_fraction",
        "data_byte_count",
        "empty_sequence_pattern",
        "encode",
        "encode_batch",
        "encode_doc",
        "hierar_count_header",
        "prepare",
        "primitive_key",
        "rational_key",
        "wrap_finite_leaf",
    ),
    "errors": (
        "AntiNotUniform",
        "CounterOverflow",
        "CounterUnderflow",
        "CountTooLarge",
        "DepthOverflow",
        "DomainError",
        "ElementError",
        "ElementMismatch",
        "EncodingError",
        "IncompatibleElements",
        "MalformedNode",
        "MixedCellKinds",
        "NaNRejected",
        "NextNotFixedLength",
        "OrderTooDeep",
        "PackedModeUnavailable",
        "PeriodMissing",
        "PrefixAnomaly",
        "RankOutOfRange",
        "SourceSpan",
        "TsodlSyntaxError",
        "TsokeyError",
        "ValidationError",
        "ZeroDenominator",
    ),
    "order_model": (
        "BOOL",
        "BYTES",
        "FLOAT32",
        "FLOAT64",
        "INT8",
        "INT16",
        "INT32",
        "INT64",
        "OMEGA",
        "RATIONAL",
        "UINT8",
        "UINT16",
        "UINT32",
        "UINT64",
        "Builtin",
        "BuiltinKind",
        "Finite",
        "Inv",
        "OrderNode",
        "PathStats",
        "SeqKind",
        "SeqOp",
        "Sum",
        "anticontrehierar",
        "anticontrelex",
        "antihierar",
        "antilex",
        "contrehierar",
        "contrelex",
        "finite",
        "hierar",
        "inv",
        "item_order_at",
        "lex",
        "next_",
        "push_inv_to_leaves",
        "rational_parts",
        "sum_of",
        "validate",
    ),
    # HAVE_COMPILED is always False; perfbench's worker imports it from here.
    "sorter": ("HAVE_COMPILED", "LongCell", "ShortCell", "sort_cells"),
    "tsodl": ("parse", "serialize"),
}

_MODULE_OF = {name: module for module, names in _MODULE_NAMES.items() for name in names}

__all__ = list(_MODULE_OF)

__version__ = "0.1.0"


def __getattr__(name):
    try:
        module = _MODULE_OF[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    value = getattr(importlib.import_module(f"{__name__}.{module}"), name)
    globals()[name] = value  # later lookups skip this function
    return value


def __dir__():
    return sorted(set(globals()) | _MODULE_OF.keys())
