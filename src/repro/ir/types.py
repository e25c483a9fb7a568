"""Core type system shared by all dialects.

Mirrors MLIR builtin types: arbitrary bit-width integers, floats and function
types.  HIR-specific types (``!hir.const``, ``!hir.time`` and ``!hir.memref``)
live in :mod:`repro.hir.types` but derive from :class:`Type` defined here.

All types are immutable value objects: two types compare equal iff they print
the same, which keeps uniquing trivial.  Types are additionally *interned*
(hash-consed) via :class:`~repro.ir.interning.HashConsMeta`: constructing a
type that already exists returns the canonical instance, so equal types are
the *same object* and every comparison hits the identity fast path.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, Optional, Tuple

from repro.ir.interning import HashConsMeta


@dataclass(frozen=True)
class Type(metaclass=HashConsMeta):
    """Base class of every IR type."""

    def __str__(self) -> str:  # pragma: no cover - subclasses override
        return "<type>"

    # Types are immutable and interned: copying must preserve identity so
    # cloned/deep-copied IR keeps comparing by identity.
    def __copy__(self) -> "Type":
        return self

    def __deepcopy__(self, memo) -> "Type":
        return self

    @property
    def bitwidth(self) -> int:
        """Number of bits needed to carry a value of this type on a wire.

        Types that do not correspond to hardware data (function types, time
        variables, constants) report a width of 0.
        """
        return 0


@dataclass(frozen=True)
class IntegerType(Type):
    """Arbitrary bit-width integer, e.g. ``i1``, ``i8``, ``i32``."""

    width: int
    signed: bool = True

    def __post_init__(self) -> None:
        if self.width <= 0:
            raise ValueError(f"integer width must be positive, got {self.width}")

    def __str__(self) -> str:
        prefix = "i" if self.signed else "ui"
        return f"{prefix}{self.width}"

    @property
    def bitwidth(self) -> int:
        return self.width

    def min_value(self) -> int:
        if self.signed:
            return -(1 << (self.width - 1))
        return 0

    def max_value(self) -> int:
        if self.signed:
            return (1 << (self.width - 1)) - 1
        return (1 << self.width) - 1

    def wrap(self, value: int) -> int:
        """Wrap ``value`` into this type's two's-complement range."""
        mask = (1 << self.width) - 1
        value &= mask
        if self.signed and value >= (1 << (self.width - 1)):
            value -= 1 << self.width
        return value


@dataclass(frozen=True)
class FloatType(Type):
    """IEEE float of a given width (``f16``, ``f32``, ``f64``)."""

    width: int = 32

    def __post_init__(self) -> None:
        if self.width not in (16, 32, 64):
            raise ValueError(f"unsupported float width {self.width}")

    def __str__(self) -> str:
        return f"f{self.width}"

    @property
    def bitwidth(self) -> int:
        return self.width


@dataclass(frozen=True)
class IndexType(Type):
    """Platform-sized index type used by loop bounds before lowering."""

    def __str__(self) -> str:
        return "index"

    @property
    def bitwidth(self) -> int:
        return 32


@dataclass(frozen=True)
class NoneType(Type):
    """Unit type for operations that produce no meaningful value."""

    def __str__(self) -> str:
        return "none"


@dataclass(frozen=True)
class FunctionType(Type):
    """A function signature: input types and result types.

    HIR function signatures additionally embed per-value delays (Section 6.1
    of the paper, the ``i32 delay 3`` syntax); those delays are stored as
    attributes on the ``hir.func`` operation rather than in the type so that
    this type stays dialect-neutral.
    """

    inputs: Tuple[Type, ...] = field(default_factory=tuple)
    results: Tuple[Type, ...] = field(default_factory=tuple)

    def __str__(self) -> str:
        ins = ", ".join(str(t) for t in self.inputs)
        outs = ", ".join(str(t) for t in self.results)
        return f"({ins}) -> ({outs})"


# Convenient singletons / constructors used throughout the code base.
def i(width: int) -> IntegerType:
    """Shorthand for a signed integer type of the given width."""
    return IntegerType(width)


I1 = IntegerType(1)
I8 = IntegerType(8)
I16 = IntegerType(16)
I32 = IntegerType(32)
I64 = IntegerType(64)
F32 = FloatType(32)
F64 = FloatType(64)
INDEX = IndexType()
NONE = NoneType()


# --------------------------------------------------------------------------- #
# Dialect type registry
# --------------------------------------------------------------------------- #

#: Parses one ``!<dialect>.<mnemonic><body>`` type: ``(mnemonic, body)``.
DialectTypeParser = Callable[[str, Optional[str]], Type]
#: Filled by the dialects and read by :mod:`repro.ir.parser`; it lives here so
#: a dialect registers without importing the parser.
_DIALECT_TYPE_PARSERS: Dict[str, DialectTypeParser] = {}


def register_dialect_type_parser(dialect: str, parser: DialectTypeParser) -> None:
    """Register a parser for ``!<dialect>.<name>`` types.

    ``parser`` receives the type's mnemonic (the part after the dialect
    prefix) and the raw body between ``<`` and ``>`` (or ``None`` when the
    type has no body) and returns a :class:`Type`.
    """
    _DIALECT_TYPE_PARSERS[dialect] = parser
