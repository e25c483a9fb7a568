"""Parser for the generic textual form produced by :mod:`repro.ir.printer`.

The grammar is the MLIR generic operation form::

    operation  ::= (results `=`)? `"` op-name `"` `(` operands `)`
                   regions? attr-dict? `:` `(` types `)` `->` `(` types `)`
    regions    ::= `(` `{` block+ `}` (`,` `{` block+ `}`)* `)`
    block      ::= `^bb0` (`(` block-args `)`)? `:` operation*

Dialect types (anything starting with ``!``) are parsed through a registry
(:func:`repro.ir.types.register_dialect_type_parser`) so the HIR dialect can
install parsers for ``!hir.memref<...>`` et al. without this module
depending on the dialect, or the dialect on this module.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Dict, List, Optional

from repro.ir.attributes import (
    ArrayAttr,
    Attribute,
    BoolAttr,
    FloatAttr,
    IntegerAttr,
    StringAttr,
    SymbolRefAttr,
    TypeAttr,
)
from repro.ir.block import Block
from repro.ir.errors import ParseError
from repro.ir.location import Location
from repro.ir.operation import Operation, create_operation
from repro.ir.types import (
    _DIALECT_TYPE_PARSERS,
    FloatType,
    FunctionType,
    IndexType,
    IntegerType,
    NoneType,
    Type,
    register_dialect_type_parser,  # noqa: F401 - re-exported
)
from repro.ir.values import Value

# --------------------------------------------------------------------------- #
# Lexer
# --------------------------------------------------------------------------- #

_TOKEN_RE = re.compile(
    r"""
    (?P<ws>\s+|//[^\n]*)
  | (?P<string>"(?:\\.|[^"\\])*")
  | (?P<float>-?\d+\.\d+(?:[eE][-+]?\d+)?)
  | (?P<integer>-?\d+)
  | (?P<percent>%[A-Za-z0-9_]+)
  | (?P<at>@[A-Za-z0-9_.$]+)
  | (?P<caret>\^[A-Za-z0-9_]+)
  | (?P<exclaim>![A-Za-z_][A-Za-z0-9_.]*)
  | (?P<ident>[A-Za-z_][A-Za-z0-9_.]*)
  | (?P<arrow>->)
  | (?P<punct>[(){}\[\]<>,:=*])
    """,
    re.VERBOSE,
)


@dataclass
class Token:
    kind: str
    text: str
    line: int
    column: int


def tokenize(source: str, filename: str = "<string>") -> List[Token]:
    tokens: List[Token] = []
    line = 1
    line_start = 0
    pos = 0
    while pos < len(source):
        match = _TOKEN_RE.match(source, pos)
        if match is None:
            column = pos - line_start + 1
            raise ParseError(
                f"unexpected character {source[pos]!r}",
                Location.file(filename, line, column),
            )
        kind = match.lastgroup or "ws"
        text = match.group()
        if kind != "ws":
            tokens.append(Token(kind, text, line, pos - line_start + 1))
        newlines = text.count("\n")
        if newlines:
            line += newlines
            line_start = pos + text.rfind("\n") + 1
        pos = match.end()
    tokens.append(Token("eof", "", line, pos - line_start + 1))
    return tokens


# --------------------------------------------------------------------------- #
# Type parsing helpers (shared with dialect type parsers)
# --------------------------------------------------------------------------- #

_INT_TYPE_RE = re.compile(r"^(ui|i)(\d+)$")
_FLOAT_TYPE_RE = re.compile(r"^f(\d+)$")


def parse_simple_type(text: str) -> Type:
    """Parse a builtin scalar type written as a single identifier."""
    match = _INT_TYPE_RE.match(text)
    if match:
        return IntegerType(int(match.group(2)), signed=match.group(1) == "i")
    match = _FLOAT_TYPE_RE.match(text)
    if match:
        return FloatType(int(match.group(1)))
    if text == "index":
        return IndexType()
    if text == "none":
        return NoneType()
    raise ParseError(f"unknown type {text!r}")


# --------------------------------------------------------------------------- #
# Parser
# --------------------------------------------------------------------------- #


class Parser:
    def __init__(self, source: str, filename: str = "<string>") -> None:
        self.filename = filename
        self.tokens = tokenize(source, filename)
        self.pos = 0
        # Scope stack mapping %name -> Value; nested regions may read outer
        # values, so lookups walk the stack outward.
        self.scopes: List[Dict[str, Value]] = [{}]

    # -- token helpers ------------------------------------------------------
    def peek(self, offset: int = 0) -> Token:
        return self.tokens[min(self.pos + offset, len(self.tokens) - 1)]

    def next(self) -> Token:
        token = self.tokens[self.pos]
        if token.kind != "eof":
            self.pos += 1
        return token

    def location(self, token: Optional[Token] = None) -> Location:
        token = token or self.peek()
        return Location.file(self.filename, token.line, token.column)

    def expect(self, text: str) -> Token:
        token = self.next()
        if token.text != text:
            raise ParseError(f"expected {text!r}, found {token.text!r}", self.location(token))
        return token

    def expect_kind(self, kind: str) -> Token:
        token = self.next()
        if token.kind != kind:
            raise ParseError(f"expected {kind}, found {token.text!r}", self.location(token))
        return token

    def accept(self, text: str) -> bool:
        if self.peek().text == text:
            self.next()
            return True
        return False

    # -- value scope --------------------------------------------------------
    def define_value(self, name: str, value: Value) -> None:
        self.scopes[-1][name] = value
        value.name_hint = value.name_hint or _hint_from_name(name)

    def lookup_value(self, name: str, token: Token) -> Value:
        for scope in reversed(self.scopes):
            if name in scope:
                return scope[name]
        raise ParseError(f"use of undefined value %{name}", self.location(token))

    # -- types ----------------------------------------------------------------
    def parse_type(self) -> Type:
        token = self.next()
        if token.kind == "ident":
            return parse_simple_type(token.text)
        if token.kind == "exclaim":
            full = token.text[1:]
            if "." not in full:
                raise ParseError(f"malformed dialect type !{full}", self.location(token))
            dialect, mnemonic = full.split(".", 1)
            body: Optional[str] = None
            if self.peek().text == "<":
                body = self._capture_angle_body()
            parser = _DIALECT_TYPE_PARSERS.get(dialect)
            if parser is None:
                raise ParseError(f"no registered dialect {dialect!r}", self.location(token))
            return parser(mnemonic, body)
        if token.text == "(":
            inputs = self._parse_type_list_until(")")
            self.expect_kind("arrow")
            self.expect("(")
            results = self._parse_type_list_until(")")
            return FunctionType(tuple(inputs), tuple(results))
        raise ParseError(f"expected a type, found {token.text!r}", self.location(token))

    def _parse_type_list_until(self, closer: str) -> List[Type]:
        types: List[Type] = []
        if self.accept(closer):
            return types
        while True:
            types.append(self.parse_type())
            if self.accept(closer):
                return types
            self.expect(",")

    def _capture_angle_body(self) -> str:
        """Capture raw text between balanced ``<`` ... ``>`` tokens."""
        self.expect("<")
        depth = 1
        parts: List[str] = []
        while depth:
            token = self.next()
            if token.kind == "eof":
                raise ParseError("unterminated '<' in type", self.location(token))
            if token.text == "<":
                depth += 1
            elif token.text == ">":
                depth -= 1
                if depth == 0:
                    break
            parts.append(token.text)
        return " ".join(parts)

    # -- attributes -------------------------------------------------------------
    def parse_attribute(self) -> Attribute:
        token = self.peek()
        if token.kind == "string":
            self.next()
            return StringAttr(_unescape(token.text[1:-1]))
        if token.kind == "at":
            self.next()
            return SymbolRefAttr(token.text[1:])
        if token.text == "[":
            self.next()
            elements: List[Attribute] = []
            if not self.accept("]"):
                while True:
                    elements.append(self.parse_attribute())
                    if self.accept("]"):
                        break
                    self.expect(",")
            return ArrayAttr(tuple(elements))
        if token.text in ("true", "false"):
            self.next()
            return BoolAttr(token.text == "true")
        if token.kind == "float":
            self.next()
            type_ = self._maybe_attr_type()
            return FloatAttr(float(token.text), type_)
        if token.kind == "integer":
            self.next()
            type_ = self._maybe_attr_type()
            return IntegerAttr(int(token.text), type_)
        if token.kind in ("ident", "exclaim") or token.text == "(":
            return TypeAttr(self.parse_type())
        raise ParseError(f"expected an attribute, found {token.text!r}", self.location(token))

    def _maybe_attr_type(self) -> Optional[Type]:
        if self.peek().text == ":":
            self.next()
            return self.parse_type()
        return None

    def parse_attr_dict(self) -> Dict[str, Attribute]:
        attributes: Dict[str, Attribute] = {}
        self.expect("{")
        if self.accept("}"):
            return attributes
        while True:
            key = self.expect_kind("ident").text
            self.expect("=")
            attributes[key] = self.parse_attribute()
            if self.accept("}"):
                return attributes
            self.expect(",")

    # -- operations -----------------------------------------------------------------
    def parse_operation(self) -> Operation:
        start = self.peek()
        result_names: List[str] = []
        if start.kind == "percent":
            while True:
                result_names.append(self.expect_kind("percent").text[1:])
                if not self.accept(","):
                    break
            self.expect("=")
        name_token = self.expect_kind("string")
        op_name = name_token.text[1:-1]

        self.expect("(")
        operand_tokens: List[Token] = []
        if not self.accept(")"):
            while True:
                operand_tokens.append(self.expect_kind("percent"))
                if self.accept(")"):
                    break
                self.expect(",")
        operands = [self.lookup_value(t.text[1:], t) for t in operand_tokens]

        # Regions (optional).
        region_blocks: List[List[Block]] = []
        if self.peek().text == "(" and self.peek(1).text == "{":
            self.expect("(")
            while True:
                self.expect("{")
                region_blocks.append(self._parse_region_blocks())
                if self.accept(")"):
                    break
                self.expect(",")

        attributes: Dict[str, Attribute] = {}
        if self.peek().text == "{":
            attributes = self.parse_attr_dict()

        self.expect(":")
        self.expect("(")
        operand_types = self._parse_type_list_until(")")
        self.expect_kind("arrow")
        self.expect("(")
        result_types = self._parse_type_list_until(")")
        location = self._parse_trailing_location(self.location(name_token))

        if len(operand_types) != len(operands):
            raise ParseError(
                f"{op_name}: {len(operands)} operands but {len(operand_types)} operand types",
                self.location(name_token),
            )
        for operand, expected in zip(operands, operand_types):
            if operand.type != expected:
                raise ParseError(
                    f"{op_name}: operand %{operand.display_name()} has type "
                    f"{operand.type}, expected {expected}",
                    self.location(name_token),
                )
        if result_names and len(result_names) != len(result_types):
            raise ParseError(
                f"{op_name}: {len(result_names)} result names but "
                f"{len(result_types)} result types",
                self.location(name_token),
            )

        op = create_operation(
            op_name,
            operands=operands,
            result_types=result_types,
            attributes=attributes,
            num_regions=0,
            location=location,
        )
        from repro.ir.region import Region  # local import to avoid cycle at module load

        for blocks in region_blocks:
            region = Region(op)
            op.regions.append(region)
            for block in blocks:
                region.add_block(block)

        for name, result in zip(result_names, op.results):
            result.name_hint = _hint_from_name(name)
            self.define_value(name, result)
        return op

    def _parse_trailing_location(self, default: Location) -> Location:
        """Parse an optional ``loc(...)`` clause after an operation.

        The printer's ``with_locations`` mode emits ``loc(unknown)``,
        ``loc("name")`` or ``loc("file":line:column)``; absent a clause the
        operation is located at its own source position (``default``).
        """
        if self.peek().text != "loc" or self.peek(1).text != "(":
            return default
        self.next()
        self.expect("(")
        token = self.next()
        if token.text == "unknown":
            location: Location = Location.unknown()
        elif token.kind == "string":
            text = _unescape(token.text[1:-1])
            if self.accept(":"):
                line = int(self.expect_kind("integer").text)
                self.expect(":")
                column = int(self.expect_kind("integer").text)
                location = Location.file(text, line, column)
            else:
                location = Location.name(text)
        else:
            raise ParseError(
                f"malformed loc(...) clause at {token.text!r}",
                self.location(token))
        self.expect(")")
        return location

    def _parse_region_blocks(self) -> List[Block]:
        """Parse the blocks of one region up to the closing '}'."""
        blocks: List[Block] = []
        self.scopes.append({})
        try:
            while not self.accept("}"):
                blocks.append(self._parse_block())
        finally:
            self.scopes.pop()
        return blocks

    def _parse_block(self) -> Block:
        block = Block()
        token = self.peek()
        if token.kind == "caret":
            self.next()
            if self.accept("("):
                if not self.accept(")"):
                    while True:
                        arg_token = self.expect_kind("percent")
                        self.expect(":")
                        arg_type = self.parse_type()
                        arg = block.add_argument(
                            arg_type, _hint_from_name(arg_token.text[1:]))
                        self.define_value(arg_token.text[1:], arg)
                        if self.accept(")"):
                            break
                        self.expect(",")
            self.expect(":")
        while self.peek().text != "}" and self.peek().kind != "caret":
            if self.peek().kind == "eof":
                raise ParseError("unexpected end of input inside a block", self.location())
            block.append(self.parse_operation())
        return block


def _unescape(text: str) -> str:
    return text.replace('\\"', '"').replace("\\\\", "\\")


def _hint_from_name(name: str) -> Optional[str]:
    """A textual value name worth keeping as an SSA name hint.

    The printer names hint-less values ``%0, %1, ...``; restoring those
    digits as hints would change downstream hint-derived names (e.g.
    Verilog signals ``sig0`` vs ``v_0``), so Verilog generated from a
    re-parsed module would differ.  Real hints survive.
    """
    return None if name.isdigit() else name


def parse_module(source: str, filename: str = "<string>") -> Operation:
    """Parse a module (or any single top-level operation) from text."""
    parser = Parser(source, filename)
    op = parser.parse_operation()
    if parser.peek().kind != "eof":
        raise ParseError(
            f"unexpected trailing input {parser.peek().text!r}", parser.location()
        )
    return op
