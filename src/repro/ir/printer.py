"""Round-trippable textual printer (MLIR "generic form").

Every operation prints as::

    %res0, %res1 = "dialect.op"(%operand0, %operand1) ({
      ^bb0(%blockarg0: type):
        ...nested ops...
    }) {attr_name = attr_value, ...} : (operand types) -> (result types)

The output of :func:`print_module` parses back with
:func:`repro.ir.parser.parse_module` into structurally identical IR, which the
round-trip property tests exercise.  ``with_locations=True`` additionally
prints each operation's source location as a trailing ``loc(...)`` clause
(MLIR's generic-form location syntax) which the parser restores, so a
re-parsed module reproduces byte-identical Verilog, location comments
included.  A separate pretty printer for the HIR dialect (closer to the
listings in the paper) lives in :mod:`repro.hir.pretty`.
"""

from __future__ import annotations

import io
import re
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
from repro.ir.location import FileLocation, Location, NameLocation
from repro.ir.operation import Operation
from repro.ir.region import Region
from repro.ir.values import Value

_IDENT_RE = re.compile(r"^[A-Za-z_][A-Za-z0-9_]*$")


class NameManager:
    """Assigns unique textual names (%foo, %foo_1, %0, ...) to SSA values."""

    def __init__(self) -> None:
        self._names: Dict[Value, str] = {}
        self._used: set[str] = set()
        self._counter = 0

    def name_of(self, value: Value) -> str:
        name = self._names.get(value)
        if name is None:
            name = self._fresh(value.name_hint)
            self._names[value] = name
        return name

    def _fresh(self, hint: Optional[str]) -> str:
        if hint and _IDENT_RE.match(hint):
            candidate = hint
            suffix = 0
            while candidate in self._used:
                suffix += 1
                candidate = f"{hint}_{suffix}"
        else:
            candidate = str(self._counter)
            self._counter += 1
            while candidate in self._used:
                candidate = str(self._counter)
                self._counter += 1
        self._used.add(candidate)
        return candidate


class Printer:
    """Stateful printer writing the generic textual form."""

    def __init__(self, indent_width: int = 2,
                 with_locations: bool = False) -> None:
        self._out = io.StringIO()
        self._indent = 0
        self._indent_width = indent_width
        self._with_locations = with_locations
        self.names = NameManager()

    # -- low-level emission ---------------------------------------------------
    def _line(self, text: str) -> None:
        self._out.write(" " * (self._indent * self._indent_width) + text + "\n")

    def result(self) -> str:
        return self._out.getvalue()

    # -- attribute printing ------------------------------------------------------
    def print_attribute(self, attribute: Attribute) -> str:
        if isinstance(attribute, IntegerAttr):
            if attribute.type is not None:
                return f"{attribute.value} : {attribute.type}"
            return str(attribute.value)
        if isinstance(attribute, FloatAttr):
            text = repr(float(attribute.value))
            if attribute.type is not None:
                return f"{text} : {attribute.type}"
            return text
        if isinstance(attribute, BoolAttr):
            return "true" if attribute.value else "false"
        if isinstance(attribute, StringAttr):
            escaped = attribute.value.replace("\\", "\\\\").replace('"', '\\"')
            return f'"{escaped}"'
        if isinstance(attribute, SymbolRefAttr):
            return f"@{attribute.value}"
        if isinstance(attribute, TypeAttr):
            return str(attribute.value)
        if isinstance(attribute, ArrayAttr):
            return "[" + ", ".join(self.print_attribute(e) for e in attribute.elements) + "]"
        raise TypeError(f"cannot print attribute {attribute!r}")

    # -- op printing -----------------------------------------------------------------
    def print_operation(self, op: Operation) -> None:
        parts: List[str] = []
        if op.results:
            parts.append(", ".join(f"%{self.names.name_of(r)}" for r in op.results))
            parts.append(" = ")
        parts.append(f'"{op.name}"')
        parts.append("(")
        parts.append(", ".join(f"%{self.names.name_of(o)}" for o in op.operands))
        parts.append(")")
        header = "".join(parts)

        if op.regions:
            self._line(header + " (" + "{")
            for i, region in enumerate(op.regions):
                self._print_region_body(region)
                if i + 1 < len(op.regions):
                    self._line("}, {")
            self._line("}) " + self._trailer(op))
        else:
            self._line(header + " " + self._trailer(op))

    def _trailer(self, op: Operation) -> str:
        attr_text = ""
        if op.attributes:
            entries = ", ".join(
                f"{key} = {self.print_attribute(value)}"
                for key, value in sorted(op.attributes.items())
            )
            attr_text = "{" + entries + "} "
        operand_types = ", ".join(str(o.type) for o in op.operands)
        result_types = ", ".join(str(r.type) for r in op.results)
        text = f"{attr_text}: ({operand_types}) -> ({result_types})"
        if self._with_locations:
            text += " " + _location_text(op.location)
        return text

    def _print_region_body(self, region: Region) -> None:
        self._indent += 1
        for block in region.blocks:
            self._print_block(block)
        self._indent -= 1

    def _print_block(self, block: Block) -> None:
        if block.arguments:
            args = ", ".join(
                f"%{self.names.name_of(a)}: {a.type}" for a in block.arguments
            )
            self._line(f"^bb0({args}):")
        else:
            self._line("^bb0:")
        self._indent += 1
        for op in block.operations:
            self.print_operation(op)
        self._indent -= 1


def _escape(text: str) -> str:
    return text.replace("\\", "\\\\").replace('"', '\\"')


def _location_text(location: Location) -> str:
    """The trailing ``loc(...)`` clause of one operation."""
    if isinstance(location, NameLocation):
        return f'loc("{_escape(location.identifier)}")'
    if isinstance(location, FileLocation):
        return (f'loc("{_escape(location.filename)}"'
                f":{location.line}:{location.column})")
    return "loc(unknown)"


def print_op(op: Operation, with_locations: bool = False) -> str:
    """Print a single operation (and everything nested in it)."""
    printer = Printer(with_locations=with_locations)
    printer.print_operation(op)
    return printer.result()


def print_module(module: Operation, with_locations: bool = False) -> str:
    """Print a module (alias of :func:`print_op`, kept for readability)."""
    return print_op(module, with_locations=with_locations)


def module_fingerprint(module: Operation, length: int = 16) -> str:
    """Content hash of a module's printed form.

    The canonical identity the stage caches and the fuzzer's determinism
    checks key on: two modules fingerprint equal iff they print to the same
    text.  ``length`` truncates the sha256 hex digest (16 chars by default,
    matching the Flow artifact fingerprints).
    """
    import hashlib

    digest = hashlib.sha256(print_op(module).encode()).hexdigest()
    return digest[:length] if length else digest
