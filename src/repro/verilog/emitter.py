"""Emit the Verilog AST as synthesizable Verilog-2001 text.

The HIR paper notes (Section 5.5) that the code generator prints the HIR
source location of each operation as a comment next to the hardware it
produced, so timing failures in the vendor tools can be traced back to the
IR; :class:`Comment` items and module ``header_comments`` carry those here.
"""

from __future__ import annotations

import io
from typing import List

from repro.verilog.ast import (
    AlwaysFF,
    Assign,
    BinOp,
    Comment,
    Const,
    Design,
    Expr,
    If,
    Instance,
    MemIndex,
    MemoryDecl,
    MemWrite,
    Module,
    NonBlockingAssign,
    RegDecl,
    Statement,
    Ternary,
    UnOp,
    Wire,
)

_INDENT = "  "


def emit_expr(expr: Expr) -> str:
    if isinstance(expr, Const):
        if expr.value < 0:
            return f"-{expr.width}'d{-expr.value}"
        return f"{expr.width}'d{expr.value}"
    if isinstance(expr, MemIndex):
        return f"{expr.memory}[{emit_expr(expr.address)}]"
    if isinstance(expr, UnOp):
        return f"({expr.op}{emit_expr(expr.operand)})"
    if isinstance(expr, BinOp):
        return f"({emit_expr(expr.lhs)} {expr.op} {emit_expr(expr.rhs)})"
    if isinstance(expr, Ternary):
        return (
            f"({emit_expr(expr.condition)} ? {emit_expr(expr.true_value)} : "
            f"{emit_expr(expr.false_value)})"
        )
    # Ref and anything name-like.
    return expr.name  # type: ignore[attr-defined]


def _emit_statement(stmt: Statement, indent: int, out: io.StringIO) -> None:
    pad = _INDENT * indent
    if isinstance(stmt, NonBlockingAssign):
        out.write(f"{pad}{stmt.target} <= {emit_expr(stmt.expr)};\n")
    elif isinstance(stmt, MemWrite):
        out.write(f"{pad}{stmt.memory}[{emit_expr(stmt.address)}] <= "
                  f"{emit_expr(stmt.data)};\n")
    elif isinstance(stmt, If):
        out.write(f"{pad}if ({emit_expr(stmt.condition)}) begin\n")
        for inner in stmt.then_body:
            _emit_statement(inner, indent + 1, out)
        if stmt.else_body:
            out.write(f"{pad}end else begin\n")
            for inner in stmt.else_body:
                _emit_statement(inner, indent + 1, out)
        out.write(f"{pad}end\n")
    else:  # pragma: no cover - defensive
        raise TypeError(f"cannot emit statement {stmt!r}")


def _range(width: int) -> str:
    if width <= 1:
        return ""
    return f"[{width - 1}:0] "


def emit_module(module: Module) -> str:
    out = io.StringIO()
    for comment in module.header_comments:
        out.write(f"// {comment}\n")
    if module.external:
        out.write(f"// external (black-box) module: {module.name}\n")
    port_decls = ", ".join(port.name for port in module.ports)
    out.write(f"module {module.name}({port_decls});\n")
    for port in module.ports:
        out.write(f"{_INDENT}{port.direction} wire {_range(port.width)}{port.name};\n")
    out.write("\n")
    for item in module.items:
        if isinstance(item, Comment):
            out.write(f"{_INDENT}// {item.text}\n")
        elif isinstance(item, Wire):
            out.write(f"{_INDENT}wire {_range(item.width)}{item.name};\n")
        elif isinstance(item, RegDecl):
            out.write(f"{_INDENT}reg {_range(item.width)}{item.name} = "
                      f"{item.width}'d{item.init};\n")
        elif isinstance(item, MemoryDecl):
            out.write(
                f"{_INDENT}reg {_range(item.width)}{item.name} "
                f"[0:{item.depth - 1}];  // {item.kind}"
                f"{', single-port' if item.single_port else ''}\n"
            )
        elif isinstance(item, Assign):
            out.write(f"{_INDENT}assign {item.target} = {emit_expr(item.expr)};\n")
        elif isinstance(item, AlwaysFF):
            out.write(f"{_INDENT}always @(posedge clk) begin\n")
            for stmt in item.body:
                _emit_statement(stmt, 2, out)
            out.write(f"{_INDENT}end\n")
        elif isinstance(item, Instance):
            out.write(f"{_INDENT}{item.module_name} {item.instance_name} (\n")
            connections = [
                f"{_INDENT * 2}.{port_name}({emit_expr(expr)})"
                for port_name, expr in item.connections.items()
            ]
            out.write(",\n".join(connections))
            out.write(f"\n{_INDENT});\n")
        else:  # pragma: no cover - defensive
            raise TypeError(f"cannot emit module item {item!r}")
    out.write("endmodule\n")
    return out.getvalue()


def emit_design(design: Design) -> str:
    """Emit every module reachable from the design's top module."""
    parts: List[str] = [
        "// Generated by the HIR reproduction compiler",
        f"// top module: {design.top}",
        "",
    ]
    for name in reversed(design.all_instantiated()):
        module = design.modules[name]
        if module.external:
            parts.append(f"// black-box: module {name} is supplied externally\n")
            continue
        parts.append(emit_module(module))
    return "\n".join(parts)
