"""Verilog backend: AST, emitter, FSM synthesis and the HIR code generator."""

from repro.verilog.ast import (
    AlwaysFF,
    Assign,
    BinOp,
    Comment,
    Const,
    Design,
    Expr,
    If,
    INPUT,
    Instance,
    MemIndex,
    MemoryDecl,
    MemWrite,
    Module,
    NonBlockingAssign,
    OUTPUT,
    Port,
    Ref,
    RegDecl,
    Ternary,
    UnOp,
    Wire,
    const,
    or_reduce,
    ref,
)
from repro.verilog.codegen import (
    CodegenOptions,
    CodegenResult,
    FunctionLowering,
    VerilogCodeGenerator,
    generate_verilog_impl,
)
from repro.verilog.emitter import emit_design, emit_expr, emit_module
from repro.verilog.fsm import LoopController, LoopSignals, PulseGenerator
from repro.verilog.memory import MemAccess, MemoryLowering, interface_signals
from repro.verilog.naming import SignalNamer, sanitize

__all__ = [
    "AlwaysFF", "Assign", "BinOp", "Comment", "Const", "Design",
    "Expr", "If", "INPUT", "Instance", "MemIndex", "MemoryDecl", "MemWrite",
    "Module", "NonBlockingAssign", "OUTPUT", "Port", "Ref", "RegDecl",
    "Ternary", "UnOp", "Wire", "const", "or_reduce", "ref",
    "CodegenOptions", "CodegenResult", "FunctionLowering",
    "VerilogCodeGenerator", "generate_verilog_impl",
    "emit_design", "emit_expr", "emit_module",
    "LoopController", "LoopSignals", "PulseGenerator",
    "MemAccess", "MemoryLowering", "interface_signals",
    "SignalNamer", "sanitize",
]
