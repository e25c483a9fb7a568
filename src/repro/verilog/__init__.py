"""Verilog backend: AST, emitter, FSM synthesis and the HIR code generator.

The names below are re-exported lazily: reading a design's AST or emitting
it does not load the code generator (or the passes it uses).
"""

from repro._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    "repro.verilog.ast": ("AlwaysFF", "Assign", "BinOp", "Comment", "Const",
                          "Design", "Expr", "If", "INPUT", "Instance",
                          "MemIndex", "MemoryDecl", "MemWrite", "Module",
                          "NonBlockingAssign", "OUTPUT", "Port", "Ref",
                          "RegDecl", "Ternary", "UnOp", "Wire", "const",
                          "or_reduce", "ref"),
    "repro.verilog.codegen": ("CodegenResult", "FunctionLowering",
                              "generate_verilog_impl"),
    "repro.verilog.emitter": ("emit_design", "emit_expr", "emit_module"),
    "repro.verilog.fsm": ("LoopController", "LoopSignals", "PulseGenerator"),
    "repro.verilog.memory": ("MemAccess", "MemoryLowering",
                             "interface_signals"),
    "repro.verilog.naming": ("SignalNamer", "sanitize"),
})
