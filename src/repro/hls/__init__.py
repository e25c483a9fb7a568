"""The baseline HLS compiler: the reproduction's Vivado HLS substitute.

The names below are re-exported lazily; a kernel builds its HLS program
(:mod:`repro.hls.swir`) only when a caller reads it.
"""

from repro._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    "repro.hls.binding": ("Binder", "BindingResult", "FunctionalUnit",
                          "RegisterAllocation", "bind_loop"),
    "repro.hls.compiler": ("HLSCompiler", "HLSReport", "HLSResult",
                           "LoopReport", "compile_program"),
    "repro.hls.dse": ("Candidate", "LoopExploration", "clear_schedule_memo",
                      "collect_innermost_loops", "explore_loop",
                      "schedule_memo_size"),
    "repro.hls.options": ("HLSOptions",),
    "repro.hls.rtl": ("LoopRTLInfo", "RTLGenerator"),
    "repro.hls.scheduling": ("DataflowGraph", "DFGBuilder", "DFGNode",
                             "LoopSchedule", "asap_schedule", "alap_schedule",
                             "graph_signature", "list_schedule",
                             "recurrence_min_ii", "resource_min_ii",
                             "schedule_loop"),
    "repro.hls.swir": ("ARRAY", "Assign", "BinExpr", "For", "Function",
                       "IntConst", "Load", "LocalArray", "Param", "Pragmas",
                       "Program", "SCALAR", "Store", "SwBuilder", "Var"),
})
