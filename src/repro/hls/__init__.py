"""The baseline HLS compiler: the reproduction's Vivado HLS substitute."""

from repro.hls.binding import Binder, BindingResult, FunctionalUnit, RegisterAllocation, bind_loop
from repro.hls.compiler import (
    HLSCompiler,
    HLSReport,
    HLSResult,
    LoopReport,
    compile_program,
)
from repro.hls.dse import (
    Candidate,
    LoopExploration,
    clear_schedule_memo,
    collect_innermost_loops,
    explore_loop,
    schedule_memo_size,
)
from repro.hls.options import HLSOptions
from repro.hls.rtl import LoopRTLInfo, RTLGenerator
from repro.hls.scheduling import (
    DataflowGraph,
    DFGBuilder,
    DFGNode,
    LoopSchedule,
    asap_schedule,
    alap_schedule,
    graph_signature,
    list_schedule,
    recurrence_min_ii,
    resource_min_ii,
    schedule_loop,
)
from repro.hls.swir import (
    ARRAY,
    Assign,
    BinExpr,
    For,
    Function,
    IntConst,
    Load,
    LocalArray,
    Param,
    Pragmas,
    Program,
    SCALAR,
    Store,
    SwBuilder,
    Var,
)

__all__ = [
    "Binder", "BindingResult", "FunctionalUnit", "RegisterAllocation", "bind_loop",
    "HLSCompiler", "HLSReport", "HLSResult", "LoopReport", "compile_program",
    "Candidate", "HLSOptions", "LoopExploration", "clear_schedule_memo",
    "collect_innermost_loops", "explore_loop", "schedule_memo_size",
    "LoopRTLInfo", "RTLGenerator",
    "DataflowGraph", "DFGBuilder", "DFGNode", "LoopSchedule",
    "asap_schedule", "alap_schedule", "graph_signature", "list_schedule",
    "recurrence_min_ii", "resource_min_ii", "schedule_loop",
    "ARRAY", "Assign", "BinExpr", "For", "Function", "IntConst", "Load",
    "LocalArray", "Param", "Pragmas", "Program", "SCALAR", "Store",
    "SwBuilder", "Var",
]
