"""FPGA resource estimation (the Vivado-synthesis substitute).

The paper reports post-synthesis LUT / FF / DSP / BRAM counts on a Xilinx
VC709.  We cannot run vendor synthesis, so both compilers' output is charged
by the same per-construct cost model, calibrated to Xilinx 7-series mapping
rules:

* **FF** — one flip-flop per declared register bit.
* **LUT** — carry-chain adders/subtractors cost ~1 LUT per bit; comparators
  and bitwise logic ~0.5 LUT per bit; 2:1 multiplexers ~0.5 LUT per bit per
  selected input; multiplications by constants are decomposed into shift/adds.
* **DSP** — a variable x variable multiply of widths ``w1 x w2`` maps to
  ``ceil(w1*w2 / (18*25))`` DSP48 slices (three for 32x32, matching the
  768 DSPs / 256 PEs of the paper's GEMM).
* **BRAM / distributed RAM** — memories larger than 1024 bits (or explicitly
  requested as block RAM) use 18-kbit BRAM tiles; smaller memories map to
  LUT-RAM at ~1 LUT per 2 stored bits plus addressing.

Because the *same* model is applied to the HIR compiler's output and to the
baseline HLS compiler's output, relative comparisons (who uses more, by how
much) are meaningful even though absolute numbers differ from Vivado's.

Each module is charged in one post-order walk: the expression visitor adds a
node's LUT/DSP cost to the module's totals and returns the node's width, so
no subtree is visited twice.  Totals stay unrounded until the whole
hierarchy is summed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, Optional

from repro.verilog.ast import (
    AlwaysFF,
    Assign,
    BinOp,
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
    Ref,
    RegDecl,
    Statement,
    Ternary,
    UnOp,
    Wire,
)

#: Memories strictly larger than this many bits use block RAM.
BRAM_THRESHOLD_BITS = 1024
#: Capacity of one BRAM tile (18 kbit).
BRAM_TILE_BITS = 18 * 1024
#: DSP48 multiplier tile dimensions.
DSP_WIDTH_A = 18
DSP_WIDTH_B = 25

#: Operators with a 1-bit result, each charged like a comparator.
_ONE_BIT_OPS = frozenset(("==", "!=", "<", "<=", ">", ">=", "&&"))


@dataclass
class ResourceReport:
    """LUT / FF / DSP / BRAM totals for a design or module."""

    lut: float = 0.0
    ff: float = 0.0
    dsp: float = 0.0
    bram: float = 0.0

    def __add__(self, other: "ResourceReport") -> "ResourceReport":
        return ResourceReport(
            self.lut + other.lut,
            self.ff + other.ff,
            self.dsp + other.dsp,
            self.bram + other.bram,
        )

    def rounded(self) -> "ResourceReport":
        return ResourceReport(
            round(self.lut), round(self.ff), round(self.dsp), round(self.bram)
        )

    def as_dict(self) -> Dict[str, int]:
        return {
            "LUT": int(round(self.lut)),
            "FF": int(round(self.ff)),
            "DSP": int(round(self.dsp)),
            "BRAM": int(round(self.bram)),
        }

    def __str__(self) -> str:
        d = self.as_dict()
        return (f"LUT={d['LUT']} FF={d['FF']} DSP={d['DSP']} BRAM={d['BRAM']}")


def estimate_resources(design: Design, top: Optional[str] = None) -> ResourceReport:
    """Total resources of the design rooted at ``top`` (default: the design's
    top), each instance charged the full cost of the module it instantiates."""
    totals: Dict[str, ResourceReport] = {}

    def total(name: str) -> ResourceReport:
        report = totals.get(name)
        if report is None:
            module = design.modules.get(name)
            if module is None or module.external:
                # Black boxes contribute the cost of their known equivalents;
                # an unknown black box costs nothing (matching how the paper
                # excludes vendor IP internals from its own comparison).
                report = ResourceReport()
            else:
                report = _module_cost(module)
                for item in module.items:
                    if isinstance(item, Instance):
                        report = report + total(item.module_name)
            totals[name] = report
        return report

    return total(top or design.top).rounded()


def _module_cost(module: Module) -> ResourceReport:
    """Standalone cost of ``module`` (instances excluded)."""
    # Collected before the walk, since a signal may be read before it is
    # declared; a wire or register overrides a port of the same name.
    widths: Dict[str, int] = {port.name: port.width for port in module.ports}
    for item in module.items:
        if isinstance(item, (Wire, RegDecl)):
            widths[item.name] = item.width
    cost = ResourceReport()

    def charge_expr(expr: Expr) -> int:
        """Charge ``expr``'s operators to ``cost``; return its width."""
        if isinstance(expr, Const):
            return expr.width
        if isinstance(expr, Ref):
            return widths.get(expr.name, 32)
        if isinstance(expr, BinOp):
            lhs_width = charge_expr(expr.lhs)
            rhs_width = charge_expr(expr.rhs)
            width = max(lhs_width, rhs_width)
            op = expr.op
            if op in ("+", "-"):
                cost.lut += width
            elif op == "*":
                _charge_multiply(cost, expr, lhs_width, rhs_width)
            elif op in ("&", "|", "^") or op in _ONE_BIT_OPS:
                cost.lut += 0.5 * width
            elif op in ("<<", ">>") and not isinstance(expr.rhs, Const):
                cost.lut += width  # barrel shifter stage
            return 1 if op in _ONE_BIT_OPS else width
        if isinstance(expr, UnOp):
            # Every unary operator keeps its operand's width, even ``!``/``|``.
            width = charge_expr(expr.operand)
            cost.lut += 0.5 * width if expr.op in ("~", "-") else 0.5
            return width
        if isinstance(expr, Ternary):
            charge_expr(expr.condition)
            width = max(charge_expr(expr.true_value), charge_expr(expr.false_value))
            cost.lut += 0.5 * width
            return width
        if isinstance(expr, MemIndex):
            charge_expr(expr.address)
        return 32

    def charge_stmt(stmt: Statement) -> None:
        if isinstance(stmt, NonBlockingAssign):
            charge_expr(stmt.expr)
        elif isinstance(stmt, MemWrite):
            charge_expr(stmt.address)
            charge_expr(stmt.data)
        elif isinstance(stmt, If):
            charge_expr(stmt.condition)
            # A guarded register load costs a clock-enable LUT per target bit
            # only when the tools cannot use the native CE pin; charge a small
            # constant for the control decode instead.
            cost.lut += 1
            for inner in stmt.then_body + stmt.else_body:
                charge_stmt(inner)

    for item in module.items:
        if isinstance(item, RegDecl):
            cost.ff += item.width
        elif isinstance(item, MemoryDecl):
            _charge_memory(cost, item)
        elif isinstance(item, Assign):
            charge_expr(item.expr)
        elif isinstance(item, AlwaysFF):
            for stmt in item.body:
                charge_stmt(stmt)
    return cost


def _charge_memory(cost: ResourceReport, memory: MemoryDecl) -> None:
    bits = memory.width * memory.depth
    if memory.kind == "registers":
        cost.ff += bits
    elif memory.kind == "bram" or (
            memory.kind in ("auto", "lutram") and bits > BRAM_THRESHOLD_BITS):
        cost.bram += max(1, math.ceil(bits / BRAM_TILE_BITS))
        # Address/enable fabric around the BRAM.
        cost.lut += 4 if memory.single_port else 8
    else:
        # Distributed (LUT) RAM: one LUT stores two bits (RAM32M packing),
        # plus read-address decoding; a second port costs extra fabric.
        cost.lut += math.ceil(bits / 2) + (2 if memory.single_port else 6)


def _charge_multiply(cost: ResourceReport, expr: BinOp,
                     lhs_width: int, rhs_width: int) -> None:
    lhs_constant = isinstance(expr.lhs, Const)
    rhs_constant = isinstance(expr.rhs, Const)
    if lhs_constant and rhs_constant:
        return  # folds to a constant wire
    if lhs_constant or rhs_constant:
        # Constant multiply: synthesized as a shift/add tree in fabric.
        constant = (expr.lhs if lhs_constant else expr.rhs).value
        terms = bin(abs(constant)).count("1")
        cost.lut += max(0, terms - 1) * max(lhs_width, rhs_width)
    else:
        cost.dsp += math.ceil((lhs_width * rhs_width)
                              / (DSP_WIDTH_A * DSP_WIDTH_B))
        cost.lut += 8  # partial-product stitching
