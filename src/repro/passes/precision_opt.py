"""Precision optimization (Section 6.3, Table 4).

Hardware benefits from arbitrarily narrow arithmetic.  HIR's high-level
description makes the analysis easy: constant loop bounds bound the loop
induction variable, and ranges propagate through arithmetic.  The pass

1. runs a forward value-range analysis over each function,
2. narrows loop induction variables to the smallest signed width able to hold
   their range (this shrinks the loop counter, comparator and every address
   adder fed by it), and
3. narrows the results of pure compute ops and delays whose range is known.

The equivalent optimization in an HDL would require reverse-engineering the
loop's state machine, which is exactly the point the paper makes.
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

from repro.ir.operation import Operation
from repro.ir.pass_manager import Pass
from repro.ir.types import IntegerType
from repro.ir.values import Value
from repro.hir.ops import (
    AddOp,
    BinaryOp,
    CmpOp,
    DelayOp,
    ExtOp,
    ForOp,
    FuncOp,
    MultOp,
    SelectOp,
    ShlOp,
    SubOp,
    TruncOp,
    UnrollForOp,
    constant_value,
)
from repro.passes.common import functions_in, signed_range_width

Range = Tuple[int, int]


class RangeAnalysis:
    """Forward interval analysis over one function."""

    def __init__(self, func: FuncOp) -> None:
        self.func = func
        self.ranges: Dict[Value, Range] = {}

    def run(self) -> Dict[Value, Range]:
        self._analyse_block(self.func.body.operations)
        return self.ranges

    def range_of(self, value: Value) -> Optional[Range]:
        constant = constant_value(value)
        if constant is not None:
            return (constant, constant)
        return self.ranges.get(value)

    def _analyse_block(self, operations) -> None:
        for op in operations:
            self._analyse_op(op)
            for region in op.regions:
                for block in region.blocks:
                    self._analyse_block(block.operations)

    def _analyse_op(self, op: Operation) -> None:
        if isinstance(op, ForOp):
            self._analyse_for(op)
            return
        if isinstance(op, UnrollForOp):
            # The unrolled induction variable is a compile-time constant.
            self.ranges[op.induction_var] = (op.lower_bound, max(op.lower_bound,
                                                                 op.upper_bound - 1))
            return
        if isinstance(op, DelayOp):
            input_range = self.range_of(op.value)
            if input_range is not None:
                self.ranges[op.results[0]] = input_range
            return
        if isinstance(op, (TruncOp, ExtOp)):
            input_range = self.range_of(op.operand(0))
            if input_range is not None:
                self.ranges[op.results[0]] = input_range
            return
        if isinstance(op, SelectOp):
            true_range = self.range_of(op.true_value)
            false_range = self.range_of(op.false_value)
            if true_range and false_range:
                self.ranges[op.results[0]] = (
                    min(true_range[0], false_range[0]),
                    max(true_range[1], false_range[1]),
                )
            return
        if isinstance(op, CmpOp):
            self.ranges[op.results[0]] = (0, 1)
            return
        if isinstance(op, BinaryOp):
            self._analyse_binary(op)

    def _analyse_for(self, op: ForOp) -> None:
        lb = constant_value(op.lower_bound)
        ub = constant_value(op.upper_bound)
        step = constant_value(op.step)
        if lb is not None and ub is not None and step is not None and step > 0:
            # The induction variable takes values in [lb, ub - 1]; the loop
            # counter itself must additionally be able to hold the exit value.
            self.ranges[op.induction_var] = (lb, max(lb, ub - 1))

    def _analyse_binary(self, op: BinaryOp) -> None:
        lhs = self.range_of(op.lhs)
        rhs = self.range_of(op.rhs)
        if lhs is None or rhs is None:
            return
        if isinstance(op, AddOp):
            result = (lhs[0] + rhs[0], lhs[1] + rhs[1])
        elif isinstance(op, SubOp):
            result = (lhs[0] - rhs[1], lhs[1] - rhs[0])
        elif isinstance(op, MultOp):
            products = [lhs[0] * rhs[0], lhs[0] * rhs[1], lhs[1] * rhs[0], lhs[1] * rhs[1]]
            result = (min(products), max(products))
        elif isinstance(op, ShlOp):
            if rhs[0] != rhs[1] or rhs[0] < 0 or rhs[0] > 31:
                return
            result = (lhs[0] << rhs[0], lhs[1] << rhs[0])
        else:
            return
        self.ranges[op.results[0]] = result


class PrecisionOptimizationPass(Pass):
    """Narrow integer widths using value-range analysis."""

    name = "precision-optimization"

    def run(self, module: Operation) -> None:
        for func in functions_in(module):
            self._run_on_function(func)

    def _run_on_function(self, func: FuncOp) -> None:
        analysis = RangeAnalysis(func)
        ranges = analysis.run()
        # Narrow loop induction variables first (defs are processed before
        # uses, so dependent delays pick up the new width below).
        for op in func.walk():
            if isinstance(op, ForOp):
                self._narrow_induction_var(op, ranges)
        for op in func.walk():
            if isinstance(op, DelayOp):
                self._narrow_delay(op, ranges)
            elif isinstance(op, BinaryOp):
                self._narrow_result(op, ranges)

    def _narrow_induction_var(self, op: ForOp, ranges: Dict[Value, Range]) -> None:
        iv = op.induction_var
        value_range = ranges.get(iv)
        if value_range is None or not isinstance(iv.type, IntegerType):
            return
        # The hardware counter must also hold the loop exit value (== upper
        # bound) to terminate, so include it in the range.
        upper = constant_value(op.upper_bound)
        high = max(value_range[1], upper if upper is not None else value_range[1])
        needed = signed_range_width(value_range[0], high)
        if needed < iv.type.width:
            self.record("bits-saved", iv.type.width - needed)
            self.record("values-narrowed")
            op.set_iv_type(IntegerType(needed))

    def _narrow_delay(self, op: DelayOp, ranges: Dict[Value, Range]) -> None:
        # A delay's result type must match its (possibly narrowed) input type.
        if op.results[0].type != op.value.type:
            self.record("values-narrowed")
            op.results[0].type = op.value.type

    def _narrow_result(self, op: BinaryOp, ranges: Dict[Value, Range]) -> None:
        result = op.results[0]
        value_range = ranges.get(result)
        if value_range is None or not isinstance(result.type, IntegerType):
            return
        needed = signed_range_width(*value_range)
        if needed < result.type.width:
            self.record("bits-saved", result.type.width - needed)
            self.record("values-narrowed")
            result.type = IntegerType(needed)
