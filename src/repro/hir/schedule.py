"""Schedule analysis: when is every value valid, when does every op start.

This is the timing model behind HIR's key contribution (Section 4.2): every
primitive SSA value is valid at a specific clock cycle expressed as an offset
from a *time variable*.  Time variables are

* the function's start time ``%t``,
* each loop's iteration start time ``%ti`` (a different instant per
  iteration), and
* each loop's completion time (the loop op's result).

The analysis computes, for a single ``hir.func``:

* ``op_start``    — the :class:`TimeStamp` at which each scheduled op starts,
* ``value_time``  — the :class:`TimeStamp` at which each primitive value is
  valid (constants, memrefs and time variables are *timeless*), and
* ``value_window``— how many extra cycles the value stays valid.  Loop
  induction variables stay valid until the next iteration starts, i.e. for
  ``II - 1`` extra cycles; everything else is a wire valid for one cycle.

The schedule verifier (:mod:`repro.passes.schedule_verifier`) and the
memory-port optimization (:mod:`repro.passes.memport_opt`) consume this
analysis.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

from repro.ir.operation import Operation
from repro.ir.values import Value
from repro.hir.ops import (
    AllocOp,
    BinaryOp,
    CallOp,
    CmpOp,
    ConstantOp,
    DelayOp,
    ExtOp,
    ForOp,
    FuncOp,
    MemReadOp,
    MemWriteOp,
    ReturnOp,
    SelectOp,
    TruncOp,
    UnrollForOp,
    YieldOp,
)
from repro.hir.types import ConstType, MemrefType, TimeType


@dataclass(frozen=True)
class TimeStamp:
    """A clock cycle expressed as ``root + offset`` where root is a time variable."""

    root: Value
    offset: int

    def advanced(self, cycles: int) -> "TimeStamp":
        return TimeStamp(self.root, self.offset + cycles)

    def describe(self) -> str:
        root_name = self.root.name_hint or "t"
        if self.offset == 0:
            return f"%{root_name}"
        return f"%{root_name}+{self.offset}"

    def __str__(self) -> str:
        return self.describe()


#: Window meaning "valid forever" (constants, memrefs, time variables).
UNBOUNDED = -1


class ScheduleInfo:
    """Result of analysing one function."""

    def __init__(self, func: FuncOp) -> None:
        self.func = func
        self.op_start: Dict[Operation, TimeStamp] = {}
        self.value_time: Dict[Value, TimeStamp] = {}
        self.value_window: Dict[Value, int] = {}
        #: Loop op owning each iteration-time variable (for error messages).
        self.time_var_owner: Dict[Value, Operation] = {}

    # -- queries ------------------------------------------------------------
    def is_timeless(self, value: Value) -> bool:
        """Constants, memrefs and time variables are not bound to a cycle."""
        if isinstance(value.type, (ConstType, MemrefType, TimeType)):
            return True
        return value not in self.value_time

    def time_of(self, value: Value) -> Optional[TimeStamp]:
        return self.value_time.get(value)

    def window_of(self, value: Value) -> int:
        return self.value_window.get(value, 0)

    def start_of(self, op: Operation) -> Optional[TimeStamp]:
        return self.op_start.get(op)

    def is_valid_at(self, value: Value, when: TimeStamp) -> bool:
        """Is ``value`` guaranteed to hold its defining value at ``when``?"""
        if self.is_timeless(value):
            return True
        valid = self.value_time[value]
        if valid.root is not when.root:
            return False
        window = self.window_of(value)
        if window == UNBOUNDED:
            return when.offset >= valid.offset
        return valid.offset <= when.offset <= valid.offset + window


class ScheduleAnalysis:
    """Computes :class:`ScheduleInfo` for an ``hir.func``."""

    def __init__(self, func: FuncOp) -> None:
        self.func = func
        self.info = ScheduleInfo(func)

    def run(self) -> ScheduleInfo:
        info = self.info
        if self.func.is_external:
            return info
        # Function arguments: primitives become valid arg_delays[i] cycles
        # after the function's start time; memrefs are timeless.
        time_arg = self.func.time_arg
        info.time_var_owner[time_arg] = self.func
        stable = self.func.stable_args
        for index, (arg, delay) in enumerate(
            zip(self.func.arguments, self.func.arg_delays)
        ):
            if isinstance(arg.type, (MemrefType, ConstType, TimeType)):
                continue
            info.value_time[arg] = TimeStamp(time_arg, delay)
            is_stable = stable[index] if index < len(stable) else False
            info.value_window[arg] = UNBOUNDED if is_stable else 0
        self._analyse_block(self.func.body.operations)
        return info

    # -- per-op rules --------------------------------------------------------
    def _analyse_block(self, operations: List[Operation]) -> None:
        for op in operations:
            self._analyse_op(op)

    def _analyse_op(self, op: Operation) -> None:
        info = self.info
        if isinstance(op, ConstantOp):
            info.value_window[op.results[0]] = UNBOUNDED
            return
        if isinstance(op, AllocOp):
            for result in op.results:
                info.value_window[result] = UNBOUNDED
            return
        if isinstance(op, (MemReadOp, MemWriteOp, DelayOp, CallOp, YieldOp)):
            start = TimeStamp(op.time_operand, op.offset)  # type: ignore[attr-defined]
            info.op_start[op] = start
            self._analyse_timed_op(op, start)
            return
        if isinstance(op, (BinaryOp, CmpOp, SelectOp, TruncOp, ExtOp)):
            self._analyse_combinational(op)
            return
        if isinstance(op, ForOp):
            self._analyse_for(op)
            return
        if isinstance(op, UnrollForOp):
            self._analyse_unroll_for(op)
            return
        if isinstance(op, ReturnOp):
            info.op_start[op] = TimeStamp(self.func.time_arg, 0)
            return
        # Unknown/extension op: leave results timeless.

    def _analyse_timed_op(self, op: Operation, start: TimeStamp) -> None:
        info = self.info
        if isinstance(op, MemReadOp):
            info.value_time[op.results[0]] = start.advanced(op.memref_type.read_latency)
            info.value_window[op.results[0]] = 0
        elif isinstance(op, DelayOp):
            input_time = info.time_of(op.value)
            base = input_time if input_time is not None else start
            info.value_time[op.results[0]] = base.advanced(op.delay)
            info.value_window[op.results[0]] = 0
        elif isinstance(op, CallOp):
            for result, delay in zip(op.results, op.result_delays):
                info.value_time[result] = start.advanced(delay)
                info.value_window[result] = 0

    def _analyse_combinational(self, op: Operation) -> None:
        """Compute ops: result valid at the shared time of the timed operands."""
        info = self.info
        operand_time: Optional[TimeStamp] = None
        for operand in op.operands:
            time = info.time_of(operand)
            if time is not None and operand_time is None:
                operand_time = time
        for result in op.results:
            if operand_time is not None:
                info.value_time[result] = operand_time
                info.value_window[result] = min(
                    (info.window_of(o) for o in op.operands if not info.is_timeless(o)),
                    default=0,
                )
            else:
                info.value_window[result] = UNBOUNDED

    def _analyse_for(self, op: ForOp) -> None:
        info = self.info
        info.op_start[op] = TimeStamp(op.time_operand, op.offset)
        info.time_var_owner[op.iter_time] = op
        info.time_var_owner[op.done_time] = op
        # The induction variable is produced by the loop's state machine at
        # the start of each iteration and stays valid until the next iteration
        # starts (II - 1 extra cycles).
        ii = op.initiation_interval()
        info.value_time[op.induction_var] = TimeStamp(op.iter_time, 0)
        info.value_window[op.induction_var] = (ii - 1) if ii and ii > 0 else 0
        info.value_window[op.done_time] = UNBOUNDED
        self._analyse_block(op.body.operations)

    def _analyse_unroll_for(self, op: UnrollForOp) -> None:
        info = self.info
        info.op_start[op] = TimeStamp(op.time_operand, op.offset)
        info.time_var_owner[op.iter_time] = op
        info.time_var_owner[op.done_time] = op
        # The unrolled induction variable is a compile-time constant.
        info.value_window[op.induction_var] = UNBOUNDED
        info.value_window[op.done_time] = UNBOUNDED
        self._analyse_block(op.body.operations)


def analyse(func: FuncOp) -> ScheduleInfo:
    """Convenience wrapper: run :class:`ScheduleAnalysis` on ``func``."""
    return ScheduleAnalysis(func).run()
