"""Schedule verification (Section 6.1, Figures 1 and 2 of the paper).

HIR's SSA values of primitive type are only valid at a specific clock cycle
relative to a time variable.  The schedule verifier exploits this validity
information plus the explicitly specified schedule of every operation to
detect, at compile time, errors that an HDL compiler cannot see:

* **Invalid operand time** (Figure 1): an operation consumes a value in a
  cycle where it is no longer (or not yet) valid — e.g. using a loop induction
  variable one cycle late in a loop with initiation interval 1.
* **Pipeline imbalance** (Figure 2): the operands of a combinational operation
  arrive in different cycles — e.g. after swapping a two-stage multiplier for
  a three-stage one without re-balancing the adder's other input.
* **Cross-region use**: a value scheduled against one time region (say a loop
  iteration) is consumed relative to a different time variable.
* **Result delay mismatch**: a function declares ``i32 delay 3`` for a result
  but returns a value valid at a different offset.
* **Memory port conflict**: two accesses statically scheduled on the same
  memref port in the same cycle at different constant addresses (undefined
  behaviour per Section 4.5).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set, Tuple

from repro.ir.errors import ScheduleError
from repro.ir.location import Location
from repro.ir.module import ModuleOp
from repro.ir.operation import Operation
from repro.ir.pass_manager import Pass
from repro.ir.values import Value
from repro.hir.ops import (
    BinaryOp,
    CallOp,
    CmpOp,
    DelayOp,
    ForOp,
    FuncOp,
    MemReadOp,
    MemWriteOp,
    ReturnOp,
    SelectOp,
    UnrollForOp,
    constant_value,
)
from repro.hir.schedule import ScheduleAnalysis, ScheduleInfo, TimeStamp, UNBOUNDED
from repro.hir.types import ConstType, MemrefType

#: Diagnostic kinds emitted by the verifier.
INVALID_OPERAND_TIME = "invalid-operand-time"
PIPELINE_IMBALANCE = "pipeline-imbalance"
CROSS_REGION_USE = "cross-region-use"
RESULT_DELAY_MISMATCH = "result-delay-mismatch"
PORT_CONFLICT = "memory-port-conflict"


@dataclass
class ScheduleDiagnostic:
    """One schedule error, formatted like the paper's compiler diagnostics."""

    kind: str
    message: str
    op: Operation
    location: Location
    function: str

    def render(self) -> str:
        return f"{self.location}: error: [{self.kind}] {self.message}"

    def __str__(self) -> str:
        return self.render()


@dataclass
class VerificationReport:
    """All diagnostics produced for a module."""

    diagnostics: List[ScheduleDiagnostic] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.diagnostics

    def of_kind(self, kind: str) -> List[ScheduleDiagnostic]:
        return [d for d in self.diagnostics if d.kind == kind]

    def render(self) -> str:
        if self.ok:
            return "schedule verification: no errors"
        return "\n".join(d.render() for d in self.diagnostics)


class _FunctionVerifier:
    """Verifies the schedule of a single function."""

    def __init__(self, module: Optional[ModuleOp], func: FuncOp,
                 report: VerificationReport) -> None:
        self.module = module
        self.func = func
        self.report = report
        self.info: ScheduleInfo = ScheduleAnalysis(func).run()

    # -- diagnostics -----------------------------------------------------------
    def error(self, kind: str, op: Operation, message: str) -> None:
        self.report.diagnostics.append(
            ScheduleDiagnostic(kind, message, op, op.location, self.func.symbol_name)
        )

    def _describe_validity(self, value: Value) -> str:
        time = self.info.time_of(value)
        if time is None:
            return f"%{value.display_name()} is not bound to a clock cycle"
        window = self.info.window_of(value)
        if window == UNBOUNDED:
            return f"%{value.display_name()} is valid from {time} onwards"
        if window == 0:
            return f"%{value.display_name()} is only valid at {time}"
        return (
            f"%{value.display_name()} is valid during "
            f"[{time}, {time.advanced(window)}]"
        )

    # -- operand checks -----------------------------------------------------------
    def _is_stable_ancestor_iv(self, op: Operation, operand: Value) -> bool:
        """Is ``operand`` the induction variable of a loop enclosing ``op``?

        The paper's undefined-behaviour assumption 4 ("a new instance of a
        for-loop is not scheduled unless the previous instance has completed
        all iterations") guarantees that an enclosing loop's induction
        variable is stable for the entire execution of any loop nested inside
        its body, so such uses are valid even though they cross time regions
        (e.g. ``%i`` indexing a memref inside the ``j``-loop of Listing 1).
        Uses inside the loop's *own* body (no intervening loop) are still
        subject to the initiation-interval window check — that is exactly the
        Figure 1 error.
        """
        loop_ancestors = [a for a in op.ancestors()
                          if isinstance(a, (ForOp, UnrollForOp))]
        for index, ancestor in enumerate(loop_ancestors):
            if operand is ancestor.induction_var:
                return index > 0
        return False

    def _is_stable_for_use(self, op: Operation, operand: Value,
                           depth: int = 0) -> bool:
        """Is ``operand`` guaranteed stable for the whole region executing ``op``?

        True for enclosing-loop induction variables and for pure combinational
        expressions built exclusively from such stable values and constants
        (e.g. ``%oi + 1`` used as a read address inside a nested loop).
        """
        if depth > 16:
            return False
        if self._is_stable_ancestor_iv(op, operand):
            return True
        defining = getattr(operand, "operation", None)
        if defining is None or not getattr(defining, "PURE", False):
            return False
        if not defining.operands:
            return True  # hir.constant
        return all(
            self.info.is_timeless(o) or self._is_stable_for_use(op, o, depth + 1)
            for o in defining.operands
        )

    def _check_use(self, op: Operation, operand: Value, when: TimeStamp,
                   role: str) -> None:
        if self.info.is_timeless(operand):
            return
        if self.info.window_of(operand) == UNBOUNDED:
            # Stable values (e.g. scalar arguments the caller holds constant)
            # may be consumed at any cycle.
            return
        if self._is_stable_for_use(op, operand):
            return
        valid = self.info.time_of(operand)
        assert valid is not None
        if valid.root is not when.root:
            self.error(
                CROSS_REGION_USE,
                op,
                f"{role} %{operand.display_name()} of '{op.name}' is defined "
                f"relative to time variable %{valid.root.display_name() or 't'} "
                f"but is used relative to %{when.root.display_name() or 't'}; "
                "values cannot cross time regions without an explicit schedule "
                "relationship",
            )
            return
        if self.info.is_valid_at(operand, when):
            return
        message = (
            f"{role} %{operand.display_name()} of '{op.name}' is used at {when} "
            f"but {self._describe_validity(operand)}"
        )
        hint = self._late_use_hint(operand, when)
        if hint:
            message += f"; {hint}"
        self.error(INVALID_OPERAND_TIME, op, message)

    def _late_use_hint(self, operand: Value, when: TimeStamp) -> Optional[str]:
        """Explain *why* the use is invalid, in the spirit of Figure 1."""
        valid = self.info.time_of(operand)
        if valid is None or valid.root is not when.root:
            return None
        owner = self.info.time_var_owner.get(valid.root)
        if isinstance(owner, ForOp) and operand is owner.induction_var:
            ii = owner.initiation_interval()
            if ii is not None and when.offset > valid.offset + max(ii - 1, 0):
                return (
                    f"the enclosing hir.for has initiation interval {ii}, so "
                    f"%{operand.display_name()} has already advanced to the next "
                    "iteration's value; delay it with hir.delay"
                )
        if when.offset > valid.offset:
            lag = when.offset - valid.offset
            return f"insert 'hir.delay ... by {lag}' to balance the schedule"
        return None

    # -- per-op verification -----------------------------------------------------------
    def verify(self) -> None:
        if self.func.is_external:
            return
        self._verify_block(self.func.body.operations)
        self._verify_port_conflicts()
        self._verify_result_delays()

    def _verify_block(self, operations: List[Operation]) -> None:
        for op in operations:
            self._verify_op(op)
            for region in op.regions:
                for block in region.blocks:
                    self._verify_block(block.operations)

    def _verify_op(self, op: Operation) -> None:
        if isinstance(op, MemReadOp):
            start = self.info.start_of(op)
            assert start is not None
            for index in op.indices:
                self._check_use(op, index, start, "address operand")
        elif isinstance(op, MemWriteOp):
            start = self.info.start_of(op)
            assert start is not None
            for index in op.indices:
                self._check_use(op, index, start, "address operand")
            self._check_use(op, op.value, start, "data operand")
        elif isinstance(op, CallOp):
            start = self.info.start_of(op)
            assert start is not None
            arg_delays = self._callee_arg_delays(op)
            for i, arg in enumerate(op.args):
                delay = arg_delays[i] if arg_delays and i < len(arg_delays) else 0
                self._check_use(op, arg, start.advanced(delay), f"argument #{i}")
        elif isinstance(op, DelayOp):
            input_time = self.info.time_of(op.value)
            start = self.info.start_of(op)
            if input_time is not None and start is not None:
                if input_time.root is not start.root:
                    self._check_use(op, op.value, start, "input")
        elif isinstance(op, (BinaryOp, CmpOp, SelectOp)):
            self._verify_combinational(op)
        elif isinstance(op, (ForOp, UnrollForOp)):
            self._verify_loop_operands(op)

    def _verify_combinational(self, op: Operation) -> None:
        """All timed operands of a combinational op must arrive in the same cycle."""
        timed: List[Tuple[int, Value, TimeStamp]] = []
        for i, operand in enumerate(op.operands):
            time = self.info.time_of(operand)
            if time is None or self.info.is_timeless(operand):
                continue
            if self.info.window_of(operand) == UNBOUNDED:
                continue
            if self._is_stable_for_use(op, operand):
                continue
            timed.append((i, operand, time))
        if len(timed) < 2:
            return
        _, first_value, first_time = timed[0]
        for index, operand, time in timed[1:]:
            if time.root is not first_time.root:
                self.error(
                    CROSS_REGION_USE,
                    op,
                    f"operands of '{op.name}' belong to different time regions: "
                    f"%{first_value.display_name()} is scheduled against "
                    f"%{first_time.root.display_name()} while "
                    f"%{operand.display_name()} is scheduled against "
                    f"%{time.root.display_name()}",
                )
            elif time.offset != first_time.offset:
                window_first = self.info.window_of(first_value)
                window_other = self.info.window_of(operand)
                overlap_ok = self._windows_overlap(
                    first_time, window_first, time, window_other
                )
                if overlap_ok:
                    continue
                lag = abs(time.offset - first_time.offset)
                earlier, later = (
                    (operand, first_value)
                    if time.offset < first_time.offset
                    else (first_value, operand)
                )
                self.error(
                    PIPELINE_IMBALANCE,
                    op,
                    f"pipeline imbalance in '{op.name}': operand #{timed[0][0]} "
                    f"(%{first_value.display_name()}) is valid at {first_time} but "
                    f"operand #{index} (%{operand.display_name()}) is valid at "
                    f"{time}; delay %{earlier.display_name()} by {lag} cycle(s) "
                    f"with hir.delay so both inputs of the operation arrive "
                    "together",
                )

    @staticmethod
    def _windows_overlap(a: TimeStamp, a_window: int, b: TimeStamp, b_window: int) -> bool:
        if a_window == UNBOUNDED or b_window == UNBOUNDED:
            return True
        a_end = a.offset + a_window
        b_end = b.offset + b_window
        return not (a_end < b.offset or b_end < a.offset)

    def _verify_loop_operands(self, op: Operation) -> None:
        if isinstance(op, ForOp):
            for role, operand in (
                ("lower bound", op.lower_bound),
                ("upper bound", op.upper_bound),
                ("step", op.step),
            ):
                if isinstance(operand.type, ConstType):
                    continue
                start = self.info.start_of(op)
                if start is not None:
                    self._check_use(op, operand, start, role)

    # -- whole-function checks ----------------------------------------------------
    def _callee_arg_delays(self, op: CallOp) -> Optional[Tuple[int, ...]]:
        if self.module is None:
            return None
        callee = self.module.lookup(op.callee)
        if isinstance(callee, FuncOp):
            return callee.arg_delays
        return None

    def _verify_result_delays(self) -> None:
        return_op = None
        for op in self.func.body.operations:
            if isinstance(op, ReturnOp):
                return_op = op
        if return_op is None:
            return
        declared = self.func.result_delays
        for i, value in enumerate(return_op.operands):
            if i >= len(declared) or self.info.is_timeless(value):
                continue
            time = self.info.time_of(value)
            assert time is not None
            if time.root is not self.func.time_arg:
                continue
            if time.offset != declared[i]:
                self.error(
                    RESULT_DELAY_MISMATCH,
                    return_op,
                    f"function @{self.func.symbol_name} declares result #{i} with "
                    f"delay {declared[i]} but the returned value "
                    f"%{value.display_name()} is valid at {time} "
                    f"(offset {time.offset})",
                )

    def _verify_port_conflicts(self) -> None:
        """Two statically-scheduled accesses on one port in the same cycle are UB."""
        accesses: Dict[Tuple[int, Value, int], List[Operation]] = {}
        for op in self.func.walk():
            if isinstance(op, (MemReadOp, MemWriteOp)):
                start = self.info.start_of(op)
                if start is None:
                    continue
                key = (id(start.root), op.memref, start.offset)
                accesses.setdefault(key, []).append(op)
        for (_, memref, offset), ops in accesses.items():
            if len(ops) < 2:
                continue
            addresses = [self._static_address(op) for op in ops]
            if None in addresses:
                continue
            memref_type = memref.type
            if not isinstance(memref_type, MemrefType):
                continue
            # Accesses that land in different banks (their addresses differ in
            # a distributed dimension) use different physical buffers and are
            # allowed; only same-bank accesses at different in-bank addresses
            # conflict (Section 4.5).
            per_bank: Dict[int, Set[int]] = {}
            for address in addresses:
                bank = memref_type.bank_of(address)       # type: ignore[arg-type]
                in_bank = memref_type.offset_in_bank(address)  # type: ignore[arg-type]
                per_bank.setdefault(bank, set()).add(in_bank)
            conflicting_banks = [b for b, addrs in per_bank.items() if len(addrs) > 1]
            if conflicting_banks:
                conflicting = ops[1]
                self.error(
                    PORT_CONFLICT,
                    conflicting,
                    f"{len(ops)} accesses to memref "
                    f"%{memref.display_name()} are scheduled in the same cycle "
                    f"(offset {offset}) at different addresses of the same bank; "
                    "each memref is a single memory port (Section 4.5), so this "
                    "is undefined behaviour — use another port or memory banking",
                )

    @staticmethod
    def _static_address(op: Operation) -> Optional[Tuple[int, ...]]:
        indices = op.indices  # type: ignore[attr-defined]
        values = []
        for index in indices:
            value = constant_value(index)
            if value is None:
                return None
            values.append(value)
        return tuple(values)


class ScheduleVerifierPass(Pass):
    """Pass wrapper: verify the schedule of every function in a module."""

    name = "schedule-verifier"

    def __init__(self, raise_on_error: bool = True) -> None:
        super().__init__()
        self.raise_on_error = raise_on_error
        self.report = VerificationReport()

    def run(self, module: Operation) -> None:
        self.report = verify_schedule(module, raise_on_error=False)
        self.record("functions-verified",
                    sum(1 for op in module.walk() if isinstance(op, FuncOp)))
        self.record("errors-found", len(self.report.diagnostics))
        if self.raise_on_error and not self.report.ok:
            first = self.report.diagnostics[0]
            raise ScheduleError(first.message, first.location)


def verify_schedule(module: Operation, raise_on_error: bool = False) -> VerificationReport:
    """Verify every function's schedule; return (or raise on) the diagnostics."""
    report = VerificationReport()
    module_op = module if isinstance(module, ModuleOp) else None
    functions = [op for op in module.walk() if isinstance(op, FuncOp)]
    for func in functions:
        _FunctionVerifier(module_op, func, report).verify()
    if raise_on_error and not report.ok:
        first = report.diagnostics[0]
        raise ScheduleError(first.message, first.location)
    return report
