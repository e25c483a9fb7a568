"""The HIR-to-Verilog code generator (Section 4.6, Table 3).

Given a module of ``hir.func`` operations with explicit schedules, the code
generator produces a :class:`~repro.verilog.ast.Design`:

* every function becomes a Verilog module with ``clk``/``rst``/``start``/
  ``done`` control, data ports for primitive arguments and results, and a
  memory interface (address/enable/data buses) for each memref argument;
* time variables become one-bit pulses, scheduling offsets become pulse shift
  registers, ``hir.for`` loops become counter-based state machines;
* compute ops become combinational assignments, ``hir.delay`` becomes shift
  registers (shared across delays of the same value), memrefs become register
  banks or RAMs, and ``hir.call`` becomes a module instance.

The generator never mutates the input IR: it clones the module, lowers
``hir.unroll_for`` by replication on the clone, and then translates.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.ir.errors import LoweringError
from repro.ir.module import ModuleOp
from repro.ir.operation import Operation
from repro.ir.values import Value
from repro.hir.ops import (
    AddOp,
    AllocOp,
    AndOp,
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
    MultOp,
    OrOp,
    ReturnOp,
    SelectOp,
    ShlOp,
    ShrOp,
    SubOp,
    TruncOp,
    UnrollForOp,
    XorOp,
    YieldOp,
    constant_value,
)
from repro.hir.types import ConstType, MemrefType
from repro.passes.unroll import unroll_all
from repro.verilog.ast import (
    BinOp,
    Const,
    Design,
    Expr,
    INPUT,
    Module,
    NonBlockingAssign,
    OUTPUT,
    Ref,
    Ternary,
)
from repro.verilog.fsm import LoopController, PulseGenerator
from repro.verilog.memory import (
    MemAccess,
    MemoryLowering,
    interface_directions,
    interface_signals,
)
from repro.verilog.naming import SignalNamer

_BINARY_OPERATORS = {
    AddOp: "+",
    SubOp: "-",
    MultOp: "*",
    AndOp: "&",
    OrOp: "|",
    XorOp: "^",
    ShlOp: "<<",
    ShrOp: ">>",
}

_CMP_OPERATORS = {
    "eq": "==",
    "ne": "!=",
    "lt": "<",
    "le": "<=",
    "gt": ">",
    "ge": ">=",
}


@dataclass
class CodegenResult:
    """The generated design plus code-generation statistics."""

    design: Design
    statistics: Dict[str, int] = field(default_factory=dict)


def width_of(value: Value) -> int:
    """Wire width carrying ``value``."""
    if isinstance(value.type, ConstType):
        return 32
    return max(1, value.type.bitwidth)


class FunctionLowering:
    """Lowers one ``hir.func`` to a Verilog module."""

    def __init__(self, module: ModuleOp, func: FuncOp) -> None:
        self.module = module
        self.func = func
        self.vmod = Module(func.symbol_name)
        self.vmod.header_comments.append(f"generated from hir.func @{func.symbol_name}")
        self.namer = SignalNamer()
        self.pulses = PulseGenerator(self.vmod, self.namer)
        self.loops = LoopController(self.vmod, self.namer)
        self.memory = MemoryLowering(self.vmod, self.namer)
        self.value_expr: Dict[int, Expr] = {}
        self.loop_prewires: Dict[int, Tuple[str, str, str]] = {}
        self._delay_chains: Dict[Tuple[int, int, int], List[str]] = {}
        self._delay_clock = None
        self._instance_count = 0
        self._done_candidates: List[Expr] = []

    # -- value handling ----------------------------------------------------------
    def expr_of(self, value: Value) -> Expr:
        constant = constant_value(value)
        if constant is not None:
            return Const(constant, width_of(value))
        expr = self.value_expr.get(id(value))
        if expr is None:
            raise LoweringError(
                f"no lowering for value %{value.display_name()} in "
                f"@{self.func.symbol_name}",
                self.func.location,
            )
        return expr

    def _bind(self, value: Value, expr: Expr) -> None:
        self.value_expr[id(value)] = expr

    # -- top-level ------------------------------------------------------------------
    def lower(self) -> Module:
        self._declare_control_ports()
        self._declare_argument_ports()
        self._declare_result_ports()
        self.pulses.register_root(self.func.time_arg, "start")
        self._register_memref_arguments()
        self._preregister_loops()
        self._lower_block(self.func.body.operations)
        self.memory.finalize()
        self._emit_done()
        return self.vmod

    # -- ports ------------------------------------------------------------------------
    def _declare_control_ports(self) -> None:
        self.vmod.add_port("clk", INPUT, 1)
        self.vmod.add_port("rst", INPUT, 1)
        self.vmod.add_port("start", INPUT, 1)
        self.vmod.add_port("done", OUTPUT, 1)
        self.namer.reserve("clk")
        self.namer.reserve("rst")
        self.namer.reserve("start")
        self.namer.reserve("done")

    def _declare_argument_ports(self) -> None:
        for arg, name in zip(self.func.arguments, self.func.arg_names):
            if isinstance(arg.type, MemrefType):
                directions = interface_directions(name, arg.type)
                for signal, width in interface_signals(name, arg.type).items():
                    self.vmod.add_port(signal, directions[signal], width)
                    self.namer.reserve(signal)
            else:
                self.vmod.add_port(name, INPUT, width_of(arg))
                self.namer.reserve(name)
                self._bind(arg, Ref(name))

    def _declare_result_ports(self) -> None:
        for index, result_type in enumerate(self.func.function_type.results):
            name = f"result{index}"
            self.vmod.add_port(name, OUTPUT, max(1, result_type.bitwidth))
            self.namer.reserve(name)

    def _register_memref_arguments(self) -> None:
        for arg, name in zip(self.func.arguments, self.func.arg_names):
            if isinstance(arg.type, MemrefType):
                self.memory.register_interface(arg, name)

    def _preregister_loops(self) -> None:
        """Declare pulse wires for every loop's time variables up front."""
        for op in self.func.walk():
            if isinstance(op, ForOp):
                prefix = self.namer.fresh(f"loop_{op.induction_var.name_hint or 'i'}")
                iter_wire = self.namer.fresh(f"{prefix}_iter")
                done_wire = self.namer.fresh(f"{prefix}_done")
                self.vmod.add_wire(iter_wire, 1)
                self.vmod.add_wire(done_wire, 1)
                self.pulses.register_root(op.iter_time, iter_wire)
                self.pulses.register_root(op.done_time, done_wire)
                self.loop_prewires[id(op)] = (prefix, iter_wire, done_wire)
            elif isinstance(op, UnrollForOp):
                raise LoweringError(
                    "hir.unroll_for must be unrolled before code generation",
                    op.location,
                )

    # -- op lowering -------------------------------------------------------------------
    def _lower_block(self, operations: List[Operation]) -> None:
        for op in operations:
            self._lower_op(op)

    def _location_comment(self, op: Operation) -> None:
        """Print the HIR location of ``op`` as a comment (Section 5.5:
        mapping Verilog back to HIR for timing closure)."""
        self.vmod.add_comment(f"{op.name} at {op.location}")

    def _lower_op(self, op: Operation) -> None:
        if isinstance(op, (ConstantOp, AllocOp, YieldOp)):
            return
        if isinstance(op, BinaryOp):
            self._lower_binary(op)
        elif isinstance(op, CmpOp):
            self._lower_cmp(op)
        elif isinstance(op, SelectOp):
            self._lower_select(op)
        elif isinstance(op, (TruncOp, ExtOp)):
            self._lower_cast(op)
        elif isinstance(op, DelayOp):
            self._lower_delay(op)
        elif isinstance(op, MemReadOp):
            self._lower_mem_read(op)
        elif isinstance(op, MemWriteOp):
            self._lower_mem_write(op)
        elif isinstance(op, CallOp):
            self._lower_call(op)
        elif isinstance(op, ForOp):
            self._lower_for(op)
        elif isinstance(op, ReturnOp):
            self._lower_return(op)
        else:
            raise LoweringError(f"cannot lower operation '{op.name}'", op.location)

    # -- combinational ops -----------------------------------------------------------
    def _new_result_wire(self, value: Value, hint: str = "") -> str:
        name = self.namer.for_value(value, hint)
        self.vmod.add_wire(name, width_of(value))
        self._bind(value, Ref(name))
        return name

    def _lower_binary(self, op: BinaryOp) -> None:
        operator = _BINARY_OPERATORS.get(type(op))
        if operator is None:
            raise LoweringError(f"unsupported arithmetic op '{op.name}'", op.location)
        wire = self._new_result_wire(op.results[0])
        self.vmod.add_assign(wire, BinOp(operator, self.expr_of(op.lhs),
                                         self.expr_of(op.rhs)))

    def _lower_cmp(self, op: CmpOp) -> None:
        wire = self._new_result_wire(op.results[0])
        self.vmod.add_assign(
            wire,
            BinOp(_CMP_OPERATORS[op.predicate], self.expr_of(op.lhs),
                  self.expr_of(op.rhs)),
        )

    def _lower_select(self, op: SelectOp) -> None:
        wire = self._new_result_wire(op.results[0])
        self.vmod.add_assign(
            wire,
            Ternary(self.expr_of(op.condition), self.expr_of(op.true_value),
                    self.expr_of(op.false_value)),
        )

    def _lower_cast(self, op: Operation) -> None:
        wire = self._new_result_wire(op.results[0])
        self.vmod.add_assign(wire, self.expr_of(op.operand(0)))

    # -- delays (shift registers, shared per Section 6.4) ------------------------------
    def _lower_delay(self, op: DelayOp) -> None:
        if op.delay == 0:
            self._bind(op.results[0], self.expr_of(op.value))
            return
        self._location_comment(op)
        key = (id(op.value), id(op.time_operand), op.offset)
        chain = self._delay_chains.setdefault(key, [])
        if self._delay_clock is None:
            self._delay_clock = self.vmod.add_always()
        width = width_of(op.value)
        base_hint = op.value.name_hint or "dly"
        while len(chain) < op.delay:
            depth = len(chain) + 1
            reg_name = self.namer.fresh(f"{base_hint}_sr{depth}")
            self.vmod.add_reg(reg_name, width)
            source = self.expr_of(op.value) if depth == 1 else Ref(chain[-1])
            self._delay_clock.body.append(NonBlockingAssign(reg_name, source))
            chain.append(reg_name)
        self._bind(op.results[0], Ref(chain[op.delay - 1]))

    # -- memory accesses -----------------------------------------------------------------
    def _access_pulse(self, op) -> str:
        return self.pulses.pulse(op.time_operand, op.offset)

    def _bank_and_address(self, memref_type: MemrefType,
                          indices: List[Value]) -> Tuple[int, Expr]:
        """Split indices into a static bank id and a bank-local address expr."""
        bank = 0
        for dim in memref_type.distributed_dims():
            index_value = constant_value(indices[dim])
            if index_value is None:
                raise LoweringError(
                    "distributed memref dimensions must be indexed by constants"
                )
            bank = bank * memref_type.shape[dim] + index_value
        packed = memref_type.packed_dims()
        if not packed:
            return bank, Const(0, 1)
        address: Expr = self.expr_of(indices[packed[0]])
        for dim in packed[1:]:
            address = BinOp(
                "+",
                BinOp("*", address, Const(memref_type.shape[dim], 32)),
                self.expr_of(indices[dim]),
            )
        return bank, address

    def _lower_mem_read(self, op: MemReadOp) -> None:
        self._location_comment(op)
        pulse = self._access_pulse(op)
        bank, address = self._bank_and_address(op.memref_type, op.indices)
        wire = self._new_result_wire(op.results[0])
        self.memory.add_access(
            op.memref,
            MemAccess("r", pulse, bank, address, result_signal=wire),
        )

    def _lower_mem_write(self, op: MemWriteOp) -> None:
        self._location_comment(op)
        pulse = self._access_pulse(op)
        bank, address = self._bank_and_address(op.memref_type, op.indices)
        self.memory.add_access(
            op.memref,
            MemAccess("w", pulse, bank, address, data=self.expr_of(op.value)),
        )

    # -- calls -------------------------------------------------------------------------------
    def _lower_call(self, op: CallOp) -> None:
        self._location_comment(op)
        callee = self.module.lookup(op.callee)
        if not isinstance(callee, FuncOp):
            raise LoweringError(f"unknown callee @{op.callee}", op.location)
        instance = f"u{self._instance_count}_{op.callee}"
        self._instance_count += 1
        pulse = self.pulses.pulse(op.time_operand, op.offset)
        connections: Dict[str, Expr] = {
            "clk": Ref("clk"),
            "rst": Ref("rst"),
            "start": Ref(pulse),
        }
        for value, arg_name, arg_type in zip(op.args, callee.arg_names,
                                             callee.function_type.inputs):
            if isinstance(arg_type, MemrefType):
                prefix = self.namer.fresh(f"{instance}_{arg_name}")
                for signal, signal_width in interface_signals(arg_name, arg_type).items():
                    local = signal.replace(arg_name, prefix, 1)
                    self.vmod.add_wire(local, signal_width)
                    connections[signal] = Ref(local)
                self.memory.add_delegation(value, prefix)
            else:
                connections[arg_name] = self.expr_of(value)
        for index, result in enumerate(op.results):
            wire = self.namer.fresh(f"{instance}_result{index}")
            self.vmod.add_wire(wire, width_of(result))
            connections[f"result{index}"] = Ref(wire)
            self._bind(result, Ref(wire))
        done_wire = self.namer.fresh(f"{instance}_done")
        self.vmod.add_wire(done_wire, 1)
        connections["done"] = Ref(done_wire)
        self.vmod.add_instance(callee.symbol_name, instance, connections)
        if op.parent_block is self.func.body:
            self._done_candidates.append(Ref(done_wire))

    # -- loops -------------------------------------------------------------------------------
    def _lower_for(self, op: ForOp) -> None:
        self._location_comment(op)
        prefix, iter_wire, done_wire = self.loop_prewires[id(op)]
        start_pulse = self.pulses.pulse(op.time_operand, op.offset)
        iv_width = max(1, op.iv_type.bitwidth)
        signals = self.loops.build(
            prefix,
            start_pulse,
            self._resize(self.expr_of(op.lower_bound), iv_width),
            self._resize(self.expr_of(op.upper_bound), iv_width),
            self._resize(self.expr_of(op.step), iv_width),
            iv_width,
            iter_wire,
            done_wire,
        )
        self._bind(op.induction_var, Ref(signals.induction_var))
        self._lower_block(op.body.operations)
        yield_op = op.yield_op()
        assert yield_op is not None  # enforced by the op verifier
        yield_pulse = self.pulses.pulse(yield_op.time_operand, yield_op.offset)
        self.loops.connect_yield(signals, yield_pulse)
        if op.parent_block is self.func.body:
            self._done_candidates.append(Ref(done_wire))

    @staticmethod
    def _resize(expr: Expr, width: int) -> Expr:
        if isinstance(expr, Const):
            return Const(expr.value, width)
        return expr

    # -- return and done ------------------------------------------------------------------------
    def _lower_return(self, op: ReturnOp) -> None:
        for index, value in enumerate(op.operands):
            self.vmod.add_assign(f"result{index}", self.expr_of(value))

    def _emit_done(self) -> None:
        """``done`` goes (and stays) high once every top-level activity finished.

        Each candidate completion pulse (loop done, callee done, result-ready)
        sets a sticky flag; ``done`` is the AND of all flags, so it only rises
        after the slowest top-level loop/call of the function has completed.
        """
        candidates = list(self._done_candidates)
        result_delays = self.func.result_delays
        if result_delays:
            latest = max(result_delays)
            candidates.append(self.pulses.pulse_expr(self.func.time_arg, latest))
        # Operations scheduled directly against the function start time (e.g.
        # the fully unrolled write-back phase of the GEMM kernel) finish at
        # their own static offsets; the latest of them is a completion event.
        top_level_offsets = [
            op.offset for op in self.func.body.operations
            if isinstance(op, (MemReadOp, MemWriteOp, DelayOp, CallOp))
            and op.time_operand is self.func.time_arg
        ]
        if top_level_offsets:
            candidates.append(
                self.pulses.pulse_expr(self.func.time_arg, max(top_level_offsets) + 1)
            )
        if not candidates:
            self.vmod.add_assign("done", Ref("start"))
            return
        sticky_clock = self.vmod.add_always()
        sticky_refs: List[Expr] = []
        for index, pulse in enumerate(candidates):
            flag = self.namer.fresh(f"done_flag{index}")
            self.vmod.add_reg(flag, 1)
            sticky_clock.body.append(
                NonBlockingAssign(flag, BinOp("|", Ref(flag), pulse))
            )
            sticky_refs.append(Ref(flag))
        done_expr: Expr = sticky_refs[0]
        for flag_ref in sticky_refs[1:]:
            done_expr = BinOp("&", done_expr, flag_ref)
        self.vmod.add_assign("done", done_expr)


def _default_top(functions: List[FuncOp]) -> str:
    """The last internal function no other function calls."""
    internal = [f for f in functions if not f.is_external]
    if not internal:
        raise LoweringError("every hir.func in the module is external; "
                            "pass top= to name the top module")
    called: set[str] = set()
    for func in internal:
        for op in func.walk():
            if isinstance(op, CallOp):
                called.add(op.callee)
    roots = [f for f in internal if f.symbol_name not in called]
    chosen = roots[-1] if roots else internal[-1]
    return chosen.symbol_name


def _external_shell(func: FuncOp) -> Module:
    """A black-box module declaration matching the external signature."""
    module = Module(func.symbol_name, external=True)
    module.add_port("clk", INPUT, 1)
    module.add_port("rst", INPUT, 1)
    module.add_port("start", INPUT, 1)
    module.add_port("done", OUTPUT, 1)
    for name, arg_type in zip(func.arg_names, func.function_type.inputs):
        if isinstance(arg_type, MemrefType):
            directions = interface_directions(name, arg_type)
            for signal, width in interface_signals(name, arg_type).items():
                module.add_port(signal, directions[signal], width)
        else:
            module.add_port(name, INPUT, max(1, arg_type.bitwidth))
    for index, result_type in enumerate(func.function_type.results):
        module.add_port(f"result{index}", OUTPUT, max(1, result_type.bitwidth))
    return module


def generate_verilog_impl(module: ModuleOp,
                          top: Optional[str] = None) -> CodegenResult:
    """Translate a module of HIR functions into a Verilog design (the core
    that :meth:`repro.flow.Flow.verilog` is built on)."""
    work = module.clone()
    unroll_all(work)
    functions = [op for op in work.symbols() if isinstance(op, FuncOp)]
    if not functions:
        raise LoweringError("module contains no hir.func to generate")
    design = Design(top=top or _default_top(functions))
    statistics: Dict[str, int] = {"functions": 0, "external-functions": 0}
    for func in functions:
        if func.is_external:
            design.add(_external_shell(func))
            statistics["external-functions"] += 1
            continue
        design.add(FunctionLowering(work, func).lower())
        statistics["functions"] += 1
    return CodegenResult(design, statistics)
