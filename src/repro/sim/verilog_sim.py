"""Cycle-accurate simulation of generated Verilog designs.

The paper validates generated hardware with RTL simulation; we reproduce that
with a small simulator that executes the Verilog AST produced by the code
generators directly:

* the design is *elaborated* (module instances are flattened with hierarchical
  name prefixes, ports become alias assignments),
* continuous assignments are evaluated in topological order every cycle, and
* ``always @(posedge clk)`` blocks and memory writes are applied at the clock
  edge, two-phase, so non-blocking assignment semantics hold.

External (black-box) modules — e.g. the vendor ``mult_3stage`` IP from
Figure 2 — are simulated through user-supplied Python behavioural models
(:class:`ExternalModel`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

from repro.ir.errors import SimulationError
from repro.sim.engine.levelize import order_assigns
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
    Ref,
    RegDecl,
    Statement,
    Ternary,
    UnOp,
    Wire,
    INPUT,
    OUTPUT,
)


def _mask(value: int, width: int) -> int:
    return value & ((1 << width) - 1)


class ExternalModel:
    """Behavioural model of a black-box module.

    ``clock(inputs)`` is called once per clock edge with the current values of
    the instance's input ports and returns the values its output ports take
    *after* the edge (i.e. outputs behave as registered).
    """

    def clock(self, inputs: Dict[str, int]) -> Dict[str, int]:  # pragma: no cover
        raise NotImplementedError(
            f"{type(self).__name__} does not implement ExternalModel.clock(); "
            "behavioural models of black-box modules must compute their "
            "post-edge outputs from the sampled input-port values"
        )


class PipelinedMultiplierModel(ExternalModel):
    """An N-stage pipelined multiplier (the ``mult_Nstage`` IP of Figure 2)."""

    def __init__(self, stages: int, width: int = 32) -> None:
        self.stages = stages
        self.width = width
        self._pipeline: List[int] = [0] * stages

    def clock(self, inputs: Dict[str, int]) -> Dict[str, int]:
        product = _mask(inputs.get("a", 0) * inputs.get("b", 0), self.width)
        self._pipeline = [product] + self._pipeline[:-1]
        return {"result0": self._pipeline[-1], "done": 0}


@dataclass
class _FlatExternal:
    """A flattened black-box instance awaiting behavioural simulation."""

    prefix: str
    module_name: str
    model: ExternalModel
    input_ports: Dict[str, str]   # port name -> flat signal name
    output_ports: Dict[str, str]  # port name -> flat signal name


@dataclass
class _FlatDesign:
    wires: Dict[str, int] = field(default_factory=dict)          # name -> width
    regs: Dict[str, Tuple[int, int]] = field(default_factory=dict)   # name -> (width, init)
    memories: Dict[str, Tuple[int, int]] = field(default_factory=dict)  # name -> (width, depth)
    assigns: List[Assign] = field(default_factory=list)
    clocked: List[Statement] = field(default_factory=list)
    inputs: Dict[str, int] = field(default_factory=dict)          # top-level inputs -> width
    outputs: Dict[str, int] = field(default_factory=dict)
    externals: List[_FlatExternal] = field(default_factory=list)


class _Elaborator:
    """Flattens a hierarchical design into a single netlist."""

    def __init__(self, design: Design,
                 external_models: Optional[Dict[str, Callable[[], ExternalModel]]] = None):
        self.design = design
        self.external_models = external_models or {}
        self.flat = _FlatDesign()

    def elaborate(self) -> _FlatDesign:
        top = self.design.top_module
        for port in top.ports:
            if port.name in ("clk", "rst"):
                continue
            if port.direction == INPUT:
                self.flat.inputs[port.name] = port.width
            else:
                self.flat.outputs[port.name] = port.width
            self.flat.wires[port.name] = port.width
        self._inline(top, prefix="", port_bindings={})
        return self.flat

    # -- flattening --------------------------------------------------------------
    def _inline(self, module: Module, prefix: str,
                port_bindings: Dict[str, Expr]) -> None:
        # The top module (no prefix) keeps its names, so its frozen
        # expressions and its statements are reused, not copied: nothing
        # mutates a flat design's statements.
        rename = lambda name: f"{prefix}{name}" if prefix else name  # noqa: E731

        # Port aliasing for non-top modules: inputs are driven by the parent's
        # connection expression; outputs drive the parent's connection wire.
        for port in module.ports:
            if not prefix:
                continue
            if port.name in ("clk", "rst"):
                continue
            flat_name = rename(port.name)
            self.flat.wires.setdefault(flat_name, port.width)
            bound = port_bindings.get(port.name)
            if bound is None:
                continue
            if port.direction == INPUT:
                self.flat.assigns.append(Assign(flat_name, bound))
            else:
                if isinstance(bound, Ref):
                    self.flat.assigns.append(Assign(bound.name, Ref(flat_name)))
                else:
                    raise SimulationError(
                        f"output port {port.name} of {module.name} must be "
                        "connected to a plain wire"
                    )

        for item in module.items:
            if isinstance(item, Comment):
                continue
            if isinstance(item, Wire):
                self.flat.wires.setdefault(rename(item.name), item.width)
            elif isinstance(item, RegDecl):
                self.flat.regs[rename(item.name)] = (item.width, item.init)
            elif isinstance(item, MemoryDecl):
                self.flat.memories[rename(item.name)] = (item.width, item.depth)
            elif isinstance(item, Assign):
                expr = self._rename_expr(item.expr, rename) if prefix else item.expr
                self.flat.assigns.append(Assign(rename(item.target), expr))
            elif isinstance(item, AlwaysFF):
                self.flat.clocked.extend(
                    [self._rename_stmt(stmt, rename) for stmt in item.body]
                    if prefix else item.body)
            elif isinstance(item, Instance):
                self._inline_instance(item, prefix, rename)
            else:  # pragma: no cover - defensive
                raise SimulationError(f"cannot elaborate item {item!r}")

    def _inline_instance(self, instance: Instance, prefix: str, rename) -> None:
        child = self.design.modules.get(instance.module_name)
        child_prefix = f"{prefix}{instance.instance_name}__"
        bindings = {
            port: self._rename_expr(expr, rename) if prefix else expr
            for port, expr in instance.connections.items()
        }
        if child is None or child.external:
            factory = self.external_models.get(instance.module_name)
            if factory is None:
                raise SimulationError(
                    f"no behavioural model registered for black-box module "
                    f"'{instance.module_name}'"
                )
            self._bind_external(child, instance, child_prefix, bindings, factory)
            return
        self._inline(child, child_prefix, bindings)

    def _bind_external(self, child: Optional[Module], instance: Instance,
                       child_prefix: str, bindings: Dict[str, Expr],
                       factory: Callable[[], ExternalModel]) -> None:
        input_ports: Dict[str, str] = {}
        output_ports: Dict[str, str] = {}
        directions: Dict[str, str] = {}
        widths: Dict[str, int] = {}
        if child is not None:
            for port in child.ports:
                directions[port.name] = port.direction
                widths[port.name] = port.width
        for port_name, bound in bindings.items():
            if port_name in ("clk", "rst"):
                continue
            flat_name = f"{child_prefix}{port_name}"
            self.flat.wires.setdefault(flat_name, widths.get(port_name, 32))
            direction = directions.get(port_name)
            if direction is None:
                # Unknown port list (no shell module): treat result*/done as outputs.
                direction = OUTPUT if port_name.startswith(("result", "done")) else INPUT
            if direction == INPUT:
                input_ports[port_name] = flat_name
                self.flat.assigns.append(Assign(flat_name, bound))
            else:
                output_ports[port_name] = flat_name
                self.flat.regs.setdefault(flat_name, (widths.get(port_name, 32), 0))
                if isinstance(bound, Ref):
                    self.flat.assigns.append(Assign(bound.name, Ref(flat_name)))
        self.flat.externals.append(
            _FlatExternal(child_prefix, instance.module_name, factory(),
                          input_ports, output_ports)
        )

    # -- renaming ------------------------------------------------------------------
    def _rename_expr(self, expr: Expr, rename) -> Expr:
        if isinstance(expr, Const):
            return expr
        if isinstance(expr, Ref):
            return Ref(rename(expr.name))
        if isinstance(expr, UnOp):
            return UnOp(expr.op, self._rename_expr(expr.operand, rename))
        if isinstance(expr, BinOp):
            return BinOp(expr.op, self._rename_expr(expr.lhs, rename),
                         self._rename_expr(expr.rhs, rename))
        if isinstance(expr, Ternary):
            return Ternary(self._rename_expr(expr.condition, rename),
                           self._rename_expr(expr.true_value, rename),
                           self._rename_expr(expr.false_value, rename))
        if isinstance(expr, MemIndex):
            return MemIndex(rename(expr.memory), self._rename_expr(expr.address, rename))
        raise SimulationError(f"cannot rename expression {expr!r}")

    def _rename_stmt(self, stmt: Statement, rename) -> Statement:
        if isinstance(stmt, NonBlockingAssign):
            return NonBlockingAssign(rename(stmt.target),
                                     self._rename_expr(stmt.expr, rename))
        if isinstance(stmt, MemWrite):
            return MemWrite(rename(stmt.memory),
                            self._rename_expr(stmt.address, rename),
                            self._rename_expr(stmt.data, rename))
        if isinstance(stmt, If):
            return If(self._rename_expr(stmt.condition, rename),
                      [self._rename_stmt(s, rename) for s in stmt.then_body],
                      [self._rename_stmt(s, rename) for s in stmt.else_body])
        raise SimulationError(f"cannot rename statement {stmt!r}")


class Simulator:
    """Executes a flattened design cycle by cycle."""

    def __init__(self, design: Design,
                 external_models: Optional[Dict[str, Callable[[], ExternalModel]]] = None):
        self.flat = _Elaborator(design, external_models).elaborate()
        self.signals: Dict[str, int] = {}
        self.memories: Dict[str, List[int]] = {}
        self.cycle = 0
        #: Opt-in :class:`repro.obs.simprofile.SimProfiler`; None = no cost.
        self.profiler = None
        self._ordered_assigns = order_assigns(self.flat.assigns)
        self.reset()

    # -- state management --------------------------------------------------------
    def reset(self) -> None:
        self.signals = {name: 0 for name in self.flat.wires}
        for name, (width, init) in self.flat.regs.items():
            self.signals[name] = _mask(init, width)
        for name, (width, depth) in self.flat.memories.items():
            self.memories[name] = [0] * depth
        self.cycle = 0

    def set(self, name: str, value: int) -> None:
        if name not in self.flat.inputs:
            raise SimulationError(f"'{name}' is not a top-level input")
        self.signals[name] = _mask(value, self.flat.inputs[name])

    def get(self, name: str) -> int:
        if name not in self.signals:
            raise SimulationError(f"unknown signal '{name}'")
        return self.signals[name]

    def memory(self, name: str) -> List[int]:
        return self.memories[name]

    def find_memories(self, substring: str) -> List[str]:
        return sorted(name for name in self.memories if substring in name)

    # -- evaluation ------------------------------------------------------------------
    def _eval(self, expr: Expr) -> int:
        if isinstance(expr, Const):
            return _mask(expr.value, expr.width)
        if isinstance(expr, Ref):
            return self.signals.get(expr.name, 0)
        if isinstance(expr, UnOp):
            value = self._eval(expr.operand)
            if expr.op == "!":
                return 0 if value else 1
            if expr.op == "~":
                return ~value
            if expr.op == "-":
                return -value
            if expr.op == "|":
                return 1 if value else 0
            raise SimulationError(f"unknown unary operator {expr.op!r}")
        if isinstance(expr, BinOp):
            lhs = self._eval(expr.lhs)
            rhs = self._eval(expr.rhs)
            return self._apply(expr.op, lhs, rhs)
        if isinstance(expr, Ternary):
            return self._eval(expr.true_value) if self._eval(expr.condition) \
                else self._eval(expr.false_value)
        if isinstance(expr, MemIndex):
            memory = self.memories[expr.memory]
            address = self._eval(expr.address)
            if 0 <= address < len(memory):
                return memory[address]
            return 0
        raise SimulationError(f"cannot evaluate expression {expr!r}")

    @staticmethod
    def _apply(op: str, lhs: int, rhs: int) -> int:
        if op == "+":
            return lhs + rhs
        if op == "-":
            return lhs - rhs
        if op == "*":
            return lhs * rhs
        if op == "&":
            return lhs & rhs
        if op == "|":
            return lhs | rhs
        if op == "^":
            return lhs ^ rhs
        if op == "<<":
            return lhs << rhs
        if op == ">>":
            return lhs >> rhs
        if op == "==":
            return int(lhs == rhs)
        if op == "!=":
            return int(lhs != rhs)
        if op == "<":
            return int(lhs < rhs)
        if op == "<=":
            return int(lhs <= rhs)
        if op == ">":
            return int(lhs > rhs)
        if op == ">=":
            return int(lhs >= rhs)
        if op == "&&":
            return int(bool(lhs) and bool(rhs))
        raise SimulationError(f"unknown binary operator {op!r}")

    def eval_comb(self) -> None:
        """Propagate continuous assignments with the current register values."""
        for assign in self._ordered_assigns:
            width = self.flat.wires.get(assign.target)
            if width is None and assign.target in self.flat.regs:
                width = self.flat.regs[assign.target][0]
            value = self._eval(assign.expr)
            self.signals[assign.target] = _mask(value, width or 32)

    def clock_edge(self) -> None:
        """Apply every clocked statement (two-phase, non-blocking semantics)."""
        reg_updates: Dict[str, int] = {}
        mem_updates: List[Tuple[str, int, int]] = []

        def execute(stmt: Statement) -> None:
            if isinstance(stmt, NonBlockingAssign):
                width = self.flat.regs.get(stmt.target, (32, 0))[0]
                reg_updates[stmt.target] = _mask(self._eval(stmt.expr), width)
            elif isinstance(stmt, MemWrite):
                mem_updates.append(
                    (stmt.memory, self._eval(stmt.address), self._eval(stmt.data))
                )
            elif isinstance(stmt, If):
                branch = stmt.then_body if self._eval(stmt.condition) else stmt.else_body
                for inner in branch:
                    execute(inner)
            else:  # pragma: no cover - defensive
                raise SimulationError(f"cannot execute statement {stmt!r}")

        for stmt in self.flat.clocked:
            execute(stmt)

        # Black-box behavioural models clock with their *current* inputs.
        external_updates: List[Tuple[str, int]] = []
        for external in self.flat.externals:
            inputs = {port: self.signals.get(flat, 0)
                      for port, flat in external.input_ports.items()}
            outputs = external.model.clock(inputs)
            for port, flat in external.output_ports.items():
                width = self.flat.regs.get(flat, (32, 0))[0]
                external_updates.append((flat, _mask(outputs.get(port, 0), width)))

        profiler = self.profiler
        if profiler is None:
            for name, value in reg_updates.items():
                self.signals[name] = value
            for memory, address, data in mem_updates:
                storage = self.memories[memory]
                if 0 <= address < len(storage):
                    width = self.flat.memories[memory][0]
                    storage[address] = _mask(data, width)
            for name, value in external_updates:
                self.signals[name] = value
        else:
            # Profiled path: count architectural events — a register value
            # *change* per update (in apply order, so engines agree even when
            # regs and external models race on one target) and every
            # committed in-bounds memory write.
            profiler.begin_edge()
            for name, value in reg_updates.items():
                if self.signals.get(name, 0) != value:
                    profiler.on_reg(name)
                self.signals[name] = value
            for memory, address, data in mem_updates:
                storage = self.memories[memory]
                if 0 <= address < len(storage):
                    width = self.flat.memories[memory][0]
                    storage[address] = _mask(data, width)
                    profiler.on_mem_write(memory, address)
            for name, value in external_updates:
                if self.signals.get(name, 0) != value:
                    profiler.on_reg(name)
                self.signals[name] = value
            profiler.end_edge()
        self.cycle += 1

    def step(self, cycles: int = 1) -> None:
        """Advance the clock ``cycles`` times.

        Each cycle settles combinational logic, applies the clock edge, and
        settles combinational logic again so that values read after ``step``
        reflect the post-edge state of the design.
        """
        for _ in range(cycles):
            self.eval_comb()
            self.clock_edge()
        self.eval_comb()
