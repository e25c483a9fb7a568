"""A small synthesizable-Verilog AST.

The HIR code generator (and the baseline HLS compiler) emit this AST instead
of raw text so that

* the emitter (:mod:`repro.verilog.emitter`) can print clean Verilog,
* the FPGA resource model (:mod:`repro.resources.model`) can walk the design
  and charge LUT/FF/DSP/BRAM costs per construct, and
* the cycle-accurate simulator (:mod:`repro.sim.verilog_sim`) can execute the
  generated design to validate functional correctness.

Only the constructs the code generators need are modelled: wires, registers,
memories, continuous assignments, clocked always blocks with non-blocking
assignments / conditionals / memory writes, and module instances.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Sequence, Union

# --------------------------------------------------------------------------- #
# Expressions
# --------------------------------------------------------------------------- #


@dataclass(frozen=True)
class Expr:
    """Base class of every expression."""

    def refs(self) -> Iterator[str]:
        """Names of signals this expression reads."""
        return iter(())


@dataclass(frozen=True)
class Const(Expr):
    """A literal, e.g. ``32'd7``."""

    value: int
    width: int = 32

    def refs(self) -> Iterator[str]:
        return iter(())


@dataclass(frozen=True)
class Ref(Expr):
    """A reference to a wire, register or port by name."""

    name: str

    def refs(self) -> Iterator[str]:
        yield self.name


@dataclass(frozen=True)
class UnOp(Expr):
    """Unary operator: ``!``, ``~``, ``-``, ``|`` (reduction or)."""

    op: str
    operand: Expr

    def refs(self) -> Iterator[str]:
        yield from self.operand.refs()


@dataclass(frozen=True)
class BinOp(Expr):
    """Binary operator: ``+ - * & | ^ << >> < <= > >= == != &&``."""

    op: str
    lhs: Expr
    rhs: Expr

    def refs(self) -> Iterator[str]:
        yield from self.lhs.refs()
        yield from self.rhs.refs()


@dataclass(frozen=True)
class Ternary(Expr):
    """``cond ? a : b`` — the textual form of a multiplexer."""

    condition: Expr
    true_value: Expr
    false_value: Expr

    def refs(self) -> Iterator[str]:
        yield from self.condition.refs()
        yield from self.true_value.refs()
        yield from self.false_value.refs()


@dataclass(frozen=True)
class MemIndex(Expr):
    """Read one word of a memory array: ``mem[addr]``."""

    memory: str
    address: Expr

    def refs(self) -> Iterator[str]:
        yield self.memory
        yield from self.address.refs()


def ref(name: str) -> Ref:
    return Ref(name)


def const(value: int, width: int = 32) -> Const:
    return Const(value, width)


def or_reduce(terms: Sequence[Expr]) -> Expr:
    """OR a list of 1-bit expressions together (0 when the list is empty)."""
    if not terms:
        return Const(0, 1)
    combined: Expr = terms[0]
    for term in terms[1:]:
        combined = BinOp("|", combined, term)
    return combined


# --------------------------------------------------------------------------- #
# Statements inside always blocks
# --------------------------------------------------------------------------- #


@dataclass
class Statement:
    """Base class of sequential statements."""

    def reads(self) -> Iterator[str]:
        """Names of signals (and memories) this statement may read."""
        return iter(())

    def writes(self) -> Iterator[str]:
        """Names of registers (and memories) this statement may write."""
        return iter(())


@dataclass
class NonBlockingAssign(Statement):
    """``target <= expr;`` inside an ``always @(posedge clk)`` block."""

    target: str
    expr: Expr

    def reads(self) -> Iterator[str]:
        yield from self.expr.refs()

    def writes(self) -> Iterator[str]:
        yield self.target


@dataclass
class MemWrite(Statement):
    """``mem[addr] <= data;`` inside a clocked block."""

    memory: str
    address: Expr
    data: Expr

    def reads(self) -> Iterator[str]:
        yield from self.address.refs()
        yield from self.data.refs()

    def writes(self) -> Iterator[str]:
        yield self.memory


@dataclass
class If(Statement):
    """``if (cond) ... else ...`` inside a clocked block."""

    condition: Expr
    then_body: List[Statement] = field(default_factory=list)
    else_body: List[Statement] = field(default_factory=list)

    def reads(self) -> Iterator[str]:
        yield from self.condition.refs()
        for stmt in self.then_body:
            yield from stmt.reads()
        for stmt in self.else_body:
            yield from stmt.reads()

    def writes(self) -> Iterator[str]:
        for stmt in self.then_body:
            yield from stmt.writes()
        for stmt in self.else_body:
            yield from stmt.writes()


# --------------------------------------------------------------------------- #
# Module items
# --------------------------------------------------------------------------- #

INPUT = "input"
OUTPUT = "output"


@dataclass
class Port:
    name: str
    direction: str
    width: int = 1

    def __post_init__(self) -> None:
        if self.direction not in (INPUT, OUTPUT):
            raise ValueError(f"invalid port direction {self.direction!r}")


@dataclass
class Wire:
    name: str
    width: int = 1


@dataclass
class RegDecl:
    name: str
    width: int = 1
    init: int = 0


@dataclass
class MemoryDecl:
    """``reg [width-1:0] name [0:depth-1];`` — an on-chip RAM or register file."""

    name: str
    width: int
    depth: int
    #: "bram", "lutram", "registers" or "auto"; consumed by the resource model.
    kind: str = "auto"
    #: True when port-sharing analysis proved a single port suffices.
    single_port: bool = False


@dataclass
class Assign:
    """Continuous assignment ``assign target = expr;``."""

    target: str
    expr: Expr


@dataclass
class AlwaysFF:
    """``always @(posedge clk) begin ... end``."""

    body: List[Statement] = field(default_factory=list)

    def reads(self) -> Iterator[str]:
        for stmt in self.body:
            yield from stmt.reads()

    def writes(self) -> Iterator[str]:
        for stmt in self.body:
            yield from stmt.writes()


@dataclass
class Instance:
    """A sub-module instantiation."""

    module_name: str
    instance_name: str
    connections: Dict[str, Expr] = field(default_factory=dict)


@dataclass
class Comment:
    text: str


ModuleItem = Union[Wire, RegDecl, MemoryDecl, Assign, AlwaysFF, Instance, Comment]


@dataclass
class Module:
    """One Verilog module."""

    name: str
    ports: List[Port] = field(default_factory=list)
    items: List[ModuleItem] = field(default_factory=list)
    #: True for black-box modules (externally supplied Verilog).
    external: bool = False
    #: Source-location comment lines attached to the module header.
    header_comments: List[str] = field(default_factory=list)

    # -- construction helpers -------------------------------------------------
    def add_port(self, name: str, direction: str, width: int = 1) -> Port:
        port = Port(name, direction, width)
        self.ports.append(port)
        return port

    def add_wire(self, name: str, width: int = 1) -> Wire:
        wire = Wire(name, width)
        self.items.append(wire)
        return wire

    def add_reg(self, name: str, width: int = 1, init: int = 0) -> RegDecl:
        reg = RegDecl(name, width, init)
        self.items.append(reg)
        return reg

    def add_memory(self, name: str, width: int, depth: int, kind: str = "auto",
                   single_port: bool = False) -> MemoryDecl:
        memory = MemoryDecl(name, width, depth, kind, single_port)
        self.items.append(memory)
        return memory

    def add_assign(self, target: str, expr: Expr) -> Assign:
        assign = Assign(target, expr)
        self.items.append(assign)
        return assign

    def add_always(self, body: Optional[List[Statement]] = None) -> AlwaysFF:
        always = AlwaysFF(body or [])
        self.items.append(always)
        return always

    def add_instance(self, module_name: str, instance_name: str,
                     connections: Dict[str, Expr]) -> Instance:
        instance = Instance(module_name, instance_name, connections)
        self.items.append(instance)
        return instance

    def add_comment(self, text: str) -> Comment:
        comment = Comment(text)
        self.items.append(comment)
        return comment

    # -- queries -------------------------------------------------------------
    def port(self, name: str) -> Optional[Port]:
        for port in self.ports:
            if port.name == name:
                return port
        return None

    def items_of_type(self, item_type) -> List:
        return [item for item in self.items if isinstance(item, item_type)]

    def signal_width(self, name: str) -> Optional[int]:
        """Width of a named port/wire/reg, if declared."""
        port = self.port(name)
        if port is not None:
            return port.width
        for item in self.items:
            if isinstance(item, (Wire, RegDecl)) and item.name == name:
                return item.width
        return None


@dataclass
class Design:
    """A set of modules forming one design; ``top`` names the root module."""

    top: str
    modules: Dict[str, Module] = field(default_factory=dict)

    def add(self, module: Module) -> Module:
        self.modules[module.name] = module
        return module

    @property
    def top_module(self) -> Module:
        return self.modules[self.top]

    def module(self, name: str) -> Module:
        return self.modules[name]

    def all_instantiated(self, root: Optional[str] = None) -> List[str]:
        """Module names reachable from ``root`` (default: the top module)."""
        root = root or self.top
        seen: List[str] = []
        stack = [root]
        while stack:
            name = stack.pop()
            if name in seen or name not in self.modules:
                continue
            seen.append(name)
            for item in self.modules[name].items:
                if isinstance(item, Instance):
                    stack.append(item.module_name)
        return seen
