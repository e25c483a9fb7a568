"""Operations of the HIR dialect (Table 2 of the paper).

Four groups:

* **Control flow**: ``hir.func``, ``hir.for``, ``hir.unroll_for``,
  ``hir.return``, ``hir.yield``.
* **Compute**: ``hir.add``, ``hir.sub``, ``hir.mult``, bitwise ops,
  comparisons, ``hir.select``, bit-width casts and ``hir.call``.
  Compute ops are combinational: the result is valid in the same cycle as the
  operands.
* **Memory access**: ``hir.alloc``, ``hir.mem_read``, ``hir.mem_write``.
* **Scheduling**: ``hir.constant``, ``hir.delay``.

Scheduling convention: an operation that starts at a specific clock cycle
carries its time variable as its *last operand* and an integer ``offset``
attribute, which together encode the paper's ``at %t offset %k`` syntax.  The
paper passes the offset as an ``!hir.const`` SSA value; we use an attribute,
which is equivalent (the value must be a compile-time constant either way)
and keeps analyses simpler.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

from repro.ir.attributes import StringAttr, SymbolRefAttr, int_of, ints_of
from repro.ir.errors import VerificationError
from repro.ir.location import Location
from repro.ir.operation import Operation, register_operation
from repro.ir.types import FunctionType, IntegerType, Type
from repro.ir.values import BlockArgument, Value
from repro.hir.types import CONST, TIME, ConstType, MemrefType, TimeType


def _offset_of(op: Operation) -> int:
    attr = op.get_attr("offset")
    return int_of(attr) if attr is not None else 0


class HIROperation(Operation):
    """Common behaviour shared by every HIR operation."""

    #: True for ops whose operands can be swapped without changing the result.
    COMMUTATIVE: bool = False
    #: True for pure combinational ops that are safe to CSE / fold.
    PURE: bool = False

    @property
    def offset(self) -> int:
        """Scheduling offset relative to the time operand (``offset %k``)."""
        return _offset_of(self)

    @property
    def has_time_operand(self) -> bool:
        return any(isinstance(v.type, TimeType) for v in self.operands)

    @property
    def time_operand(self) -> Value:
        for value in reversed(self.operands):
            if isinstance(value.type, TimeType):
                return value
        raise VerificationError(f"{self.name} has no time operand", self.location)


# --------------------------------------------------------------------------- #
# Control flow
# --------------------------------------------------------------------------- #


@register_operation
class FuncOp(HIROperation):
    """``hir.func`` — a hardware function, lowered to a Verilog module.

    The function body's block arguments are the declared arguments followed by
    the start-time variable ``%t``.  The signature embeds per-argument and
    per-result delays (Section 6.1) so pipeline imbalances across calls can be
    detected statically.  ``external=True`` declares a black-box Verilog
    module (Section 5.4): it has no body and only its signature is used.
    """

    OPERATION_NAME = "hir.func"

    def __init__(
        self,
        name: str,
        arg_types: Sequence[Type] = (),
        result_types: Sequence[Type] = (),
        arg_names: Optional[Sequence[str]] = None,
        arg_delays: Optional[Sequence[int]] = None,
        result_delays: Optional[Sequence[int]] = None,
        stable_args: Optional[Sequence[bool]] = None,
        external: bool = False,
        location: Optional[Location] = None,
    ) -> None:
        arg_types = tuple(arg_types)
        result_types = tuple(result_types)
        arg_names = tuple(arg_names) if arg_names is not None else tuple(
            f"arg{i}" for i in range(len(arg_types))
        )
        arg_delays = tuple(arg_delays) if arg_delays is not None else (0,) * len(arg_types)
        result_delays = (
            tuple(result_delays) if result_delays is not None else (0,) * len(result_types)
        )
        stable_args = (
            tuple(bool(s) for s in stable_args) if stable_args is not None
            else (False,) * len(arg_types)
        )
        if len(arg_names) != len(arg_types):
            raise ValueError("arg_names must match arg_types in length")
        if len(arg_delays) != len(arg_types):
            raise ValueError("arg_delays must match arg_types in length")
        if len(result_delays) != len(result_types):
            raise ValueError("result_delays must match result_types in length")
        if len(stable_args) != len(arg_types):
            raise ValueError("stable_args must match arg_types in length")
        super().__init__(
            attributes={
                "sym_name": name,
                "function_type": FunctionType(arg_types, result_types),
                "arg_names": list(arg_names),
                "arg_delays": list(arg_delays),
                "result_delays": list(result_delays),
                "stable_args": list(stable_args),
                "external": external,
            },
            num_regions=1,
            location=location,
        )
        if not external:
            block = self.regions[0].add_block()
            for arg_name, arg_type in zip(arg_names, arg_types):
                block.add_argument(arg_type, arg_name)
            block.add_argument(TIME, "t")

    # -- accessors ----------------------------------------------------------
    @property
    def symbol_name(self) -> str:
        return self.get_attr("sym_name").value  # type: ignore[union-attr]

    @property
    def function_type(self) -> FunctionType:
        return self.get_attr("function_type").value  # type: ignore[union-attr]

    @property
    def is_external(self) -> bool:
        attr = self.get_attr("external")
        return bool(attr.value) if attr is not None else False

    @property
    def arg_names(self) -> Tuple[str, ...]:
        return tuple(a.value for a in self.get_attr("arg_names"))  # type: ignore[union-attr]

    @property
    def arg_delays(self) -> Tuple[int, ...]:
        return ints_of(self.get_attr("arg_delays"))

    @property
    def result_delays(self) -> Tuple[int, ...]:
        return ints_of(self.get_attr("result_delays"))

    @property
    def stable_args(self) -> Tuple[bool, ...]:
        """Per-argument flag: the caller holds this input stable for the whole call.

        Stable scalar arguments (e.g. stencil weights) may be read at any
        cycle; non-stable arguments are only valid at their declared delay.
        """
        attr = self.get_attr("stable_args")
        if attr is None:
            return (False,) * len(self.arg_names)
        return tuple(bool(int_of(a)) for a in attr)  # type: ignore[union-attr]

    @property
    def arguments(self) -> List[BlockArgument]:
        """Declared arguments (excluding the trailing time variable)."""
        if self.is_external or self.regions[0].empty:
            return []
        return list(self.body.arguments[:-1])

    @property
    def time_arg(self) -> BlockArgument:
        return self.body.arguments[-1]

    def verify_op(self) -> None:
        if self.is_external:
            if self.regions[0].blocks and self.regions[0].block.operations:
                raise VerificationError(
                    f"external function @{self.symbol_name} must not have a body",
                    self.location,
                )
            return
        if self.regions[0].empty:
            raise VerificationError(
                f"function @{self.symbol_name} has no body", self.location
            )
        args = self.body.arguments
        if not args or not isinstance(args[-1].type, TimeType):
            raise VerificationError(
                f"function @{self.symbol_name} must end its arguments with a "
                "!hir.time start-time variable",
                self.location,
            )
        declared = self.function_type.inputs
        actual = tuple(a.type for a in args[:-1])
        if declared != actual:
            raise VerificationError(
                f"function @{self.symbol_name} signature {declared} does not match "
                f"body arguments {actual}",
                self.location,
            )
        terminators = [
            op for op in self.body.operations if isinstance(op, ReturnOp)
        ]
        if len(terminators) != 1 or self.body.operations[-1] is not terminators[0]:
            raise VerificationError(
                f"function @{self.symbol_name} must end with exactly one hir.return",
                self.location,
            )


@register_operation
class ReturnOp(HIROperation):
    """``hir.return`` — terminates a function body, yielding its results."""

    OPERATION_NAME = "hir.return"

    def __init__(self, values: Sequence[Value] = (),
                 location: Optional[Location] = None) -> None:
        super().__init__(operands=values, location=location)

    def verify_op(self) -> None:
        parent = self.parent_op
        if isinstance(parent, FuncOp):
            expected = parent.function_type.results
            actual = tuple(v.type for v in self.operands)
            if tuple(expected) != actual:
                raise VerificationError(
                    f"hir.return operand types {actual} do not match the enclosing "
                    f"function's result types {tuple(expected)}",
                    self.location,
                )


@register_operation
class ForOp(HIROperation):
    """``hir.for`` — a sequential (optionally pipelined) loop.

    Operands: lower bound, upper bound, step, and the time variable the first
    iteration is scheduled against (``iter_time (%ti = %t offset %k)``).  The
    single result is a time variable representing the completion of the loop.
    The body's block arguments are the induction variable and the iteration
    start-time variable; the ``hir.yield`` inside the body decides when the
    next iteration starts (the initiation interval).
    """

    OPERATION_NAME = "hir.for"

    def __init__(
        self,
        lower_bound: Value,
        upper_bound: Value,
        step: Value,
        time: Value,
        iter_offset: int = 0,
        iv_type: Optional[Type] = None,
        iv_name: str = "i",
        time_name: str = "ti",
        location: Optional[Location] = None,
    ) -> None:
        iv_type = iv_type or IntegerType(32)
        super().__init__(
            operands=[lower_bound, upper_bound, step, time],
            result_types=[TIME],
            attributes={"offset": iter_offset, "iv_name": iv_name, "time_name": time_name},
            num_regions=1,
            location=location,
        )
        block = self.regions[0].add_block()
        block.add_argument(iv_type, iv_name)
        block.add_argument(TIME, time_name)

    # -- accessors -------------------------------------------------------------
    @property
    def lower_bound(self) -> Value:
        return self.operand(0)

    @property
    def upper_bound(self) -> Value:
        return self.operand(1)

    @property
    def step(self) -> Value:
        return self.operand(2)

    @property
    def time_operand(self) -> Value:
        return self.operand(3)

    @property
    def induction_var(self) -> BlockArgument:
        return self.body.arguments[0]

    @property
    def iter_time(self) -> BlockArgument:
        return self.body.arguments[1]

    @property
    def done_time(self) -> Value:
        return self.results[0]

    @property
    def iv_type(self) -> Type:
        return self.induction_var.type

    def set_iv_type(self, new_type: Type) -> None:
        """Change the induction variable's type (used by precision opt)."""
        self.induction_var.type = new_type

    def yield_op(self) -> Optional["YieldOp"]:
        for op in self.body.operations:
            if isinstance(op, YieldOp):
                return op
        return None

    def initiation_interval(self) -> Optional[int]:
        """The loop's II when it is a compile-time constant, else None."""
        yield_op = self.yield_op()
        if yield_op is None:
            return None
        if yield_op.time_operand is self.iter_time:
            return yield_op.offset
        return None

    def static_trip_count(self) -> Optional[int]:
        """Trip count when bounds and step are hir.constant, else None."""
        bounds = [constant_value(self.lower_bound),
                  constant_value(self.upper_bound),
                  constant_value(self.step)]
        if any(b is None for b in bounds):
            return None
        lb, ub, step = bounds  # type: ignore[misc]
        if step <= 0 or ub <= lb:
            return 0
        return (ub - lb + step - 1) // step

    def verify_op(self) -> None:
        if self.regions[0].empty:
            raise VerificationError("hir.for has no body", self.location)
        args = self.body.arguments
        if len(args) != 2 or not isinstance(args[1].type, TimeType):
            raise VerificationError(
                "hir.for body must have (induction variable, !hir.time) arguments",
                self.location,
            )
        if not isinstance(self.time_operand.type, TimeType):
            raise VerificationError(
                "hir.for's fourth operand must be a !hir.time value", self.location
            )
        if self.yield_op() is None:
            raise VerificationError(
                "hir.for body must contain an hir.yield deciding the next "
                "iteration's start time",
                self.location,
            )


@register_operation
class UnrollForOp(HIROperation):
    """``hir.unroll_for`` — a fully unrolled loop; the body is replicated.

    Bounds are compile-time attributes.  The induction variable is an
    ``!hir.const`` so it can index distributed memref dimensions.
    """

    OPERATION_NAME = "hir.unroll_for"

    def __init__(
        self,
        lower_bound: int,
        upper_bound: int,
        step: int,
        time: Value,
        iter_offset: int = 0,
        iv_name: str = "i",
        time_name: str = "ti",
        location: Optional[Location] = None,
    ) -> None:
        super().__init__(
            operands=[time],
            result_types=[TIME],
            attributes={
                "lb": lower_bound,
                "ub": upper_bound,
                "step": step,
                "offset": iter_offset,
                "iv_name": iv_name,
                "time_name": time_name,
            },
            num_regions=1,
            location=location,
        )
        block = self.regions[0].add_block()
        block.add_argument(CONST, iv_name)
        block.add_argument(TIME, time_name)

    @property
    def lower_bound(self) -> int:
        return int_of(self.get_attr("lb"))

    @property
    def upper_bound(self) -> int:
        return int_of(self.get_attr("ub"))

    @property
    def step(self) -> int:
        return int_of(self.get_attr("step"))

    @property
    def time_operand(self) -> Value:
        return self.operand(0)

    @property
    def induction_var(self) -> BlockArgument:
        return self.body.arguments[0]

    @property
    def iter_time(self) -> BlockArgument:
        return self.body.arguments[1]

    @property
    def done_time(self) -> Value:
        return self.results[0]

    def iterations(self) -> List[int]:
        return list(range(self.lower_bound, self.upper_bound, self.step))

    def yield_op(self) -> Optional["YieldOp"]:
        for op in self.body.operations:
            if isinstance(op, YieldOp):
                return op
        return None

    def verify_op(self) -> None:
        if self.step <= 0:
            raise VerificationError(
                f"hir.unroll_for step must be positive, got {self.step}", self.location
            )
        if self.regions[0].empty or len(self.body.arguments) != 2:
            raise VerificationError(
                "hir.unroll_for body must have (const induction variable, "
                "!hir.time) arguments",
                self.location,
            )


@register_operation
class YieldOp(HIROperation):
    """``hir.yield`` — schedules the next loop iteration (``at %t offset %k``)."""

    OPERATION_NAME = "hir.yield"

    def __init__(self, time: Value, offset: int = 0,
                 location: Optional[Location] = None) -> None:
        super().__init__(operands=[time], attributes={"offset": offset},
                         location=location)

    @property
    def time_operand(self) -> Value:
        return self.operand(0)

    def verify_op(self) -> None:
        if not isinstance(self.time_operand.type, TimeType):
            raise VerificationError(
                "hir.yield operand must be a !hir.time value", self.location
            )
        parent = self.parent_op
        if not isinstance(parent, (ForOp, UnrollForOp)):
            raise VerificationError(
                "hir.yield must be nested directly inside hir.for or hir.unroll_for",
                self.location,
            )


# --------------------------------------------------------------------------- #
# Constants and compute operations
# --------------------------------------------------------------------------- #


@register_operation
class ConstantOp(HIROperation):
    """``hir.constant`` — a compile-time integer constant (``!hir.const``)."""

    OPERATION_NAME = "hir.constant"
    PURE = True

    def __init__(self, value: int, result_type: Optional[Type] = None,
                 location: Optional[Location] = None) -> None:
        super().__init__(
            result_types=[result_type or CONST],
            attributes={"value": int(value)},
            location=location,
        )
        self.results[0].name_hint = f"c{value}" if value >= 0 else f"cm{-value}"

    @property
    def value(self) -> int:
        return int_of(self.get_attr("value"))


def constant_value(value: Value) -> Optional[int]:
    """The integer behind ``value`` if it is defined by hir.constant, else None."""
    owner = getattr(value, "operation", None)
    if isinstance(owner, ConstantOp):
        return owner.value
    return None


class BinaryOp(HIROperation):
    """Base class of two-operand combinational compute ops."""

    PURE = True

    def __init__(self, lhs: Value, rhs: Value, result_type: Optional[Type] = None,
                 location: Optional[Location] = None) -> None:
        result_type = result_type or self._infer_type(lhs, rhs)
        super().__init__(operands=[lhs, rhs], result_types=[result_type],
                         location=location)

    @staticmethod
    def _infer_type(lhs: Value, rhs: Value) -> Type:
        if isinstance(lhs.type, ConstType):
            return rhs.type
        return lhs.type

    @property
    def lhs(self) -> Value:
        return self.operand(0)

    @property
    def rhs(self) -> Value:
        return self.operand(1)

    def evaluate(self, lhs: int, rhs: int) -> int:  # pragma: no cover - abstract
        raise NotImplementedError(
            f"binary op '{self.name}' ({type(self).__name__}) does not define "
            "evaluate(); constant folding and simulation need its integer "
            "semantics"
        )


@register_operation
class AddOp(BinaryOp):
    OPERATION_NAME = "hir.add"
    COMMUTATIVE = True

    def evaluate(self, lhs: int, rhs: int) -> int:
        return lhs + rhs


@register_operation
class SubOp(BinaryOp):
    OPERATION_NAME = "hir.sub"

    def evaluate(self, lhs: int, rhs: int) -> int:
        return lhs - rhs


@register_operation
class MultOp(BinaryOp):
    OPERATION_NAME = "hir.mult"
    COMMUTATIVE = True

    def evaluate(self, lhs: int, rhs: int) -> int:
        return lhs * rhs


@register_operation
class AndOp(BinaryOp):
    OPERATION_NAME = "hir.and"
    COMMUTATIVE = True

    def evaluate(self, lhs: int, rhs: int) -> int:
        return lhs & rhs


@register_operation
class OrOp(BinaryOp):
    OPERATION_NAME = "hir.or"
    COMMUTATIVE = True

    def evaluate(self, lhs: int, rhs: int) -> int:
        return lhs | rhs


@register_operation
class XorOp(BinaryOp):
    OPERATION_NAME = "hir.xor"
    COMMUTATIVE = True

    def evaluate(self, lhs: int, rhs: int) -> int:
        return lhs ^ rhs


@register_operation
class ShlOp(BinaryOp):
    OPERATION_NAME = "hir.shl"

    def evaluate(self, lhs: int, rhs: int) -> int:
        return lhs << rhs


@register_operation
class ShrOp(BinaryOp):
    OPERATION_NAME = "hir.shr"

    def evaluate(self, lhs: int, rhs: int) -> int:
        return lhs >> rhs


#: Comparison predicates accepted by hir.cmp.
CMP_PREDICATES = ("eq", "ne", "lt", "le", "gt", "ge")


@register_operation
class CmpOp(HIROperation):
    """``hir.cmp`` — integer comparison producing an ``i1``."""

    OPERATION_NAME = "hir.cmp"
    PURE = True

    def __init__(self, predicate: str, lhs: Value, rhs: Value,
                 location: Optional[Location] = None) -> None:
        if predicate not in CMP_PREDICATES:
            raise ValueError(f"unknown comparison predicate {predicate!r}")
        super().__init__(
            operands=[lhs, rhs],
            result_types=[IntegerType(1)],
            attributes={"predicate": predicate},
            location=location,
        )

    @property
    def predicate(self) -> str:
        return self.get_attr("predicate").value  # type: ignore[union-attr]

    @property
    def lhs(self) -> Value:
        return self.operand(0)

    @property
    def rhs(self) -> Value:
        return self.operand(1)

    def evaluate(self, lhs: int, rhs: int) -> int:
        return int({
            "eq": lhs == rhs,
            "ne": lhs != rhs,
            "lt": lhs < rhs,
            "le": lhs <= rhs,
            "gt": lhs > rhs,
            "ge": lhs >= rhs,
        }[self.predicate])


@register_operation
class SelectOp(HIROperation):
    """``hir.select`` — a multiplexer: ``cond ? true_value : false_value``."""

    OPERATION_NAME = "hir.select"
    PURE = True

    def __init__(self, condition: Value, true_value: Value, false_value: Value,
                 location: Optional[Location] = None) -> None:
        super().__init__(
            operands=[condition, true_value, false_value],
            result_types=[true_value.type],
            location=location,
        )

    @property
    def condition(self) -> Value:
        return self.operand(0)

    @property
    def true_value(self) -> Value:
        return self.operand(1)

    @property
    def false_value(self) -> Value:
        return self.operand(2)


@register_operation
class TruncOp(HIROperation):
    """``hir.trunc`` — keep the low bits (bit slicing to a narrower type)."""

    OPERATION_NAME = "hir.trunc"
    PURE = True

    def __init__(self, value: Value, result_type: Type,
                 location: Optional[Location] = None) -> None:
        super().__init__(operands=[value], result_types=[result_type],
                         location=location)

    @property
    def value(self) -> Value:
        return self.operand(0)


@register_operation
class ExtOp(HIROperation):
    """``hir.ext`` — sign/zero extend to a wider type."""

    OPERATION_NAME = "hir.ext"
    PURE = True

    def __init__(self, value: Value, result_type: Type, signed: bool = True,
                 location: Optional[Location] = None) -> None:
        super().__init__(operands=[value], result_types=[result_type],
                         attributes={"signed": signed}, location=location)

    @property
    def value(self) -> Value:
        return self.operand(0)


@register_operation
class CallOp(HIROperation):
    """``hir.call`` — invoke another HIR function or an external Verilog module.

    The call starts at ``at %t offset %k``; each result becomes valid
    ``result_delays[i]`` cycles after the call starts, as declared by the
    callee's signature.
    """

    OPERATION_NAME = "hir.call"

    def __init__(
        self,
        callee: str,
        args: Sequence[Value],
        result_types: Sequence[Type],
        time: Value,
        offset: int = 0,
        result_delays: Optional[Sequence[int]] = None,
        location: Optional[Location] = None,
    ) -> None:
        result_delays = (
            tuple(result_delays) if result_delays is not None
            else (0,) * len(tuple(result_types))
        )
        super().__init__(
            operands=[*args, time],
            result_types=result_types,
            attributes={
                "callee": SymbolRefAttr(callee),
                "offset": offset,
                "result_delays": list(result_delays),
            },
            location=location,
        )

    @property
    def callee(self) -> str:
        return self.get_attr("callee").value  # type: ignore[union-attr]

    @property
    def args(self) -> List[Value]:
        return self.operands[:-1]

    @property
    def time_operand(self) -> Value:
        return self.operand(self.num_operands - 1)

    @property
    def result_delays(self) -> Tuple[int, ...]:
        return ints_of(self.get_attr("result_delays"))

    def verify_op(self) -> None:
        if not isinstance(self.time_operand.type, TimeType):
            raise VerificationError(
                "hir.call's last operand must be a !hir.time value", self.location
            )
        if len(self.result_delays) != self.num_results:
            raise VerificationError(
                "hir.call result_delays must have one entry per result", self.location
            )


# --------------------------------------------------------------------------- #
# Memory and scheduling operations
# --------------------------------------------------------------------------- #


@register_operation
class AllocOp(HIROperation):
    """``hir.alloc`` — instantiate an on-chip tensor and return its ports.

    Each result is a memref: one port onto the same underlying tensor.  All
    result memrefs must agree on shape, element type and packing; only the
    port direction may differ (e.g. one read port and one write port of a
    simple dual-port RAM).
    """

    OPERATION_NAME = "hir.alloc"

    def __init__(self, port_types: Sequence[MemrefType], mem_kind: str = "auto",
                 location: Optional[Location] = None) -> None:
        super().__init__(
            result_types=list(port_types),
            attributes={"mem_kind": mem_kind},
            location=location,
        )

    @property
    def mem_kind(self) -> str:
        attr = self.get_attr("mem_kind")
        return attr.value if isinstance(attr, StringAttr) else "auto"

    @property
    def ports(self) -> List[Value]:
        return list(self.results)

    @property
    def tensor_type(self) -> MemrefType:
        return self.results[0].type  # type: ignore[return-value]

    def verify_op(self) -> None:
        if not self.results:
            raise VerificationError("hir.alloc must define at least one port", self.location)
        first = self.results[0].type
        if not isinstance(first, MemrefType):
            raise VerificationError("hir.alloc results must be memrefs", self.location)
        for result in self.results[1:]:
            other = result.type
            if not isinstance(other, MemrefType):
                raise VerificationError("hir.alloc results must be memrefs", self.location)
            if (other.shape, other.element_type, other.packing) != (
                first.shape, first.element_type, first.packing
            ):
                raise VerificationError(
                    "all ports of an hir.alloc must share shape, element type and "
                    "packing; only the port direction may differ",
                    self.location,
                )


@register_operation
class MemReadOp(HIROperation):
    """``hir.mem_read`` — read one element of a memref at a scheduled time."""

    OPERATION_NAME = "hir.mem_read"

    def __init__(self, memref: Value, indices: Sequence[Value], time: Value,
                 offset: int = 0, location: Optional[Location] = None) -> None:
        memref_type = memref.type
        if not isinstance(memref_type, MemrefType):
            raise VerificationError("hir.mem_read expects a memref operand", location)
        super().__init__(
            operands=[memref, *indices, time],
            result_types=[memref_type.element_type],
            attributes={"offset": offset},
            location=location,
        )

    @property
    def memref(self) -> Value:
        return self.operand(0)

    @property
    def memref_type(self) -> MemrefType:
        return self.memref.type  # type: ignore[return-value]

    @property
    def indices(self) -> List[Value]:
        return self.operands[1:-1]

    @property
    def time_operand(self) -> Value:
        return self.operand(self.num_operands - 1)

    def verify_op(self) -> None:
        memref_type = self.memref.type
        if not isinstance(memref_type, MemrefType):
            raise VerificationError("hir.mem_read expects a memref operand", self.location)
        if not memref_type.can_read:
            raise VerificationError(
                f"cannot read through a '{memref_type.port}' memref port", self.location
            )
        if len(self.indices) != memref_type.rank:
            raise VerificationError(
                f"hir.mem_read expects {memref_type.rank} indices, got "
                f"{len(self.indices)}",
                self.location,
            )
        _verify_distributed_indices(self, memref_type, self.indices)


@register_operation
class MemWriteOp(HIROperation):
    """``hir.mem_write`` — write one element of a memref at a scheduled time."""

    OPERATION_NAME = "hir.mem_write"

    def __init__(self, value: Value, memref: Value, indices: Sequence[Value],
                 time: Value, offset: int = 0,
                 location: Optional[Location] = None) -> None:
        super().__init__(
            operands=[value, memref, *indices, time],
            attributes={"offset": offset},
            location=location,
        )

    @property
    def value(self) -> Value:
        return self.operand(0)

    @property
    def memref(self) -> Value:
        return self.operand(1)

    @property
    def memref_type(self) -> MemrefType:
        return self.memref.type  # type: ignore[return-value]

    @property
    def indices(self) -> List[Value]:
        return self.operands[2:-1]

    @property
    def time_operand(self) -> Value:
        return self.operand(self.num_operands - 1)

    def verify_op(self) -> None:
        memref_type = self.memref.type
        if not isinstance(memref_type, MemrefType):
            raise VerificationError("hir.mem_write expects a memref operand", self.location)
        if not memref_type.can_write:
            raise VerificationError(
                f"cannot write through a '{memref_type.port}' memref port", self.location
            )
        if len(self.indices) != memref_type.rank:
            raise VerificationError(
                f"hir.mem_write expects {memref_type.rank} indices, got "
                f"{len(self.indices)}",
                self.location,
            )
        _verify_distributed_indices(self, memref_type, self.indices)


def _verify_distributed_indices(op: Operation, memref_type: MemrefType,
                                indices: Sequence[Value]) -> None:
    """Distributed dimensions may only be indexed with compile-time constants."""
    for dim in memref_type.distributed_dims():
        index = indices[dim]
        if isinstance(index.type, ConstType) or constant_value(index) is not None:
            continue
        raise VerificationError(
            f"distributed dimension {dim} of {memref_type} must be indexed with a "
            "compile-time constant (!hir.const)",
            op.location,
        )


@register_operation
class DelayOp(HIROperation):
    """``hir.delay`` — delay a value by N cycles (lowered to a shift register)."""

    OPERATION_NAME = "hir.delay"

    def __init__(self, value: Value, delay: int, time: Value, offset: int = 0,
                 location: Optional[Location] = None) -> None:
        super().__init__(
            operands=[value, time],
            result_types=[value.type],
            attributes={"delay": delay, "offset": offset},
            location=location,
        )

    @property
    def value(self) -> Value:
        return self.operand(0)

    @property
    def delay(self) -> int:
        return int_of(self.get_attr("delay"))

    @property
    def time_operand(self) -> Value:
        return self.operand(1)

    def verify_op(self) -> None:
        if self.delay < 0:
            raise VerificationError(
                f"hir.delay amount must be non-negative, got {self.delay}", self.location
            )
        if self.results[0].type != self.value.type:
            raise VerificationError(
                "hir.delay result type must match its input type", self.location
            )


#: Operation groups used by Table-2-style inventories and by generic passes.
CONTROL_FLOW_OPS = (FuncOp, ForOp, UnrollForOp, ReturnOp, YieldOp)
COMPUTE_OPS = (AddOp, SubOp, MultOp, AndOp, OrOp, XorOp, ShlOp, ShrOp, CmpOp,
               SelectOp, TruncOp, ExtOp, CallOp)
MEMORY_OPS = (AllocOp, MemReadOp, MemWriteOp)
SCHEDULING_OPS = (ConstantOp, DelayOp)
