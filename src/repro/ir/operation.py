"""The Operation class: the single building block of all IR.

As in MLIR, everything is an operation: functions, loops, arithmetic, memory
accesses.  An operation has operands (SSA values it reads), results (SSA
values it defines), attributes (compile-time constants), regions (nested
bodies) and a source location.

Dialect operations subclass :class:`Operation` and set ``OPERATION_NAME``;
subclasses add typed accessors and a ``verify_op`` hook but never new storage,
so generic passes (printer, CSE, walkers) can treat every op uniformly.
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Optional, Sequence, Type as PyType

from repro.ir.attributes import Attribute, AttributeValue, attr
from repro.ir.block import Block
from repro.ir.errors import VerificationError
from repro.ir.location import Location
from repro.ir.region import Region
from repro.ir.types import Type
from repro.ir.values import OpResult, Use, Value


class Operation:
    """A generic IR operation."""

    #: Fully qualified name ("dialect.opname"); subclasses override this.
    OPERATION_NAME: str = "builtin.unregistered"

    def __init__(
        self,
        name: Optional[str] = None,
        operands: Sequence[Value] = (),
        result_types: Sequence[Type] = (),
        attributes: Optional[Dict[str, AttributeValue]] = None,
        num_regions: int = 0,
        location: Optional[Location] = None,
    ) -> None:
        self.name = name or self.OPERATION_NAME
        self.location = location or Location.unknown()
        self.parent_block: Optional[Block] = None
        self._operands: List[Value] = []
        self.attributes: Dict[str, Attribute] = {}
        self.results: List[OpResult] = [
            OpResult(self, i, t) for i, t in enumerate(result_types)
        ]
        self.regions: List[Region] = [Region(self) for _ in range(num_regions)]

        for operand in operands:
            self.append_operand(operand)
        for key, value in (attributes or {}).items():
            self.attributes[key] = attr(value)

    # -- operand management -------------------------------------------------
    @property
    def operands(self) -> List[Value]:
        return list(self._operands)

    def append_operand(self, value: Value) -> None:
        if not isinstance(value, Value):
            raise TypeError(f"operand of {self.name} must be a Value, got {value!r}")
        index = len(self._operands)
        self._operands.append(value)
        value._add_use(Use(self, index))

    def set_operand(self, index: int, value: Value) -> None:
        old = self._operands[index]
        old._remove_use(self, index)
        self._operands[index] = value
        value._add_use(Use(self, index))

    def operand(self, index: int) -> Value:
        return self._operands[index]

    @property
    def num_operands(self) -> int:
        return len(self._operands)

    def drop_all_uses(self) -> None:
        """Remove this op's uses of its operands (called before erasing)."""
        for i, operand in enumerate(self._operands):
            operand._remove_use(self, i)
        self._operands = []

    # -- results --------------------------------------------------------------
    @property
    def result(self) -> OpResult:
        """The single result of this operation."""
        if len(self.results) != 1:
            raise ValueError(
                f"{self.name} has {len(self.results)} results, expected exactly 1"
            )
        return self.results[0]

    @property
    def num_results(self) -> int:
        return len(self.results)

    # -- attributes -----------------------------------------------------------
    def get_attr(self, key: str, default: Optional[Attribute] = None) -> Optional[Attribute]:
        return self.attributes.get(key, default)

    def set_attr(self, key: str, value: AttributeValue) -> None:
        self.attributes[key] = attr(value)

    def has_attr(self, key: str) -> bool:
        return key in self.attributes

    # -- regions ---------------------------------------------------------------
    def region(self, index: int = 0) -> Region:
        return self.regions[index]

    @property
    def body(self) -> Block:
        """The single block of the first region (structured control flow)."""
        return self.regions[0].block

    # -- structural navigation --------------------------------------------------
    @property
    def parent_op(self) -> Optional["Operation"]:
        if self.parent_block is None:
            return None
        return self.parent_block.parent_op

    def ancestors(self) -> Iterator["Operation"]:
        op = self.parent_op
        while op is not None:
            yield op
            op = op.parent_op

    def walk_nested(self) -> Iterator["Operation"]:
        """Pre-order walk of operations nested inside this op's regions."""
        for region in self.regions:
            yield from region.walk()

    def walk(self) -> Iterator["Operation"]:
        """Pre-order walk including this operation itself."""
        yield self
        yield from self.walk_nested()

    # -- mutation -----------------------------------------------------------------
    def erase(self) -> None:
        """Remove this operation from its block and drop operand uses.

        Results must be unused; passes call :meth:`Value.replace_all_uses_with`
        first when folding.
        """
        for result in self.results:
            if result.has_uses:
                raise VerificationError(
                    f"cannot erase {self.name}: result %{result.display_name()} "
                    "still has uses",
                    self.location,
                )
        for nested in list(self.walk_nested()):
            nested.drop_all_uses()
        self.drop_all_uses()
        if self.parent_block is not None:
            self.parent_block.remove(self)

    def clone(self, value_map: Optional[Dict[Value, Value]] = None) -> "Operation":
        """Deep-copy this operation (and nested regions) in a single pass.

        ``value_map`` maps values in the original IR to values the clone should
        use; it is updated with mappings for every result and block argument
        produced by the clone.  This is how ``unroll_for`` bodies get
        replicated during lowering.

        The clone is built directly (one descent over the nested regions with
        the value map threaded through) rather than routed back through
        ``Operation.__init__``, which would re-validate every operand and
        re-wrap every attribute a second time per cloned op — measurable on
        unroll-heavy designs like the 256-PE GEMM array.
        """
        value_map = value_map if value_map is not None else {}
        cloned = object.__new__(type(self))
        cloned.name = self.name
        cloned.location = self.location
        cloned.parent_block = None
        cloned.attributes = dict(self.attributes)  # attributes are immutable
        cloned._operands = []
        cloned.results = []
        for index, old_res in enumerate(self.results):
            new_res = OpResult(cloned, index, old_res.type, old_res.name_hint)
            cloned.results.append(new_res)
            value_map[old_res] = new_res
        for index, operand in enumerate(self._operands):
            mapped = value_map.get(operand, operand)
            cloned._operands.append(mapped)
            mapped._add_use(Use(cloned, index))
        cloned.regions = []
        for region in self.regions:
            new_region = Region(cloned)
            cloned.regions.append(new_region)
            for block in region.blocks:
                new_block = new_region.add_block()
                for old_arg in block.arguments:
                    new_arg = new_block.add_argument(old_arg.type, old_arg.name_hint)
                    value_map[old_arg] = new_arg
                for op in block.operations:
                    new_block.append(op.clone(value_map))
        return cloned

    # -- verification ----------------------------------------------------------------
    def verify_op(self) -> None:
        """Per-op structural checks; dialect ops override this."""

    # -- misc ---------------------------------------------------------------------------
    def __repr__(self) -> str:
        return f"<{self.name} ({self.num_operands} operands, {self.num_results} results)>"


# Registry mapping operation names to their Python classes, used by the parser
# to rebuild typed operations from the generic textual form.
_OP_REGISTRY: Dict[str, PyType[Operation]] = {}


def register_operation(op_class: PyType[Operation]) -> PyType[Operation]:
    """Class decorator registering a dialect operation by its name."""
    _OP_REGISTRY[op_class.OPERATION_NAME] = op_class
    return op_class


def registered_operation(name: str) -> Optional[PyType[Operation]]:
    return _OP_REGISTRY.get(name)


def registered_operations() -> Dict[str, PyType[Operation]]:
    return dict(_OP_REGISTRY)


def create_operation(
    name: str,
    operands: Sequence[Value] = (),
    result_types: Sequence[Type] = (),
    attributes: Optional[Dict[str, AttributeValue]] = None,
    num_regions: int = 0,
    location: Optional[Location] = None,
) -> Operation:
    """Create an operation, using the registered class when one exists.

    The parser uses this so a parsed ``hir.for`` comes back as a ``ForOp``
    with its typed accessors, not a bare generic ``Operation``.
    """
    op_class = _OP_REGISTRY.get(name)
    op = object.__new__(op_class) if op_class is not None else object.__new__(Operation)
    Operation.__init__(
        op,
        name=name,
        operands=operands,
        result_types=result_types,
        attributes=attributes,
        num_regions=num_regions,
        location=location,
    )
    return op
