"""SSA values.

Every value in the IR is defined exactly once: either as the result of an
operation (:class:`OpResult`) or as a block argument (:class:`BlockArgument`,
used for function arguments, loop induction variables and time variables).
Uses are tracked so passes can cheaply ask "who reads this value?" and rewrite
uses in place, which the delay-elimination and CSE passes rely on.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, Iterator, List, Optional, Tuple

from repro.ir.types import Type

if TYPE_CHECKING:  # pragma: no cover
    from repro.ir.block import Block
    from repro.ir.operation import Operation


@dataclass
class Use:
    """A single use of a value: operand ``operand_index`` of ``operation``."""

    operation: "Operation"
    operand_index: int


class Value:
    """Base class for SSA values."""

    def __init__(self, type: Type, name_hint: Optional[str] = None) -> None:
        self.type = type
        self.name_hint = name_hint
        # Uses keyed by (operation identity, operand index): add/remove are
        # O(1) while insertion order — what passes iterate — is preserved.
        # The Use holds a strong reference to the operation, so the id() key
        # stays unambiguous for the lifetime of the entry.
        self._uses: Dict[Tuple[int, int], Use] = {}

    # -- use tracking -----------------------------------------------------
    @property
    def uses(self) -> List[Use]:
        """Live uses of this value (maintained by Operation operand setters)."""
        return list(self._uses.values())

    @property
    def has_uses(self) -> bool:
        return bool(self._uses)

    @property
    def num_uses(self) -> int:
        return len(self._uses)

    def users(self) -> Iterator["Operation"]:
        """Iterate over operations that use this value (with repetition)."""
        for use in self._uses.values():
            yield use.operation

    def _add_use(self, use: Use) -> None:
        self._uses[(id(use.operation), use.operand_index)] = use

    def _remove_use(self, operation: "Operation", operand_index: int) -> None:
        self._uses.pop((id(operation), operand_index), None)

    def replace_all_uses_with(self, replacement: "Value") -> None:
        """Rewrite every use of this value to use ``replacement`` instead."""
        if replacement is self:
            return
        for use in list(self._uses.values()):
            use.operation.set_operand(use.operand_index, replacement)

    # -- convenience ------------------------------------------------------
    @property
    def owner(self):  # pragma: no cover - overridden
        return None

    def display_name(self) -> str:
        return self.name_hint or "<anonymous>"

    def __repr__(self) -> str:
        return f"<{type(self).__name__} %{self.display_name()} : {self.type}>"


class OpResult(Value):
    """The ``index``-th result of ``operation``."""

    def __init__(self, operation: "Operation", index: int, type: Type,
                 name_hint: Optional[str] = None) -> None:
        super().__init__(type, name_hint)
        self.operation = operation
        self.index = index

    @property
    def owner(self) -> "Operation":
        return self.operation


class BlockArgument(Value):
    """The ``index``-th argument of ``block``.

    In HIR these model function arguments, the start-time argument of a
    function body, loop induction variables and loop iteration-time variables.
    """

    def __init__(self, block: "Block", index: int, type: Type,
                 name_hint: Optional[str] = None) -> None:
        super().__init__(type, name_hint)
        self.block = block
        self.index = index

    @property
    def owner(self) -> "Block":
        return self.block
