"""IR builder with an insertion point.

The builder mirrors MLIR's ``OpBuilder``: it remembers where the next op goes
and offers ``insert`` plus context-manager helpers for entering nested
regions.  Dialect-specific construction conveniences (``hir.build``) layer on
top of this class.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Iterator, Optional

from repro.ir.block import Block
from repro.ir.location import Location
from repro.ir.operation import Operation


class InsertionPoint:
    """A position inside a block: new operations go before ``anchor``.

    ``anchor is None`` means "append at the end of the block".
    """

    def __init__(self, block: Block, anchor: Optional[Operation] = None) -> None:
        self.block = block
        self.anchor = anchor

    def insert(self, op: Operation) -> Operation:
        if self.anchor is None:
            return self.block.append(op)
        return self.block.insert_before(self.anchor, op)


class Builder:
    """Stateful IR builder."""

    def __init__(self, insertion_point: Optional[InsertionPoint] = None,
                 location: Optional[Location] = None) -> None:
        self._insertion_point = insertion_point
        self.current_location = location or Location.unknown()

    # -- insertion point management -----------------------------------------
    def set_insertion_point_to_end(self, block: Block) -> None:
        self._insertion_point = InsertionPoint(block)

    def set_insertion_point_before(self, op: Operation) -> None:
        if op.parent_block is None:
            raise RuntimeError("operation is not attached to a block")
        self._insertion_point = InsertionPoint(op.parent_block, op)

    def set_insertion_point_after(self, op: Operation) -> None:
        block = op.parent_block
        if block is None:
            raise RuntimeError("operation is not attached to a block")
        index = block.index_of(op)
        anchor = block.operations[index + 1] if index + 1 < len(block.operations) else None
        self._insertion_point = InsertionPoint(block, anchor)

    @contextmanager
    def at_end_of(self, block: Block) -> Iterator["Builder"]:
        """Temporarily move the insertion point to the end of ``block``."""
        saved = self._insertion_point
        self.set_insertion_point_to_end(block)
        try:
            yield self
        finally:
            self._insertion_point = saved

    # -- op insertion -----------------------------------------------------------
    def insert(self, op: Operation) -> Operation:
        """Insert ``op`` at the current insertion point and return it."""
        if op.location is None or isinstance(op.location, type(Location.unknown())):
            op.location = self.current_location
        if self._insertion_point is None:
            raise RuntimeError("builder has no insertion point")
        return self._insertion_point.insert(op)
