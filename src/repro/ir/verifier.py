"""Structural IR verifier.

Checks the properties every well-formed module must satisfy, independent of
any dialect:

* every operand is defined by an operation or block argument that dominates
  the use (for structured control flow this means "defined earlier in the same
  block, or in an enclosing block"),
* results are not defined twice, operations appear in exactly one block,
* per-operation invariants (``verify_op`` hooks) hold.

The HIR *schedule* verifier (Figures 1 and 2 of the paper) builds on top of
this and lives in :mod:`repro.passes.schedule_verifier`.
"""

from __future__ import annotations

from typing import List, Set

from repro.ir.block import Block
from repro.ir.errors import VerificationError
from repro.ir.operation import Operation
from repro.ir.values import Value


class Verifier:
    """Verifies a module (or any operation subtree)."""

    def __init__(self) -> None:
        self.errors: List[VerificationError] = []

    def verify(self, root: Operation) -> None:
        """Verify ``root``; raises the first error found."""
        self._verify_op(root, visible=set())
        if self.errors:
            raise self.errors[0]

    def _verify_op(self, op: Operation, visible: Set[Value]) -> None:
        for index, operand in enumerate(op.operands):
            if operand not in visible:
                self.errors.append(
                    VerificationError(
                        f"operand #{index} of '{op.name}' "
                        f"(%{operand.display_name()}) does not dominate its use",
                        op.location,
                    )
                )
        try:
            op.verify_op()
        except VerificationError as error:
            self.errors.append(error)

        for region in op.regions:
            for block in region.blocks:
                self._verify_block(block, op, visible)

    def _verify_block(self, block: Block, parent: Operation, visible: Set[Value]) -> None:
        if block.parent_region is None or block.parent_region.parent_op is not parent:
            self.errors.append(
                VerificationError(
                    f"block inside '{parent.name}' has an inconsistent parent link",
                    parent.location,
                )
            )
        # Values visible inside the block: everything from enclosing scopes
        # plus the block arguments, plus results as they are defined.
        inner: Set[Value] = set(visible)
        inner.update(block.arguments)
        for op in block.operations:
            if op.parent_block is not block:
                self.errors.append(
                    VerificationError(
                        f"'{op.name}' has an inconsistent parent block link", op.location
                    )
                )
            self._verify_op(op, inner)
            inner.update(op.results)


def verify(root: Operation) -> None:
    """Module-level convenience wrapper around :class:`Verifier`."""
    Verifier().verify(root)


def collect_errors(root: Operation) -> List[VerificationError]:
    """Run verification and return every error instead of raising the first."""
    verifier = Verifier()
    verifier._verify_op(root, visible=set())
    return verifier.errors
