"""Common sub-expression elimination (Section 6.2).

Two identical pure operations with the same operands produce the same wires;
instantiating them twice wastes LUTs.  The pass walks regions with a scoped
hash table (an op in an enclosing region dominates everything nested inside
it, so nested duplicates can reuse the outer result — the reverse is not
true).
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from repro.ir.block import Block
from repro.ir.operation import Operation
from repro.ir.pass_manager import Pass
from repro.passes.common import functions_in

#: Hashable signature of an operation for CSE purposes.
Signature = Tuple


def _signature(op: Operation) -> Signature:
    """Hashable structural signature: two pure ops with equal signatures
    compute the same value.

    Operands compare by identity (SSA values) and result types by their
    interned objects.  Attributes compare by printed form, not ``==``: the
    floats 0.0 and -0.0 are equal but print differently and must not merge.
    """
    operand_ids = tuple(id(operand) for operand in op.operands)
    if getattr(op, "COMMUTATIVE", False):
        operand_ids = tuple(sorted(operand_ids))
    return (
        op.name,
        operand_ids,
        tuple(sorted((key, str(value))
                     for key, value in op.attributes.items())),
        tuple(result.type for result in op.results),
    )


class CSEPass(Pass):
    """Eliminate duplicate pure operations."""

    name = "cse"

    def run(self, module: Operation) -> None:
        for func in functions_in(module):
            self._run_on_block(func.body, [])

    def _run_on_block(self, block: Block, scopes: List[Dict[Signature, Operation]]) -> None:
        scopes = scopes + [{}]
        for op in list(block.operations):
            if op.parent_block is None:
                continue
            if getattr(op, "PURE", False) and op.results:
                signature = _signature(op)
                existing = self._lookup(scopes, signature)
                if existing is not None:
                    for old, new in zip(op.results, existing.results):
                        old.replace_all_uses_with(new)
                    op.erase()
                    self.record("ops-eliminated")
                    continue
                scopes[-1][signature] = op
            for region in op.regions:
                for nested in region.blocks:
                    self._run_on_block(nested, scopes)

    @staticmethod
    def _lookup(scopes: List[Dict[Signature, Operation]],
                signature: Signature) -> Operation | None:
        for scope in reversed(scopes):
            if signature in scope:
                return scope[signature]
        return None
