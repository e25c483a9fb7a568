"""Constant propagation and folding (Section 6.2).

Pure compute operations whose operands are all compile-time constants are
evaluated at compile time and replaced by ``hir.constant``.  This both removes
hardware (an adder fed by two constants is just a wire) and enables the later
strength-reduction and precision passes.

Worklist-driven: folding an operation re-enqueues only its users, whose
operands may now be constant, so chains of foldable ops collapse without
re-walking the module once per wave (the seed behaviour is preserved in
:class:`repro.passes.legacy.LegacyConstantPropagationPass`).
"""

from __future__ import annotations

from typing import Optional

from repro.ir.operation import Operation
from repro.ir.pass_manager import Pass
from repro.ir.rewriter import PatternRewriter, RewritePattern
from repro.ir.types import IntegerType
from repro.hir.ops import (
    BinaryOp,
    CmpOp,
    ConstantOp,
    ExtOp,
    SelectOp,
    TruncOp,
    constant_value,
)
from repro.passes.common import functions_in


def _fold_op(op: Operation) -> Optional[int]:
    """Return the folded constant for ``op`` when all operands are constants."""
    if isinstance(op, (BinaryOp, CmpOp)):
        lhs = constant_value(op.lhs)
        rhs = constant_value(op.rhs)
        if lhs is None or rhs is None:
            return None
        return op.evaluate(lhs, rhs)
    if isinstance(op, SelectOp):
        condition = constant_value(op.condition)
        if condition is None:
            return None
        chosen = op.true_value if condition else op.false_value
        return constant_value(chosen)
    if isinstance(op, (TruncOp, ExtOp)):
        value = constant_value(op.value)
        if value is None:
            return None
        result_type = op.results[0].type
        if isinstance(result_type, IntegerType):
            return result_type.wrap(value)
        return value
    return None


#: Operations _fold_op can evaluate, for the pattern's name filter.
_FOLDABLE = ("hir.add", "hir.sub", "hir.mult", "hir.and", "hir.or", "hir.xor",
             "hir.shl", "hir.shr", "hir.cmp", "hir.select", "hir.trunc",
             "hir.ext")


class _FoldPattern(RewritePattern):
    op_names = _FOLDABLE

    def __init__(self, pass_: "ConstantPropagationPass") -> None:
        self._pass = pass_

    def match_and_rewrite(self, op: Operation,
                          rewriter: PatternRewriter) -> bool:
        folded = _fold_op(op)
        if folded is None:
            return False
        result = op.results[0]
        result_type = result.type
        if isinstance(result_type, IntegerType):
            folded = result_type.wrap(folded)
        constant = ConstantOp(folded, result_type, location=op.location)
        rewriter.insert_before(op, constant)
        rewriter.replace_op(op, constant.results[0])
        self._pass.record("ops-folded")
        return True


class ConstantPropagationPass(Pass):
    """Fold constant expressions to ``hir.constant`` until a fixpoint."""

    name = "constant-propagation"

    def run(self, module: Operation) -> None:
        for func in functions_in(module):
            PatternRewriter([_FoldPattern(self)]).rewrite(func)
