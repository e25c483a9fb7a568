"""Canonicalization: algebraic identities, constant de-duplication and DCE.

These are the "standard optimizations well-known in the software compiler
domain" the paper inherits for free from building on a compiler IR
(Section 6.2): they reduce hardware because an unused combinational op is an
unused LUT cluster, and ``x + 0`` is just a wire.

The pass is worklist-driven (:mod:`repro.ir.rewriter`): one seeding walk,
then only the users of rewritten values are revisited, instead of re-walking
the whole module to fixpoint.  The stage order of the seed implementation is
preserved exactly — simplify, unique constants, DCE — so the result is
bit-identical to :class:`repro.passes.legacy.LegacyCanonicalizePass`.
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

from repro.ir.operation import Operation
from repro.ir.pass_manager import Pass
from repro.ir.rewriter import PatternRewriter, RewritePattern
from repro.ir.values import Value
from repro.hir.ops import (
    AddOp,
    ConstantOp,
    DelayOp,
    MultOp,
    OrOp,
    ShlOp,
    ShrOp,
    SubOp,
    XorOp,
    constant_value,
)
from repro.passes.common import functions_in


def _simplify(op: Operation) -> Optional[Value]:
    """Return a value that can replace ``op``'s single result, or None."""
    if isinstance(op, AddOp):
        if constant_value(op.rhs) == 0:
            return op.lhs
        if constant_value(op.lhs) == 0:
            return op.rhs
    elif isinstance(op, SubOp):
        if constant_value(op.rhs) == 0:
            return op.lhs
    elif isinstance(op, MultOp):
        if constant_value(op.rhs) == 1:
            return op.lhs
        if constant_value(op.lhs) == 1:
            return op.rhs
    elif isinstance(op, (ShlOp, ShrOp)):
        if constant_value(op.rhs) == 0:
            return op.lhs
    elif isinstance(op, (OrOp, XorOp)):
        if constant_value(op.rhs) == 0:
            return op.lhs
        if constant_value(op.lhs) == 0:
            return op.rhs
    elif isinstance(op, DelayOp):
        if op.delay == 0:
            return op.value
    return None


#: Operations _simplify can rewrite, for the pattern's name filter.
_SIMPLIFIABLE = ("hir.add", "hir.sub", "hir.mult", "hir.shl", "hir.shr",
                 "hir.or", "hir.xor", "hir.delay")


class _SimplifyPattern(RewritePattern):
    op_names = _SIMPLIFIABLE

    def __init__(self, pass_: "CanonicalizePass") -> None:
        self._pass = pass_

    def match_and_rewrite(self, op: Operation,
                          rewriter: PatternRewriter) -> bool:
        if not op.results:
            return False
        replacement = _simplify(op)
        if replacement is None:
            return False
        rewriter.replace_op(op, replacement)
        self._pass.record("ops-simplified")
        return True


class _DCEPattern(RewritePattern):
    op_names = None  # every op is a DCE candidate

    def __init__(self, pass_: "CanonicalizePass") -> None:
        self._pass = pass_

    def match_and_rewrite(self, op: Operation,
                          rewriter: PatternRewriter) -> bool:
        if not getattr(op, "PURE", False) and not isinstance(op, DelayOp):
            return False
        if not op.results or any(result.has_uses for result in op.results):
            return False
        rewriter.erase_op(op)
        self._pass.record("dead-ops-removed")
        return True


class CanonicalizePass(Pass):
    """Apply local simplifications, unique constants, and run DCE."""

    name = "canonicalize"

    def run(self, module: Operation) -> None:
        for func in functions_in(module):
            PatternRewriter([_SimplifyPattern(self)]).rewrite(func)
            self._unique_constants(func)
            PatternRewriter([_DCEPattern(self)]).rewrite(func)

    def _unique_constants(self, func) -> None:
        """Merge hir.constant ops with identical value and type per block scope."""
        seen: Dict[Tuple[int, str], ConstantOp] = {}
        # Only constants in the function's top-level block are safe to merge
        # into from anywhere (they dominate every nested region).
        for op in list(func.body.operations):
            if not isinstance(op, ConstantOp):
                continue
            key = (op.value, str(op.results[0].type))
            existing = seen.get(key)
            if existing is None:
                seen[key] = op
                continue
            op.results[0].replace_all_uses_with(existing.results[0])
            op.erase()
            self.record("constants-merged")
        # Constants nested inside loops with a top-level equivalent are folded up.
        for op in list(func.walk()):
            if not isinstance(op, ConstantOp) or op.parent_block is func.body:
                continue
            key = (op.value, str(op.results[0].type))
            existing = seen.get(key)
            if existing is not None:
                op.results[0].replace_all_uses_with(existing.results[0])
                op.erase()
                self.record("constants-merged")
