"""Strength reduction (Section 6.2).

Integer multiplication consumes DSP slices or large LUT cascades; shifts and
additions are nearly free.  The optimizer therefore replaces multiplications
by compile-time constants with cheaper shift/add forms:

* ``x * 0``        → constant 0
* ``x * 1``        → ``x``
* ``x * 2**k``     → ``x << k``
* ``x * c`` where ``c`` has at most two set bits → ``(x << k1) + (x << k2)``

The paper phrases this as "replacing multiplication between loop induction
variables and constants with increments"; in SSA form without loop-carried
registers, the shift/add decomposition is the equivalent rewrite, and it
removes the same multipliers from the generated design.

The rewrite itself lives in :func:`rewrite_mult` so the worklist pass here
and the legacy reference pass share one implementation byte for byte.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from repro.ir.operation import Operation
from repro.ir.pass_manager import Pass
from repro.ir.rewriter import PatternRewriter, RewritePattern
from repro.ir.values import Value
from repro.hir.ops import AddOp, ConstantOp, MultOp, ShlOp, constant_value
from repro.passes.common import functions_in

#: Maximum number of set bits in the constant for the shift/add rewrite.
MAX_TERMS = 2


def _set_bits(value: int) -> List[int]:
    bits = []
    position = 0
    while value:
        if value & 1:
            bits.append(position)
        value >>= 1
        position += 1
    return bits


def _split_operands(op: MultOp) -> Tuple[Optional[int], Optional[Value]]:
    lhs_const = constant_value(op.lhs)
    rhs_const = constant_value(op.rhs)
    if lhs_const is not None and rhs_const is not None:
        # Fully constant multiplications belong to constant propagation.
        return None, None
    if rhs_const is not None:
        return rhs_const, op.lhs
    if lhs_const is not None:
        return lhs_const, op.rhs
    return None, None


def rewrite_mult(op: MultOp, max_terms: int = MAX_TERMS) -> bool:
    """Rewrite one constant multiplication in place; True iff it changed."""
    constant, variable = _split_operands(op)
    if constant is None or variable is None or constant < 0:
        return False
    block = op.parent_block
    result = op.results[0]
    result_type = result.type

    if constant == 0:
        zero = ConstantOp(0, result_type, location=op.location)
        block.insert_before(op, zero)
        result.replace_all_uses_with(zero.results[0])
        op.erase()
        return True
    if constant == 1:
        result.replace_all_uses_with(variable)
        op.erase()
        return True

    bits = _set_bits(constant)
    if len(bits) > max_terms:
        return False

    terms: List[Value] = []
    for bit in bits:
        if bit == 0:
            terms.append(variable)
            continue
        shift_amount = ConstantOp(bit, location=op.location)
        block.insert_before(op, shift_amount)
        shift = ShlOp(variable, shift_amount.results[0], result_type,
                      location=op.location)
        block.insert_before(op, shift)
        terms.append(shift.results[0])

    combined = terms[0]
    for term in terms[1:]:
        add = AddOp(combined, term, result_type, location=op.location)
        block.insert_before(op, add)
        combined = add.results[0]
    result.replace_all_uses_with(combined)
    op.erase()
    return True


class _MultPattern(RewritePattern):
    op_names = (MultOp.OPERATION_NAME,)

    def __init__(self, pass_: "StrengthReductionPass") -> None:
        self._pass = pass_

    def match_and_rewrite(self, op: Operation,
                          rewriter: PatternRewriter) -> bool:
        if rewrite_mult(op, self._pass.max_terms):
            self._pass.record("multiplies-removed")
            return True
        return False


class StrengthReductionPass(Pass):
    """Rewrite multiplications by constants into shifts and adds."""

    name = "strength-reduction"

    #: Maximum number of set bits in the constant for the shift/add rewrite.
    max_terms = MAX_TERMS

    def run(self, module: Operation) -> None:
        for func in functions_in(module):
            PatternRewriter([_MultPattern(self)]).rewrite(func)
