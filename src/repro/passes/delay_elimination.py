"""Delay elimination and shift-register sharing (Section 6.4).

Each ``hir.delay`` lowers to a shift register.  Two delays of the same value
scheduled against the same time variable can share one register chain, and a
delay of a compile-time constant needs no hardware at all.  The pass

* replaces delays of constants with the constant itself (worklist-driven, so
  delays whose inputs *become* constant are caught without re-walking),
* de-duplicates identical delays (same input, same time variable, same
  offset, same amount), and
* records, for the code generator, which delays belong to the same sharing
  group (same input and time variable) so it can build one chain with
  multiple taps instead of independent chains.

The grouping logic is shared with the legacy reference pass via
:func:`share_delay_groups`.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Tuple

from repro.ir.operation import Operation
from repro.ir.pass_manager import Pass
from repro.ir.rewriter import PatternRewriter, RewritePattern
from repro.hir.ops import DelayOp, constant_value
from repro.passes.common import functions_in

GroupKey = Tuple[int, int, int]


def share_delay_groups(groups: Dict[GroupKey, List[DelayOp]],
                       record: Callable[..., None]) -> None:
    """De-duplicate grouped delays and mark the survivors' sharing groups.

    Group ids are small sequential integers (in group-discovery order, which
    is walk order and therefore deterministic), not ``id()`` values: the
    backend only needs members of one group to share a tag, and per-run
    unique integers would both make the printed IR irreproducible and feed
    an unbounded stream of fresh values into the attribute intern caches.
    """
    next_group_id = 0
    for delays in groups.values():
        delays.sort(key=lambda op: op.delay)
        by_amount: Dict[int, DelayOp] = {}
        for op in delays:
            existing = by_amount.get(op.delay)
            if existing is None:
                by_amount[op.delay] = op
                continue
            op.results[0].replace_all_uses_with(existing.results[0])
            op.erase()
            record("duplicate-delays-removed")
        if len(by_amount) > 1:
            # Mark every member of the sharing group so the Verilog
            # backend builds a single tapped chain (the registers saved
            # equal the sum of all but the deepest chain).
            survivors = sorted(by_amount.values(), key=lambda op: op.delay)
            group_id = next_group_id
            next_group_id += 1
            for op in survivors:
                op.set_attr("share_group", group_id)
            saved = sum(op.delay for op in survivors[:-1])
            record("registers-shared", saved)


class _ConstantDelayPattern(RewritePattern):
    op_names = (DelayOp.OPERATION_NAME,)

    def __init__(self, pass_: "DelayEliminationPass") -> None:
        self._pass = pass_

    def match_and_rewrite(self, op: Operation,
                          rewriter: PatternRewriter) -> bool:
        if constant_value(op.value) is None:
            return False
        # Constants are valid at every cycle; the delay is a no-op.
        rewriter.replace_op(op, op.value)
        self._pass.record("constant-delays-removed")
        return True


class DelayEliminationPass(Pass):
    """Remove redundant ``hir.delay`` operations and share shift registers."""

    name = "delay-elimination"

    def run(self, module: Operation) -> None:
        for func in functions_in(module):
            PatternRewriter([_ConstantDelayPattern(self)]).rewrite(func)
            groups: Dict[GroupKey, List[DelayOp]] = {}
            for op in func.walk():
                if not isinstance(op, DelayOp) or op.parent_block is None:
                    continue
                key = (id(op.value), id(op.time_operand), op.offset)
                groups.setdefault(key, []).append(op)
            share_delay_groups(groups, self.record)
