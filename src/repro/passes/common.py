"""Shared helpers for HIR passes."""

from __future__ import annotations

from typing import List

from repro.ir.operation import Operation
from repro.hir.ops import FuncOp


def functions_in(module: Operation) -> List[FuncOp]:
    """Every non-external hir.func nested in ``module`` (or ``module`` itself)."""
    return [
        op for op in module.walk()
        if isinstance(op, FuncOp) and not op.is_external
    ]


def signed_range_width(low: int, high: int) -> int:
    """Bits of a signed integer able to represent every value in [low, high]."""
    width = 1
    while not (-(1 << (width - 1)) <= low and high <= (1 << (width - 1)) - 1):
        width += 1
    return width
