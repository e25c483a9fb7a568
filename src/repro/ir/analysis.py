"""Cached module analyses with explicit preserve/invalidate semantics.

Passes repeatedly need the same derived information — who uses a value, how
operations nest under loops, a topological levelization of each function —
and the seed pipeline recomputed it from scratch inside every pass.  The
:class:`AnalysisManager` computes each analysis once per module and caches
the result; after a transformation pass runs, every analysis is invalidated
except those the pass declares it preserves (``Pass.PRESERVES``).

Analyses are registered by name so the manager stays open for dialects:

* ``"def-use"``       — :class:`DefUseInfo`: users of every value.
* ``"levelization"``  — :class:`LevelizationInfo`: per-function pre-order
  position and region-nesting depth of every op.
* ``"loop-info"``     — :class:`LoopInfo`: the loop nest (for / unroll_for)
  of every function, with depths.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

from repro.ir.operation import Operation
from repro.ir.values import Value


# --------------------------------------------------------------------------- #
# Analysis results
# --------------------------------------------------------------------------- #


@dataclass
class DefUseInfo:
    """Snapshot of the def-use graph: operations using each value."""

    users: Dict[int, List[Operation]] = field(default_factory=dict)
    _values: Dict[int, Value] = field(default_factory=dict)


def _compute_def_use(module: Operation) -> DefUseInfo:
    info = DefUseInfo()
    for op in module.walk():
        for operand in op.operands:
            info.users.setdefault(id(operand), []).append(op)
            info._values[id(operand)] = operand
    return info


@dataclass
class LevelizationInfo:
    """Pre-order position and nesting depth of every operation."""

    position: Dict[int, int] = field(default_factory=dict)
    depth: Dict[int, int] = field(default_factory=dict)


def _compute_levelization(module: Operation) -> LevelizationInfo:
    info = LevelizationInfo()
    counter = 0

    def visit(op: Operation, depth: int) -> None:
        nonlocal counter
        info.position[id(op)] = counter
        info.depth[id(op)] = depth
        counter += 1
        for region in op.regions:
            for block in region.blocks:
                for nested in block.operations:
                    visit(nested, depth + 1)

    visit(module, 0)
    return info


@dataclass
class LoopNest:
    """One loop (hir.for / hir.unroll_for) with its nesting context."""

    loop: Operation
    depth: int
    children: List["LoopNest"] = field(default_factory=list)


@dataclass
class LoopInfo:
    """The loop forest of every function in the module."""

    roots: List[LoopNest] = field(default_factory=list)
    loops: List[LoopNest] = field(default_factory=list)

    @property
    def innermost(self) -> List[LoopNest]:
        return [nest for nest in self.loops if not nest.children]


def _compute_loop_info(module: Operation) -> LoopInfo:
    from repro.hir.ops import ForOp, UnrollForOp  # local: dialect-level

    info = LoopInfo()

    def visit(op: Operation, parent: Optional[LoopNest], depth: int) -> None:
        for region in op.regions:
            for block in region.blocks:
                for nested in block.operations:
                    if isinstance(nested, (ForOp, UnrollForOp)):
                        nest = LoopNest(nested, depth)
                        info.loops.append(nest)
                        (parent.children if parent else info.roots).append(nest)
                        visit(nested, nest, depth + 1)
                    else:
                        visit(nested, parent, depth)

    visit(module, None, 0)
    return info


# --------------------------------------------------------------------------- #
# Registry and manager
# --------------------------------------------------------------------------- #

_ANALYSES: Dict[str, Callable[[Operation], object]] = {
    "def-use": _compute_def_use,
    "levelization": _compute_levelization,
    "loop-info": _compute_loop_info,
}

#: Sentinel for ``Pass.PRESERVES``: the pass did not change the IR at all.
PRESERVE_ALL = ("*",)


def register_analysis(name: str,
                      compute: Callable[[Operation], object]) -> None:
    """Register a new analysis computable by every :class:`AnalysisManager`."""
    _ANALYSES[name] = compute


def registered_analyses() -> Tuple[str, ...]:
    return tuple(_ANALYSES)


class AnalysisManager:
    """Computes and caches analyses over modules.

    Cache keys include the module's identity so one manager can serve a
    pipeline that touches several modules.  ``hits``/``misses`` feed the
    pass manager's timing report.
    """

    def __init__(self) -> None:
        self._cache: Dict[Tuple[str, int], object] = {}
        self.hits = 0
        self.misses = 0
        #: Cached results actually dropped by ``invalidate*`` calls.
        self.invalidations = 0

    def get(self, name: str, module: Operation) -> object:
        if name not in _ANALYSES:
            raise KeyError(
                f"unknown analysis {name!r}; registered: {sorted(_ANALYSES)}"
            )
        key = (name, id(module))
        cached = self._cache.get(key)
        if cached is not None:
            self.hits += 1
            return cached
        self.misses += 1
        result = _ANALYSES[name](module)
        self._cache[key] = result
        return result

    def cached(self, name: str, module: Operation) -> Optional[object]:
        """The cached result if present; never computes."""
        return self._cache.get((name, id(module)))

    def invalidate(self, *names: str) -> None:
        """Drop specific analyses (every module)."""
        dropped = set(names)
        before = len(self._cache)
        self._cache = {key: value for key, value in self._cache.items()
                       if key[0] not in dropped}
        self.invalidations += before - len(self._cache)

    def invalidate_all_except(self, preserved: Tuple[str, ...]) -> None:
        """Invalidate after a transformation pass ran.

        ``preserved`` lists analyses the pass guarantees are still valid;
        :data:`PRESERVE_ALL` keeps everything (analysis-only passes).
        """
        if preserved == PRESERVE_ALL:
            return
        keep = set(preserved)
        before = len(self._cache)
        self._cache = {key: value for key, value in self._cache.items()
                       if key[0] in keep}
        self.invalidations += before - len(self._cache)

    def clear(self) -> None:
        self._cache.clear()
