"""Pass infrastructure: passes, pass pipelines and per-pass statistics.

Modelled after MLIR's pass manager, trimmed down to what the HIR compiler and
the baseline HLS compiler need: module-level passes run in sequence, each pass
can record statistics (e.g. "ops removed by CSE"), and the manager can verify
the IR after each pass.  A pass computes what it needs from the module it is
given; nothing is cached between passes.  ``timing_report()`` is the
``--timing``-style breakdown: per-pass transform and verifier seconds and
pass statistics.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.ir.operation import Operation
from repro.ir.verifier import verify
from repro.obs.tracer import TRACER

__all__ = ["Pass", "PassManager", "PassTiming"]


class Pass:
    """Base class for a transformation or analysis over a module."""

    #: Human-readable pass name, used in statistics and timing reports.
    name: str = "unnamed-pass"

    def __init__(self) -> None:
        self.statistics: Dict[str, int] = {}

    def run(self, module: Operation) -> None:  # pragma: no cover - abstract
        raise NotImplementedError(
            f"pass '{self.name}' ({type(self).__name__}) does not override "
            "Pass.run(); every registered pass must transform or analyse the "
            "module it is given"
        )

    def record(self, key: str, amount: int = 1) -> None:
        """Increment a named statistic."""
        self.statistics[key] = self.statistics.get(key, 0) + amount


@dataclass
class PassTiming:
    name: str
    seconds: float
    statistics: Dict[str, int] = field(default_factory=dict)
    #: Time spent verifying the module after this pass (0 when disabled).
    verify_seconds: float = 0.0


class PassManager:
    """Runs a sequence of passes over a module."""

    def __init__(self, verify_each: bool = True) -> None:
        self.passes: List[Pass] = []
        self.verify_each = verify_each
        self.timings: List[PassTiming] = []

    def add(self, *passes: Pass) -> "PassManager":
        self.passes.extend(passes)
        return self

    def run(self, module: Operation) -> Operation:
        """Run every registered pass in order and return the module.

        Timings *and* per-pass statistics are rebuilt on every call: a
        manager reused across modules reports the statistics of the latest
        run, not a stale accumulation over all previous runs.
        """
        self.timings = []
        for pass_ in self.passes:
            pass_.statistics = {}
            start = time.perf_counter()
            with TRACER.span("pass", cat="pass", name_=pass_.name):
                pass_.run(module)
            elapsed = time.perf_counter() - start
            verify_elapsed = 0.0
            if self.verify_each:
                verify_start = time.perf_counter()
                verify(module)
                verify_elapsed = time.perf_counter() - verify_start
            self.timings.append(
                PassTiming(pass_.name, elapsed, dict(pass_.statistics),
                           verify_elapsed)
            )
            TRACER.count("pass.runs")
            for key, value in pass_.statistics.items():
                TRACER.count(f"pass.{pass_.name}.{key}", value)
        return module

    def timing_report(self) -> str:
        """A human-readable per-pass timing/statistics report."""
        lines = ["pass timing report", "-" * 60]
        total = 0.0
        total_verify = 0.0
        for timing in self.timings:
            total += timing.seconds
            total_verify += timing.verify_seconds
            line = f"{timing.name:<32} {timing.seconds * 1e3:8.3f} ms"
            if timing.verify_seconds:
                line += f"  (+{timing.verify_seconds * 1e3:.3f} ms verify)"
            lines.append(line)
            for key, value in sorted(timing.statistics.items()):
                lines.append(f"    {key}: {value}")
        lines.append(
            f"{'total':<32} {total * 1e3:8.3f} ms"
            f"  (+{total_verify * 1e3:.3f} ms verify)"
        )
        return "\n".join(lines)

    def statistic(self, pass_name: str, key: str) -> Optional[int]:
        for timing in self.timings:
            if timing.name == pass_name and key in timing.statistics:
                return timing.statistics[key]
        return None
