"""The baseline HLS compiler driver (the reproduction's "Vivado HLS").

The driver chains the phases a commercial HLS tool runs — front-end
validation, dependence analysis, design-space exploration, scheduling,
binding and RTL generation — and reports per-phase timings.  It emits the
same Verilog AST as the HIR compiler so the evaluation can charge both with
one resource model, and its wall-clock compile time is the "Vivado HLS"
column of Table 6.
"""

from __future__ import annotations

import copy
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.hls.binding import bind_loop
from repro.hls.dse import LoopExploration, collect_innermost_loops, explore_loop
from repro.hls.rtl import LoopRTLInfo, RTLGenerator
from repro.hls.scheduling import legacy_scan_mode, schedule_loop
from repro.hls.swir import ARRAY, For, Function, Load, Program, Statement, Store
from repro.verilog.ast import Design


@dataclass
class LoopReport:
    """What the tool reports for one loop (like an HLS synthesis report)."""

    name: str
    initiation_interval: int
    iteration_latency: int
    trip_count: int
    pipelined: bool
    candidates_evaluated: int

    @property
    def total_latency(self) -> int:
        if self.trip_count == 0:
            return 0
        if self.pipelined:
            return (self.trip_count - 1) * self.initiation_interval + self.iteration_latency
        return self.trip_count * self.iteration_latency


@dataclass
class HLSReport:
    function: str
    loops: List[LoopReport] = field(default_factory=list)
    phase_seconds: Dict[str, float] = field(default_factory=dict)
    dse_evaluations: int = 0
    #: Design points skipped via the DSE cost lower bound.
    dse_pruned: int = 0
    #: Design points that actually ran the scheduler.
    dse_scheduled: int = 0
    scheduled_operations: int = 0
    bound_registers_bits: int = 0
    rtl_lines: int = 0
    estimated_resources: Dict[str, int] = field(default_factory=dict)


@dataclass
class HLSResult:
    design: Design
    report: HLSReport
    seconds: float


class HLSCompiler:
    """Compile a software-IR program the way an HLS tool would.

    ``seed_equivalent`` reproduces the seed compiler's cost profile: a full
    DSE sweep with no pruning and no graph reuse, on the seed's O(E)
    dependence scans (the frozen Table 6 baseline and the compile-time
    benchmark's seed sweep).  It emits the same design as the default mode.
    """

    def __init__(self, dse_enabled: bool = True,
                 seed_equivalent: bool = False) -> None:
        self.dse_enabled = dse_enabled
        self.seed_equivalent = seed_equivalent

    # -- public API ------------------------------------------------------------
    def compile(self, program: Program, function_name: Optional[str] = None) -> HLSResult:
        total_start = time.perf_counter()
        function = (program.function(function_name) if function_name
                    else program.functions[-1])
        report = HLSReport(function.name)

        with legacy_scan_mode(self.seed_equivalent):
            work = self._timed(report, "frontend",
                               lambda: copy.deepcopy(function))
            self._timed(report, "dependence-analysis",
                        lambda: self._analyse(work))
            explorations = self._timed(report, "design-space-exploration",
                                       lambda: self._explore(work))
            loop_infos = self._timed(
                report, "scheduling-and-binding",
                lambda: self._schedule_and_bind(work, explorations, report))
            design = self._timed(report, "rtl-generation",
                                 lambda: self._generate_rtl(work, loop_infos))
            self._timed(report, "rtl-elaboration",
                        lambda: self._elaborate(design, report))

        seconds = time.perf_counter() - total_start
        return HLSResult(design, report, seconds)

    # -- phases -----------------------------------------------------------------------
    @staticmethod
    def _timed(report: HLSReport, phase: str, thunk):
        start = time.perf_counter()
        result = thunk()
        report.phase_seconds[phase] = time.perf_counter() - start
        return result

    def _analyse(self, function: Function) -> Dict[str, int]:
        """Whole-function memory access census (feeds interface synthesis)."""
        census: Dict[str, int] = {}

        def visit(statements: List[Statement]) -> None:
            for statement in statements:
                if isinstance(statement, (Load, Store)):
                    census[statement.array] = census.get(statement.array, 0) + 1
                elif isinstance(statement, For):
                    visit(statement.body)

        visit(function.body)
        for param in function.params:
            if param.kind == ARRAY and param.name not in census:
                census[param.name] = 0
        return census

    @staticmethod
    def _array_ports(function: Function) -> Dict[str, int]:
        """Ports per array, as granted by array_partition pragmas."""
        ports: Dict[str, int] = {}
        for param in function.params:
            if param.kind == ARRAY:
                ports[param.name] = max(1, param.partition_factor)
        for local in function.locals:
            ports[local.name] = max(1, local.partition_factor)
        return ports

    def _explore(self, function: Function) -> List[LoopExploration]:
        loops = collect_innermost_loops(function.body)
        ports = self._array_ports(function)
        explorations: List[LoopExploration] = []
        for loop, _depth in loops:
            if self.dse_enabled:
                explorations.append(explore_loop(
                    loop, array_ports=ports,
                    seed_equivalent=self.seed_equivalent))
            else:
                schedule = schedule_loop(loop.body, pipeline=loop.pragmas.pipeline,
                                         requested_ii=loop.pragmas.initiation_interval,
                                         array_ports=ports)
                exploration = LoopExploration(loop)
                exploration.chosen = None
                exploration.candidates = []
                explorations.append(exploration)
        return explorations

    def _schedule_and_bind(self, function: Function,
                           explorations: List[LoopExploration],
                           report: HLSReport) -> List[LoopRTLInfo]:
        loop_infos: List[LoopRTLInfo] = []
        loops = collect_innermost_loops(function.body)
        ports = self._array_ports(function)
        for (loop, depth), exploration in zip(loops, explorations):
            report.dse_pruned += exploration.pruned
            report.dse_scheduled += exploration.scheduled
            if exploration.chosen is not None:
                schedule = exploration.chosen.schedule
                evaluated = exploration.evaluations
            else:
                schedule = schedule_loop(loop.body, pipeline=loop.pragmas.pipeline,
                                         requested_ii=loop.pragmas.initiation_interval,
                                         array_ports=ports)
                evaluated = schedule.attempts
            binding = bind_loop(schedule)
            loop_infos.append(LoopRTLInfo(loop, schedule, binding, depth))
            report.loops.append(
                LoopReport(
                    name=loop.var,
                    initiation_interval=schedule.initiation_interval,
                    iteration_latency=schedule.latency,
                    trip_count=loop.trip_count,
                    pipelined=schedule.pipelined,
                    candidates_evaluated=evaluated,
                )
            )
            report.dse_evaluations += evaluated
            report.scheduled_operations += len(schedule.graph.nodes)
            report.bound_registers_bits += binding.total_register_bits
        if not loop_infos:
            # Straight-line function: schedule the whole body as one region.
            schedule = schedule_loop(function.body, pipeline=False)
            binding = bind_loop(schedule)
            synthetic = For("body", 0, 1, 1, list(function.body))
            loop_infos.append(LoopRTLInfo(synthetic, schedule, binding, 0))
            report.scheduled_operations += len(schedule.graph.nodes)
        return loop_infos

    def _generate_rtl(self, function: Function,
                      loop_infos: List[LoopRTLInfo]) -> Design:
        module = RTLGenerator(function, loop_infos).generate()
        design = Design(top=module.name)
        design.add(module)
        return design

    @staticmethod
    def _elaborate(design: Design, report: HLSReport) -> None:
        """Write out the RTL text and the utilization estimate.

        Commercial HLS tools spend a noticeable part of every run emitting the
        generated RTL and the synthesis/utilization reports; both are real
        work proportional to the size of the generated design.
        """
        from repro.resources.model import estimate_resources
        from repro.verilog.emitter import emit_design

        text = emit_design(design)
        estimate = estimate_resources(design)
        report.rtl_lines = text.count("\n")
        report.estimated_resources = estimate.as_dict()


def compile_program(program: Program, function_name: Optional[str] = None,
                    dse_enabled: bool = True,
                    seed_equivalent: bool = False) -> HLSResult:
    """Convenience wrapper around :class:`HLSCompiler`."""
    return HLSCompiler(dse_enabled=dse_enabled,
                       seed_equivalent=seed_equivalent).compile(program,
                                                                function_name)
