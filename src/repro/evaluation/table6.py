"""Table 6 — compile time of the HIR code generator vs the HLS baseline.

The paper reports 333x–2166x (average 1112x) speedups over Vivado HLS.  Our
baseline is a much lighter reimplementation of an HLS flow (no C front end,
no technology mapping, no vendor report generation), so the absolute gap is
smaller.  :func:`check_shape` checks two things: HIR code generation is
faster on every kernel, and GEMM, where the HIR compiler has to elaborate a
256-PE array, takes the HIR compiler longest of the five kernels.  It does
not check the ordering of the gaps, and that ordering disagrees with the
paper: the paper's smallest gap is on GEMM (333x), while at paper sizes the
reproduction's GEMM gap is its largest (176x; the other kernels read
1.2x–3.2x).
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional

from repro.flow import Flow, FlowConfig
from repro.hls.compiler import compile_program
from repro.kernels import build_kernel
from repro.evaluation.paper_data import PAPER_AVERAGE_SPEEDUP, PAPER_TABLE6

#: Kernel parameters for the paper-scale measurement.
DEFAULT_PARAMS: Dict[str, Dict[str, int]] = {
    "transpose": {"size": 16},
    "stencil_1d": {"size": 64},
    "histogram": {"pixels": 256, "bins": 256},
    "gemm": {"size": 16},
    "convolution": {"size": 16},
}


@dataclass
class Table6Row:
    kernel: str
    hir_seconds: float
    hls_seconds: float
    paper_hir_seconds: float
    paper_hls_seconds: float
    paper_speedup: float

    @property
    def speedup(self) -> float:
        if self.hir_seconds <= 0:
            return float("inf")
        return self.hls_seconds / self.hir_seconds


def measure_kernel(name: str,
                   params: Optional[Dict[str, int]] = None) -> Table6Row:
    """Measure both compilers' wall-clock compile time for one kernel.

    The baseline column is a *frozen model* of a commercial HLS tool: it
    runs the full DSE sweep with the seed compiler's behaviour (no
    pruning, no graph reuse, the original O(E) dependence scans —
    ``compile_program(..., seed_equivalent=True)``), because Table 6's
    claim is about how much work such a tool repeats, not about how fast we
    made our reimplementation of it.  Deliberately, nothing — including
    ``report --timing``, which breaks down the fast path — changes this
    column.  The engineered fast path of the baseline compiler is
    benchmarked separately in ``benchmarks/bench_compile_time.py``.
    """
    params = params if params is not None else DEFAULT_PARAMS[name]
    artifacts = build_kernel(name, **params)
    # Persistence off: time the pass pipeline, not blob reads and IR parses.
    hir_config = FlowConfig(pipeline="optimize", verify_each=False,
                            verify_structure=False, store_dir="")

    def measure_hir() -> float:
        # A fresh Flow per repeat: the stage cache must not amortize what
        # this table measures.  Stage seconds cover exactly what the seed
        # harness timed — pass pipeline + code generation (Verilog text
        # emission is lazy and resource estimation is a separate stage).
        fresh = Flow.from_kernel(name, config=hir_config, **params)
        fresh.verilog()
        timings = fresh.timings()
        return timings["optimized"] + timings["verilog"]

    def measure_hls() -> float:
        start = time.perf_counter()
        compile_program(artifacts.hls_program, artifacts.hls_function,
                        seed_equivalent=True)
        return time.perf_counter() - start

    hir_seconds, hls_seconds = _best_of(measure_hir, measure_hls)

    paper = PAPER_TABLE6[name]
    return Table6Row(name, hir_seconds, hls_seconds, paper["hir_seconds"],
                     paper["hls_seconds"], paper["speedup"])


def _best_of(*measures: Callable[[], float], repeats: int = 5,
             once_above: float = 1.0) -> List[float]:
    """The minimum of ``repeats`` samples of each measurement.

    Millisecond-scale compiles are dominated by scheduler noise and host
    speed drift, so one slow sample must not decide a row: every
    measurement repeats, and the rounds interleave (HIR, HLS, HIR, HLS,
    ...) so both columns see the same drift.  Only a measurement whose
    first sample exceeds ``once_above`` — a paper-scale HLS sweep, which
    takes seconds — runs once.
    """
    best = [measure() for measure in measures]
    for _ in range(repeats - 1):
        for index, measure in enumerate(measures):
            if best[index] < once_above:
                best[index] = min(best[index], measure())
    return best


def generate(params: Optional[Dict[str, Dict[str, int]]] = None,
             kernels: Optional[list] = None) -> Dict[str, Table6Row]:
    params = params or DEFAULT_PARAMS
    names = kernels or list(DEFAULT_PARAMS)
    return {name: measure_kernel(name, params.get(name)) for name in names}


def average_speedup(rows: Dict[str, Table6Row]) -> float:
    speedups = [row.speedup for row in rows.values()]
    return sum(speedups) / len(speedups) if speedups else 0.0


def render(rows: Dict[str, Table6Row]) -> str:
    header = (f"{'Benchmark':<12} {'HIR (s)':>10} {'baseline (s)':>13} "
              f"{'speedup':>9}   paper: HIR(s)/HLS(s)/speedup")
    lines = ["Table 6: compile times and speedup over the HLS baseline",
             header, "-" * len(header)]
    for row in rows.values():
        lines.append(
            f"{row.kernel:<12} {row.hir_seconds:>10.3f} {row.hls_seconds:>13.3f} "
            f"{row.speedup:>8.1f}x   {row.paper_hir_seconds}/"
            f"{row.paper_hls_seconds}/{row.paper_speedup:.0f}x"
        )
    lines.append(
        f"average speedup: {average_speedup(rows):.1f}x "
        f"(paper: {PAPER_AVERAGE_SPEEDUP:.0f}x against Vivado HLS)"
    )
    return "\n".join(lines)


def check_shape(rows: Dict[str, Table6Row]) -> bool:
    """HIR is faster on every kernel, and GEMM's HIR compile time is the
    largest of the kernels measured.

    The ordering of the speedups is not checked: the paper's GEMM gap is
    its smallest (333x), the reproduction's its largest (176x at paper
    sizes).
    """
    if not all(row.speedup > 1.0 for row in rows.values()):
        return False
    if "gemm" in rows and len(rows) > 1:
        gemm_hir = rows["gemm"].hir_seconds
        others = [row.hir_seconds for name, row in rows.items() if name != "gemm"]
        # GEMM is the heaviest design for the HIR compiler, as in the paper.
        if others and gemm_hir < max(others):
            return False
    return True
