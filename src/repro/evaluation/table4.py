"""Table 4 — effect of precision optimization on the matrix transpose.

Four design points are compared, mirroring the paper:

* **Vivado HLS** — the baseline compiler on the plain C-like source (32-bit
  loop counters, no manual tuning).
* **Vivado HLS (manual opt)** — the same source after the programmer manually
  narrows the loop counters (the tool cannot do it automatically).
* **HIR (no opt)** — the HIR design compiled without the optimization
  pipeline.
* **HIR (auto opt)** — the HIR design after the automatic precision
  optimization (plus the rest of the standard pipeline).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict

from repro.flow import Flow, FlowConfig
from repro.hls.compiler import compile_program
from repro.kernels import transpose
from repro.resources import ResourceReport
from repro.evaluation.paper_data import PAPER_TABLE4
from repro.evaluation.table5 import hls_resources


@dataclass
class Table4Row:
    name: str
    measured: ResourceReport
    paper_lut: int
    paper_ff: int


def _hir_resources(optimize: bool, size: int) -> ResourceReport:
    config = FlowConfig(pipeline="optimize" if optimize else "none",
                        verify_each=False)
    flow = Flow(transpose.build_hir(size), top="transpose", config=config)
    return flow.resources().value


def _hls_resources(manual_precision: bool, size: int) -> ResourceReport:
    program = transpose.build_hls(size, manual_precision=manual_precision)
    return hls_resources(compile_program(program, "transpose"))


def generate(size: int = 16) -> Dict[str, Table4Row]:
    """Regenerate Table 4; returns one row per design point."""
    rows = {
        "Vivado HLS": _hls_resources(False, size),
        "Vivado HLS (manual opt)": _hls_resources(True, size),
        "HIR (no opt)": _hir_resources(False, size),
        "HIR (auto opt)": _hir_resources(True, size),
    }
    return {
        name: Table4Row(name, report,
                        PAPER_TABLE4[name]["LUT"], PAPER_TABLE4[name]["FF"])
        for name, report in rows.items()
    }


def render(rows: Dict[str, Table4Row]) -> str:
    lines = ["Table 4: resource usage of a matrix transpose",
             f"{'Design':<26} {'LUT':>8} {'FF':>8} {'paper LUT':>10} {'paper FF':>9}"]
    lines.append("-" * len(lines[-1]))
    for row in rows.values():
        values = row.measured.as_dict()
        lines.append(
            f"{row.name:<26} {values['LUT']:>8} {values['FF']:>8} "
            f"{row.paper_lut:>10} {row.paper_ff:>9}"
        )
    return "\n".join(lines)


def check_shape(rows: Dict[str, Table4Row]) -> bool:
    """The paper's qualitative findings that must hold on our measurements."""
    measured = {name: row.measured.as_dict() for name, row in rows.items()}
    auto = measured["HIR (auto opt)"]
    noopt = measured["HIR (no opt)"]
    hls = measured["Vivado HLS"]
    manual = measured["Vivado HLS (manual opt)"]
    return (
        # Precision optimization reduces both LUTs and FFs for HIR...
        auto["LUT"] <= noopt["LUT"] and auto["FF"] <= noopt["FF"]
        # ...and manual precision reduction helps the HLS design.
        and manual["LUT"] <= hls["LUT"] and manual["FF"] <= hls["FF"]
        # The optimized HIR design uses no more FFs than the unoptimized HLS one.
        and auto["FF"] <= hls["FF"]
    )
