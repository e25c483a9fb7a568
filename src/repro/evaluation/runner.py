"""Run the whole evaluation: every table and figure of the paper.

``python -m repro report`` regenerates Tables 4–6 and Figures 1–3 and
prints them next to the published numbers.  ``quick=True`` shrinks the
kernel sizes so the full sweep finishes in seconds (used by tests); the
default parameters match the paper's configuration.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional

from repro.evaluation import figures, table4, table5, table6
from repro.flow import Flow, FlowConfig

#: Reduced kernel sizes for a fast smoke run of the whole evaluation.
QUICK_TABLE5_PARAMS: Dict[str, Dict[str, int]] = {
    "transpose": {"size": 8},
    "stencil_1d": {"size": 32},
    "histogram": {"pixels": 64, "bins": 64},
    "gemm": {"size": 4},
    "convolution": {"size": 8},
    "fifo": {"depth": 64},
}

QUICK_TABLE6_PARAMS: Dict[str, Dict[str, int]] = {
    name: params for name, params in QUICK_TABLE5_PARAMS.items() if name != "fifo"
}

#: The post-paper workloads (PR 5), validated alongside the paper's six.
NEW_WORKLOAD_PARAMS: Dict[str, Dict[str, int]] = {
    "matvec": {"size": 16},
    "prefix_sum": {"size": 64},
    "spmv": {"rows": 16, "nnz": 4},
    "sorting_network": {"size": 8},
}

QUICK_NEW_WORKLOAD_PARAMS: Dict[str, Dict[str, int]] = {
    "matvec": {"size": 6},
    "prefix_sum": {"size": 16},
    "spmv": {"rows": 6, "nnz": 3},
    "sorting_network": {"size": 8},
}

#: Composed dataflow scenarios validated end to end (repro.graph).
SCENARIO_PARAMS: Dict[str, Dict[str, int]] = {
    "gemm_pipeline": {"size": 8},
    "histogram_cdf": {"pixels": 128, "bins": 32},
    "sorted_scan": {"size": 8},
}

QUICK_SCENARIO_PARAMS: Dict[str, Dict[str, int]] = {
    "gemm_pipeline": {"size": 4},
    "histogram_cdf": {"pixels": 64, "bins": 16},
    "sorted_scan": {"size": 8},
}


@dataclass
class ValidationRow:
    """Functional validation of one kernel on the selected engine."""

    kernel: str
    engine: str
    cycles: int
    ok: bool


def validate_kernels(engine: str = "differential",
                     params: Optional[Dict[str, Dict[str, int]]] = None,
                     config: Optional[FlowConfig] = None,
                     ) -> Dict[str, ValidationRow]:
    """Cross-check every kernel's simulated outputs against its reference.

    With the default ``differential`` engine this also compares the compiled
    engine's trace against the interpreter cycle by cycle, so a pass means
    both engines agree *and* match the numpy model.  Runs each kernel
    through a :class:`~repro.flow.Flow` session with ``pipeline="none"``
    (validating exactly the module as built, like the seed harness did).
    """
    config = (config or FlowConfig()).with_(pipeline="none", engine=engine)
    rows: Dict[str, ValidationRow] = {}
    if params is None:
        params = {**table5.DEFAULT_PARAMS, **NEW_WORKLOAD_PARAMS}
    for kernel, kernel_params in params.items():
        flow = Flow.from_kernel(kernel, config=config, **kernel_params)
        outcome = flow.validate(seed=1).value
        rows[kernel] = ValidationRow(kernel=kernel, engine=outcome.engine,
                                     cycles=outcome.cycles, ok=outcome.ok)
    return rows


def validate_scenarios(engine: str = "differential",
                       params: Optional[Dict[str, Dict[str, int]]] = None,
                       config: Optional[FlowConfig] = None,
                       ) -> Dict[str, ValidationRow]:
    """Cross-check every composed dataflow scenario end to end.

    Each scenario is lowered through :mod:`repro.graph`, simulated on the
    selected engine (default: interpreted and compiled in lockstep) and
    compared against the chained numpy references of its nodes.
    """
    config = (config or FlowConfig()).with_(pipeline="none", engine=engine)
    rows: Dict[str, ValidationRow] = {}
    for scenario, scenario_params in (params or SCENARIO_PARAMS).items():
        flow = Flow.from_scenario(scenario, config=config, **scenario_params)
        outcome = flow.validate(seed=1).value
        rows[f"graph:{scenario}"] = ValidationRow(
            kernel=f"graph:{scenario}", engine=outcome.engine,
            cycles=outcome.cycles, ok=outcome.ok)
    return rows


def render_validation(rows: Dict[str, ValidationRow]) -> str:
    lines = ["Functional validation (simulated vs numpy reference)",
             f"{'kernel':<20} {'engine':<14} {'cycles':>8}  status"]
    for row in rows.values():
        status = "ok" if row.ok else "MISMATCH"
        lines.append(f"{row.kernel:<20} {row.engine:<14} {row.cycles:>8}  "
                     f"{status}")
    return "\n".join(lines)


def render_compile_timing(quick: bool = False,
                          config: Optional[FlowConfig] = None) -> str:
    """A ``--timing`` breakdown of one representative compile of each flow.

    Shows the HIR pipeline's per-pass report (including verifier time and
    pass statistics) and the baseline compiler's per-phase seconds plus
    its DSE counters (design points examined / pruned / scheduled) on the
    heaviest kernel, GEMM.
    """
    from repro.hls import compile_program

    config = config or FlowConfig()
    size = 4 if quick else 16
    # Persistence off: a store hit would skip the pass pipeline reported here.
    flow = Flow.from_kernel("gemm", size=size, config=config.with_(
        pipeline="optimize", store_dir=""))
    flow.verilog()

    artifacts = flow.source
    result = compile_program(artifacts.hls_program, artifacts.hls_function)
    report = result.report
    lines = [f"Compile timing breakdown (gemm, size={size})",
             "",
             "HIR optimization pipeline:",
             flow.pass_report(),
             "",
             "HLS baseline phases:"]
    for phase, seconds in report.phase_seconds.items():
        lines.append(f"{phase:<32} {seconds * 1e3:8.3f} ms")
    lines.append(
        f"DSE design points: {report.dse_evaluations} examined, "
        f"{report.dse_pruned} pruned, {report.dse_scheduled} scheduled"
    )
    return "\n".join(lines)


@dataclass
class EvaluationResults:
    table4: Dict[str, table4.Table4Row] = field(default_factory=dict)
    table5: Dict[str, table5.Table5Row] = field(default_factory=dict)
    table6: Dict[str, table6.Table6Row] = field(default_factory=dict)
    figure1: Optional[figures.FigureResult] = None
    figure2: Optional[figures.FigureResult] = None
    figure3: Optional[figures.Figure3Result] = None
    validation: Dict[str, ValidationRow] = field(default_factory=dict)
    compile_timing: Optional[str] = None

    def render(self) -> str:
        parts = [
            table4.render(self.table4),
            "",
            table5.render(self.table5),
            "",
            table6.render(self.table6),
            "",
            self.figure1.render() if self.figure1 else "",
            "",
            self.figure2.render() if self.figure2 else "",
            "",
            self.figure3.render() if self.figure3 else "",
        ]
        if self.validation:
            parts += ["", render_validation(self.validation)]
        if self.compile_timing:
            parts += ["", self.compile_timing]
        return "\n".join(parts)


def run_all(quick: bool = False, validate: bool = False,
            timing: bool = False,
            config: Optional[FlowConfig] = None) -> EvaluationResults:
    """Regenerate every experiment; ``quick`` shrinks problem sizes.

    ``config`` is the :class:`~repro.flow.FlowConfig` threaded through every
    Flow-driven measurement.  ``validate`` appends a functional-validation
    sweep of every kernel on the ``differential`` engine to the results.
    ``timing`` appends per-pass / per-phase compile-time breakdowns, with
    the baseline compiler on its default fast path.  The Table 6 columns
    themselves are never affected: the baseline there stays frozen at the
    seed configuration.
    """
    config = config or FlowConfig.from_env()
    results = EvaluationResults()
    results.table4 = table4.generate(size=8 if quick else 16)
    results.table5 = table5.generate(QUICK_TABLE5_PARAMS if quick else None)
    results.table6 = table6.generate(QUICK_TABLE6_PARAMS if quick else None)
    results.figure1 = figures.figure1()
    results.figure2 = figures.figure2()
    results.figure3 = figures.figure3()
    if validate:
        kernel_params = ({**QUICK_TABLE5_PARAMS,
                          **QUICK_NEW_WORKLOAD_PARAMS} if quick else None)
        results.validation = validate_kernels(params=kernel_params,
                                              config=config)
        results.validation.update(validate_scenarios(
            params=QUICK_SCENARIO_PARAMS if quick else None, config=config))
    if timing:
        results.compile_timing = render_compile_timing(quick=quick,
                                                       config=config)
    return results
