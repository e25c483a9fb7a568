"""repro: a reproduction of the HIR hardware-accelerator IR (ASPLOS 2023).

Top-level layout:

* :mod:`repro.flow`       — the `Flow` session API: one staged, cached entry
                            point for build → optimize → codegen → simulate.
* :mod:`repro.ir`         — MLIR-like IR core (SSA, ops, regions, parser/printer).
* :mod:`repro.hir`        — the HIR dialect: explicit schedules, memrefs, loops.
* :mod:`repro.passes`     — schedule verification and optimization passes.
* :mod:`repro.verilog`    — Verilog AST, FSM synthesis and the HIR code generator.
* :mod:`repro.resources`  — FPGA resource model (LUT/FF/DSP/BRAM estimation).
* :mod:`repro.sim`        — cycle-accurate simulators for generated designs.
* :mod:`repro.hls`        — a Vivado-HLS-like baseline compiler used by the evaluation.
* :mod:`repro.kernels`    — the paper's benchmark kernels (HIR and HLS variants)
                            plus new workloads (matvec, scan, SpMV, sorting).
* :mod:`repro.graph`      — multi-kernel dataflow composition: kernel graphs
                            lowered to one statically scheduled design.
* :mod:`repro.fuzz`       — differential fuzzing of all of the above: random
                            programs cross-checked over pipelines/engines/cache.
* :mod:`repro.obs`        — observability: tracing spans/counters, the
                            Chrome-trace exporter, cache-stats registry, the
                            engine-identical simulation profiler, bench schema.
* :mod:`repro.evaluation` — harness regenerating every table and figure.

The package namespace re-exports the session API lazily, so ``import repro``
stays light::

    from repro import Flow, FlowConfig
    flow = Flow.from_kernel("gemm", size=8)
    print(flow.validate(seed=1).value)

The same flow is scriptable from the shell: ``python -m repro --help``.
"""

__version__ = "0.2.0"

from repro._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    "repro.flow": ("Artifact", "Flow", "FlowConfig", "FlowError"),
    "repro.graph": ("DesignGraph", "GraphError", "build_scenario",
                    "register_scenario", "scenario_names"),
    "repro.kernels.base": ("KernelArtifacts",),
    "repro.kernels": ("build_kernel", "kernel_names", "register_kernel"),
    "repro.fuzz": ("run_fuzz",),
    # Observability (repro.obs)
    "repro.obs": ("Tracer", "get_tracer", "enable_tracing", "disable_tracing",
                  "tracing", "write_chrome_trace", "SimProfile",
                  "all_cache_stats", "render_cache_report"),
})
__all__ = ["__version__", *__all__]
