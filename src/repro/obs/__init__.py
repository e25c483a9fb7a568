"""``repro.obs`` — tracing, metrics and simulation profiling.

The observability layer the rest of the toolchain reports into:

* :mod:`~repro.obs.tracer` — the process-wide :data:`~repro.obs.tracer.
  TRACER`: nestable spans, typed counters/gauges, a bounded event ring.
  Off by default, ~free when off; enable per Flow session with
  ``FlowConfig(trace=True)``, per block with :func:`tracing`, or from the
  CLI with ``--trace out.json``.
* :mod:`~repro.obs.export` — Chrome ``trace_event`` JSON (Perfetto) and the
  human stats tree.
* :mod:`~repro.obs.cachestats` — one registry enumerating every cache
  (sim compile cache, Flow stages, the artifact store) with capacity/size/
  hit-rate; the substrate of ``python -m repro stats``.
* :mod:`~repro.obs.simprofile` — opt-in per-run simulation profiles
  (op firings, per-cycle events, port occupancy, memory/stream-buffer
  utilization), bit-identical across the interpreted, compiled and batched
  engines.
* :mod:`~repro.obs.metrics` — the versioned schema of the BENCH_*.json
  benchmark artifacts plus its validator.

Zero dependencies beyond the standard library and numpy (already required
by the simulators).  The names below are re-exported lazily, so a module
that only reports into :data:`~repro.obs.tracer.TRACER` loads neither the
exporters nor the profiler.
"""

from repro._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    "repro.obs.cachestats": ("CacheStats", "all_cache_stats", "register_cache",
                             "render_cache_report"),
    "repro.obs.export": ("stats_tree", "to_chrome_trace",
                         "write_chrome_trace"),
    "repro.obs.metrics": ("SCHEMA_VERSION", "bench_payload",
                          "validate_bench_payload"),
    "repro.obs.simprofile": ("BatchSimProfiler", "MemProfile", "PortProfile",
                             "SimProfile", "SimProfiler"),
    "repro.obs.tracer": ("TRACER", "Tracer", "disable_tracing",
                         "enable_tracing", "get_tracer", "tracing"),
})
