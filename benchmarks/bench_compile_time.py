"""End-to-end compile-time benchmark of the fast compile path.

Runs the Table 6 kernel sweep — both compilers, every kernel — two ways:

* **seed**: the seed compiler's behaviour (legacy O(E) dependence scans,
  full DSE with no pruning or graph reuse, legacy full re-walk
  optimization passes), and
* **fast**: the current defaults (interned IR + worklist passes, cached
  adjacency, pruned DSE on shared graphs).

It *enforces* the fast path's contract: the fast sweep is >= 3x faster than
the seed sweep (``REPRO_COMPILE_MIN_SPEEDUP`` overrides the bar for noisy
shared runners), the DSE prunes a meaningful share of its candidate design
points, and — most importantly — both variants choose the same schedules
and emit byte-identical Verilog for every kernel.

Usage::

    python -m pytest benchmarks/bench_compile_time.py -q   # paper scale
    python benchmarks/bench_compile_time.py --smoke        # CI-sized run
"""

import argparse
import os
import sys
import time

_SRC = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "src")
if os.path.abspath(_SRC) not in sys.path:
    sys.path.insert(0, os.path.abspath(_SRC))

from repro.hls import compile_program
from repro.kernels import build_kernel
from repro.passes import optimization_pipeline
from repro.verilog import generate_verilog_impl
from repro.verilog.emitter import emit_design

#: Paper-scale Table 6 kernel parameters.
PAPER_PARAMS = {
    "transpose": {"size": 16},
    "stencil_1d": {"size": 64},
    "histogram": {"pixels": 256, "bins": 256},
    "gemm": {"size": 16},
    "convolution": {"size": 16},
}

#: Reduced sizes for the CI smoke run (same shape, seconds not minutes).
SMOKE_PARAMS = {
    "transpose": {"size": 8},
    "stencil_1d": {"size": 32},
    "histogram": {"pixels": 64, "bins": 64},
    "gemm": {"size": 8},
    "convolution": {"size": 8},
}

#: Required end-to-end speedup of the fast sweep over the seed sweep.
MIN_SPEEDUP = float(os.environ.get("REPRO_COMPILE_MIN_SPEEDUP", "3.0"))


def _compile_kernel(name, params, seed):
    """One kernel through both compilers; returns (seconds, verilog, report)."""
    artifacts = build_kernel(name, **params)
    start = time.perf_counter()
    optimization_pipeline(verify_each=False, legacy=seed).run(artifacts.module)
    hir_text = emit_design(
        generate_verilog_impl(artifacts.module, top=artifacts.top).design)
    result = compile_program(artifacts.hls_program, artifacts.hls_function,
                             seed_equivalent=seed)
    seconds = time.perf_counter() - start
    hls_text = emit_design(result.design)
    return seconds, hir_text + "\n" + hls_text, result.report


def run_sweep(params, variant):
    """Compile every kernel; variant is 'seed' or 'fast'."""
    texts, reports = {}, {}
    total = 0.0
    for name, kernel_params in params.items():
        seconds, text, report = _compile_kernel(name, kernel_params,
                                                seed=variant == "seed")
        total += seconds
        texts[name], reports[name] = text, report
    return total, texts, reports


def run_benchmark(params, min_speedup=MIN_SPEEDUP, verbose=True,
                  json_path=None):
    seed_seconds, seed_texts, _ = run_sweep(params, "seed")
    fast_seconds, fast_texts, fast_reports = run_sweep(params, "fast")

    # Bit-identical results across both variants, kernel by kernel.
    for name in params:
        assert seed_texts[name] == fast_texts[name], (
            f"{name}: fast compile emitted different Verilog than the seed")

    examined = sum(r.dse_evaluations for r in fast_reports.values())
    pruned = sum(r.dse_pruned for r in fast_reports.values())
    scheduled = sum(r.dse_scheduled for r in fast_reports.values())
    speedup = seed_seconds / fast_seconds if fast_seconds else float("inf")

    if verbose:
        print(f"\ncompile-time sweep over {len(params)} kernels:")
        print(f"  seed      {seed_seconds:8.3f}s")
        print(f"  fast      {fast_seconds:8.3f}s  ({speedup:.1f}x, "
              f"required >= {min_speedup:.1f}x)")
        print(f"  DSE design points: {examined} examined, {pruned} pruned, "
              f"{scheduled} scheduled")

    if json_path:
        from conftest import write_bench_json
        write_bench_json(json_path, [{
            "name": "compile-sweep",
            "kernels": ",".join(sorted(params)),
            "seed_seconds": seed_seconds,
            "fast_seconds": fast_seconds,
            "speedup": speedup,
            "dse_examined": examined,
            "dse_pruned": pruned,
            "dse_scheduled": scheduled,
        }])
        if verbose:
            print(f"  wrote {json_path}")

    assert speedup >= min_speedup, (
        f"fast compile path only {speedup:.2f}x faster than the seed "
        f"(required {min_speedup}x)")
    # Pruning must carry real weight: most examined design points are
    # rejected by the lower bound without ever running the scheduler.
    assert pruned > 0, "DSE pruned no candidates"
    assert pruned >= examined // 4, (
        f"DSE pruned only {pruned} of {examined} design points")
    assert scheduled < examined, "every design point was still scheduled"
    return speedup


def test_compile_time_speedup_paper_scale():
    """Fast compile path >= 3x over the seed on the Table 6 sweep,
    with pruned DSE and bit-identical output."""
    run_benchmark(PAPER_PARAMS)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--smoke", action="store_true",
                        help="reduced kernel sizes (CI-sized, seconds)")
    parser.add_argument("--min-speedup", type=float, default=None,
                        help=f"override the speedup bar (default "
                             f"{MIN_SPEEDUP} or REPRO_COMPILE_MIN_SPEEDUP)")
    parser.add_argument("--json", default=os.environ.get("REPRO_BENCH_JSON"),
                        help="write the measurements to this JSON file "
                             "(default: $REPRO_BENCH_JSON if set)")
    arguments = parser.parse_args(argv)
    params = SMOKE_PARAMS if arguments.smoke else PAPER_PARAMS
    bar = arguments.min_speedup if arguments.min_speedup is not None else MIN_SPEEDUP
    speedup = run_benchmark(params, min_speedup=bar, json_path=arguments.json)
    print(f"ok: {speedup:.1f}x")
    return 0


if __name__ == "__main__":
    sys.exit(main())
