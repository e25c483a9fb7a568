"""Golden tests: worklist passes == legacy full-re-walk passes, bit for bit.

The fast compile path replaces fixpoint re-walks with worklist rewriting;
these tests pin its output to the seed implementations kept in
:mod:`repro.passes.legacy` — same final IR text, same emitted Verilog —
for every evaluation kernel.  Code both pipelines share (precision
optimization, ``Operation``, ``Value``, the CSE key) is pinned on its own
by the digests in ``test_pipeline_golden.py``.
"""

import pytest

from repro.ir import print_module
from repro.ir.rewriter import PatternRewriter, RewritePattern
from repro.kernels import build_kernel
from repro.passes import optimization_pipeline
from repro.verilog import generate_verilog_impl
from repro.verilog.emitter import emit_design

KERNEL_PARAMS = {
    "transpose": {"size": 8},
    "stencil_1d": {"size": 32},
    "histogram": {"pixels": 64, "bins": 64},
    "gemm": {"size": 4},
    "convolution": {"size": 8},
    "fifo": {"depth": 64},
}


@pytest.mark.parametrize("kernel", sorted(KERNEL_PARAMS))
def test_worklist_pipeline_matches_legacy_bit_for_bit(kernel):
    params = KERNEL_PARAMS[kernel]

    legacy_artifacts = build_kernel(kernel, **params)
    optimization_pipeline(verify_each=False,
                          legacy=True).run(legacy_artifacts.module)
    legacy_ir = print_module(legacy_artifacts.module)
    legacy_verilog = emit_design(
        generate_verilog_impl(legacy_artifacts.module,
                              top=legacy_artifacts.top).design)

    fast_artifacts = build_kernel(kernel, **params)
    optimization_pipeline(verify_each=False).run(fast_artifacts.module)
    fast_ir = print_module(fast_artifacts.module)
    fast_verilog = emit_design(
        generate_verilog_impl(fast_artifacts.module,
                              top=fast_artifacts.top).design)

    assert fast_ir == legacy_ir
    assert fast_verilog == legacy_verilog


def test_worklist_and_legacy_statistics_agree():
    """The same rewrites fire (simplified/folded/eliminated counts match)."""
    fast = build_kernel("gemm", size=4)
    fast_manager = optimization_pipeline(verify_each=False)
    fast_manager.run(fast.module)

    legacy = build_kernel("gemm", size=4)
    legacy_manager = optimization_pipeline(verify_each=False, legacy=True)
    legacy_manager.run(legacy.module)

    pairs = [
        ("cse", "legacy-cse", "ops-eliminated"),
        ("constant-propagation", "legacy-constant-propagation", "ops-folded"),
        ("strength-reduction", "legacy-strength-reduction",
         "multiplies-removed"),
    ]
    for fast_name, legacy_name, key in pairs:
        assert (fast_manager.statistic(fast_name, key)
                == legacy_manager.statistic(legacy_name, key))


class TestPassManagerReporting:
    def test_statistics_rebuilt_across_runs(self):
        """Re-running a manager reports the latest run, not an accumulation."""
        manager = optimization_pipeline(verify_each=False)
        first = build_kernel("transpose", size=8)
        manager.run(first.module)
        folded_once = manager.statistic("constant-propagation", "ops-folded")

        second = build_kernel("transpose", size=8)
        manager.run(second.module)
        folded_twice = manager.statistic("constant-propagation", "ops-folded")
        assert folded_once == folded_twice

    def test_timing_report_includes_verifier_time(self):
        artifacts = build_kernel("transpose", size=8)
        manager = optimization_pipeline(verify_each=True)
        manager.run(artifacts.module)
        report = manager.timing_report()
        assert "verify" in report
        assert any(t.verify_seconds > 0 for t in manager.timings)


class TestPatternRewriterWorklist:
    def test_cascading_rewrites_reach_fixpoint(self):
        """A chain of foldable adds collapses without full re-walks."""
        from repro.hir.build import DesignBuilder
        from repro.ir.types import I32
        from repro.passes import ConstantPropagationPass

        builder = DesignBuilder("m")
        with builder.func("f") as f:
            chain = f.constant(1, I32)
            for _ in range(10):
                chain = f.add(chain, f.constant(1, I32), result_type=I32)
            f.return_()
        pass_ = ConstantPropagationPass()
        pass_.run(builder.module)
        assert pass_.statistics["ops-folded"] == 10

    def test_rewriter_counts_rewrites(self):

        class Never(RewritePattern):
            op_names = ("no.such.op",)

            def match_and_rewrite(self, op, rewriter):  # pragma: no cover
                return True

        artifacts = build_kernel("transpose", size=8)
        rewriter = PatternRewriter([Never()])
        assert rewriter.rewrite(artifacts.module) == 0
