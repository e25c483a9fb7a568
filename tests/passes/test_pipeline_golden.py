"""Golden digests of both optimizing pipelines on every registered kernel.

``test_worklist_equivalence.py`` compares the worklist pipeline with the
legacy one, so a change in code both share (precision optimization,
``Operation``, ``Value``, the CSE key) can move both alike and still pass
there.  This file pins the output itself: for every registered kernel at
the quick evaluation sizes, plus gemm-16, the sha256 of the optimized
module printed with locations, the sha256 of the emitted Verilog, and every
pass's statistics in pipeline order.  ``optimize`` and ``legacy`` must both
match the same record (a legacy pass reports under its name without
``legacy-``).

After an intended output change, re-record by running this file as a
script (``PYTHONPATH=src python tests/passes/test_pipeline_golden.py``)
and pasting what it prints over ``GOLDEN``.
"""

import hashlib

import pytest

from repro.evaluation.runner import (
    QUICK_NEW_WORKLOAD_PARAMS,
    QUICK_TABLE5_PARAMS,
)
from repro.ir import print_module
from repro.kernels import KERNEL_BUILDERS, build_kernel
from repro.passes import optimization_pipeline
from repro.verilog import generate_verilog_impl
from repro.verilog.emitter import emit_design

PARAMS = {**QUICK_TABLE5_PARAMS, **QUICK_NEW_WORKLOAD_PARAMS}

#: Golden case -> (kernel, parameters).  gemm-16's 256-PE array is the
#: largest unrolled lowering, and the quick sizes miss it.
CASES = {**{kernel: (kernel, params) for kernel, params in PARAMS.items()},
         "gemm-16": ("gemm", {"size": 16})}


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def record(case: str, pipeline: str):
    """(IR sha256, Verilog sha256, per-pass statistics) of one compile."""
    kernel, params = CASES[case]
    artifacts = build_kernel(kernel, **params)
    manager = optimization_pipeline(legacy=(pipeline == "legacy"))
    module = manager.run(artifacts.module)
    ir = print_module(module, with_locations=True)
    verilog = emit_design(
        generate_verilog_impl(module, top=artifacts.top).design)
    statistics = tuple(
        " ".join([timing.name.removeprefix("legacy-")]
                 + [f"{key}={value}" for key, value
                    in sorted(timing.statistics.items())])
        for timing in manager.timings)
    return _sha256(ir), _sha256(verilog), statistics


GOLDEN = {
    'convolution': (
        '42164f9f2c4dd49b1aa04a560e2f1997edbc2f5494284cae8265aaa5a615f4c9',
        '6d5b4c510c74693e4c5fbd0179e175855165a13ff6a8a6d5da50a44a89779d6e',
        ('schedule-verifier errors-found=0 functions-verified=1',
         'canonicalize ops-simplified=4',
         'constant-propagation',
         'cse ops-eliminated=8',
         'strength-reduction multiplies-removed=5',
         'constant-propagation',
         'precision-optimization bits-saved=168 values-narrowed=7',
         'delay-elimination',
         'memport-optimization',
         'canonicalize constants-merged=5 dead-ops-removed=1',)),
    'fifo': (
        '691d1c2097c464f472e1d7519da5aae679fa3859e7034ebaea532f5649fea578',
        '999f7c27e5b1d6cd7656743f76f552674b72e0e56afdae81be0068ada068cbe0',
        ('schedule-verifier errors-found=0 functions-verified=1',
         'canonicalize',
         'constant-propagation',
         'cse',
         'strength-reduction',
         'constant-propagation',
         'precision-optimization bits-saved=48 values-narrowed=4',
         'delay-elimination',
         'memport-optimization allocations-made-single-port=1',
         'canonicalize',)),
    'gemm': (
        '41b874a4e4df6e20f0c2812312a6621f618cb916f91b1dc3242c50d27d572eae',
        '6dfee296648b31b8cfdc8d9ac6428ff429ff17cd8331928d6f6db812054c5e35',
        ('schedule-verifier errors-found=0 functions-verified=1',
         'canonicalize',
         'constant-propagation',
         'cse',
         'strength-reduction',
         'constant-propagation',
         'precision-optimization bits-saved=84 values-narrowed=5',
         'delay-elimination',
         'memport-optimization allocations-made-single-port=3',
         'canonicalize',)),
    'gemm-16': (
        '0a9de042cb091fa6e37194e358587e03dcac1168b42bb5baa0efc33a3735097c',
        'a796da9b5318a2bec106749c97101065dd6a3f66f29bc5c727930464c9caa277',
        ('schedule-verifier errors-found=0 functions-verified=1',
         'canonicalize',
         'constant-propagation',
         'cse',
         'strength-reduction',
         'constant-propagation',
         'precision-optimization bits-saved=78 values-narrowed=5',
         'delay-elimination',
         'memport-optimization allocations-made-single-port=3',
         'canonicalize',)),
    'histogram': (
        'c794234081370190e2728c42425a010bc6017d4027052db049a4f8b28cb01b8a',
        '917b6ba2d7c00877e0a97a42b274ccced1d81eab2b1f5bd918eb634ad799a92e',
        ('schedule-verifier errors-found=0 functions-verified=1',
         'canonicalize',
         'constant-propagation',
         'cse',
         'strength-reduction',
         'constant-propagation',
         'precision-optimization bits-saved=72 values-narrowed=4',
         'delay-elimination',
         'memport-optimization allocations-made-single-port=1',
         'canonicalize',)),
    'matvec': (
        '94fefd277c3d0e50f095512a00cd3e76ac1d0acd67a7a2121a624d1928e371d4',
        '329e20b128c550a79199d61df3a926e0943ef894bb87d566857086f55f78ff61',
        ('schedule-verifier errors-found=0 functions-verified=1',
         'canonicalize',
         'constant-propagation',
         'cse',
         'strength-reduction',
         'constant-propagation',
         'precision-optimization bits-saved=84 values-narrowed=5',
         'delay-elimination',
         'memport-optimization allocations-made-single-port=1',
         'canonicalize',)),
    'prefix_sum': (
        '7f23eff5b8b601136f48a7780e5d2c59573926ca081e2d9817f1d5268a443256',
        '6d155a5be1c1e9fe74c825c17b36b85f42c0e88689b06b4345483e02b56d31f9',
        ('schedule-verifier errors-found=0 functions-verified=1',
         'canonicalize',
         'constant-propagation',
         'cse',
         'strength-reduction',
         'constant-propagation',
         'precision-optimization bits-saved=26 values-narrowed=2',
         'delay-elimination',
         'memport-optimization',
         'canonicalize',)),
    'sorting_network': (
        '59179cffd3e1d338d968ed78d1c92f30336a834f84fa705a859cafa7d90da7e4',
        '3b0c5e4d189ab85844b8ad221379fafdf3ebfcfe9c92ac2bf1077d189fbfb2ce',
        ('schedule-verifier errors-found=0 functions-verified=1',
         'canonicalize',
         'constant-propagation',
         'cse',
         'strength-reduction',
         'constant-propagation',
         'precision-optimization',
         'delay-elimination',
         'memport-optimization',
         'canonicalize',)),
    'spmv': (
        '666b82489b9e5747ce636acc62741ef468805797c1b26f0305d7594c820320b2',
        '31ff9dcbe7b3c01b9ade7e5c53c3afa99da5e65d7f636c31be64b9b8a875f362',
        ('schedule-verifier errors-found=0 functions-verified=1',
         'canonicalize',
         'constant-propagation',
         'cse',
         'strength-reduction',
         'constant-propagation',
         'precision-optimization bits-saved=85 values-narrowed=5',
         'delay-elimination',
         'memport-optimization allocations-made-single-port=1',
         'canonicalize',)),
    'stencil_1d': (
        'ecda65f53f2fb6560bc18a59a78911a9ddbe0df43eb29f9d36671cc1f8b84130',
        'dd4e3d9a2a24e7865ccb59dee07e2cb64591d173798959e1fe7817e5cfc58338',
        ('schedule-verifier errors-found=0 functions-verified=1',
         'canonicalize',
         'constant-propagation',
         'cse',
         'strength-reduction',
         'constant-propagation',
         'precision-optimization bits-saved=50 values-narrowed=3',
         'delay-elimination',
         'memport-optimization',
         'canonicalize',)),
    'transpose': (
        'a3354e0723eee70e88b7d38fe4db285114342c3fa82e118d1c252ca43a35c36d',
        '0f649052e142d0debfdf6ea524c857dbece93646ee26e239bd892beb5eb02d50',
        ('schedule-verifier errors-found=0 functions-verified=1',
         'canonicalize',
         'constant-propagation',
         'cse',
         'strength-reduction',
         'constant-propagation',
         'precision-optimization bits-saved=54 values-narrowed=3',
         'delay-elimination',
         'memport-optimization',
         'canonicalize',)),
}


def test_golden_covers_every_registered_kernel():
    assert sorted(PARAMS) == sorted(KERNEL_BUILDERS)
    assert sorted(GOLDEN) == sorted(CASES)


@pytest.mark.parametrize("pipeline", ["optimize", "legacy"])
@pytest.mark.parametrize("case", sorted(GOLDEN))
def test_pipeline_output_matches_golden(case, pipeline):
    ir, verilog, statistics = record(case, pipeline)
    expected_ir, expected_verilog, expected_statistics = GOLDEN[case]
    assert statistics == expected_statistics
    assert ir == expected_ir
    assert verilog == expected_verilog


if __name__ == "__main__":
    print("GOLDEN = {")
    for case in sorted(CASES):
        ir, verilog, statistics = record(case, "optimize")
        print(f"    {case!r}: (")
        print(f"        {ir!r},")
        print(f"        {verilog!r},")
        print("        (" + ",\n         ".join(
            repr(line) for line in statistics) + ",)),")
    print("}")
