"""General matrix-matrix multiplication on a lockstep PE array
(Section 7.3 and Tables 5 / 6 of the paper).

Architecture (following the paper's GEMM description):

* The input matrices are loaded from their memory interfaces into on-chip
  local buffers implemented as banked distributed RAM (``A_buf`` is banked by
  row, ``B_buf`` by column), one interface read per cycle.
* A two-dimensional array of processing elements, described with nested
  ``hir.unroll_for`` loops, computes all ``N x N`` dot products.  All PEs run
  in lockstep: in cycle ``k`` every PE in row ``i`` reads ``A_buf[i][k]`` and
  every PE in column ``j`` reads ``B_buf[k][j]`` — parallel reads of the same
  bank are legal because they use the same address (Section 4.5).
* Each PE accumulates into a private register and stores its final result in
  a fully distributed result buffer; a staggered write-back phase then streams
  the results out through the single output interface port.

Resource correspondence: each PE has one 32x32 variable multiplier, i.e.
three DSP slices in the resource model, so the default 16x16 array uses the
768 DSPs Table 5 reports; the local buffers map to distributed RAM as in the
paper.
"""

from __future__ import annotations

from functools import partial
from typing import Dict

import numpy as np

from repro.ir.types import I32
from repro.hir.build import DesignBuilder
from repro.hir.types import MemrefType
from repro.kernels.base import KernelArtifacts, default_rng


def build_hir(size: int = 16) -> DesignBuilder:
    design = DesignBuilder("gemm_design")
    a_type = MemrefType((size, size), I32, port="r")
    b_type = MemrefType((size, size), I32, port="r")
    c_type = MemrefType((size, size), I32, port="w")
    load_cycles = size * size + 6
    compute_cycles = size + 8
    with design.func("gemm", [("A", a_type), ("B", b_type), ("C", c_type)]) as f:
        # A_buf: banked by row (packed along k); B_buf: banked by column.
        a_buf_r, a_buf_w = f.alloc((size, size), I32, ports=("r", "w"),
                                   packing=[0], name="A_buf")
        b_buf_r, b_buf_w = f.alloc((size, size), I32, ports=("r", "w"),
                                   packing=[1], name="B_buf")
        # Result buffer: one register per element, written by its PE.
        c_buf_r, c_buf_w = f.alloc((size, size), I32, ports=("r", "w"),
                                   packing=[], name="C_buf")

        # ---- load phase: rows of A (one interface read per cycle) -----------
        with f.unroll_for(0, size, 1, time=f.time, iter_offset=1,
                          iv_name="li") as load_row:
            f.yield_(load_row.time, offset=size)
            with f.for_loop(0, size, 1, time=load_row.time, iter_offset=0,
                            iv_name="lk") as load_k:
                element = f.mem_read(f.arg("A"), [load_row.iv, load_k.iv],
                                     time=load_k.time)
                k_delayed = f.delay(load_k.iv, 1, time=load_k.time)
                f.mem_write(element, a_buf_w, [load_row.iv, k_delayed],
                            time=load_k.time, offset=1)
                f.yield_(load_k.time, offset=1)

        # ---- load phase: columns of B (its own interface, runs concurrently) -
        with f.unroll_for(0, size, 1, time=f.time, iter_offset=1,
                          iv_name="lj") as load_col:
            f.yield_(load_col.time, offset=size)
            with f.for_loop(0, size, 1, time=load_col.time, iter_offset=0,
                            iv_name="lkb") as load_kb:
                element = f.mem_read(f.arg("B"), [load_kb.iv, load_col.iv],
                                     time=load_kb.time)
                kb_delayed = f.delay(load_kb.iv, 1, time=load_kb.time)
                f.mem_write(element, b_buf_w, [kb_delayed, load_col.iv],
                            time=load_kb.time, offset=1)
                f.yield_(load_kb.time, offset=1)

        # ---- compute phase: N x N PEs in lockstep ----------------------------
        with f.unroll_for(0, size, 1, time=f.time, iter_offset=load_cycles,
                          iv_name="pi") as pe_row:
            f.yield_(pe_row.time, offset=0)
            with f.unroll_for(0, size, 1, time=pe_row.time, iv_name="pj") as pe_col:
                f.yield_(pe_col.time, offset=0)
                acc_r, acc_w = f.alloc((1,), I32, ports=("r", "w"), packing=[],
                                       name="acc")
                f.mem_write(0, acc_w, [0], time=pe_col.time)
                with f.for_loop(0, size, 1, time=pe_col.time, iter_offset=1,
                                iv_name="k") as mac:
                    a_value = f.mem_read(a_buf_r, [pe_row.iv, mac.iv],
                                         time=mac.time)
                    b_value = f.mem_read(b_buf_r, [mac.iv, pe_col.iv],
                                         time=mac.time)
                    product = f.mult(a_value, b_value)
                    running = f.mem_read(acc_r, [0], time=mac.time, offset=1)
                    updated = f.add(product, running)
                    f.mem_write(updated, acc_w, [0], time=mac.time, offset=1)
                    f.yield_(mac.time, offset=1)
                total = f.mem_read(acc_r, [0], time=mac.done, offset=1)
                f.mem_write(total, c_buf_w, [pe_row.iv, pe_col.iv],
                            time=mac.done, offset=1)

        # ---- write-back phase: stream the result registers out ----------------
        writeback_offset = load_cycles + compute_cycles
        with f.unroll_for(0, size, 1, time=f.time, iter_offset=writeback_offset,
                          iv_name="wi") as out_row:
            f.yield_(out_row.time, offset=size)
            with f.unroll_for(0, size, 1, time=out_row.time, iv_name="wj") as out_col:
                f.yield_(out_col.time, offset=1)
                value = f.mem_read(c_buf_r, [out_row.iv, out_col.iv],
                                   time=out_col.time)
                f.mem_write(value, f.arg("C"), [out_row.iv, out_col.iv],
                            time=out_col.time)
        f.return_()
    return design


def build_hls(size: int = 16):
    """The HLS-baseline GEMM with the same parallelism as the HIR PE array.

    The paper matches the amount of unrolling between the two compilers: the
    ``i`` and ``j`` loops are fully unrolled (written out explicitly here, the
    effect of ``#pragma HLS unroll``) so every ``k`` iteration performs
    ``size*size`` multiply-accumulates, and the local buffers are partitioned
    so one row / column can be read per cycle.
    """
    from repro.hls.swir import LocalArray, Param, SwBuilder, Var

    sw = SwBuilder("gemm_hls")
    function = sw.function(
        "gemm",
        [
            Param("A", shape=(size, size), direction="in",
                  partition_factor=size),
            Param("B", shape=(size, size), direction="in",
                  partition_factor=size),
            Param("C", shape=(size, size), direction="out"),
        ],
        locals_=[
            LocalArray("A_buf", (size, size), partition_factor=size),
            LocalArray("B_buf", (size, size), partition_factor=size),
        ],
    )
    load_a = sw.for_loop("la", 0, size * size, pipeline=True, ii=1)
    load_a.body = [sw.load("va", "A", Var("la")),
                   sw.store("A_buf", Var("va"), Var("la"))]
    load_b = sw.for_loop("lb", 0, size * size, pipeline=True, ii=1)
    load_b.body = [sw.load("vb", "B", Var("lb")),
                   sw.store("B_buf", Var("vb"), Var("lb"))]
    # k loop: fully unrolled i/j bodies (size*size MACs per iteration).
    inner = sw.for_loop("k", 0, size, pipeline=True, ii=1)
    body = []
    for i in range(size):
        body.append(sw.load(f"a{i}", "A_buf", i, Var("k")))
    for j in range(size):
        body.append(sw.load(f"b{j}", "B_buf", Var("k"), j))
    for i in range(size):
        for j in range(size):
            accumulator = f"acc_{i}_{j}"
            body.append(
                sw.assign(accumulator,
                          sw.add(accumulator, sw.mul(f"a{i}", f"b{j}")))
            )
    inner.body = body
    # Write-back of the accumulator matrix.
    writeback = sw.for_loop("w", 0, size * size, pipeline=True, ii=1)
    writeback.body = [sw.store("C", Var("acc_0_0"), Var("w"))]
    function.body = [load_a, load_b, inner, writeback]
    return sw.program


def build(size: int = 16) -> KernelArtifacts:
    design = build_hir(size)
    a_type = MemrefType((size, size), I32, port="r")
    b_type = MemrefType((size, size), I32, port="r")
    c_type = MemrefType((size, size), I32, port="w")

    def make_inputs(seed: int) -> Dict[str, np.ndarray]:
        rng = default_rng(seed)
        return {
            "A": rng.integers(-50, 50, size=(size, size)),
            "B": rng.integers(-50, 50, size=(size, size)),
            "C": np.zeros((size, size), dtype=np.int64),
        }

    def reference(inputs: Dict[str, np.ndarray]) -> Dict[str, np.ndarray]:
        a = np.asarray(inputs["A"], dtype=np.int64)
        b = np.asarray(inputs["B"], dtype=np.int64)
        return {"C": a @ b}

    return KernelArtifacts(
        name="gemm",
        module=design.module,
        top="gemm",
        interfaces={"A": a_type, "B": b_type, "C": c_type},
        hls_builder=partial(build_hls, size),
        hls_function="gemm",
        make_inputs=make_inputs,
        reference=reference,
        notes=(f"{size}x{size} integer GEMM on a {size}x{size} lockstep PE "
               "array; banked distributed-RAM input buffers, MAC loops "
               "pipelined at II=1, staggered write-back"),
    )
