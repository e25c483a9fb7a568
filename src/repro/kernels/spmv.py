"""Sparse matrix-vector multiplication, ELLPACK format (new workload).

The matrix is stored ELL-style: ``values[i, k]`` holds the k-th nonzero of
row ``i`` and ``cols[i, k]`` its column, with every row padded to the same
``nnz`` nonzeros (padding entries have value 0).  The kernel combines the
histogram kernel's data-dependent addressing — the loaded column index
addresses the dense vector — with the matvec kernel's read-modify-write
accumulator; the address indirection stretches the update recurrence to
II = 3.  A flush loop streams the accumulator out at II = 1.
"""

from __future__ import annotations

from functools import partial
from typing import Dict

import numpy as np

from repro.ir.types import I32
from repro.hir.build import DesignBuilder
from repro.hir.types import MemrefType
from repro.kernels.base import KernelArtifacts, default_rng


def build_hir(rows: int = 16, nnz: int = 4) -> DesignBuilder:
    design = DesignBuilder("spmv_design")
    values_type = MemrefType((rows, nnz), I32, port="r")
    cols_type = MemrefType((rows, nnz), I32, port="r")
    x_type = MemrefType((rows,), I32, port="r")
    y_type = MemrefType((rows,), I32, port="w")
    with design.func("spmv", [("vals", values_type), ("cols", cols_type),
                              ("x", x_type), ("y", y_type)]) as f:
        acc_r, acc_w = f.alloc((rows,), I32, ports=("r", "w"),
                               mem_kind="bram", name="acc")
        with f.for_loop(0, rows, 1, time=f.time, iter_offset=1,
                        iv_name="i") as row:
            with f.for_loop(0, nnz, 1, time=row.time, iter_offset=1,
                            iv_name="k") as mac:
                column = f.mem_read(f.arg("cols"), [row.iv, mac.iv],
                                    time=mac.time)
                value = f.mem_read(f.arg("vals"), [row.iv, mac.iv],
                                   time=mac.time)
                # The loaded column addresses the dense vector (indirection).
                x_value = f.mem_read(f.arg("x"), [column], time=mac.time,
                                     offset=1)
                value_delayed = f.delay(value, 1, time=mac.time, offset=1)
                product = f.mult(value_delayed, x_value)
                running = f.mem_read(acc_r, [row.iv], time=mac.time, offset=1)
                accumulated = f.add(product, running)
                k_delayed = f.delay(mac.iv, 2, time=mac.time)
                first = f.cmp("eq", k_delayed, 0)
                updated = f.select(first, product, accumulated)
                f.mem_write(updated, acc_w, [row.iv], time=mac.time, offset=2)
                f.yield_(mac.time, offset=3)
            f.yield_(mac.done, offset=1)
        with f.for_loop(0, rows, 1, time=row.done, iter_offset=1,
                        iv_name="o") as flush:
            value = f.mem_read(acc_r, [flush.iv], time=flush.time)
            index_delayed = f.delay(flush.iv, 1, time=flush.time)
            f.mem_write(value, f.arg("y"), [index_delayed], time=flush.time,
                        offset=1)
            f.yield_(flush.time, offset=1)
        f.return_()
    return design


def build_hls(rows: int = 16, nnz: int = 4):
    from repro.hls.swir import LocalArray, Param, SwBuilder, Var

    sw = SwBuilder("spmv_hls")
    function = sw.function(
        "spmv",
        [
            Param("vals", shape=(rows, nnz), direction="in"),
            Param("cols", shape=(rows, nnz), direction="in"),
            Param("x", shape=(rows,), direction="in"),
            Param("y", shape=(rows,), direction="out"),
        ],
        locals_=[LocalArray("acc_buf", (rows,))],
    )
    inner = sw.for_loop("k", 0, nnz, pipeline=True)
    inner.body = [
        sw.load("c", "cols", Var("i"), Var("k")),
        sw.load("v", "vals", Var("i"), Var("k")),
        sw.load("xv", "x", Var("c")),
        sw.load("run", "acc_buf", Var("i")),
        sw.assign("upd", sw.add(sw.mul("v", "xv"), "run")),
        sw.store("acc_buf", Var("upd"), Var("i")),
    ]
    outer = sw.for_loop("i", 0, rows)
    outer.body = [sw.store("acc_buf", 0, Var("i")), inner]
    flush = sw.for_loop("o", 0, rows, pipeline=True, ii=1)
    flush.body = [
        sw.load("val", "acc_buf", Var("o")),
        sw.store("y", Var("val"), Var("o")),
    ]
    function.body = [outer, flush]
    return sw.program


def build(rows: int = 16, nnz: int = 4) -> KernelArtifacts:
    design = build_hir(rows, nnz)
    values_type = MemrefType((rows, nnz), I32, port="r")
    cols_type = MemrefType((rows, nnz), I32, port="r")
    x_type = MemrefType((rows,), I32, port="r")
    y_type = MemrefType((rows,), I32, port="w")

    def make_inputs(seed: int) -> Dict[str, np.ndarray]:
        rng = default_rng(seed)
        return {
            "vals": rng.integers(-20, 20, size=(rows, nnz)),
            "cols": rng.integers(0, rows, size=(rows, nnz)),
            "x": rng.integers(-20, 20, size=(rows,)),
            "y": np.zeros((rows,), dtype=np.int64),
        }

    def reference(inputs: Dict[str, np.ndarray]) -> Dict[str, np.ndarray]:
        values = np.asarray(inputs["vals"], dtype=np.int64)
        columns = np.asarray(inputs["cols"], dtype=np.int64)
        x = np.asarray(inputs["x"], dtype=np.int64)
        return {"y": (values * x[columns]).sum(axis=1)}

    return KernelArtifacts(
        name="spmv",
        module=design.module,
        top="spmv",
        interfaces={"vals": values_type, "cols": cols_type,
                    "x": x_type, "y": y_type},
        hls_builder=partial(build_hls, rows, nnz),
        hls_function="spmv",
        make_inputs=make_inputs,
        reference=reference,
        notes=(f"{rows}-row ELL SpMV with {nnz} nonzeros per row; "
               "column-indirect vector gather, accumulator RMW at II=3"),
    )
