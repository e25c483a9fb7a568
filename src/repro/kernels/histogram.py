"""Histogram of an image (Table 5 and 6 of the paper).

The kernel demonstrates data-dependent memory accesses: the pixel value read
from the image addresses the on-chip histogram buffer (a block RAM), which is
read, incremented and written back.  The read-modify-write recurrence forces
an initiation interval of three on the update loop; the clear and write-back
loops are pipelined at II=1.
"""

from __future__ import annotations

from functools import partial
from typing import Dict

import numpy as np

from repro.ir.types import I32
from repro.hir.build import DesignBuilder
from repro.hir.types import MemrefType
from repro.kernels.base import KernelArtifacts, default_rng


def build_hir(pixels: int = 256, bins: int = 256) -> DesignBuilder:
    design = DesignBuilder("histogram_design")
    image_type = MemrefType((pixels,), I32, port="r")
    out_type = MemrefType((bins,), I32, port="w")
    with design.func("histogram", [("img", image_type), ("hist", out_type)]) as f:
        local_r, local_w = f.alloc((bins,), I32, ports=("r", "w"),
                                   mem_kind="bram", name="bins")
        # Phase 1: clear the local histogram (II = 1).
        with f.for_loop(0, bins, 1, time=f.time, iter_offset=1,
                        iv_name="b") as clear:
            f.mem_write(0, local_w, [clear.iv], time=clear.time)
            f.yield_(clear.time, offset=1)
        # Phase 2: accumulate (II = 3 because of the read-modify-write).
        with f.for_loop(0, pixels, 1, time=clear.done, iter_offset=2,
                        iv_name="p") as update:
            pixel = f.mem_read(f.arg("img"), [update.iv], time=update.time)
            count = f.mem_read(local_r, [pixel], time=update.time, offset=1)
            incremented = f.add(count, 1)
            pixel_delayed = f.delay(pixel, 1, time=update.time, offset=1)
            f.mem_write(incremented, local_w, [pixel_delayed], time=update.time,
                        offset=2)
            f.yield_(update.time, offset=3)
        # Phase 3: write the final histogram to the output interface (II = 1).
        with f.for_loop(0, bins, 1, time=update.done, iter_offset=2,
                        iv_name="o") as flush:
            value = f.mem_read(local_r, [flush.iv], time=flush.time)
            index_delayed = f.delay(flush.iv, 1, time=flush.time)
            f.mem_write(value, f.arg("hist"), [index_delayed], time=flush.time,
                        offset=1)
            f.yield_(flush.time, offset=1)
        f.return_()
    return design


def build_hls(pixels: int = 256, bins: int = 256):
    from repro.hls.swir import Param, LocalArray, SwBuilder, Var

    sw = SwBuilder("histogram_hls")
    function = sw.function(
        "histogram",
        [
            Param("img", shape=(pixels,), direction="in"),
            Param("hist", shape=(bins,), direction="out"),
        ],
        locals_=[LocalArray("bins_buf", (bins,))],
    )
    clear = sw.for_loop("b", 0, bins, pipeline=True, ii=1)
    clear.body = [sw.store("bins_buf", 0, Var("b"))]
    update = sw.for_loop("p", 0, pixels, pipeline=True)
    update.body = [
        sw.load("pix", "img", Var("p")),
        sw.load("cnt", "bins_buf", Var("pix")),
        sw.assign("cnt1", sw.add("cnt", 1)),
        sw.store("bins_buf", Var("cnt1"), Var("pix")),
    ]
    flush = sw.for_loop("o", 0, bins, pipeline=True, ii=1)
    flush.body = [
        sw.load("val", "bins_buf", Var("o")),
        sw.store("hist", Var("val"), Var("o")),
    ]
    function.body = [clear, update, flush]
    return sw.program


def build(pixels: int = 256, bins: int = 256) -> KernelArtifacts:
    design = build_hir(pixels, bins)
    image_type = MemrefType((pixels,), I32, port="r")
    out_type = MemrefType((bins,), I32, port="w")

    def make_inputs(seed: int) -> Dict[str, np.ndarray]:
        rng = default_rng(seed)
        return {"img": rng.integers(0, bins, size=(pixels,)),
                "hist": np.zeros((bins,), dtype=np.int64)}

    def reference(inputs: Dict[str, np.ndarray]) -> Dict[str, np.ndarray]:
        counts = np.bincount(np.asarray(inputs["img"], dtype=np.int64),
                             minlength=bins)[:bins]
        return {"hist": counts.astype(np.int64)}

    return KernelArtifacts(
        name="histogram",
        module=design.module,
        top="histogram",
        interfaces={"img": image_type, "hist": out_type},
        hls_builder=partial(build_hls, pixels, bins),
        hls_function="histogram",
        make_inputs=make_inputs,
        reference=reference,
        notes=(f"{pixels}-pixel histogram with {bins} bins in one block RAM; "
               "data-dependent addressing; update loop II=3"),
    )
