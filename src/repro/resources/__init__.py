"""FPGA resource model: LUT / FF / DSP / BRAM estimation of generated Verilog.

:func:`estimate_resources` charges a :class:`~repro.verilog.ast.Design` with
the per-construct costs documented in :mod:`repro.resources.model` and
returns a rounded :class:`ResourceReport`.
"""

from repro.resources.model import (
    BRAM_THRESHOLD_BITS,
    BRAM_TILE_BITS,
    ResourceReport,
    estimate_resources,
)

__all__ = [
    "BRAM_THRESHOLD_BITS",
    "BRAM_TILE_BITS",
    "ResourceReport",
    "estimate_resources",
]
