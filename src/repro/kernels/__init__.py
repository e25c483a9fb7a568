"""Benchmark kernels of the paper's evaluation (Section 8).

``KERNEL_BUILDERS`` maps kernel names to their ``build`` functions; each
returns a :class:`~repro.kernels.base.KernelArtifacts` with the HIR design,
the matching HLS-baseline program, reference models and input generators.
Out-of-tree kernels plug into the same registry via :func:`register_kernel`,
which makes them visible to :meth:`repro.flow.Flow.from_kernel`, the
``python -m repro`` CLI and the evaluation harness alike.  A built-in
kernel's module is imported when the kernel is first built.
"""

from __future__ import annotations

import importlib
from typing import TYPE_CHECKING, Any, Callable, Dict, List

from repro._lazy import lazy_exports

if TYPE_CHECKING:
    from repro.kernels.base import KernelArtifacts

__getattr__, __dir__ = lazy_exports(__name__, {
    "repro.kernels.base": ("KernelArtifacts", "default_rng"),
})[:2]


def _builtin(module: str) -> Callable[..., KernelArtifacts]:
    """The ``build`` of ``repro.kernels.<module>``, imported on first call,
    so listing the kernels or building one loads no other kernel."""
    def build(**parameters: Any) -> KernelArtifacts:
        kernel = importlib.import_module(f"{__name__}.{module}")
        return kernel.build(**parameters)

    return build


KERNEL_BUILDERS: Dict[str, Callable[..., KernelArtifacts]] = {
    "transpose": _builtin("transpose"),
    "stencil_1d": _builtin("stencil1d"),
    "histogram": _builtin("histogram"),
    "gemm": _builtin("gemm"),
    "convolution": _builtin("convolution"),
    "fifo": _builtin("fifo"),
    # New workloads (beyond the paper's six), composable via repro.graph.
    "matvec": _builtin("matvec"),
    "prefix_sum": _builtin("prefix_sum"),
    "spmv": _builtin("spmv"),
    "sorting_network": _builtin("sorting_network"),
}


class UnknownKernelError(KeyError):
    """An unregistered kernel name, with the registry spelled out.

    Subclasses :class:`KeyError` so pre-existing ``except KeyError`` callers
    keep working.
    """

    def __init__(self, name: str) -> None:
        self.kernel = name
        message = (
            f"unknown kernel {name!r}; registered kernels: "
            f"{', '.join(sorted(KERNEL_BUILDERS))}. Out-of-tree kernels can "
            "be added with repro.kernels.register_kernel(name, builder)."
        )
        super().__init__(message)

    def __str__(self) -> str:  # KeyError would repr() the message
        return self.args[0]


def register_kernel(name: str,
                    builder: Callable[..., KernelArtifacts],
                    *, overwrite: bool = False,
                    ) -> Callable[..., KernelArtifacts]:
    """Register an out-of-tree kernel builder under ``name``.

    ``builder(**parameters)`` must return a :class:`KernelArtifacts`.  The
    kernel then works everywhere a built-in one does: ``build_kernel``,
    ``Flow.from_kernel``, the CLI and the validation sweep.  Returns the
    builder, so it can be used as a decorator::

        @partial(register_kernel, "fir")
        def build_fir(taps=8): ...
    """
    if not callable(builder):
        raise TypeError(f"kernel builder for {name!r} must be callable")
    if name in KERNEL_BUILDERS and not overwrite:
        raise ValueError(
            f"kernel {name!r} is already registered; pass overwrite=True to "
            "replace it"
        )
    KERNEL_BUILDERS[name] = builder
    return builder


def unregister_kernel(name: str) -> None:
    """Remove a kernel from the registry (mainly for tests)."""
    KERNEL_BUILDERS.pop(name, None)


def build_kernel(name: str, **parameters) -> KernelArtifacts:
    """Build one kernel by name with optional size parameters."""
    builder = KERNEL_BUILDERS.get(name)
    if builder is None:
        raise UnknownKernelError(name)
    return builder(**parameters)


def kernel_names() -> List[str]:
    return list(KERNEL_BUILDERS)


__all__ = [
    "KERNEL_BUILDERS",
    "KernelArtifacts",
    "UnknownKernelError",
    "build_kernel",
    "default_rng",
    "kernel_names",
    "register_kernel",
    "unregister_kernel",
    "convolution",
    "fifo",
    "gemm",
    "histogram",
    "matvec",
    "prefix_sum",
    "sorting_network",
    "spmv",
    "stencil1d",
    "transpose",
]
