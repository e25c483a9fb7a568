"""PEP 562 lazy re-exports for the package ``__init__`` modules.

A package's namespace names what it offers without importing it: each name
imports its defining module on first access.  So importing one submodule
(say ``repro.ir.errors``) runs no other module of its package, and a
process imports only what it runs.
"""

from __future__ import annotations

import importlib
import sys
from typing import Callable, Dict, List, Mapping, Sequence, Tuple


def lazy_exports(package: str, exports: Mapping[str, Sequence[str]]
                 ) -> Tuple[Callable[[str], object], Callable[[], List[str]],
                            List[str]]:
    """``(__getattr__, __dir__, __all__)`` for ``package``, which re-exports
    the listed names of each module in ``exports`` (module -> names)."""
    origin: Dict[str, str] = {name: module
                              for module, names in exports.items()
                              for name in names}
    namespace = sys.modules[package].__dict__

    def __getattr__(name: str) -> object:
        module = origin.get(name)
        if module is None:
            raise AttributeError(
                f"module {package!r} has no attribute {name!r}")
        value = getattr(importlib.import_module(module), name)
        namespace[name] = value  # cache: the next access skips __getattr__
        return value

    def __dir__() -> List[str]:
        return sorted(set(namespace) | set(origin))

    return __getattr__, __dir__, sorted(origin)
