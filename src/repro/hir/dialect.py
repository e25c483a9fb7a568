"""HIR dialect registration.

Importing this module (or :mod:`repro.hir`) registers

* every HIR operation class with the generic op registry (done by the
  ``@register_operation`` decorators in :mod:`repro.hir.ops`), and
* the ``!hir.*`` type parser with the textual parser, so modules printed in
  generic form round-trip (the registry lives in :mod:`repro.ir.types`, so
  registering does not load the parser).
"""

from __future__ import annotations

from typing import Optional

from repro.ir.errors import ParseError
from repro.ir.types import Type, register_dialect_type_parser
from repro.hir import ops as _ops  # noqa: F401 - imported for registration side effects
from repro.hir.types import CONST, TIME, parse_memref_body

DIALECT_NAME = "hir"


def _parse_hir_type(mnemonic: str, body: Optional[str]) -> Type:
    if mnemonic == "const":
        return CONST
    if mnemonic == "time":
        return TIME
    if mnemonic == "memref":
        if body is None:
            raise ParseError("!hir.memref requires a <...> body")
        return parse_memref_body(body)
    raise ParseError(f"unknown HIR type !hir.{mnemonic}")


def register_dialect() -> None:
    """Register the HIR dialect with the core IR infrastructure."""
    register_dialect_type_parser(DIALECT_NAME, _parse_hir_type)


register_dialect()
