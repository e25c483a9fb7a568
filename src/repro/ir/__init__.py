"""MLIR-like IR core: the substrate the HIR dialect is built on.

This package provides SSA values, operations, regions, blocks, attributes,
types, a round-trippable textual format, a structural verifier and a pass
manager.  It substitutes for the MLIR C++ infrastructure the paper builds on.
The names below are re-exported lazily: importing one submodule (say
``repro.ir.errors``) loads neither the parser nor the pass manager.
"""

from repro._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    "repro.ir.attributes": ("ArrayAttr", "Attribute", "BoolAttr", "FloatAttr",
                            "IntegerAttr", "StringAttr", "SymbolRefAttr",
                            "TypeAttr", "attr", "int_of", "ints_of"),
    "repro.ir.block": ("Block",),
    "repro.ir.builder": ("Builder", "InsertionPoint"),
    "repro.ir.errors": ("HLSError", "IRError", "LoweringError", "ParseError",
                        "ScheduleError", "SimulationError",
                        "VerificationError"),
    "repro.ir.location": ("Location",),
    "repro.ir.module": ("ModuleOp",),
    "repro.ir.operation": ("Operation", "create_operation",
                           "register_operation", "registered_operation",
                           "registered_operations"),
    "repro.ir.parser": ("parse_module",),
    "repro.ir.pass_manager": ("Pass", "PassManager", "PassTiming"),
    "repro.ir.printer": ("print_module", "print_op"),
    "repro.ir.region": ("Region",),
    "repro.ir.rewriter": ("PatternRewriter", "RewritePattern",
                          "apply_patterns"),
    "repro.ir.types": ("F32", "F64", "I1", "I8", "I16", "I32", "I64", "INDEX",
                       "NONE", "FloatType", "FunctionType", "IndexType",
                       "IntegerType", "NoneType", "Type", "i",
                       "register_dialect_type_parser"),
    "repro.ir.values": ("BlockArgument", "OpResult", "Use", "Value"),
    "repro.ir.verifier": ("Verifier", "collect_errors", "verify"),
})
