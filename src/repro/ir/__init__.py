"""MLIR-like IR core: the substrate the HIR dialect is built on.

This package provides SSA values, operations, regions, blocks, attributes,
types, a round-trippable textual format, a structural verifier and a pass
manager.  It substitutes for the MLIR C++ infrastructure the paper builds on.
"""

from repro.ir.attributes import (
    ArrayAttr,
    Attribute,
    BoolAttr,
    FloatAttr,
    IntegerAttr,
    StringAttr,
    SymbolRefAttr,
    TypeAttr,
    attr,
    int_of,
    ints_of,
)
from repro.ir.analysis import (
    AnalysisManager,
    DefUseInfo,
    LevelizationInfo,
    LoopInfo,
    PRESERVE_ALL,
    register_analysis,
    registered_analyses,
)
from repro.ir.block import Block
from repro.ir.builder import Builder, InsertionPoint
from repro.ir.errors import (
    HLSError,
    IRError,
    LoweringError,
    ParseError,
    ScheduleError,
    SimulationError,
    VerificationError,
)
from repro.ir.location import Location
from repro.ir.module import ModuleOp
from repro.ir.operation import (
    Operation,
    create_operation,
    register_operation,
    registered_operation,
    registered_operations,
)
from repro.ir.pass_manager import Pass, PassManager, PassTiming
from repro.ir.parser import parse_module, register_dialect_type_parser
from repro.ir.printer import print_module, print_op
from repro.ir.region import Region
from repro.ir.rewriter import PatternRewriter, RewritePattern, apply_patterns
from repro.ir.types import (
    F32,
    F64,
    I1,
    I8,
    I16,
    I32,
    I64,
    INDEX,
    NONE,
    FloatType,
    FunctionType,
    IndexType,
    IntegerType,
    NoneType,
    Type,
    i,
)
from repro.ir.values import BlockArgument, OpResult, Use, Value
from repro.ir.verifier import Verifier, collect_errors, verify

__all__ = [
    "AnalysisManager", "DefUseInfo", "LevelizationInfo", "LoopInfo",
    "PRESERVE_ALL", "register_analysis", "registered_analyses",
    "ArrayAttr", "Attribute", "BoolAttr", "FloatAttr", "IntegerAttr",
    "StringAttr", "SymbolRefAttr", "TypeAttr", "attr", "int_of", "ints_of",
    "Block", "Builder", "InsertionPoint",
    "PatternRewriter", "RewritePattern", "apply_patterns",
    "HLSError", "IRError", "LoweringError", "ParseError", "ScheduleError",
    "SimulationError", "VerificationError",
    "Location", "ModuleOp",
    "Operation", "create_operation", "register_operation",
    "registered_operation", "registered_operations",
    "Pass", "PassManager", "PassTiming",
    "parse_module", "register_dialect_type_parser",
    "print_module", "print_op",
    "Region",
    "F32", "F64", "I1", "I8", "I16", "I32", "I64", "INDEX", "NONE",
    "FloatType", "FunctionType", "IndexType", "IntegerType", "NoneType",
    "Type", "i",
    "BlockArgument", "OpResult", "Use", "Value",
    "Verifier", "collect_errors", "verify",
]
