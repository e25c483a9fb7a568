"""Specialize a lowered netlist into generated-Python step functions.

Instead of walking the Verilog AST for every signal on every cycle (what the
interpreted :class:`~repro.sim.verilog_sim.Simulator` does), the compiled
engines translate each continuous assignment and each clocked block *once*
into straight-line Python source, with constant-folded subexpressions and bit
masks baked in as literals, and ``exec`` the result.  Two dialects are
generated from the same AST:

* **scalar** — plain Python ints, exactly the interpreter's arithmetic; used
  by :class:`~repro.sim.engine.compiled.CompiledSimulator`.
* **vector** — numpy ``int64`` lane arrays with predicated conditionals; used
  by :class:`~repro.sim.engine.batch.BatchedSimulator` to run N independent
  stimulus sets per step function call.

Thousands of the scalar step functions are copies of a handful of bodies
that differ only in the slots and memories they touch (a GEMM's
multiply-accumulate cells).  So the per-assignment step functions
(:func:`comb_source`) and the fused run's clocked processes
(:func:`repro.sim.engine.vector.vector_run_source`) are generated as
*shapes*: each distinct body once, with its slot and memory indices as
trailing parameters, plus an instance table holding one ``shape id,
indices...`` row per function.  The ``compile_*`` functions compile only the
shapes and build every function from its shape's code object with the row's
indices as parameter defaults (:func:`instantiate`), which run as fast
locals.  The single-function programs (:func:`clock_source` and the vector
dialect) keep their indices as literals.  :func:`compile_comb` needs only the
step count besides the module, so a warm store loads the step functions with
the count from the fused run's simulator image
(:mod:`repro.sim.engine.vector`), without a lowered design.

Deep expression trees (wide result multiplexers, ``or_reduce`` chains) would
overflow CPython's parser nesting limit if rendered as one expression, so the
compiler spills subtrees into temporaries once a tree passes
``MAX_INLINE_DEPTH``; scalar mux chains additionally linearize into flat
``if``/``elif`` ladders, which keeps the interpreter's lazy short-circuit
behaviour.  Every expression is pure (memory reads are bounds-checked), so
spilled evaluation order cannot change results.

The generated code reproduces the interpreter's semantics bit for bit:
intermediate values are unmasked (masks apply at assignment boundaries only),
out-of-bounds memory reads return 0 and out-of-bounds writes are dropped.
"""

from __future__ import annotations

from types import CodeType, FunctionType
from typing import Callable, Dict, List, Optional, Tuple, Union

import numpy as np

from repro.ir.errors import SimulationError
from repro.sim.engine.levelize import LoweredDesign
from repro.verilog.ast import (
    BinOp,
    Const,
    Expr,
    If,
    MemIndex,
    MemWrite,
    NonBlockingAssign,
    Ref,
    Statement,
    Ternary,
    UnOp,
)

_ARITH_OPS = {"+", "-", "*", "&", "|", "^", "<<", ">>"}
_COMPARE_OPS = {"==", "!=", "<", "<=", ">", ">="}

#: Expression trees deeper than this are spilled into temporaries so the
#: generated source stays within CPython's parser nesting limits.
MAX_INLINE_DEPTH = 24


def _apply_scalar(op: str, lhs: int, rhs: int) -> int:
    """The interpreter's binary-operator semantics, for constant folding."""
    if op in _ARITH_OPS:
        return {
            "+": lhs + rhs, "-": lhs - rhs, "*": lhs * rhs,
            "&": lhs & rhs, "|": lhs | rhs, "^": lhs ^ rhs,
            "<<": lhs << rhs, ">>": lhs >> rhs,
        }[op]
    if op in _COMPARE_OPS:
        return int({
            "==": lhs == rhs, "!=": lhs != rhs, "<": lhs < rhs,
            "<=": lhs <= rhs, ">": lhs > rhs, ">=": lhs >= rhs,
        }[op])
    if op == "&&":
        return int(bool(lhs) and bool(rhs))
    raise SimulationError(f"unknown binary operator {op!r}")


def fold_expr(expr: Expr,
              cache: Optional[Dict[int, Optional[int]]] = None) -> Optional[int]:
    """Fold an expression to a constant, or None if it reads live state.

    ``cache`` memoizes results by node identity; the compiler threads one
    through so repeated folding queries over deep shared trees stay linear.
    """
    if cache is not None and id(expr) in cache:
        return cache[id(expr)]
    result: Optional[int] = None
    if isinstance(expr, Const):
        result = expr.value & ((1 << expr.width) - 1)
    elif isinstance(expr, UnOp):
        value = fold_expr(expr.operand, cache)
        if value is not None:
            if expr.op == "!":
                result = 0 if value else 1
            elif expr.op == "~":
                result = ~value
            elif expr.op == "-":
                result = -value
            elif expr.op == "|":
                result = 1 if value else 0
            else:
                raise SimulationError(f"unknown unary operator {expr.op!r}")
    elif isinstance(expr, BinOp):
        lhs = fold_expr(expr.lhs, cache)
        rhs = fold_expr(expr.rhs, cache)
        if lhs is not None and rhs is not None:
            result = _apply_scalar(expr.op, lhs, rhs)
    elif isinstance(expr, Ternary):
        condition = fold_expr(expr.condition, cache)
        if condition is not None:
            # Lazy, like the interpreter: fold only the branch that is taken.
            result = fold_expr(
                expr.true_value if condition else expr.false_value, cache)
    if cache is not None:
        cache[id(expr)] = result
    return result


class _SourceBuilder:
    def __init__(self) -> None:
        self.lines: List[str] = []

    def emit(self, indent: int, text: str) -> None:
        self.lines.append("    " * indent + text)

    def source(self) -> str:
        return "\n".join(self.lines) + "\n"


class ExprCompiler:
    """Compile expression trees to Python source (scalar or vector dialect).

    ``expression(expr, builder, indent)`` returns a source fragment for
    ``expr``; deep subtrees are spilled as temporary-variable statements
    emitted through ``builder`` at the given indentation.  With ``shaped``,
    slot and memory indices are not literals but the current function's
    parameters ``_0``, ``_1``, ... (see :meth:`index`), so structurally equal
    functions generate equal text.
    """

    def __init__(self, lowered: LoweredDesign, vector: bool = False,
                 shaped: bool = False) -> None:
        self.lowered = lowered
        self.vector = vector
        self._depths: Dict[int, int] = {}
        self._folds: Dict[int, Optional[int]] = {}
        self._temp_count = 0
        self._params: Optional[Dict[Tuple[str, int], str]] = \
            {} if shaped else None

    # -- helpers -----------------------------------------------------------------
    def _children(self, expr: Expr) -> List[Expr]:
        if isinstance(expr, UnOp):
            return [expr.operand]
        if isinstance(expr, BinOp):
            return [expr.lhs, expr.rhs]
        if isinstance(expr, Ternary):
            return [expr.condition, expr.true_value, expr.false_value]
        if isinstance(expr, MemIndex):
            return [expr.address]
        return []

    def _depth(self, expr: Expr) -> int:
        cached = self._depths.get(id(expr))
        if cached is None:
            cached = 1 + max((self._depth(child)
                              for child in self._children(expr)), default=0)
            self._depths[id(expr)] = cached
        return cached

    def _temp(self) -> str:
        self._temp_count += 1
        return f"_t{self._temp_count}"

    def new_scope(self) -> None:
        """Start a new generated function: reset temporary numbering and,
        when ``shaped``, the index parameters."""
        self._temp_count = 0
        if self._params is not None:
            self._params = {}

    def index(self, space: str, value: int) -> str:
        """Source for slot (``space="v"``) or memory (``"m"``) index
        ``value``: the literal, or when ``shaped`` the parameter that holds
        it (one parameter per distinct index, numbered in order of use)."""
        params = self._params
        if params is None:
            return str(value)
        name = params.get((space, value))
        if name is None:
            name = params[space, value] = f"_{len(params)}"
        return name

    def parameters(self) -> List[int]:
        """The current function's index parameter values, in order."""
        return [value for _space, value in self._params]

    # -- expression compilation ---------------------------------------------------
    def expression(self, expr: Expr, builder: _SourceBuilder,
                   indent: int) -> str:
        folded = fold_expr(expr, self._folds)
        if folded is not None:
            return repr(folded)
        if isinstance(expr, Ref):
            return f"v[{self.index('v', self.lowered.slots.slot(expr.name))}]"

        deep = self._depth(expr) > MAX_INLINE_DEPTH
        if deep and isinstance(expr, Ternary) and not self.vector:
            return self._ternary_ladder(expr, builder, indent)

        def child(sub: Expr) -> str:
            source = self.expression(sub, builder, indent)
            trivial = (source.startswith("_t") or source.startswith("v[")
                       or source.lstrip("-").isdigit())
            if deep and not trivial:
                name = self._temp()
                builder.emit(indent, f"{name} = {source}")
                return name
            return source

        if isinstance(expr, UnOp):
            operand = child(expr.operand)
            if self.vector:
                if expr.op == "!":
                    return f"(({operand}) == 0).astype(_np.int64)"
                if expr.op == "|":
                    return f"(({operand}) != 0).astype(_np.int64)"
            else:
                if expr.op == "!":
                    return f"(0 if {operand} else 1)"
                if expr.op == "|":
                    return f"(1 if {operand} else 0)"
            if expr.op == "~":
                return f"(~({operand}))"
            if expr.op == "-":
                return f"(-({operand}))"
            raise SimulationError(f"unknown unary operator {expr.op!r}")
        if isinstance(expr, BinOp):
            lhs = child(expr.lhs)
            rhs = child(expr.rhs)
            if expr.op in _ARITH_OPS:
                return f"(({lhs}) {expr.op} ({rhs}))"
            if expr.op in _COMPARE_OPS:
                if self.vector:
                    return f"(({lhs}) {expr.op} ({rhs})).astype(_np.int64)"
                return f"(1 if ({lhs}) {expr.op} ({rhs}) else 0)"
            if expr.op == "&&":
                if self.vector:
                    return (f"((({lhs}) != 0) & (({rhs}) != 0))"
                            ".astype(_np.int64)")
                return f"(1 if (({lhs}) and ({rhs})) else 0)"
            raise SimulationError(f"unknown binary operator {expr.op!r}")
        if isinstance(expr, Ternary):
            folded_condition = fold_expr(expr.condition, self._folds)
            if folded_condition is not None:
                branch = expr.true_value if folded_condition else expr.false_value
                return self.expression(branch, builder, indent)
            condition = child(expr.condition)
            true_value = child(expr.true_value)
            false_value = child(expr.false_value)
            if self.vector:
                return (f"_np.where(({condition}) != 0, ({true_value}), "
                        f"({false_value}))")
            return f"(({true_value}) if ({condition}) else ({false_value}))"
        if isinstance(expr, MemIndex):
            mem_index = self.lowered.mem_of.get(expr.memory)
            if mem_index is None:
                # The interpreter would KeyError at runtime; surface a clear
                # compile-time diagnostic instead.
                raise SimulationError(
                    f"expression reads undeclared memory '{expr.memory}'"
                )
            address = child(expr.address)
            helper = "_mrv" if self.vector else "_mr"
            return f"{helper}(m[{self.index('m', mem_index)}], ({address}))"
        raise SimulationError(f"cannot compile expression {expr!r}")

    def _ternary_ladder(self, expr: Expr, builder: _SourceBuilder,
                        indent: int) -> str:
        """Linearize a right-nested mux chain into a flat if/elif ladder.

        Preserves the interpreter's lazy branch evaluation (only the selected
        arm's value is computed) while keeping nesting depth constant.
        """
        arms: List[Tuple[Expr, Expr]] = []
        node: Expr = expr
        while isinstance(node, Ternary) and fold_expr(node.condition, self._folds) is None:
            arms.append((node.condition, node.true_value))
            node = node.false_value
        if isinstance(node, Ternary):  # constant condition: take that branch
            folded_condition = fold_expr(node.condition, self._folds)
            node = node.true_value if folded_condition else node.false_value
        if not arms:
            return self.expression(node, builder, indent)
        result = self._temp()
        # Conditions are evaluated eagerly (they are pure); arm values stay
        # lazy inside their branch bodies.
        conditions = [self.expression(condition, builder, indent)
                      for condition, _ in arms]
        for index, ((_, value), condition) in enumerate(zip(arms, conditions)):
            keyword = "if" if index == 0 else "elif"
            builder.emit(indent, f"{keyword} ({condition}):")
            value_source = self.expression(value, builder, indent + 1)
            builder.emit(indent + 1, f"{result} = {value_source}")
        builder.emit(indent, "else:")
        default_source = self.expression(node, builder, indent + 1)
        builder.emit(indent + 1, f"{result} = {default_source}")
        return result


# --------------------------------------------------------------------------- #
# Runtime helpers injected into the generated module's globals
# --------------------------------------------------------------------------- #


def _mr(memory: List[int], address: int) -> int:
    """Scalar memory read with the interpreter's out-of-bounds-is-0 rule."""
    if 0 <= address < len(memory):
        return memory[address]
    return 0


def _mrv(memory: np.ndarray, address) -> np.ndarray:
    """Vector (per-lane) memory gather; out-of-bounds lanes read 0."""
    lanes, depth = memory.shape
    address = np.broadcast_to(np.asarray(address, dtype=np.int64), (lanes,))
    valid = (address >= 0) & (address < depth)
    safe = np.where(valid, address, 0)
    return np.where(valid, memory[np.arange(lanes), safe], 0)


def _truth(value) -> np.ndarray:
    """Per-lane truth of a condition value (scalar or lane array)."""
    return np.asarray(value) != 0


def _nba(updates: Dict[int, object], v: List[object], slot: int, predicate,
         value) -> None:
    """Predicated non-blocking assignment for the vector dialect.

    Later writes win (dict semantics, like the interpreter's reg_updates);
    disabled lanes keep the previous pending value or the pre-edge value.
    """
    if predicate is None:
        updates[slot] = value
        return
    previous = updates.get(slot, v[slot])
    updates[slot] = np.where(predicate, value, previous)


# --------------------------------------------------------------------------- #
# Whole-netlist compilation
# --------------------------------------------------------------------------- #


def load_module(source: Union[str, CodeType],
                **bindings: object) -> Tuple[CodeType, dict]:
    """``(code, namespace)``: ``source`` compiled (unless it already is a
    code object) and executed under the runtime helpers every generated
    module calls, plus ``bindings``.

    Only the ``compile_*`` functions (these three and
    :func:`repro.sim.engine.vector.compile_vector_run`) call it; they return
    the code object beside their callables so the compile cache can persist
    it (:mod:`repro.store` kind ``simcode``).
    """
    code = (source if isinstance(source, CodeType)
            else compile(source, "<string>", "exec"))
    namespace = {"_mr": _mr, "_mrv": _mrv, "_truth": _truth, "_nba": _nba,
                 "_np": np, "SimulationError": SimulationError, **bindings}
    exec(code, namespace)  # noqa: S102 - trusted generated code
    return code, namespace


class _ShapeTable:
    """Distinct function bodies ("shapes") plus one instance row per
    generated function.

    :meth:`add` files one function body generated by a ``shaped``
    :class:`ExprCompiler`; equal bodies share a shape.  :meth:`emit` writes
    ``def <prefix><id>(<fixed>, _0, _1, ...)`` per shape and the instance
    table as ONE string literal of ``id,index,...`` rows joined by ``;``:
    ``compile()`` takes ~0.6 ms for a 10k-int string literal and 34-91 ms
    for the same ints as a tuple literal.  :func:`instantiate` reads it back.
    """

    def __init__(self, prefix: str, fixed: str) -> None:
        self.prefix = prefix
        self.fixed = fixed
        #: Body text -> (shape id, number of index parameters).
        self._shapes: Dict[str, Tuple[int, int]] = {}
        self._rows: List[str] = []

    def add(self, body: _SourceBuilder, indices: List[int]) -> None:
        text = "\n".join(body.lines)
        shape = self._shapes.get(text)
        if shape is None:
            shape = self._shapes[text] = (len(self._shapes), len(indices))
        self._rows.append(",".join(map(str, (shape[0], *indices))))

    def emit(self, builder: _SourceBuilder, table: str) -> None:
        for text, (shape, arity) in self._shapes.items():
            params = "".join(f", _{n}" for n in range(arity))
            builder.emit(0, f"def {self.prefix}{shape}({self.fixed}{params}):")
            builder.lines.append(text)
        builder.emit(0, f"{table} = {';'.join(self._rows)!r}")


def instantiate(namespace: dict, table: str, prefix: str, fixed: int,
                count: int) -> List[Callable]:
    """The ``count`` functions a :class:`_ShapeTable` module describes.

    Each row of the ``table`` string in the executed module ``namespace``
    becomes ``FunctionType(shape code, namespace, None, indices)``: the
    shape's trailing index parameters default to the row's indices.  A
    module that is not such a program (no table or shape, a row count other
    than ``count``, a row whose indices do not match its shape's parameters
    after the ``fixed`` leading ones) raises :class:`ValueError`.
    """
    rows = namespace.get(table)
    if not isinstance(rows, str):
        raise ValueError(f"generated module has no {table} instance table")
    rows = rows.split(";") if rows else []
    if len(rows) != count:
        raise ValueError(f"{table} has {len(rows)} instances, "
                         f"the design has {count}")
    codes: Dict[str, CodeType] = {}
    functions = []
    for row in rows:
        shape, _, indices = row.partition(",")
        code = codes.get(shape)
        if code is None:
            function = namespace.get(prefix + shape)
            if not isinstance(function, FunctionType):
                raise ValueError(f"generated module has no shape "
                                 f"{prefix}{shape}")
            code = codes[shape] = function.__code__
        defaults = tuple(map(int, indices.split(","))) if indices else ()
        if len(defaults) != code.co_argcount - fixed:
            raise ValueError(f"{table} row {row!r} does not fit its shape")
        functions.append(FunctionType(code, namespace, None, defaults))
    return functions


def comb_source(lowered: LoweredDesign) -> str:
    """Generate (without exec'ing) the scalar per-assignment step functions:
    their shapes ``_sa<id>(v, m, ...)`` and the ``_STEPS`` instance table
    (one row per ordered assignment)."""
    compiler = ExprCompiler(lowered, shaped=True)
    shapes = _ShapeTable("_sa", "v, m")
    for index, assign in enumerate(lowered.ordered):
        compiler.new_scope()
        body = _SourceBuilder()
        value = compiler.expression(assign.expr, body, 1)
        body.emit(1, f"return (({value})) & {lowered.assign_masks[index]}")
        shapes.add(body, compiler.parameters())
    builder = _SourceBuilder()
    shapes.emit(builder, "_STEPS")
    return builder.source()


def compile_comb(count: int, source: Union[str, CodeType]
                 ) -> Tuple[CodeType, List[Callable]]:
    """Compile each continuous assignment into its own step function.

    ``source`` is a :func:`comb_source` text or its code object; only its
    shapes are compiled, and the ``count`` step functions (one per ordered
    assignment, ``LoweredDesign.num_assigns``) are instantiated from them.
    Taking the count rather than the lowered design lets a warm store load
    the step functions from a simulator image alone
    (:mod:`repro.sim.engine.vector`).  ``step_fns[i](v, m)`` evaluates
    ordered assignment ``i`` and returns its new (masked) target value; the
    caller stores it and schedules fanout.
    """
    code, namespace = load_module(source)
    return code, instantiate(namespace, "_STEPS", "_sa", 2, count)


def comb_vector_source(lowered: LoweredDesign) -> str:
    """Generate (without exec'ing) the vectorized full-pass source."""
    compiler = ExprCompiler(lowered, vector=True)
    builder = _SourceBuilder()
    builder.emit(0, "def _comb(v, m):")
    if not lowered.ordered:
        builder.emit(1, "pass")
    for index, assign in enumerate(lowered.ordered):
        target = lowered.assign_targets[index]
        mask = lowered.assign_masks[index]
        body = compiler.expression(assign.expr, builder, 1)
        # In-place so each slot keeps its (lanes,) array even for
        # constant-folded right-hand sides.
        builder.emit(1, f"v[{target}][:] = (({body})) & {mask}")
    return builder.source()


def compile_comb_vector(lowered: LoweredDesign, source: Union[str, CodeType]
                        ) -> Tuple[CodeType, Callable]:
    """Compile all continuous assignments into one vectorized full pass
    (``source``: a :func:`comb_vector_source` text or its code object)."""
    code, namespace = load_module(source)
    return code, namespace["_comb"]


def _emit_clock_stmt(builder: _SourceBuilder, compiler: ExprCompiler,
                     lowered: LoweredDesign, stmt: Statement, indent: int,
                     predicate: Optional[str], counter: List[int]) -> None:
    vector = compiler.vector
    if isinstance(stmt, NonBlockingAssign):
        slot = compiler.index("v", lowered.slots.slot(stmt.target))
        mask = lowered.reg_mask_for(stmt.target)
        value = f"(({compiler.expression(stmt.expr, builder, indent)})) & {mask}"
        if vector:
            builder.emit(indent, f"_nba(ru, v, {slot}, {predicate}, {value})")
        else:
            builder.emit(indent, f"ru[{slot}] = {value}")
        return
    if isinstance(stmt, MemWrite):
        mem_index = lowered.mem_of.get(stmt.memory)
        if mem_index is None:
            raise SimulationError(
                f"clocked block writes undeclared memory '{stmt.memory}'"
            )
        address = compiler.expression(stmt.address, builder, indent)
        data = compiler.expression(stmt.data, builder, indent)
        mem_index = compiler.index("m", mem_index)
        if vector:
            builder.emit(indent,
                         f"mu.append(({mem_index}, {predicate}, ({address}), "
                         f"({data})))")
        else:
            builder.emit(indent,
                         f"mu.append(({mem_index}, ({address}), ({data})))")
        return
    if isinstance(stmt, If):
        condition = compiler.expression(stmt.condition, builder, indent)
        if vector:
            counter[0] += 1
            cond_name = f"_c{counter[0]}"
            then_pred = f"_p{counter[0]}t"
            else_pred = f"_p{counter[0]}e"
            builder.emit(indent, f"{cond_name} = _truth({condition})")
            if predicate == "None":
                builder.emit(indent, f"{then_pred} = {cond_name}")
                builder.emit(indent, f"{else_pred} = ~{cond_name}")
            else:
                builder.emit(indent, f"{then_pred} = {predicate} & {cond_name}")
                builder.emit(indent, f"{else_pred} = {predicate} & (~{cond_name})")
            for inner in stmt.then_body:
                _emit_clock_stmt(builder, compiler, lowered, inner, indent,
                                 then_pred, counter)
            for inner in stmt.else_body:
                _emit_clock_stmt(builder, compiler, lowered, inner, indent,
                                 else_pred, counter)
        else:
            builder.emit(indent, f"if ({condition}):")
            if stmt.then_body:
                for inner in stmt.then_body:
                    _emit_clock_stmt(builder, compiler, lowered, inner,
                                     indent + 1, predicate, counter)
            else:
                builder.emit(indent + 1, "pass")
            if stmt.else_body:
                builder.emit(indent, "else:")
                for inner in stmt.else_body:
                    _emit_clock_stmt(builder, compiler, lowered, inner,
                                     indent + 1, predicate, counter)
        return
    raise SimulationError(f"cannot compile statement {stmt!r}")


def clock_source(lowered: LoweredDesign, vector: bool = False) -> str:
    """Generate (without exec'ing) the two-phase clocked step source."""
    compiler = ExprCompiler(lowered, vector=vector)
    builder = _SourceBuilder()
    builder.emit(0, "def _clock(v, m):")
    builder.emit(1, "ru = {}")
    builder.emit(1, "mu = []")
    counter = [0]
    for stmt in lowered.flat.clocked:
        _emit_clock_stmt(builder, compiler, lowered, stmt, 1,
                         "None" if vector else None, counter)
    builder.emit(1, "return ru, mu")
    return builder.source()


def compile_clock(lowered: LoweredDesign, source: Union[str, CodeType]
                  ) -> Tuple[CodeType, Callable]:
    """Compile the clocked statements into one two-phase step function.

    ``source`` is a :func:`clock_source` text (either dialect) or its code
    object.  ``_clock(v, m)`` evaluates every right-hand side against the
    pre-edge state and returns ``(reg_updates, mem_updates)`` for the caller
    to commit, preserving non-blocking assignment semantics.  In the vector
    dialect, ``if`` statements become per-lane predicates.
    """
    code, namespace = load_module(source)
    return code, namespace["_clock"]


__all__ = [
    "ExprCompiler",
    "MAX_INLINE_DEPTH",
    "clock_source",
    "comb_source",
    "comb_vector_source",
    "compile_clock",
    "compile_comb",
    "compile_comb_vector",
    "fold_expr",
    "instantiate",
    "load_module",
]
