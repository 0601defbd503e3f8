"""Semantic analysis for Brook kernels.

The analyzer performs name resolution and type checking over a parsed
translation unit and annotates every expression node with its resolved
:class:`~repro.core.types.BrookType` (stored in ``Expression.type``).
The annotated AST is what the code generators and the execution engine
consume, so analysis is a mandatory stage of the compilation pipeline.

Brook accepts C's mixing of ``int``, ``float`` and ``bool`` operands, but
GLSL ES 1.00 has no implicit conversions (spec sections 4.1.10 and 5.9)
and MISRA C:2012 rule 10.4 forbids them.  So the analyzer makes each
one explicit, once: where an operand of an operator, an initializer, a
stored value, a ``?:`` branch, a call argument or a returned value has
another base type than its context, it is wrapped in an implicit
``float(x)``, ``int(x)`` or ``bool(x)`` :class:`~repro.core.ast_nodes.
ConstructorExpr`.  Every printer and both execution tiers then read one
base type per operation, and every value has the dtype its type
declares.

The checks implemented here are the *language-level* rules of Brook
itself (a call must match a known function, a gather array must be
indexed with the right rank, ...).  The additional restrictions of the
Brook Auto subset (bounded loops, no pointers, limited outputs, ...) are
implemented separately in :mod:`repro.core.certification` because they
are configurable per target platform and must produce a compliance
report rather than hard errors.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from ..errors import BrookTypeError
from . import ast_nodes as ast
from .builtins import lookup_builtin
from .types import (
    BOOL,
    FLOAT,
    FLOAT2,
    INT,
    BrookType,
    ParamKind,
    ScalarKind,
    common_type,
    swizzle_result_type,
)

__all__ = ["Scope", "FunctionInfo", "AnalyzedProgram", "SemanticAnalyzer", "analyze"]

#: C library functions that legacy (non-Brook) kernels may call.  They are
#: typed permissively by the analyzer and rejected by the certification
#: checker, so the checker can produce rule-level diagnostics instead of the
#: analyzer failing with an opaque type error.
_FOREIGN_C_FUNCTIONS = frozenset({
    "malloc", "calloc", "realloc", "free", "alloca",
    "memcpy", "memset", "memmove", "printf",
})


class Scope:
    """A lexical scope mapping names to declared types."""

    def __init__(self, parent: Optional["Scope"] = None):
        self.parent = parent
        self.symbols: Dict[str, BrookType] = {}

    def declare(self, name: str, brook_type: BrookType, location=None) -> None:
        if name in self.symbols:
            raise BrookTypeError(f"redeclaration of {name!r}", location)
        self.symbols[name] = brook_type

    def lookup(self, name: str) -> Optional[BrookType]:
        scope: Optional[Scope] = self
        while scope is not None:
            if name in scope.symbols:
                return scope.symbols[name]
            scope = scope.parent
        return None

    def child(self) -> "Scope":
        return Scope(self)


@dataclass
class FunctionInfo:
    """Summary of one analyzed function/kernel."""

    definition: ast.FunctionDef
    #: Parameter types by name (element type for streams/gathers).
    param_types: Dict[str, BrookType] = field(default_factory=dict)
    #: Names of user helper functions called (directly) by this function.
    callees: List[str] = field(default_factory=list)
    #: Whether every output parameter is assigned on some path.
    outputs_assigned: bool = True

    @property
    def name(self) -> str:
        return self.definition.name

    @property
    def is_kernel(self) -> bool:
        return self.definition.is_kernel or self.definition.is_reduction


@dataclass
class AnalyzedProgram:
    """Result of semantic analysis over a translation unit."""

    unit: ast.TranslationUnit
    functions: Dict[str, FunctionInfo] = field(default_factory=dict)

    def kernel_info(self, name: str) -> FunctionInfo:
        info = self.functions[name]
        if not info.is_kernel:
            raise KeyError(f"{name} is not a kernel")
        return info

    @property
    def kernels(self) -> List[FunctionInfo]:
        return [info for info in self.functions.values() if info.is_kernel]

    @property
    def helpers(self) -> List[FunctionInfo]:
        return [info for info in self.functions.values() if not info.is_kernel]


class SemanticAnalyzer:
    """Performs name resolution and type checking over a translation unit."""

    def __init__(self, unit: ast.TranslationUnit):
        self.unit = unit
        self.program = AnalyzedProgram(unit=unit)
        self._current: Optional[FunctionInfo] = None
        self._assigned_outputs: set = set()

    # ------------------------------------------------------------------ #
    # Entry point
    # ------------------------------------------------------------------ #
    def analyze(self) -> AnalyzedProgram:
        # Register all function names first so helpers can be called before
        # their definition point (and so recursion is representable, which
        # the call-graph analysis later rejects for Brook Auto).
        for func in self.unit.functions:
            if func.name in self.program.functions:
                raise BrookTypeError(
                    f"duplicate function definition {func.name!r}", func.location
                )
            self.program.functions[func.name] = FunctionInfo(definition=func)
        for func in self.unit.functions:
            self._analyze_function(self.program.functions[func.name])
        return self.program

    # ------------------------------------------------------------------ #
    # Functions
    # ------------------------------------------------------------------ #
    def _analyze_function(self, info: FunctionInfo) -> None:
        self._current = info
        self._assigned_outputs = set()
        func = info.definition
        scope = Scope()
        for param in func.params:
            self._validate_param(func, param)
            info.param_types[param.name] = param.type
            scope.declare(param.name, param.type, param.location)
        self._check_statement(func.body, scope)
        missing = {
            p.name for p in func.output_params
        } - self._assigned_outputs
        info.outputs_assigned = not missing
        if func.is_kernel and not func.is_reduction and missing:
            raise BrookTypeError(
                f"kernel {func.name!r} never assigns output stream(s): "
                + ", ".join(sorted(missing)),
                func.location,
            )
        self._current = None

    def _validate_param(self, func: ast.FunctionDef, param: ast.KernelParam) -> None:
        if param.type.is_void:
            raise BrookTypeError(
                f"parameter {param.name!r} cannot have void type", param.location
            )
        if param.kind is ParamKind.REDUCE and not func.is_reduction:
            raise BrookTypeError(
                f"'reduce' parameter {param.name!r} outside a reduce kernel",
                param.location,
            )
        if func.is_reduction:
            if param.kind not in (ParamKind.STREAM, ParamKind.REDUCE):
                raise BrookTypeError(
                    "reduce kernels only take one input stream and one "
                    f"reduce accumulator (found {param.kind.value!r} "
                    f"parameter {param.name!r})",
                    param.location,
                )
        if not func.is_kernel and param.kind is not ParamKind.SCALAR:
            raise BrookTypeError(
                f"helper function {func.name!r} can only take scalar value "
                f"parameters (found {param.kind.value!r} {param.name!r})",
                param.location,
            )

    # ------------------------------------------------------------------ #
    # Statements
    # ------------------------------------------------------------------ #
    def _check_statement(self, stmt: ast.Statement, scope: Scope) -> None:
        if isinstance(stmt, ast.Block):
            inner = scope.child()
            for child in stmt.statements:
                self._check_statement(child, inner)
        elif isinstance(stmt, ast.DeclStatement):
            if stmt.init is not None:
                init_type = self._check_expression(stmt.init, scope)
                if not self._assignable(stmt.decl_type, init_type):
                    raise BrookTypeError(
                        f"cannot initialise {stmt.decl_type} {stmt.name!r} "
                        f"with a value of type {init_type}",
                        stmt.location,
                    )
                stmt.init = _converted(stmt.init, stmt.decl_type.kind)
            scope.declare(stmt.name, stmt.decl_type, stmt.location)
        elif isinstance(stmt, ast.ExprStatement):
            self._check_expression(stmt.expr, scope)
        elif isinstance(stmt, ast.IfStatement):
            self._check_expression(stmt.cond, scope)
            self._check_statement(stmt.then_branch, scope.child())
            if stmt.else_branch is not None:
                self._check_statement(stmt.else_branch, scope.child())
        elif isinstance(stmt, ast.ForStatement):
            loop_scope = scope.child()
            if stmt.init is not None:
                self._check_statement(stmt.init, loop_scope)
            if stmt.cond is not None:
                self._check_expression(stmt.cond, loop_scope)
            if stmt.update is not None:
                self._check_expression(stmt.update, loop_scope)
            self._check_statement(stmt.body, loop_scope.child())
        elif isinstance(stmt, ast.WhileStatement):
            self._check_expression(stmt.cond, scope)
            self._check_statement(stmt.body, scope.child())
        elif isinstance(stmt, ast.DoWhileStatement):
            self._check_statement(stmt.body, scope.child())
            self._check_expression(stmt.cond, scope)
        elif isinstance(stmt, ast.ReturnStatement):
            func = self._current.definition
            if stmt.value is not None:
                value_type = self._check_expression(stmt.value, scope)
                if func.return_type.is_void:
                    raise BrookTypeError(
                        "cannot return a value from a void function", stmt.location
                    )
                if not self._assignable(func.return_type, value_type):
                    raise BrookTypeError(
                        f"return type mismatch: expected {func.return_type}, "
                        f"got {value_type}",
                        stmt.location,
                    )
                stmt.value = _converted(stmt.value, func.return_type.kind)
            elif not func.return_type.is_void:
                raise BrookTypeError(
                    f"non-void function {func.name!r} must return a value",
                    stmt.location,
                )
        elif isinstance(stmt, (ast.BreakStatement, ast.ContinueStatement,
                               ast.GotoStatement)):
            # Structurally fine; goto is rejected by the certification pass.
            pass
        else:  # pragma: no cover - defensive
            raise AssertionError(f"unhandled statement {type(stmt).__name__}")

    # ------------------------------------------------------------------ #
    # Expressions
    # ------------------------------------------------------------------ #
    def _check_expression(self, expr: ast.Expression, scope: Scope) -> BrookType:
        expr_type = self._infer(expr, scope)
        expr.type = expr_type
        return expr_type

    def _infer(self, expr: ast.Expression, scope: Scope) -> BrookType:
        if isinstance(expr, ast.NumberLiteral):
            return FLOAT if expr.is_float else INT
        if isinstance(expr, ast.BoolLiteral):
            return BOOL
        if isinstance(expr, ast.Identifier):
            found = scope.lookup(expr.name)
            if found is None:
                raise BrookTypeError(f"use of undeclared name {expr.name!r}",
                                     expr.location)
            return found
        if isinstance(expr, ast.UnaryOp):
            operand = self._check_expression(expr.operand, scope)
            if expr.op == "!":
                return BrookType(ScalarKind.BOOL, operand.width)
            if expr.op in ("*", "&"):
                # Pointer dereference / address-of: typed as the operand so
                # analysis can continue; flagged by the certification pass.
                return operand
            return operand
        if isinstance(expr, ast.BinaryOp):
            return self._infer_binary(expr, scope)
        if isinstance(expr, ast.Assignment):
            return self._infer_assignment(expr, scope)
        if isinstance(expr, ast.Conditional):
            self._check_expression(expr.cond, scope)
            then_type = self._check_expression(expr.then, scope)
            else_type = self._check_expression(expr.otherwise, scope)
            merged = common_type(then_type, else_type)
            if merged is None:
                raise BrookTypeError(
                    f"incompatible branches of conditional: {then_type} vs {else_type}",
                    expr.location,
                )
            expr.then = _converted(expr.then, merged.kind)
            expr.otherwise = _converted(expr.otherwise, merged.kind)
            return merged
        if isinstance(expr, ast.CallExpr):
            return self._infer_call(expr, scope)
        if isinstance(expr, ast.ConstructorExpr):
            return self._infer_constructor(expr, scope)
        if isinstance(expr, ast.IndexExpr):
            return self._infer_index(expr, scope)
        if isinstance(expr, ast.MemberExpr):
            base = self._check_expression(expr.base, scope)
            result = swizzle_result_type(base, expr.member)
            if result is None:
                raise BrookTypeError(
                    f"invalid swizzle {expr.member!r} on value of type {base}",
                    expr.location,
                )
            return result
        if isinstance(expr, ast.IndexOfExpr):
            return self._infer_indexof(expr)
        raise AssertionError(f"unhandled expression {type(expr).__name__}")

    def _infer_binary(self, expr: ast.BinaryOp, scope: Scope) -> BrookType:
        left = self._check_expression(expr.left, scope)
        right = self._check_expression(expr.right, scope)
        merged = common_type(left, right)
        if merged is None:
            raise BrookTypeError(
                f"incompatible operands for {expr.op!r}: {left} and {right}",
                expr.location,
            )
        # ``&&`` and ``||`` combine truth values.
        kind = ScalarKind.BOOL if expr.op in ("&&", "||") else merged.kind
        expr.left = _converted(expr.left, kind)
        expr.right = _converted(expr.right, kind)
        if expr.op in ("<", ">", "<=", ">=", "==", "!=", "&&", "||"):
            return BrookType(ScalarKind.BOOL, merged.width)
        return merged

    def _infer_assignment(self, expr: ast.Assignment, scope: Scope) -> BrookType:
        target_type = self._check_expression(expr.target, scope)
        value_type = self._check_expression(expr.value, scope)
        if not self._assignable(target_type, value_type):
            raise BrookTypeError(
                f"cannot assign value of type {value_type} to target of type "
                f"{target_type}",
                expr.location,
            )
        merged = common_type(target_type, value_type)
        if expr.op != "=" and merged.kind is not target_type.kind:
            # C computes ``t op= v`` in the common type of ``t`` and ``v``
            # and converts the result back, so ``i *= 0.5`` on an
            # ``int i`` stores ``int(float(i) * 0.5)``: spelled out here.
            combined = ast.BinaryOp(
                location=expr.location, op=expr.op[:-1],
                left=_converted(ast.clone(expr.target), merged.kind),
                right=_converted(expr.value, merged.kind))
            combined.type = merged
            expr.op, expr.value = "=", combined
        expr.value = _converted(expr.value, target_type.kind)
        self._record_output_assignment(expr.target)
        return target_type

    def _record_output_assignment(self, target: ast.Expression) -> None:
        # Track writes to ``out`` parameters so un-written outputs can be
        # reported (writing only a swizzle of an output still counts).
        node = target
        while isinstance(node, (ast.MemberExpr, ast.IndexExpr)):
            node = node.base
        if isinstance(node, ast.Identifier) and self._current is not None:
            param = self._current.definition.param(node.name)
            if param is not None and param.kind is ParamKind.OUT_STREAM:
                self._assigned_outputs.add(param.name)
            if param is not None and param.kind is ParamKind.REDUCE:
                self._assigned_outputs.add(param.name)

    def _infer_call(self, expr: ast.CallExpr, scope: Scope) -> BrookType:
        arg_types = [self._check_expression(arg, scope) for arg in expr.args]
        builtin = lookup_builtin(expr.callee)
        if builtin is not None:
            result = builtin.result_type(arg_types)
            if expr.callee not in ("any", "all"):
                # The math builtins take float arguments.
                expr.args = [_converted(arg, ScalarKind.FLOAT)
                             for arg in expr.args]
            return result
        if expr.callee in _FOREIGN_C_FUNCTIONS:
            # C library calls (malloc, free, memcpy, ...) are typed
            # permissively so analysis of legacy CUDA/OpenCL-style code can
            # continue; the certification checker rejects them (BA-002).
            return FLOAT
        info = self.program.functions.get(expr.callee)
        if info is None:
            raise BrookTypeError(f"call to unknown function {expr.callee!r}",
                                 expr.location)
        func = info.definition
        if func.is_kernel or func.is_reduction:
            raise BrookTypeError(
                f"kernels cannot call other kernels ({expr.callee!r})", expr.location
            )
        if len(arg_types) != len(func.params):
            raise BrookTypeError(
                f"{expr.callee}() expects {len(func.params)} argument(s), "
                f"got {len(arg_types)}",
                expr.location,
            )
        for arg_type, param in zip(arg_types, func.params):
            if not self._assignable(param.type, arg_type):
                raise BrookTypeError(
                    f"argument {param.name!r} of {expr.callee}(): expected "
                    f"{param.type}, got {arg_type}",
                    expr.location,
                )
        expr.args = [_converted(arg, param.type.kind)
                     for arg, param in zip(expr.args, func.params)]
        if self._current is not None and expr.callee not in self._current.callees:
            self._current.callees.append(expr.callee)
        return func.return_type

    def _infer_constructor(self, expr: ast.ConstructorExpr, scope: Scope) -> BrookType:
        arg_types = [self._check_expression(arg, scope) for arg in expr.args]
        target = expr.target_type
        total = sum(t.width for t in arg_types)
        if target.width == 1:
            if len(arg_types) != 1:
                raise BrookTypeError(
                    f"{target.name}() cast takes exactly one argument", expr.location
                )
            return target
        if total != target.width and not (len(arg_types) == 1 and arg_types[0].width == 1):
            raise BrookTypeError(
                f"{target.name}() constructor needs {target.width} components, "
                f"got {total}",
                expr.location,
            )
        return target

    def _infer_index(self, expr: ast.IndexExpr, scope: Scope) -> BrookType:
        index_type = self._check_expression(expr.index, scope)
        # Determine the gather parameter at the base of the (possibly
        # chained) index expression and the chain depth.
        depth = 1
        base = expr.base
        while isinstance(base, ast.IndexExpr):
            depth += 1
            base = base.base
        if not isinstance(base, ast.Identifier):
            raise BrookTypeError("only gather parameters can be indexed",
                                 expr.location)
        param = None
        if self._current is not None:
            param = self._current.definition.param(base.name)
        is_scatter_output = (param is not None
                             and param.kind is ParamKind.OUT_STREAM
                             and param.gather_rank > 0)
        if param is None or (param.kind is not ParamKind.GATHER
                             and not param.is_pointer
                             and not is_scatter_output):
            raise BrookTypeError(
                f"{base.name!r} is not a gather-array parameter and cannot be "
                "indexed; Brook streams are accessed positionally",
                expr.location,
            )
        if param.kind is not ParamKind.GATHER:
            # Pointer indexing (CUDA/OpenCL style) and indexed (scatter)
            # outputs are typed permissively so that analysis can continue;
            # the certification checker reports them under rules BA-001 and
            # BA-006 respectively.
            self._check_expression(expr.base, scope)
            return param.type
        rank = max(1, param.gather_rank)
        if depth > rank:
            raise BrookTypeError(
                f"too many indices for {base.name!r} (rank {rank})", expr.location
            )
        if depth == 1 and rank == 2 and index_type.width == 2:
            # ``a[float2(row, col)]`` - a full 2-D access in one step.
            expr.base.type = param.type
            return param.type
        if depth < rank:
            # Partial indexing of a 2-D gather yields a "row view"; typed as
            # the element type so the enclosing IndexExpr resolves it.
            self._check_expression(expr.base, scope)
            return param.type
        self._check_expression(expr.base, scope)
        if index_type.width not in (1, rank):
            raise BrookTypeError(
                f"index of {base.name!r} must be scalar or match rank {rank}",
                expr.location,
            )
        return param.type

    def _infer_indexof(self, expr: ast.IndexOfExpr) -> BrookType:
        if self._current is None:
            raise BrookTypeError("indexof used outside a kernel", expr.location)
        param = self._current.definition.param(expr.stream)
        if param is None or param.kind not in (
            ParamKind.STREAM,
            ParamKind.OUT_STREAM,
            ParamKind.ITERATOR,
        ):
            raise BrookTypeError(
                f"indexof argument {expr.stream!r} must be a stream parameter",
                expr.location,
            )
        if not self._current.definition.is_kernel:
            raise BrookTypeError("indexof can only appear in kernels", expr.location)
        # Brook's indexof yields a float2 position for 2-D streams and a
        # float for 1-D streams; the rank is only known at launch time, so
        # the analyzer types it as float2 and the runtime provides both
        # components (y is 0 for 1-D streams).
        return FLOAT2

    # ------------------------------------------------------------------ #
    # Helpers
    # ------------------------------------------------------------------ #
    @staticmethod
    def _assignable(target: BrookType, value: BrookType) -> bool:
        if target.is_void or value.is_void:
            return False
        if target.width == value.width:
            return True
        # A scalar may be broadcast into a vector (Cg behaviour).
        if value.width == 1:
            return True
        return False


def _converted(expr: ast.Expression, kind: ScalarKind) -> ast.Expression:
    """``expr`` as a value of base type ``kind``: wrapped in an implicit
    conversion when its own base type differs."""
    if expr.type.kind is kind or expr.type.is_void:
        return expr
    target = BrookType(kind, expr.type.width)
    conversion = ast.ConstructorExpr(location=expr.location,
                                     target_type=target, args=[expr],
                                     implicit=True)
    conversion.type = target
    return conversion


def analyze(unit: ast.TranslationUnit) -> AnalyzedProgram:
    """Run semantic analysis and return the annotated program."""
    return SemanticAnalyzer(unit).analyze()
