"""Shared machinery for the text-emitting back-ends.

The three back-ends (GLSL ES 1.0, desktop GLSL, C) share the statement
structure and most of the expression syntax; they differ in type names,
intrinsic spellings, how kernel inputs are read and how outputs are
written.  :class:`CodeEmitter` implements the shared walk and exposes
hook methods the concrete generators override.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from ...errors import CodegenError
from .. import ast_nodes as ast
from ..builtins import lookup_builtin
from ..types import BrookType, ParamKind, ScalarKind

__all__ = ["CodeEmitter", "IndentedWriter"]


class IndentedWriter:
    """Tiny helper building indented source text."""

    def __init__(self, indent_unit: str = "    "):
        self.lines: List[str] = []
        self.indent_unit = indent_unit
        self.level = 0

    def line(self, text: str = "") -> None:
        if text:
            self.lines.append(f"{self.indent_unit * self.level}{text}")
        else:
            self.lines.append("")

    def push(self) -> None:
        self.level += 1

    def pop(self) -> None:
        self.level = max(0, self.level - 1)

    def text(self) -> str:
        return "\n".join(self.lines) + "\n"


class CodeEmitter:
    """Base class for the statement/expression emitters."""

    #: Operators that need a function-call spelling in the target language
    #: (e.g. ``%`` becomes ``mod(a, b)`` in GLSL).  Overridden by subclasses.
    MODULO_AS_CALL: Optional[str] = None
    #: Spelling of a float-typed ``%`` when it differs from an integer one
    #: (GLSL's ``mod`` floors, Brook's ``%`` is C ``fmod``).
    FLOAT_MODULO_AS_CALL: Optional[str] = None

    def __init__(self, kernel: ast.FunctionDef):
        self.kernel = kernel
        self.writer = IndentedWriter()

    # ------------------------------------------------------------------ #
    # Hooks the concrete generators must provide
    # ------------------------------------------------------------------ #
    def type_name(self, brook_type: BrookType) -> str:
        raise NotImplementedError

    def builtin_name(self, name: str) -> str:
        raise NotImplementedError

    def emit_identifier(self, expr: ast.Identifier) -> str:
        return expr.name

    def emit_gather(self, expr: ast.IndexExpr) -> str:
        raise NotImplementedError

    def emit_indexof(self, expr: ast.IndexOfExpr) -> str:
        raise NotImplementedError

    def modulo_call(self, expr: ast.Expression) -> Optional[str]:
        """Function spelling of the ``%`` or ``%=`` ``expr`` (``None``:
        the infix operator); untyped nodes count as float."""
        if self.FLOAT_MODULO_AS_CALL \
                and not (expr.type is not None and expr.type.is_integer):
            return self.FLOAT_MODULO_AS_CALL
        return self.MODULO_AS_CALL

    # ------------------------------------------------------------------ #
    # Expressions
    # ------------------------------------------------------------------ #
    def emit_expr(self, expr: ast.Expression) -> str:
        if isinstance(expr, ast.NumberLiteral):
            if expr.is_float:
                text = f"{expr.value!r}"
                if "." not in text and "e" not in text and "inf" not in text:
                    text += ".0"
                return text
            return str(int(expr.value))
        if isinstance(expr, ast.BoolLiteral):
            return "true" if expr.value else "false"
        if isinstance(expr, ast.Identifier):
            return self.emit_identifier(expr)
        if isinstance(expr, ast.UnaryOp):
            return f"{expr.op}({self.emit_expr(expr.operand)})"
        if isinstance(expr, ast.BinaryOp):
            call = self.modulo_call(expr) if expr.op == "%" else None
            if call:
                return (f"{call}({self.emit_expr(expr.left)}, "
                        f"{self.emit_expr(expr.right)})")
            return f"({self.emit_expr(expr.left)} {expr.op} {self.emit_expr(expr.right)})"
        if isinstance(expr, ast.Assignment):
            target = self.emit_expr(expr.target)
            call = self.modulo_call(expr) if expr.op == "%=" else None
            if call:
                return f"{target} = {call}({target}, {self.emit_expr(expr.value)})"
            return f"{target} {expr.op} {self.emit_expr(expr.value)}"
        if isinstance(expr, ast.Conditional):
            return (f"(({self.emit_expr(expr.cond)}) ? ({self.emit_expr(expr.then)}) "
                    f": ({self.emit_expr(expr.otherwise)}))")
        if isinstance(expr, ast.CallExpr):
            if lookup_builtin(expr.callee) is not None:
                name = self.builtin_name(expr.callee)
            else:
                name = expr.callee
            args = ", ".join(self.emit_expr(arg) for arg in expr.args)
            return f"{name}({args})"
        if isinstance(expr, ast.ConstructorExpr):
            args = ", ".join(self.emit_expr(arg) for arg in expr.args)
            return f"{self.type_name(expr.target_type)}({args})"
        if isinstance(expr, ast.IndexExpr):
            return self.emit_gather(expr)
        if isinstance(expr, ast.MemberExpr):
            return f"{self.emit_expr(expr.base)}.{expr.member}"
        if isinstance(expr, ast.IndexOfExpr):
            return self.emit_indexof(expr)
        raise CodegenError(f"cannot emit expression node {type(expr).__name__}")

    # ------------------------------------------------------------------ #
    # Statements
    # ------------------------------------------------------------------ #
    def emit_statement(self, stmt: ast.Statement) -> None:
        writer = self.writer
        if isinstance(stmt, ast.Block):
            writer.line("{")
            writer.push()
            for child in stmt.statements:
                self.emit_statement(child)
            writer.pop()
            writer.line("}")
        elif isinstance(stmt, ast.DeclStatement):
            text = f"{self.type_name(stmt.decl_type)} {stmt.name}"
            if stmt.init is not None:
                text += f" = {self.emit_expr(stmt.init)}"
            writer.line(text + ";")
        elif isinstance(stmt, ast.ExprStatement):
            writer.line(self.emit_expr(stmt.expr) + ";")
        elif isinstance(stmt, ast.IfStatement):
            writer.line(f"if ({self.emit_expr(stmt.cond)})")
            self._emit_branch(stmt.then_branch)
            if stmt.else_branch is not None:
                writer.line("else")
                self._emit_branch(stmt.else_branch)
        elif isinstance(stmt, ast.ForStatement):
            init = ""
            if isinstance(stmt.init, ast.DeclStatement):
                init = f"{self.type_name(stmt.init.decl_type)} {stmt.init.name}"
                if stmt.init.init is not None:
                    init += f" = {self.emit_expr(stmt.init.init)}"
            elif isinstance(stmt.init, ast.ExprStatement):
                init = self.emit_expr(stmt.init.expr)
            cond = self.emit_expr(stmt.cond) if stmt.cond is not None else ""
            update = self.emit_expr(stmt.update) if stmt.update is not None else ""
            writer.line(f"for ({init}; {cond}; {update})")
            self._emit_branch(stmt.body)
        elif isinstance(stmt, ast.WhileStatement):
            writer.line(f"while ({self.emit_expr(stmt.cond)})")
            self._emit_branch(stmt.body)
        elif isinstance(stmt, ast.DoWhileStatement):
            writer.line("do")
            self._emit_branch(stmt.body)
            writer.line(f"while ({self.emit_expr(stmt.cond)});")
        elif isinstance(stmt, ast.ReturnStatement):
            self.emit_return(stmt)
        elif isinstance(stmt, ast.BreakStatement):
            writer.line("break;")
        elif isinstance(stmt, ast.ContinueStatement):
            writer.line("continue;")
        elif isinstance(stmt, ast.GotoStatement):
            raise CodegenError("goto cannot be lowered to any Brook Auto backend")
        else:  # pragma: no cover - defensive
            raise CodegenError(f"cannot emit statement {type(stmt).__name__}")

    def emit_return(self, stmt: ast.ReturnStatement) -> None:
        if stmt.value is None:
            self.writer.line("return;")
        else:
            self.writer.line(f"return {self.emit_expr(stmt.value)};")

    def _emit_branch(self, stmt: ast.Statement) -> None:
        if isinstance(stmt, ast.Block):
            self.emit_statement(stmt)
        else:
            self.writer.line("{")
            self.writer.push()
            self.emit_statement(stmt)
            self.writer.pop()
            self.writer.line("}")

    # ------------------------------------------------------------------ #
    # Helpers shared by the GPU generators
    # ------------------------------------------------------------------ #
    def gather_base_and_indices(self, expr: ast.IndexExpr):
        """Split a (possibly chained) index expression into its base
        identifier and the list of index expressions, outermost first."""
        indices: List[ast.Expression] = []
        node: ast.Expression = expr
        while isinstance(node, ast.IndexExpr):
            indices.append(node.index)
            node = node.base
        indices.reverse()
        if not isinstance(node, ast.Identifier):
            raise CodegenError("gather access must index a parameter directly")
        return node.name, indices

    def param_kind(self, name: str) -> Optional[ParamKind]:
        param = self.kernel.param(name)
        return param.kind if param is not None else None
