"""Vector-to-scalar conversion of kernel stream parameters.

The Brook+ reference applications are heavily vectorized (``float4``
streams) because AMD's CAL backend maps them directly onto the VLIW
vector ALUs.  The Brook Auto port of the applications is scalar (paper
section 6.1: "the Brook Auto version on our target platform is scalar"),
both because the RGBA8 storage format packs one float per texel and
because low-end shader cores gain nothing from the source-level
vectorization.

This pass automates the common case of that manual modification: a
vector-typed *stream* or *output stream* parameter is replaced by one
scalar stream per component (``a`` of type ``float4`` becomes ``a_x``,
``a_y``, ``a_z``, ``a_w``) and every single-component swizzle of the
parameter is rewritten to the matching scalar parameter.  Kernels that
use a vector parameter as a whole value (``dot(a, b)``, assignments of
the full vector, multi-component swizzles) are outside the supported
pattern and raise :class:`~repro.errors.CodegenError`, mirroring the
paper's position that such kernels are modified by hand.
"""

from __future__ import annotations

from typing import Dict, List

from ...errors import CodegenError
from .. import ast_nodes as ast
from ..types import ParamKind, SWIZZLE_COMPONENTS

__all__ = ["scalarize_kernel"]

_COMPONENT_SUFFIX = ["x", "y", "z", "w"]


def _scalarizable(param: ast.KernelParam) -> bool:
    return (
        param.kind in (ParamKind.STREAM, ParamKind.OUT_STREAM)
        and param.type.is_vector
    )


class _Rewriter:
    """Rewrites swizzle accesses of split parameters into scalar names."""

    def __init__(self, split: Dict[str, List[str]]):
        self.split = split

    def rewrite_expr(self, expr: ast.Expression) -> ast.Expression:
        if isinstance(expr, ast.MemberExpr):
            base = expr.base
            if isinstance(base, ast.Identifier) and base.name in self.split:
                if len(expr.member) != 1 or expr.member not in SWIZZLE_COMPONENTS:
                    raise CodegenError(
                        f"cannot scalarize multi-component swizzle "
                        f"{base.name}.{expr.member}; modify the kernel manually"
                    )
                component = SWIZZLE_COMPONENTS[expr.member]
                return ast.Identifier(
                    location=expr.location, name=self.split[base.name][component]
                )
            expr.base = self.rewrite_expr(expr.base)
            return expr
        if isinstance(expr, ast.Identifier):
            if expr.name in self.split:
                raise CodegenError(
                    f"kernel uses vector parameter {expr.name!r} as a whole value; "
                    "automatic scalarization only supports per-component access"
                )
            return expr
        # Generic recursion over expression children.
        if isinstance(expr, ast.UnaryOp):
            expr.operand = self.rewrite_expr(expr.operand)
        elif isinstance(expr, ast.BinaryOp):
            expr.left = self.rewrite_expr(expr.left)
            expr.right = self.rewrite_expr(expr.right)
        elif isinstance(expr, ast.Assignment):
            expr.target = self.rewrite_expr(expr.target)
            expr.value = self.rewrite_expr(expr.value)
        elif isinstance(expr, ast.Conditional):
            expr.cond = self.rewrite_expr(expr.cond)
            expr.then = self.rewrite_expr(expr.then)
            expr.otherwise = self.rewrite_expr(expr.otherwise)
        elif isinstance(expr, (ast.CallExpr, ast.ConstructorExpr)):
            expr.args = [self.rewrite_expr(arg) for arg in expr.args]
        elif isinstance(expr, ast.IndexExpr):
            expr.base = self.rewrite_expr(expr.base)
            expr.index = self.rewrite_expr(expr.index)
        return expr

    def rewrite_stmt(self, stmt: ast.Statement) -> None:
        if isinstance(stmt, ast.Block):
            for child in stmt.statements:
                self.rewrite_stmt(child)
        elif isinstance(stmt, ast.DeclStatement):
            if stmt.init is not None:
                stmt.init = self.rewrite_expr(stmt.init)
        elif isinstance(stmt, ast.ExprStatement):
            stmt.expr = self.rewrite_expr(stmt.expr)
        elif isinstance(stmt, ast.IfStatement):
            stmt.cond = self.rewrite_expr(stmt.cond)
            self.rewrite_stmt(stmt.then_branch)
            if stmt.else_branch is not None:
                self.rewrite_stmt(stmt.else_branch)
        elif isinstance(stmt, ast.ForStatement):
            if stmt.init is not None:
                self.rewrite_stmt(stmt.init)
            if stmt.cond is not None:
                stmt.cond = self.rewrite_expr(stmt.cond)
            if stmt.update is not None:
                stmt.update = self.rewrite_expr(stmt.update)
            self.rewrite_stmt(stmt.body)
        elif isinstance(stmt, ast.WhileStatement):
            stmt.cond = self.rewrite_expr(stmt.cond)
            self.rewrite_stmt(stmt.body)
        elif isinstance(stmt, ast.DoWhileStatement):
            self.rewrite_stmt(stmt.body)
            stmt.cond = self.rewrite_expr(stmt.cond)
        elif isinstance(stmt, ast.ReturnStatement):
            if stmt.value is not None:
                stmt.value = self.rewrite_expr(stmt.value)


def scalarize_kernel(kernel: ast.FunctionDef) -> ast.FunctionDef:
    """Return a scalarized copy of ``kernel``.

    Vector stream/output parameters are split into one scalar stream per
    component; kernels without vector stream parameters are returned as an
    unchanged copy.
    """
    clone = ast.clone(kernel)
    split: Dict[str, List[str]] = {}
    new_params: List[ast.KernelParam] = []
    for param in clone.params:
        if _scalarizable(param):
            names = []
            for component in range(param.type.width):
                name = f"{param.name}_{_COMPONENT_SUFFIX[component]}"
                names.append(name)
                new_params.append(
                    ast.KernelParam(
                        location=param.location,
                        name=name,
                        type=param.type.scalar,
                        kind=param.kind,
                        gather_rank=0,
                    )
                )
            split[param.name] = names
        else:
            new_params.append(param)
    if not split:
        return clone
    clone.params = new_params
    _Rewriter(split).rewrite_stmt(clone.body)
    return clone
