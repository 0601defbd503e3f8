"""Constant folding over Brook kernel ASTs.

Folding is intentionally conservative: only arithmetic between number
literals is evaluated, float/int-ness is preserved where possible, and
division by a literal zero is left untouched so the error surfaces where
the programmer wrote it.
"""

from __future__ import annotations

import math
from typing import Optional

from .. import ast_nodes as ast

__all__ = ["fold_constants"]

_FOLDABLE_BINOPS = {"+", "-", "*", "/", "%"}
_FOLDABLE_CALLS = {
    "sqrt": math.sqrt,
    "exp": math.exp,
    "log": math.log,
    "sin": math.sin,
    "cos": math.cos,
    "floor": math.floor,
    "ceil": math.ceil,
    "abs": abs,
}


def _literal(value: float, is_float: bool, location) -> ast.NumberLiteral:
    return ast.NumberLiteral(location=location, value=value, is_float=is_float)


def _c_divmod(left: int, right: int):
    """C's integer ``/`` and ``%``: the quotient truncates toward zero."""
    quotient = abs(left) // abs(right)
    if (left < 0) != (right < 0):
        quotient = -quotient
    return quotient, left - right * quotient


def _fold_expr(expr: ast.Expression) -> ast.Expression:
    # Recurse into children first (post-order folding).
    if isinstance(expr, ast.BinaryOp):
        expr.left = _fold_expr(expr.left)
        expr.right = _fold_expr(expr.right)
        if (isinstance(expr.left, ast.NumberLiteral)
                and isinstance(expr.right, ast.NumberLiteral)
                and expr.op in _FOLDABLE_BINOPS):
            left, right = expr.left.value, expr.right.value
            is_float = expr.left.is_float or expr.right.is_float
            try:
                if expr.op == "+":
                    value = left + right
                elif expr.op == "-":
                    value = left - right
                elif expr.op == "*":
                    value = left * right
                elif expr.op == "/":
                    if right == 0:
                        return expr
                    value = left / right if is_float \
                        else float(_c_divmod(int(left), int(right))[0])
                else:  # "%"
                    if right == 0:
                        return expr
                    value = math.fmod(left, right) if is_float \
                        else float(_c_divmod(int(left), int(right))[1])
            except (ArithmeticError, ValueError):
                return expr
            return _literal(value, is_float, expr.location)
        return expr
    if isinstance(expr, ast.UnaryOp):
        expr.operand = _fold_expr(expr.operand)
        if isinstance(expr.operand, ast.NumberLiteral):
            if expr.op == "-":
                return _literal(-expr.operand.value, expr.operand.is_float, expr.location)
            if expr.op == "!":
                return _literal(float(not expr.operand.value), False, expr.location)
        return expr
    if isinstance(expr, ast.CallExpr):
        expr.args = [_fold_expr(arg) for arg in expr.args]
        if (expr.callee in _FOLDABLE_CALLS and len(expr.args) == 1
                and isinstance(expr.args[0], ast.NumberLiteral)):
            try:
                value = float(_FOLDABLE_CALLS[expr.callee](expr.args[0].value))
            except (ArithmeticError, ValueError):
                return expr
            return _literal(value, True, expr.location)
        return expr
    if isinstance(expr, ast.Assignment):
        expr.value = _fold_expr(expr.value)
        return expr
    if isinstance(expr, ast.Conditional):
        expr.cond = _fold_expr(expr.cond)
        expr.then = _fold_expr(expr.then)
        expr.otherwise = _fold_expr(expr.otherwise)
        if isinstance(expr.cond, ast.NumberLiteral):
            return expr.then if expr.cond.value else expr.otherwise
        return expr
    if isinstance(expr, ast.ConstructorExpr):
        expr.args = [_fold_expr(arg) for arg in expr.args]
        return expr
    if isinstance(expr, ast.IndexExpr):
        expr.base = _fold_expr(expr.base)
        expr.index = _fold_expr(expr.index)
        return expr
    if isinstance(expr, ast.MemberExpr):
        expr.base = _fold_expr(expr.base)
        return expr
    return expr


def _fold_statement(stmt: ast.Statement) -> None:
    if isinstance(stmt, ast.Block):
        for child in stmt.statements:
            _fold_statement(child)
    elif isinstance(stmt, ast.DeclStatement):
        if stmt.init is not None:
            stmt.init = _fold_expr(stmt.init)
    elif isinstance(stmt, ast.ExprStatement):
        stmt.expr = _fold_expr(stmt.expr)
    elif isinstance(stmt, ast.IfStatement):
        stmt.cond = _fold_expr(stmt.cond)
        _fold_statement(stmt.then_branch)
        if stmt.else_branch is not None:
            _fold_statement(stmt.else_branch)
    elif isinstance(stmt, ast.ForStatement):
        if stmt.init is not None:
            _fold_statement(stmt.init)
        if stmt.cond is not None:
            stmt.cond = _fold_expr(stmt.cond)
        if stmt.update is not None:
            stmt.update = _fold_expr(stmt.update)
        _fold_statement(stmt.body)
    elif isinstance(stmt, ast.WhileStatement):
        stmt.cond = _fold_expr(stmt.cond)
        _fold_statement(stmt.body)
    elif isinstance(stmt, ast.DoWhileStatement):
        _fold_statement(stmt.body)
        stmt.cond = _fold_expr(stmt.cond)
    elif isinstance(stmt, ast.ReturnStatement):
        if stmt.value is not None:
            stmt.value = _fold_expr(stmt.value)


def fold_constants(func: ast.FunctionDef, in_place: bool = False) -> ast.FunctionDef:
    """Return a copy of ``func`` with constant arithmetic folded.

    Pass ``in_place=True`` to mutate (and return) the original definition.
    Folding invalidates any type annotations previously attached by the
    semantic analyzer, so callers should re-analyze afterwards.
    """
    target = func if in_place else ast.clone(func)
    _fold_statement(target.body)
    return target
