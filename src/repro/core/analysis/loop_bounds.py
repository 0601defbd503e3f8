"""Loop trip-count analysis.

Brook Auto requires that the maximum trip count of every loop in a kernel
can be deduced statically (paper, section 4: "we enforce upperbounds to
the loop constructs in the kernels, so that the maximum trip count can be
deduced").  This module implements that deduction for the canonical loop
forms used by the Brook+ reference applications::

    for (i = START; i < END;  i = i + STEP)   // also <=, >, >=, +=, -=, ++
    for (i = START; i < n;    i = i + STEP)   // n a scalar parameter with a
                                              // declared upper bound

``while`` and ``do``/``while`` loops, and ``for`` loops whose bound cannot
be resolved to a constant, are reported as unbounded; the certification
checker turns those reports into rule violations.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from .. import ast_nodes as ast

__all__ = ["LoopBound", "LoopBoundAnalysis", "analyze_loop_bounds"]


@dataclass
class LoopBound:
    """Result of analysing a single loop."""

    loop: ast.Statement
    kind: str  # "for", "while" or "do-while"
    max_trip_count: Optional[int] = None
    reason: str = ""

    @property
    def is_bounded(self) -> bool:
        return self.max_trip_count is not None


@dataclass
class LoopBoundAnalysis:
    """Loop bounds of one kernel, plus the product of nested bounds."""

    kernel_name: str
    loops: List[LoopBound] = field(default_factory=list)

    @property
    def all_bounded(self) -> bool:
        return all(loop.is_bounded for loop in self.loops)

    @property
    def unbounded(self) -> List[LoopBound]:
        return [loop for loop in self.loops if not loop.is_bounded]

    @property
    def max_total_iterations(self) -> Optional[int]:
        """Worst-case product of every loop bound (None when unbounded)."""
        if not self.all_bounded:
            return None
        total = 1
        for loop in self.loops:
            total *= max(1, loop.max_trip_count)
        return total


def _eval_const(expr: ast.Expression, env: Dict[str, float]) -> Optional[float]:
    """Evaluate ``expr`` to a constant using ``env`` for named values."""
    expr = ast.unconverted(expr)
    if isinstance(expr, ast.NumberLiteral):
        return float(expr.value)
    if isinstance(expr, ast.Identifier):
        return env.get(expr.name)
    if isinstance(expr, ast.UnaryOp):
        value = _eval_const(expr.operand, env)
        if value is None:
            return None
        if expr.op == "-":
            return -value
        if expr.op == "!":
            return float(not value)
        return value
    if isinstance(expr, ast.BinaryOp):
        left = _eval_const(expr.left, env)
        right = _eval_const(expr.right, env)
        if left is None or right is None:
            return None
        try:
            if expr.op == "+":
                return left + right
            if expr.op == "-":
                return left - right
            if expr.op == "*":
                return left * right
            if expr.op == "/":
                return left / right if right != 0 else None
            if expr.op == "%":
                return math.fmod(left, right) if right != 0 else None
        except (ArithmeticError, ValueError):
            return None
        return None
    if isinstance(expr, ast.CallExpr) and expr.callee in ("min", "max"):
        values = [_eval_const(arg, env) for arg in expr.args]
        if any(v is None for v in values):
            return None
        return min(values) if expr.callee == "min" else max(values)
    return None


# The syntactic matchers the analyses share.  They, ``_eval_const`` and
# the abstract evaluators of ``ranges`` and ``sharding`` are where the
# analyses read through the conversions the semantic analyzer inserted.
def _var_name(expr: ast.Expression) -> Optional[str]:
    """The variable ``expr`` reads, if it is one."""
    expr = ast.unconverted(expr)
    return expr.name if isinstance(expr, ast.Identifier) else None


def _is_var(expr: ast.Expression, var: str) -> bool:
    """Whether ``expr`` reads ``var``."""
    return _var_name(expr) == var


def _literal(expr: ast.Expression) -> Optional[float]:
    """The value of ``expr`` when it is a number literal, maybe negated."""
    expr = ast.unconverted(expr)
    if isinstance(expr, ast.NumberLiteral):
        return float(expr.value)
    if isinstance(expr, ast.UnaryOp) and expr.op == "-":
        inner = _literal(expr.operand)
        if inner is not None:
            return -inner
    return None


def _offset(expr: ast.Expression) -> Optional[Tuple[str, float]]:
    """``(name, c)`` when ``expr`` is ``name + c``, ``c + name`` or
    ``name - c`` (then ``(name, -c)``) for a literal ``c``."""
    expr = ast.unconverted(expr)
    if not isinstance(expr, ast.BinaryOp) or expr.op not in ("+", "-"):
        return None
    name, c = _var_name(expr.left), _literal(expr.right)
    if name is not None and c is not None:
        return name, c if expr.op == "+" else -c
    name, c = _var_name(expr.right), _literal(expr.left)
    if expr.op == "+" and name is not None and c is not None:
        return name, c
    return None


def _loop_variable(stmt: ast.ForStatement) -> Optional[str]:
    init = stmt.init
    if isinstance(init, ast.DeclStatement):
        return init.name
    if isinstance(init, ast.ExprStatement) and isinstance(init.expr, ast.Assignment):
        target = init.expr.target
        if isinstance(target, ast.Identifier):
            return target.name
    return None


def _initial_value(stmt: ast.ForStatement, env: Dict[str, float]) -> Optional[float]:
    init = stmt.init
    if isinstance(init, ast.DeclStatement) and init.init is not None:
        return _eval_const(init.init, env)
    if isinstance(init, ast.ExprStatement) and isinstance(init.expr, ast.Assignment):
        return _eval_const(init.expr.value, env)
    return None


def _step_value(stmt: ast.ForStatement, var: str, env: Dict[str, float]) -> Optional[float]:
    """Signed per-iteration increment of the loop variable, or None."""
    update = stmt.update
    if not isinstance(update, ast.Assignment):
        return None
    target = update.target
    if not isinstance(target, ast.Identifier) or target.name != var:
        return None
    if update.op == "+=":
        return _eval_const(update.value, env)
    if update.op == "-=":
        value = _eval_const(update.value, env)
        return None if value is None else -value
    if update.op == "*=":
        factor = _eval_const(update.value, env)
        if factor is None or factor <= 1:
            return None
        # Geometric loops (i *= 2) are bounded; the caller handles them by
        # returning the factor with a marker (handled in _for_bound).
        return None
    if update.op == "=":
        value = ast.unconverted(update.value)
        if isinstance(value, ast.BinaryOp) and _is_var(value.left, var):
            delta = _eval_const(value.right, env)
            if delta is None:
                return None
            if value.op == "+":
                return delta
            if value.op == "-":
                return -delta
        if isinstance(value, ast.BinaryOp) and _is_var(value.right, var) \
                and value.op == "+":
            return _eval_const(value.left, env)
    return None


def _geometric_factor(stmt: ast.ForStatement, var: str, env: Dict[str, float]) -> Optional[float]:
    """Return the multiplicative factor of ``i *= k`` / ``i = i * k`` loops."""
    update = stmt.update
    if not isinstance(update, ast.Assignment):
        return None
    target = update.target
    if not isinstance(target, ast.Identifier) or target.name != var:
        return None
    if update.op == "*=":
        return _eval_const(update.value, env)
    value = ast.unconverted(update.value)
    if update.op == "=" and isinstance(value, ast.BinaryOp) and value.op == "*":
        if _is_var(value.left, var):
            return _eval_const(value.right, env)
        if _is_var(value.right, var):
            return _eval_const(value.left, env)
    return None


def _for_bound(stmt: ast.ForStatement, env: Dict[str, float]) -> LoopBound:
    var = _loop_variable(stmt)
    if var is None:
        return LoopBound(stmt, "for", None, "loop variable could not be identified")
    start = _initial_value(stmt, env)
    if start is None:
        return LoopBound(stmt, "for", None,
                         f"initial value of {var!r} is not a compile-time constant")
    cond = stmt.cond
    if not isinstance(cond, ast.BinaryOp) or cond.op not in ("<", "<=", ">", ">=", "!="):
        return LoopBound(stmt, "for", None, "loop condition is not a simple comparison")
    # Normalise to: var OP limit.
    if _is_var(cond.left, var):
        limit = _eval_const(cond.right, env)
        op = cond.op
    elif _is_var(cond.right, var):
        limit = _eval_const(cond.left, env)
        op = {"<": ">", "<=": ">=", ">": "<", ">=": "<=", "!=": "!="}[cond.op]
    else:
        return LoopBound(stmt, "for", None, "loop condition does not test the loop variable")
    if limit is None:
        return LoopBound(
            stmt, "for", None,
            "loop limit is not a compile-time constant (declare a bound for the "
            "parameter via KernelBounds to make this loop certifiable)",
        )
    step = _step_value(stmt, var, env)
    if step is not None and step != 0:
        if op in ("<", "<=", "!="):
            distance = limit - start + (1 if op == "<=" else 0)
            if step <= 0:
                return LoopBound(stmt, "for", None, "loop steps away from its limit")
            trips = max(0, math.ceil(distance / step))
        else:  # ">", ">="
            distance = start - limit + (1 if op == ">=" else 0)
            if step >= 0:
                return LoopBound(stmt, "for", None, "loop steps away from its limit")
            trips = max(0, math.ceil(distance / -step))
        return LoopBound(stmt, "for", int(trips), "canonical counted loop")
    factor = _geometric_factor(stmt, var, env)
    if factor is not None and factor > 1 and start > 0 and op in ("<", "<=") and limit > 0:
        trips = 0
        value = start
        while (value < limit if op == "<" else value <= limit) and trips < 64:
            value *= factor
            trips += 1
        return LoopBound(stmt, "for", trips, "geometric loop")
    return LoopBound(stmt, "for", None, "loop update is not a constant step")


class _LoopCollector:
    """Walk a kernel body collecting every loop with its deduced bound."""

    def __init__(self, env: Dict[str, float],
                 trip_overrides: Optional[Dict[int, int]] = None):
        self.env = env
        self.trip_overrides = trip_overrides or {}
        self.loops: List[LoopBound] = []

    def _apply_override(self, bound: LoopBound) -> LoopBound:
        """Combine with the interval-analysis trip count, never loosening.

        The override (keyed by ``id(loop_node)``, from
        :func:`repro.core.analysis.ranges.range_trip_overrides`) can bound
        loops the syntactic deduction cannot (limit held in a local
        variable) and tighten bounds it can, but the minimum of the two
        deductions is always taken so a bound can only ever shrink.
        """
        override = self.trip_overrides.get(id(bound.loop))
        if override is None:
            return bound
        if bound.max_trip_count is None:
            return LoopBound(bound.loop, bound.kind, int(override),
                             "bounded by interval range analysis")
        if override < bound.max_trip_count:
            return LoopBound(bound.loop, bound.kind, int(override),
                             bound.reason + "; tightened by range analysis")
        return bound

    def visit(self, node: ast.Node) -> None:
        if isinstance(node, ast.ForStatement):
            self.loops.append(self._apply_override(_for_bound(node, self.env)))
        elif isinstance(node, ast.WhileStatement):
            self.loops.append(LoopBound(
                node, "while", None,
                "while loops have no statically deducible trip count",
            ))
        elif isinstance(node, ast.DoWhileStatement):
            self.loops.append(LoopBound(
                node, "do-while", None,
                "do/while loops have no statically deducible trip count",
            ))
        for child in node.children():
            self.visit(child)


def analyze_loop_bounds(
    kernel: ast.FunctionDef,
    param_bounds: Optional[Dict[str, float]] = None,
    trip_overrides: Optional[Dict[int, int]] = None,
) -> LoopBoundAnalysis:
    """Deduce the maximum trip count of every loop in ``kernel``.

    Args:
        kernel: The kernel (or helper function) definition to analyse.
        param_bounds: Optional mapping from scalar parameter names to their
            declared maximum value; Brook Auto programs use this to make
            data-dependent loops certifiable (e.g. ``numSteps <= 255`` for
            binomial option pricing).
        trip_overrides: Interval-analysis trip counts keyed by
            ``id(loop_node)`` (see
            :func:`repro.core.analysis.ranges.range_trip_overrides`);
            combined with the syntactic deduction by taking the minimum,
            so bounds never loosen.
    """
    env: Dict[str, float] = dict(param_bounds or {})
    collector = _LoopCollector(env, trip_overrides)
    collector.visit(kernel.body)
    return LoopBoundAnalysis(kernel_name=kernel.name, loops=collector.loops)
