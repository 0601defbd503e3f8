"""Loop trip-count records.

Brook Auto requires that the maximum trip count of every loop in a kernel
can be deduced statically (paper, section 4: "we enforce upperbounds to
the loop constructs in the kernels, so that the maximum trip count can be
deduced").  The interval analysis (:mod:`repro.core.analysis.ranges`)
makes that deduction: its walker records one :class:`LoopBound` per loop,
for the counted forms::

    for (i = START; i < LIMIT; i = i + STEP)  // also <=, >, >=, += , -=,
                                              // ++, i = STEP + i, and !=
                                              // when STEP divides the
                                              // distance exactly
    for (i = START; i < LIMIT; i = i * F)     // geometric, F > 1

where START, LIMIT and STEP are intervals: constant expressions,
``min``/``max`` of them, or scalar parameters with a range declared in
the kernel's range spec.  ``while`` and ``do``/``while`` loops, and
``for`` loops whose body writes the index or a variable the condition or
update reads (MISRA C:2012 Rule 14.2), are reported as unbounded; the
certification checker turns those reports into rule violations.

This module holds the records, :func:`analyze_loop_bounds` (the view of
the walker's record) and the syntactic matchers the analyses share.
"""

from __future__ import annotations

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


# The syntactic matchers the analyses share.  They and the abstract
# evaluators of ``ranges`` and ``sharding`` are where the analyses read
# through the conversions the semantic analyzer inserted.
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


_LOOPS = (ast.ForStatement, ast.WhileStatement, ast.DoWhileStatement)


def _has_loops(func: ast.FunctionDef) -> bool:
    """Whether ``func``'s body holds a loop."""
    return any(isinstance(node, _LOOPS) for node in func.body.walk())


def analyze_loop_bounds(
    kernel: ast.FunctionDef,
    spec: Optional[dict] = None,
    helpers: Optional[Dict[str, ast.FunctionDef]] = None,
) -> LoopBoundAnalysis:
    """Deduce the maximum trip count of every loop in ``kernel``.

    The view of :func:`~repro.core.analysis.ranges.analyze_kernel_ranges`'
    loop record; a kernel without loops is not walked.

    Args:
        kernel: The kernel (or helper function) definition to analyse.
        spec: The kernel's range spec; a ``params`` entry ``{"n": (lo,
            hi)}`` declares the range of a scalar parameter that bounds
            a data-dependent loop (e.g. ``num_steps <= 63`` for binomial
            option pricing).
        helpers: Helper functions callable from the kernel.
    """
    if not _has_loops(kernel):
        return LoopBoundAnalysis(kernel_name=kernel.name)
    from .ranges import analyze_kernel_ranges  # ranges imports this module
    return analyze_kernel_ranges(kernel, spec, helpers).loop_bounds
