"""brooklint rule implementations.

Each rule inspects one kernel AST plus the interval analysis facts from
:mod:`repro.core.analysis.ranges` and yields :class:`Diagnostic` records.
Program-level rules (fusion boundaries) live at the bottom and inspect
kernel pairs.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Set, Tuple

from ... import ast_nodes as ast
from ...exec.vectorized import is_straight_line
from ...transforms.fuse import check_fusable
from ..ranges import (Interval, KernelRangeAnalysis, RangeContext)
from .diagnostics import Diagnostic, LINT_RULES, LintSeverity

__all__ = ["kernel_diagnostics", "program_diagnostics", "kernel_facts",
           "vectorization_diagnostics"]


def _diag(code: str, message: str, kernel: str, location,
          source_file: str, severity: Optional[LintSeverity] = None
          ) -> Diagnostic:
    rule = LINT_RULES[code]
    return Diagnostic(rule=code, severity=severity or rule.severity,
                      message=message, kernel=kernel, location=location,
                      source_file=source_file)


# --------------------------------------------------------------------------- #
# BL-101 / BL-102: gather bounds
# --------------------------------------------------------------------------- #
def _fmt_interval(interval: Interval, ctx: RangeContext) -> str:
    lo = interval.numeric_lo(ctx)
    hi = interval.numeric_hi(ctx)
    return f"[{lo:g}, {hi:g}]"


def _check_gathers(kernel: ast.FunctionDef, analysis: KernelRangeAnalysis,
                   ctx: RangeContext, source_file: str) -> Iterable[Diagnostic]:
    for site in analysis.gather_sites:
        where = (f"gather {site.param!r} with row index "
                 f"{_fmt_interval(site.rows, ctx)} and column index "
                 f"{_fmt_interval(site.cols, ctx)}")
        if site.verdict == "oob":
            yield _diag(
                "BL-101",
                f"{where}: {site.detail}; the CPU backend raises "
                "KernelLaunchError at run time and GLES2 silently clamps",
                kernel.name, site.location, source_file)
        elif site.verdict != "proved":
            yield _diag(
                "BL-102",
                f"{where}: {site.detail}; backends diverge on "
                "out-of-bounds indices (CPU raises, GLES2 edge-clamps) — "
                "clamp the index explicitly or declare tighter bounds",
                kernel.name, site.location, source_file)


# --------------------------------------------------------------------------- #
# BL-103: possible division by zero
# --------------------------------------------------------------------------- #
def _divisor_safe(divisor: Interval, ctx: RangeContext) -> bool:
    lo = divisor.numeric_lo(ctx)
    hi = divisor.numeric_hi(ctx)
    if lo > 0 or (lo == 0 and divisor.lo_strict):
        return True
    if hi < 0 or (hi == 0 and divisor.hi_strict):
        return True
    return False


def _check_divisions(kernel: ast.FunctionDef,
                     analysis: KernelRangeAnalysis, ctx: RangeContext,
                     source_file: str) -> Iterable[Diagnostic]:
    for site in analysis.division_sites:
        if _divisor_safe(site.divisor, ctx):
            continue
        lo = site.divisor.numeric_lo(ctx)
        hi = site.divisor.numeric_hi(ctx)
        if lo == hi == 0:
            yield _diag(
                "BL-103",
                f"divisor of {site.op!r} is always zero",
                kernel.name, site.location, source_file,
                severity=LintSeverity.ERROR)
        else:
            yield _diag(
                "BL-103",
                f"divisor of {site.op!r} has range [{lo:g}, {hi:g}] which "
                "includes zero; guard it (max/clamp) or declare a "
                "positive parameter range",
                kernel.name, site.location, source_file)


# --------------------------------------------------------------------------- #
# BL-104: float == / !=
# --------------------------------------------------------------------------- #
def _int_locals(kernel: ast.FunctionDef) -> Set[str]:
    names: Set[str] = set()
    for node in kernel.body.walk():
        if isinstance(node, ast.DeclStatement) and \
                getattr(node.decl_type, "is_integer", False):
            names.add(node.name)
    for param in kernel.params:
        if getattr(param.type, "is_integer", False):
            names.add(param.name)
    return names


def _is_integral_expr(expr: ast.Expression, int_names: Set[str]) -> bool:
    if isinstance(expr, ast.NumberLiteral):
        return not expr.is_float
    if isinstance(expr, ast.BoolLiteral):
        return True
    if isinstance(expr, ast.Identifier):
        return expr.name in int_names
    if isinstance(expr, ast.UnaryOp):
        return _is_integral_expr(expr.operand, int_names)
    if isinstance(expr, ast.BinaryOp) and expr.op in ("+", "-", "*", "%"):
        return (_is_integral_expr(expr.left, int_names)
                and _is_integral_expr(expr.right, int_names))
    return False


def _check_float_equality(kernel: ast.FunctionDef,
                          source_file: str) -> Iterable[Diagnostic]:
    int_names = _int_locals(kernel)
    for node in kernel.body.walk():
        if isinstance(node, ast.BinaryOp) and node.op in ("==", "!="):
            if _is_integral_expr(node.left, int_names) and \
                    _is_integral_expr(node.right, int_names):
                continue
            yield _diag(
                "BL-104",
                f"floating-point values compared with {node.op!r}; exact "
                "equality is not portable across backends — compare "
                "against a tolerance or restructure with </>",
                kernel.name, node.location, source_file)


# --------------------------------------------------------------------------- #
# BL-105: read before any assignment
# --------------------------------------------------------------------------- #
def _target_base(expr: ast.Expression) -> Optional[str]:
    """Variable name an assignment target writes to (None if not a local)."""
    while isinstance(expr, (ast.MemberExpr, ast.IndexExpr)):
        expr = expr.base
    if isinstance(expr, ast.Identifier):
        return expr.name
    return None


class _UninitScan:
    """Linear execution-order scan warning on reads that *no* path could
    have preceded with an assignment.  Union semantics: an assignment in
    any earlier statement (even a non-taken branch) counts, so the rule
    has no false positives on conditional initialisation patterns."""

    def __init__(self, kernel: ast.FunctionDef, source_file: str):
        self.kernel = kernel
        self.source_file = source_file
        self.uninit: Set[str] = set()
        self.reported: Set[str] = set()
        self.diagnostics: List[Diagnostic] = []

    def run(self) -> List[Diagnostic]:
        self._stmt(self.kernel.body)
        return self.diagnostics

    # ---- statements -------------------------------------------------- #
    def _stmt(self, stmt: ast.Statement) -> None:
        if stmt is None:
            return
        if isinstance(stmt, ast.Block):
            for inner in stmt.statements:
                self._stmt(inner)
        elif isinstance(stmt, ast.DeclStatement):
            if stmt.init is not None:
                self._expr(stmt.init)
                self.uninit.discard(stmt.name)
            else:
                self.uninit.add(stmt.name)
        elif isinstance(stmt, ast.ExprStatement):
            self._expr(stmt.expr)
        elif isinstance(stmt, ast.IfStatement):
            self._expr(stmt.cond)
            self._stmt(stmt.then_branch)
            self._stmt(stmt.else_branch)
        elif isinstance(stmt, ast.ForStatement):
            self._stmt(stmt.init)
            if stmt.cond is not None:
                self._expr(stmt.cond)
            self._stmt(stmt.body)
            if stmt.update is not None:
                self._expr(stmt.update)
        elif isinstance(stmt, ast.WhileStatement):
            self._expr(stmt.cond)
            self._stmt(stmt.body)
        elif isinstance(stmt, ast.DoWhileStatement):
            self._stmt(stmt.body)
            self._expr(stmt.cond)
        elif isinstance(stmt, ast.ReturnStatement):
            if stmt.value is not None:
                self._expr(stmt.value)

    # ---- expressions ------------------------------------------------- #
    def _expr(self, expr: ast.Expression) -> None:
        if expr is None:
            return
        if isinstance(expr, ast.Assignment):
            self._expr(expr.value)
            base = _target_base(expr.target)
            if expr.op != "=":
                self._read_target(expr.target)
            elif isinstance(expr.target, (ast.MemberExpr, ast.IndexExpr)):
                # Writing one component still needs the container bound,
                # but reading other components is what BL-105 tracks; the
                # container itself is not "read" by a pure store.
                pass
            if base is not None:
                self.uninit.discard(base)
        elif isinstance(expr, ast.Identifier):
            self._read(expr)
        elif isinstance(expr, ast.UnaryOp):
            if expr.op in ("++", "--"):
                self._read_target(expr.operand)
                base = _target_base(expr.operand)
                if base is not None:
                    self.uninit.discard(base)
            else:
                self._expr(expr.operand)
        else:
            for child in expr.children():
                if isinstance(child, ast.Expression):
                    self._expr(child)

    def _read_target(self, target: ast.Expression) -> None:
        base = _target_base(target)
        if base is not None:
            self._read(ast.Identifier(location=target.location, name=base))

    def _read(self, ident: ast.Identifier) -> None:
        name = ident.name
        if name in self.uninit and name not in self.reported:
            self.reported.add(name)
            self.diagnostics.append(_diag(
                "BL-105",
                f"local {name!r} is read before any assignment",
                self.kernel.name, ident.location, self.source_file))


# --------------------------------------------------------------------------- #
# BL-106 / BL-107: dead stores and unassigned outputs
# --------------------------------------------------------------------------- #
def _reads_and_writes(kernel: ast.FunctionDef) -> Tuple[Set[str], Set[str]]:
    """Names read anywhere / names written anywhere in the body."""
    reads: Set[str] = set()
    writes: Set[str] = set()

    def visit(expr: ast.Expression) -> None:
        if expr is None:
            return
        if isinstance(expr, ast.Assignment):
            visit(expr.value)
            base = _target_base(expr.target)
            if base is not None:
                writes.add(base)
                if expr.op != "=" or not isinstance(expr.target,
                                                    ast.Identifier):
                    reads.add(base)
            # Index expressions inside the target are reads.
            target = expr.target
            while isinstance(target, (ast.MemberExpr, ast.IndexExpr)):
                if isinstance(target, ast.IndexExpr):
                    visit(target.index)
                target = target.base
        elif isinstance(expr, ast.Identifier):
            reads.add(expr.name)
        elif isinstance(expr, ast.UnaryOp) and expr.op in ("++", "--"):
            base = _target_base(expr.operand)
            if base is not None:
                writes.add(base)
                reads.add(base)
        elif isinstance(expr, ast.IndexOfExpr):
            pass
        else:
            for child in expr.children():
                if isinstance(child, ast.Expression):
                    visit(child)

    for node in kernel.body.walk():
        if isinstance(node, ast.ExprStatement):
            visit(node.expr)
        elif isinstance(node, ast.DeclStatement) and node.init is not None:
            visit(node.init)
        elif isinstance(node, ast.IfStatement):
            visit(node.cond)
        elif isinstance(node, (ast.WhileStatement, ast.DoWhileStatement)):
            visit(node.cond)
        elif isinstance(node, ast.ForStatement):
            if node.cond is not None:
                visit(node.cond)
            if node.update is not None:
                visit(node.update)
        elif isinstance(node, ast.ReturnStatement) and node.value is not None:
            visit(node.value)
    return reads, writes


def _check_dead_stores(kernel: ast.FunctionDef,
                       source_file: str) -> Iterable[Diagnostic]:
    reads, _writes = _reads_and_writes(kernel)
    for node in kernel.body.walk():
        if isinstance(node, ast.DeclStatement) and node.name not in reads:
            yield _diag(
                "BL-106",
                f"local {node.name!r} is written but never read",
                kernel.name, node.location, source_file)


def _check_outputs(kernel: ast.FunctionDef,
                   source_file: str) -> Iterable[Diagnostic]:
    _reads, writes = _reads_and_writes(kernel)
    for param in kernel.output_params:
        if param.name not in writes:
            yield _diag(
                "BL-107",
                f"out stream {param.name!r} is never assigned; its "
                "elements keep undefined backend contents",
                kernel.name, param.location, source_file)


# --------------------------------------------------------------------------- #
# BL-110: explain misses of the straight-line whole-array program
# --------------------------------------------------------------------------- #
_STRAIGHT = (ast.Block, ast.DeclStatement, ast.ExprStatement)


def _check_straight_line(kernel: ast.FunctionDef, source_file: str,
                     vector_report=None) -> Iterable[Diagnostic]:
    if not kernel.is_kernel:
        return
    if is_straight_line(kernel.body):
        return
    for node in kernel.body.walk():
        if isinstance(node, ast.Statement) and not isinstance(node, _STRAIGHT):
            message = (f"kernel misses the straight-line whole-array "
                       f"(BV-300) program: first divergent construct is a "
                       f"{type(node).__name__}")
            # Cross-reference the brookvec verdict: the miss is only a
            # real interpreter fallback when brookvec rejects the kernel
            # too, and then the blocking construct or obligation (with
            # its location) is what the user must fix.
            if vector_report is not None and vector_report.vectorizable:
                how = ("masked vector execution"
                       if vector_report.divergent
                       else "unmasked control flow")
                message += (f"; brookvec still runs it whole-array "
                            f"({vector_report.verdict}: {how})")
            elif vector_report is not None:
                blocking = vector_report.blocking() or vector_report.reason
                line = getattr(vector_report.location, "line", None)
                where = f" (line {line})" if line is not None else ""
                message += (f"; brookvec concurs ({vector_report.verdict}: "
                            f"{blocking}{where}) so it runs on the masked "
                            "interpreter")
            else:
                message += "; it runs on the masked interpreter instead"
            yield _diag("BL-110", message, kernel.name, node.location,
                        source_file)
            return


# --------------------------------------------------------------------------- #
# BV-3xx: brookvec vectorization verdicts
# --------------------------------------------------------------------------- #
def vectorization_diagnostics(kernel: ast.FunctionDef, vector_report,
                              source_file: str) -> List[Diagnostic]:
    """One BV-3xx note per kernel, built from a brookvec report."""
    if not kernel.is_kernel:
        return []
    verdict = vector_report.verdict
    message = vector_report.reason or LINT_RULES[verdict].summary
    if verdict == "BV-301":
        divergent = sum(1 for b in vector_report.branches
                        if b.kind == "divergent")
        bounded = [l for l in vector_report.loops
                   if l.kind == "bounded-divergent"]
        extras = []
        if divergent:
            extras.append(f"{divergent} divergent branch(es)")
        for loop in bounded:
            extras.append(f"{loop.construct} loop bounded at "
                          f"{loop.trip_bound} trips")
        if extras:
            message += " [" + ", ".join(extras) + "]"
    return [_diag(verdict, message, kernel.name, vector_report.location,
                  source_file)]


# --------------------------------------------------------------------------- #
# Program-level: BL-111 fusion boundaries
# --------------------------------------------------------------------------- #
def program_diagnostics(kernels: List[ast.FunctionDef],
                        source_file: str) -> List[Diagnostic]:
    """Explain why consecutive kernels of a multi-kernel program cannot
    fuse (producer -> consumer in definition order)."""
    diagnostics: List[Diagnostic] = []
    maps = [k for k in kernels if k.is_kernel]
    for producer, consumer in zip(maps, maps[1:]):
        if not producer.output_params or not consumer.stream_params:
            continue
        connections = {consumer.stream_params[0].name:
                       producer.output_params[0].name}
        reason = check_fusable(producer, consumer, connections)
        if reason is not None:
            diagnostics.append(_diag(
                "BL-111",
                f"{producer.name!r} -> {consumer.name!r} cannot fuse: "
                f"{reason}",
                consumer.name, consumer.location, source_file))
    return diagnostics


# --------------------------------------------------------------------------- #
# Entry point per kernel
# --------------------------------------------------------------------------- #
def kernel_diagnostics(kernel: ast.FunctionDef,
                       analysis: KernelRangeAnalysis, ctx: RangeContext,
                       source_file: str,
                       vector_report=None) -> List[Diagnostic]:
    diagnostics: List[Diagnostic] = []
    diagnostics.extend(_check_gathers(kernel, analysis, ctx, source_file))
    diagnostics.extend(_check_divisions(kernel, analysis, ctx, source_file))
    diagnostics.extend(_check_float_equality(kernel, source_file))
    diagnostics.extend(_UninitScan(kernel, source_file).run())
    diagnostics.extend(_check_dead_stores(kernel, source_file))
    diagnostics.extend(_check_outputs(kernel, source_file))
    diagnostics.extend(_check_straight_line(kernel, source_file,
                                            vector_report))
    return diagnostics


def kernel_facts(analysis: KernelRangeAnalysis,
                 ctx: RangeContext) -> Dict[str, int]:
    divisions_safe = sum(1 for s in analysis.division_sites
                         if _divisor_safe(s.divisor, ctx))
    return {
        "gathers": len(analysis.gather_sites),
        "gathers_proved": analysis.gathers_proved,
        "divisions": len(analysis.division_sites),
        "divisions_safe": divisions_safe,
    }
