"""brookvec — vectorization-legality analysis for Brook kernels.

The masked interpreter (:mod:`repro.core.exec.evaluator`) executes every
kernel whole-array already, but pays per-AST-node Python dispatch and a
mask reduction per operation.  The vector path
(:mod:`repro.core.exec.vectorized`) removes that cost — *if* it is legal
to evaluate the kernel body as one whole-array NumPy program per launch.
This module decides that legality statically, in three steps:

1. **Uniformity dataflow.**  Every expression is classified *uniform over
   the launch domain* (scalar parameters, literals, and values computed
   only from them — one value for all lanes) or *varying* (stream
   elements, ``indexof``, gathers, and anything derived from them).  The
   lattice is the two-point chain ``UNIFORM ⊑ VARYING``; assignments
   under divergent control force their targets to VARYING, and loops are
   iterated to a fixpoint.

2. **Divergence classification.**  Every branch is *uniform* (condition
   uniform: all lanes agree, no mask is needed) or *divergent*; every
   loop is *uniform-trip* (uniform condition and no lane-dependent
   ``break``/``continue``/``return``), *bounded-divergent* (lanes exit
   at different trips, but the interval engine
   (:mod:`repro.core.analysis.ranges`) bounds it), or *unvectorizable*
   (no deducible bound — whole-array execution could not be proved to
   terminate like the interpreter does).

3. **Safe-speculation obligations.**  Whole-array evaluation runs every
   statement on *all* lanes; lanes masked out by divergent control still
   compute.  For each gather, division/modulo and integer write that
   executes under a mask, an obligation is emitted and discharged with
   the PR-8 interval engine (:func:`analyze_kernel_ranges`):

   * ``gather-bounds`` — the gather index must be proved inside the
     declared extents, otherwise a dead lane could fault (the CPU
     backend raises, GLES2 silently clamps);
   * ``division-by-zero`` — the divisor interval must exclude zero,
     otherwise a dead lane divides by zero (a trap on scalar targets);
   * ``int-overflow`` — an ``int`` local written under a mask must have
     a value interval that provably fits ``int32``.

   Any unproved obligation demotes the verdict to BV-303 and the kernel
   stays on the masked interpreter — which only evaluates divergent
   regions when at least one lane is live, and is the bitwise reference.

Verdicts are stable ``BV-3xx`` codes (mirroring the ``BL-1xx`` brooklint
codes) so CI gates and SARIF consumers can reference them:

========  ==================================================================
BV-300    vectorized: no divergent construct, unmasked whole-array program
BV-301    masked-divergent-vectorized: divergent constructs present, every
          speculation obligation proved; lane-merge via ``np.where``
BV-302    fallback: a construct outside the vectorizable subset (with the
          precise construct and location)
BV-303    speculation-obligation-unproved: legal construct mix, but an
          obligation could not be discharged (with the failing interval)
========  ==================================================================
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set, Tuple

from .. import ast_nodes as ast
from ..builtins import lookup_builtin
from ..types import ParamKind, ScalarKind
from .loop_bounds import _literal
from .ranges import Interval, ProgramRanges, RangeContext

__all__ = [
    "VERDICT_VECTORIZED",
    "VERDICT_MASKED",
    "VERDICT_FALLBACK",
    "VERDICT_UNPROVED",
    "Obligation",
    "ControlConstruct",
    "VectorizationReport",
    "analyze_kernel_vectorization",
]

VERDICT_VECTORIZED = "BV-300"
VERDICT_MASKED = "BV-301"
VERDICT_FALLBACK = "BV-302"
VERDICT_UNPROVED = "BV-303"

_INT32_MIN = -(2 ** 31)
_INT32_MAX = 2 ** 31 - 1


@dataclass
class Obligation:
    """One safe-speculation proof obligation for a masked statement."""

    #: "gather-bounds", "division-by-zero" or "int-overflow".
    kind: str
    #: Name the obligation is about (gather param, operator, local).
    subject: str
    proved: bool
    location: Optional[object] = None
    #: Human-readable proof (or failure) summary, e.g. the failing interval.
    detail: str = ""

    def to_dict(self) -> Dict:
        return {
            "kind": self.kind,
            "subject": self.subject,
            "proved": self.proved,
            "line": getattr(self.location, "line", None),
            "detail": self.detail,
        }


@dataclass
class ControlConstruct:
    """Classification of one branch or loop."""

    #: "if", "for", "while" or "do-while".
    construct: str
    #: Branches: "uniform" | "divergent".
    #: Loops: "uniform-trip" | "bounded-divergent" | "unvectorizable".
    kind: str
    location: Optional[object] = None
    detail: str = ""
    #: Static trip bound for bounded loops (None for branches).
    trip_bound: Optional[int] = None

    def to_dict(self) -> Dict:
        return {
            "construct": self.construct,
            "kind": self.kind,
            "line": getattr(self.location, "line", None),
            "detail": self.detail,
            "trip_bound": self.trip_bound,
        }


@dataclass
class VectorizationReport:
    """Everything brookvec deduced about one kernel."""

    kernel_name: str
    verdict: str = VERDICT_VECTORIZED
    reason: str = ""
    location: Optional[object] = None
    branches: List[ControlConstruct] = field(default_factory=list)
    loops: List[ControlConstruct] = field(default_factory=list)
    obligations: List[Obligation] = field(default_factory=list)
    #: Locals classified uniform at fixpoint (diagnostic aid).
    uniform_locals: List[str] = field(default_factory=list)

    @property
    def vectorizable(self) -> bool:
        return self.verdict in (VERDICT_VECTORIZED, VERDICT_MASKED)

    @property
    def divergent(self) -> bool:
        return (any(b.kind == "divergent" for b in self.branches)
                or any(l.kind != "uniform-trip" for l in self.loops))

    @property
    def obligations_proved(self) -> int:
        return sum(1 for o in self.obligations if o.proved)

    def blocking(self) -> Optional[str]:
        """Short description of what blocks vectorization (None if nothing)."""
        if self.verdict == VERDICT_FALLBACK:
            return self.reason
        if self.verdict == VERDICT_UNPROVED:
            failed = [o for o in self.obligations if not o.proved]
            if failed:
                first = failed[0]
                return (f"unproved {first.kind} obligation on "
                        f"{first.subject!r}: {first.detail}")
            return self.reason
        return None

    def to_dict(self) -> Dict:
        return {
            "kernel": self.kernel_name,
            "verdict": self.verdict,
            "reason": self.reason,
            "line": getattr(self.location, "line", None),
            "branches": [b.to_dict() for b in self.branches],
            "loops": [l.to_dict() for l in self.loops],
            "obligations": [o.to_dict() for o in self.obligations],
            "uniform_locals": list(self.uniform_locals),
        }

    def to_facts(self) -> Dict[str, int]:
        """Counters for ``LintReport.facts`` / certification evidence."""
        return {
            "vector_verdict": self.verdict,
            "divergent_branches": sum(1 for b in self.branches
                                      if b.kind == "divergent"),
            "divergent_loops": sum(1 for l in self.loops
                                   if l.kind != "uniform-trip"),
            "obligations": len(self.obligations),
            "obligations_proved": self.obligations_proved,
        }


class _Fallback(Exception):
    """Internal: a construct outside the vectorizable subset."""

    def __init__(self, reason: str, location=None):
        super().__init__(reason)
        self.reason = reason
        self.location = location


def _interval_str(interval: Interval, ctx: RangeContext) -> str:
    lo = interval.numeric_lo(ctx)
    hi = interval.numeric_hi(ctx)
    return f"[{lo:g}, {hi:g}]"


def _divisor_proved(divisor: Interval, ctx: RangeContext) -> bool:
    lo = divisor.numeric_lo(ctx)
    hi = divisor.numeric_hi(ctx)
    if lo > 0 or (lo == 0 and divisor.lo_strict):
        return True
    if hi < 0 or (hi == 0 and divisor.hi_strict):
        return True
    return False


def _loc_key(location) -> Tuple:
    return (getattr(location, "line", None), getattr(location, "column", None))


class _Analyzer:
    """Runs the three analysis steps over one kernel."""

    def __init__(self, kernel: ast.FunctionDef,
                 helpers: Dict[str, ast.FunctionDef],
                 spec: Optional[dict],
                 ranges: Optional[ProgramRanges]):
        self.kernel = kernel
        self.helpers = helpers
        self.spec = spec
        self.ranges = ranges or ProgramRanges({kernel.name: kernel},
                                              {kernel.name: spec})
        self.report = VectorizationReport(kernel_name=kernel.name)
        #: name -> True when uniform (absent names are varying).
        self.uniform: Dict[str, bool] = {}
        self._recording = False
        #: (line, col, subject) of gather / division nodes under a mask.
        self._masked_gathers: List[Tuple[Tuple, str]] = []
        self._masked_divisions: List[Tuple[Tuple, str]] = []
        #: int locals written under a mask.
        self._masked_int_writes: Dict[str, object] = {}
        #: helpers called under a mask (their division sites speculate too).
        self._masked_helper_calls: Dict[str, object] = {}
        self._int_locals: Set[str] = {
            p.name for p in kernel.params
            if getattr(p.type, "is_integer", False)
        }

    # ------------------------------------------------------------------ #
    def run(self) -> VectorizationReport:
        kernel = self.kernel
        if not kernel.is_kernel:
            self._fallback("not a kernel", kernel.location)
            return self.report

        for param in kernel.params:
            if param.kind is ParamKind.SCALAR:
                self.uniform[param.name] = True
            else:
                self.uniform[param.name] = False
        for node in kernel.body.walk():
            if isinstance(node, ast.DeclStatement) and \
                    getattr(node.decl_type, "is_integer", False):
                self._int_locals.add(node.name)

        try:
            # Fixpoint for the uniformity lattice: VARYING only grows, so
            # this terminates in at most |locals| + 1 passes.
            for _ in range(32):
                before = dict(self.uniform)
                self._walk_stmt(kernel.body, divergent=False)
                if self.uniform == before:
                    break
            self._recording = True
            self._walk_stmt(kernel.body, divergent=False)
        except _Fallback as exc:
            self._fallback(exc.reason, exc.location)
            return self.report

        self.report.uniform_locals = sorted(
            name for name, is_uniform in self.uniform.items() if is_uniform)
        self._discharge_obligations()
        self._finalize_verdict()
        return self.report

    def _fallback(self, reason: str, location=None) -> None:
        self.report.verdict = VERDICT_FALLBACK
        self.report.reason = reason
        self.report.location = location

    # ------------------------------------------------------------------ #
    # Statement walk (uniformity + divergence + masked-site collection)
    # ------------------------------------------------------------------ #
    def _walk_stmt(self, stmt: ast.Statement, divergent: bool) -> None:
        if stmt is None:
            return
        if isinstance(stmt, ast.Block):
            for child in stmt.statements:
                self._walk_stmt(child, divergent)
            return
        if isinstance(stmt, ast.DeclStatement):
            if stmt.init is not None:
                value_uniform = self._expr(stmt.init, divergent)
            else:
                value_uniform = True
            self._assign(stmt.name, value_uniform, divergent, stmt.location)
            return
        if isinstance(stmt, ast.ExprStatement):
            self._expr(stmt.expr, divergent)
            return
        if isinstance(stmt, ast.IfStatement):
            cond_uniform = self._expr(stmt.cond, divergent)
            body_divergent = divergent or not cond_uniform
            if self._recording:
                self.report.branches.append(ControlConstruct(
                    construct="if",
                    kind="uniform" if cond_uniform else "divergent",
                    location=stmt.location,
                    detail="condition is uniform over the domain"
                    if cond_uniform else
                    "condition varies per lane; branches execute under "
                    "complementary masks"))
            self._walk_stmt(stmt.then_branch, body_divergent)
            self._walk_stmt(stmt.else_branch, body_divergent)
            return
        if isinstance(stmt, (ast.ForStatement, ast.WhileStatement,
                             ast.DoWhileStatement)):
            self._walk_loop(stmt, divergent)
            return
        if isinstance(stmt, ast.ReturnStatement):
            if stmt.value is not None:
                self._expr(stmt.value, divergent)
            return
        if isinstance(stmt, (ast.BreakStatement, ast.ContinueStatement)):
            return
        if isinstance(stmt, ast.GotoStatement):
            raise _Fallback("goto cannot be executed by any Brook backend",
                            stmt.location)
        raise _Fallback(f"unsupported statement {type(stmt).__name__}",
                        stmt.location)

    def _walk_loop(self, stmt, divergent: bool) -> None:
        construct = {ast.ForStatement: "for", ast.WhileStatement: "while",
                     ast.DoWhileStatement: "do-while"}[type(stmt)]
        init = getattr(stmt, "init", None)
        update = getattr(stmt, "update", None)
        if init is not None:
            self._walk_stmt(init, divergent)

        cond_uniform = True
        if stmt.cond is not None:
            cond_uniform = self._expr(stmt.cond, divergent)
        # Lane-dependent exits inside the body (break/continue/return under
        # a varying condition) also diverge the trip count.
        lane_exits = self._has_lane_dependent_exit(stmt.body)
        loop_divergent = (not cond_uniform) or lane_exits
        body_divergent = divergent or loop_divergent

        self._walk_stmt(stmt.body, body_divergent)
        if update is not None:
            self._expr(update, body_divergent)
        if stmt.cond is not None:
            # Re-walk the condition with post-body uniformity (it is
            # re-evaluated each iteration).
            cond_uniform = self._expr(stmt.cond, divergent) and cond_uniform
            loop_divergent = (not cond_uniform) or lane_exits
            body_divergent = divergent or loop_divergent

        if not self._recording:
            return
        if not loop_divergent:
            self.report.loops.append(ControlConstruct(
                construct=construct, kind="uniform-trip",
                location=stmt.location,
                detail="trip count is uniform: all lanes iterate together"))
            return
        bound = self._loop_bound(stmt)
        if bound is None:
            self.report.loops.append(ControlConstruct(
                construct=construct, kind="unvectorizable",
                location=stmt.location,
                detail="lane-divergent loop with no statically deducible "
                       "trip bound"))
            raise _Fallback(
                f"lane-divergent {construct} loop has no statically "
                "deducible trip bound", stmt.location)
        self.report.loops.append(ControlConstruct(
            construct=construct, kind="bounded-divergent",
            location=stmt.location, trip_bound=bound,
            detail=f"lanes exit at different trips; static bound {bound}"))

    def _has_lane_dependent_exit(self, body: ast.Statement) -> bool:
        """Break/continue/return reachable under a varying condition."""

        def scan(stmt, varying: bool) -> bool:
            if stmt is None:
                return False
            if isinstance(stmt, ast.Block):
                return any(scan(s, varying) for s in stmt.statements)
            if isinstance(stmt, ast.IfStatement):
                inner = varying or not self._expr_uniform(stmt.cond)
                return (scan(stmt.then_branch, inner)
                        or scan(stmt.else_branch, inner))
            if isinstance(stmt, (ast.BreakStatement, ast.ContinueStatement,
                                 ast.ReturnStatement)):
                return varying
            if isinstance(stmt, (ast.ForStatement, ast.WhileStatement,
                                 ast.DoWhileStatement)):
                # break/continue bind to the inner loop; only a return
                # escapes to this loop's trip count.
                def has_return(node):
                    return any(isinstance(n, ast.ReturnStatement)
                               for n in node.walk())
                return has_return(stmt.body)
            return False

        return scan(body, False)

    def _loop_bound(self, stmt) -> Optional[int]:
        for bound in self.ranges.loop_bounds(self.kernel.name).loops:
            if bound.loop is stmt:
                return bound.max_trip_count
        return None

    # ------------------------------------------------------------------ #
    # Expression uniformity
    # ------------------------------------------------------------------ #
    def _assign(self, name: str, value_uniform: bool, divergent: bool,
                location=None) -> None:
        # A masked write makes the target varying even for a uniform value:
        # masked-out lanes keep their old value.
        new_uniform = value_uniform and not divergent
        if not new_uniform:
            self.uniform[name] = False
        elif name not in self.uniform:
            self.uniform[name] = True
        if divergent and name in self._int_locals and self._recording:
            self._masked_int_writes.setdefault(name, location)

    def _expr_uniform(self, expr: ast.Expression) -> bool:
        """Uniformity of ``expr`` without recording (for rescans)."""
        recording = self._recording
        self._recording = False
        try:
            return self._expr(expr, divergent=False)
        finally:
            self._recording = recording

    def _expr(self, expr: ast.Expression, divergent: bool) -> bool:
        if expr is None:
            return True
        if isinstance(expr, (ast.NumberLiteral, ast.BoolLiteral)):
            return True
        if isinstance(expr, ast.Identifier):
            return self.uniform.get(expr.name, False)
        if isinstance(expr, ast.IndexOfExpr):
            return False
        if isinstance(expr, ast.UnaryOp):
            if expr.op in ("*", "&"):
                raise _Fallback(
                    "pointer operators cannot be executed (rule BA-001)",
                    expr.location)
            if expr.op in ("++", "--"):
                base = expr.operand
                uniform = self._expr(base, divergent)
                if isinstance(base, ast.Identifier):
                    self._assign(base.name, uniform, divergent, expr.location)
                return uniform and not divergent
            return self._expr(expr.operand, divergent)
        if isinstance(expr, ast.BinaryOp):
            left = self._expr(expr.left, divergent)
            right = self._expr(expr.right, divergent)
            if expr.op in ("/", "%") and self._recording and divergent:
                self._masked_divisions.append(
                    (_loc_key(expr.location), expr.op))
            return left and right
        if isinstance(expr, ast.Assignment):
            value_uniform = self._expr(expr.value, divergent)
            if expr.op != "=":
                target_uniform = self._expr(expr.target, divergent)
                value_uniform = value_uniform and target_uniform
                if expr.op[:-1] in ("/", "%") and self._recording and divergent:
                    self._masked_divisions.append(
                        (_loc_key(expr.location), expr.op[:-1]))
            target = expr.target
            while isinstance(target, (ast.MemberExpr, ast.IndexExpr)):
                target = target.base
            if isinstance(target, ast.Identifier):
                self._assign(target.name, value_uniform, divergent,
                             expr.location)
            return value_uniform
        if isinstance(expr, ast.Conditional):
            cond = self._expr(expr.cond, divergent)
            then = self._expr(expr.then, divergent)
            other = self._expr(expr.otherwise, divergent)
            return cond and then and other
        if isinstance(expr, ast.CallExpr):
            args_uniform = all(self._expr(arg, divergent)
                               for arg in expr.args)
            if lookup_builtin(expr.callee) is not None:
                return args_uniform
            helper = self.helpers.get(expr.callee)
            if helper is None:
                raise _Fallback(
                    f"call to unknown function {expr.callee!r}",
                    expr.location)
            if self._recording and divergent:
                self._masked_helper_calls.setdefault(expr.callee,
                                                     expr.location)
            # The interpreter materializes helper results per lane, so a
            # helper call is varying even for uniform arguments.
            return False
        if isinstance(expr, ast.ConstructorExpr):
            return all(self._expr(arg, divergent) for arg in expr.args)
        if isinstance(expr, ast.IndexExpr):
            node: ast.Expression = expr
            while isinstance(node, ast.IndexExpr):
                self._expr(node.index, divergent)
                node = node.base
            if isinstance(node, ast.Identifier) and \
                    any(p.name == node.name for p in self.kernel.gather_params):
                if self._recording and divergent:
                    self._masked_gathers.append(
                        (_loc_key(expr.location), node.name))
                return False
            raise _Fallback(
                "index of a non-gather value cannot be executed",
                expr.location)
        if isinstance(expr, ast.MemberExpr):
            return self._expr(expr.base, divergent)
        raise _Fallback(f"unsupported expression {type(expr).__name__}",
                        expr.location)

    # ------------------------------------------------------------------ #
    # Obligation discharge via the interval engine
    # ------------------------------------------------------------------ #
    def _discharge_obligations(self) -> None:
        if not (self._masked_gathers or self._masked_divisions
                or self._masked_int_writes or self._masked_helper_calls):
            return
        ctx = RangeContext(self.spec)
        analysis = self.ranges.analysis(self.kernel.name)

        gather_sites = {}
        for site in analysis.gather_sites:
            gather_sites.setdefault((_loc_key(site.location), site.param),
                                    site)
        for key, param in self._masked_gathers:
            site = gather_sites.get((key, param))
            if site is None:
                self.report.obligations.append(Obligation(
                    kind="gather-bounds", subject=param, proved=False,
                    detail="no interval information for this gather site"))
                continue
            proved = site.verdict == "proved"
            detail = site.detail if proved else (
                f"row index {_interval_str(site.rows, ctx)}, column index "
                f"{_interval_str(site.cols, ctx)}: {site.detail}")
            self.report.obligations.append(Obligation(
                kind="gather-bounds", subject=param, proved=proved,
                location=site.location, detail=detail))

        division_sites = {}
        for site in analysis.division_sites:
            division_sites.setdefault((_loc_key(site.location), site.op),
                                      site)
        for key, op in self._masked_divisions:
            site = division_sites.get((key, op))
            if site is None:
                self.report.obligations.append(Obligation(
                    kind="division-by-zero", subject=op, proved=False,
                    detail="no interval information for this division"))
                continue
            proved = _divisor_proved(site.divisor, ctx)
            detail = (f"divisor interval "
                      f"{_interval_str(site.divisor, ctx)}")
            if not proved:
                detail += " includes zero on masked-out lanes"
            self.report.obligations.append(Obligation(
                kind="division-by-zero", subject=op, proved=proved,
                location=site.location, detail=detail))

        for name, location in sorted(self._masked_helper_calls.items()):
            helper = self.helpers.get(name)
            risky = self._helper_division_risk(helper)
            self.report.obligations.append(Obligation(
                kind="division-by-zero", subject=name,
                proved=not risky, location=location,
                detail=("helper body divides by a value that is not a "
                        "nonzero literal" if risky else
                        "helper body contains no risky division")))

        for name, location in sorted(self._masked_int_writes.items()):
            value = analysis.env.get(name)
            interval = value if isinstance(value, Interval) else None
            if interval is not None:
                lo = interval.numeric_lo(ctx)
                hi = interval.numeric_hi(ctx)
                proved = lo >= _INT32_MIN and hi <= _INT32_MAX
                detail = f"value interval {_interval_str(interval, ctx)}"
                if not proved:
                    detail += " may exceed int32 on masked-out lanes"
            else:
                proved = False
                detail = "no value interval for this int local"
            self.report.obligations.append(Obligation(
                kind="int-overflow", subject=name, proved=proved,
                location=location, detail=detail))

    @staticmethod
    def _helper_division_risk(helper: Optional[ast.FunctionDef]) -> bool:
        if helper is None:
            return True
        for node in helper.body.walk():
            if isinstance(node, ast.BinaryOp) and node.op in ("/", "%"):
                divisor = _literal(node.right)
                if divisor is not None and divisor != 0.0:
                    continue
                return True
            if isinstance(node, ast.Assignment) and node.op in ("/=", "%="):
                return True
        return False

    # ------------------------------------------------------------------ #
    def _finalize_verdict(self) -> None:
        report = self.report
        if report.verdict == VERDICT_FALLBACK:
            return
        if not report.divergent:
            report.verdict = VERDICT_VECTORIZED
            report.reason = ("no divergent constructs; whole-array "
                             "evaluation needs no masks")
            return
        failed = [o for o in report.obligations if not o.proved]
        if failed:
            first = failed[0]
            report.verdict = VERDICT_UNPROVED
            report.reason = (f"unproved {first.kind} obligation on "
                             f"{first.subject!r}: {first.detail}")
            report.location = first.location
            return
        report.verdict = VERDICT_MASKED
        report.reason = ("divergent constructs present; all "
                         f"{len(report.obligations)} speculation "
                         "obligations proved, lanes merge via np.where")
        divergent_nodes = ([b for b in report.branches
                            if b.kind == "divergent"]
                           + [l for l in report.loops
                              if l.kind == "bounded-divergent"])
        if divergent_nodes:
            report.location = divergent_nodes[0].location


def analyze_kernel_vectorization(
    kernel: ast.FunctionDef,
    helpers: Optional[Dict[str, ast.FunctionDef]] = None,
    spec: Optional[dict] = None,
    ranges: Optional[ProgramRanges] = None,
) -> VectorizationReport:
    """Run brookvec over one kernel definition.

    Args:
        kernel: The kernel definition to analyse.
        helpers: Helper functions callable from the kernel.
        spec: The kernel's range spec (see
            :func:`~repro.core.analysis.ranges.analyze_kernel_ranges`);
            its range analysis bounds divergent loops and discharges
            speculation obligations.
        ranges: The program's range analyses, when ``kernel`` is one of
            its functions (analysed under ``spec``): brookvec reads the
            analysis certification made instead of walking again.

    Returns:
        A :class:`VectorizationReport` whose ``verdict`` is one of the
        stable BV-3xx codes.
    """
    analyzer = _Analyzer(kernel, dict(helpers or {}), spec, ranges)
    return analyzer.run()
