"""Brook Auto certification checker.

This is the heart of the paper's contribution: a *subset* of the Brook
language whose programs can be certified against ISO 26262 (and the
MISRA-C-style guidelines it references).  The checker takes an analyzed
translation unit and verifies every kernel against a fixed catalogue of
rules; the result is a :class:`CertificationReport` listing each rule,
whether it passed, and every violation with its source location.

Rule catalogue (mapping to the paper)
-------------------------------------

======  ===============================================================
Rule    Requirement
======  ===============================================================
BA-001  No pointers (ISO 26262-6 Table 1 / MISRA C restricted pointer
        use; paper section 2 item a).
BA-002  No dynamic memory allocation (paper section 2 item b).
BA-003  No recursion - the call graph must be acyclic.
BA-004  No ``goto`` statements.
BA-005  Every loop must have a statically deducible maximum trip count
        (paper section 4: enforced loop upper bounds).
BA-006  Streams are statically sized; kernels must not use scatter
        (``out`` gather-array) parameters.  Stream sizing is enforced at
        stream-creation time by the runtime; the kernel-side part of the
        rule (no scatter outputs) is checked here.
BA-007  The number of kernel outputs must not exceed the render targets
        of the target platform (1 on OpenGL ES 2) so that no implicit
        multi-kernel emulation is required.
BA-008  The number of kernel inputs (streams + gather arrays) must not
        exceed the texture units of the target platform.
BA-009  Kernel resources (uniforms, temporaries, instruction estimate)
        must fit the target platform without emulation.
BA-010  Only the certifiable language subset is used: no ``switch``,
        ``struct``, ``typedef``, string literals, or integer types wider
        than 32 bits.
BA-011  The worst-case stack depth must be statically bounded.
BA-012  Kernel functions must not produce side effects other than
        writing their ``out``/``reduce`` parameters (fault containment,
        paper section 2 items d/e).
======  ===============================================================
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from ..errors import CertificationError, SourceLocation
from . import ast_nodes as ast
from .analysis.call_graph import build_call_graph
from .analysis.ranges import ProgramRanges
from .analysis.resources import TargetLimits, estimate_resources
from .analysis.stack_depth import estimate_stack_depth, frame_sizes
from .semantic import AnalyzedProgram
from .types import ParamKind, ScalarKind

__all__ = [
    "Severity",
    "Rule",
    "Violation",
    "KernelCertification",
    "CertificationReport",
    "CertificationChecker",
    "RULES",
    "check_program",
]

#: Functions whose presence indicates dynamic memory allocation.
_DYNAMIC_ALLOCATION_CALLS = frozenset(
    {"malloc", "calloc", "realloc", "free", "alloca", "new", "delete",
     "streamRead", "streamWrite"}
)


class Severity(enum.Enum):
    ERROR = "error"
    WARNING = "warning"


@dataclass(frozen=True)
class Rule:
    """One certification rule of the Brook Auto subset."""

    rule_id: str
    title: str
    iso_reference: str
    severity: Severity = Severity.ERROR


RULES: Dict[str, Rule] = {
    rule.rule_id: rule
    for rule in [
        Rule("BA-001", "No pointers", "ISO 26262-6:2011 Table 1 1b / MISRA C:2012 Dir 4.8"),
        Rule("BA-002", "No dynamic memory allocation", "ISO 26262-6:2011 Table 1 1c / MISRA C:2012 Dir 4.12"),
        Rule("BA-003", "No recursion", "ISO 26262-6:2011 Table 1 1e / MISRA C:2012 Rule 17.2"),
        Rule("BA-004", "No goto statements", "MISRA C:2012 Rule 15.1"),
        Rule("BA-005", "Statically bounded loops", "ISO 26262-6:2011 7.4.17 / MISRA C:2012 Rule 14.2"),
        Rule("BA-006", "Statically sized streams, no scatter outputs", "ISO 26262-6:2011 Table 1 1c"),
        Rule("BA-007", "Kernel outputs within target render targets", "ISO 26262-6:2011 7.4.17 (no implicit emulation)"),
        Rule("BA-008", "Kernel inputs within target texture units", "ISO 26262-6:2011 7.4.17 (no implicit emulation)"),
        Rule("BA-009", "Kernel resources fit the target without emulation", "ISO 26262-6:2011 7.4.17"),
        Rule("BA-010", "Certifiable language subset only", "MISRA C:2012 Rule 1.1 (language subset)"),
        Rule("BA-011", "Statically bounded stack depth", "ISO 26262-6:2011 Table 1 1d"),
        Rule("BA-012", "No side effects outside declared outputs", "ISO 26262-6:2011 Table 1 1f (fault containment)"),
    ]
}


@dataclass(frozen=True)
class Violation:
    """A single rule violation with its source location."""

    rule_id: str
    message: str
    kernel: str
    location: Optional[SourceLocation] = None
    severity: Severity = Severity.ERROR

    def __str__(self) -> str:
        where = f"{self.location}: " if self.location else ""
        return f"[{self.rule_id}] {where}{self.kernel}: {self.message}"


@dataclass
class KernelCertification:
    """Certification outcome for a single kernel."""

    kernel_name: str
    violations: List[Violation] = field(default_factory=list)
    max_loop_iterations: Optional[int] = None
    max_stack_bytes: Optional[int] = None
    resource_summary: Optional[object] = None

    @property
    def is_compliant(self) -> bool:
        return not any(v.severity is Severity.ERROR for v in self.violations)


@dataclass
class CertificationReport:
    """Certification outcome for a whole translation unit."""

    target: TargetLimits
    kernels: Dict[str, KernelCertification] = field(default_factory=dict)
    #: The range analysis of every function, whose loop bounds rule
    #: BA-005 checked; the compiler and the WCET analysis read the same.
    ranges: Optional[ProgramRanges] = field(default=None, repr=False,
                                            compare=False)

    @property
    def violations(self) -> List[Violation]:
        result: List[Violation] = []
        for cert in self.kernels.values():
            result.extend(cert.violations)
        return result

    @property
    def is_compliant(self) -> bool:
        return all(cert.is_compliant for cert in self.kernels.values())

    def violations_for_rule(self, rule_id: str) -> List[Violation]:
        return [v for v in self.violations if v.rule_id == rule_id]

    def rule_status(self) -> Dict[str, bool]:
        """Per-rule pass/fail across the whole unit."""
        status = {rule_id: True for rule_id in RULES}
        for violation in self.violations:
            if violation.severity is Severity.ERROR:
                status[violation.rule_id] = False
        return status

    def raise_if_non_compliant(self) -> None:
        if not self.is_compliant:
            errors = [v for v in self.violations if v.severity is Severity.ERROR]
            summary = "; ".join(str(v) for v in errors[:5])
            if len(errors) > 5:
                summary += f"; ... ({len(errors) - 5} more)"
            raise CertificationError(
                f"Brook Auto certification failed with {len(errors)} violation(s): "
                f"{summary}",
                violations=errors,
            )


class CertificationChecker:
    """Checks an analyzed program against the Brook Auto rule catalogue."""

    def __init__(
        self,
        program: AnalyzedProgram,
        target: Optional[TargetLimits] = None,
        range_specs: Optional[Dict[str, dict]] = None,
    ):
        """
        Args:
            program: Result of :func:`repro.core.semantic.analyze`.
            target: Hardware limits of the compilation target; defaults to
                the minimal OpenGL ES 2.0 profile.
            range_specs: Per-kernel range specs for the interval analysis
                (:mod:`repro.core.analysis.ranges`), which bounds every
                loop; a ``params`` entry declares the range of a scalar
                parameter a data-dependent loop counts to
                (``{"kernel_name": {"params": {"num_steps": (1, 255)}}}``).
        """
        self.program = program
        self.target = target or TargetLimits()
        self.ranges = ProgramRanges(
            {name: info.definition
             for name, info in program.functions.items()},
            range_specs)

    # ------------------------------------------------------------------ #
    def check(self) -> CertificationReport:
        report = CertificationReport(target=self.target, ranges=self.ranges)
        call_graph = build_call_graph(self.program)
        recursive = call_graph.recursive_functions()
        frames = frame_sizes(self.program)

        for info in self.program.kernels:
            kernel = info.definition
            cert = KernelCertification(kernel_name=kernel.name)
            report.kernels[kernel.name] = cert

            self._check_pointers(kernel, cert)
            self._check_dynamic_allocation(kernel, cert)
            self._check_recursion(kernel, cert, call_graph, recursive)
            self._check_goto(kernel, cert)
            self._check_loops(kernel, cert)
            self._check_streams(kernel, cert)
            self._check_resources(kernel, cert)
            self._check_language_subset(kernel, cert)
            self._check_stack(kernel, cert, call_graph, frames)
            self._check_side_effects(kernel, cert)
        return report

    # ------------------------------------------------------------------ #
    # Individual rules
    # ------------------------------------------------------------------ #
    def _add(self, cert: KernelCertification, rule_id: str, message: str,
             location: Optional[SourceLocation] = None) -> None:
        rule = RULES[rule_id]
        cert.violations.append(
            Violation(rule_id=rule_id, message=message, kernel=cert.kernel_name,
                      location=location, severity=rule.severity)
        )

    def _functions_reached(self, kernel: ast.FunctionDef) -> List[ast.FunctionDef]:
        """The kernel plus every helper function it can reach."""
        result = [kernel]
        info = self.program.functions.get(kernel.name)
        pending = list(info.callees) if info else []
        seen = {kernel.name}
        while pending:
            name = pending.pop()
            if name in seen:
                continue
            seen.add(name)
            callee_info = self.program.functions.get(name)
            if callee_info is None:
                continue
            result.append(callee_info.definition)
            pending.extend(callee_info.callees)
        return result

    def _check_pointers(self, kernel: ast.FunctionDef, cert: KernelCertification) -> None:
        for func in self._functions_reached(kernel):
            for param in func.params:
                if param.is_pointer:
                    self._add(cert, "BA-001",
                              f"parameter {param.name!r} of {func.name!r} is declared "
                              "as a pointer", param.location)
            for node in func.body.walk():
                if isinstance(node, ast.UnaryOp) and node.op in ("*", "&"):
                    what = "dereference" if node.op == "*" else "address-of"
                    self._add(cert, "BA-001",
                              f"pointer {what} operator used in {func.name!r}",
                              node.location)
                if isinstance(node, ast.DeclStatement) and getattr(node, "is_pointer", False):
                    self._add(cert, "BA-001",
                              f"local variable {node.name!r} in {func.name!r} is a pointer",
                              node.location)

    def _check_dynamic_allocation(self, kernel: ast.FunctionDef,
                                  cert: KernelCertification) -> None:
        for func in self._functions_reached(kernel):
            for node in func.body.walk():
                if isinstance(node, ast.CallExpr) and node.callee in _DYNAMIC_ALLOCATION_CALLS:
                    self._add(cert, "BA-002",
                              f"call to {node.callee!r} in {func.name!r} implies dynamic "
                              "memory management inside a kernel", node.location)

    def _check_recursion(self, kernel: ast.FunctionDef, cert: KernelCertification,
                         call_graph, recursive) -> None:
        reached = {func.name for func in self._functions_reached(kernel)}
        offenders = sorted(reached & recursive)
        if offenders:
            self._add(cert, "BA-003",
                      "recursive call chain involving: " + ", ".join(offenders),
                      kernel.location)

    def _check_goto(self, kernel: ast.FunctionDef, cert: KernelCertification) -> None:
        for func in self._functions_reached(kernel):
            for node in func.body.walk():
                if isinstance(node, ast.GotoStatement):
                    self._add(cert, "BA-004", f"goto statement in {func.name!r}",
                              node.location)

    def _check_loops(self, kernel: ast.FunctionDef, cert: KernelCertification) -> None:
        total = 1
        bounded = True
        for func in self._functions_reached(kernel):
            analysis = self.ranges.loop_bounds(func.name)
            for loop in analysis.unbounded:
                self._add(cert, "BA-005",
                          f"loop in {func.name!r} has no statically deducible maximum "
                          f"trip count ({loop.reason})", loop.loop.location)
            if analysis.all_bounded:
                total *= max(1, analysis.max_total_iterations or 1)
            else:
                bounded = False
        cert.max_loop_iterations = total if bounded else None

    def _check_streams(self, kernel: ast.FunctionDef, cert: KernelCertification) -> None:
        for param in kernel.params:
            if param.kind is ParamKind.OUT_STREAM and param.gather_rank > 0:
                self._add(cert, "BA-006",
                          f"output parameter {param.name!r} uses scatter (indexed "
                          "output) which cannot be bounded statically on OpenGL ES 2",
                          param.location)

    def _check_resources(self, kernel: ast.FunctionDef, cert: KernelCertification) -> None:
        resources = estimate_resources(kernel,
                                       self.ranges.loop_bounds(kernel.name))
        cert.resource_summary = resources
        problems = resources.fits(self.target)
        for problem in problems:
            if "output" in problem:
                self._add(cert, "BA-007", problem, kernel.location)
            elif "input" in problem or "texture units" in problem:
                self._add(cert, "BA-008", problem, kernel.location)
            else:
                self._add(cert, "BA-009", problem, kernel.location)

    def _check_language_subset(self, kernel: ast.FunctionDef,
                               cert: KernelCertification) -> None:
        for func in self._functions_reached(kernel):
            for node in func.body.walk():
                if isinstance(node, ast.DoWhileStatement):
                    # Reported by BA-005 as unbounded; also a subset issue.
                    self._add(cert, "BA-010",
                              f"do/while loop in {func.name!r} is outside the Brook "
                              "Auto subset", node.location)
            for param in func.params:
                if param.type.kind is ScalarKind.VOID:
                    self._add(cert, "BA-010",
                              f"void-typed parameter {param.name!r}", param.location)

    def _check_stack(self, kernel: ast.FunctionDef, cert: KernelCertification,
                     call_graph, frames: Dict[str, int]) -> None:
        report = estimate_stack_depth(self.program, kernel.name, call_graph,
                                      frames)
        cert.max_stack_bytes = report.max_stack_bytes
        if report.max_stack_bytes is None:
            self._add(cert, "BA-011",
                      "worst-case stack depth cannot be bounded (recursion present)",
                      kernel.location)

    def _check_side_effects(self, kernel: ast.FunctionDef,
                            cert: KernelCertification) -> None:
        writable = {p.name for p in kernel.params
                    if p.kind in (ParamKind.OUT_STREAM, ParamKind.REDUCE)}
        readable_only = {p.name for p in kernel.params
                         if p.kind in (ParamKind.STREAM, ParamKind.GATHER,
                                       ParamKind.ITERATOR, ParamKind.SCALAR)}
        for node in kernel.body.walk():
            if isinstance(node, ast.Assignment):
                target = node.target
                while isinstance(target, (ast.MemberExpr, ast.IndexExpr)):
                    target = target.base
                if isinstance(target, ast.Identifier) and target.name in readable_only:
                    self._add(cert, "BA-012",
                              f"kernel writes to read-only parameter {target.name!r}; "
                              "only out/reduce parameters may be written",
                              node.location)


def check_program(
    program: AnalyzedProgram,
    target: Optional[TargetLimits] = None,
    strict: bool = False,
    range_specs: Optional[Dict[str, dict]] = None,
) -> CertificationReport:
    """Run the Brook Auto certification checker.

    Args:
        program: Analyzed translation unit.
        target: Target hardware limits (defaults to minimal OpenGL ES 2.0).
        strict: When True, raise :class:`CertificationError` on any
            error-severity violation instead of returning the report.
        range_specs: Per-kernel range specs; the interval analysis they
            feed bounds every loop (rule BA-005).
    """
    report = CertificationChecker(program, target, range_specs).check()
    if strict:
        report.raise_if_non_compliant()
    return report
