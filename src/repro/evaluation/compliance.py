"""ISO 26262 compliance evidence (paper sections 2 and 4).

The paper's argument has two halves:

* CUDA/OpenCL-style code *cannot* satisfy the ISO 26262 / MISRA-style
  rules (pointers, dynamic allocation, unbounded loops, no static
  verification), and
* every application written in the Brook Auto subset *does* satisfy
  them, which is what makes the approach certification friendly.

This harness produces both halves as machine-checkable evidence: it runs
the certification checker over every reference application (all must be
compliant) and over a deliberately non-compliant, CUDA-flavoured kernel
(which must violate the pointer / dynamic-memory / recursion / bounded
loop rules), producing the rule-by-rule table that a certification
package would archive.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from ..apps.base import get_application, list_applications
from ..core import analyze, check_program, parse
from ..core.analysis.lint import lint_program
from ..core.analysis.resources import TargetLimits
from ..core.certification import RULES, CertificationReport
from ..core.compiler import CompilerOptions, compile_source
from ..gles2.device import get_device_profile

__all__ = ["ComplianceEntry", "ComplianceResult", "NON_COMPLIANT_SOURCE",
           "run", "render"]

#: A kernel written the way CUDA/OpenCL code is typically written: pointer
#: arguments, dynamic allocation, recursion, an unbounded loop, goto and a
#: scatter write.  Brook Auto must reject every one of those constructs.
NON_COMPLIANT_SOURCE = """
float walk(float *data, float i) {
    /* pointer parameter + recursion */
    if (i <= 0.0) {
        return data[0];
    }
    return walk(data, i - 1.0);
}

kernel void cuda_style(float *input, float n, out float result<>) {
    float *buffer;
    float total = 0.0;
    float i = 0.0;
    buffer = malloc(n);
    while (total < n) {
        total = total + input[i];
        i = i + 1.0;
        if (i > 1000000.0) {
            goto done;
        }
    }
    total = total + walk(input, n);
    free(buffer);
    result = total;
}
"""


@dataclass
class ComplianceEntry:
    """Certification outcome of one application (or the counter-example)."""

    name: str
    compliant: bool
    kernels: int
    violations: int
    violated_rules: List[str] = field(default_factory=list)
    #: brooklint evidence: severity counts plus gather bound proofs
    #: (``summary()`` of the application's :class:`LintReport`); empty
    #: for the counter-example, which never reaches the linter.
    lint_summary: Dict[str, int] = field(default_factory=dict)
    #: brookvec evidence: per-kernel BV-3xx verdict of every kernel,
    #: reductions included (their folds run the same tiers).
    vector_verdicts: Dict[str, str] = field(default_factory=dict)

    @property
    def vector_eligible(self) -> int:
        """Map kernels the vector path accepts (BV-300 / BV-301)."""
        return sum(1 for verdict in self.vector_verdicts.values()
                   if verdict in ("BV-300", "BV-301"))

    @property
    def vector_findings(self) -> List[str]:
        """``kernel=BV-30x`` labels for kernels kept off the vector path."""
        return sorted(f"{kernel}={verdict}"
                      for kernel, verdict in self.vector_verdicts.items()
                      if verdict not in ("BV-300", "BV-301"))


@dataclass
class ComplianceResult:
    target_name: str
    applications: List[ComplianceEntry]
    counter_example: ComplianceEntry
    counter_example_report: CertificationReport

    @property
    def all_applications_compliant(self) -> bool:
        return all(entry.compliant for entry in self.applications)

    @property
    def counter_example_rejected(self) -> bool:
        return not self.counter_example.compliant

    @property
    def all_applications_lint_clean(self) -> bool:
        """No error- or warning-severity lint finding across the suite."""
        return all(entry.lint_summary.get("error", 0) == 0
                   and entry.lint_summary.get("warning", 0) == 0
                   for entry in self.applications)

    @property
    def all_applications_vector_clean(self) -> bool:
        """Every application map kernel takes the whole-array vector path
        (brookvec verdict BV-300 or BV-301, none falls back)."""
        return all(entry.vector_eligible == len(entry.vector_verdicts)
                   for entry in self.applications)

    @property
    def all_gathers_proved(self) -> bool:
        return all(entry.lint_summary.get("gathers_proved", 0)
                   == entry.lint_summary.get("gathers", 0)
                   for entry in self.applications)

    @property
    def reproduced(self) -> bool:
        return self.all_applications_compliant and self.counter_example_rejected


def _entry_from_report(name: str, report: CertificationReport) -> ComplianceEntry:
    violated = sorted({v.rule_id for v in report.violations})
    return ComplianceEntry(
        name=name,
        compliant=report.is_compliant,
        kernels=len(report.kernels),
        violations=len(report.violations),
        violated_rules=violated,
    )


def run(device: str = "videocore-iv") -> ComplianceResult:
    """Run the certification checker over the suite and the counter-example."""
    target: TargetLimits = get_device_profile(device).limits.to_target_limits()
    applications: List[ComplianceEntry] = []
    for name in list_applications():
        app = get_application(name)
        # Compile through the full Brook Auto pipeline (including the
        # multi-output splitting the target requires) and take the
        # certification report of what would actually be deployed.
        options = CompilerOptions(target=target,
                                  range_specs=dict(app.range_specs),
                                  strict=False)
        compiled = compile_source(app.brook_source, filename=f"{name}.br",
                                  options=options)
        entry = _entry_from_report(name, compiled.certification)
        entry.lint_summary = lint_program(
            compiled, source_file=f"{name}.br").summary()
        # Verdicts off the compiled kernels (build_vector_path), so a
        # BV-300/BV-301 here certifies a vector program that really runs.
        entry.vector_verdicts = {
            kernel_name: kernel.vector_report.verdict
            for kernel_name, kernel in compiled.kernels.items()
            if kernel.vector_report is not None}
        applications.append(entry)

    counter_program = analyze(parse(NON_COMPLIANT_SOURCE, filename="cuda_style.br"))
    counter_report = check_program(counter_program, target=target, strict=False)
    counter_entry = _entry_from_report("cuda_style (counter-example)", counter_report)
    return ComplianceResult(
        target_name=target.name,
        applications=applications,
        counter_example=counter_entry,
        counter_example_report=counter_report,
    )


def render(result: Optional[ComplianceResult] = None) -> str:
    """Format the compliance evidence as text tables."""
    result = result or run()
    lines = [
        f"ISO 26262 compliance evidence - target {result.target_name}",
        "",
        "Rule catalogue:",
    ]
    for rule_id in sorted(RULES):
        rule = RULES[rule_id]
        lines.append(f"  {rule_id}  {rule.title}  ({rule.iso_reference})")
    lines.append("")
    lines.append(f"{'application':<28}{'kernels':>9}{'violations':>12}"
                 f"{'lint e/w':>10}{'gathers':>9}{'vector':>8}{'verdict':>12}")
    for entry in result.applications:
        verdict = "compliant" if entry.compliant else "REJECTED"
        lint = entry.lint_summary
        lint_col = f"{lint.get('error', 0)}/{lint.get('warning', 0)}"
        gather_col = (f"{lint.get('gathers_proved', 0)}"
                      f"/{lint.get('gathers', 0)}")
        vector_col = (f"{entry.vector_eligible}"
                      f"/{len(entry.vector_verdicts)}")
        lines.append(f"{entry.name:<28}{entry.kernels:>9}{entry.violations:>12}"
                     f"{lint_col:>10}{gather_col:>9}{vector_col:>8}"
                     f"{verdict:>12}")
        if entry.vector_findings:
            lines.append("    off the vector path: "
                         + ", ".join(entry.vector_findings))
    entry = result.counter_example
    verdict = "compliant" if entry.compliant else "REJECTED"
    lines.append(f"{entry.name:<28}{entry.kernels:>9}{entry.violations:>12}"
                 f"{'-':>10}{'-':>9}{'-':>8}{verdict:>12}")
    if entry.violated_rules:
        lines.append(f"    violated rules: {', '.join(entry.violated_rules)}")
    lines.append("")
    lines.append(
        "Paper claim: the Brook Auto subset is ISO 26262 friendly while "
        "CUDA/OpenCL-style code violates the rules -> "
        f"{'REPRODUCED' if result.reproduced else 'NOT reproduced'}"
        + ("; all applications vector-clean (BV-300/BV-301)"
           if result.all_applications_vector_clean else "")
    )
    return "\n".join(lines)
