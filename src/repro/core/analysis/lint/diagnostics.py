"""Diagnostic records, severities and the brooklint rule registry.

Every finding the linter can produce has a stable ``BL-xxx`` code so
that suppressions, CI gates and documentation can reference it across
releases.  Severity semantics:

* ``error`` — a proved safety violation (the program is wrong on at
  least one backend); ``brookauto lint`` exits non-zero.
* ``warning`` — a property that could not be proved and that diverges
  across backends or violates MISRA-style hygiene.
* ``note`` — an *explain* diagnostic: nothing is wrong, but an
  optimisation (straight-line vector program, fusion) is unavailable
  and this says why.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from ....errors import SourceLocation

__all__ = ["LintSeverity", "LintRule", "LINT_RULES", "Diagnostic",
           "LintReport"]


class LintSeverity(enum.Enum):
    ERROR = "error"
    WARNING = "warning"
    NOTE = "note"

    @property
    def rank(self) -> int:
        return {"error": 2, "warning": 1, "note": 0}[self.value]


@dataclass(frozen=True)
class LintRule:
    """One registered lint rule."""

    code: str
    name: str
    severity: LintSeverity
    summary: str


LINT_RULES: Dict[str, LintRule] = {
    rule.code: rule
    for rule in [
        LintRule("BL-100", "skipped-source", LintSeverity.NOTE,
                 "A kernel source snippet was skipped because it does not "
                 "compile as Brook Auto."),
        LintRule("BL-101", "gather-out-of-bounds", LintSeverity.ERROR,
                 "A gather index is statically proved to fall outside the "
                 "declared stream extents."),
        LintRule("BL-102", "gather-bounds-unproven", LintSeverity.WARNING,
                 "A gather index cannot be proved in-bounds: the CPU "
                 "backend raises, GLES2 silently edge-clamps, so the "
                 "kernel diverges bitwise across backends."),
        LintRule("BL-103", "possible-division-by-zero", LintSeverity.WARNING,
                 "A divisor's value range includes zero."),
        LintRule("BL-104", "float-equality", LintSeverity.WARNING,
                 "Floating-point values compared with == or !=."),
        LintRule("BL-105", "uninitialized-read", LintSeverity.WARNING,
                 "A local variable may be read before it is assigned."),
        LintRule("BL-106", "dead-store", LintSeverity.WARNING,
                 "A local variable is written but its value is never read."),
        LintRule("BL-107", "unassigned-output", LintSeverity.WARNING,
                 "An out stream parameter is never assigned on some path."),
        LintRule("BL-110", "whole-array-miss", LintSeverity.NOTE,
                 "The kernel misses the straight-line whole-array (BV-300) "
                 "program; the first divergent construct is reported."),
        LintRule("BL-111", "fusion-boundary", LintSeverity.NOTE,
                 "Two kernels of this program cannot fuse; the "
                 "check_fusable reason is reported."),
        LintRule("BL-112", "inplace-gather-no-snapshot", LintSeverity.WARNING,
                 "An in-place launch gathers from its own output stream "
                 "on a path where the pre-launch snapshot is not "
                 "guaranteed, so the kernel may observe its own "
                 "partially written results."),
        # BV-3xx: brookvec vectorization verdicts
        # (repro.core.analysis.vectorize) - one per kernel, surfaced by
        # ``brookauto lint --vectorize`` / ``brookauto vectorize`` so the
        # SARIF stream records which kernels run the whole-array vector
        # path and exactly why the rest fall back.
        LintRule("BV-300", "vectorized", LintSeverity.NOTE,
                 "The kernel has no divergent constructs and runs as an "
                 "unmasked whole-array program on the vector path."),
        LintRule("BV-301", "masked-divergent-vectorized", LintSeverity.NOTE,
                 "The kernel has divergent constructs but every "
                 "safe-speculation obligation is proved; it runs "
                 "whole-array with np.where lane merges."),
        LintRule("BV-302", "vector-fallback", LintSeverity.NOTE,
                 "A construct outside the vectorizable subset keeps the "
                 "kernel on the masked interpreter; the construct and "
                 "location are reported."),
        LintRule("BV-303", "speculation-obligation-unproved",
                 LintSeverity.NOTE,
                 "The construct mix is vectorizable but a speculation "
                 "obligation (gather bounds, division by zero, int "
                 "overflow on dead lanes) could not be discharged; the "
                 "failing interval is reported."),
        # BF-2xx: whole-pipeline dataflow findings (brookflow,
        # repro.core.analysis.dataflow) - properties *across* launches,
        # where the BL-1xx rules prove properties inside one kernel body.
        LintRule("BF-200", "dataflow-skipped", LintSeverity.NOTE,
                 "A launchable could not be modelled by the pipeline "
                 "dataflow analysis and was skipped."),
        LintRule("BF-201", "hazard-divergence", LintSeverity.ERROR,
                 "Two conflicting launches share underlying storage the "
                 "executor's dynamic hazard tracker does not key on, so "
                 "it could legally overlap them and race."),
        LintRule("BF-202", "use-after-release", LintSeverity.ERROR,
                 "A pending launch captures a stream whose device "
                 "storage has already been released (or whose runtime "
                 "is closed)."),
        LintRule("BF-203", "read-before-write", LintSeverity.WARNING,
                 "A launch reads an intermediate stream that no earlier "
                 "launch (and no host write) initialised, although a "
                 "later launch of the same pipeline writes it."),
        LintRule("BF-204", "uninitialised-input", LintSeverity.NOTE,
                 "A launch reads a stream that was never written by the "
                 "host or by the pipeline; it still holds its creation "
                 "zeros."),
        LintRule("BF-205", "dead-write", LintSeverity.WARNING,
                 "A launch's output is overwritten by a later launch "
                 "before anything reads it - the first write is dead "
                 "work."),
        LintRule("BF-206", "fusable-intermediate", LintSeverity.NOTE,
                 "An intermediate stream is produced and consumed "
                 "element-for-element by adjacent passes and never used "
                 "again; fusion would eliminate it."),
    ]
}


@dataclass
class Diagnostic:
    """One machine-readable lint finding."""

    rule: str
    severity: LintSeverity
    message: str
    kernel: str = ""
    location: Optional[SourceLocation] = None
    #: Path of the artifact the location refers to (for SARIF).
    source_file: str = "<source>"

    def to_dict(self) -> Dict:
        return {
            "rule": self.rule,
            "severity": self.severity.value,
            "message": self.message,
            "kernel": self.kernel,
            "file": self.source_file,
            "line": self.location.line if self.location else None,
            "column": self.location.column if self.location else None,
        }

    def __str__(self) -> str:
        where = self.source_file
        if self.location is not None:
            where += f":{self.location.line}:{self.location.column}"
        prefix = f"{where}: {self.severity.value}: {self.rule}"
        if self.kernel:
            return f"{prefix} [{self.kernel}] {self.message}"
        return f"{prefix} {self.message}"


@dataclass
class LintReport:
    """All findings of one lint run, plus per-kernel analysis facts."""

    diagnostics: List[Diagnostic] = field(default_factory=list)
    kernels: List[str] = field(default_factory=list)
    #: Per-kernel analysis facts, e.g. gather/division proof counters.
    facts: Dict[str, Dict[str, int]] = field(default_factory=dict)

    def extend(self, other: "LintReport") -> None:
        self.diagnostics.extend(other.diagnostics)
        self.kernels.extend(k for k in other.kernels
                            if k not in self.kernels)
        self.facts.update(other.facts)

    def counts(self) -> Dict[str, int]:
        result = {"error": 0, "warning": 0, "note": 0}
        for diag in self.diagnostics:
            result[diag.severity.value] += 1
        return result

    @property
    def has_errors(self) -> bool:
        return any(d.severity is LintSeverity.ERROR for d in self.diagnostics)

    @property
    def has_warnings(self) -> bool:
        return any(d.severity is LintSeverity.WARNING
                   for d in self.diagnostics)

    def at_severity(self, minimum: LintSeverity) -> List[Diagnostic]:
        return [d for d in self.diagnostics
                if d.severity.rank >= minimum.rank]

    def summary(self) -> Dict[str, int]:
        """Counts plus proof totals — embeddable in certification evidence."""
        counts = self.counts()
        counts["kernels"] = len(self.kernels)
        counts["gathers"] = sum(f.get("gathers", 0)
                                for f in self.facts.values())
        counts["gathers_proved"] = sum(f.get("gathers_proved", 0)
                                       for f in self.facts.values())
        return counts

    def to_dict(self) -> Dict:
        return {
            "kernels": list(self.kernels),
            "counts": self.counts(),
            "facts": dict(self.facts),
            "diagnostics": [d.to_dict() for d in self.diagnostics],
        }
