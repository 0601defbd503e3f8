"""brooklint driver: lint compiled programs or raw Brook source.

The engine runs the interval analysis (:mod:`repro.core.analysis.ranges`)
over every *original* kernel definition of a compiled program — the
pre-transformation ASTs, so locations match what the user wrote — plus
every helper function standalone, then applies the rule set from
:mod:`.rules`.
"""

from __future__ import annotations

from typing import Dict, Optional

from ....errors import BrookError
from ... import ast_nodes as ast
from ..ranges import RangeContext, analyze_kernel_ranges
from ..vectorize import analyze_kernel_vectorization
from .diagnostics import Diagnostic, LintReport, LintSeverity
from .rules import (kernel_diagnostics, kernel_facts, program_diagnostics,
                    vectorization_diagnostics)

__all__ = ["lint_program", "lint_source", "skipped_source_report"]


def lint_program(program, specs: Optional[Dict[str, dict]] = None,
                 source_file: str = "<source>",
                 vectorize: bool = False) -> LintReport:
    """Lint one :class:`~repro.core.compiler.CompiledProgram`.

    Args:
        program: The compiled program.
        specs: Per-kernel range specs; defaults to the program's
            ``options.range_specs`` when present.
        source_file: Artifact path recorded on each diagnostic (SARIF).
        vectorize: Also emit one BV-3xx brookvec verdict note per kernel
            (the verdict always cross-references BL-110 and the facts,
            even when this is off).
    """
    if specs is None:
        specs = getattr(program.options, "range_specs", None) or {}
    report = LintReport()
    helpers = program.helpers()

    definitions = list(program.original_definitions.values())
    for kernel in definitions:
        spec = specs.get(kernel.name)
        ctx = RangeContext(spec)
        analysis = analyze_kernel_ranges(kernel, spec, helpers)
        vector_report = analyze_kernel_vectorization(kernel, helpers,
                                                     spec=spec)
        report.kernels.append(kernel.name)
        facts = kernel_facts(analysis, ctx)
        if kernel.is_kernel:
            facts.update(vector_report.to_facts())
        report.facts[kernel.name] = facts
        report.diagnostics.extend(
            kernel_diagnostics(kernel, analysis, ctx, source_file,
                               vector_report=vector_report))
        if vectorize:
            report.diagnostics.extend(vectorization_diagnostics(
                kernel, vector_report, source_file))

    for name, helper in helpers.items():
        ctx = RangeContext(None)
        analysis = program.certification.ranges.analysis(name)
        report.kernels.append(name)
        report.facts[name] = kernel_facts(analysis, ctx)
        # Gather/division rules only: helpers have unconstrained
        # parameters, so bounds-style warnings would all be noise; real
        # hygiene findings (float ==, dead stores) still apply.
        report.diagnostics.extend(
            d for d in kernel_diagnostics(helper, analysis, ctx, source_file)
            if d.rule not in ("BL-102", "BL-103", "BL-110"))

    report.diagnostics.extend(program_diagnostics(definitions, source_file))
    return report


def lint_source(source: str, specs: Optional[Dict[str, dict]] = None,
                source_file: str = "<source>",
                vectorize: bool = False) -> LintReport:
    """Compile ``source`` in analysis (non-strict) mode and lint it.

    Sources that do not compile at all produce a single BL-100 note via
    :func:`skipped_source_report` rather than raising.
    """
    from ...compiler import compile_source

    try:
        program = compile_source(
            source, filename=source_file, strict=False,
            emit_glsl_es=False, emit_desktop_glsl=False, emit_c=False,
            enable_fast_path=False,
        )
    except BrookError as exc:
        return skipped_source_report(source_file, str(exc))
    return lint_program(program, specs=specs, source_file=source_file,
                        vectorize=vectorize)


def skipped_source_report(source_file: str, reason: str) -> LintReport:
    """A report holding the single BL-100 note for an unparseable source."""
    report = LintReport()
    report.diagnostics.append(Diagnostic(
        rule="BL-100", severity=LintSeverity.NOTE,
        message=f"skipped: {reason}", kernel="",
        location=None, source_file=source_file))
    return report
