"""Exception hierarchy for the Brook Auto reproduction.

Every error raised by the compiler, the runtime and the simulated GPU
substrates derives from :class:`BrookError` so applications can catch a
single base class.  Compiler-side errors carry source locations so that
diagnostics can point back into the ``.br`` kernel source, which is the
behaviour expected of a certification-oriented tool chain: a rule
violation must be traceable to the offending construct.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional


@dataclass(frozen=True)
class SourceLocation:
    """A position inside a Brook source file.

    Attributes:
        filename: Name of the source buffer (``"<string>"`` for inline text).
        line: 1-based line number.
        column: 1-based column number.
    """

    filename: str = "<string>"
    line: int = 1
    column: int = 1

    def __str__(self) -> str:
        return f"{self.filename}:{self.line}:{self.column}"


class BrookError(Exception):
    """Base class for every error produced by the reproduction."""


class BrookSyntaxError(BrookError):
    """A lexical or syntactic error in Brook kernel source."""

    def __init__(self, message: str, location: Optional[SourceLocation] = None):
        self.location = location
        self.bare_message = message
        if location is not None:
            message = f"{location}: {message}"
        super().__init__(message)


class BrookTypeError(BrookError):
    """A semantic/type error in Brook kernel source."""

    def __init__(self, message: str, location: Optional[SourceLocation] = None):
        self.location = location
        self.bare_message = message
        if location is not None:
            message = f"{location}: {message}"
        super().__init__(message)


class RangeSpecError(BrookError):
    """A kernel's range spec is malformed (the compiler rejects it)."""


class CertificationError(BrookError):
    """Raised when compiling in strict mode and a Brook Auto rule is violated."""

    def __init__(self, message: str, violations=None):
        super().__init__(message)
        self.violations = list(violations or [])


class WCETError(BrookError):
    """A worst-case execution time bound cannot be derived for a kernel.

    Raised by :mod:`repro.core.analysis.wcet` when a kernel falls outside
    the certified subset the bound derivation relies on: an unbounded
    loop (``while``/``do-while`` or a ``for`` whose trip count cannot be
    deduced), a certification rule violation, or a construct the static
    cost walker cannot price.  Kernels that fail this check are *never*
    given a bound - deadline admission control must reject them instead
    of guessing.
    """

    def __init__(self, message: str, reasons=None):
        super().__init__(message)
        #: Human-readable reasons (loop analysis diagnostics, violated
        #: certification rules) for the rejection.
        self.reasons = list(reasons or [])


class CodegenError(BrookError):
    """Raised when a kernel cannot be lowered to the requested backend."""


class FusionError(BrookError):
    """A producer/consumer kernel pair cannot be legally fused."""


class PlanningError(BrookError):
    """The auto-planner cannot produce an execution plan.

    Raised by :mod:`repro.core.analysis.planner` when a pipeline has no
    feasible candidate configuration, or when a request carries a
    deadline that no candidate's WCET bound provably fits - the planner
    never falls back to an unproven configuration.
    """


class RuntimeBrookError(BrookError):
    """Base class for errors raised by the Brook runtime (host side)."""


class StreamError(RuntimeBrookError):
    """Invalid stream construction, shape mismatch or out-of-bounds host access."""


class KernelLaunchError(RuntimeBrookError):
    """A kernel was invoked with arguments that do not match its signature."""


class GatherBoundsError(StreamError, KernelLaunchError):
    """A gather access fell outside the declared array extent at run time.

    Only the CPU backend raises this: it indexes host memory directly, so
    an out-of-bounds gather is a hard fault (the behaviour that makes
    unverified CUDA/OpenCL kernels crash drivers, paper section 2).  The
    OpenGL ES 2 backend never raises it - the texture unit clamps the
    coordinate to the array edge instead.  ``brooklint`` flags gathers it
    cannot prove in-bounds precisely because of this cross-backend
    divergence (rules BL-101 / BL-102 in ``docs/analysis.md``).

    Derives from both :class:`StreamError` and :class:`KernelLaunchError`
    so callers guarding either launch failures or stream-access failures
    catch it.
    """


class BackendError(RuntimeBrookError):
    """The selected backend cannot execute the request (resource limits, etc.)."""


class SanitizerError(RuntimeBrookError):
    """BrookSanitizer detected a defect the runtime would otherwise hide.

    Raised by the opt-in instrumented execution mode
    (``BrookRuntime(sanitize=True)`` / env ``BROOKSAN=1``) when the
    dynamic hazard tracker's observed launch order diverges from the
    static dependency DAG of :mod:`repro.core.analysis.dataflow` - the
    two analyses audit each other, so any disagreement means one of them
    (or an aliasing bug neither models) is wrong and the run cannot be
    trusted.  Carries the sanitizer findings that led to the failure.
    """

    def __init__(self, message: str, findings=None):
        super().__init__(message)
        #: The :class:`~repro.runtime.sanitizer.SanitizerFinding` list
        #: (or plain dicts) describing the divergence.
        self.findings = list(findings or [])


class GLES2Error(BrookError):
    """Errors raised by the simulated OpenGL ES 2.0 substrate."""


class CALError(BrookError):
    """Errors raised by the simulated AMD CAL substrate."""


class TimingModelError(BrookError):
    """Errors raised by the analytic performance model."""
