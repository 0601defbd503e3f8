"""The Brook Auto compiler driver.

This module glues the front-end stages together the way the original
``brcc`` compiler does: parse the ``.br`` source, run semantic analysis,
apply the source-to-source transformation passes needed by the target,
check the result against the Brook Auto certification rules and emit the
target source (GLSL ES 1.0, desktop GLSL and C) for every kernel.

The output is a :class:`CompiledProgram` whose :class:`CompiledKernel`
entries carry everything later stages need: the (possibly transformed)
kernel AST for the execution engine, the generated shader text, the
static analysis results and the certification report.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field, fields
from typing import Dict, List, Optional, Sequence, Tuple

from ..errors import CodegenError
from . import ast_nodes as ast
from .analysis.ranges import check_range_specs
from .analysis.resources import KernelResources, TargetLimits
from .certification import CertificationReport, check_program
from .codegen.c_backend import generate_c
from .codegen.glsl_desktop import generate_desktop_glsl
from .codegen.glsl_es import generate_glsl_es
from .analysis.vectorize import VectorizationReport
from .exec.vectorized import VectorizedKernelProgram, build_vector_path
from .parser import parse
from .semantic import AnalyzedProgram, analyze
from .transforms.constant_fold import fold_constants
from .transforms.scalarize import scalarize_kernel
from .transforms.split_outputs import split_kernel_outputs

__all__ = ["CompilerOptions", "CompiledKernel", "CompiledProgram",
           "BrookAutoCompiler", "compile_source"]


@dataclass
class CompilerOptions:
    """Options controlling a compilation run.

    Attributes:
        target: Hardware limits used for certification and kernel fitting.
        range_specs: Per-kernel range specs for the interval analysis
            (:mod:`repro.core.analysis.ranges`): declared gather extents,
            launch-domain symbols and scalar parameter ranges.  Feeds the
            brooklint bounds rules and bounds every loop for
            certification and WCET; a data-dependent loop needs the range
            of its limit's parameters
            (``{"kernel": {"params": {"n": (1, 255)}}}``).
        strict: Raise :class:`~repro.errors.CertificationError` when the
            program violates the Brook Auto subset (default).  Non-strict
            mode still produces the report but lets compilation continue,
            which is how the checker is used to *analyse* legacy Brook code.
        split_outputs: Automatically split kernels with more outputs than
            the target supports.
        scalarize: Automatically scalarize vector stream parameters (only
            attempted when the target has no float texture support).
        fold_constants: Run the constant folding pass.
        emit_glsl_es: Generate GLSL ES 1.0 text.
        emit_desktop_glsl: Generate desktop GLSL text.
        emit_c: Generate C text.
        enable_fast_path: Compile brookvec-approved kernels (verdict
            BV-300/BV-301, see :mod:`repro.core.analysis.vectorize`) to
            whole-array vector programs
            (:mod:`repro.core.exec.vectorized`); kernels the analysis
            rejects (BV-302/BV-303) run on the masked interpreter with
            zero behavior change.  Disable to force every kernel through
            the interpreter (benchmarking / debugging).
    """

    target: TargetLimits = field(default_factory=TargetLimits)
    range_specs: Dict[str, dict] = field(default_factory=dict)
    strict: bool = True
    split_outputs: bool = True
    scalarize: bool = False
    fold_constants: bool = True
    emit_glsl_es: bool = True
    emit_desktop_glsl: bool = True
    emit_c: bool = True
    enable_fast_path: bool = True

    def fingerprint(self) -> str:
        """Stable digest of every option that influences compilation.

        Two option sets with the same fingerprint produce identical
        compiler output for the same source, which is what the runtime's
        compile cache keys on.  Target limits are serialised field by
        field so equal values hash equally regardless of object identity.
        """
        payload = {}
        for option in fields(self):
            value = getattr(self, option.name)
            if option.name == "target":
                value = {f.name: getattr(value, f.name) for f in fields(value)}
            payload[option.name] = value
        encoded = json.dumps(payload, sort_keys=True, default=repr)
        return hashlib.sha256(encoded.encode("utf-8")).hexdigest()


@dataclass
class CompiledKernel:
    """One kernel after compilation for a specific target."""

    name: str
    definition: ast.FunctionDef
    original_name: str
    resources: KernelResources
    glsl_es: Optional[str] = None
    desktop_glsl: Optional[str] = None
    c_source: Optional[str] = None
    #: Maximum loop iterations per element (None when not statically bounded).
    max_loop_iterations: Optional[int] = None
    #: Whole-array program for brookvec-approved kernels (None: fall back
    #: to the masked interpreter).  Shared by every launch.
    vector_path: Optional[VectorizedKernelProgram] = field(default=None,
                                                           compare=False)
    #: The brookvec verdict this kernel compiled under (None when the
    #: vector path was disabled at compile time).
    vector_report: Optional[VectorizationReport] = field(default=None,
                                                         compare=False)
    #: Names of the source kernels when this kernel was produced by the
    #: fusion transform (empty for ordinary kernels).
    fused_from: Tuple[str, ...] = ()
    #: Total element components of the intermediate streams eliminated by
    #: fusion (sum of their widths); 0 for ordinary kernels.  Each saved
    #: component is 4 bytes of stream traffic avoided twice per element
    #: (one write by the producer pass, one read by the consumer pass).
    fused_saved_components: int = 0
    #: True for a fusion intermediate that carries only its definition,
    #: resources, loop bound and GLSL ES text; such a kernel is only ever
    #: the producer of a further merge and is never launched (see
    #: :func:`~repro.core.transforms.fuse.merge_compiled`).
    bare: bool = field(default=False, compare=False, repr=False)

    @property
    def is_reduction(self) -> bool:
        return self.definition.is_reduction

    @property
    def fused_count(self) -> int:
        """Number of source kernels this launch executes (1 if unfused)."""
        return max(1, len(self.fused_from))

    def saved_intermediate_bytes(self, element_count: int) -> int:
        """Intermediate stream traffic one launch avoids through fusion.

        Each eliminated component is 4 bytes avoided twice per element:
        one write by the producer pass and one re-read by the consumer
        pass.  Backends put this figure into their launch records so the
        statistics (and the timing model) can price the fusion win.
        """
        return self.fused_saved_components * element_count * 4 * 2


@dataclass
class CompiledProgram:
    """Result of compiling one ``.br`` translation unit."""

    source: str
    options: CompilerOptions
    program: AnalyzedProgram
    certification: CertificationReport
    kernels: Dict[str, CompiledKernel] = field(default_factory=dict)
    #: Mapping from original kernel names to the (possibly split) kernel
    #: names that implement them, in output order.
    kernel_groups: Dict[str, List[str]] = field(default_factory=dict)
    #: Original (pre-transformation) kernel definitions, keyed by source
    #: name; the runtime uses these signatures to map call arguments.
    original_definitions: Dict[str, ast.FunctionDef] = field(default_factory=dict)

    @property
    def is_certified(self) -> bool:
        return self.certification.is_compliant

    def kernel(self, name: str) -> CompiledKernel:
        if name in self.kernels:
            return self.kernels[name]
        raise KeyError(f"no kernel named {name!r}; available: {sorted(self.kernels)}")

    def helpers(self) -> Dict[str, ast.FunctionDef]:
        return {info.name: info.definition for info in self.program.helpers}


class BrookAutoCompiler:
    """Compiles Brook source through the Brook Auto pipeline."""

    def __init__(self, options: Optional[CompilerOptions] = None):
        self.options = options or CompilerOptions()

    # ------------------------------------------------------------------ #
    def compile(self, source: str, filename: str = "<string>") -> CompiledProgram:
        """Compile ``source`` and return the compiled program."""
        options = self.options
        unit = parse(source, filename)

        # Source-to-source passes operate on the raw AST; they may create
        # new kernels (splitting) or change signatures (scalarization), so
        # semantic analysis runs afterwards on the transformed unit.
        transformed_functions: List[ast.FunctionDef] = []
        kernel_groups: Dict[str, List[str]] = {}
        for func in unit.functions:
            if not (func.is_kernel or func.is_reduction):
                transformed_functions.append(func)
                continue
            kernel = func
            if options.fold_constants:
                kernel = fold_constants(kernel)
            if options.scalarize:
                kernel = scalarize_kernel(kernel)
            if options.split_outputs and len(kernel.output_params) > \
                    options.target.max_kernel_outputs:
                pieces = split_kernel_outputs(kernel)
            else:
                pieces = [kernel]
            kernel_groups[func.name] = [piece.name for piece in pieces]
            transformed_functions.extend(pieces)
        transformed_unit = ast.TranslationUnit(
            functions=transformed_functions, filename=filename
        )

        program = analyze(transformed_unit)
        check_range_specs(options.range_specs)
        specs = dict(options.range_specs)
        # Specs declared for an original kernel apply to its split pieces.
        for original, pieces in kernel_groups.items():
            if original in specs:
                for piece in pieces:
                    specs.setdefault(piece, specs[original])
        certification = check_program(
            program, target=options.target, strict=options.strict,
            range_specs=specs,
        )

        compiled = CompiledProgram(
            source=source, options=options, program=program,
            certification=certification, kernel_groups=kernel_groups,
            original_definitions={
                func.name: func for func in unit.functions
                if func.is_kernel or func.is_reduction
            },
        )
        helper_defs = [info.definition for info in program.helpers]
        for info in program.kernels:
            kernel = info.definition
            loop_bounds = certification.ranges.loop_bounds(kernel.name)
            original = next(
                (orig for orig, pieces in kernel_groups.items() if kernel.name in pieces),
                kernel.name,
            )
            compiled_kernel = CompiledKernel(
                name=kernel.name,
                definition=kernel,
                original_name=original,
                resources=certification.kernels[kernel.name].resource_summary,
                max_loop_iterations=loop_bounds.max_total_iterations,
            )
            # Code generation is best-effort per backend: a kernel that is
            # outside a backend's capabilities (vector streams on GL ES 2,
            # pointer-style legacy code compiled in non-strict analysis
            # mode, ...) simply has no artefact for that backend.
            if options.emit_glsl_es:
                try:
                    compiled_kernel.glsl_es = generate_glsl_es(kernel, helper_defs)
                except CodegenError:
                    compiled_kernel.glsl_es = None
            if options.emit_desktop_glsl:
                try:
                    compiled_kernel.desktop_glsl = generate_desktop_glsl(
                        kernel, helper_defs)
                except CodegenError:
                    compiled_kernel.desktop_glsl = None
            if options.emit_c:
                try:
                    compiled_kernel.c_source = generate_c(kernel, helper_defs)
                except CodegenError:
                    compiled_kernel.c_source = None
            if options.enable_fast_path:
                compiled_kernel.vector_path, compiled_kernel.vector_report = \
                    build_vector_path(
                        kernel, compiled.helpers(),
                        spec=specs.get(kernel.name),
                        ranges=certification.ranges)
            compiled.kernels[kernel.name] = compiled_kernel
        return compiled


def compile_source(
    source: str,
    filename: str = "<string>",
    options: Optional[CompilerOptions] = None,
    **option_overrides,
) -> CompiledProgram:
    """Convenience wrapper: compile Brook source with optional overrides.

    Keyword arguments override fields of :class:`CompilerOptions`, e.g.
    ``compile_source(src, strict=False, scalarize=True)``.
    """
    if options is None:
        options = CompilerOptions()
    for key, value in option_overrides.items():
        if not hasattr(options, key):
            raise TypeError(f"unknown compiler option {key!r}")
        setattr(options, key, value)
    return BrookAutoCompiler(options).compile(source, filename)
