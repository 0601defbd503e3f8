"""Kernel resource estimation.

A Brook kernel maps to one fragment-shader pass.  On a low-end embedded
GPU the pass must fit the hardware limits of the OpenGL ES 2.0
implementation -- number of texture units (kernel inputs), render targets
(kernel outputs), uniforms (scalar constants), temporaries and instruction
slots.  When a desktop Brook kernel exceeds these limits, the original
Brook runtime silently falls back to multi-pass *emulation*, which is
exactly what Brook Auto forbids ("emulation for the cases where a kernel
resources exceed the available GPU resources can lead to multiple implicit
GPU calls for a single kernel").

This module estimates the resources of a kernel so the certification
checker can verify statically that no emulation will happen on the chosen
target.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from .. import ast_nodes as ast
from ..builtins import lookup_builtin
from ..types import ParamKind

__all__ = ["TargetLimits", "KernelResources", "estimate_resources"]


@dataclass(frozen=True)
class TargetLimits:
    """Hardware limits of a compilation target relevant to kernel fitting.

    The defaults correspond to a minimal OpenGL ES 2.0 implementation
    (VideoCore IV class); the desktop/CAL target and the CPU target are
    far less restrictive.
    """

    name: str = "gles2-minimum"
    max_kernel_inputs: int = 8          # texture image units
    max_kernel_outputs: int = 1         # color attachments (no MRT in ES 2.0)
    max_scalar_constants: int = 64      # uniform vectors
    max_temporaries: int = 64           # shader temporaries
    max_instructions: int = 2048        # shader instruction slots
    max_texture_size: int = 2048        # per dimension
    requires_power_of_two: bool = True
    requires_square_textures: bool = False
    supports_float_textures: bool = False
    max_gather_inputs: int = 8


@dataclass
class KernelResources:
    """Estimated resource usage of one kernel."""

    kernel_name: str
    input_streams: int = 0
    gather_arrays: int = 0
    output_streams: int = 0
    scalar_constants: int = 0
    #: Hidden uniforms the GL ES 2 backend adds (texture dimensions per
    #: indexed/indexof'd stream, output domain size, ...).
    hidden_constants: int = 0
    temporaries: int = 0
    #: Static instruction estimate (every expression node counts once; loop
    #: bodies are NOT multiplied by trip count because shader instruction
    #: slots are a static resource).
    instruction_estimate: int = 0
    #: Estimated floating-point operations for ONE worst-case thread,
    #: multiplying loop bodies by their (bounded) trip counts.  Used by the
    #: performance model for arithmetic-intensity estimates.
    flops_per_element: int = 0
    texture_fetches_per_element: int = 0

    @property
    def total_sampler_inputs(self) -> int:
        return self.input_streams + self.gather_arrays

    def fits(self, limits: TargetLimits) -> List[str]:
        """Return a list of human-readable reasons the kernel does NOT fit
        ``limits`` (empty list means it fits without emulation)."""
        problems: List[str] = []
        if self.total_sampler_inputs > limits.max_kernel_inputs:
            problems.append(
                f"kernel uses {self.total_sampler_inputs} input streams/arrays "
                f"but the target supports {limits.max_kernel_inputs} texture units"
            )
        if self.output_streams > limits.max_kernel_outputs:
            problems.append(
                f"kernel writes {self.output_streams} output streams but the "
                f"target supports {limits.max_kernel_outputs} render target(s); "
                "split the kernel (one version per output)"
            )
        if self.scalar_constants + self.hidden_constants > limits.max_scalar_constants:
            problems.append(
                f"kernel needs {self.scalar_constants + self.hidden_constants} "
                f"uniform constants but the target supports {limits.max_scalar_constants}"
            )
        if self.temporaries > limits.max_temporaries:
            problems.append(
                f"kernel needs {self.temporaries} temporaries but the target "
                f"supports {limits.max_temporaries}"
            )
        if self.instruction_estimate > limits.max_instructions:
            problems.append(
                f"kernel is estimated at {self.instruction_estimate} instructions "
                f"but the target supports {limits.max_instructions}"
            )
        return problems


def _count_expression(expr: ast.Expression, res: KernelResources,
                      gather_names, multiplier: int) -> None:
    """Accumulate instruction/flop/fetch counts for one expression tree."""
    for node in expr.walk():
        if isinstance(node, (ast.BinaryOp, ast.UnaryOp, ast.Conditional,
                             ast.Assignment)):
            res.instruction_estimate += 1
            res.flops_per_element += multiplier
        elif isinstance(node, ast.CallExpr):
            builtin = lookup_builtin(node.callee)
            cost = builtin.flop_cost if builtin is not None else 4
            res.instruction_estimate += cost
            res.flops_per_element += cost * multiplier
        elif isinstance(node, ast.ConstructorExpr) and not node.implicit:
            res.instruction_estimate += 1
            res.flops_per_element += multiplier
        elif isinstance(node, ast.IndexExpr):
            base = node.base
            while isinstance(base, ast.IndexExpr):
                base = base.base
            if isinstance(base, ast.Identifier) and base.name in gather_names:
                # Chained 2-D accesses issue one fetch at the innermost level.
                if not isinstance(node.base, ast.IndexExpr):
                    res.instruction_estimate += 2
                    res.texture_fetches_per_element += multiplier
        elif isinstance(node, ast.IndexOfExpr):
            res.instruction_estimate += 1


def _walk_statement(stmt: ast.Statement, res: KernelResources, gather_names,
                    loop_bounds: Dict[int, Optional[int]], multiplier: int) -> None:
    if isinstance(stmt, ast.Block):
        for child in stmt.statements:
            _walk_statement(child, res, gather_names, loop_bounds, multiplier)
    elif isinstance(stmt, ast.DeclStatement):
        res.temporaries += 1
        if stmt.init is not None:
            _count_expression(stmt.init, res, gather_names, multiplier)
    elif isinstance(stmt, ast.ExprStatement):
        _count_expression(stmt.expr, res, gather_names, multiplier)
    elif isinstance(stmt, ast.IfStatement):
        _count_expression(stmt.cond, res, gather_names, multiplier)
        _walk_statement(stmt.then_branch, res, gather_names, loop_bounds, multiplier)
        if stmt.else_branch is not None:
            _walk_statement(stmt.else_branch, res, gather_names, loop_bounds, multiplier)
    elif isinstance(stmt, ast.ForStatement):
        bound = loop_bounds.get(id(stmt))
        inner = multiplier * (bound if bound else 8)
        if stmt.init is not None:
            _walk_statement(stmt.init, res, gather_names, loop_bounds, multiplier)
        if stmt.cond is not None:
            _count_expression(stmt.cond, res, gather_names, inner)
        if stmt.update is not None:
            _count_expression(stmt.update, res, gather_names, inner)
        _walk_statement(stmt.body, res, gather_names, loop_bounds, inner)
    elif isinstance(stmt, ast.WhileStatement):
        bound = loop_bounds.get(id(stmt))
        inner = multiplier * (bound if bound else 8)
        _count_expression(stmt.cond, res, gather_names, inner)
        _walk_statement(stmt.body, res, gather_names, loop_bounds, inner)
    elif isinstance(stmt, ast.DoWhileStatement):
        bound = loop_bounds.get(id(stmt))
        inner = multiplier * (bound if bound else 8)
        _walk_statement(stmt.body, res, gather_names, loop_bounds, inner)
        _count_expression(stmt.cond, res, gather_names, inner)
    elif isinstance(stmt, ast.ReturnStatement):
        if stmt.value is not None:
            _count_expression(stmt.value, res, gather_names, multiplier)


def estimate_resources(
    kernel: ast.FunctionDef,
    loop_analysis=None,
) -> KernelResources:
    """Estimate the resource usage of ``kernel``.

    Args:
        kernel: Kernel definition (semantic analysis is not required).
        loop_analysis: Optional
            :class:`~repro.core.analysis.loop_bounds.LoopBoundAnalysis`
            used to weight loop bodies by their trip count when estimating
            per-element flop counts; unbounded loops are charged a nominal
            factor of 8.
    """
    res = KernelResources(kernel_name=kernel.name)
    res.input_streams = len(kernel.stream_params)
    res.gather_arrays = len(kernel.gather_params)
    res.output_streams = len(kernel.output_params) + len(kernel.reduce_params)
    res.scalar_constants = len(kernel.scalar_params)

    # The GL ES 2 backend passes the dimensions of every gather array and of
    # the output domain as hidden uniforms (paper section 5.2/5.3), plus one
    # uniform per stream whose indexof is taken.
    uses_indexof = any(isinstance(n, ast.IndexOfExpr) for n in kernel.body.walk())
    res.hidden_constants = res.gather_arrays + 1 + (1 if uses_indexof else 0)

    bounds: Dict[int, Optional[int]] = {}
    if loop_analysis is not None:
        for loop in loop_analysis.loops:
            bounds[id(loop.loop)] = loop.max_trip_count

    gather_names = {p.name for p in kernel.gather_params}
    _walk_statement(kernel.body, res, gather_names, bounds, 1)

    # Each positional input stream costs one fetch per element on the GPU
    # backends (it is read through a sampler at the implicit coordinate).
    res.texture_fetches_per_element += res.input_streams
    return res
