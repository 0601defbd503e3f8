"""Maximum stack-depth estimation for Brook kernels.

ISO 26262 asks for static verification of stack usage.  Brook kernels
cannot allocate dynamically and cannot recurse (enforced by the
certification checker with the call-graph analysis), so an upper bound is
simply the deepest call chain weighted by each function's frame size.
A frame is estimated from the declared locals plus a fixed bookkeeping
overhead, with vector types taking ``4 * width`` bytes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from .. import ast_nodes as ast
from ..semantic import AnalyzedProgram
from .call_graph import CallGraph, build_call_graph

__all__ = ["StackDepthReport", "estimate_stack_depth", "frame_sizes"]

#: Fixed per-call overhead charged for the return address / saved registers.
FRAME_OVERHEAD_BYTES = 16


@dataclass
class StackDepthReport:
    """Stack usage report for one kernel."""

    kernel_name: str
    #: Bytes of locals per function on the worst-case call chain.
    frame_bytes: Dict[str, int] = field(default_factory=dict)
    #: Longest call chain (function names, kernel first); empty on recursion.
    worst_chain: List[str] = field(default_factory=list)
    #: Total worst-case stack bytes, or ``None`` when recursion makes the
    #: bound impossible to compute.
    max_stack_bytes: Optional[int] = None

    @property
    def is_bounded(self) -> bool:
        return self.max_stack_bytes is not None


def _frame_size(func: ast.FunctionDef) -> int:
    """Estimate the stack frame of one function in bytes."""
    size = FRAME_OVERHEAD_BYTES
    for node in func.body.walk():
        if isinstance(node, ast.DeclStatement):
            size += 4 * max(1, node.decl_type.width)
    for param in func.params:
        size += 4 * max(1, param.type.width)
    return size


def frame_sizes(program: AnalyzedProgram) -> Dict[str, int]:
    """The estimated stack frame of every function of ``program``."""
    return {name: _frame_size(info.definition)
            for name, info in program.functions.items()}


def estimate_stack_depth(
    program: AnalyzedProgram,
    kernel_name: str,
    call_graph: Optional[CallGraph] = None,
    frames: Optional[Dict[str, int]] = None,
) -> StackDepthReport:
    """Compute the worst-case stack usage of ``kernel_name``.

    ``call_graph`` and ``frames`` (:func:`frame_sizes`) are the program's;
    a caller estimating every kernel builds them once and passes them in.
    """
    graph = call_graph or build_call_graph(program)
    if frames is None:
        frames = frame_sizes(program)
    report = StackDepthReport(kernel_name=kernel_name)
    report.frame_bytes = dict(frames)

    if kernel_name in graph.recursive_functions() or graph.max_depth_from(kernel_name) is None:
        report.max_stack_bytes = None
        return report

    # Depth-first search for the heaviest chain (graph is acyclic here).
    def heaviest(node: str) -> (int, List[str]):
        best_weight = frames.get(node, FRAME_OVERHEAD_BYTES)
        best_chain = [node]
        for callee in graph.callees(node):
            if callee not in frames:
                continue
            weight, chain = heaviest(callee)
            total = frames.get(node, FRAME_OVERHEAD_BYTES) + weight
            if total > best_weight:
                best_weight = total
                best_chain = [node] + chain
        return best_weight, best_chain

    weight, chain = heaviest(kernel_name)
    report.max_stack_bytes = weight
    report.worst_chain = chain
    return report
