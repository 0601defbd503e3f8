"""Multi-output kernel splitting.

OpenGL ES 2.0 provides a single render target, so a Brook kernel with N
output streams cannot be executed in one pass.  The original Brook
runtime would fall back to implicit multi-pass emulation, which Brook
Auto forbids (the number of GPU calls would no longer be visible in the
source).  Instead, the paper splits such kernels at the source level:
"the application is trivially modified, e.g. by ... splitting the kernel
in as many versions as the outputs" (section 6).

This pass automates the modification: for a kernel with outputs
``o1..oN`` it produces N kernels named ``<kernel>__<oi>``.  Each split
kernel keeps the full computation (the other outputs become local
temporaries so every data dependency still resolves) but declares exactly
one ``out`` parameter, making it certifiable for a single-render-target
platform.  The cost is recomputation, which the paper accepts for Floyd-
Warshall (its kernel "needed to be split in two - since it produced two
outputs").
"""

from __future__ import annotations

from typing import List

from ...errors import CodegenError
from .. import ast_nodes as ast
from ..types import ParamKind

__all__ = ["split_kernel_outputs"]


def split_kernel_outputs(kernel: ast.FunctionDef,
                         name_separator: str = "__") -> List[ast.FunctionDef]:
    """Split ``kernel`` into one single-output kernel per output stream.

    Returns a list with one kernel per original output (in declaration
    order).  A kernel that already has zero or one output is returned
    unchanged (as a single-element list) so callers can apply the pass
    unconditionally.
    """
    outputs = kernel.output_params
    if kernel.is_reduction:
        return [kernel]
    if len(outputs) <= 1:
        return [kernel]

    split_kernels: List[ast.FunctionDef] = []
    for keep in outputs:
        clone = ast.clone(kernel)
        clone.name = f"{kernel.name}{name_separator}{keep.name}"
        demoted: List[ast.KernelParam] = []
        new_params: List[ast.KernelParam] = []
        for param in clone.params:
            if param.kind is ParamKind.OUT_STREAM and param.name != keep.name:
                demoted.append(param)
            else:
                new_params.append(param)
        clone.params = new_params

        # Demoted outputs become plain locals declared at the top of the
        # body, so assignments to them still type-check and any reads of
        # intermediate values still see the computed data.
        locals_decls = [
            ast.DeclStatement(
                location=param.location,
                decl_type=param.type,
                name=param.name,
                init=ast.NumberLiteral(location=param.location, value=0.0, is_float=True),
            )
            for param in demoted
        ]
        if not isinstance(clone.body, ast.Block):
            raise CodegenError(f"kernel {kernel.name!r} has no body block")
        clone.body.statements = locals_decls + clone.body.statements
        split_kernels.append(clone)
    return split_kernels
