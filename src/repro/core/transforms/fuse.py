"""Producer -> consumer kernel fusion.

Classic streaming-compiler fusion (Brook for GPUs, StreamIt): when one
kernel's output stream is consumed element-for-element by the next
kernel, the two passes can be merged into a single kernel in which the
intermediate stream becomes a register-resident local variable.  The
merged kernel

* eliminates the intermediate stream's device storage,
* eliminates one full write + read of the intermediate (on the OpenGL
  ES 2 backend that is an RGBA8 encode, a texture write, a texture fetch
  and an RGBA8 decode per element), and
* saves one kernel pass (draw call) of fixed overhead.

Fusion is *legal* when the producer and consumer are plain map kernels
launched over the same domain and the consumer reads the intermediate as
a positional input stream - element ``i`` of the consumer only ever sees
element ``i`` of the producer.  A consumer that **gathers** from the
intermediate (``a[j]``) may read arbitrary elements and therefore needs
the whole intermediate materialised first; such pairs are rejected and
keep running as two passes.  Reductions are likewise never fused.

This module operates purely on the AST (:func:`fuse_definitions`) plus
the steps that package the fused definition as a
:class:`~repro.core.compiler.CompiledKernel`.  :func:`merge_compiled`
builds what the runtime's legality test reads (the definition, its
resources and loop bound, and the GLSL ES text); :func:`complete_compiled`
adds the desktop GLSL and C text and the vector program.  A chain of N
kernels is merged pair by pair, so only the last of its N-1 merged
kernels is ever launched and completed.  :func:`fuse_compiled` runs both
steps.  The runtime entry point, ``rt.fuse([...])``, lives in
:mod:`repro.runtime.launch`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple, TYPE_CHECKING

from ...errors import CodegenError, FusionError
from .. import ast_nodes as ast
from ..types import ParamKind

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..compiler import CompiledKernel

__all__ = ["FusionResult", "check_fusable", "fuse_definitions",
           "merge_compiled", "complete_compiled", "fuse_compiled"]


@dataclass
class FusionResult:
    """Outcome of one AST-level fusion step."""

    #: The merged kernel definition.
    definition: ast.FunctionDef
    #: Producer symbol -> its (prefixed) name in the fused kernel.  Covers
    #: every producer parameter, including the eliminated outputs.
    producer_renames: Dict[str, str] = field(default_factory=dict)
    #: Eliminated consumer stream parameter -> the fused-kernel local that
    #: now carries the intermediate value.
    consumer_renames: Dict[str, str] = field(default_factory=dict)
    #: Element widths of the eliminated intermediate streams (used by the
    #: statistics / timing accounting of saved stream traffic).
    eliminated_widths: Tuple[int, ...] = ()


def _collect_names(kernel: ast.FunctionDef) -> Tuple[List[str], List[str]]:
    """(every symbol name of ``kernel``, the locals its body declares)."""
    names = [param.name for param in kernel.params]
    declared = []
    for node in kernel.body.walk():
        if isinstance(node, ast.DeclStatement):
            declared.append(node.name)
        elif isinstance(node, ast.Identifier):
            names.append(node.name)
    return names + declared, declared


def _fresh_prefix(names) -> str:
    taken = set(names)
    counter = 0
    while True:
        prefix = f"f{counter}_"
        if not any(name.startswith(prefix) for name in taken):
            return prefix
        counter += 1


def check_fusable(
    producer: ast.FunctionDef,
    consumer: ast.FunctionDef,
    connections: Dict[str, str],
) -> Optional[str]:
    """Why ``producer``/``consumer`` cannot be fused, or ``None`` if legal.

    Args:
        producer: The upstream map kernel.
        consumer: The downstream map kernel.
        connections: Consumer input-stream parameter name -> producer
            output parameter name feeding it.
    """
    if not producer.is_kernel or producer.is_reduction:
        return f"{producer.name!r} is not a map kernel"
    if not consumer.is_kernel or consumer.is_reduction:
        return f"{consumer.name!r} is not a map kernel"
    if any(isinstance(node, ast.ReturnStatement)
           for node in producer.body.walk()):
        # An early return only ends the *producer* when the kernels run
        # as separate passes; in a concatenated body the SIMT returned
        # mask would suppress the consumer's statements too.
        return (f"{producer.name!r} returns early; its return mask would "
                "also suppress the consumer's statements")
    if not connections:
        return "no producer output feeds a consumer input"
    for consumer_param, producer_out in connections.items():
        out_param = producer.param(producer_out)
        if out_param is None or out_param.kind is not ParamKind.OUT_STREAM:
            return (f"{producer_out!r} is not an output stream of "
                    f"{producer.name!r}")
        in_param = consumer.param(consumer_param)
        if in_param is None:
            return (f"{consumer_param!r} is not a parameter of "
                    f"{consumer.name!r}")
        if in_param.kind is ParamKind.GATHER:
            return (f"{consumer.name!r} gathers from the intermediate "
                    f"{consumer_param!r}; the intermediate must be "
                    "materialised (fusion would change its values)")
        if in_param.kind is not ParamKind.STREAM:
            return (f"{consumer_param!r} of {consumer.name!r} is a "
                    f"{in_param.kind.value} parameter, not an input stream")
        if in_param.type.width != out_param.type.width:
            return (f"element width mismatch: {producer_out!r} is "
                    f"float{out_param.type.width} but {consumer_param!r} "
                    f"expects float{in_param.type.width}")
    return None


def fuse_definitions(
    producer: ast.FunctionDef,
    consumer: ast.FunctionDef,
    connections: Dict[str, str],
    name: Optional[str] = None,
) -> FusionResult:
    """Merge ``producer`` into ``consumer`` at the AST level.

    The producer's connected output parameters become local variables of
    the fused kernel; the consumer's connected input-stream parameters
    disappear and its references read those locals instead.  Every
    producer symbol is renamed with a collision-free prefix so the two
    bodies can be concatenated safely.

    Raises:
        FusionError: When :func:`check_fusable` rejects the pair.
    """
    reason = check_fusable(producer, consumer, connections)
    if reason is not None:
        raise FusionError(
            f"cannot fuse {producer.name!r} -> {consumer.name!r}: {reason}")

    producer_names, producer_locals = _collect_names(producer)
    prefix = _fresh_prefix(producer_names + _collect_names(consumer)[0])
    producer_renames = {n: prefix + n for n in {
        param.name for param in producer.params
    } | set(producer_locals)}

    eliminated_outs = sorted(set(connections.values()),
                             key=[p.name for p in producer.params].index)
    eliminated_renamed = {producer_renames[n] for n in eliminated_outs}
    intermediate_decls: List[ast.Statement] = []
    eliminated_widths: List[int] = []
    producer_params: List[ast.KernelParam] = []
    for param in producer.params:
        param = ast.clone(param, producer_renames)
        if param.name in eliminated_renamed:
            intermediate_decls.append(ast.DeclStatement(
                location=param.location, decl_type=param.type,
                name=param.name, init=None,
            ))
        else:
            producer_params.append(param)
    for out_name in eliminated_outs:
        eliminated_widths.append(producer.param(out_name).type.width)

    consumer_renames = {
        consumer_param: producer_renames[producer_out]
        for consumer_param, producer_out in connections.items()
    }
    consumer_params = [ast.clone(param) for param in consumer.params
                       if param.name not in consumer_renames]

    fused_name = name or f"{producer.name}__{consumer.name}"
    body = ast.Block(
        location=producer.body.location,
        statements=(intermediate_decls
                    + [ast.clone(statement, producer_renames)
                       for statement in producer.body.statements]
                    + [ast.clone(statement, consumer_renames)
                       for statement in consumer.body.statements]),
    )
    fused = ast.FunctionDef(
        location=producer.location,
        name=fused_name,
        return_type=producer.return_type,
        params=producer_params + consumer_params,
        body=body,
        is_kernel=True,
        is_reduction=False,
    )
    return FusionResult(
        definition=fused,
        producer_renames=producer_renames,
        consumer_renames=consumer_renames,
        eliminated_widths=tuple(eliminated_widths),
    )


def merge_compiled(
    producer: "CompiledKernel",
    consumer: "CompiledKernel",
    connections: Dict[str, str],
    helpers: Dict[str, ast.FunctionDef],
) -> Tuple["CompiledKernel", FusionResult]:
    """Merge two compiled kernels into a *bare* :class:`CompiledKernel`.

    Runs the AST fusion and builds what deciding whether the merged
    kernel can launch needs: its resources, loop bound and GLSL ES text
    (best effort, like the compiler driver).  ``fused_from`` records the
    flattened source kernel names so launch statistics can attribute
    saved passes.  The result is ``bare`` until :func:`complete_compiled`
    runs on it; a bare kernel can be the producer of a further merge but
    must not be launched.
    """
    # Imported lazily: the compiler driver imports this package for its
    # other passes, so a module-level import would be circular.
    from ..analysis.loop_bounds import analyze_loop_bounds
    from ..analysis.resources import estimate_resources
    from ..codegen.glsl_es import generate_glsl_es
    from ..compiler import CompiledKernel

    result = fuse_definitions(producer.definition, consumer.definition,
                              connections)
    fused_def = result.definition
    loop_analysis = analyze_loop_bounds(fused_def)
    fused = CompiledKernel(
        name=fused_def.name,
        definition=fused_def,
        original_name=fused_def.name,
        resources=estimate_resources(fused_def, loop_analysis),
        glsl_es=_generate(generate_glsl_es, fused_def, helpers),
        max_loop_iterations=loop_analysis.max_total_iterations,
        fused_from=((producer.fused_from or (producer.name,))
                    + (consumer.fused_from or (consumer.name,))),
        fused_saved_components=(producer.fused_saved_components
                                + consumer.fused_saved_components
                                + sum(result.eliminated_widths)),
        bare=True,
    )
    return fused, result


def complete_compiled(kernel: "CompiledKernel",
                      helpers: Dict[str, ast.FunctionDef],
                      enable_fast_path: bool) -> None:
    """Finish a bare merged kernel in place so it can launch.

    Generates the desktop GLSL and C text and, when ``enable_fast_path``
    is set, builds the vector program and its brookvec report.
    """
    from ..codegen.c_backend import generate_c
    from ..codegen.glsl_desktop import generate_desktop_glsl

    kernel.desktop_glsl = _generate(generate_desktop_glsl, kernel.definition,
                                    helpers)
    kernel.c_source = _generate(generate_c, kernel.definition, helpers)
    if enable_fast_path:
        from ..exec.vectorized import build_vector_path

        kernel.vector_path, kernel.vector_report = build_vector_path(
            kernel.definition, helpers)
    kernel.bare = False


def fuse_compiled(
    producer: "CompiledKernel",
    consumer: "CompiledKernel",
    connections: Dict[str, str],
    helpers: Dict[str, ast.FunctionDef],
    enable_fast_path: bool = True,
) -> Tuple["CompiledKernel", FusionResult]:
    """Fuse two compiled kernels into a launchable :class:`CompiledKernel`:
    :func:`merge_compiled`, then :func:`complete_compiled`."""
    fused, result = merge_compiled(producer, consumer, connections, helpers)
    complete_compiled(fused, helpers, enable_fast_path)
    return fused, result


def _generate(generate, definition: ast.FunctionDef,
              helpers: Dict[str, ast.FunctionDef]) -> Optional[str]:
    """Shader or C text of ``definition``, ``None`` when codegen refuses."""
    try:
        return generate(definition, list(helpers.values()))
    except CodegenError:
        return None
