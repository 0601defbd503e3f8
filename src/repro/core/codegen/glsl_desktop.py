"""Desktop GLSL code generation (reference Brook / Brook+ style backend).

The original Brook OpenGL backend and AMD's Brook+ CAL backend both run
on desktop GPUs where:

* float32 textures and float render targets are available, so no RGBA8
  packing is needed, and
* *non-normalized* texture coordinates (texture rectangles / CAL linear
  addressing) are available, so array indices can be used directly.

This generator stands in for those backends.  It exists for two reasons:
to document the translation difference with the embedded
:mod:`~repro.core.codegen.glsl_es` path (which is the paper's actual
contribution), and to feed the simulated CAL device used as the reference
x86 platform in Figures 2 and 3.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

from ...errors import CodegenError
from .. import ast_nodes as ast
from ..builtins import lookup_builtin
from ..types import BrookType, ParamKind
from .base import CodeEmitter
from .glsl_es import GLSL_HELPERS

__all__ = ["DesktopGLSLGenerator", "generate_desktop_glsl"]

_TYPE_NAMES = {
    "float": "float",
    "float2": "vec2",
    "float3": "vec3",
    "float4": "vec4",
    "int": "int",
    "int2": "ivec2",
    "int3": "ivec3",
    "int4": "ivec4",
    "bool": "bool",
    "void": "void",
}

_PRELUDE = """\
#extension GL_ARB_texture_rectangle : enable
/* Desktop backend: float textures, non-normalized addressing. */
""" + GLSL_HELPERS


class DesktopGLSLGenerator(CodeEmitter):
    """Generates desktop GLSL (texture-rectangle addressing, float storage)."""

    MODULO_AS_CALL = "mod"
    FLOAT_MODULO_AS_CALL = "brook_fmod"

    def __init__(self, kernel: ast.FunctionDef,
                 helpers: Optional[Sequence[ast.FunctionDef]] = None):
        super().__init__(kernel)
        self.helpers = list(helpers or [])

    def type_name(self, brook_type: BrookType) -> str:
        try:
            return _TYPE_NAMES[brook_type.name]
        except KeyError:
            raise CodegenError(f"type {brook_type} has no GLSL mapping")

    def builtin_name(self, name: str) -> str:
        builtin = lookup_builtin(name)
        if builtin is None:
            return name
        return builtin.glsl_name or name

    def emit_gather(self, expr: ast.IndexExpr) -> str:
        name, indices = self.gather_base_and_indices(expr)
        param = self.kernel.param(name)
        if param is None or param.kind is not ParamKind.GATHER:
            raise CodegenError(f"{name!r} is not a gather parameter")
        rank = max(1, param.gather_rank)
        sampler = f"__gather_{name}"
        swizzle = {1: ".x", 2: ".xy", 3: ".xyz", 4: ""}[max(1, param.type.width)]
        if rank == 1:
            index = self.emit_expr(indices[0])
            coord = f"vec2(float({index}), 0.0)"
        elif len(indices) == 1:
            coord = f"vec2({self.emit_expr(indices[0])})"
        else:
            row = self.emit_expr(indices[0])
            col = self.emit_expr(indices[1])
            coord = f"vec2(float({col}), float({row}))"
        return f"texture2DRect({sampler}, {coord}){swizzle}"

    def emit_indexof(self, expr: ast.IndexOfExpr) -> str:
        # gl_FragCoord is already in pixel (element) units on the desktop path.
        return "(gl_FragCoord.xy - 0.5)"

    def generate(self) -> str:
        kernel = self.kernel
        writer = self.writer
        writer.line(f"/* Brook: kernel {kernel.name} -> desktop GLSL */")
        writer.lines.append(_PRELUDE)
        for param in kernel.params:
            if param.kind in (ParamKind.STREAM, ParamKind.ITERATOR):
                writer.line(f"uniform sampler2DRect __stream_{param.name};")
            elif param.kind is ParamKind.GATHER:
                writer.line(f"uniform sampler2DRect __gather_{param.name};")
            elif param.kind is ParamKind.SCALAR:
                writer.line(f"uniform {self.type_name(param.type)} {param.name};")
        writer.line("")
        for helper in self.helpers:
            params = ", ".join(
                f"{self.type_name(p.type)} {p.name}" for p in helper.params
            )
            writer.line(f"{self.type_name(helper.return_type)} {helper.name}({params})")
            self.emit_statement(helper.body)
            writer.line("")
        args: List[str] = []
        for param in kernel.params:
            if param.kind is ParamKind.GATHER:
                continue
            qualifier = "inout " if param.kind in (ParamKind.OUT_STREAM, ParamKind.REDUCE) else ""
            args.append(f"{qualifier}{self.type_name(param.type)} {param.name}")
        writer.line(f"void __kernel_{kernel.name}({', '.join(args)})")
        self.emit_statement(kernel.body)
        writer.line("")
        writer.line("void main()")
        writer.line("{")
        writer.push()
        call_args: List[str] = []
        outputs = kernel.output_params + kernel.reduce_params
        for param in kernel.params:
            swizzle = {1: ".x", 2: ".xy", 3: ".xyz", 4: ""}[max(1, param.type.width)]
            if param.kind in (ParamKind.STREAM, ParamKind.ITERATOR):
                writer.line(
                    f"{self.type_name(param.type)} {param.name} = "
                    f"texture2DRect(__stream_{param.name}, gl_FragCoord.xy){swizzle};"
                )
                call_args.append(param.name)
            elif param.kind is ParamKind.SCALAR:
                call_args.append(param.name)
            elif param.kind in (ParamKind.OUT_STREAM, ParamKind.REDUCE):
                writer.line(f"{self.type_name(param.type)} {param.name} = "
                            f"{self.type_name(param.type)}(0.0);")
                call_args.append(param.name)
        writer.line(f"__kernel_{kernel.name}({', '.join(call_args)});")
        for index, out in enumerate(outputs):
            target = "gl_FragColor" if len(outputs) == 1 else f"gl_FragData[{index}]"
            if out.type.width == 4:
                writer.line(f"{target} = {out.name};")
            else:
                pad = ", ".join(["0.0"] * (4 - out.type.width))
                writer.line(f"{target} = vec4({out.name}{', ' + pad if pad else ''});")
        writer.pop()
        writer.line("}")
        return writer.text()


def generate_desktop_glsl(kernel: ast.FunctionDef,
                          helpers: Optional[Sequence[ast.FunctionDef]] = None) -> str:
    """Generate desktop GLSL for ``kernel`` (reference backend)."""
    return DesktopGLSLGenerator(kernel, helpers).generate()
