"""C code generation for the CPU backend.

Brook has always shipped a CPU backend (originally OpenMP based) which is
what the reference applications validate the GPU results against.  This
generator emits portable C99 for a kernel: a scalar element function plus
a driver loop over the output domain.  The Python runtime does not
execute this text (it uses the vectorized evaluator in
:mod:`repro.core.exec`); the C source is produced as a build artefact for
inspection, for the certification package, and for the productivity
comparison of section 6.3.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

from ...errors import CodegenError
from .. import ast_nodes as ast
from ..builtins import lookup_builtin
from ..types import BrookType, ParamKind, ScalarKind
from .base import CodeEmitter

__all__ = ["CSourceGenerator", "generate_c"]

_TYPE_NAMES = {
    "float": "float",
    "float2": "brook_float2",
    "float3": "brook_float3",
    "float4": "brook_float4",
    "int": "int",
    "int2": "brook_int2",
    "int3": "brook_int3",
    "int4": "brook_int4",
    "bool": "int",
    "void": "void",
}

_PRELUDE = """\
#include <math.h>
#include <stddef.h>

typedef struct { float x, y; } brook_float2;
typedef struct { float x, y, z; } brook_float3;
typedef struct { float x, y, z, w; } brook_float4;
typedef struct { int x, y; } brook_int2;
typedef struct { int x, y, z; } brook_int3;
typedef struct { int x, y, z, w; } brook_int4;

static inline float brook_frac(float x) { return x - floorf(x); }
static inline float brook_saturate(float x) {
    return x < 0.0f ? 0.0f : (x > 1.0f ? 1.0f : x);
}
static inline float brook_lerp(float a, float b, float t) { return a + t * (b - a); }
static inline float brook_clamp(float x, float lo, float hi) {
    return x < lo ? lo : (x > hi ? hi : x);
}
"""

_C_BUILTIN_NAMES = {
    "sqrt": "sqrtf",
    "rsqrt": "brook_rsqrt",
    "exp": "expf",
    "exp2": "exp2f",
    "log": "logf",
    "log2": "log2f",
    "sin": "sinf",
    "cos": "cosf",
    "tan": "tanf",
    "asin": "asinf",
    "acos": "acosf",
    "atan": "atanf",
    "atan2": "atan2f",
    "floor": "floorf",
    "ceil": "ceilf",
    "round": "roundf",
    "abs": "fabsf",
    "frac": "brook_frac",
    "saturate": "brook_saturate",
    "pow": "powf",
    "fmod": "fmodf",
    "min": "fminf",
    "max": "fmaxf",
    "lerp": "brook_lerp",
    "mix": "brook_lerp",
    "clamp": "brook_clamp",
}


class CSourceGenerator(CodeEmitter):
    """Generates C99 source for one Brook kernel (CPU backend artefact)."""

    MODULO_AS_CALL = "fmodf"

    def __init__(self, kernel: ast.FunctionDef,
                 helpers: Optional[Sequence[ast.FunctionDef]] = None):
        super().__init__(kernel)
        self.helpers = list(helpers or [])

    def type_name(self, brook_type: BrookType) -> str:
        try:
            return _TYPE_NAMES[brook_type.name]
        except KeyError:
            raise CodegenError(f"type {brook_type} has no C mapping")

    def builtin_name(self, name: str) -> str:
        if name in _C_BUILTIN_NAMES:
            return _C_BUILTIN_NAMES[name]
        builtin = lookup_builtin(name)
        if builtin is not None and builtin.c_name:
            return builtin.c_name
        return name

    def emit_expr(self, expr: ast.Expression) -> str:
        if isinstance(expr, ast.ConstructorExpr) \
                and expr.target_type.width == 1:
            # A scalar conversion is a C cast; ``bool`` is an ``int`` in C,
            # so a conversion to it tests the value against zero.
            value = self.emit_expr(expr.args[0])
            if expr.target_type.kind is ScalarKind.BOOL:
                return f"(({value}) != 0)"
            return f"(({self.type_name(expr.target_type)})({value}))"
        return super().emit_expr(expr)

    def emit_gather(self, expr: ast.IndexExpr) -> str:
        name, indices = self.gather_base_and_indices(expr)
        param = self.kernel.param(name)
        if param is None or param.kind is not ParamKind.GATHER:
            raise CodegenError(f"{name!r} is not a gather parameter")
        rank = max(1, param.gather_rank)
        if rank == 1:
            index = self.emit_expr(indices[0])
            return f"{name}[(size_t)({index})]"
        if len(indices) == 1:
            index = self.emit_expr(indices[0])
            return f"{name}[(size_t)(({index}).y) * {name}_width + (size_t)(({index}).x)]"
        row = self.emit_expr(indices[0])
        col = self.emit_expr(indices[1])
        return f"{name}[(size_t)({row}) * {name}_width + (size_t)({col})]"

    def emit_indexof(self, expr: ast.IndexOfExpr) -> str:
        return "__brook_index"

    def generate(self) -> str:
        kernel = self.kernel
        writer = self.writer
        writer.line(f"/* Brook: kernel {kernel.name} -> CPU backend (C99) */")
        writer.lines.append(_PRELUDE)
        for helper in self.helpers:
            params = ", ".join(
                f"{self.type_name(p.type)} {p.name}" for p in helper.params
            )
            writer.line(f"static {self.type_name(helper.return_type)} "
                        f"{helper.name}({params})")
            self.emit_statement(helper.body)
            writer.line("")
        self._emit_element_function()
        self._emit_driver_loop()
        return writer.text()

    def _signature(self) -> List[str]:
        args: List[str] = []
        for param in self.kernel.params:
            type_name = self.type_name(param.type)
            if param.kind is ParamKind.GATHER:
                args.append(f"const {type_name} *{param.name}")
                args.append(f"size_t {param.name}_width")
            elif param.kind in (ParamKind.OUT_STREAM, ParamKind.REDUCE):
                args.append(f"{type_name} *{param.name}")
            elif param.kind in (ParamKind.STREAM, ParamKind.ITERATOR):
                args.append(f"const {type_name} *{param.name}")
            else:
                args.append(f"{type_name} {param.name}")
        return args

    def _emit_element_function(self) -> None:
        kernel = self.kernel
        args = []
        for param in kernel.params:
            type_name = self.type_name(param.type)
            if param.kind is ParamKind.GATHER:
                args.append(f"const {type_name} *{param.name}")
                args.append(f"size_t {param.name}_width")
            elif param.kind in (ParamKind.OUT_STREAM, ParamKind.REDUCE):
                args.append(f"{type_name} *__out_{param.name}")
            else:
                args.append(f"{type_name} {param.name}")
        args.append("brook_float2 __brook_index")
        self.writer.line(f"static void __kernel_{kernel.name}({', '.join(args)})")
        # Re-map writes to out params onto the pointer arguments by
        # declaring local aliases; the final value is copied back.
        body_writer = self.writer
        body_writer.line("{")
        body_writer.push()
        for param in kernel.params:
            if param.kind in (ParamKind.OUT_STREAM, ParamKind.REDUCE):
                body_writer.line(
                    f"{self.type_name(param.type)} {param.name} = *__out_{param.name};"
                )
        inner = ast.Block(statements=list(kernel.body.statements))
        for stmt in inner.statements:
            self.emit_statement(stmt)
        for param in kernel.params:
            if param.kind in (ParamKind.OUT_STREAM, ParamKind.REDUCE):
                body_writer.line(f"*__out_{param.name} = {param.name};")
        body_writer.pop()
        body_writer.line("}")
        body_writer.line("")

    def _emit_driver_loop(self) -> None:
        kernel = self.kernel
        writer = self.writer
        args = self._signature()
        writer.line(f"void brook_cpu_{kernel.name}({', '.join(args)}, "
                    "size_t __width, size_t __height)")
        writer.line("{")
        writer.push()
        writer.line("size_t __x, __y;")
        writer.line("for (__y = 0; __y < __height; ++__y) {")
        writer.push()
        writer.line("for (__x = 0; __x < __width; ++__x) {")
        writer.push()
        writer.line("size_t __linear = __y * __width + __x;")
        writer.line("brook_float2 __brook_index = { (float)__x, (float)__y };")
        call_args: List[str] = []
        for param in kernel.params:
            if param.kind is ParamKind.GATHER:
                call_args.append(param.name)
                call_args.append(f"{param.name}_width")
            elif param.kind in (ParamKind.OUT_STREAM, ParamKind.REDUCE):
                call_args.append(f"&{param.name}[__linear]")
            elif param.kind in (ParamKind.STREAM, ParamKind.ITERATOR):
                call_args.append(f"{param.name}[__linear]")
            else:
                call_args.append(param.name)
        call_args.append("__brook_index")
        writer.line(f"__kernel_{kernel.name}({', '.join(call_args)});")
        writer.pop()
        writer.line("}")
        writer.pop()
        writer.line("}")
        writer.pop()
        writer.line("}")


def generate_c(kernel: ast.FunctionDef,
               helpers: Optional[Sequence[ast.FunctionDef]] = None) -> str:
    """Generate C99 source for ``kernel`` (CPU backend artefact)."""
    return CSourceGenerator(kernel, helpers).generate()
