"""GLSL ES 1.0 code generation - the OpenGL ES 2.0 backend of Brook Auto.

This generator implements the translation rules described in section 5 of
the paper:

* **Normalized coordinates (5.2)** - OpenGL ES 2 textures can only be
  sampled with coordinates in ``[0, 1]``.  Array indices written by the
  programmer (element units) are scaled by *hidden uniform arguments*
  holding the allocated texture dimensions, transparently to the user.
* **indexof (5.2)** - the position of the current element is recovered
  from the implicit (normalized) fragment coordinate scaled back by the
  hidden output-domain dimensions.
* **Texture size bookkeeping (5.3)** - because textures may be padded to
  power-of-two/square sizes, both the allocated size and the logical data
  size are passed as hidden uniforms.
* **Numerical formats (5.4)** - OpenGL ES 2 mandates neither float
  textures nor float render targets, so stream elements are stored as
  RGBA8 texels and converted with the arithmetic encode/decode of
  Trompouki & Kosmidis (DATE'16), expressed with GLSL vector operations.
* **Reductions (5.5)** - reduce kernels are compiled to a multipass
  shader that folds a 2x2 block of the input per output fragment; the
  runtime keeps track of the live data size across passes.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

from ...errors import CodegenError
from .. import ast_nodes as ast
from ..builtins import lookup_builtin
from ..types import BrookType, ParamKind, ScalarKind
from .base import CodeEmitter

__all__ = ["GLSLES1Generator", "generate_glsl_es"]


#: Builtins GLSL lacks, shared by the GLSL ES and desktop preludes:
#: ``saturate``, and Brook's ``fmod`` / float ``%``, which are C ``fmod``
#: (the sign of the dividend) where GLSL's ``mod`` is
#: ``x - y * floor(x / y)`` (the sign of the divisor).
GLSL_HELPERS = "float brook_saturate(float x) { return clamp(x, 0.0, 1.0); }\n" \
    + "".join(
        f"{t} brook_fmod({t} a, {u} b) {{ return sign(a) * mod(abs(a), abs(b)); }}\n"
        for t, u in (("float", "float"), ("vec2", "vec2"), ("vec3", "vec3"),
                     ("vec4", "vec4"), ("vec2", "float"), ("vec3", "float"),
                     ("vec4", "float")))

#: GLSL ES 1.0 helper functions shared by every generated shader: the
#: float<->RGBA8 arithmetic packing (numerical transformations of [16])
#: and :data:`GLSL_HELPERS`.
_PRELUDE = """\
precision highp float;

/* Numerical format interoperability (Trompouki & Kosmidis, DATE'16):
 * the sign, 8-bit exponent and 23-bit mantissa of an IEEE-754 float32
 * are distributed over the four 8-bit channels of an RGBA8 texel.  The
 * reconstruction below uses arithmetic only (floor / exp2 / mod), since
 * GLSL ES 1.0 has no bit operations; the round trip is exact for every
 * normal float32 value.  Channel layout:
 *   R = sign bit + exponent[7:1],  G = exponent[0] + mantissa[22:16],
 *   B = mantissa[15:8],            A = mantissa[7:0].                  */
vec4 __brook_encode_float(float value) {
    float sign_bit = value < 0.0 ? 1.0 : 0.0;
    float mag = abs(value);
    if (mag < 1.17549435e-38) {                 /* denormals flush to 0 */
        return vec4(0.0, 0.0, 0.0, 0.0);
    }
    float expo = floor(log2(mag));
    /* Guard against log2 rounding placing us one exponent off. */
    if (mag < exp2(expo)) { expo -= 1.0; }
    if (mag >= exp2(expo + 1.0)) { expo += 1.0; }
    float biased = expo + 127.0;
    float mant = mag / exp2(expo) - 1.0;        /* [0, 1) */
    float mant_bits = floor(mant * 8388608.0 + 0.5);   /* 23 bits */
    float m_hi = floor(mant_bits / 65536.0);
    float m_mid = floor((mant_bits - m_hi * 65536.0) / 256.0);
    float m_lo = mant_bits - m_hi * 65536.0 - m_mid * 256.0;
    float e_hi = floor(biased / 2.0);
    float e_lo = biased - e_hi * 2.0;
    return vec4((sign_bit * 128.0 + e_hi) / 255.0,
                (e_lo * 128.0 + m_hi) / 255.0,
                m_mid / 255.0,
                m_lo / 255.0);
}

float __brook_decode_float(vec4 rgba) {
    float r = floor(rgba.x * 255.0 + 0.5);
    float g = floor(rgba.y * 255.0 + 0.5);
    float b = floor(rgba.z * 255.0 + 0.5);
    float a = floor(rgba.w * 255.0 + 0.5);
    float sign_bit = floor(r / 128.0);
    float e_hi = r - sign_bit * 128.0;
    float e_lo = floor(g / 128.0);
    float biased = e_hi * 2.0 + e_lo;
    if (biased == 0.0) { return 0.0; }
    float m_hi = g - e_lo * 128.0;
    float mant_bits = m_hi * 65536.0 + b * 256.0 + a;
    float mant = 1.0 + mant_bits / 8388608.0;
    float value = mant * exp2(biased - 127.0);
    return sign_bit > 0.5 ? -value : value;
}

""" + GLSL_HELPERS

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


class GLSLES1Generator(CodeEmitter):
    """Generates a GLSL ES 1.0 fragment shader for one Brook kernel."""

    MODULO_AS_CALL = "mod"
    FLOAT_MODULO_AS_CALL = "brook_fmod"

    def __init__(self, kernel: ast.FunctionDef,
                 helpers: Optional[Sequence[ast.FunctionDef]] = None):
        super().__init__(kernel)
        self.helpers = list(helpers or [])
        self._uses_indexof = any(
            isinstance(node, ast.IndexOfExpr) for node in kernel.body.walk()
        )

    # ------------------------------------------------------------------ #
    # Hook implementations
    # ------------------------------------------------------------------ #
    def type_name(self, brook_type: BrookType) -> str:
        try:
            return _TYPE_NAMES[brook_type.name]
        except KeyError:
            raise CodegenError(f"type {brook_type} has no GLSL ES mapping")

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
        dim = f"__dim_{name}"
        if rank == 1:
            index = self.emit_expr(indices[0])
            coord = f"vec2((float({index}) + 0.5) / {dim}.x, 0.5)"
        elif len(indices) == 1:
            # a[float2(x, y)] single-step 2-D access.
            index = self.emit_expr(indices[0])
            coord = f"((vec2({index}) + 0.5) / {dim})"
        else:
            row = self.emit_expr(indices[0])
            col = self.emit_expr(indices[1])
            coord = (f"vec2((float({col}) + 0.5) / {dim}.x, "
                     f"(float({row}) + 0.5) / {dim}.y)")
        return f"__brook_decode_float(texture2D({sampler}, {coord}))"

    def emit_indexof(self, expr: ast.IndexOfExpr) -> str:
        # The implicit texture coordinate is normalized; scaling it by the
        # hidden output-domain size recovers the element index (sec. 5.2).
        return "floor(__brook_texcoord * __brook_output_size)"

    # ------------------------------------------------------------------ #
    # Shader assembly
    # ------------------------------------------------------------------ #
    def generate(self) -> str:
        kernel = self.kernel
        if kernel.is_reduction:
            return self._generate_reduction()
        writer = self.writer
        writer.line(f"/* Brook Auto: kernel {kernel.name} -> GLSL ES 1.0 */")
        writer.lines.append(_PRELUDE)
        writer.line("varying vec2 __brook_texcoord;")
        writer.line("uniform vec2 __brook_output_size;")
        self._emit_uniform_declarations()
        writer.line("")
        self._emit_helpers()
        self._emit_kernel_function()
        self._emit_main()
        return writer.text()

    # -- declarations ---------------------------------------------------- #
    def _emit_uniform_declarations(self) -> None:
        writer = self.writer
        for param in self.kernel.params:
            if param.kind in (ParamKind.STREAM, ParamKind.ITERATOR):
                writer.line(f"uniform sampler2D __stream_{param.name};")
            elif param.kind is ParamKind.GATHER:
                writer.line(f"uniform sampler2D __gather_{param.name};")
                # Hidden argument: allocated texture size of the gather
                # array, needed to normalise user-written indices (sec 5.2).
                writer.line(f"uniform vec2 __dim_{param.name};")
            elif param.kind is ParamKind.SCALAR:
                writer.line(f"uniform {self.type_name(param.type)} {param.name};")

    def _emit_helpers(self) -> None:
        for helper in self.helpers:
            params = ", ".join(
                f"{self.type_name(p.type)} {p.name}" for p in helper.params
            )
            self.writer.line(f"{self.type_name(helper.return_type)} "
                             f"{helper.name}({params})")
            self.emit_statement(helper.body)
            self.writer.line("")

    def _emit_kernel_function(self) -> None:
        kernel = self.kernel
        args: List[str] = []
        for param in kernel.params:
            type_name = self.type_name(param.type)
            if param.kind in (ParamKind.STREAM, ParamKind.ITERATOR):
                args.append(f"{type_name} {param.name}")
            elif param.kind is ParamKind.SCALAR:
                args.append(f"{type_name} {param.name}")
            elif param.kind is ParamKind.OUT_STREAM:
                args.append(f"inout {type_name} {param.name}")
            elif param.kind is ParamKind.GATHER:
                # Gathers are read through their sampler uniforms directly.
                continue
        self.writer.line(f"void __kernel_{kernel.name}({', '.join(args)})")
        self.emit_statement(kernel.body)
        self.writer.line("")

    def _emit_main(self) -> None:
        kernel = self.kernel
        writer = self.writer
        outputs = kernel.output_params
        if len(outputs) != 1:
            raise CodegenError(
                f"kernel {kernel.name!r} has {len(outputs)} outputs; OpenGL ES 2 "
                "supports exactly one render target - apply split_kernel_outputs first"
            )
        writer.line("void main()")
        writer.line("{")
        writer.push()
        call_args: List[str] = []
        for param in kernel.params:
            if param.kind in (ParamKind.STREAM, ParamKind.ITERATOR):
                if param.type.width != 1:
                    raise CodegenError(
                        f"stream parameter {param.name!r} has vector type "
                        f"{param.type}; scalarize the kernel for the OpenGL ES 2 "
                        "backend (RGBA8 storage packs one float per texel)"
                    )
                writer.line(
                    f"float {param.name} = __brook_decode_float("
                    f"texture2D(__stream_{param.name}, __brook_texcoord));"
                )
                call_args.append(param.name)
            elif param.kind is ParamKind.SCALAR:
                call_args.append(param.name)
            elif param.kind is ParamKind.OUT_STREAM:
                writer.line(f"{self.type_name(param.type)} {param.name} = "
                            f"{self.type_name(param.type)}(0.0);"
                            if param.type.width > 1 else
                            f"float {param.name} = 0.0;")
                call_args.append(param.name)
        writer.line(f"__kernel_{kernel.name}({', '.join(call_args)});")
        out = outputs[0]
        if out.type.width != 1:
            raise CodegenError(
                f"output stream {out.name!r} has vector type {out.type}; "
                "scalarize the kernel for the OpenGL ES 2 backend"
            )
        writer.line(f"gl_FragColor = __brook_encode_float({out.name});")
        writer.pop()
        writer.line("}")

    # -- reductions ------------------------------------------------------ #
    def _generate_reduction(self) -> str:
        """Emit the multipass reduction shader (2x2 fold per fragment)."""
        kernel = self.kernel
        writer = self.writer
        stream_params = kernel.stream_params
        reduce_params = kernel.reduce_params
        if len(stream_params) != 1 or len(reduce_params) != 1:
            raise CodegenError(
                f"reduce kernel {kernel.name!r} must have exactly one input "
                "stream and one reduce accumulator"
            )
        stream, accumulator = stream_params[0], reduce_params[0]
        writer.line(f"/* Brook Auto: reduction kernel {kernel.name} -> GLSL ES 1.0 */")
        writer.lines.append(_PRELUDE)
        writer.line("varying vec2 __brook_texcoord;")
        writer.line("uniform sampler2D __reduce_input;")
        writer.line("uniform vec2 __reduce_input_dim;   /* allocated texture size */")
        writer.line("uniform vec2 __reduce_live_size;   /* live data size this pass */")
        writer.line("uniform vec2 __reduce_output_size; /* output domain this pass */")
        writer.line("")
        self._emit_helpers()
        writer.line(f"void __reduce_{kernel.name}(float {stream.name}, "
                    f"inout float {accumulator.name})")
        self.emit_statement(kernel.body)
        writer.line("")
        writer.line("float __fetch(vec2 element)")
        writer.line("{")
        writer.push()
        writer.line("vec2 coord = (element + 0.5) / __reduce_input_dim;")
        writer.line("return __brook_decode_float(texture2D(__reduce_input, coord));")
        writer.pop()
        writer.line("}")
        writer.line("")
        writer.line("void main()")
        writer.line("{")
        writer.push()
        writer.line("vec2 out_index = floor(__brook_texcoord * __reduce_output_size);")
        writer.line("vec2 base = out_index * 2.0;")
        writer.line(f"float {accumulator.name} = __fetch(base);")
        writer.line("float __element;")
        for dx, dy in ((1.0, 0.0), (0.0, 1.0), (1.0, 1.0)):
            writer.line(f"if (base.x + {dx} < __reduce_live_size.x && "
                        f"base.y + {dy} < __reduce_live_size.y) {{")
            writer.push()
            writer.line(f"__element = __fetch(base + vec2({dx}, {dy}));")
            writer.line(f"__reduce_{kernel.name}(__element, {accumulator.name});")
            writer.pop()
            writer.line("}")
        writer.line(f"gl_FragColor = __brook_encode_float({accumulator.name});")
        writer.pop()
        writer.line("}")
        return writer.text()


def generate_glsl_es(kernel: ast.FunctionDef,
                     helpers: Optional[Sequence[ast.FunctionDef]] = None) -> str:
    """Generate the GLSL ES 1.0 fragment shader for ``kernel``."""
    return GLSLES1Generator(kernel, helpers).generate()
