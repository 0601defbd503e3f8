"""Numerical format interoperability (paper section 5.4).

OpenGL ES 2.0 guarantees neither float textures nor float render
targets, so Brook Auto stores stream elements in RGBA8 texels and
converts between IEEE-754 float32 and the packed representation.  The
scheme follows Trompouki & Kosmidis (DATE'16): the sign, the 8-bit
exponent and the 23-bit mantissa of the float are distributed over the
four 8-bit channels, using arithmetic only on the GPU side (GLSL ES 1.0
has no bit operations) and plain C on the host side.  The round trip is
exact for every normal float32 value; denormals flush to zero and
NaN/Inf are not representable (Brook Auto kernels are not allowed to
produce them).

The Python implementations here are the host-side ("input reconstruction
and output encoding") counterparts of the GLSL functions embedded in
every generated shader (see the prelude in
:mod:`repro.core.codegen.glsl_es`); a dedicated property test checks the
round trip over the full float32 range.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "encode_float_rgba8",
    "decode_float_rgba8",
    "quantize_roundtrip",
    "RELATIVE_PRECISION",
    "MIN_NORMAL",
]

#: Relative error bound of one encode/decode round trip.  The packing is
#: bit-exact for normal float32 values, so the only loss is the float32
#: rounding of the original value itself.
RELATIVE_PRECISION = 2.0 ** -23

#: Smallest magnitude that survives encoding (denormals flush to zero).
MIN_NORMAL = float(np.finfo(np.float32).tiny)


#: Exponent field of a float32 bit pattern.
_EXPONENT_BITS = 0x7F800000


def encode_float_rgba8(values: np.ndarray) -> np.ndarray:
    """Pack float32 values into RGBA8 texels (bit-exact for normals).

    Channel layout (mirroring the arithmetic decomposition the GLSL ES
    shader performs with ``floor``/``mod``):

    * R: sign bit and the upper 7 bits of the exponent,
    * G: the lowest exponent bit and the upper 7 bits of the mantissa,
    * B: the middle mantissa byte,
    * A: the low mantissa byte.

    That is the big-endian byte order of the float32 bit pattern.
    """
    bits = np.asarray(values, dtype=np.float32).view(np.uint32)
    texels = bits.astype(">u4", order="C")
    # Flush denormals (and +/-0) to exactly zero, as the shader does.
    texels[(texels & _EXPONENT_BITS) == 0] = 0
    return texels[..., None].view(np.uint8)


def decode_float_rgba8(rgba: np.ndarray) -> np.ndarray:
    """Unpack RGBA8 texels produced by :func:`encode_float_rgba8`; a
    ``[:rows, :cols]`` region of a padded texture is read in place."""
    rgba = np.asarray(rgba, dtype=np.uint8)
    if rgba.ndim == 0 or rgba.shape[-1] != 4:
        raise ValueError("decode_float_rgba8 expects a trailing axis of 4 channels")
    if rgba.strides[-1] != 1:
        rgba = np.ascontiguousarray(rgba)
    bits = rgba.view(">u4")[..., 0].astype(np.uint32, order="C")
    # Exponent == 0 encodes zero (denormals were flushed on encode); make
    # sure stray denormal bit patterns decode to exactly zero too.
    bits[(bits & _EXPONENT_BITS) == 0] = 0
    return bits.view(np.float32)


def quantize_roundtrip(values: np.ndarray) -> np.ndarray:
    """Return ``values`` after one encode/decode round trip.

    The runtime applies this to model the precision a value retains when
    written into an RGBA8 texture and read back: float32 normals survive
    exactly, denormals flush to zero.
    """
    return decode_float_rgba8(encode_float_rgba8(values))
