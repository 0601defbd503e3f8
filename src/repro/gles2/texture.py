"""Simulated OpenGL ES 2.0 textures.

Textures are the only device memory OpenGL ES 2.0 exposes, and they are
the storage Brook Auto streams live in.  The simulation models the
properties the paper's arguments rely on:

* storage is RGBA8 (4 bytes per texel); float formats are an optional
  extension most automotive parts lack, which is why the runtime packs
  floats arithmetically (section 5.4),
* sampling uses *normalized* coordinates in ``[0, 1]``,
* out-of-range coordinates are clamped to the edge, so a stray access
  returns a valid texel instead of faulting (section 4: "when the texture
  unit is used for accessing memory, memory violations do not raise
  exceptions"),
* the extent may be restricted to powers of two and/or squares.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

from ..errors import GLES2Error
from .limits import GLES2Limits

__all__ = ["Texture2D"]


def _is_power_of_two(value: int) -> bool:
    return value > 0 and (value & (value - 1)) == 0


class Texture2D:
    """A 2-D RGBA8 texture object."""

    def __init__(self, width: int, height: int, limits: GLES2Limits,
                 name: str = ""):
        if width <= 0 or height <= 0:
            raise GLES2Error(f"invalid texture size {width}x{height}")
        if width > limits.max_texture_size or height > limits.max_texture_size:
            raise GLES2Error(
                f"texture size {width}x{height} exceeds GL_MAX_TEXTURE_SIZE "
                f"({limits.max_texture_size}) of {limits.name}"
            )
        if not limits.npot_textures_supported and not (
            _is_power_of_two(width) and _is_power_of_two(height)
        ):
            raise GLES2Error(
                f"device {limits.name} only supports power-of-two textures; "
                f"got {width}x{height}"
            )
        if limits.square_textures_only and width != height:
            raise GLES2Error(
                f"device {limits.name} only supports square textures; "
                f"got {width}x{height}"
            )
        self.width = int(width)
        self.height = int(height)
        self.limits = limits
        self.name = name
        #: RGBA8 texel storage, shape (height, width, 4).
        self.data = np.zeros((self.height, self.width, 4), dtype=np.uint8)
        self.upload_count = 0
        self.download_count = 0
        self.sample_count = 0

    # ------------------------------------------------------------------ #
    @property
    def size_bytes(self) -> int:
        return self.width * self.height * 4

    @property
    def shape(self) -> Tuple[int, int]:
        return (self.height, self.width)

    # ------------------------------------------------------------------ #
    def tex_image_2d(self, rgba: np.ndarray) -> None:
        """Upload a full-texture RGBA8 image (``glTexImage2D``)."""
        rgba = np.asarray(rgba, dtype=np.uint8)
        if rgba.shape != (self.height, self.width, 4):
            raise GLES2Error(
                f"tex_image_2d expects shape {(self.height, self.width, 4)}, "
                f"got {rgba.shape}"
            )
        self.data[...] = rgba
        self.upload_count += 1

    def tex_sub_image_2d(self, x: int, y: int, rgba: np.ndarray) -> None:
        """Upload a sub-rectangle (``glTexSubImage2D``)."""
        rgba = np.asarray(rgba, dtype=np.uint8)
        if rgba.ndim != 3 or rgba.shape[2] != 4:
            raise GLES2Error("tex_sub_image_2d expects an (h, w, 4) RGBA8 array")
        height, width = rgba.shape[:2]
        if x < 0 or y < 0 or x + width > self.width or y + height > self.height:
            raise GLES2Error("tex_sub_image_2d rectangle out of bounds")
        self.data[y:y + height, x:x + width] = rgba
        self.upload_count += 1

    def read_pixels(self) -> np.ndarray:
        """Download the full texture contents (``glReadPixels`` via an FBO)
        as a read-only view; it follows later writes to the texture."""
        self.download_count += 1
        pixels = self.data.view()
        pixels.flags.writeable = False
        return pixels

    # ------------------------------------------------------------------ #
    def sample_normalized(self, u: np.ndarray, v: np.ndarray) -> np.ndarray:
        """Nearest-neighbour sample at normalized coordinates.

        Coordinates outside ``[0, 1]`` are clamped to the edge
        (``GL_CLAMP_TO_EDGE``), so no access can fault.  Returns RGBA8
        texels with the same leading shape as ``u``.
        """
        u = np.asarray(u, dtype=np.float64)
        v = np.asarray(v, dtype=np.float64)
        x = np.clip(np.floor(u * self.width), 0, self.width - 1).astype(np.int64)
        y = np.clip(np.floor(v * self.height), 0, self.height - 1).astype(np.int64)
        self.sample_count += int(np.asarray(x).size)
        return self.data[y, x]

    def sample_viewport(self, width: int, height: int) -> np.ndarray:
        """The ``(height, width, 4)`` texels :meth:`sample_normalized`
        gives at each fragment centre over this texture's extent,
        ``((x + 0.5) / self.width, (y + 0.5) / self.height)``: that is
        texel ``(x, y)`` clamped to the edge, for every extent up to any
        device's ``max_texture_size``.
        """
        self.sample_count += width * height
        if width <= self.width and height <= self.height:
            return self.data[:height, :width]
        ys = np.minimum(np.arange(height), self.height - 1)
        xs = np.minimum(np.arange(width), self.width - 1)
        return self.data[ys[:, None], xs]

    def sample_texel(self, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        """Sample by (clamped) integer texel position; helper for the runtime."""
        x = np.clip(np.asarray(x, dtype=np.int64), 0, self.width - 1)
        y = np.clip(np.asarray(y, dtype=np.int64), 0, self.height - 1)
        self.sample_count += int(np.asarray(x).size)
        return self.data[y, x]

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        label = f" {self.name!r}" if self.name else ""
        return f"<Texture2D{label} {self.width}x{self.height} RGBA8>"
