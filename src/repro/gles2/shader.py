"""Simulated shader programs.

A shader program pairs the GLSL ES 1.0 source text (what a real driver
would compile) with an executable :class:`FragmentShader` object that the
simulation runs for every fragment of a draw call.  Two kinds of
fragment shaders exist in the repository:

* the Brook Auto runtime backend wraps a compiled Brook kernel in a
  fragment shader that reads the bound stream textures texel by texel
  and runs the kernel body through the execution engine, and
* the hand-written GPGPU applications (the sgemm used in Figure 4)
  implement :class:`FragmentShader` directly against this API, exactly
  like a hand-written C + OpenGL ES 2 program would supply its own GLSL.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Dict, Optional

import numpy as np

from ..errors import GLES2Error
from .texture import Texture2D

__all__ = ["FragmentJob", "FragmentShader", "ShaderProgram"]


@dataclass
class FragmentJob:
    """Everything a fragment shader invocation can see.

    Attributes:
        width / height: Render target extent in pixels; fragments run
            row-major over it (x fastest).
        uniforms: Uniform values set on the program.
        samplers: Bound textures by sampler name.

    The coordinate grids are built on first read (a Brook pass never
    reads them).
    """

    width: int
    height: int
    uniforms: Dict[str, object] = field(default_factory=dict)
    samplers: Dict[str, Texture2D] = field(default_factory=dict)

    @property
    def fragment_count(self) -> int:
        return self.width * self.height

    @cached_property
    def frag_coord(self) -> np.ndarray:
        """Read-only ``(N, 2)`` window-space pixel centres (``gl_FragCoord``)."""
        ys, xs = np.mgrid[0:self.height, 0:self.width]
        grid = np.stack([xs.reshape(-1) + 0.5, ys.reshape(-1) + 0.5], axis=1)
        grid.flags.writeable = False
        return grid

    @cached_property
    def texcoord(self) -> np.ndarray:
        """Read-only ``(N, 2)`` normalized coordinates (the quad's
        interpolated ``varying vec2``)."""
        grid = self.frag_coord / (self.width, self.height)
        grid.flags.writeable = False
        return grid

    def sampler(self, name: str) -> Texture2D:
        try:
            return self.samplers[name]
        except KeyError:
            raise GLES2Error(f"no texture bound to sampler {name!r}")


class FragmentShader:
    """Executable part of a shader program.

    Subclasses implement :meth:`run`, returning one RGBA8 texel per
    fragment; the context writes those texels into the framebuffer's
    colour attachment.
    """

    def run(self, job: FragmentJob) -> np.ndarray:
        """Execute the shader for every fragment of ``job``.

        Returns:
            ``(N, 4)`` uint8 RGBA values (gl_FragColor per fragment).
        """
        raise NotImplementedError

    #: Estimated floating point operations per fragment (used only for
    #: statistics when the shader does not report precise counts).
    flops_per_fragment: int = 0


class ShaderProgram:
    """A linked program: GLSL source text plus its executable shader."""

    def __init__(self, shader: FragmentShader, source: str = "",
                 name: str = ""):
        self.shader = shader
        self.source = source
        self.name = name
        self.uniforms: Dict[str, object] = {}
        self._samplers: Dict[str, Texture2D] = {}

    # ------------------------------------------------------------------ #
    def set_uniform(self, name: str, value) -> None:
        """Set a uniform value (``glUniform*``)."""
        self.uniforms[name] = value

    def bind_texture(self, sampler_name: str, texture: Optional[Texture2D]) -> None:
        """Bind ``texture`` to the sampler uniform ``sampler_name``."""
        if texture is None:
            self._samplers.pop(sampler_name, None)
        else:
            self._samplers[sampler_name] = texture

    @property
    def samplers(self) -> Dict[str, Texture2D]:
        return dict(self._samplers)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<ShaderProgram {self.name!r} samplers={sorted(self._samplers)}>"
