"""The simulated OpenGL ES 2.0 rendering context.

The context is the "driver": it owns textures and framebuffers, tracks
the bound program and render target, executes draw calls and counts the
work performed (fragments shaded, texels sampled, bytes moved between the
host and the device).  Those counters are what the analytic performance
model consumes - the simulation itself is functional, not timed.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import List, Optional

import numpy as np

from ..errors import GLES2Error
from .framebuffer import Framebuffer
from .limits import GLES2Limits
from .shader import FragmentJob, ShaderProgram
from .texture import Texture2D

__all__ = ["DrawStats", "GLES2Context"]


@dataclass
class DrawStats:
    """Work counters of one draw call."""

    program: str
    fragments: int
    texture_fetches: int
    flops: int = 0


@dataclass
class DrawTotals:
    """Cumulative work counters of every draw call."""

    draw_calls: int = 0
    fragments: int = 0
    texture_fetches: int = 0
    flops: int = 0


@dataclass
class TransferStats:
    """Cumulative host <-> device traffic."""

    bytes_uploaded: int = 0
    bytes_downloaded: int = 0
    upload_calls: int = 0
    download_calls: int = 0


class GLES2Context:
    """A functional simulation of an OpenGL ES 2.0 context."""

    def __init__(self, limits: Optional[GLES2Limits] = None):
        self.limits = limits or GLES2Limits()
        self.textures: List[Texture2D] = []
        self.framebuffers: List[Framebuffer] = []
        self._bound_framebuffer: Optional[Framebuffer] = None
        self._bound_program: Optional[ShaderProgram] = None
        self.draws = DrawTotals()
        self.transfers = TransferStats()
        # Guards the texture/framebuffer lists and the work counters:
        # streams are created, transferred and freed from arbitrary
        # threads (including GC finalizer threads), and check-then-remove
        # or ``+=`` on shared counters is not atomic.  Draw-call state
        # (bound program/framebuffer) is serialized one level up by the
        # backend's execution lock, as on real single-threaded contexts.
        self._lock = threading.Lock()

    # ------------------------------------------------------------------ #
    # Object creation
    # ------------------------------------------------------------------ #
    def create_texture(self, width: int, height: int, name: str = "") -> Texture2D:
        texture = Texture2D(width, height, self.limits, name=name)
        with self._lock:
            self.textures.append(texture)
        return texture

    def create_framebuffer(self, name: str = "") -> Framebuffer:
        framebuffer = Framebuffer(name=name)
        with self._lock:
            self.framebuffers.append(framebuffer)
        return framebuffer

    def delete_texture(self, texture: Texture2D) -> None:
        with self._lock:
            if texture in self.textures:
                self.textures.remove(texture)

    # ------------------------------------------------------------------ #
    # Data transfer (counted: this is the expensive host<->GPU path)
    # ------------------------------------------------------------------ #
    def upload(self, texture: Texture2D, rgba: np.ndarray) -> None:
        """Upload an RGBA8 image to the texture's origin; count the traffic.

        A stream writes only its ``rows x cols`` texels (the padding is
        never written and stays zero), but the whole texture is counted.
        """
        texture.tex_sub_image_2d(0, 0, rgba)
        with self._lock:
            self.transfers.bytes_uploaded += texture.size_bytes
            self.transfers.upload_calls += 1

    def download(self, texture: Texture2D) -> np.ndarray:
        """Read back the texture contents (a read-only view, see
        :meth:`Texture2D.read_pixels`) and count the traffic."""
        data = texture.read_pixels()
        with self._lock:
            self.transfers.bytes_downloaded += texture.size_bytes
            self.transfers.download_calls += 1
        return data

    # ------------------------------------------------------------------ #
    # State binding
    # ------------------------------------------------------------------ #
    def bind_framebuffer(self, framebuffer: Optional[Framebuffer]) -> None:
        self._bound_framebuffer = framebuffer

    def use_program(self, program: Optional[ShaderProgram]) -> None:
        self._bound_program = program

    @property
    def bound_program(self) -> Optional[ShaderProgram]:
        return self._bound_program

    @property
    def bound_framebuffer(self) -> Optional[Framebuffer]:
        return self._bound_framebuffer

    # ------------------------------------------------------------------ #
    # Drawing
    # ------------------------------------------------------------------ #
    def draw_fullscreen_quad(self, viewport: Optional[tuple] = None) -> DrawStats:
        """Render a full-screen quad with the bound program into the bound FBO.

        ``viewport`` optionally restricts the render to ``(width, height)``
        pixels starting at the origin (the multipass reduction engine uses
        this to shrink the output domain each pass without reallocating).
        """
        program = self._bound_program
        framebuffer = self._bound_framebuffer
        if program is None:
            raise GLES2Error("no program bound for draw call")
        if framebuffer is None or not framebuffer.is_complete:
            raise GLES2Error("no complete framebuffer bound for draw call")
        target = framebuffer.color_attachment
        width, height = target.width, target.height
        if viewport is not None:
            width = min(int(viewport[0]), target.width)
            height = min(int(viewport[1]), target.height)
            if width <= 0 or height <= 0:
                raise GLES2Error(f"invalid viewport {viewport}")

        # The bindings are read once: the job gets this copy, and the
        # draw's fetches are what its textures count while the shader runs.
        samplers = program.samplers
        textures = tuple(samplers.values())
        counts = [texture.sample_count for texture in textures]
        job = FragmentJob(
            width=width,
            height=height,
            uniforms=dict(program.uniforms),
            samplers=samplers,
        )
        rgba = program.shader.run(job)
        rgba = np.asarray(rgba, dtype=np.uint8)
        if rgba.shape != (width * height, 4):
            raise GLES2Error(
                f"shader {program.name!r} returned shape {rgba.shape}, expected "
                f"{(width * height, 4)}"
            )
        target.data[:height, :width] = rgba.reshape(height, width, 4)
        fetches = sum(texture.sample_count - count
                      for texture, count in zip(textures, counts))

        flops = getattr(program.shader, "last_flops", None)
        if flops is None:
            flops = program.shader.flops_per_fragment * width * height
        stats = DrawStats(
            program=program.name,
            fragments=width * height,
            texture_fetches=fetches,
            flops=int(flops),
        )
        with self._lock:
            totals = self.draws
            totals.draw_calls += 1
            totals.fragments += stats.fragments
            totals.texture_fetches += stats.texture_fetches
            totals.flops += stats.flops
        return stats

    # ------------------------------------------------------------------ #
    # Introspection
    # ------------------------------------------------------------------ #
    @property
    def total_fragments(self) -> int:
        return self.draws.fragments

    @property
    def total_draw_calls(self) -> int:
        return self.draws.draw_calls

    def reset_statistics(self) -> None:
        """Clear draw/transfer counters (texture contents are preserved)."""
        with self._lock:
            self.draws = DrawTotals()
            self.transfers = TransferStats()

    def device_memory_in_use(self) -> int:
        """Bytes of texture memory currently allocated."""
        with self._lock:
            return sum(t.size_bytes for t in self.textures)
