"""OpenGL ES 2.0 backend of the Brook Auto runtime (the paper's backend).

Every stream is backed by an RGBA8 texture on the simulated embedded GPU
(:mod:`repro.gles2`); writing a stream encodes floats into texels, and
kernel launches run as fragment-shader passes over a framebuffer-attached
output texture, sampling the inputs with normalized coordinates.  The
texture padding needed for power-of-two / square-only devices and the
float<->RGBA8 numerics (also between multipass reduction passes) are
handled here, transparently to the application, exactly as sections
5.2-5.5 describe.

The backend registers itself with the backend registry under ``"gles2"``
(aliases ``"opengl-es2"``, ``"es2"``, ``"gl"``) together with its device
profiles, so ``BrookRuntime(backend="gles2", device=...)`` resolves it
without any hard-coded wiring.
"""

from __future__ import annotations

import threading
from typing import Dict

import numpy as np

from ..core import ast_nodes as ast
from ..core.analysis.resources import TargetLimits
from ..core.compiler import CompiledKernel
from ..core.exec import evaluate
from ..core.exec.gather import ClampingGatherSource
from ..errors import BackendError, KernelLaunchError
from ..gles2.context import GLES2Context
from ..gles2.device import DEVICE_PROFILES, GPUDeviceProfile, get_device_profile
from ..gles2.framebuffer import Framebuffer
from ..gles2.shader import FragmentJob, FragmentShader, ShaderProgram
from ..gles2.texture import Texture2D
from ..runtime.numerics import decode_float_rgba8, encode_float_rgba8, quantize_roundtrip
from ..runtime.profiling import KernelLaunchRecord, TransferRecord
from ..runtime.shape import StreamShape
from .base import Backend, StreamStorage
from .registry import register_backend

__all__ = ["GLES2Backend", "GLES2StreamStorage", "BrookKernelShader"]


class GLES2StreamStorage(StreamStorage):
    """A stream stored in an RGBA8 texture of the simulated device."""

    def __init__(self, shape: StreamShape, element_width: int, name: str,
                 texture: Texture2D):
        self.shape = shape
        self.element_width = element_width
        self.name = name
        self.texture = texture

    @property
    def size_bytes(self) -> int:
        return self.texture.size_bytes


class BrookKernelShader(FragmentShader):
    """Fragment shader that runs a compiled Brook kernel via the engine.

    This is what the Brook Auto runtime installs for every kernel pass;
    hand-written applications implement :class:`FragmentShader` themselves
    (see :mod:`repro.apps.handwritten_sgemm`).
    """

    def __init__(self, kernel: CompiledKernel, helpers: Dict[str, ast.FunctionDef],
                 domain: StreamShape, scalar_args: Dict[str, float],
                 gathers: Dict[str, ClampingGatherSource], out_name: str,
                 index_map=None):
        self.kernel = kernel
        self.helpers = helpers
        self.domain = domain
        self.scalar_args = scalar_args
        self.gathers = gathers
        self.out_name = out_name
        #: Optional global ``indexof`` positions; the tiled execution
        #: engine sets this so a tile pass reports positions in the
        #: logical stream layout instead of tile-local ones.
        self.index_map = index_map
        self.last_flops = 0
        self.last_gather_fetches = 0

    def run(self, job: FragmentJob) -> np.ndarray:
        count = job.fragment_count
        stream_values: Dict[str, np.ndarray] = {}
        for param in self.kernel.definition.params:
            texture = job.samplers.get(f"__stream_{param.name}")
            if texture is not None:
                # Coordinates scaled to each texture's own (padded)
                # extent - paper section 5.3 - land on texel (x, y).
                texels = texture.sample_viewport(job.width, job.height)
                stream_values[param.name] = decode_float_rgba8(texels).reshape(-1)
        # indexof: the shader computes floor(texcoord * output size), which
        # is exactly the element's row-major position for every extent up
        # to a device's max_texture_size, so an untiled pass hands over
        # the domain's layout as a cpu launch does (enabling the vector
        # program's padded-slice plan); tiled passes carry their global
        # positions instead.
        index = None if self.index_map is None else np.asarray(
            self.index_map, dtype=np.float32)
        layout = self.domain.layout_2d if index is None else None
        outputs, stats = evaluate(self.kernel, self.helpers, count,
                                  stream_values, self.gathers,
                                  self.scalar_args, index=index, layout=layout)
        self.last_flops = stats.flops
        self.last_gather_fetches = stats.gather_fetches
        result = outputs[self.out_name]
        return encode_float_rgba8(np.asarray(result, dtype=np.float32))


class GLES2Backend(Backend):
    """Runs Brook Auto kernels on the simulated OpenGL ES 2.0 device."""

    name = "gles2"

    def __init__(self, device: str = "videocore-iv"):
        super().__init__()
        if isinstance(device, GPUDeviceProfile):
            self.device = device
        else:
            self.device = get_device_profile(device)
        self.context = GLES2Context(self.device.limits)
        self._target_limits = self.device.limits.to_target_limits()
        self._framebuffer: Framebuffer = self.context.create_framebuffer("brook-fbo")
        # A GL context is single-threaded: program/framebuffer binding is
        # shared mutable state, so kernel passes serialize on this lock
        # (one in-flight draw per device, like real hardware).  Transfers
        # and host-side reductions do not take it.
        self._exec_lock = threading.Lock()

    # ------------------------------------------------------------------ #
    def target_limits(self) -> TargetLimits:
        return self._target_limits

    def can_execute(self, kernel: CompiledKernel) -> bool:
        """A kernel needs GLSL ES 1.0 text to run as a fragment pass."""
        return kernel.glsl_es is not None

    # ------------------------------------------------------------------ #
    # Storage
    # ------------------------------------------------------------------ #
    def _create_storage(self, shape: StreamShape, element_width: int,
                        name: str) -> StreamStorage:
        # Checked before the texture exists, so a rejected stream
        # leaves no device memory behind.
        if element_width != 1:
            raise BackendError(
                "the OpenGL ES 2 backend stores one float per RGBA8 texel; "
                f"vector element width {element_width} is not supported - "
                "scalarize the stream (see repro.core.transforms.scalarize)"
            )
        tex_w, tex_h = shape.texture_extent(self.target_limits())
        texture = self.context.create_texture(tex_w, tex_h, name=name)
        storage = GLES2StreamStorage(shape, element_width, name, texture)
        self._track_storage(storage)
        return storage

    def _upload(self, storage: StreamStorage, data: np.ndarray) -> TransferRecord:
        rows, cols = storage.shape.layout_2d
        data = np.asarray(data, dtype=np.float32)
        if data.shape != (rows, cols):
            raise KernelLaunchError(
                f"stream {storage.name!r}: cannot write data of shape {data.shape} "
                f"into a stream of layout {(rows, cols)}"
            )
        self.context.upload(storage.texture, encode_float_rgba8(data))
        return TransferRecord(stream=storage.name, direction="upload",
                              bytes=rows * cols * 4,
                              elements=storage.shape.element_count)

    def _download(self, storage: StreamStorage):
        rows, cols = storage.shape.layout_2d
        texels = self.context.download(storage.texture)[:rows, :cols]
        record = TransferRecord(stream=storage.name, direction="download",
                                bytes=rows * cols * 4,
                                elements=storage.shape.element_count)
        return decode_float_rgba8(texels), record

    def _device_view(self, storage: StreamStorage) -> np.ndarray:
        rows, cols = storage.shape.layout_2d
        return decode_float_rgba8(storage.texture.data[:rows, :cols])

    def _free(self, storage: StreamStorage) -> None:
        # _untrack_storage is an atomic check-and-remove: when an
        # explicit release races the GC finalizer only one caller gets
        # True, so each texture is deleted exactly once.
        if self._untrack_storage(storage):
            self.context.delete_texture(storage.texture)

    def device_memory_in_use(self) -> int:
        return self.context.device_memory_in_use()

    def reset_statistics(self) -> None:
        self.context.reset_statistics()

    # ------------------------------------------------------------------ #
    # Execution
    # ------------------------------------------------------------------ #
    def launch(
        self,
        kernel: CompiledKernel,
        helpers: Dict[str, ast.FunctionDef],
        domain: StreamShape,
        stream_args: Dict[str, "object"],
        gather_args: Dict[str, "object"],
        scalar_args: Dict[str, float],
        out_args: Dict[str, "object"],
        index_map=None,
        gathers=None,
    ) -> KernelLaunchRecord:
        if len(out_args) != 1:
            raise BackendError(
                f"OpenGL ES 2 supports a single render target; kernel "
                f"{kernel.name!r} was launched with {len(out_args)} outputs "
                "(the compiler should have split it)"
            )
        if kernel.glsl_es is None:
            raise BackendError(
                f"kernel {kernel.name!r} could not be lowered to GLSL ES 1.0; "
                "it cannot run on the OpenGL ES 2 backend"
            )
        out_name, out_stream = next(iter(out_args.items()))
        rows, cols = domain.layout_2d

        if gathers is None:
            gathers = self.prepare_gathers(gather_args)
        shader = BrookKernelShader(kernel, helpers, domain, scalar_args, gathers,
                                   out_name, index_map=index_map)
        program = ShaderProgram(shader, source=kernel.glsl_es, name=kernel.name)
        program.set_uniform("__brook_output_size", (float(cols), float(rows)))
        for name, stream in stream_args.items():
            program.bind_texture(f"__stream_{name}", stream.storage.texture)
        for name, stream in gather_args.items():
            if getattr(stream.storage, "texture", None) is None:
                # A tiled or sharded gather array spans several textures
                # (possibly on other devices); the gather source above
                # already samples the stitched logical data, so only the
                # dimension uniform is set (from the logical layout the
                # kernel indexes into).
                g_rows, g_cols = stream.storage.shape.layout_2d
                program.set_uniform(f"__dim_{name}",
                                    (float(g_cols), float(g_rows)))
                continue
            program.bind_texture(f"__gather_{name}", stream.storage.texture)
            program.set_uniform(
                f"__dim_{name}",
                (float(stream.storage.texture.width),
                 float(stream.storage.texture.height)),
            )

        with self._exec_lock:
            self.context.use_program(program)
            self._framebuffer.attach_color(out_stream.storage.texture)
            self.context.bind_framebuffer(self._framebuffer)
            draw = self.context.draw_fullscreen_quad(viewport=(cols, rows))
            self.context.bind_framebuffer(None)
            self.context.use_program(None)

        return KernelLaunchRecord(
            kernel=kernel.name,
            elements=domain.element_count,
            flops=shader.last_flops,
            texture_fetches=draw.texture_fetches + shader.last_gather_fetches,
            passes=1,
            fused=kernel.fused_count,
            saved_intermediate_bytes=kernel.saved_intermediate_bytes(
                domain.element_count),
        )

    def _reduction_quantize(self):
        return quantize_roundtrip

    def _store_reduction_output(self, storage: GLES2StreamStorage,
                                values: np.ndarray) -> None:
        rows, cols = storage.shape.layout_2d
        shaped = np.asarray(values, dtype=np.float32).reshape(rows, cols)
        storage.texture.data[:rows, :cols] = encode_float_rgba8(shaped)


register_backend(
    "gles2",
    lambda device=None: GLES2Backend(device or "videocore-iv"),
    aliases=("opengl-es2", "es2", "gl"),
    description="simulated OpenGL ES 2.0 embedded GPU (the paper's target)",
    devices=tuple(sorted(DEVICE_PROFILES)),
)
