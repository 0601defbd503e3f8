"""CPU backend of the Brook Auto runtime.

Streams live in host memory as float32 arrays; kernels run through the
shared execution engine (vector program for brookvec-approved kernels,
masked evaluator otherwise) with direct (bounds-checked) gather access.
This is Brook's original validation backend: every reference application
checks its GPU output against the result of this path.

The backend registers itself with the backend registry under ``"cpu"``
(alias ``"host"``) and is resolved through
:func:`repro.backends.registry.create_backend`, not constructed by the
runtime directly.
"""

from __future__ import annotations

from typing import Dict

import numpy as np

from ..core import ast_nodes as ast
from ..core.analysis.resources import TargetLimits
from ..core.compiler import CompiledKernel
from ..core.exec.gather import NumpyGatherSource
from ..errors import BackendError, KernelLaunchError
from ..runtime.profiling import KernelLaunchRecord, TransferRecord
from ..runtime.shape import StreamShape
from .base import Backend, StreamStorage
from .registry import register_backend

__all__ = ["CPUBackend", "CPUStreamStorage"]


class CPUStreamStorage(StreamStorage):
    """Host-memory storage of a stream (2-D flattened layout)."""

    def __init__(self, shape: StreamShape, element_width: int, name: str = ""):
        self.shape = shape
        self.element_width = element_width
        self.name = name
        rows, cols = shape.layout_2d
        if element_width == 1:
            self.data = np.zeros((rows, cols), dtype=np.float32)
        else:
            self.data = np.zeros((rows, cols, element_width), dtype=np.float32)

    @property
    def size_bytes(self) -> int:
        return int(self.data.nbytes)


class CPUBackend(Backend):
    """Executes Brook kernels on the host CPU."""

    name = "cpu"

    #: Direct host-memory gathers: out-of-bounds indices are hard errors.
    gather_clamps = False

    def __init__(self) -> None:
        super().__init__()

    # ------------------------------------------------------------------ #
    def target_limits(self) -> TargetLimits:
        return TargetLimits(
            name="cpu",
            max_kernel_inputs=64,
            max_kernel_outputs=16,
            max_scalar_constants=1024,
            max_temporaries=4096,
            max_instructions=1 << 20,
            max_texture_size=1 << 16,
            requires_power_of_two=False,
            requires_square_textures=False,
            supports_float_textures=True,
            max_gather_inputs=64,
        )

    # ------------------------------------------------------------------ #
    def make_gather_source(self, data):
        """Direct (bounds-checked) host-memory access, no clamping."""
        return NumpyGatherSource(data)

    def _partition(self, shape, element_width, name):
        """Host memory has no texture limit: the CPU backend never tiles."""
        return None

    def _create_storage(self, shape: StreamShape, element_width: int,
                        name: str) -> CPUStreamStorage:
        storage = CPUStreamStorage(shape, element_width, name)
        self._track_storage(storage)
        return storage

    def _upload(self, storage: CPUStreamStorage, data: np.ndarray) -> TransferRecord:
        data = np.asarray(data, dtype=np.float32)
        if data.shape != storage.data.shape:
            raise KernelLaunchError(
                f"stream {storage.name!r}: cannot write data of shape {data.shape} "
                f"into storage of shape {storage.data.shape}"
            )
        storage.data = data.copy()
        return TransferRecord(stream=storage.name, direction="upload",
                              bytes=int(data.nbytes),
                              elements=storage.shape.element_count)

    def _download(self, storage: CPUStreamStorage):
        record = TransferRecord(stream=storage.name, direction="download",
                                bytes=int(storage.data.nbytes),
                                elements=storage.shape.element_count)
        return storage.data.copy(), record

    def _device_view(self, storage: CPUStreamStorage) -> np.ndarray:
        return storage.data

    def _free(self, storage: CPUStreamStorage) -> None:
        self._untrack_storage(storage)

    def device_memory_in_use(self) -> int:
        return sum(s.size_bytes for s in self._tracked_storages())

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
        stream_values = self._stream_inputs(domain, stream_args)
        if gathers is None:
            gathers = self.prepare_gathers(gather_args)
        outputs, stats = self._evaluate(kernel, helpers, domain, stream_values,
                                        gathers, scalar_args,
                                        index_map=index_map)
        for name, stream in out_args.items():
            if name not in outputs:
                raise BackendError(f"kernel {kernel.name!r} produced no output {name!r}")
            rows, cols = stream.shape.layout_2d
            width = stream.element_width
            result = outputs[name]
            if width == 1:
                stream.storage.data = np.asarray(result, dtype=np.float32).reshape(rows, cols)
            else:
                stream.storage.data = np.asarray(result, dtype=np.float32).reshape(rows, cols, width)
        return KernelLaunchRecord(
            kernel=kernel.name,
            elements=domain.element_count,
            flops=stats.flops,
            texture_fetches=stats.gather_fetches,
            passes=1,
            fused=kernel.fused_count,
            saved_intermediate_bytes=kernel.saved_intermediate_bytes(
                domain.element_count),
        )

    def _store_reduction_output(self, storage: CPUStreamStorage,
                                values: np.ndarray) -> None:
        rows, cols = storage.shape.layout_2d
        storage.data = np.asarray(values, dtype=np.float32).reshape(rows, cols)


register_backend(
    "cpu",
    lambda device=None: CPUBackend(),
    aliases=("host",),
    description="host CPU backend (Brook's original validation path)",
)
