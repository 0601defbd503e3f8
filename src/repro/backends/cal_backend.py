"""AMD CAL style desktop backend (the reference platform of the paper).

Streams are float32 resources of the simulated CAL device, gather access
is non-normalized and clamped, kernels may keep their vector types and
write several outputs per pass (the desktop hardware supports multiple
render targets), and no RGBA8 packing is applied.  This backend stands in
for AMD's Brook+ runtime used to obtain the grey reference curves of
Figures 2 and 3.

The backend registers itself with the backend registry under ``"cal"``
(aliases ``"brook+"``, ``"brookplus"``, ``"desktop"``) together with its
device profiles; it is resolved by name through the registry like every
other execution target.
"""

from __future__ import annotations

from typing import Dict

import numpy as np

from ..cal.context import CALContext
from ..cal.device import CAL_DEVICE_PROFILES, CALDeviceProfile, get_cal_device
from ..core import ast_nodes as ast
from ..core.analysis.resources import TargetLimits
from ..core.compiler import CompiledKernel
from ..core.exec.gather import ClampingGatherSource
from ..errors import BackendError, KernelLaunchError
from ..runtime.profiling import KernelLaunchRecord, TransferRecord
from ..runtime.shape import StreamShape
from .base import Backend, StreamStorage
from .registry import register_backend

__all__ = ["CALBackend", "CALStreamStorage"]


class CALStreamStorage(StreamStorage):
    """A stream stored in a float32 CAL resource."""

    def __init__(self, shape: StreamShape, element_width: int, name: str, resource):
        self.shape = shape
        self.element_width = element_width
        self.name = name
        self.resource = resource

    @property
    def size_bytes(self) -> int:
        return self.resource.size_bytes


class CALBackend(Backend):
    """Runs Brook+ style kernels on the simulated CAL device."""

    name = "cal"

    def __init__(self, device: str = "radeon-hd3400"):
        super().__init__()
        if isinstance(device, CALDeviceProfile):
            self.device = device
        else:
            self.device = get_cal_device(device)
        self.context = CALContext(self.device)
        self._target_limits = self.device.to_target_limits()

    # ------------------------------------------------------------------ #
    def target_limits(self) -> TargetLimits:
        return self._target_limits

    # ------------------------------------------------------------------ #
    def _create_storage(self, shape: StreamShape, element_width: int,
                        name: str) -> StreamStorage:
        rows, cols = shape.layout_2d
        resource = self.context.alloc_resource(cols, rows, element_width,
                                               name=name)
        storage = CALStreamStorage(shape, element_width, name, resource)
        self._track_storage(storage)
        return storage

    def _upload(self, storage: StreamStorage, data: np.ndarray) -> TransferRecord:
        rows, cols = storage.shape.layout_2d
        data = np.asarray(data, dtype=np.float32)
        expected = (rows, cols) if storage.element_width == 1 \
            else (rows, cols, storage.element_width)
        if data.shape != expected:
            raise KernelLaunchError(
                f"stream {storage.name!r}: cannot write data of shape {data.shape} "
                f"into a stream of layout {expected}"
            )
        self.context.upload(storage.resource, data)
        return TransferRecord(stream=storage.name, direction="upload",
                              bytes=int(data.nbytes),
                              elements=storage.shape.element_count)

    def _download(self, storage: StreamStorage):
        data = self.context.download(storage.resource)
        record = TransferRecord(stream=storage.name, direction="download",
                                bytes=int(np.asarray(data).nbytes),
                                elements=storage.shape.element_count)
        return np.asarray(data, dtype=np.float32), record

    def _device_view(self, storage: StreamStorage) -> np.ndarray:
        return storage.resource.read()

    def _free(self, storage: StreamStorage) -> None:
        # Atomic check-and-remove: a release racing the GC finalizer
        # frees each CAL resource exactly once.
        if self._untrack_storage(storage):
            self.context.free_resource(storage.resource)

    def device_memory_in_use(self) -> int:
        return self.context.device_memory_in_use()

    def reset_statistics(self) -> None:
        self.context.reset_statistics()

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
        if len(out_args) > self.device.max_outputs:
            raise BackendError(
                f"kernel {kernel.name!r} writes {len(out_args)} outputs but the "
                f"CAL device supports {self.device.max_outputs}"
            )
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
            result = np.asarray(outputs[name], dtype=np.float32)
            shaped = result.reshape(rows, cols) if width == 1 \
                else result.reshape(rows, cols, width)
            stream.storage.resource.write(shaped)
        self.context.record_dispatch(
            kernel.name, domain.element_count, stats.flops,
            stats.gather_fetches + stats.stream_reads,
        )
        return KernelLaunchRecord(
            kernel=kernel.name,
            elements=domain.element_count,
            flops=stats.flops,
            texture_fetches=stats.gather_fetches + stats.stream_reads,
            passes=1,
            fused=kernel.fused_count,
            saved_intermediate_bytes=kernel.saved_intermediate_bytes(
                domain.element_count),
        )

    def _store_reduction_output(self, storage: CALStreamStorage,
                                values: np.ndarray) -> None:
        rows, cols = storage.shape.layout_2d
        storage.resource.write(np.asarray(values, dtype=np.float32).reshape(rows, cols))


register_backend(
    "cal",
    lambda device=None: CALBackend(device or "radeon-hd3400"),
    aliases=("brook+", "brookplus", "desktop"),
    description="simulated AMD CAL desktop GPU (the reference platform)",
    devices=tuple(sorted(CAL_DEVICE_PROFILES)),
)
