"""Sharded backend: one logical device made of ``N`` member devices.

``BrookRuntime(backend=..., devices=N)`` wraps ``N`` independently
constructed backends (simulated OpenGL ES 2 / CAL devices or CPU
executors) in a :class:`ShardedBackend`.  The wrapper implements the
ordinary :class:`~repro.backends.base.Backend` interface, which is what
makes sharding transparent to the rest of the runtime: launch plans,
fused pipelines, command queues, the async executor and the serving
layer all talk to "the backend" exactly as before, and the wrapper

* backs every stream whose :class:`~repro.core.analysis.sharding.ShardPlan`
  is non-trivial with a :class:`~repro.runtime.sharding.ShardedStorage`
  (one per-device storage per band; small streams stay whole on device
  0), whose partitioned transfers scatter and gather band by band,
* dispatches kernel launches through
  :func:`~repro.runtime.sharding.launch_sharded` (one concurrent pass
  per device); reductions fold per-device partials with
  :func:`~repro.runtime.reduction.combine_partials`.

Capability questions (target limits, fusion launchability, gather
semantics) delegate to device 0 - the group is homogeneous by
construction.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Dict, List, Optional, Sequence

import numpy as np

from ..core import ast_nodes as ast
from ..core.analysis.resources import TargetLimits
from ..core.analysis.sharding import ShardPlan
from ..core.compiler import CompiledKernel
from ..errors import RuntimeBrookError
from ..runtime.profiling import KernelLaunchRecord, TransferRecord
from ..runtime.reduction import combine_partials
from ..runtime.shape import StreamShape
from ..runtime.sharding import DeviceGroup, ShardedStorage, launch_sharded
from .base import Backend, StreamStorage

__all__ = ["ShardedBackend"]


class ShardedBackend(Backend):
    """A device group presenting the single-backend interface."""

    def __init__(self, devices: Sequence[Backend]):
        super().__init__()
        devices = list(devices)
        if not devices:
            raise RuntimeBrookError(
                "ShardedBackend needs at least one member device")
        first = type(devices[0])
        if any(type(device) is not first for device in devices):
            raise RuntimeBrookError(
                "ShardedBackend needs a homogeneous device group; got "
                + ", ".join(sorted({type(d).__name__ for d in devices}))
            )
        self.group = DeviceGroup(devices)
        self.devices: List[Backend] = self.group.devices
        self.name = f"{devices[0].name}[x{len(devices)}]"
        self.gather_clamps = devices[0].gather_clamps

    # ------------------------------------------------------------------ #
    @property
    def device_count(self) -> int:
        return len(self.devices)

    def close(self) -> None:
        self.group.shutdown()
        for device in self.devices:
            device.close()

    def reset_statistics(self) -> None:
        for device in self.devices:
            device.reset_statistics()

    # ------------------------------------------------------------------ #
    # Capabilities (the group is homogeneous: device 0 answers)
    # ------------------------------------------------------------------ #
    def target_limits(self) -> TargetLimits:
        return self.devices[0].target_limits()

    def can_execute(self, kernel: CompiledKernel) -> bool:
        return self.devices[0].can_execute(kernel)

    def make_gather_source(self, data: np.ndarray):
        return self.devices[0].make_gather_source(data)

    def _reduction_quantize(self):
        return self.devices[0]._reduction_quantize()

    # ------------------------------------------------------------------ #
    # DeviceGroup protocol used by launch_sharded
    # ------------------------------------------------------------------ #
    def run(self, tasks):
        return self.group.run(tasks)

    # ------------------------------------------------------------------ #
    # Storage and transfers: a stream too small to split lives whole on
    # device 0, whose methods serve it.
    # ------------------------------------------------------------------ #
    def _partition(self, shape: StreamShape, element_width: int,
                   name: str) -> Optional[ShardedStorage]:
        plan = ShardPlan(shape.layout_2d, self.device_count)
        if plan.is_trivial:
            return None
        return ShardedStorage.allocate(self, plan, shape, element_width, name)

    def _create_storage(self, shape: StreamShape, element_width: int,
                        name: str) -> StreamStorage:
        return self.devices[0].create_storage(shape, element_width, name)

    def _upload(self, storage: StreamStorage, data: np.ndarray) -> TransferRecord:
        return self.devices[0].upload(storage, data)

    def _download(self, storage: StreamStorage):
        return self.devices[0].download(storage)

    def _device_view(self, storage: StreamStorage) -> np.ndarray:
        return self.devices[0].device_view(storage)

    def _free(self, storage: StreamStorage) -> None:
        self.devices[0].free(storage)

    def device_memory_in_use(self) -> int:
        return sum(device.device_memory_in_use() for device in self.devices)

    # ------------------------------------------------------------------ #
    # Execution
    # ------------------------------------------------------------------ #
    # prepare_gathers is inherited: the base hook composes this class's
    # device_view (stitched logical data) and make_gather_source
    # (device 0's flavour), which is exactly what sharded gathers need.

    def launch(
        self,
        kernel: CompiledKernel,
        helpers: Dict[str, ast.FunctionDef],
        domain: StreamShape,
        stream_args: Dict[str, object],
        gather_args: Dict[str, object],
        scalar_args: Dict[str, float],
        out_args: Dict[str, object],
        index_map: Optional[np.ndarray] = None,
        gathers=None,
    ) -> KernelLaunchRecord:
        plan = ShardedStorage.launch_plan(stream_args, out_args)
        if plan is None:
            # The whole domain lives on device 0 (small streams);
            # prepare the gathers here so sharded gather arrays still
            # resolve through the stitched logical view.
            if gathers is None:
                gathers = self.prepare_gathers(gather_args)
            return self.devices[0].launch(
                kernel, helpers, domain, stream_args, gather_args,
                scalar_args, out_args, index_map=index_map, gathers=gathers)
        return launch_sharded(self, kernel, helpers, domain, plan,
                              stream_args, gather_args, scalar_args, out_args)

    def reduce(
        self,
        kernel: CompiledKernel,
        helpers: Dict[str, ast.FunctionDef],
        input_stream,
    ):
        """Reduce a sharded stream: per-device partials, then combine.

        Each device reduces its own band concurrently (tile by tile when
        the band is itself tiled); the partials travel to device 0 (halo
        traffic: one value per remote shard) and fold there with the
        same kernel, as a tiled stream's partials do on one device.
        Like a tiled reduction this reassociates the operator: exactly
        associative reductions (``min``/``max``, integer-valued sums)
        are bit-identical to ``devices=1``; general floating-point sums
        can differ by the usual reassociation ULPs, which Brook's
        associativity requirement on reduction operators allows.
        """
        storage = input_stream.storage
        if not isinstance(storage, ShardedStorage):
            return self.devices[0].reduce(kernel, helpers, input_stream)
        shards = len(storage.parts)
        partials = self.run([
            (lambda k=index, part=part: self.devices[k]._reduce_storage(
                kernel, helpers, part))
            for index, part in enumerate(storage.parts)
        ])
        result = combine_partials(kernel, helpers, partials,
                                  self._reduction_quantize())
        # ``tiles``: one plus every shard's tiles beyond its first.
        record = replace(result.record(kernel.name),
                         tiles=result.tiles - (shards - 1),
                         shards=shards,
                         halo_bytes=(shards - 1) * 4)
        return result.value, record

    def _store_reduction_output(self, storage: StreamStorage,
                                values: np.ndarray) -> None:
        if not isinstance(storage, ShardedStorage):
            self.devices[0]._store_reduction_output(storage, values)
            return
        plan = storage.plan
        shaped = np.asarray(values, dtype=np.float32).reshape(plan.logical)
        for shard, shard_storage in zip(plan.pieces, storage.parts):
            self.devices[shard.index]._store_reduction_output(
                shard_storage, plan.slice(shaped, shard))
        storage.invalidate_view()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<ShardedBackend {self.name!r} devices={self.device_count}>"
