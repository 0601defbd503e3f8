"""Backend interface of the Brook Auto runtime.

A backend owns stream storage on its device, moves data between the host
and that storage, launches kernel passes over an output domain and runs
multipass reductions.  Backends are resolved by name through the backend
registry (:mod:`repro.backends.registry`); the built-ins register
themselves on import and third-party targets plug in via
:func:`~repro.backends.registry.register_backend`.

All backends execute kernels through the same engine,
:func:`repro.core.exec.evaluate`: brookvec-approved kernels run their
whole-array vector program (:mod:`repro.core.exec.vectorized`),
everything else goes through the masked SIMT interpreter
(:mod:`repro.core.exec.evaluator`).  Reductions run on the multipass
reduction engine (:mod:`repro.runtime.reduction`), whose folds go
through the same :func:`~repro.core.exec.evaluate`.  Backends differ in
where stream data lives, how much precision survives storage, how
gather accesses behave at the edges and which hardware limits apply.

A backend implements storage for one single texture/resource/array
(``_create_storage``, ``_upload``, ``_download``, ``_device_view``,
``_free``).  The public methods wrap those hooks.  A stream that
:meth:`Backend._partition` splits - by default one whose 2-D layout
exceeds ``TargetLimits.max_texture_size`` - gets a partitioned storage
(:mod:`repro.runtime.partition`): a
:class:`~repro.runtime.tiling.TiledStorage` here, a
:class:`~repro.runtime.sharding.ShardedStorage` on the sharded backend.
Its transfers are written once, over the owning backends' public
methods.  The launch plans drive one backend pass per tile through
:mod:`repro.runtime.tiling`, passing ``index_map`` so ``indexof``
still reports global positions.
"""

from __future__ import annotations

import abc
import threading
from typing import Dict, List, Optional, TYPE_CHECKING

import numpy as np

from ..core.analysis.resources import TargetLimits
from ..core.compiler import CompiledKernel
from ..core import ast_nodes as ast
from ..core.exec import KernelExecutionStats, evaluate
from ..core.exec.gather import ClampingGatherSource, GatherSource
from ..errors import KernelLaunchError
from ..runtime.partition import PartitionedStorage
from ..runtime.profiling import KernelLaunchRecord, TransferRecord
from ..runtime.shape import StreamShape
from ..runtime.tiling import TiledStorage, TilePlan

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..runtime.reduction import ReductionResult
    from ..runtime.stream import Stream

__all__ = ["StreamStorage", "Backend", "create_backend"]


class StreamStorage:
    """Opaque handle to device-side storage of one stream.

    Concrete backends subclass this; the runtime never looks inside.
    """

    shape: StreamShape
    element_width: int
    name: str


class Backend(abc.ABC):
    """Abstract execution backend.

    Storage bookkeeping is thread-safe: streams may be created, released
    (explicitly or by the garbage collector's weakref finalizer) and
    inspected from any thread.  Subclasses call :meth:`_track_storage`
    after allocating and :meth:`_untrack_storage` when freeing; the
    latter is an atomic check-and-remove, so a ``Stream.close`` racing a
    GC finalizer frees the device storage exactly once and the memory
    accounting never goes negative.
    """

    #: Short identifier ("cpu", "gles2", "cal").
    name: str = "abstract"

    #: Whether gather fetches clamp to the array edge (texture-unit
    #: semantics).  The CPU backend sets this to ``False``: its direct
    #: host-memory gathers treat out-of-bounds indices as hard errors.
    #: The sharded halo gather sources replicate whichever behaviour
    #: the owning backend declares here.
    gather_clamps: bool = True

    #: Set by ``BrookRuntime(sanitize=True)``: the owning runtime's
    #: :class:`~repro.runtime.sanitizer.BrookSanitizer`, consulted by
    #: :meth:`prepare_gathers` to shadow-check gather bounds.
    _sanitizer = None

    def __init__(self) -> None:
        self._storages: List[StreamStorage] = []
        self._storage_lock = threading.Lock()

    def close(self) -> None:
        """Release backend-owned execution resources (worker pools).

        The default backend owns nothing beyond its storages (which the
        runtime releases stream by stream); composite backends - the
        sharded device group - override this to stop their workers.
        Called by :meth:`BrookRuntime.close`.
        """

    def reset_statistics(self) -> None:
        """Clear the backend's own work counters (draws, dispatches).

        The default backend keeps none; backends with a device context
        reset its counters.  Called by
        :meth:`BrookRuntime.reset_statistics`, so both views of the same
        work restart together.
        """

    # ------------------------------------------------------------------ #
    # Thread-safe storage bookkeeping
    # ------------------------------------------------------------------ #
    def _track_storage(self, storage: "StreamStorage") -> None:
        """Register freshly allocated storage with the accounting."""
        with self._storage_lock:
            self._storages.append(storage)

    def _untrack_storage(self, storage: "StreamStorage") -> bool:
        """Atomically remove ``storage`` from the accounting.

        Returns ``True`` for exactly one of any number of concurrent
        callers (the one that should release the underlying device
        object) and ``False`` for the rest - this is what makes
        ``free`` idempotent under a release/finalizer race.
        """
        with self._storage_lock:
            if storage in self._storages:
                self._storages.remove(storage)
                return True
            return False

    def _tracked_storages(self) -> List["StreamStorage"]:
        """Snapshot of the live storages (for accounting sums)."""
        with self._storage_lock:
            return list(self._storages)

    # ------------------------------------------------------------------ #
    # Capabilities
    # ------------------------------------------------------------------ #
    @abc.abstractmethod
    def target_limits(self) -> TargetLimits:
        """Hardware limits used for certification and kernel fitting."""

    def can_execute(self, kernel: CompiledKernel) -> bool:
        """Whether this backend can launch ``kernel``.

        The default accepts everything; backends that need a generated
        artefact (the OpenGL ES 2 backend needs GLSL ES text) override
        this.  The fusion machinery probes it before committing to a
        fused kernel so an unlaunchable fusion falls back to the original
        kernel sequence instead of failing at launch time.
        """
        return True

    # ------------------------------------------------------------------ #
    # Storage and transfers.  The public methods serve any storage of
    # this backend: a partitioned one goes through its parts' owners
    # (runtime/partition.py), anything else through the backend's own
    # single-storage method.
    # ------------------------------------------------------------------ #
    def create_storage(self, shape: StreamShape, element_width: int,
                       name: str = "") -> StreamStorage:
        """Allocate statically sized storage for a stream."""
        storage = self._partition(shape, element_width, name)
        if storage is None:
            return self._create_storage(shape, element_width, name)
        self._track_storage(storage)
        return storage

    def upload(self, storage: StreamStorage, data: np.ndarray) -> TransferRecord:
        """Copy host data (2-D flattened layout) into device storage."""
        if isinstance(storage, PartitionedStorage):
            return storage.upload(self, data)
        return self._upload(storage, data)

    def download(self, storage: StreamStorage) -> "tuple[np.ndarray, TransferRecord]":
        """Copy device storage back to the host (2-D flattened layout)."""
        if isinstance(storage, PartitionedStorage):
            return storage.download(self)
        return self._download(storage)

    def device_view(self, storage: StreamStorage) -> np.ndarray:
        """Device-resident values as a kernel would observe them.

        Unlike :meth:`download` this does not model a host transfer; it is
        used to bind kernel arguments.  On the OpenGL ES 2 backend the
        returned values already carry the RGBA8 quantization.
        """
        if isinstance(storage, PartitionedStorage):
            return storage.device_view(self)
        return self._device_view(storage)

    def free(self, storage: StreamStorage) -> None:
        """Release device storage (idempotent)."""
        if not isinstance(storage, PartitionedStorage):
            self._free(storage)
        elif self._untrack_storage(storage):
            # Atomic check-and-remove: a release racing the GC finalizer
            # frees the parts exactly once.
            storage.free(self)

    def _partition(self, shape: StreamShape, element_width: int,
                   name: str) -> Optional[PartitionedStorage]:
        """Split a stream one single storage cannot hold, else ``None``.

        The default tiles by the target's texture limit; a folded 1-D
        stream is split too, since its texture layout differs from the
        logical one.
        """
        plan = TilePlan(shape, self.target_limits())
        if plan.is_trivial:
            return None
        return TiledStorage.allocate(self, plan, shape, element_width, name)

    @abc.abstractmethod
    def _create_storage(self, shape: StreamShape, element_width: int,
                        name: str) -> StreamStorage:
        """Allocate one single storage (and track it)."""

    @abc.abstractmethod
    def _upload(self, storage: StreamStorage, data: np.ndarray) -> TransferRecord:
        """:meth:`upload` into one single storage."""

    @abc.abstractmethod
    def _download(self, storage: StreamStorage) -> "tuple[np.ndarray, TransferRecord]":
        """:meth:`download` of one single storage."""

    @abc.abstractmethod
    def _device_view(self, storage: StreamStorage) -> np.ndarray:
        """:meth:`device_view` of one single storage."""

    @abc.abstractmethod
    def _free(self, storage: StreamStorage) -> None:
        """:meth:`free` of one single storage (idempotent)."""

    @abc.abstractmethod
    def device_memory_in_use(self) -> int:
        """Bytes of device memory currently allocated to streams."""

    # ------------------------------------------------------------------ #
    # Execution
    # ------------------------------------------------------------------ #
    def make_gather_source(self, data: np.ndarray) -> GatherSource:
        """Wrap an array in this backend's flavour of gather access.

        The default is the clamping (texture-unit style) source; the CPU
        backend overrides it with its bounds-checked direct access.  The
        sharded execution engine uses this hook to build whole-array and
        halo-band sources with the owning backend's edge semantics.
        """
        return ClampingGatherSource(data)

    def prepare_gathers(
        self,
        gather_args: Dict[str, "Stream"],
    ) -> Dict[str, GatherSource]:
        """Build the gather sources for one logical launch.

        Wraps each gather array's ``device_view`` via
        :meth:`make_gather_source`.  The tiled execution engine calls
        this once per logical launch and shares the result across the
        tile passes, so gather data is snapshot - and, for RGBA8
        storage, decoded - a single time.

        Under ``BrookRuntime(sanitize=True)`` every source is wrapped
        with the sanitizer's bounds shadow-check: the backend's own
        semantics (CPU raise, GL ES 2 edge-clamp) are preserved exactly,
        but out-of-bounds accesses are recorded as findings on every
        backend.
        """
        return self.checked_gathers({
            name: self.make_gather_source(self.device_view(stream.storage))
            for name, stream in gather_args.items()
        })

    def checked_gathers(self, sources: Dict[str, GatherSource]
                        ) -> Dict[str, GatherSource]:
        """``sources``, each wrapped with the sanitizer's bounds
        shadow-check when this backend is sanitized.  The check reads a
        source's ``shape``, so a source serving a part of a larger array
        must report the whole array's extent."""
        if self._sanitizer is None:
            return sources
        return {name: self._sanitizer.checked_gather(name, source)
                for name, source in sources.items()}

    @abc.abstractmethod
    def launch(
        self,
        kernel: CompiledKernel,
        helpers: Dict[str, ast.FunctionDef],
        domain: StreamShape,
        stream_args: Dict[str, "Stream"],
        gather_args: Dict[str, "Stream"],
        scalar_args: Dict[str, float],
        out_args: Dict[str, "Stream"],
        index_map: Optional[np.ndarray] = None,
        gathers: Optional[Dict[str, GatherSource]] = None,
    ) -> KernelLaunchRecord:
        """Run one kernel pass over ``domain`` and write the outputs.

        ``index_map`` optionally overrides the ``indexof`` positions of
        the domain's elements (an ``(element_count, 2)`` float32 array).
        The tiled execution engine uses it so a kernel running over one
        tile still observes its *global* position in the logical stream
        layout; ``None`` means the domain's own element positions.
        ``gathers`` optionally supplies prebuilt gather sources (from
        :meth:`prepare_gathers`) so per-tile passes of one logical
        launch share a single snapshot of the gather arrays.
        """

    # ------------------------------------------------------------------ #
    # Reductions
    # ------------------------------------------------------------------ #
    def reduce(
        self,
        kernel: CompiledKernel,
        helpers: Dict[str, ast.FunctionDef],
        input_stream: "Stream",
    ) -> "tuple[float, KernelLaunchRecord]":
        """Run a multipass reduction of ``input_stream`` to a scalar."""
        result = self._reduce_storage(kernel, helpers, input_stream.storage)
        return result.value, result.record(kernel.name)

    def _reduce_storage(self, kernel: CompiledKernel,
                        helpers: Dict[str, ast.FunctionDef],
                        storage: StreamStorage) -> "ReductionResult":
        """Multipass-reduce one storage of this device.

        A reduction pass samples 2x2 blocks of one texture, so it cannot
        cross tile boundaries: a tiled storage reduces tile by tile and
        the per-tile partials fold with the same kernel.  The storage
        model (RGBA8 round trip on OpenGL ES 2) applies between every
        pass of both stages, exactly as for an untiled reduction.
        """
        from ..runtime.reduction import combine_partials, multipass_reduce

        quantize = self._reduction_quantize()
        if not isinstance(storage, TiledStorage):
            return multipass_reduce(kernel, helpers,
                                    self.device_view(storage), quantize)
        return combine_partials(kernel, helpers, [
            multipass_reduce(kernel, helpers, self.device_view(tile), quantize)
            for tile in storage.parts
        ], quantize)

    def _reduction_quantize(self):
        """Storage model applied to reduction results before they are kept
        on the device (RGBA8 round trip on OpenGL ES 2, nothing elsewhere)."""
        return None

    def _store_reduction_output(self, storage: StreamStorage,
                                values: np.ndarray) -> None:
        """Place reduction results into device storage without modelling a
        host transfer (the data never leaves the device)."""
        raise NotImplementedError

    def reduce_into(
        self,
        kernel: CompiledKernel,
        helpers: Dict[str, ast.FunctionDef],
        input_stream: "Stream",
        output_stream: "Stream",
    ) -> KernelLaunchRecord:
        """Reduce ``input_stream`` block-wise into ``output_stream``.

        The output stream's extents must evenly divide the input stream's
        extents; each output element receives the reduction of its block.
        A *tiled* input reduces over its stitched logical view; a tiled
        output is rejected (each output element would straddle per-tile
        textures that a reduction pass cannot write together - reduce
        into a stream that fits one texture instead).
        """
        from ..runtime.reduction import partial_reduce
        from ..runtime.sharding import ShardedStorage

        storage = output_stream.storage
        parts = storage.parts if isinstance(storage, ShardedStorage) \
            else [storage]
        if any(isinstance(part, TiledStorage) for part in parts):
            raise KernelLaunchError(
                f"reduction output stream {output_stream.name!r} of shape "
                f"{tuple(output_stream.shape.dims)} exceeds the device "
                "texture limit and would itself be tiled; reduce into a "
                "stream that fits one texture (partial reductions write "
                "one render target per pass)"
            )
        in_dims = input_stream.shape.dims
        out_dims = output_stream.shape.dims
        if len(out_dims) != len(in_dims) or any(
            extent % out_extent for extent, out_extent in zip(in_dims, out_dims)
        ):
            raise KernelLaunchError(
                f"reduction output stream {output_stream.name!r} has extents "
                f"{out_dims} which do not evenly divide the input extents "
                f"{in_dims}"
            )
        data = self.device_view(input_stream.storage)
        result = partial_reduce(
            kernel, helpers, data, output_stream.shape.layout_2d,
            quantize=self._reduction_quantize(),
        )
        self._store_reduction_output(storage, result.values)
        return result.record(kernel.name)

    # ------------------------------------------------------------------ #
    # Shared execution helper
    # ------------------------------------------------------------------ #
    def _stream_inputs(self, domain: StreamShape,
                       stream_args: Dict[str, "Stream"]) -> Dict[str, np.ndarray]:
        """Each input stream's device values, one row per domain element;
        an input whose element count differs from the domain's is
        rejected before anything runs (only GL ES 2 stretches it)."""
        values = {}
        for name, stream in stream_args.items():
            if stream.shape.element_count != domain.element_count:
                raise KernelLaunchError(
                    f"input stream {name!r} has {stream.shape.element_count} "
                    f"elements but the output domain has {domain.element_count}"
                )
            data = self.device_view(stream.storage)
            width = stream.element_width
            values[name] = data.reshape(-1) if width == 1 \
                else data.reshape(-1, width)
        return values

    def _evaluate(
        self,
        kernel: CompiledKernel,
        helpers: Dict[str, ast.FunctionDef],
        domain: StreamShape,
        stream_values: Dict[str, np.ndarray],
        gathers: Dict[str, GatherSource],
        scalar_args: Dict[str, float],
        index_map: Optional[np.ndarray] = None,
    ) -> "tuple[Dict[str, np.ndarray], KernelExecutionStats]":
        """Run the kernel body once over ``domain`` with prepared inputs.

        Plain launches hand :func:`~repro.core.exec.evaluate` the 2-d
        layout (enabling the vector program's padded-slice gather plan);
        ``index_map`` overrides the ``indexof`` positions (tiled
        launches pass the global positions of the tile's elements).
        """
        return evaluate(kernel, helpers, domain.element_count, stream_values,
                        gathers, scalar_args, index=index_map,
                        layout=domain.layout_2d)


def create_backend(name: str, device: Optional[str] = None) -> Backend:
    """Construct a backend by registered name or alias.

    This is a thin wrapper over the backend registry
    (:mod:`repro.backends.registry`): the built-in backends ``"cpu"``,
    ``"gles2"`` and ``"cal"`` are always available, and anything added
    through :func:`~repro.backends.registry.register_backend` resolves
    here as well.

    Args:
        name: Registered backend name or alias.
        device: Optional device profile name understood by the backend
            (e.g. ``"videocore-iv"``, ``"mali-400"``, ``"radeon-hd3400"``).
    """
    from . import registry

    return registry.create_backend(name, device)
