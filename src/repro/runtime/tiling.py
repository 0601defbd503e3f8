"""Tiled execution engine: streams larger than the device texture limit.

An OpenGL ES 2.0 stream occupies one RGBA8 texture, so before this
module a ``(3000, 3000)`` ADAS frame - or even a folded-able ``(4096,)``
signal - could not be *allocated* on a 2048-limit device, let alone
launched.  The engine makes oversized domains a first-class scenario:

* :class:`TilePlan` turns a stream shape plus the backend's
  :class:`~repro.core.analysis.resources.TargetLimits` into a folded
  layout and a grid of device-sized tiles (geometry shared with the
  static memory analysis through :mod:`repro.core.analysis.tiling`).
* :class:`TiledStorage` backs one logical stream with one per-tile
  backend storage each (textures on GLES2, resources on CAL); the CPU
  backend keeps its plain contiguous array because its limit is never
  exceeded in practice.
* :func:`launch_tiled` runs one backend pass per tile, slicing the
  positional stream inputs per tile, passing each tile's *global*
  element positions so ``indexof`` stays correct, and routing gather
  arrays through the existing full-array
  :class:`~repro.core.exec.gather.GatherSource` (stitched from the
  tiles by ``device_view``).  The per-tile
  :class:`~repro.runtime.profiling.KernelLaunchRecord` objects are
  aggregated into a single record carrying ``tiles=N``, which the
  :class:`~repro.timing.gpu_model.GPUModel` prices with its
  tiling-overhead term.
* Reductions of a tiled stream (``Backend.reduce``) reduce each tile
  with the multipass engine and then combine the per-tile partials with
  the same kernel, because a single reduction pass cannot sample across
  tile textures.

Integration is transparent: every :class:`~repro.runtime.launch.LaunchPlan`
(fused or not) consults the plan at launch time, so direct calls,
prepared launches, command-queue flushes and fused pipelines all tile
without application changes.
"""

from __future__ import annotations

import threading
from typing import Dict, List, Optional, Tuple

import numpy as np

from ..core.analysis.resources import TargetLimits
from ..core.analysis.tiling import TileRect, folded_layout, tile_grid
from ..errors import KernelLaunchError
from .profiling import KernelLaunchRecord
from .shape import StreamShape

__all__ = ["TilePlan", "TiledStorage", "launch_tiled"]


class TilePlan:
    """Fold-and-tile decomposition of one stream shape for one device.

    The plan is a pure function of ``(shape.layout_2d, limits)``: two
    streams of the same shape on the same backend always share the same
    geometry, which is what lets per-tile launches pair the n-th tile of
    every argument.
    """

    def __init__(self, shape: StreamShape, limits: TargetLimits):
        self.shape = shape
        self.logical: Tuple[int, int] = shape.layout_2d
        self.folded: Tuple[int, int] = folded_layout(self.logical, limits)
        self.tiles: List[TileRect] = tile_grid(self.folded, limits)

    # ------------------------------------------------------------------ #
    @classmethod
    def for_shape(cls, shape: StreamShape, limits: TargetLimits) -> "TilePlan":
        return cls(shape, limits)

    @property
    def tile_count(self) -> int:
        return len(self.tiles)

    @property
    def is_trivial(self) -> bool:
        """Whether the ordinary single-texture path suffices.

        A folded-but-single-tile plan is *not* trivial: the data layout
        in the texture differs from the logical one, so uploads and
        ``indexof`` still need the plan's bookkeeping.
        """
        return self.tile_count == 1 and self.folded == self.logical

    @property
    def geometry(self) -> tuple:
        """Hashable identity of the decomposition (for plan matching)."""
        return (self.logical, self.folded, tuple(self.tiles))

    # ------------------------------------------------------------------ #
    # ndarray helpers (all layouts are row-major, so fold == reshape)
    # ------------------------------------------------------------------ #
    def fold(self, data: np.ndarray) -> np.ndarray:
        """Logical 2-D layout -> folded layout.

        A trailing component axis (vector element types on the desktop
        backend) is preserved.
        """
        data = np.asarray(data)
        trailing = data.shape[2:]
        return data.reshape(self.folded + trailing)

    def unfold(self, data: np.ndarray) -> np.ndarray:
        """Folded layout -> logical 2-D layout."""
        data = np.asarray(data)
        trailing = data.shape[2:]
        return data.reshape(self.logical + trailing)

    def slice(self, folded: np.ndarray, tile: TileRect) -> np.ndarray:
        """Extract one tile's live block from a folded-layout array."""
        return folded[tile.row0:tile.row0 + tile.rows,
                      tile.col0:tile.col0 + tile.cols]

    def stitch(self, tile_arrays) -> np.ndarray:
        """Reassemble per-tile blocks into the folded-layout array."""
        blocks = [np.asarray(block) for block in tile_arrays]
        trailing = blocks[0].shape[2:]
        folded = np.zeros(self.folded + trailing, dtype=np.float32)
        for tile, block in zip(self.tiles, blocks):
            folded[tile.row0:tile.row0 + tile.rows,
                   tile.col0:tile.col0 + tile.cols] = block
        return folded

    def tile_shape(self, tile: TileRect) -> StreamShape:
        """The launch-domain shape of one tile."""
        return StreamShape((tile.rows, tile.cols))

    def tile_index_positions(self, tile: TileRect) -> np.ndarray:
        """Global ``indexof`` positions of one tile's elements.

        Kernels observe positions in the *logical* 2-D layout (a 1-D
        stream yields ``(i, 0)`` regardless of folding), so outputs stay
        bit-identical to an untiled launch on the CPU backend.
        """
        ys, xs = np.mgrid[0:tile.rows, 0:tile.cols]
        linear = (tile.row0 + ys).astype(np.int64) * self.folded[1] \
            + (tile.col0 + xs)
        lcols = self.logical[1]
        gx = (linear % lcols).reshape(-1)
        gy = (linear // lcols).reshape(-1)
        return np.stack([gx, gy], axis=1).astype(np.float32)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"<TilePlan logical={self.logical} folded={self.folded} "
                f"tiles={self.tile_count}>")


class TiledStorage:
    """One logical stream backed by multiple per-tile backend storages.

    Implements the :class:`~repro.backends.base.StreamStorage` protocol
    (``shape`` / ``element_width`` / ``name``) without inheriting from
    it - the backends depend on the runtime layer, not the other way
    round.  The backends create this from ``Backend.create_storage``
    when the plan for the requested shape is non-trivial; ``tiles[i]``
    is an ordinary single-texture/resource storage for
    ``plan.tiles[i]``.
    """

    def __init__(self, shape: StreamShape, element_width: int, name: str,
                 plan: TilePlan, tiles: List[object]):
        self.shape = shape
        self.element_width = element_width
        self.name = name
        self.plan = plan
        self.tiles = tiles
        self._stitched_view: Optional[np.ndarray] = None
        self._view_lock = threading.Lock()

    @property
    def tile_count(self) -> int:
        return len(self.tiles)

    # ------------------------------------------------------------------ #
    def cached_view(self, build) -> np.ndarray:
        """Memoised stitched logical view (see ``Backend.device_view``).

        Stitching decodes every tile; gathers during a tiled launch would
        otherwise redo that work once per tile pass.  Every write path
        (upload, tiled launch outputs) calls :meth:`invalidate_view`.
        The memo is built under a lock so concurrent readers (launches
        gathering from the same tiled stream on different executor
        workers) share one stitch instead of racing the cache slot.
        """
        with self._view_lock:
            if self._stitched_view is None:
                self._stitched_view = build()
            return self._stitched_view

    def invalidate_view(self) -> None:
        with self._view_lock:
            self._stitched_view = None

    @property
    def size_bytes(self) -> int:
        return sum(tile.size_bytes for tile in self.tiles)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"<TiledStorage {self.name!r} {self.shape} "
                f"tiles={self.tile_count}>")


class _TileStreamView:
    """Stream-shaped view of one tile, handed to the backend launch.

    Quacks like :class:`~repro.runtime.stream.Stream` as far as backends
    care (``storage``, ``shape``, ``element_width``, ``name``), but its
    storage is the tile's own single-texture storage and its shape the
    tile extent.
    """

    __slots__ = ("storage", "shape", "element_width", "name")

    def __init__(self, stream, storage, shape: StreamShape,
                 tile_index: int):
        self.storage = storage
        self.shape = shape
        self.element_width = stream.element_width
        self.name = f"{stream.name}[tile {tile_index}]"

    @property
    def element_count(self) -> int:
        return self.shape.element_count


def _tile_view(stream, plan: TilePlan, tile: TileRect,
               tile_shape: StreamShape) -> _TileStreamView:
    storage = stream.storage
    if not isinstance(storage, TiledStorage) or \
            storage.plan.geometry != plan.geometry:
        raise KernelLaunchError(
            f"stream {stream.name!r} of shape {tuple(stream.shape.dims)} does "
            "not share the tiled layout of the launch domain "
            f"{plan.logical}; tiled launches need every positional stream "
            "argument to have the domain's shape"
        )
    return _TileStreamView(stream, storage.tiles[tile.index], tile_shape,
                           tile.index)


def launch_tile_plan(stream_args: Dict[str, object],
                     out_args: Dict[str, object]) -> Optional[TilePlan]:
    """The tile plan a launch must follow, or ``None`` for the ordinary path.

    Dispatch keys on the storages actually being tiled - not on the
    domain size against the backend limits - so backends whose
    ``create_storage`` never tiles (the CPU backend) keep launching any
    domain in one pass.  Outputs are consulted first: they define the
    launch domain, so their plan is authoritative; a tiled input with an
    untiled output (mismatched layouts) is rejected tile-by-tile with a
    clear :class:`~repro.errors.KernelLaunchError` later.
    """
    for stream in (*out_args.values(), *stream_args.values()):
        storage = getattr(stream, "storage", None)
        if isinstance(storage, TiledStorage):
            return storage.plan
    return None


def aggregate_tile_records(records: List[KernelLaunchRecord],
                           tile_count: int) -> KernelLaunchRecord:
    """Merge per-tile launch records into one record with ``tiles=N``."""
    return KernelLaunchRecord(
        kernel=records[0].kernel,
        elements=sum(r.elements for r in records),
        flops=sum(r.flops for r in records),
        texture_fetches=sum(r.texture_fetches for r in records),
        passes=sum(r.passes for r in records),
        reduction=any(r.reduction for r in records),
        fused=max(r.fused for r in records),
        saved_intermediate_bytes=sum(r.saved_intermediate_bytes
                                     for r in records),
        tiles=tile_count,
    )


def launch_tiled(
    backend,
    kernel,
    helpers,
    domain: StreamShape,
    plan: TilePlan,
    stream_args: Dict[str, object],
    gather_args: Dict[str, object],
    scalar_args: Dict[str, float],
    out_args: Dict[str, object],
    gathers=None,
    origin: "tuple[int, int]" = (0, 0),
) -> KernelLaunchRecord:
    """Run one kernel over an oversized domain as one pass per tile.

    Positional stream inputs and outputs are addressed tile-by-tile
    through their :class:`TiledStorage`; gather arrays are passed whole
    (the backend builds its usual full-array gather source from the
    stitched ``device_view``).  Scalars broadcast unchanged.  Returns
    the aggregated launch record (``tiles=N``).

    ``gathers`` optionally supplies prebuilt gather sources so an outer
    engine (the sharded launch path) can share one snapshot across both
    its shards and their tiles.  ``origin`` is an ``(x, y)`` offset
    added to every tile's ``indexof`` positions: a sharded-and-tiled
    launch passes the shard's origin so kernels observe coordinates in
    the full logical stream, not the shard band.
    """
    records: List[KernelLaunchRecord] = []
    # One gather snapshot for the whole logical launch: every tile pass
    # reads the same sources instead of re-decoding the arrays per tile.
    # (Audited: for in-place launches - the gather source also being the
    # output stream - this matches the untiled backends, which likewise
    # snapshot the gather data before any output is written, so a tile
    # pass never observes an earlier tile's writes.  Regression-locked
    # by tests/test_tiled_execution.py::TestGatherSnapshotSemantics.)
    prepared_gathers = gathers if gathers is not None \
        else backend.prepare_gathers(gather_args)
    try:
        for tile in plan.tiles:
            tile_shape = plan.tile_shape(tile)
            tile_streams = {name: _tile_view(stream, plan, tile, tile_shape)
                            for name, stream in stream_args.items()}
            tile_outs = {name: _tile_view(stream, plan, tile, tile_shape)
                         for name, stream in out_args.items()}
            index_map = plan.tile_index_positions(tile)
            if origin != (0, 0):
                index_map = index_map + np.asarray(origin, dtype=np.float32)
            records.append(backend.launch(
                kernel, helpers, tile_shape,
                tile_streams, gather_args, scalar_args, tile_outs,
                index_map=index_map,
                gathers=prepared_gathers,
            ))
    finally:
        # The tile passes wrote the output textures behind the logical
        # storages' backs; drop any memoised stitched views.
        for stream in out_args.values():
            storage = getattr(stream, "storage", None)
            if isinstance(storage, TiledStorage):
                storage.invalidate_view()
    return aggregate_tile_records(records, plan.tile_count)
