"""Tiled execution engine: streams larger than the device texture limit.

An OpenGL ES 2.0 stream occupies one RGBA8 texture, so a ``(3000,
3000)`` ADAS frame - or even a foldable ``(4096,)`` signal - could not
be allocated on a 2048-limit device without this engine:

* :class:`TilePlan` turns a stream shape plus the backend's
  :class:`~repro.core.analysis.resources.TargetLimits` into a folded
  layout and a grid of device-sized tiles.  It is a
  :class:`~repro.core.analysis.tiling.PiecePlan` (geometry shared with
  the static memory analysis and with the shard plan).
* :class:`TiledStorage` is the partitioned storage
  (:mod:`repro.runtime.partition`) whose every tile belongs to the
  backend holding the stream: a texture on GLES2, a resource on CAL.
  Its transfers are the shared partitioned ones.  The CPU backend
  keeps its plain contiguous array because it never tiles.
* :func:`launch_tiled` runs one backend pass per tile over the tile
  views of the positional streams, passing each tile's *global*
  element positions so ``indexof`` stays correct.  Gather arrays go
  through the ordinary full-array
  :class:`~repro.core.exec.gather.GatherSource`, snapshot once per
  logical launch from the stitched ``device_view``.  The per-tile
  records merge into one record carrying ``tiles=N``, which the
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

from typing import Dict, List

import numpy as np

from ..core.analysis.resources import TargetLimits
from ..core.analysis.tiling import PiecePlan, folded_layout, tile_grid
from .partition import (
    PartitionedStorage,
    invalidate_outputs,
    merge_launch_records,
    piece_views,
)
from .profiling import KernelLaunchRecord
from .shape import StreamShape

__all__ = ["TilePlan", "TiledStorage", "launch_tiled"]


class TilePlan(PiecePlan):
    """Fold-and-tile decomposition of one stream shape for one device.

    A pure function of ``(shape.layout_2d, limits)``: the pieces are the
    device-sized tiles of the folded layout.
    """

    def __init__(self, shape: StreamShape, limits: TargetLimits):
        logical = shape.layout_2d
        folded = folded_layout(logical, limits)
        super().__init__(logical, folded, tile_grid(folded, limits))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"<TilePlan logical={self.logical} folded={self.folded} "
                f"tiles={len(self.pieces)}>")


class TiledStorage(PartitionedStorage):
    """A stream split into tiles, every tile held by the same backend.

    The backends create this from ``Backend.create_storage`` when the
    tile plan for the requested shape is non-trivial; ``parts[i]`` is
    an ordinary single-texture/resource storage for ``plan.pieces[i]``.
    """

    label = "tile"
    layout_name = "tiled"

    @staticmethod
    def owner(backend, index: int):
        return backend


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
        for tile in plan.pieces:
            tile_shape = StreamShape(plan.piece_dims(tile))
            index_map = plan.index_positions(tile)
            if origin != (0, 0):
                index_map = index_map + np.asarray(origin, dtype=np.float32)
            records.append(backend.launch(
                kernel, helpers, tile_shape,
                piece_views(TiledStorage, stream_args, plan, tile,
                            tile_shape, "input"),
                gather_args, scalar_args,
                piece_views(TiledStorage, out_args, plan, tile, tile_shape,
                            "output"),
                index_map=index_map,
                gathers=prepared_gathers,
            ))
    finally:
        invalidate_outputs(out_args)
    return merge_launch_records(records, tiles=len(plan.pieces))
