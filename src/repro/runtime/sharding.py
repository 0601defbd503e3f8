"""Sharded execution engine: one logical launch across several devices.

The tiled engine (:mod:`repro.runtime.tiling`) lets a stream exceed one
device's texture limit; this module lets a *launch* exceed one device.
A runtime opened as ``BrookRuntime(backend=..., devices=N)`` backs every
stream with a :class:`ShardedStorage` - the partitioned storage
(:mod:`repro.runtime.partition`) whose band ``k`` of the
:class:`~repro.core.analysis.sharding.ShardPlan` belongs to device
``k``, so its transfers are the shared partitioned ones - and executes
each kernel as ``N`` concurrent per-shard passes, one per device,
through a :class:`DeviceGroup` worker pool:

* **Positional streams and outputs** are partitioned: device ``k``
  reads and writes only its own band, with the shard's *global*
  ``indexof`` positions passed as an ``index_map`` exactly like the
  tile engine does, so kernels cannot observe the decomposition.
* **Gather arrays** follow the per-kernel access-pattern analysis
  (:func:`~repro.core.analysis.sharding.classify_kernel`): a stencil
  access provably within ``h`` of the current element receives its band
  plus an ``h``-deep halo from the neighbouring devices
  (:class:`HaloGatherSource`); anything unbounded receives the whole
  array.  Both are served from **one snapshot per logical launch**,
  taken before any shard runs - the same audited semantics as
  ``launch_tiled``'s single ``prepare_gathers`` call, which is what
  keeps in-place launches (gather source == output stream) bit-identical
  to a single-device pass.
* **Reductions** (``ShardedBackend.reduce``) mirror a tiled reduction:
  each device reduces its band with the multipass engine and the
  per-device partials are folded with the same kernel.
* A shard that still exceeds its device's texture limit is **tiled
  transparently**: the per-device storage is an ordinary
  :class:`~repro.runtime.tiling.TiledStorage` and the shard pass runs
  through :func:`~repro.runtime.tiling.launch_tiled` with the shard's
  origin folded into the global index map (shard+tile composition).

The per-shard launch records merge (the same merge as the tile engine's)
into a single record carrying ``shards=N`` and the halo/replication
traffic in bytes, which :class:`~repro.timing.gpu_model.GPUModel`
prices with its sharding overhead terms.
"""

from __future__ import annotations

import threading
from concurrent.futures import ThreadPoolExecutor
from typing import Dict, List, Optional, Tuple

import numpy as np

from ..core.analysis.sharding import ArgumentClass, ShardPlan, classify_kernel
from ..core.analysis.tiling import PieceRect
from ..core.exec.gather import GatherSource, _HostArraySource
from ..errors import GatherBoundsError, StreamError
from .partition import (
    PartitionedStorage,
    invalidate_outputs,
    merge_launch_records,
    piece_views,
)
from .profiling import KernelLaunchRecord
from .shape import StreamShape
from .tiling import TiledStorage, launch_tiled

__all__ = ["ShardedStorage", "HaloGatherSource", "DeviceGroup",
           "launch_sharded"]


class ShardedStorage(PartitionedStorage):
    """A stream split into device bands, band ``k`` held by device ``k``.

    ``parts[k]`` is an ordinary storage of device ``k`` - a single
    texture/resource/array, or a :class:`TiledStorage` when the band
    exceeds that device's own limit.
    """

    label = "shard"
    layout_name = "sharded"

    @staticmethod
    def owner(backend, index: int):
        return backend.devices[index]


class HaloGatherSource(_HostArraySource):
    """Gather source serving global indices from a band-plus-halo slice.

    The band already contains every row/column the access-pattern
    analysis proved the shard can touch.  Indices arrive in *global*
    coordinates; edge behaviour matches the owning backend: texture-unit
    backends clamp to the full array's edge (then map into the band),
    the CPU backend treats an index outside the full array as a hard
    :class:`~repro.errors.GatherBoundsError`, exactly like its direct
    gather.
    An in-band violation - only possible if the halo analysis were
    unsound - clamps on GPU-style backends and raises on the CPU one,
    so it can never silently corrupt a result on the validation path.
    """

    def __init__(self, band: np.ndarray, full_shape: Tuple[int, int],
                 row0: int, col0: int, clamping: bool):
        super().__init__(band)
        #: The full array's extent; the band's own is ``_data.shape``.
        self.shape = (int(full_shape[0]), int(full_shape[1]))
        self._row0 = int(row0)
        self._col0 = int(col0)
        self._clamping = bool(clamping)
        b_height, b_width = self._data.shape[0], self._data.shape[1]
        #: The global rows and columns the band serves as they are.
        self._inside = (max(0, self._row0),
                        min(self.shape[0], self._row0 + b_height),
                        max(0, self._col0),
                        min(self.shape[1], self._col0 + b_width))

    def fetch(self, rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
        row_lo, row_hi, col_lo, col_hi = self._inside
        # Checked on the float indices, where NaN fails every comparison;
        # inside the band they are non-negative, so truncation is the
        # floor.
        if rows.size and not (rows.min() >= row_lo and rows.max() < row_hi
                              and cols.min() >= col_lo
                              and cols.max() < col_hi):
            band_rows, band_cols = self._edge(rows, cols)
        else:
            band_rows = rows.astype(np.int64) - self._row0
            band_cols = cols.astype(np.int64) - self._col0
        return self._take(band_rows, band_cols)

    def _edge(self, rows: np.ndarray, cols: np.ndarray):
        """Band indices of a fetch reaching past the band: clamped, or the
        backend's error."""
        rows = np.asarray(np.floor(rows), dtype=np.int64)
        cols = np.asarray(np.floor(cols), dtype=np.int64)
        height, width = self.shape
        if self._clamping:
            rows = np.clip(rows, 0, height - 1)
            cols = np.clip(cols, 0, width - 1)
        elif rows.min() < 0 or rows.max() >= height \
                or cols.min() < 0 or cols.max() >= width:
            raise GatherBoundsError(
                "gather access out of bounds on the CPU backend: "
                f"rows in [{rows.min()}, {rows.max()}], cols in "
                f"[{cols.min()}, {cols.max()}] for array of shape {self.shape}"
            )
        band_rows = rows - self._row0
        band_cols = cols - self._col0
        b_height, b_width = self._data.shape[0], self._data.shape[1]
        if self._clamping:
            band_rows = np.clip(band_rows, 0, b_height - 1)
            band_cols = np.clip(band_cols, 0, b_width - 1)
        elif band_rows.min() < 0 or band_rows.max() >= b_height \
                or band_cols.min() < 0 or band_cols.max() >= b_width:
            raise StreamError(
                f"gather access escaped its shard halo band "
                f"({self._data.shape} at offset ({self._row0}, {self._col0})"
                f" of {self.shape}); the stencil analysis mis-classified "
                "this kernel - please report it (the launch would have been "
                "wrong on a real device group)"
            )
        return band_rows, band_cols


class DeviceGroup:
    """A set of device backends plus the worker pool that drives them.

    ``run(tasks)`` executes one callable per shard concurrently (shards
    of one logical launch are independent by construction) and returns
    the results in shard order; the first exception, in shard order, is
    re-raised so failures are deterministic.  The pool is sized to the
    device count - it *is* the device set: concurrent logical launches
    submitted by executor workers share it the way they would share the
    physical devices.
    """

    def __init__(self, devices: List[object]):
        self.devices = list(devices)
        self._pool: Optional[ThreadPoolExecutor] = None
        self._pool_lock = threading.Lock()

    def __len__(self) -> int:
        return len(self.devices)

    def _ensure_pool(self) -> ThreadPoolExecutor:
        with self._pool_lock:
            if self._pool is None:
                self._pool = ThreadPoolExecutor(
                    max_workers=len(self.devices),
                    thread_name_prefix="brook-shard")
            return self._pool

    def run(self, tasks: List) -> List[object]:
        """Run the per-shard callables concurrently, results in order."""
        if len(tasks) == 1:
            return [tasks[0]()]
        futures = [self._ensure_pool().submit(task) for task in tasks]
        results: List[object] = []
        first_error: Optional[BaseException] = None
        for future in futures:
            try:
                results.append(future.result())
            except BaseException as exc:  # noqa: BLE001 - re-raised below
                results.append(None)
                if first_error is None:
                    first_error = exc
        if first_error is not None:
            raise first_error
        return results

    def shutdown(self) -> None:
        with self._pool_lock:
            pool, self._pool = self._pool, None
        if pool is not None:
            pool.shutdown(wait=True)


# --------------------------------------------------------------------------- #
# Launch
# --------------------------------------------------------------------------- #
def _gather_mode(arg: Optional[ArgumentClass], plan: ShardPlan,
                 storage: object,
                 scalar_args: Dict[str, float]) -> Tuple[str, int]:
    """Resolve one gather argument's mode for this launch: halo or whole.

    Halo mode needs the gather array to be sharded with the launch
    domain's exact band decomposition, a bounded access along the
    sharding axis, and every runtime clamp guard to actually cover the
    array's far edge.
    """
    if arg is None or arg.mode != "halo":
        return ("whole", 0)
    if not isinstance(storage, ShardedStorage) or \
            storage.plan.geometry != plan.geometry:
        return ("whole", 0)
    access = arg.axis_access(plan.axis)
    if access is None:
        return ("whole", 0)
    extent = plan.logical[0] if plan.axis == "rows" else plan.logical[1]
    for guard in access.guards:
        value = guard.value(scalar_args)
        if value is None or value < extent - 1 - access.bound:
            return ("whole", 0)
    return ("halo", int(access.bound))


def _band_slice(group, storage: ShardedStorage, lo: int, hi: int,
                axis: str) -> np.ndarray:
    """Materialise rows/columns ``[lo, hi)`` from the owning shards only.

    Avoids stitching (and, on RGBA8 backends, decoding) the whole
    logical array when a launch only needs each device's band plus a
    thin halo; ``np.concatenate`` always allocates, so the returned
    band is a private snapshot of the pre-launch data.
    """
    bands = []
    for shard, shard_storage in zip(storage.plan.pieces, storage.parts):
        start = shard.row0 if axis == "rows" else shard.col0
        stop = start + (shard.rows if axis == "rows" else shard.cols)
        overlap_lo, overlap_hi = max(lo, start), min(hi, stop)
        if overlap_lo >= overlap_hi:
            continue
        view = np.asarray(
            group.devices[shard.index].device_view(shard_storage),
            dtype=np.float32)
        if axis == "rows":
            bands.append(view[overlap_lo - start:overlap_hi - start])
        else:
            bands.append(view[:, overlap_lo - start:overlap_hi - start])
    return np.concatenate(bands, axis=0 if axis == "rows" else 1)


def _prepare_shard_gathers(group, plan: ShardPlan, kernel,
                           gather_args: Dict[str, object],
                           scalar_args: Dict[str, float],
                           out_args: Dict[str, object]):
    """Snapshot every gather array once and build per-shard sources.

    Returns ``(sources, halo_bytes)`` where ``sources[k]`` is the gather
    dict for shard ``k``, wrapped for the sanitizer like
    :meth:`Backend.prepare_gathers` wraps its own.  The single snapshot per logical launch is
    what keeps in-place launches (gather source == output stream)
    identical to an untiled, unsharded pass - the same audited contract
    as ``launch_tiled``.
    """
    spec = classify_kernel(kernel.definition)
    out_storages = {id(getattr(stream, "storage", None))
                    for stream in out_args.values()}
    sources: List[Dict[str, GatherSource]] = [dict() for _ in plan.pieces]
    halo_bytes = 0
    for name, stream in gather_args.items():
        storage = stream.storage
        element_bytes = 4 * getattr(stream, "element_width", 1)
        layout = stream.shape.layout_2d
        mode, halo = _gather_mode(spec.argument(name), plan, storage,
                                  scalar_args)
        if mode == "halo":
            # Each device materialises only its band plus the halo, cut
            # straight from the owning shards' device views - never the
            # full stitched array.  The concatenated band is a private
            # pre-launch snapshot, so in-place launches stay correct.
            for shard in plan.pieces:
                lo, hi = plan.halo_band(shard, halo)
                band = _band_slice(group, storage, lo, hi, plan.axis)
                if plan.axis == "rows":
                    origin = (lo, 0)
                    own = shard.rows
                    line_bytes = layout[1] * element_bytes
                else:
                    origin = (0, lo)
                    own = shard.cols
                    line_bytes = layout[0] * element_bytes
                halo_bytes += ((hi - lo) - own) * line_bytes
                sources[shard.index][name] = HaloGatherSource(
                    band, layout, origin[0], origin[1],
                    clamping=group.gather_clamps)
            continue
        data = np.asarray(group.device_view(storage), dtype=np.float32)
        if id(storage) in out_storages:
            # In-place launch: pin the pre-launch snapshot explicitly so
            # no shard pass can observe another shard's output, whatever
            # the backend's device_view aliasing happens to be.  (The
            # common read-only case skips the copy: no backend mutates a
            # previously returned view in place - writes rebind or drop
            # the memo - and conflicting launches are serialized by the
            # executor's hazard tracking.)
            data = data.copy()
        if data.ndim == 1:
            data = data.reshape(1, -1)
        for shard in plan.pieces:
            # Replicated in full: every device fetches the bands it
            # does not own.  A sharded array leaves each device its
            # own band; an unsharded one already lives on device 0.
            local = 0
            if isinstance(storage, ShardedStorage):
                if shard.index < len(storage.plan.pieces):
                    local = storage.plan.pieces[shard.index].element_count
            elif shard.index == 0:
                local = data.shape[0] * data.shape[1]
            halo_bytes += (data.shape[0] * data.shape[1] - local) \
                * element_bytes
            sources[shard.index][name] = group.make_gather_source(data)
    return [group.checked_gathers(shard) for shard in sources], halo_bytes


def launch_sharded(
    group,
    kernel,
    helpers,
    domain: StreamShape,
    plan: ShardPlan,
    stream_args: Dict[str, object],
    gather_args: Dict[str, object],
    scalar_args: Dict[str, float],
    out_args: Dict[str, object],
) -> KernelLaunchRecord:
    """Run one kernel over ``domain`` as one concurrent pass per device.

    ``group`` is the owning device group / sharded backend (it supplies
    ``devices``, ``run``, ``device_view``, ``make_gather_source`` and
    ``gather_clamps``).  Returns the aggregated launch record
    (``shards=N``, halo traffic included).
    """
    gather_sources, halo_bytes = _prepare_shard_gathers(
        group, plan, kernel, gather_args, scalar_args, out_args)

    def run_shard(shard: PieceRect):
        device = group.devices[shard.index]
        shard_shape = StreamShape(plan.piece_dims(shard))
        shard_streams = piece_views(ShardedStorage, stream_args, plan, shard,
                                    shard_shape, "input")
        shard_outs = piece_views(ShardedStorage, out_args, plan, shard,
                                 shard_shape, "output")
        gathers = gather_sources[shard.index]
        tile_plan = TiledStorage.launch_plan(shard_streams, shard_outs)
        if tile_plan is not None:
            # The shard's band exceeds its own device's texture limit:
            # run the normal tile engine inside the shard, shifting the
            # tile index map by the shard's origin so ``indexof`` stays
            # global (shard+tile composition).
            return launch_tiled(
                device, kernel, helpers, shard_shape, tile_plan,
                shard_streams, gather_args, scalar_args, shard_outs,
                gathers=gathers, origin=(shard.col0, shard.row0),
            )
        return device.launch(
            kernel, helpers, shard_shape,
            shard_streams, gather_args, scalar_args, shard_outs,
            index_map=plan.index_positions(shard),
            gathers=gathers,
        )

    try:
        records = group.run([
            (lambda s=shard: run_shard(s)) for shard in plan.pieces
        ])
    finally:
        invalidate_outputs(out_args)
    # ``tiles`` is folded so that the aggregate's ``tiles - 1`` equals
    # the total number of within-device tile switches
    # (``sum(tiles_k - 1)``) - crossing from one shard to the next is
    # priced by the sharding overhead, not the tiling one.
    shards = len(plan.pieces)
    return merge_launch_records(
        records, tiles=sum(r.tiles for r in records) - (shards - 1),
        shards=shards, halo_bytes=halo_bytes)
