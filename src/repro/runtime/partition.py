"""Partitioned storage: one logical stream split into per-device pieces.

A stream that one device storage cannot hold is split by a
:class:`~repro.core.analysis.tiling.PiecePlan` into rectangular pieces,
each kept in an ordinary single storage of its owning backend.  Two
splits exist and share everything but the owner of a piece:

* :class:`~repro.runtime.tiling.TiledStorage` - tiles of a stream
  larger than the device texture limit; every tile belongs to the
  backend that holds the stream.
* :class:`~repro.runtime.sharding.ShardedStorage` - bands of a stream
  spread over a device group; band ``k`` belongs to device ``k`` (and
  is itself tiled when it exceeds that device's limit).

:class:`PartitionedStorage` implements creation, upload, download,
device view and release once, on top of the owners' ordinary
single-storage methods; ``Backend`` dispatches to it for any
partitioned storage.  The launch side shares :func:`piece_views` (the
per-piece stream views with their layout check) and
:func:`merge_launch_records`.
"""

from __future__ import annotations

import threading
from typing import Dict, List, Optional

import numpy as np

from ..core.analysis.tiling import PiecePlan, PieceRect
from ..errors import KernelLaunchError
from .profiling import KernelLaunchRecord, TransferRecord
from .shape import StreamShape

__all__ = ["PartitionedStorage", "PieceStreamView", "piece_views",
           "invalidate_outputs", "merge_launch_records"]


class PartitionedStorage:
    """One logical stream backed by one ordinary storage per plan piece.

    Implements the :class:`~repro.backends.base.StreamStorage` protocol
    (``shape`` / ``element_width`` / ``name``) without inheriting from
    it - the backends depend on the runtime layer, not the other way
    round.  ``parts[k]`` holds ``plan.pieces[k]`` and belongs to
    :meth:`owner` ``(backend, k)``.  Subclasses name the split
    (``label`` for part and view names, ``layout_name`` for errors) and
    its owner.
    """

    label: str
    layout_name: str

    def __init__(self, shape: StreamShape, element_width: int, name: str,
                 plan: PiecePlan, parts: List[object]):
        self.shape = shape
        self.element_width = element_width
        self.name = name
        self.plan = plan
        self.parts = parts
        self._stitched_view: Optional[np.ndarray] = None
        self._view_lock = threading.Lock()

    @staticmethod
    def owner(backend, index: int):
        """The backend holding part ``index`` of a storage of ``backend``."""
        raise NotImplementedError

    @classmethod
    def allocate(cls, backend, plan: PiecePlan, shape: StreamShape,
                 element_width: int, name: str) -> "PartitionedStorage":
        """Create every part through its owner's ``create_storage``."""
        parts = [
            cls.owner(backend, piece.index).create_storage(
                StreamShape(plan.piece_dims(piece)), element_width,
                f"{name}/{cls.label}{piece.index}")
            for piece in plan.pieces
        ]
        return cls(shape, element_width, name, plan, parts)

    @classmethod
    def launch_plan(cls, stream_args: Dict[str, object],
                    out_args: Dict[str, object]) -> Optional[PiecePlan]:
        """The plan a launch over these streams must follow, or ``None``.

        Dispatch keys on the storages actually being split - not on the
        domain size against the backend limits - so backends that never
        split (the CPU backend) keep launching any domain in one pass.
        Outputs are consulted first: they define the launch domain, so
        their plan is authoritative; a mismatched positional stream is
        rejected piece by piece by :func:`piece_views`.
        """
        for stream in (*out_args.values(), *stream_args.values()):
            storage = getattr(stream, "storage", None)
            if isinstance(storage, cls):
                return storage.plan
        return None

    # ------------------------------------------------------------------ #
    # Transfers, each part through its owner's ordinary methods
    # ------------------------------------------------------------------ #
    def _transfer(self, direction: str,
                  records: List[TransferRecord]) -> TransferRecord:
        """One logical transfer carrying the parts' bytes and driver calls."""
        return TransferRecord(stream=self.name, direction=direction,
                              bytes=sum(r.bytes for r in records),
                              elements=self.shape.element_count,
                              calls=sum(r.calls for r in records))

    def upload(self, backend, data: np.ndarray) -> TransferRecord:
        rows, cols = self.shape.layout_2d
        data = np.asarray(data, dtype=np.float32)
        expected = (rows, cols) if self.element_width == 1 \
            else (rows, cols, self.element_width)
        if data.shape != expected:
            raise KernelLaunchError(
                f"stream {self.name!r}: cannot write data of shape "
                f"{data.shape} into a stream of layout {expected}"
            )
        folded = self.plan.fold(data)
        records = [
            self.owner(backend, piece.index).upload(
                part, self.plan.slice(folded, piece))
            for piece, part in zip(self.plan.pieces, self.parts)
        ]
        self.invalidate_view()
        return self._transfer("upload", records)

    def download(self, backend) -> "tuple[np.ndarray, TransferRecord]":
        blocks, records = [], []
        for index, part in enumerate(self.parts):
            block, record = self.owner(backend, index).download(part)
            blocks.append(block)
            records.append(record)
        values = self.plan.unfold(self.plan.stitch(blocks))
        return values, self._transfer("download", records)

    def device_view(self, backend) -> np.ndarray:
        """Memoised stitched logical view (see ``Backend.device_view``).

        Stitching reads (and, on RGBA8 backends, decodes) every part;
        gathers during a partitioned launch would otherwise redo that
        once per piece pass.  Every write path (upload, launch outputs,
        reduction stores) calls :meth:`invalidate_view`.  The memo is
        built under a lock so concurrent readers (launches gathering
        from the same stream on different executor workers) share one
        stitch instead of racing the cache slot.
        """
        with self._view_lock:
            if self._stitched_view is None:
                self._stitched_view = self.plan.unfold(self.plan.stitch([
                    self.owner(backend, index).device_view(part)
                    for index, part in enumerate(self.parts)
                ]))
            return self._stitched_view

    def invalidate_view(self) -> None:
        with self._view_lock:
            self._stitched_view = None

    def free(self, backend) -> None:
        for index, part in enumerate(self.parts):
            self.owner(backend, index).free(part)

    @property
    def size_bytes(self) -> int:
        return sum(part.size_bytes for part in self.parts)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"<{type(self).__name__} {self.name!r} {self.shape} "
                f"{self.label}s={len(self.parts)}>")


class PieceStreamView:
    """Stream-shaped view of one piece, handed to the owning backend.

    Quacks like :class:`~repro.runtime.stream.Stream` as far as backends
    care (``storage``, ``shape``, ``element_width``, ``name``), but its
    storage is the piece's own part and its shape the piece extent.
    """

    __slots__ = ("storage", "shape", "element_width", "name")

    def __init__(self, storage, shape: StreamShape, element_width: int,
                 name: str):
        self.storage = storage
        self.shape = shape
        self.element_width = element_width
        self.name = name

    @property
    def element_count(self) -> int:
        return self.shape.element_count


def piece_views(kind: type, streams: Dict[str, object], plan: PiecePlan,
                piece: PieceRect, shape: StreamShape,
                what: str) -> Dict[str, PieceStreamView]:
    """Views of ``piece`` of every positional stream in ``streams``.

    Each stream must be a ``kind`` storage with the launch domain's
    geometry; anything else cannot be paired piece by piece.
    """
    views = {}
    for name, stream in streams.items():
        storage = getattr(stream, "storage", None)
        if not isinstance(storage, kind) or \
                storage.plan.geometry != plan.geometry:
            raise KernelLaunchError(
                f"{what} stream {stream.name!r} of shape "
                f"{tuple(stream.shape.dims)} does not share the "
                f"{kind.layout_name} layout of the launch domain "
                f"{plan.logical}; {kind.layout_name} launches need every "
                "positional stream argument to have the domain's shape"
            )
        views[name] = PieceStreamView(
            storage.parts[piece.index], shape, stream.element_width,
            f"{stream.name}[{kind.label} {piece.index}]")
    return views


def invalidate_outputs(out_args: Dict[str, object]) -> None:
    """Drop the stitched views of partitioned outputs after a launch.

    The piece passes wrote the parts behind the logical storages' backs.
    """
    for stream in out_args.values():
        storage = getattr(stream, "storage", None)
        if isinstance(storage, PartitionedStorage):
            storage.invalidate_view()


def merge_launch_records(records: List[KernelLaunchRecord], tiles: int,
                         shards: int = 1,
                         halo_bytes: int = 0) -> KernelLaunchRecord:
    """Merge per-piece launch records into one logical launch record."""
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
        tiles=tiles,
        shards=shards,
        halo_bytes=halo_bytes,
    )
