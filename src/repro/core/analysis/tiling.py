"""Tile geometry for streams larger than the device texture limit.

An OpenGL ES 2.0 stream lives in one 2-D texture, and the texture cannot
exceed ``GL_MAX_TEXTURE_SIZE`` in either dimension.  Real workloads (an
ADAS frame at production resolution, a long 1-D signal) routinely do, so
the runtime decomposes oversized layouts in two steps:

1. **Folding** (1-D streams only): a ``(4096,)`` stream maps to a single
   ``1 x 4096`` row by default, which overflows a 2048-limit device even
   though a ``2 x 2048`` arrangement of the same elements fits in one
   texture.  :func:`folded_layout` re-shapes such rows into the widest
   exactly-dividing multi-row layout before any tiling is considered.

2. **Tiling**: a (possibly folded) layout still exceeding the limit is
   partitioned by :func:`tile_grid` into a grid of device-sized
   rectangular tiles, each small enough to live in its own texture.
   Edge tiles are smaller; power-of-two / square padding is applied per
   tile by the normal allocation path.

This module is pure geometry - it knows nothing about streams, textures
or backends - so both the static memory-usage analysis and the runtime's
tiled execution engine (:mod:`repro.runtime.tiling`) share one
decomposition and always agree on the allocation.

:class:`PiecePlan` is the geometry every partitioned stream shares: a
logical layout, the (possibly folded) layout its pieces cut, and the
row-major :class:`PieceRect` pieces.  The tile plan
(:class:`~repro.runtime.tiling.TilePlan`) and the device-band plan
(:class:`~repro.core.analysis.sharding.ShardPlan`, whose folded layout
is always the logical one) both derive from it, so slicing, stitching
and the global ``indexof`` positions of a piece are written once.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple

import numpy as np

from .memory_usage import padded_texture_extent
from .resources import TargetLimits

__all__ = ["PieceRect", "PiecePlan", "folded_layout", "tile_grid",
           "tiled_texture_bytes"]


@dataclass(frozen=True)
class PieceRect:
    """One rectangular piece of a 2-D layout: a tile or a device band.

    ``row0``/``col0`` locate the piece inside the layout it cuts (the
    folded layout of a tiled stream); ``rows``/``cols`` are its live
    extent (edge tiles are smaller than the interior ones).
    """

    index: int
    row0: int
    col0: int
    rows: int
    cols: int

    @property
    def element_count(self) -> int:
        return self.rows * self.cols


class PiecePlan:
    """A logical 2-D layout cut into rectangular pieces.

    ``folded`` is the layout the ``pieces`` cut.  It differs from
    ``logical`` only for a folded 1-D stream; both are row-major, so
    folding is a reshape.  A plan is a pure function of its inputs, so
    two streams of the same shape on the same target share one geometry,
    which is what lets a partitioned launch pair the n-th piece of every
    argument.
    """

    def __init__(self, logical: Tuple[int, int], folded: Tuple[int, int],
                 pieces: List[PieceRect]):
        self.logical = logical
        self.folded = folded
        self.pieces = pieces

    @property
    def is_trivial(self) -> bool:
        """Whether one ordinary storage holds the stream.

        A folded-but-single-piece plan is *not* trivial: the data layout
        in the texture differs from the logical one, so uploads and
        ``indexof`` still need the plan's bookkeeping.
        """
        return len(self.pieces) == 1 and self.folded == self.logical

    @property
    def geometry(self) -> tuple:
        """Hashable identity of the decomposition (for plan matching)."""
        return (self.logical, self.folded, tuple(self.pieces))

    def piece_dims(self, piece: PieceRect) -> Tuple[int, ...]:
        """Stream dimensions of one piece (its launch domain)."""
        return (piece.rows, piece.cols)

    # ------------------------------------------------------------------ #
    # ndarray helpers.  A trailing component axis (vector element types)
    # is carried through unchanged.
    # ------------------------------------------------------------------ #
    def fold(self, data: np.ndarray) -> np.ndarray:
        """Logical 2-D layout -> folded layout."""
        data = np.asarray(data)
        return data.reshape(self.folded + data.shape[2:])

    def unfold(self, data: np.ndarray) -> np.ndarray:
        """Folded layout -> logical 2-D layout."""
        data = np.asarray(data)
        return data.reshape(self.logical + data.shape[2:])

    def slice(self, folded: np.ndarray, piece: PieceRect) -> np.ndarray:
        """Extract one piece's block from a folded-layout array."""
        return folded[piece.row0:piece.row0 + piece.rows,
                      piece.col0:piece.col0 + piece.cols]

    def stitch(self, blocks) -> np.ndarray:
        """Reassemble per-piece blocks into the folded-layout array."""
        blocks = [np.asarray(block) for block in blocks]
        folded = np.zeros(self.folded + blocks[0].shape[2:], dtype=np.float32)
        for piece, block in zip(self.pieces, blocks):
            folded[piece.row0:piece.row0 + piece.rows,
                   piece.col0:piece.col0 + piece.cols] = block
        return folded

    def index_positions(self, piece: PieceRect) -> np.ndarray:
        """Global ``indexof`` positions of one piece's elements.

        Kernels observe positions in the *logical* 2-D layout (a 1-D
        stream yields ``(i, 0)`` regardless of folding), so a partitioned
        launch is bit-identical to a single-storage one.
        """
        ys, xs = np.mgrid[0:piece.rows, 0:piece.cols]
        linear = (piece.row0 + ys).astype(np.int64) * self.folded[1] \
            + (piece.col0 + xs)
        lcols = self.logical[1]
        gx = (linear % lcols).reshape(-1)
        gy = (linear // lcols).reshape(-1)
        return np.stack([gx, gy], axis=1).astype(np.float32)


def _largest_divisor_up_to(value: int, bound: int) -> int:
    """Largest divisor of ``value`` that is ``<= bound`` (at least 1)."""
    best = 1
    divisor = 1
    while divisor * divisor <= value:
        if value % divisor == 0:
            low, high = divisor, value // divisor
            if low <= bound:
                best = max(best, low)
            if high <= bound:
                best = max(best, high)
        divisor += 1
    return best


def folded_layout(layout: Tuple[int, int], limits: TargetLimits) -> Tuple[int, int]:
    """Fold an overlong single-row layout into multiple rows.

    Only 1-D streams (``rows == 1``) are folded, and only when the fold
    is exact: the chosen width is the largest divisor of the element
    count not exceeding ``limits.max_texture_size``, so no padding
    elements are ever introduced (padding would corrupt reductions).
    Layouts that fit the device, multi-row layouts, and counts with no
    useful divisor (primes) are returned unchanged - the tiler handles
    whatever still overflows.
    """
    rows, cols = layout
    if rows != 1 or cols <= limits.max_texture_size:
        return layout
    width = _largest_divisor_up_to(cols, limits.max_texture_size)
    if width <= 1:
        return layout
    return (cols // width, width)


def tile_grid(layout: Tuple[int, int], limits: TargetLimits) -> List[PieceRect]:
    """Partition a (folded) layout into device-sized tiles, row-major.

    Returns a single full-extent tile when the layout already fits the
    device.  Tiles never exceed ``max_texture_size`` in either dimension;
    the per-tile power-of-two / square-texture padding is left to the
    allocation path, exactly as for ordinary streams.
    """
    rows, cols = layout
    step = int(limits.max_texture_size)
    tiles: List[PieceRect] = []
    index = 0
    for row0 in range(0, rows, step):
        for col0 in range(0, cols, step):
            tiles.append(PieceRect(
                index=index,
                row0=row0,
                col0=col0,
                rows=min(step, rows - row0),
                cols=min(step, cols - col0),
            ))
            index += 1
    return tiles


def tiled_texture_bytes(layout: Tuple[int, int], limits: TargetLimits,
                        texels_per_element: int = 1) -> int:
    """Bytes actually allocated for ``layout`` under ``limits``.

    Sums the padded per-tile texture extents of the folded-and-tiled
    decomposition; for layouts that fit the device this equals the
    single padded texture of the ordinary allocation path.
    """
    folded = folded_layout(layout, limits)
    total = 0
    for tile in tile_grid(folded, limits):
        tex_w, tex_h = padded_texture_extent(tile.cols, tile.rows, limits)
        total += tex_w * tex_h * texels_per_element * 4
    return total
