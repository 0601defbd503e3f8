"""Stream shape handling and the multidimensional -> 2-D translation.

Brook supports streams with up to four dimensions, but the underlying
OpenGL ES 2.0 memory is always a 2-D texture (paper section 5.3).  The
runtime therefore keeps, for every stream:

* the *logical* shape the programmer declared,
* the *flattened* 2-D layout (rows x columns) it maps onto, and
* the *allocated* texture extent, which may be larger when the device
  requires power-of-two or square textures.

All three are static: Brook Auto streams are statically sized, so the
maximum GPU memory usage is known at compile/initialisation time.

The flattened layout here is purely *logical* - it is what ``indexof``
and host-side reshaping observe.  When the layout exceeds the device's
``max_texture_size``, the backends store the stream differently: a long
1-D stream is folded into multiple texture rows and anything still
oversized is split across per-tile textures (see
:mod:`repro.core.analysis.tiling` for the geometry and
:mod:`repro.runtime.tiling` for the execution engine); the kernels and
the host API never see that physical arrangement.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

import numpy as np

from ..core.analysis.memory_usage import padded_texture_extent
from ..core.analysis.resources import TargetLimits
from ..core.exec.evaluator import layout_positions
from ..errors import StreamError

__all__ = ["StreamShape", "MAX_STREAM_RANK"]

#: Brook supports 1-D to 4-D streams.
MAX_STREAM_RANK = 4


@dataclass(frozen=True)
class StreamShape:
    """The statically declared shape of a stream."""

    dims: Tuple[int, ...]

    def __post_init__(self) -> None:
        if not self.dims:
            raise StreamError("a stream needs at least one dimension")
        if len(self.dims) > MAX_STREAM_RANK:
            raise StreamError(
                f"streams support at most {MAX_STREAM_RANK} dimensions, "
                f"got {len(self.dims)}"
            )
        for extent in self.dims:
            if int(extent) <= 0:
                raise StreamError(f"invalid stream extent {extent}")

    # ------------------------------------------------------------------ #
    @classmethod
    def of(cls, shape) -> "StreamShape":
        """Build a shape from an int, a tuple/list, or another StreamShape."""
        if isinstance(shape, StreamShape):
            return shape
        if isinstance(shape, (int, np.integer)):
            return cls((int(shape),))
        return cls(tuple(int(extent) for extent in shape))

    @property
    def rank(self) -> int:
        return len(self.dims)

    @property
    def element_count(self) -> int:
        count = 1
        for extent in self.dims:
            count *= extent
        return count

    # ------------------------------------------------------------------ #
    # 2-D flattening
    # ------------------------------------------------------------------ #
    @property
    def rows(self) -> int:
        """Rows of the flattened 2-D layout (all leading dims collapsed).

        A 1-D stream always maps to a single logical row; devices whose
        texture width cannot hold that row store it *folded* into
        multiple rows (``repro.core.analysis.tiling.folded_layout``)
        without changing this logical layout.
        """
        if self.rank == 1:
            return 1
        rows = 1
        for extent in self.dims[:-1]:
            rows *= extent
        return rows

    @property
    def cols(self) -> int:
        """Columns of the flattened 2-D layout (the last, fastest dimension)."""
        return self.dims[-1]

    @property
    def layout_2d(self) -> Tuple[int, int]:
        return (self.rows, self.cols)

    def texture_extent(self, limits: TargetLimits) -> Tuple[int, int]:
        """Allocated (width, height) of the backing texture under ``limits``."""
        width, height = padded_texture_extent(self.cols, self.rows, limits)
        return width, height

    # ------------------------------------------------------------------ #
    # Index helpers
    # ------------------------------------------------------------------ #
    def element_positions(self) -> np.ndarray:
        """(x, y) position of every element in the 2-D layout, row-major.

        Returns an ``(element_count, 2)`` float32 array; ``x`` is the
        column (fastest axis), matching the convention of ``indexof``.
        """
        return layout_positions(*self.layout_2d)

    def flatten(self, data: np.ndarray, element_width: int = 1) -> np.ndarray:
        """Reshape logical-shape data to the 2-D layout (rows, cols[, width])."""
        data = np.asarray(data, dtype=np.float32)
        expected = self.dims if element_width == 1 else self.dims + (element_width,)
        if data.shape != tuple(expected):
            raise StreamError(
                f"data of shape {data.shape} does not match stream shape "
                f"{tuple(expected)}"
            )
        if element_width == 1:
            return data.reshape(self.rows, self.cols)
        return data.reshape(self.rows, self.cols, element_width)

    def unflatten(self, data: np.ndarray, element_width: int = 1) -> np.ndarray:
        """Reshape 2-D layout data back to the logical shape."""
        data = np.asarray(data, dtype=np.float32)
        target = self.dims if element_width == 1 else self.dims + (element_width,)
        return data.reshape(target)

    def __str__(self) -> str:  # pragma: no cover - trivial
        return "<" + ", ".join(str(d) for d in self.dims) + ">"
