"""Gather-array access abstractions for kernel execution.

A gather parameter (``float a[]`` / ``float a[][]``) is a random-access
read-only array.  How an access behaves depends on the backend:

* the CPU backend indexes host memory directly and treats an
  out-of-bounds index as a hard error (this is the behaviour that makes
  CUDA/OpenCL kernels crash drivers, section 2 of the paper);
* the GPU backends go through the texture unit, where the OpenGL ES 2
  sampler clamps the coordinate to the edge of the texture, so an
  out-of-bounds access can never raise an exception or crash the system
  (section 4 of the paper - the availability argument of Brook Auto).

The evaluator only sees the small :class:`GatherSource` interface; each
backend supplies the implementation with the semantics it models.
"""

from __future__ import annotations

from typing import Callable, Optional, Tuple

import numpy as np

from ...errors import GatherBoundsError

__all__ = ["GatherSource", "NumpyGatherSource", "ClampingGatherSource"]


class GatherSource:
    """Random-access view of a gather array used during kernel execution."""

    #: Logical (rows, cols) extent of the array; cols is the fastest axis.
    shape: Tuple[int, int]

    def fetch(self, rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
        """Fetch elements at integer (row, col) positions.

        Both index arrays have the same shape; the result has that shape
        (plus a trailing component axis for vector element types).
        """
        raise NotImplementedError

    def dense(self) -> Optional[np.ndarray]:
        """Full 2-d array exactly as in-bounds integer fetches see it.

        The vectorized execution path uses this to serve gathers whose
        indices are proved in-bounds with padded array slices instead of
        per-element fancy indexing.  Sources whose fetch semantics cannot
        be reproduced that way (value transforms, remote tiles) return
        ``None`` and keep the generic ``fetch`` path.
        """
        return None

    def add_fetches(self, count: int) -> None:
        """Account ``count`` element fetches served outside :meth:`fetch`.

        Keeps the statistics truthful when the vectorized path reads the
        array through :meth:`dense` slices rather than ``fetch``.
        """
        raise NotImplementedError

    @property
    def fetch_count(self) -> int:
        """Number of element fetches performed so far (for statistics)."""
        raise NotImplementedError


class _HostArraySource(GatherSource):
    """A gather over a host array: the data, its fetch count, and the read
    of in-bounds integer indices both flavours below share.  The data is
    float32, as every backend stores it, so a gather reads float32."""

    def __init__(self, data: np.ndarray):
        array = np.asarray(data, dtype=np.float32)
        if array.ndim == 1:
            array = array.reshape(1, -1)
        self._data = array
        self.shape = (array.shape[0], array.shape[1])
        self._flat: Optional[np.ndarray] = None
        self._fetches = 0

    def _take(self, rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
        """Count and read ``data[rows, cols]`` for in-bounds int64 indices,
        as one take from the row-major flattening (built on first use; a
        copy only when the data is not contiguous)."""
        self._fetches += int(rows.size)
        if self._flat is None:
            self._flat = self._data.reshape((-1,) + self._data.shape[2:])
        return self._flat.take(rows * self._data.shape[1] + cols, axis=0)

    def add_fetches(self, count: int) -> None:
        self._fetches += int(count)

    @property
    def fetch_count(self) -> int:
        return self._fetches


class NumpyGatherSource(_HostArraySource):
    """Direct host-memory gather used by the CPU backend.

    Out-of-bounds indices raise :class:`~repro.errors.GatherBoundsError`
    (a :class:`~repro.errors.StreamError` and
    :class:`~repro.errors.KernelLaunchError`), which models the
    unprotected behaviour of CPU (and CUDA/OpenCL) code.
    """

    def fetch(self, rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
        height, width = self.shape
        # Checked on the float indices, where NaN fails every comparison;
        # in bounds they are non-negative, so truncation is the floor.
        if rows.size and not (rows.min() >= 0 and rows.max() < height
                              and cols.min() >= 0 and cols.max() < width):
            rows = np.asarray(np.floor(rows), dtype=np.int64)
            cols = np.asarray(np.floor(cols), dtype=np.int64)
            raise GatherBoundsError(
                "gather access out of bounds on the CPU backend: "
                f"rows in [{rows.min()}, {rows.max()}], cols in "
                f"[{cols.min()}, {cols.max()}] for array of shape {self.shape}"
            )
        return self._take(rows.astype(np.int64), cols.astype(np.int64))

    def dense(self) -> Optional[np.ndarray]:
        return self._data


class ClampingGatherSource(_HostArraySource):
    """Texture-unit style gather: coordinates are clamped to the edge.

    ``transform`` optionally post-processes fetched values (the GL ES 2
    backend uses it to model the RGBA8 encode/decode round-trip).
    """

    def __init__(self, data: np.ndarray,
                 transform: Optional[Callable[[np.ndarray], np.ndarray]] = None):
        super().__init__(data)
        self._transform = transform

    def fetch(self, rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
        height, width = self.shape
        rows = np.clip(np.asarray(np.floor(rows), dtype=np.int64), 0, height - 1)
        cols = np.clip(np.asarray(np.floor(cols), dtype=np.int64), 0, width - 1)
        values = self._take(rows, cols)
        if self._transform is not None:
            values = self._transform(values)
        return values

    def dense(self) -> Optional[np.ndarray]:
        # A value transform must run per fetch; the slice path cannot
        # model it, so transformed sources keep the generic path.
        return self._data if self._transform is None else None
