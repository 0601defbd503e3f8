"""Multipass stream reductions (paper section 5.5).

Brook reductions apply an associative combine operation (written as a
``reduce`` kernel) over a whole stream.  On the GPU backends this is
implemented as a sequence of passes over two intermediate buffer
textures: each pass folds a 2x2 block of the live data into one output
element, halving both dimensions, until a single element remains.  The
live data shrinks every pass while the allocated textures stay the same,
which is why the runtime must track the *actual* data size separately
from the texture size - the exact bookkeeping problem the paper solves
for the normalized-coordinate OpenGL ES 2 backend.

The engine below is backend-agnostic.  Every fold runs the compiled
reduce kernel through :func:`repro.core.exec.evaluate`, so a
brookvec-approved kernel folds whole arrays on the vector tier and any
other kernel runs the masked interpreter, exactly like a map kernel.
The caller injects a ``quantize`` hook that models what happens to
intermediate values when they are written to an RGBA8 texture between
passes (the OpenGL ES 2 backend supplies the encode/decode round trip;
the CAL and CPU backends store float32 and pass ``None``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Dict, Optional, Sequence, Tuple

import numpy as np

from ..core import ast_nodes as ast
from ..core.compiler import CompiledKernel
from ..core.exec import evaluate
from ..errors import KernelLaunchError
from .profiling import KernelLaunchRecord

__all__ = ["ReductionResult", "multipass_reduce", "partial_reduce",
           "combine_partials"]

#: Safety bound on the passes of one multipass reduction; 2x2 folds
#: reach one element of any addressable stream long before it.
MAX_PASSES = 64

Quantize = Optional[Callable[[np.ndarray], np.ndarray]]


@dataclass
class ReductionResult:
    """Outcome of a reduction: the reduced values and the work counters.

    ``values`` is 2-D: ``(1, 1)`` for a reduction to a scalar, the
    block results for a reduction to a smaller stream.
    """

    values: np.ndarray
    passes: int
    elements_processed: int
    flops: int
    texture_fetches: int
    #: Device-sized tiles the reduced data was stored in (1 untiled).
    tiles: int = 1

    @property
    def value(self) -> float:
        return float(self.values.reshape(-1)[0])

    def record(self, kernel: str) -> KernelLaunchRecord:
        """The launch record of this reduction."""
        return KernelLaunchRecord(
            kernel=kernel,
            elements=self.elements_processed,
            flops=self.flops,
            texture_fetches=self.texture_fetches,
            passes=self.passes,
            reduction=True,
            tiles=self.tiles,
        )


def _reduction_params(kernel: ast.FunctionDef) -> Tuple[str, str]:
    stream_params = kernel.stream_params
    reduce_params = kernel.reduce_params
    if len(stream_params) != 1 or len(reduce_params) != 1:
        raise KernelLaunchError(
            f"reduce kernel {kernel.name!r} must have exactly one input stream "
            "and one reduce accumulator"
        )
    return stream_params[0].name, reduce_params[0].name


def _fold(kernel: CompiledKernel, helpers, names: Tuple[str, str],
          accumulator: np.ndarray, neighbour: np.ndarray
          ) -> Tuple[np.ndarray, int]:
    """One fold: the kernel combines ``neighbour`` into ``accumulator``
    lane by lane.  Returns the new (fresh) accumulator and the flops."""
    stream_name, accumulator_name = names
    outputs, stats = evaluate(
        kernel, helpers, accumulator.size,
        {stream_name: neighbour.reshape(-1)}, {}, {},
        reduce_inputs={accumulator_name: accumulator.reshape(-1)},
    )
    combined = np.asarray(outputs[accumulator_name], dtype=np.float32)
    return combined.reshape(accumulator.shape), stats.flops


def multipass_reduce(
    kernel: CompiledKernel,
    helpers: Optional[Dict[str, ast.FunctionDef]],
    data: np.ndarray,
    quantize: Quantize = None,
) -> ReductionResult:
    """Reduce a 2-D float array to a scalar with the user's reduce kernel.

    Args:
        kernel: The compiled ``reduce`` kernel.
        helpers: Helper functions callable from the kernel.
        data: Live data as a 2-D float array (the logical stream contents).
        quantize: Optional per-pass storage model applied to intermediate
            results (RGBA8 round trip on the OpenGL ES 2 backend).

    Returns:
        :class:`ReductionResult` with the reduced value and work counters.
    """
    names = _reduction_params(kernel.definition)
    live = np.asarray(data, dtype=np.float32)
    if live.ndim == 1:
        live = live.reshape(1, -1)
    if live.ndim != 2:
        raise KernelLaunchError("reductions operate on 1-D or 2-D streams")

    passes = 0
    elements_processed = 0
    flops = 0
    fetches = 0
    while live.size > 1:
        if passes >= MAX_PASSES:
            raise KernelLaunchError("reduction did not converge (too many passes)")
        height, width = live.shape
        # Padding an odd extent with its edge row/column reproduces the
        # texture unit's clamp-to-edge sampling of the 2x2 block; the
        # quadrants are then strided slices.
        padded = np.pad(live, ((0, height % 2), (0, width % 2)), mode="edge")
        accumulator = padded[0::2, 0::2]
        for dy, dx in ((0, 1), (1, 0), (1, 1)):
            if (dy and height == 1) or (dx and width == 1):
                continue  # the whole quadrant lies outside the data
            combined, cost = _fold(kernel, helpers, names, accumulator,
                                   padded[dy::2, dx::2])
            # Lanes whose neighbour is the clamped edge keep their value.
            if dy and height % 2:
                combined[-1, :] = accumulator[-1, :]
            if dx and width % 2:
                combined[:, -1] = accumulator[:, -1]
            accumulator = combined
            flops += cost
        # One GPU pass samples the 2x2 block in a single shader invocation.
        fetches += 4 * accumulator.size
        elements_processed += height * width
        passes += 1
        if quantize is not None:
            accumulator = np.asarray(quantize(accumulator), dtype=np.float32)
        live = accumulator

    return ReductionResult(
        values=live,
        passes=passes,
        elements_processed=elements_processed,
        flops=flops,
        texture_fetches=fetches,
    )


def partial_reduce(
    kernel: CompiledKernel,
    helpers: Optional[Dict[str, ast.FunctionDef]],
    data: np.ndarray,
    output_shape: "tuple[int, int]",
    quantize: Quantize = None,
) -> ReductionResult:
    """Reduce a 2-D array to a smaller 2-D array of block reductions.

    Brook allows the reduction target to be a stream whose extents evenly
    divide the input extents: every output element then receives the
    reduction of its block of input elements ("the size of the input is
    constantly reduced until the output contains the desired number of
    elements", section 5.5).

    Args:
        kernel: The compiled ``reduce`` kernel.
        helpers: Helper functions callable from the kernel.
        data: Input as a 2-D float array.
        output_shape: Target (rows, cols); both must divide the input.
        quantize: Optional per-pass storage model (RGBA8 round trip on the
            OpenGL ES 2 backend).
    """
    names = _reduction_params(kernel.definition)
    live = np.asarray(data, dtype=np.float32)
    if live.ndim == 1:
        live = live.reshape(1, -1)
    in_rows, in_cols = live.shape
    out_rows, out_cols = int(output_shape[0]), int(output_shape[1])
    if out_rows <= 0 or out_cols <= 0 or in_rows % out_rows or in_cols % out_cols:
        raise KernelLaunchError(
            f"reduction output shape {(out_rows, out_cols)} must evenly divide "
            f"the input shape {(in_rows, in_cols)}"
        )
    ratio_rows = in_rows // out_rows
    ratio_cols = in_cols // out_cols
    blocks = live.reshape(out_rows, ratio_rows, out_cols, ratio_cols)

    # A copy: with a 1x1 block nothing folds, and the result must not
    # alias the input storage.
    accumulator = blocks[:, 0, :, 0].astype(np.float32)
    flops = 0
    for row_offset in range(ratio_rows):
        for col_offset in range(ratio_cols):
            if row_offset == 0 and col_offset == 0:
                continue
            accumulator, cost = _fold(kernel, helpers, names, accumulator,
                                      blocks[:, row_offset, :, col_offset])
            flops += cost
    if quantize is not None:
        accumulator = np.asarray(quantize(accumulator), dtype=np.float32)

    # On the GPU each pass folds a 2x2 block, so the modelled pass count is
    # the number of halvings needed per dimension.
    passes = max(1, int(math.ceil(math.log2(max(ratio_rows, 1))))
                 + int(math.ceil(math.log2(max(ratio_cols, 1)))))
    return ReductionResult(
        values=accumulator,
        passes=passes,
        elements_processed=in_rows * in_cols,
        flops=flops,
        texture_fetches=ratio_rows * ratio_cols * accumulator.size,
    )


def combine_partials(
    kernel: CompiledKernel,
    helpers: Optional[Dict[str, ast.FunctionDef]],
    partials: Sequence[ReductionResult],
    quantize: Quantize = None,
) -> ReductionResult:
    """Fold per-tile or per-device partial reductions into one result.

    A reduction pass samples one texture, so partials from separate
    tiles or devices fold with the *same* kernel in one more multipass
    reduction over the row of partial values (associativity is what
    Brook requires of reduction operators anyway).  The counters of
    every stage add up; ``tiles`` sums the partials' tiles.
    """
    stages = list(partials)
    if len(stages) > 1:
        row = np.array([[partial.value for partial in partials]],
                       dtype=np.float32)
        stages.append(multipass_reduce(kernel, helpers, row, quantize))
    return ReductionResult(
        values=stages[-1].values,
        passes=sum(stage.passes for stage in stages),
        elements_processed=sum(stage.elements_processed for stage in stages),
        flops=sum(stage.flops for stage in stages),
        texture_fetches=sum(stage.texture_fetches for stage in stages),
        tiles=sum(partial.tiles for partial in partials),
    )
