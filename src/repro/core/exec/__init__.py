"""Kernel execution engine.

Brook kernels are executed SIMT-style: every element of the output
domain is a "thread", all threads execute the same statement at the same
time over NumPy arrays, and divergent control flow is handled with
per-thread activity masks exactly like a GPU handles branch divergence.
The same engine powers the CPU backend (operating on raw stream data)
and the simulated GPU backends (operating on values fetched from
simulated textures, including the RGBA8 round-trip of the OpenGL ES 2
path).

There are two execution tiers, chosen in one place (:func:`evaluate`):

* the **vector program** (:mod:`repro.core.exec.vectorized`): every
  kernel brookvec approves (BV-300/BV-301) is compiled once into
  generated NumPy source over the same primitives - one ``launch``
  function on Python locals, whose control flow (if any) runs over
  lane-mask locals;
* the **masked interpreter** (:mod:`repro.core.exec.evaluator`): runs
  everything else and is the bitwise reference the vector program is
  tested against.
"""

from typing import Dict, Optional, Tuple

import numpy as np

from .evaluator import KernelEvaluator, KernelExecutionStats, layout_positions
from .gather import ClampingGatherSource, GatherSource, NumpyGatherSource
from .vectorized import VectorizedKernelProgram, is_straight_line

__all__ = [
    "evaluate",
    "KernelEvaluator",
    "KernelExecutionStats",
    "VectorizedKernelProgram",
    "is_straight_line",
    "layout_positions",
    "GatherSource",
    "NumpyGatherSource",
    "ClampingGatherSource",
]


def evaluate(
    kernel,
    helpers,
    element_count: int,
    stream_values: Dict[str, np.ndarray],
    gathers: Dict[str, GatherSource],
    scalar_args: Dict[str, float],
    index: Optional[np.ndarray] = None,
    layout: Optional[Tuple[int, int]] = None,
    reduce_inputs: Optional[Dict[str, np.ndarray]] = None,
) -> Tuple[Dict[str, np.ndarray], KernelExecutionStats]:
    """Run a compiled kernel's body once over ``element_count`` threads.

    ``kernel`` is a :class:`~repro.core.compiler.CompiledKernel`; it runs
    its vector program when it has one and the masked interpreter
    otherwise.  Both produce bit-identical outputs and statistics.
    ``index`` gives explicit ``indexof`` positions (tiled launches and
    fragment passes); without it, ``layout`` is the ``(rows, cols)`` of
    the domain, from which the positions are derived (lazily by the
    vector program, which also needs the layout for its padded-slice
    gathers).  ``reduce_inputs`` holds the accumulators of a reduction
    kernel's ``reduce`` parameters, returned updated with the outputs.
    """
    if kernel.vector_path is not None:
        return kernel.vector_path.run(
            element_count,
            stream_inputs=stream_values,
            scalar_args=scalar_args,
            gathers=gathers,
            index=index,
            layout=layout if index is None else None,
            reduce_inputs=reduce_inputs,
        )
    if index is None and layout is not None:
        index = layout_positions(*layout)
    evaluator = KernelEvaluator(kernel.definition, helpers)
    outputs = evaluator.run(
        element_count,
        stream_inputs=stream_values,
        scalar_args=scalar_args,
        gathers=gathers,
        index=index,
        reduce_inputs=reduce_inputs,
    )
    return outputs, evaluator.stats
