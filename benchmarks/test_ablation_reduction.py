"""Ablation: multipass reduction fold factor (2x2 per pass vs 4x4).

Brook implements reductions as multiple passes over two ping-pong
textures (section 5.5).  Folding a larger block per pass needs fewer
passes (less per-pass overhead) but more fetches per fragment; this
ablation quantifies the trade-off with the platform model and checks the
functional engine against NumPy.
"""

import math

import numpy as np
import pytest

from repro.core.compiler import compile_source
from repro.runtime.reduction import multipass_reduce
from repro.timing import TARGET_PLATFORM
from repro.timing.gpu_model import GPUWorkload

SUM_KERNEL = "reduce void total(float v<>, reduce float acc) { acc += v; }"


def _reduction_workload(elements: int, fold: int) -> GPUWorkload:
    """Modelled work of reducing ``elements`` values folding ``fold``x``fold``."""
    passes = max(1, math.ceil(math.log(max(2, elements), fold * fold)))
    # Each pass produces elements/fold^2 outputs, each sampling fold^2 texels.
    outputs = 0
    fetches = 0
    live = elements
    for _ in range(passes):
        live = max(1, math.ceil(live / (fold * fold)))
        outputs += live
        fetches += live * fold * fold
    return GPUWorkload(
        passes=passes,
        elements=outputs,
        flops=fetches * 2.0,
        texture_fetches=fetches,
        bytes_to_device=elements * 4.0,
        bytes_from_device=4.0,
        transfer_calls=2,
    )


def test_ablation_fold_factor_tradeoff(benchmark, publish):
    """Fewer, fatter passes win once the per-pass overhead dominates."""
    benchmark(_reduction_workload, 1 << 20, 2)
    lines = ["Ablation: reduction fold factor (modelled, target platform)"]
    for side in (256, 512, 1024, 2048):
        elements = side * side
        time_2x2 = TARGET_PLATFORM.gpu_time(_reduction_workload(elements, 2))
        time_4x4 = TARGET_PLATFORM.gpu_time(_reduction_workload(elements, 4))
        winner = "4x4" if time_4x4 < time_2x2 else "2x2"
        lines.append(f"  {side:>5}^2 elements: 2x2 {time_2x2 * 1e3:7.2f} ms   "
                     f"4x4 {time_4x4 * 1e3:7.2f} ms   -> {winner}")
        # The 4x4 fold needs roughly half the passes.
        assert _reduction_workload(elements, 4).passes < \
            _reduction_workload(elements, 2).passes
    publish("ablation_reduction", "\n".join(lines))


def test_ablation_functional_reduction(benchmark):
    """The functional multipass engine (2x2) reproduces the NumPy sum."""
    kernel = compile_source(SUM_KERNEL).kernel("total")
    data = np.random.default_rng(2).uniform(0, 1, (64, 64)).astype(np.float32)

    def reduce():
        return multipass_reduce(kernel, {}, data)

    result = benchmark(reduce)
    assert result.value == pytest.approx(float(data.sum()), rel=1e-4)
    assert result.passes == 6   # 64 -> 32 -> 16 -> 8 -> 4 -> 2 -> 1
