"""Flops: the synthetic ALU-throughput benchmark (Figure 1).

The paper uses the Brook+ ``flops`` sample to establish the relative
GPU/CPU capability of both platforms: "2 billion floating point
operations over 1 MB of data" yields a 26.7x GPU advantage on the target
system and 23x on the reference x86 system.  The kernel is a straight
chain of multiply-add operations over each element, so it measures pure
ALU throughput with a single pass and minimal transfers; it is also the
kernel used to calibrate the platform models (its modelled efficiency is
1.0 by definition).
"""

from __future__ import annotations

from typing import Dict

import numpy as np

from ..runtime.runtime import BrookModule, BrookRuntime
from ..timing.cpu_model import CPUWorkload
from ..timing.gpu_model import GPUWorkload
from ..timing.platforms import Platform
from .base import BrookApplication, register_application

__all__ = ["FlopsApp"]

#: Loop iterations of the MAD chain; with 16 multiply-adds (32 flops) per
#: iteration this gives ~7 600 flops per element, i.e. ~2 GFLOP over the
#: 1 MB (512 x 512 floats) data set of Figure 1.
MAD_ITERATIONS = 238
MADS_PER_ITERATION = 16

BROOK_SOURCE = """
kernel void flops_kernel(float a<>, float niters, out float r<>) {
    float x = a;
    float y = 0.99993;
    float c = 0.00017;
    for (int i = 0; i < niters; i = i + 1) {
        x = x * y + c;  x = x * y + c;  x = x * y + c;  x = x * y + c;
        x = x * y + c;  x = x * y + c;  x = x * y + c;  x = x * y + c;
        x = x * y + c;  x = x * y + c;  x = x * y + c;  x = x * y + c;
        x = x * y + c;  x = x * y + c;  x = x * y + c;  x = x * y + c;
    }
    r = x;
}
"""


@register_application
class FlopsApp(BrookApplication):
    """Synthetic MAD-throughput kernel used for platform calibration."""

    name = "flops"
    description = "2 GFLOP multiply-add chain over 1 MB of data (Figure 1)"
    figure = "figure1"
    brook_source = BROOK_SOURCE
    #: The loop bound is data dependent (``niters``), so Brook Auto needs a
    #: declared maximum to certify rule BA-005.
    range_specs = {"flops_kernel": {"params": {"niters": (0, 256)}}}
    default_sizes = (128, 256, 512)
    max_target_size = 2048
    validation_rtol = 5e-3

    def __init__(self, iterations: int = MAD_ITERATIONS):
        self.iterations = int(iterations)

    # ------------------------------------------------------------------ #
    def generate_inputs(self, size: int, seed: int = 0) -> Dict[str, np.ndarray]:
        rng = np.random.default_rng(seed)
        return {"a": rng.uniform(0.5, 1.5, size=(size, size)).astype(np.float32)}

    def cpu_reference(self, size: int, inputs: Dict[str, np.ndarray]
                      ) -> Dict[str, np.ndarray]:
        x = inputs["a"].astype(np.float32).copy()
        y = np.float32(0.99993)
        c = np.float32(0.00017)
        for _ in range(self.iterations * MADS_PER_ITERATION):
            x = x * y + c
        return {"r": x}

    def run_brook(self, runtime: BrookRuntime, module: BrookModule, size: int,
                  inputs: Dict[str, np.ndarray]) -> Dict[str, np.ndarray]:
        a = runtime.stream_from(inputs["a"], name="a")
        r = runtime.stream((size, size), name="r")
        module.flops_kernel(a, float(self.iterations), r)
        return {"r": r.read()}

    # ------------------------------------------------------------------ #
    # Workload models
    # ------------------------------------------------------------------ #
    def flops_per_element(self) -> float:
        # 16 MADs (2 flops each) plus ~3 loop-bookkeeping operations/iteration.
        return self.iterations * (MADS_PER_ITERATION * 2 + 3)

    def gpu_workload(self, size: int, platform: Platform) -> GPUWorkload:
        elements = size * size
        return GPUWorkload(
            passes=1,
            elements=elements,
            flops=elements * self.flops_per_element(),
            texture_fetches=elements,
            bytes_to_device=elements * 4,
            bytes_from_device=elements * 4,
            efficiency=1.0,  # calibration kernel: straight-line MAD code
        )

    def cpu_workload(self, size: int, platform: Platform) -> CPUWorkload:
        elements = size * size
        return CPUWorkload(
            flops=elements * self.flops_per_element(),
            bytes_streamed=elements * 8,
            random_accesses=0,
            working_set_bytes=elements * 8,
        )
