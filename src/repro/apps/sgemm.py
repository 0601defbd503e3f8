"""Single-precision dense matrix-matrix multiplication (Figures 3 and 4).

``C = A x B`` for ``size x size`` float matrices.  Each thread computes
one element of C with a bounded loop over the inner dimension, gathering
a row of A and a column of B through the texture unit.  The kernel is
fetch-bound: two texture fetches per multiply-add, which is what limits
the scalar Brook Auto version, while the vectorized Brook+ x86 version
scales better for matrices above 256x256 (as the paper notes).  The
paper reports speedups of up to 11x over the CPU reference.

``sgemm`` is also the application used for the hand-written OpenGL ES 2
comparison of Figure 4 (see :mod:`repro.apps.handwritten_sgemm`) and for
the productivity comparison of section 6.3.
"""

from __future__ import annotations

from typing import Dict

import numpy as np

from ..runtime.runtime import BrookModule, BrookRuntime
from ..timing.cpu_model import CPUWorkload
from ..timing.gpu_model import GPUWorkload
from ..timing.platforms import Platform
from .base import BrookApplication, register_application

__all__ = ["SgemmApp", "BROOK_SOURCE"]

#: Largest inner dimension the bounded loop must cover (the texture limit
#: of the embedded targets).
MAX_INNER_DIMENSION = 2048

BROOK_SOURCE = """
kernel void sgemm(float a[][], float b[][], float inner, out float c<>) {
    float2 idx = indexof(c);
    float row = idx.y;
    float col = idx.x;
    float acc = 0.0;
    for (int k = 0; k < inner; k = k + 1) {
        acc = acc + a[row][k] * b[k][col];
    }
    c = acc;
}
"""


@register_application
class SgemmApp(BrookApplication):
    """Dense single-precision matrix multiply (one output element per thread)."""

    name = "sgemm"
    description = "Dense matrix-matrix multiply C = A x B"
    figure = "figure3"
    brook_source = BROOK_SOURCE
    #: The inner-product loop is bounded by the matrix dimension, which is
    #: itself bounded by the texture limit of the target (rule BA-005).
    range_specs = {
        "sgemm": {
            "domain": ("m", "n"),
            "gathers": {"a": ("m", "inner"), "b": ("inner", "n")},
            "params": {"inner": (1, MAX_INNER_DIMENSION)},
        }
    }
    default_sizes = (128, 256, 512, 1024, 2048)
    max_target_size = 2048
    validation_rtol = 2e-3

    # ------------------------------------------------------------------ #
    def generate_inputs(self, size: int, seed: int = 0) -> Dict[str, np.ndarray]:
        rng = np.random.default_rng(seed)
        return {
            "a": rng.uniform(-1.0, 1.0, size=(size, size)).astype(np.float32),
            "b": rng.uniform(-1.0, 1.0, size=(size, size)).astype(np.float32),
        }

    def cpu_reference(self, size: int, inputs: Dict[str, np.ndarray]
                      ) -> Dict[str, np.ndarray]:
        a = inputs["a"].astype(np.float64)
        b = inputs["b"].astype(np.float64)
        return {"c": (a @ b).astype(np.float32)}

    def run_brook(self, runtime: BrookRuntime, module: BrookModule, size: int,
                  inputs: Dict[str, np.ndarray]) -> Dict[str, np.ndarray]:
        a = runtime.stream_from(inputs["a"], name="a")
        b = runtime.stream_from(inputs["b"], name="b")
        c = runtime.stream((size, size), name="c")
        module.sgemm(a, b, float(size), c)
        return {"c": c.read()}

    # ------------------------------------------------------------------ #
    # Workload models
    # ------------------------------------------------------------------ #
    def gpu_workload(self, size: int, platform: Platform) -> GPUWorkload:
        elements = size * size
        inner = size
        if platform.backend_name == "gles2":
            # Scalar generated code, 16x16 blocking of the dispatch: the A
            # row is served by the texture cache, the B column mostly is not.
            fetch_factor, efficiency = 0.6, 0.55
        else:
            # Vectorized Brook+ kernel (float4 fetches): a quarter of the
            # fetches and better ALU utilisation.
            fetch_factor, efficiency = 0.15, 0.7
        return GPUWorkload(
            passes=1,
            elements=elements,
            flops=elements * inner * 2.0,
            texture_fetches=elements * inner * fetch_factor,
            bytes_to_device=2 * elements * 4.0,
            bytes_from_device=elements * 4.0,
            transfer_calls=3,
            efficiency=efficiency,
        )

    def cpu_workload(self, size: int, platform: Platform) -> CPUWorkload:
        elements = size * size
        inner = size
        matrix_bytes = elements * 4.0
        # Naive triple loop: the B column walk misses the cache once the
        # matrices outgrow it, which is what lets the GPU reach ~11x.  The
        # reference x86 part has a much larger L2 and aggressive hardware
        # prefetchers, so a smaller fraction of those accesses stalls.
        miss_factor = 0.12 if platform.cpu.l2_bytes < (1 << 20) else 0.05
        return CPUWorkload(
            flops=elements * inner * 2.0,
            bytes_streamed=elements * inner * 4.0,
            random_accesses=elements * inner * miss_factor,
            working_set_bytes=2 * matrix_bytes,
            ilp_factor=1.5,
        )
