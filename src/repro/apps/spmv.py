"""Sparse matrix-vector multiplication (Figure 2, non-scalable).

The matrix has ``size`` rows and is stored in a padded ELLPACK-style
compressed format with a fixed number of non-zeros per row, which maps
naturally onto Brook streams: a ``size x nnz`` stream of values, a
``size x nnz`` stream of column indices, and the dense vector.  The Brook
implementation is a series of three small, low arithmetic intensity
kernels - gather the vector entries, multiply with the stored values and
accumulate each row - mirroring the structure the paper describes ("a
series of 3 small, low arithmetic intensity kernels (O(n))").  At these
sizes the data transfers and per-pass overheads dominate, so the CPU
stays ahead on both platforms, with a visibly improving trend; the
OpenGL ES 2 target is capped at 1024 because the decompressed matrix
would exceed the 2048 texture limit (paper section 6.1).
"""

from __future__ import annotations

from typing import Dict

import numpy as np

from ..runtime.runtime import BrookModule, BrookRuntime
from ..timing.cpu_model import CPUWorkload
from ..timing.gpu_model import GPUWorkload
from ..timing.platforms import Platform
from .base import BrookApplication, register_application

__all__ = ["SpMVApp"]

#: Non-zeros per matrix row in the compressed (padded ELL) format.
NNZ_PER_ROW = 8

BROOK_SOURCE = """
kernel void spmv_gather(float columns<>, float vector[], float count,
                        out float gathered<>) {
    /* Column indices are data (stream contents), so no static analysis
       can bound them; the explicit clamp pins the gather inside the
       declared vector extent on every backend (rule BL-102). */
    gathered = vector[clamp(columns, 0.0, count - 1.0)];
}

kernel void spmv_multiply(float values<>, float gathered<>, out float product<>) {
    product = values * gathered;
}

kernel void spmv_accumulate(float products[][], float nnz, out float row_sum<>) {
    float2 idx = indexof(row_sum);
    float row = idx.x;
    float total = 0.0;
    for (int j = 0; j < nnz; j = j + 1) {
        total = total + products[row][j];
    }
    row_sum = total;
}
"""


@register_application
class SpMVApp(BrookApplication):
    """Sparse matrix-vector multiply in padded ELL format (3 small kernels)."""

    name = "spmv"
    description = "Sparse matrix-vector multiply (gather / multiply / accumulate)"
    figure = "figure2"
    brook_source = BROOK_SOURCE
    range_specs = {
        "spmv_gather": {
            "gathers": {"vector": ("count",)},
            "params": {"count": (1, 2048)},
        },
        "spmv_accumulate": {
            "domain": ("n",),
            "gathers": {"products": ("n", "nnz")},
            "params": {"nnz": (1, NNZ_PER_ROW)},
        },
    }
    default_sizes = (128, 256, 512, 1024, 2048)
    #: The decompressed matrix reaches the 2048 texture limit beyond 1024
    #: on the OpenGL ES 2 target (paper section 6.1).
    max_target_size = 1024
    max_reference_size = 2048
    validation_rtol = 1e-3

    # ------------------------------------------------------------------ #
    def generate_inputs(self, size: int, seed: int = 0) -> Dict[str, np.ndarray]:
        rng = np.random.default_rng(seed)
        values = rng.uniform(-1.0, 1.0, size=(size, NNZ_PER_ROW)).astype(np.float32)
        columns = rng.integers(0, size, size=(size, NNZ_PER_ROW)).astype(np.float32)
        vector = rng.uniform(-1.0, 1.0, size=size).astype(np.float32)
        return {"values": values, "columns": columns, "vector": vector}

    def cpu_reference(self, size: int, inputs: Dict[str, np.ndarray]
                      ) -> Dict[str, np.ndarray]:
        values = inputs["values"].astype(np.float32)
        columns = inputs["columns"].astype(np.int64)
        vector = inputs["vector"].astype(np.float32)
        gathered = vector[columns]
        row_sums = np.sum(values * gathered, axis=1, dtype=np.float32)
        return {"row_sum": row_sums.astype(np.float32)}

    def run_brook(self, runtime: BrookRuntime, module: BrookModule, size: int,
                  inputs: Dict[str, np.ndarray]) -> Dict[str, np.ndarray]:
        values = runtime.stream_from(inputs["values"], name="spmv_values")
        columns = runtime.stream_from(inputs["columns"], name="spmv_columns")
        vector = runtime.stream_from(inputs["vector"], name="spmv_vector")
        gathered = runtime.stream((size, NNZ_PER_ROW), name="spmv_gathered")
        products = runtime.stream((size, NNZ_PER_ROW), name="spmv_products")
        row_sums = runtime.stream((size,), name="spmv_row_sums")
        module.spmv_gather(columns, vector, float(size), gathered)
        module.spmv_multiply(values, gathered, products)
        module.spmv_accumulate(products, float(NNZ_PER_ROW), row_sums)
        return {"row_sum": row_sums.read()}

    # ------------------------------------------------------------------ #
    # Workload models
    # ------------------------------------------------------------------ #
    def gpu_workload(self, size: int, platform: Platform) -> GPUWorkload:
        rows = size
        nnz = rows * NNZ_PER_ROW
        elements = 2 * nnz + rows
        return GPUWorkload(
            passes=3,
            elements=elements,
            flops=nnz * 1.0 + nnz * 1.0 + rows * 3.0 * NNZ_PER_ROW,
            texture_fetches=nnz * 2.0 + nnz * 2.0 + rows * NNZ_PER_ROW,
            bytes_to_device=(2 * nnz + rows) * 4.0,
            bytes_from_device=rows * 4.0,
            efficiency=0.4,
        )

    def cpu_workload(self, size: int, platform: Platform) -> CPUWorkload:
        rows = size
        nnz = rows * NNZ_PER_ROW
        return CPUWorkload(
            flops=nnz * 2.0,
            bytes_streamed=nnz * 8.0 + rows * 4.0,
            random_accesses=nnz * 0.25,      # vector gathers partially cached
            working_set_bytes=rows * 4.0,
        )
