"""Parallel binary search (Figure 3, scalable).

``size x size`` keys are searched in a sorted table of ``size x size``
elements.  Each GPU thread runs one search: a bounded loop of at most 24
probes (enough for any table that fits the texture limits), each probe a
gather into the table stream.  On the CPU every probe is a data-dependent
random access, so once the table outgrows the cache hierarchy the CPU
collapses; the paper reports the GPU overtaking the CPU only at the
largest explored size (2.16x at 2048^2) because the GPU's fixed costs
need that much parallel work to amortise.

The table holds strictly increasing integer-valued floats and the keys
are drawn from the table, so every search succeeds and the index output
can be validated exactly against the CPU reference.
"""

from __future__ import annotations

import math
from typing import Dict

import numpy as np

from ..runtime.runtime import BrookModule, BrookRuntime
from ..timing.cpu_model import CPUWorkload
from ..timing.gpu_model import GPUWorkload
from ..timing.platforms import Platform
from .base import BrookApplication, register_application

__all__ = ["BinarySearchApp"]

#: Maximum probes per search; 2^24 elements is far beyond any texture the
#: explored devices can hold, so the constant bound is always sufficient.
MAX_PROBES = 24

#: The probe loop is bounded by ``probes``, an adaptive per-launch count
#: derived from the declared table size: ``ceil(log2(count)) + 1`` capped
#: at ``MAX_PROBES``.  The interval range analysis bounds the loop at
#: the cap from the clamp alone, and at 23 trips for the largest table
#: ``range_specs`` below declares — one tighter than the fixed cap.  The
#: gather indices are clamped to the declared extents (rule BL-102) and
#: the equal/less/greater cases are restructured so no float ``==``
#: comparison remains (rule BL-104).
BROOK_SOURCE = """
kernel void binary_search(float key<>, float table[][], float width,
                          float height, float count, out float position<>) {
    float lo = 0.0;
    float hi = count - 1.0;
    float found = -1.0;
    float probes = min(ceil(log2(max(count, 2.0))) + 1.0, 24.0);
    for (int probe = 0; probe < probes; probe = probe + 1) {
        if (lo <= hi) {
            float mid = floor((lo + hi) * 0.5);
            float my = clamp(floor(mid / width), 0.0, height - 1.0);
            float mx = clamp(mid - my * width, 0.0, width - 1.0);
            float value = table[my][mx];
            if (value < key) {
                lo = mid + 1.0;
            } else {
                if (value > key) {
                    hi = mid - 1.0;
                } else {
                    found = mid;
                    lo = hi + 1.0;
                }
            }
        }
    }
    position = found;
}
"""


@register_application
class BinarySearchApp(BrookApplication):
    """One binary search per element over a sorted table."""

    name = "binary_search"
    description = "size^2 parallel binary searches in a sorted table"
    figure = "figure3"
    brook_source = BROOK_SOURCE
    range_specs = {
        "binary_search": {
            "gathers": {"table": ("height", "width")},
            "params": {
                "width": (1, 2048),
                "height": (1, 2048),
                "count": (1, 2048 * 2048),
            },
        }
    }
    default_sizes = (128, 256, 512, 1024, 2048)
    max_target_size = 2048
    validation_rtol = 0.0
    validation_atol = 1e-6

    # ------------------------------------------------------------------ #
    def generate_inputs(self, size: int, seed: int = 0) -> Dict[str, np.ndarray]:
        rng = np.random.default_rng(seed)
        count = size * size
        # Strictly increasing integer-valued floats (exact in float32 for
        # every size the texture limits allow).
        table = np.arange(count, dtype=np.float32) * 2.0 + 1.0
        keys = table[rng.integers(0, count, size=count)]
        return {
            "table": table.reshape(size, size),
            "keys": keys.reshape(size, size).astype(np.float32),
        }

    def cpu_reference(self, size: int, inputs: Dict[str, np.ndarray]
                      ) -> Dict[str, np.ndarray]:
        table = inputs["table"].reshape(-1)
        keys = inputs["keys"].reshape(-1)
        positions = np.searchsorted(table, keys).astype(np.float32)
        return {"position": positions.reshape(size, size)}

    def run_brook(self, runtime: BrookRuntime, module: BrookModule, size: int,
                  inputs: Dict[str, np.ndarray]) -> Dict[str, np.ndarray]:
        keys = runtime.stream_from(inputs["keys"], name="keys")
        table = runtime.stream_from(inputs["table"], name="table")
        positions = runtime.stream((size, size), name="positions")
        module.binary_search(keys, table, float(size), float(size),
                             float(size * size), positions)
        return {"position": positions.read()}

    # ------------------------------------------------------------------ #
    # Workload models
    # ------------------------------------------------------------------ #
    def gpu_workload(self, size: int, platform: Platform) -> GPUWorkload:
        searches = size * size
        probes = min(MAX_PROBES, int(math.ceil(math.log2(max(2, searches)))) + 1)
        return GPUWorkload(
            passes=1,
            elements=searches,
            flops=searches * probes * 10.0,
            texture_fetches=searches * (probes + 1.0),
            bytes_to_device=searches * 2 * 4.0,
            bytes_from_device=searches * 4.0,
            transfer_calls=3,
            # Divergent, gather-dominated control flow on an in-order
            # fragment pipeline.
            efficiency=0.08,
        )

    def cpu_workload(self, size: int, platform: Platform) -> CPUWorkload:
        searches = size * size
        probes = int(math.ceil(math.log2(max(2, searches)))) + 1
        table_bytes = searches * 4.0
        # The first probes of every search walk the (hot) top levels of the
        # implicit search tree; only the levels that no longer fit in the
        # last-level cache miss to memory.  This is what makes the CPU so
        # strong until the table outgrows the cache (paper section 6.2).
        cached_levels = math.log2(max(2.0, platform.cpu.l2_bytes / 4.0))
        uncached_probes = max(0.0, probes - cached_levels)
        return CPUWorkload(
            flops=searches * probes * 4.0,
            bytes_streamed=searches * 8.0,
            random_accesses=searches * uncached_probes,
            working_set_bytes=table_bytes,
            ilp_factor=1.5,
        )
