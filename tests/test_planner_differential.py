"""Differential planner-soundness suite.

Whatever configuration the auto-planner picks, executing it must be
*bit-identical* to running the same pipeline serially, unfused, on a
single CPU device - the same correctness bar fusion, tiling and
sharding each held individually.  This suite sweeps seeded randomized
pipelines drawn from the apps suite (the ADAS image-filter stages,
the prefix-sum ping-pong scan, SpMV) across the CPU and simulated
OpenGL ES 2 backends, including fused+sharded+tiled compositions on
multi-device groups of tiny-texture GPUs, and compares the planned
execution's outputs word-for-word against the serial CPU baseline.
"""

import numpy as np
import pytest

from repro.backends.sharded import ShardedBackend
from repro.core.analysis.planner import build_launchables
from repro.gles2.device import GPUDeviceProfile
from repro.gles2.limits import GLES2Limits
from repro.runtime import BrookRuntime
from repro.service.bench import ADAS_SERVICE_SOURCE, STAGES

PREFIX_SUM_SOURCE = """
kernel void scan_step(float current<>, float previous[][], float offset,
                      float width, out float result<>) {
    float2 idx = indexof(current);
    float linear = idx.y * width + idx.x;
    float source = max(linear - offset, 0.0);
    float sy = floor(source / width);
    float sx = source - sy * width;
    float partial = previous[sy][sx];
    if (linear - offset >= 0.0) {
        result = current + partial;
    } else {
        result = current;
    }
}
"""

SPMV_SOURCE = """
kernel void spmv_gather(float columns<>, float vector[], out float gathered<>) {
    gathered = vector[columns];
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

SPMV_NNZ = 8


def tiny_gles2_backend(max_texture_size=64):
    profile = GPUDeviceProfile(
        name=f"tiny-{max_texture_size}",
        limits=GLES2Limits(name=f"tiny-{max_texture_size}",
                           max_texture_size=max_texture_size),
        effective_gflops=1.0,
        transfer_gib_per_s=1.0,
        pass_overhead_us=100.0,
        texture_fetch_ns=2.0,
        fill_rate_mpixels=100.0,
    )
    from repro.backends.gles2_backend import GLES2Backend
    return GLES2Backend(profile)


def assert_bitwise(mine, reference):
    np.testing.assert_array_equal(
        np.asarray(mine, dtype=np.float32).view(np.uint32),
        np.asarray(reference, dtype=np.float32).view(np.uint32))


# --------------------------------------------------------------------------- #
# Pipeline builders: (runtime, size, seed) -> (plans, {name: out_stream})
# --------------------------------------------------------------------------- #
def build_adas_chain(rt, size, seed):
    """The 3x3 filter plus a seeded random sub-chain of the post stages."""
    rng = np.random.default_rng(seed)
    module = rt.compile(ADAS_SERVICE_SOURCE)
    frame = rng.uniform(0.0, 255.0, (size, size)).astype(np.float32)
    image = rt.stream_from(frame, name="image")
    fsize = float(size)
    weights = [float(w) for w in
               rng.uniform(-0.2, 0.4, 9).astype(np.float32)]
    stage_count = int(rng.integers(2, len(STAGES) - 1))
    current = image
    plans = []
    stage_args = {
        "normalize_px": lambda: (float(np.float32(rng.uniform(0.001, 0.01))),),
        "tone_map": lambda: (float(np.float32(rng.uniform(0.5, 3.0))),),
        "contrast": lambda: (float(np.float32(rng.uniform(0.0, 1.0))),),
        "vignette": lambda: (fsize, fsize,
                             float(np.float32(rng.uniform(0.1, 1.0)))),
        "gamma_px": lambda: (float(np.float32(rng.uniform(1.0, 2.4))),),
        "highlight": lambda: (float(np.float32(rng.uniform(0.2, 0.8))),
                              float(np.float32(rng.uniform(0.1, 0.9)))),
        "quantize_px": lambda: (float(np.float32(rng.uniform(16.0, 255.0))),),
    }
    filtered = rt.stream((size, size), name="s0")
    plans.append(module.kernel("filter3x3").bind(
        image, fsize, fsize, *weights, filtered))
    current = filtered
    for index, stage in enumerate(STAGES[1:1 + stage_count]):
        nxt = rt.stream((size, size), name=f"s{index + 1}")
        plans.append(module.kernel(stage).bind(
            current, *stage_args[stage](), nxt))
        current = nxt
    return plans, {"out": current}


def build_prefix_sum(rt, size, seed):
    """Hillis-Steele ping-pong scan: every step gathers its own input."""
    rng = np.random.default_rng(seed)
    module = rt.compile(PREFIX_SUM_SOURCE)
    values = rng.integers(0, 8, (size, size)).astype(np.float32)
    current = rt.stream_from(values, name="scan_a")
    scratch = rt.stream((size, size), name="scan_b")
    total = size * size
    passes = max(1, int(np.ceil(np.log2(total))))
    plans = []
    offset = 1
    for _ in range(passes):
        plans.append(module.kernel("scan_step").bind(
            current, current, float(offset), float(size), scratch))
        current, scratch = scratch, current
        offset *= 2
    return plans, {"scan": current}


def build_spmv(rt, size, seed):
    """Gather -> multiply (fusable) -> bounded-loop accumulate."""
    rng = np.random.default_rng(seed)
    module = rt.compile(
        SPMV_SOURCE,
        range_specs={"spmv_accumulate": {"params": {"nnz": (1, SPMV_NNZ)}}})
    values = rng.integers(-4, 4, (size, SPMV_NNZ)).astype(np.float32)
    columns = rng.integers(0, size, (size, SPMV_NNZ)).astype(np.float32)
    vector = rng.integers(-4, 4, size).astype(np.float32)
    values_s = rt.stream_from(values, name="spmv_values")
    columns_s = rt.stream_from(columns, name="spmv_columns")
    vector_s = rt.stream_from(vector, name="spmv_vector")
    gathered = rt.stream((size, SPMV_NNZ), name="spmv_gathered")
    products = rt.stream((size, SPMV_NNZ), name="spmv_products")
    row_sums = rt.stream((size,), name="spmv_row_sums")
    plans = [
        module.kernel("spmv_gather").bind(columns_s, vector_s, gathered),
        module.kernel("spmv_multiply").bind(values_s, gathered, products),
        module.kernel("spmv_accumulate").bind(
            products, float(SPMV_NNZ), row_sums),
    ]
    return plans, {"row_sum": row_sums}


PIPELINES = {
    "adas": build_adas_chain,
    "prefix_sum": build_prefix_sum,
    "spmv": build_spmv,
}


# --------------------------------------------------------------------------- #
# Harness
# --------------------------------------------------------------------------- #
def run_serial_cpu(build, size, seed):
    """The trusted reference: serial, unfused, single CPU device."""
    with BrookRuntime(backend="cpu") as rt:
        plans, outs = build(rt, size, seed)
        for plan in plans:
            plan.launch()
        return {name: stream.read() for name, stream in outs.items()}


def run_planned(rt, build, size, seed):
    """Plan the pipeline, materialise the chosen config, execute it."""
    plans, outs = build(rt, size, seed)
    decision = rt.autoplan(plans)
    launchables = build_launchables(rt, plans, decision.chosen.config)
    for launchable in launchables:
        launchable.launch()
    return ({name: stream.read() for name, stream in outs.items()},
            decision)


# --------------------------------------------------------------------------- #
# The sweep
# --------------------------------------------------------------------------- #
class TestPlannedExecutionBitwise:
    @pytest.mark.parametrize("pipeline", sorted(PIPELINES))
    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_cpu_planned_matches_serial(self, pipeline, seed):
        build = PIPELINES[pipeline]
        reference = run_serial_cpu(build, 16, seed)
        with BrookRuntime(backend="cpu") as rt:
            outputs, decision = run_planned(rt, build, 16, seed)
        assert decision.chosen.modelled_s <= decision.baseline.modelled_s
        for name in reference:
            assert_bitwise(outputs[name], reference[name])

    @pytest.mark.parametrize("pipeline", sorted(PIPELINES))
    @pytest.mark.parametrize("seed", [0, 1])
    def test_gles2_planned_matches_serial_cpu(self, pipeline, seed):
        build = PIPELINES[pipeline]
        reference = run_serial_cpu(build, 16, seed)
        with BrookRuntime(backend="gles2", device="videocore-iv") as rt:
            outputs, _ = run_planned(rt, build, 16, seed)
        for name in reference:
            assert_bitwise(outputs[name], reference[name])

    @pytest.mark.parametrize("pipeline", sorted(PIPELINES))
    @pytest.mark.parametrize("seed", [0, 1])
    def test_sharded_planned_matches_serial_cpu(self, pipeline, seed):
        build = PIPELINES[pipeline]
        reference = run_serial_cpu(build, 16, seed)
        with BrookRuntime(backend="cpu", devices=2) as rt:
            outputs, decision = run_planned(rt, build, 16, seed)
        assert decision.executable_devices == 2
        assert decision.chosen.config.devices == 2
        for name in reference:
            assert_bitwise(outputs[name], reference[name])

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_fused_sharded_tiled_composition(self, seed):
        # Two tiny-texture GPUs force tiling (16x16 frames on 8x8
        # textures) under a 2-device shard: the planner's chosen config
        # composes fusion + sharding + tiling and must stay bitwise.
        reference = run_serial_cpu(build_adas_chain, 16, seed)
        backend = ShardedBackend([tiny_gles2_backend(8) for _ in range(2)])
        with BrookRuntime(backend=backend) as rt:
            outputs, decision = run_planned(rt, build_adas_chain, 16, seed)
        assert decision.chosen.config.devices == 2
        assert_bitwise(outputs["out"], reference["out"])

    @pytest.mark.parametrize("seed", [5, 6])
    def test_tiled_single_device_composition(self, seed):
        reference = run_serial_cpu(build_adas_chain, 16, seed)
        with BrookRuntime(backend=tiny_gles2_backend(8)) as rt:
            outputs, _ = run_planned(rt, build_adas_chain, 16, seed)
        assert_bitwise(outputs["out"], reference["out"])
