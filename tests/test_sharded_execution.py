"""Tests for multi-device sharded execution (``BrookRuntime(devices=N)``).

The correctness bar is the same one the tiling and concurrency PRs held:
sharding must be *bit-identical* to single-device execution for every
workload class - map kernels, ``indexof`` kernels, stencil (halo)
gathers, full-array gathers, reductions, fused pipelines and
shard+tile composition - on both the CPU and the OpenGL ES 2 backends.
The suite also covers the shard geometry, the per-kernel argument
classification (partitioned / replicated / halo / gathered-whole with
runtime clamp guards), the ``shards=N`` / halo-byte statistics with
their GPU-model pricing, and the degenerate-input validation that rides
along in this change.
"""

import numpy as np
import pytest

from repro.backends.gles2_backend import GLES2Backend
from repro.backends.sharded import ShardedBackend
from repro.core.analysis.sharding import (
    ShardPlan,
    classify_kernel,
)
from repro.core.compiler import BrookAutoCompiler, CompilerOptions
from repro.errors import (GatherBoundsError, KernelLaunchError,
                          RuntimeBrookError, StreamError)
from repro.gles2.device import GPUDeviceProfile
from repro.gles2.limits import GLES2Limits
from repro.runtime import BrookRuntime, HaloGatherSource, ShardedStorage
from repro.runtime.profiling import KernelLaunchRecord, RunStatistics
from repro.timing.gpu_model import GPUCostParameters, GPUModel, GPUWorkload

SAXPY = ("kernel void saxpy(float a, float x<>, float y<>, out float r<>) {"
         " r = a * x + y; }")
INDEXED = ("kernel void indexed(float x<>, out float r<>) {"
           " float2 p = indexof(r); r = x + p.x * 10.0 + p.y; }")
TOTAL = "reduce void total(float v<>, reduce float acc) { acc += v; }"
MAXV = "reduce void maxv(float v<>, reduce float m) { m = max(m, v); }"
PIPE = ("kernel void twice(float x<>, out float y<>) { y = x * 2.0; }"
        "kernel void plus3(float y<>, out float z<>) { z = y + 3.0; }")
STENCIL = (
    "kernel void blur3(float src[][], float w, float h, out float dst<>) {"
    " float2 p = indexof(dst);"
    " float y0 = max(p.y - 1.0, 0.0);"
    " float y2 = min(p.y + 1.0, h - 1.0);"
    " dst = (src[y0][p.x] + src[p.y][p.x] + src[y2][p.x]) / 4.0; }")
REVERSE = (
    "kernel void rev(float src[][], float h, out float dst<>) {"
    " float2 p = indexof(dst);"
    " dst = src[h - 1.0 - p.y][p.x]; }")
LOOKUP = ("kernel void lookup(float v<>, float lut[], out float o<>) {"
          " o = lut[v]; }")


def compile_kernel(source, name):
    program = BrookAutoCompiler(CompilerOptions()).compile(source)
    return program.original_definitions[name]


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
    return GLES2Backend(profile)


def assert_bitwise(a, b):
    np.testing.assert_array_equal(
        np.asarray(a, dtype=np.float32).view(np.uint32),
        np.asarray(b, dtype=np.float32).view(np.uint32))


# --------------------------------------------------------------------------- #
# Geometry
# --------------------------------------------------------------------------- #
class TestShardGeometry:
    def test_row_bands_balanced_to_one_row(self):
        plan = ShardPlan((10, 7), 4)
        assert plan.axis == "rows"
        assert [(s.row0, s.rows) for s in plan.pieces] == \
            [(0, 3), (3, 3), (6, 2), (8, 2)]
        assert all(s.cols == 7 and s.col0 == 0 for s in plan.pieces)
        assert sum(s.element_count for s in plan.pieces) == 70

    def test_one_row_layouts_shard_along_columns(self):
        plan = ShardPlan((1, 10), 4)
        assert plan.axis == "cols"
        assert [(s.col0, s.cols) for s in plan.pieces] == \
            [(0, 3), (3, 3), (6, 2), (8, 2)]

    def test_fewer_bands_than_devices(self):
        assert len(ShardPlan((2, 5), 4).pieces) == 2
        assert len(ShardPlan((1, 3), 8).pieces) == 3
        assert ShardPlan((1, 1), 4).is_trivial

    def test_geometry_is_a_pure_function_of_layout_and_count(self):
        assert ShardPlan((9, 4), 3).geometry == ShardPlan((9, 4), 3).geometry
        assert ShardPlan((9, 4), 3).geometry != ShardPlan((9, 4), 2).geometry

    def test_slice_stitch_roundtrip(self):
        plan = ShardPlan((11, 6), 4)
        data = np.arange(66, dtype=np.float32).reshape(11, 6)
        np.testing.assert_array_equal(
            plan.stitch([plan.slice(data, s) for s in plan.pieces]), data)

    def test_index_positions_are_global(self):
        plan = ShardPlan((6, 3), 3)
        positions = plan.index_positions(plan.pieces[1])
        assert positions.shape == (6, 2)
        assert positions[0].tolist() == [0.0, 2.0]   # (x, y) of row 2, col 0
        assert positions[-1].tolist() == [2.0, 3.0]

    def test_halo_band_clips_at_the_edges(self):
        plan = ShardPlan((12, 4), 3)
        assert plan.halo_band(plan.pieces[0], 2) == (0, 6)
        assert plan.halo_band(plan.pieces[1], 2) == (2, 10)
        assert plan.halo_band(plan.pieces[2], 2) == (6, 12)


# --------------------------------------------------------------------------- #
# Argument classification
# --------------------------------------------------------------------------- #
class TestArgumentClassification:
    def test_streams_outputs_scalars(self):
        spec = classify_kernel(compile_kernel(SAXPY, "saxpy"))
        assert spec.argument("a").mode == "replicated"
        assert spec.argument("x").mode == "partitioned"
        assert spec.argument("r").mode == "partitioned"

    def test_clamped_stencil_is_halo_with_guard(self):
        spec = classify_kernel(compile_kernel(STENCIL, "blur3"))
        arg = spec.argument("src")
        assert arg.mode == "halo"
        assert arg.row_access.bound == 1
        guards = {(g.param, g.delta) for g in arg.row_access.guards}
        assert ("h", 1.0) in guards
        # The column index is the bare coordinate: bound 0, no guards.
        assert arg.col_access.bound == 0

    def test_image_filter_3x3_classifies_as_halo_1(self):
        from repro.apps.image_filter import BROOK_SOURCE

        spec = classify_kernel(compile_kernel(BROOK_SOURCE, "filter3x3"))
        arg = spec.argument("image")
        assert arg.mode == "halo"
        assert arg.row_access.bound == 1
        assert arg.col_access.bound == 1

    def test_data_dependent_index_is_gathered_whole(self):
        spec = classify_kernel(compile_kernel(LOOKUP, "lookup"))
        assert spec.argument("lut").mode == "whole"

    def test_transposed_access_cannot_use_row_halo(self):
        source = ("kernel void t(float a[][], out float o<>) {"
                  " float2 p = indexof(o); o = a[p.x][p.y]; }")
        spec = classify_kernel(compile_kernel(source, "t"))
        arg = spec.argument("a")
        assert arg.row_access is None and arg.col_access is None
        assert arg.mode == "whole"

    def test_reflected_index_is_not_a_stencil_offset(self):
        # ``c - coord`` is a reflection: its distance from the current
        # element is unbounded, so it must NOT classify as a halo
        # access along that axis (regression: the +/- lattice rule once
        # accepted the coordinate on either side of a subtraction).
        source = ("kernel void refl(float a[][], out float o<>) {"
                  " float2 p = indexof(o); o = a[10.0 - p.y][p.x]; }")
        spec = classify_kernel(compile_kernel(source, "refl"))
        assert spec.argument("a").row_access is None
        clamped = ("kernel void refl2(float a[][], out float o<>) {"
                   " float2 p = indexof(o);"
                   " o = a[max(10.0 - p.y, 0.0)][p.x]; }")
        spec2 = classify_kernel(compile_kernel(clamped, "refl2"))
        assert spec2.argument("a").row_access is None

    def test_member_assignment_invalidates_the_tracked_local(self):
        # ``p.y = p.y + 3.0`` mutates the indexof-derived local: the
        # analysis must drop it instead of treating later ``p.y`` reads
        # as the unshifted coordinate (regression: silent corruption on
        # clamping backends, spurious StreamError on the CPU one).
        source = ("kernel void k(float src[][], out float dst<>) {"
                  " float2 p = indexof(dst); p.y = p.y + 3.0;"
                  " dst = src[min(p.y, 7.0)][p.x]; }")
        spec = classify_kernel(compile_kernel(source, "k"))
        assert spec.argument("src").row_access is None
        data = np.arange(64, dtype=np.float32).reshape(8, 8)

        def launch(rt, module):
            out = rt.stream((8, 8))
            module.k(rt.stream_from(data), out)
            return out.read()

        single, sharded = run_single_and_sharded(source, launch)
        assert_bitwise(single, sharded)

    def test_scalar_offset_is_unbounded(self):
        source = ("kernel void s(float a[][], float n, out float o<>) {"
                  " float2 p = indexof(o); o = a[p.y + n][p.x]; }")
        spec = classify_kernel(compile_kernel(source, "s"))
        assert spec.argument("a").row_access is None


# --------------------------------------------------------------------------- #
# Storage
# --------------------------------------------------------------------------- #
class TestShardedStorage:
    def test_large_streams_shard_small_streams_stay_whole(self):
        with BrookRuntime(backend="cpu", devices=4) as rt:
            big = rt.stream((8, 8))
            tiny = rt.stream((1, 1))
            assert isinstance(big.storage, ShardedStorage)
            assert len(big.storage.parts) == 4
            assert not isinstance(tiny.storage, ShardedStorage)

    def test_upload_download_roundtrip(self):
        data = np.arange(9 * 5, dtype=np.float32).reshape(9, 5)
        with BrookRuntime(backend="cpu", devices=3) as rt:
            stream = rt.stream_from(data)
            np.testing.assert_array_equal(stream.read(), data)
            np.testing.assert_array_equal(stream.peek(), data)

    def test_memory_spreads_across_devices_and_release_frees_all(self):
        with BrookRuntime(backend="cpu", devices=4) as rt:
            backend: ShardedBackend = rt.backend
            stream = rt.stream((8, 4))
            per_device = [d.device_memory_in_use() for d in backend.devices]
            assert all(bytes_used == 8 * 4 for bytes_used in per_device)
            stream.release()
            assert rt.device_memory_in_use() == 0

    def test_transfer_records_carry_per_device_calls(self):
        data = np.arange(8 * 4, dtype=np.float32).reshape(8, 4)
        with BrookRuntime(backend="gles2", device="videocore-iv",
                          devices=4) as rt:
            rt.stream_from(data).read()
            transfers = rt.statistics.transfers
        assert [t.calls for t in transfers] == [4, 4]

    def test_runtime_validation(self):
        with pytest.raises(RuntimeBrookError):
            BrookRuntime(backend="cpu", devices=0)
        with pytest.raises(RuntimeBrookError):
            BrookRuntime(backend="cpu", devices=-2)
        from repro.backends.cpu import CPUBackend
        with pytest.raises(RuntimeBrookError, match="ShardedBackend"):
            BrookRuntime(backend=CPUBackend(), devices=2)
        with BrookRuntime(backend="cpu", devices=3) as rt:
            assert rt.device_count == 3
        with BrookRuntime(backend="cpu") as rt:
            assert rt.device_count == 1

    def test_heterogeneous_group_rejected(self):
        from repro.backends.cpu import CPUBackend
        with pytest.raises(RuntimeBrookError, match="homogeneous"):
            ShardedBackend([CPUBackend(), tiny_gles2_backend()])


# --------------------------------------------------------------------------- #
# Bit-identical equivalence vs a single device
# --------------------------------------------------------------------------- #
def run_single_and_sharded(source, launch, backend="cpu", device=None,
                           devices=4):
    """Run ``launch(rt, module)`` on 1 and N devices; return both results."""
    results = []
    for count in (1, devices):
        with BrookRuntime(backend=backend, device=device,
                          devices=count) as rt:
            module = rt.compile(source)
            results.append(launch(rt, module))
    return results


class TestShardedEquivalence:
    @pytest.mark.parametrize("backend,device", [("cpu", None),
                                                ("gles2", "videocore-iv")])
    def test_map_kernel(self, backend, device):
        x = (np.arange(12 * 7, dtype=np.float32).reshape(12, 7) % 31)
        y = (x * 3 + 1) % 17

        def launch(rt, module):
            out = rt.stream((12, 7))
            module.saxpy(2.0, rt.stream_from(x), rt.stream_from(y), out)
            return out.read()

        single, sharded = run_single_and_sharded(SAXPY, launch,
                                                 backend, device)
        assert_bitwise(single, sharded)

    @pytest.mark.parametrize("backend,device", [("cpu", None),
                                                ("gles2", "videocore-iv")])
    def test_indexof_kernel_observes_global_positions(self, backend, device):
        x = (np.arange(9 * 6, dtype=np.float32).reshape(9, 6) % 13)

        def launch(rt, module):
            out = rt.stream((9, 6))
            module.indexed(rt.stream_from(x), out)
            return out.read()

        single, sharded = run_single_and_sharded(INDEXED, launch,
                                                 backend, device, devices=3)
        assert_bitwise(single, sharded)

    @pytest.mark.parametrize("backend,device", [("cpu", None),
                                                ("gles2", "videocore-iv")])
    def test_stencil_halo_kernel(self, backend, device):
        data = (np.arange(16 * 16, dtype=np.float32).reshape(16, 16) % 64)

        def launch(rt, module):
            out = rt.stream((16, 16))
            module.blur3(rt.stream_from(data), 16.0, 16.0, out)
            stats = rt.statistics.summary()
            return out.read(), stats

        (single, _), (sharded, stats) = run_single_and_sharded(
            STENCIL, launch, backend, device)
        assert_bitwise(single, sharded)
        # A 16-row frame on 4 devices with a 1-deep halo exchanges 6
        # rows (interior shards two, edge shards one) of 16 floats.
        assert stats["halo_bytes"] == 6 * 16 * 4
        assert stats["extra_shards"] == 3

    @pytest.mark.parametrize("backend,device", [("cpu", None),
                                                ("gles2", "videocore-iv")])
    def test_image_filter_pipeline(self, backend, device):
        from repro.apps.image_filter import BROOK_SOURCE, FILTER_3X3

        frame = np.random.default_rng(3).uniform(0, 255, (24, 24)) \
            .astype(np.float32)
        weights = [float(w) for w in FILTER_3X3.reshape(-1)]

        def launch(rt, module):
            out = rt.stream((24, 24))
            module.filter3x3(rt.stream_from(frame), 24.0, 24.0,
                             *weights, out)
            return out.read()

        single, sharded = run_single_and_sharded(BROOK_SOURCE, launch,
                                                 backend, device)
        assert_bitwise(single, sharded)

    @pytest.mark.parametrize("backend,device", [("cpu", None),
                                                ("gles2", "videocore-iv")])
    def test_full_array_gather(self, backend, device):
        data = (np.arange(10 * 8, dtype=np.float32).reshape(10, 8) % 50)

        def launch(rt, module):
            out = rt.stream((10, 8))
            module.rev(rt.stream_from(data), 10.0, out)
            return out.read()

        single, sharded = run_single_and_sharded(REVERSE, launch,
                                                 backend, device)
        assert_bitwise(single, sharded)

    def test_reflected_gather_stays_bit_identical(self):
        # The reflection falls back to a whole-array gather; on the
        # clamping backend that must match devices=1 exactly.
        data = (np.arange(40 * 4, dtype=np.float32).reshape(40, 4) % 29)
        source = ("kernel void refl(float src[][], out float dst<>) {"
                  " float2 p = indexof(dst);"
                  " dst = src[10.0 - p.y][p.x]; }")

        def launch(rt, module):
            out = rt.stream((40, 4))
            module.refl(rt.stream_from(data), out)
            return out.read()

        single, sharded = run_single_and_sharded(
            source, launch, "gles2", "videocore-iv")
        assert_bitwise(single, sharded)

    def test_guard_failure_demotes_to_whole_not_wrong(self):
        # The clamp scalar is NOT the array height: the halo guard must
        # reject the stencil classification and fall back to the whole
        # array, keeping the result identical to a single device.
        data = (np.arange(12 * 5, dtype=np.float32).reshape(12, 5) % 23)
        source = (
            "kernel void clip8(float src[][], float h, out float dst<>) {"
            " float2 p = indexof(dst);"
            " dst = src[min(p.y + 1.0, h - 1.0)][p.x]; }")

        def launch(rt, module):
            out = rt.stream((12, 5))
            module.clip8(rt.stream_from(data), 8.0, out)
            return out.read(), rt.statistics.summary()

        (single, _), (sharded, stats) = run_single_and_sharded(source, launch)
        assert_bitwise(single, sharded)
        # Whole-array replication traffic, not a thin halo.
        assert stats["halo_bytes"] > 6 * 5 * 4

    @pytest.mark.parametrize("backend,device", [("cpu", None),
                                                ("gles2", "videocore-iv")])
    def test_sum_reduction_integer_data(self, backend, device):
        # Integer-valued float32 sums are exact under any association,
        # so partial-per-device reduction must be bit-identical.
        data = (np.arange(13 * 6, dtype=np.float32).reshape(13, 6) % 40)

        def launch(rt, module):
            return module.total(rt.stream_from(data))

        single, sharded = run_single_and_sharded(TOTAL, launch,
                                                 backend, device)
        assert np.float32(single).view(np.uint32) == \
            np.float32(sharded).view(np.uint32)

    def test_float_sum_reduction_reassociates_within_tolerance(self):
        # General floating-point sums fold per-device partials, so they
        # may differ from devices=1 by reassociation ULPs only - the
        # documented caveat (shared with tiled reductions).
        data = np.random.default_rng(23).uniform(-10, 10, (37, 3)) \
            .astype(np.float32)

        def launch(rt, module):
            return module.total(rt.stream_from(data))

        single, sharded = run_single_and_sharded(TOTAL, launch)
        assert sharded == pytest.approx(single, rel=1e-5)

    def test_max_reduction(self):
        data = np.random.default_rng(7).uniform(-100, 100, (17, 9)) \
            .astype(np.float32)

        def launch(rt, module):
            return module.maxv(rt.stream_from(data))

        single, sharded = run_single_and_sharded(MAXV, launch)
        assert np.float32(single).view(np.uint32) == \
            np.float32(sharded).view(np.uint32)

    def test_partial_reduction_into_stream(self):
        data = (np.arange(12 * 8, dtype=np.float32).reshape(12, 8) % 9)

        def launch(rt, module):
            acc = rt.stream((4, 4))
            module.total(rt.stream_from(data), acc)
            return acc.read()

        single, sharded = run_single_and_sharded(TOTAL, launch)
        assert_bitwise(single, sharded)

    @pytest.mark.parametrize("backend,device", [("cpu", None),
                                                ("gles2", "videocore-iv")])
    def test_fused_pipeline(self, backend, device):
        data = (np.arange(10 * 10, dtype=np.float32).reshape(10, 10) % 21)

        def launch(rt, module):
            src = rt.stream_from(data)
            tmp = rt.stream((10, 10))
            out = rt.stream((10, 10))
            pipeline = rt.fuse([module.twice.bind(src, tmp),
                                module.plus3.bind(tmp, out)])
            pipeline.launch()
            return out.read(), pipeline.pass_count

        (single, passes_1), (sharded, passes_n) = run_single_and_sharded(
            PIPE, launch, backend, device)
        assert passes_1 == passes_n == 1   # fusion still applies
        assert_bitwise(single, sharded)

    def test_in_place_sharded_gather_keeps_snapshot_semantics(self):
        data = (np.arange(20 * 8, dtype=np.float32).reshape(20, 8) % 77)
        source = (
            "kernel void shiftu(float src[][], float h, out float dst<>) {"
            " float2 p = indexof(dst);"
            " dst = src[max(p.y - 1.0, 0.0)][p.x] * 2.0; }")

        def launch(rt, module):
            stream = rt.stream_from(data)
            module.shiftu(stream, 20.0, stream)
            return stream.read()

        single, sharded = run_single_and_sharded(source, launch)
        assert_bitwise(single, sharded)

    def test_one_dimensional_column_sharding(self):
        data = np.arange(37, dtype=np.float32)

        def launch(rt, module):
            out = rt.stream((37,))
            module.indexed(rt.stream_from(data), out)
            return out.read()

        single, sharded = run_single_and_sharded(INDEXED, launch, devices=3)
        assert_bitwise(single, sharded)


class TestShardTileComposition:
    def test_shard_bands_tile_when_they_exceed_the_device_limit(self):
        # 40x40 across 4 devices with a 16-texel limit: each 10x40 band
        # still overflows its device and tiles 1x3 internally.
        source = ("kernel void shade(float a, float x<>, out float r<>) {"
                  " float2 p = indexof(r); r = a * x + p.x + 100.0 * p.y; }")
        data = (np.arange(40 * 40, dtype=np.float32).reshape(40, 40) % 97)

        def run(backend):
            with BrookRuntime(backend=backend) as rt:
                module = rt.compile(source)
                out = rt.stream((40, 40))
                module.shade(2.0, rt.stream_from(data), out)
                return out.read(), rt.statistics.summary()

        reference, _ = run(tiny_gles2_backend(64))
        sharded_backend = ShardedBackend(
            [tiny_gles2_backend(16) for _ in range(4)])
        sharded, stats = run(sharded_backend)
        assert_bitwise(reference, sharded)
        assert stats["extra_shards"] == 3
        # 4 bands x 3 tiles: 8 within-device tile switches.
        assert stats["extra_tiles"] == 8

    def test_sharded_1d_bands_fold_on_their_devices(self):
        data = (np.arange(120, dtype=np.float32) % 45)

        def run(backend):
            with BrookRuntime(backend=backend) as rt:
                module = rt.compile(INDEXED)
                out = rt.stream((120,))
                module.indexed(rt.stream_from(data), out)
                return out.read()

        reference = run(tiny_gles2_backend(128))
        sharded = run(ShardedBackend([tiny_gles2_backend(16)
                                      for _ in range(2)]))
        assert_bitwise(reference, sharded)


# --------------------------------------------------------------------------- #
# Executor integration
# --------------------------------------------------------------------------- #
class TestShardedExecutor:
    def test_hazard_tracking_keys_on_shard_storages(self):
        from repro.runtime.executor import _collect_hazards

        with BrookRuntime(backend="cpu", devices=3) as rt:
            module = rt.compile(SAXPY)
            x = rt.stream_from(np.zeros((9, 4), dtype=np.float32))
            y = rt.stream_from(np.zeros((9, 4), dtype=np.float32))
            out = rt.stream((9, 4))
            plan = module.saxpy.bind(1.0, x, y, out)
            reads, writes = set(), set()
            _collect_hazards(plan, reads, writes)
            assert writes == {id(s) for s in out.storage.parts}
            assert reads == {id(s) for s in x.storage.parts} | \
                {id(s) for s in y.storage.parts}

    def test_executor_pipeline_bitwise_identical(self):
        data = (np.arange(14 * 6, dtype=np.float32).reshape(14, 6) % 19)

        def launch(rt, module):
            src = rt.stream_from(data)
            tmp = rt.stream((14, 6))
            out = rt.stream((14, 6))
            with rt.executor(workers=3) as executor:
                executor.submit(module.twice.bind(src, tmp))
                executor.submit(module.plus3.bind(tmp, out))
                executor.submit(module.twice.bind(out, tmp)).result()
            return tmp.read()

        single, sharded = run_single_and_sharded(PIPE, launch)
        assert_bitwise(single, sharded)


# --------------------------------------------------------------------------- #
# Statistics and pricing
# --------------------------------------------------------------------------- #
class TestShardStatistics:
    def test_launch_record_carries_shards_and_halo(self):
        data = (np.arange(16 * 16, dtype=np.float32).reshape(16, 16) % 8)
        with BrookRuntime(backend="cpu", devices=4) as rt:
            module = rt.compile(STENCIL)
            out = rt.stream((16, 16))
            module.blur3(rt.stream_from(data), 16.0, 16.0, out)
            record = rt.statistics.launches[-1]
        assert record.shards == 4
        assert record.halo_bytes == 6 * 16 * 4
        assert record.passes == 4

    def test_per_kernel_aggregation_merges_shard_counters(self):
        stats = RunStatistics()
        stats.record_launch(KernelLaunchRecord(
            kernel="k", elements=8, flops=8, texture_fetches=0,
            shards=4, halo_bytes=64))
        stats.record_launch(KernelLaunchRecord(
            kernel="k", elements=8, flops=8, texture_fetches=0,
            shards=2, halo_bytes=32))
        merged = stats.per_kernel()["k"]
        assert merged.shards == 4
        assert merged.halo_bytes == 96
        assert stats.extra_shards == 4
        assert stats.halo_bytes == 96

    def test_gpu_model_prices_sharding_overhead(self):
        params = GPUCostParameters(
            name="toy", effective_gflops=1.0, transfer_gib_per_s=1.0,
            pass_overhead_us=100.0, texture_fetch_ns=2.0,
            fill_rate_mpixels=100.0, shard_dispatch_overhead_us=200.0,
            halo_gib_per_s=1.0)
        model = GPUModel(params)
        assert model.sharding_overhead(0, 0) == 0.0
        overhead = model.sharding_overhead(3, 1 << 30)
        assert overhead == pytest.approx(3 * 200e-6 + 1.0)
        base = GPUWorkload(passes=4, elements=4000, flops=4000,
                           texture_fetches=0, bytes_to_device=0,
                           bytes_from_device=0)
        with_shards = GPUWorkload(passes=4, elements=4000, flops=4000,
                                  texture_fetches=0, bytes_to_device=0,
                                  bytes_from_device=0,
                                  shard_dispatches=3, halo_bytes=4096)
        assert model.kernel_time(with_shards) > model.kernel_time(base)

    def test_sharded_time_scales_down_with_devices(self):
        params = GPUCostParameters(
            name="toy", effective_gflops=1.0, transfer_gib_per_s=1.0,
            pass_overhead_us=100.0, texture_fetch_ns=2.0,
            fill_rate_mpixels=100.0)
        model = GPUModel(params)
        workload = GPUWorkload(passes=8, elements=8e6, flops=64e6,
                               texture_fetches=8e6, bytes_to_device=4e6,
                               bytes_from_device=4e6, transfer_calls=8,
                               shard_dispatches=3, halo_bytes=1e5)
        t1 = model.time_seconds(workload)
        t4 = model.sharded_time_seconds(workload, devices=4)
        assert t4 < t1
        assert t4 > t1 / 4          # overheads keep it sublinear
        with pytest.raises(Exception):
            model.sharded_time_seconds(workload, devices=0)

    def test_unsharded_gather_replication_is_free_on_its_own_device(self):
        # A small lut lives whole on device 0; replication traffic is
        # charged only for the devices that do NOT already hold it.
        lut = np.arange(5, dtype=np.float32)
        idx = (np.arange(9 * 4, dtype=np.float32).reshape(9, 4) % 5)
        with BrookRuntime(backend="cpu", devices=3) as rt:
            module = rt.compile(LOOKUP)
            out = rt.stream((9, 4))
            module.lookup(rt.stream_from(idx), rt.stream_from(lut), out)
            record = rt.statistics.launches[-1]
        assert record.halo_bytes == 2 * lut.size * 4   # devices 1 and 2 only

    def test_workload_from_statistics_includes_shard_counters(self):
        stats = RunStatistics()
        stats.record_launch(KernelLaunchRecord(
            kernel="k", elements=8, flops=8, texture_fetches=0,
            shards=3, halo_bytes=128))
        workload = GPUWorkload.from_statistics(stats)
        assert workload.shard_dispatches == 2
        assert workload.halo_bytes == 128


# --------------------------------------------------------------------------- #
# Halo gather source semantics
# --------------------------------------------------------------------------- #
class TestHaloGatherSource:
    @pytest.mark.parametrize("devices", [1, 2, 3])
    def test_cpu_out_of_bounds_gather_raises_gather_bounds_error(
            self, devices):
        # A halo-classified stencil read one row past the array: the
        # sharded CPU runtime must fail like the single-device one.
        source = ("kernel void down(float a[][], out float r<>) {"
                  " float2 idx = indexof(r); r = a[idx.y + 1.0][idx.x]; }")
        with BrookRuntime(backend="cpu", devices=devices) as rt:
            module = rt.compile(source)
            a = rt.stream_from(np.arange(64, dtype=np.float32).reshape(8, 8))
            out = rt.stream((8, 8))
            with pytest.raises(GatherBoundsError, match="out of bounds") \
                    as caught:
                module.down(a, out)
        assert isinstance(caught.value, KernelLaunchError)

    def test_clamping_matches_full_array_edges(self):
        full = np.arange(40, dtype=np.float32).reshape(8, 5)
        band = full[2:8]   # the last shard's band: rows 2..7 inclusive
        source = HaloGatherSource(band, (8, 5), row0=2, col0=0,
                                  clamping=True)
        rows = np.array([3.0, 6.0, 100.0])
        cols = np.array([0.0, 4.0, -3.0])
        values = source.fetch(rows, cols)
        # Row 100 clamps to the full array's edge row 7 (in-band), the
        # negative column clamps to 0.
        np.testing.assert_array_equal(values, [full[3, 0], full[6, 4],
                                               full[7, 0]])
        assert source.fetch_count == 3

    def test_cpu_semantics_raise_out_of_full_bounds(self):
        full = np.arange(40, dtype=np.float32).reshape(8, 5)
        source = HaloGatherSource(full[2:7], (8, 5), row0=2, col0=0,
                                  clamping=False)
        with pytest.raises(StreamError, match="out of bounds"):
            source.fetch(np.array([9.0]), np.array([0.0]))

    def test_cpu_semantics_raise_on_band_escape(self):
        full = np.arange(40, dtype=np.float32).reshape(8, 5)
        source = HaloGatherSource(full[2:7], (8, 5), row0=2, col0=0,
                                  clamping=False)
        with pytest.raises(StreamError, match="halo band"):
            source.fetch(np.array([0.0]), np.array([0.0]))


# --------------------------------------------------------------------------- #
# Degenerate inputs (satellite)
# --------------------------------------------------------------------------- #
class TestDegenerateInputs:
    def test_stream_from_empty_and_scalar_arrays(self):
        with BrookRuntime(backend="cpu") as rt:
            with pytest.raises(StreamError):
                rt.stream_from(np.array([], dtype=np.float32))
            with pytest.raises(StreamError):
                rt.stream_from(np.zeros((0, 4), dtype=np.float32))
            with pytest.raises(StreamError):
                rt.stream_from(np.float32(3.0))

    @pytest.mark.parametrize("devices", [1, 4])
    def test_single_element_reduction(self, devices):
        with BrookRuntime(backend="cpu", devices=devices) as rt:
            module = rt.compile(TOTAL)
            assert module.total(rt.stream_from(np.array([5.0]))) == 5.0

    def test_serve_bench_cli_reports_degenerate_devices(self, capsys):
        from repro.cli import main

        code = main(["serve-bench", "--backend", "cpu", "--size", "8",
                     "--requests", "1", "--devices", "0"])
        assert code == 2
        assert "at least one device" in capsys.readouterr().err
