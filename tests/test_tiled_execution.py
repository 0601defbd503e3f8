"""Tests for the tiled execution engine (streams beyond the texture limit).

Covers the tile geometry, the per-backend :class:`TiledStorage`, tiled
kernel launches / reductions / fused pipelines, the ``tiles=N`` launch
records with their GPU-model pricing, and the satellite behaviours that
ride along: 1-D folding, the int-scalar truncation guard, in-place
launches and odd-extent RGBA8 reductions.

Most tests run against a deliberately tiny OpenGL ES 2 device
(``max_texture_size=16``) so tiling kicks in on small, fast domains; the
acceptance-scale shapes from the issue - ``(4096,)`` and ``(3000, 3000)``
on VideoCore IV limits - are exercised once at the end.
"""

import numpy as np
import pytest

from repro.backends.cal_backend import CALBackend
from repro.backends.gles2_backend import GLES2Backend
from repro.cal.device import CALDeviceProfile
from repro.core.analysis.memory_usage import StreamDeclaration, estimate_memory_usage
from repro.core.analysis.resources import TargetLimits
from repro.core.analysis.tiling import folded_layout, tile_grid, tiled_texture_bytes
from repro.errors import KernelLaunchError
from repro.gles2.device import GPUDeviceProfile
from repro.gles2.limits import GLES2Limits
from repro.runtime import BrookRuntime, StreamShape, TiledStorage
from repro.runtime.tiling import TilePlan
from repro.timing.gpu_model import GPUCostParameters, GPUModel, GPUWorkload

SAXPY = ("kernel void saxpy(float a, float x<>, float y<>, out float r<>) {"
         " r = a * x + y; }")
INDEXED = ("kernel void indexed(float x<>, out float r<>) {"
           " float2 p = indexof(r); r = x + p.x * 10.0 + p.y; }")
GATHERING = ("kernel void smear(float a<>, float lut[], out float o<>) {"
             " o = a + lut[indexof(a).x]; }")
TOTAL = "reduce void total(float v<>, reduce float acc) { acc += v; }"
VMIX = ("kernel void vmix(float2 a<>, float2 b<>, out float2 r<>) {"
        " float2 p = indexof(r); r = a * 2.0 + b + p; }")
SCALE = "kernel void scale(float g, float x<>, out float r<>) { r = g * x; }"
SHIFT = ("kernel void shift(float x<>, int n, out float r<>) {"
         " r = x + float(n); }")


def tiny_gles2_runtime(max_texture_size: int = 16) -> BrookRuntime:
    """A GL ES 2 runtime whose device tiles at a toy texture limit."""
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
    return BrookRuntime(backend=GLES2Backend(profile))


def tiny_cal_runtime(max_resource_size: int = 16) -> BrookRuntime:
    """A CAL runtime whose device tiles at a toy resource limit."""
    return BrookRuntime(backend=CALBackend(CALDeviceProfile(
        name=f"cal-{max_resource_size}",
        max_resource_size=max_resource_size,
        max_outputs=4,
        effective_gflops=38.0,
        transfer_gib_per_s=1.6,
        pass_overhead_us=180.0,
        fetch_ns=0.9,
        fill_rate_mpixels=3400.0,
    )))


def cpu_reference(source, kernel, inputs, scalars, shape):
    with BrookRuntime(backend="cpu") as rt:
        module = rt.compile(source)
        handles = [rt.stream_from(data) for data in inputs]
        out = rt.stream(shape)
        module.kernel(kernel)(*scalars, *handles, out)
        return out.read()


LIMITS_2048 = TargetLimits(max_texture_size=2048, requires_power_of_two=True)


# --------------------------------------------------------------------------- #
# Geometry
# --------------------------------------------------------------------------- #
class TestTileGeometry:
    def test_long_1d_row_folds_exactly(self):
        assert folded_layout((1, 4096), LIMITS_2048) == (2, 2048)
        assert folded_layout((1, 3000), LIMITS_2048) == (2, 1500)
        assert folded_layout((1, 6144), LIMITS_2048) == (3, 2048)

    def test_fitting_and_multirow_layouts_stay(self):
        assert folded_layout((1, 2048), LIMITS_2048) == (1, 2048)
        assert folded_layout((1, 16), LIMITS_2048) == (1, 16)
        assert folded_layout((3000, 3000), LIMITS_2048) == (3000, 3000)

    def test_prime_count_cannot_fold(self):
        assert folded_layout((1, 4099), LIMITS_2048) == (1, 4099)

    def test_tile_grid_partitions_without_overlap(self):
        tiles = tile_grid((3000, 3000), LIMITS_2048)
        assert len(tiles) == 4
        assert sum(t.element_count for t in tiles) == 3000 * 3000
        assert {(t.rows, t.cols) for t in tiles} == \
            {(2048, 2048), (2048, 952), (952, 2048), (952, 952)}
        assert all(t.rows <= 2048 and t.cols <= 2048 for t in tiles)

    def test_single_tile_for_fitting_layout(self):
        tiles = tile_grid((64, 64), LIMITS_2048)
        assert len(tiles) == 1
        assert (tiles[0].rows, tiles[0].cols) == (64, 64)

    def test_tiled_bytes_match_single_texture_when_fitting(self):
        assert tiled_texture_bytes((60, 60), LIMITS_2048) == 64 * 64 * 4

    def test_tiled_bytes_sum_padded_tiles(self):
        # (2049, 2049) -> tiles 2048x2048, 2048x1, 1x2048, 1x1 (pot-padded).
        expected = (2048 * 2048 + 2048 * 1 + 1 * 2048 + 1 * 1) * 4
        assert tiled_texture_bytes((2049, 2049), LIMITS_2048) == expected


class TestTilePlan:
    def test_trivial_plan(self):
        plan = TilePlan(StreamShape.of((8, 8)), LIMITS_2048)
        assert plan.is_trivial
        assert len(plan.pieces) == 1

    def test_folded_single_tile_plan_is_not_trivial(self):
        plan = TilePlan(StreamShape.of((4096,)), LIMITS_2048)
        assert not plan.is_trivial
        assert len(plan.pieces) == 1
        assert plan.folded == (2, 2048)

    def test_fold_slice_stitch_roundtrip(self):
        limits = TargetLimits(max_texture_size=16)
        plan = TilePlan(StreamShape.of((20, 37)), limits)
        data = np.arange(20 * 37, dtype=np.float32).reshape(20, 37)
        folded = plan.fold(data)
        blocks = [plan.slice(folded, tile) for tile in plan.pieces]
        restored = plan.unfold(plan.stitch(blocks))
        np.testing.assert_array_equal(restored, data)

    def test_tile_index_positions_are_global(self):
        limits = TargetLimits(max_texture_size=16)
        shape = StreamShape.of((40,))
        plan = TilePlan(shape, limits)
        collected = np.concatenate(
            [plan.index_positions(tile) for tile in plan.pieces])
        # Folding maps elements row-major, so concatenating the per-tile
        # positions in tile order recovers every logical position once.
        reference = shape.element_positions()
        assert {tuple(p) for p in collected} == {tuple(p) for p in reference}


# --------------------------------------------------------------------------- #
# Storage
# --------------------------------------------------------------------------- #
class TestTiledStorage:
    def test_folded_1d_stream_fits_one_texture(self, gles2_runtime):
        stream = gles2_runtime.stream((4096,))
        storage = stream.storage
        assert isinstance(storage, TiledStorage)
        assert len(storage.parts) == 1
        assert storage.parts[0].texture.width == 2048
        assert storage.parts[0].texture.height == 2

    def test_2d_stream_tiles_on_gles2(self, gles2_runtime):
        stream = gles2_runtime.stream((3000, 3000))
        assert isinstance(stream.storage, TiledStorage)
        assert len(stream.storage.parts) == 4

    def test_write_read_roundtrip_tiled(self):
        rt = tiny_gles2_runtime()
        data = np.random.default_rng(0).uniform(-5, 5, (20, 37)) \
            .astype(np.float32)
        stream = rt.stream_from(data)
        assert isinstance(stream.storage, TiledStorage)
        np.testing.assert_array_equal(stream.read(), data)
        np.testing.assert_array_equal(stream.peek(), data)

    def test_release_frees_every_tile_texture(self):
        rt = tiny_gles2_runtime()
        stream = rt.stream((64, 64))
        assert rt.device_memory_in_use() > 0
        stream.release()
        assert rt.device_memory_in_use() == 0

    def test_cal_folds_long_1d_stream(self, cal_runtime):
        data = np.random.default_rng(1).uniform(-1, 1, (5000,)) \
            .astype(np.float32)
        stream = cal_runtime.stream_from(data)
        assert isinstance(stream.storage, TiledStorage)
        assert stream.storage.plan.folded == (2, 2500)
        np.testing.assert_array_equal(stream.read(), data)

    def test_cpu_never_tiles(self, cpu_runtime):
        stream = cpu_runtime.stream((4096,))
        assert not isinstance(stream.storage, TiledStorage)

    def test_cpu_launches_domains_beyond_any_texture_limit(self, cpu_runtime):
        """Tiled dispatch keys on the storage, not the domain size: the
        CPU backend keeps running huge domains in a single pass."""
        shape = (131072,)
        module = cpu_runtime.compile(SCALE)
        x = cpu_runtime.stream_from(np.ones(shape, dtype=np.float32))
        out = cpu_runtime.stream(shape)
        module.scale(2.0, x, out)
        np.testing.assert_allclose(out.read(), 2.0)
        assert cpu_runtime.statistics.launches[-1].tiles == 1

    def test_device_view_is_cached_until_written(self):
        rt = tiny_gles2_runtime()
        stream = rt.stream_from(np.zeros((20, 37), dtype=np.float32))
        backend = rt.backend
        first = backend.device_view(stream.storage)
        assert backend.device_view(stream.storage) is first
        stream.fill(1.0)
        assert backend.device_view(stream.storage) is not first
        np.testing.assert_allclose(stream.peek(), 1.0)

    def test_memory_report_agrees_with_device_memory(self):
        rt = tiny_gles2_runtime()
        stream = rt.stream((20, 37), name="big")
        report = rt.memory_usage_report()
        assert not stream.released
        assert report.per_stream_bytes["big"] == rt.device_memory_in_use()

    def test_memory_report_flags_tiled_stream(self):
        report = estimate_memory_usage(
            [StreamDeclaration("s", (3000, 3000), __import__(
                "repro.core.types", fromlist=["FLOAT"]).FLOAT)],
            LIMITS_2048,
        )
        assert not report.is_certifiable
        assert any("tiles it across 4 textures" in p for p in report.problems)

    def test_folded_1d_stream_is_certifiable(self):
        from repro.core.types import FLOAT
        report = estimate_memory_usage(
            [StreamDeclaration("s", (4096,), FLOAT)], LIMITS_2048)
        assert report.is_certifiable


# --------------------------------------------------------------------------- #
# Tiled launches
# --------------------------------------------------------------------------- #
class TestTiledLaunch:
    @pytest.mark.parametrize("shape", [(70,), (33,), (20, 37), (17, 16),
                                       (4, 5, 6)])
    def test_map_kernel_bit_identical_to_cpu(self, shape):
        rng = np.random.default_rng(7)
        x = rng.uniform(-10, 10, shape).astype(np.float32)
        y = rng.uniform(-10, 10, shape).astype(np.float32)
        rt = tiny_gles2_runtime()
        module = rt.compile(SAXPY)
        out = rt.stream(shape)
        module.saxpy(2.5, rt.stream_from(x), rt.stream_from(y), out)
        expected = cpu_reference(SAXPY, "saxpy", [x, y], [2.5], shape)
        np.testing.assert_array_equal(
            out.read().view(np.uint32), expected.view(np.uint32))

    @pytest.mark.parametrize("shape", [(70,), (20, 37)])
    def test_indexof_reports_global_positions(self, shape):
        rng = np.random.default_rng(8)
        x = rng.uniform(0, 1, shape).astype(np.float32)
        rt = tiny_gles2_runtime()
        module = rt.compile(INDEXED)
        out = rt.stream(shape)
        module.indexed(rt.stream_from(x), out)
        expected = cpu_reference(INDEXED, "indexed", [x], [], shape)
        np.testing.assert_array_equal(
            out.read().view(np.uint32), expected.view(np.uint32))

    def test_gather_through_tiled_stream(self):
        shape = (41,)  # prime: cannot fold, spans three 16-wide tiles
        rng = np.random.default_rng(9)
        a = rng.uniform(0, 1, shape).astype(np.float32)
        lut = rng.uniform(0, 1, shape).astype(np.float32)
        rt = tiny_gles2_runtime()
        module = rt.compile(GATHERING)
        out = rt.stream(shape)
        module.smear(rt.stream_from(a), rt.stream_from(lut), out)
        with BrookRuntime(backend="cpu") as cpu:
            m = cpu.compile(GATHERING)
            ref = cpu.stream(shape)
            m.smear(cpu.stream_from(a), cpu.stream_from(lut), ref)
            expected = ref.read()
        np.testing.assert_array_equal(
            out.read().view(np.uint32), expected.view(np.uint32))

    def test_launch_record_carries_tile_count(self):
        rt = tiny_gles2_runtime()
        module = rt.compile(SAXPY)
        x = rt.stream_from(np.ones((20, 37), dtype=np.float32))
        y = rt.stream_from(np.ones((20, 37), dtype=np.float32))
        out = rt.stream((20, 37))
        module.saxpy(1.0, x, y, out)
        record = rt.statistics.launches[-1]
        assert record.tiles == 2 * 3  # ceil(20/16) x ceil(37/16)
        assert record.passes == 6
        assert record.elements == 20 * 37
        assert rt.statistics.extra_tiles == 5
        assert rt.statistics.summary()["extra_tiles"] == 5

    def test_untiled_launch_records_one_tile(self, cpu_runtime):
        module = cpu_runtime.compile(SAXPY)
        x = cpu_runtime.stream_from(np.ones((4, 4), dtype=np.float32))
        out = cpu_runtime.stream((4, 4))
        module.saxpy(1.0, x, x, out)
        assert cpu_runtime.statistics.launches[-1].tiles == 1
        assert cpu_runtime.statistics.extra_tiles == 0

    def test_mismatched_input_shape_rejected_when_tiled(self):
        rt = tiny_gles2_runtime()
        module = rt.compile(SAXPY)
        x = rt.stream_from(np.ones((40,), dtype=np.float32))
        y_small = rt.stream_from(np.ones((8,), dtype=np.float32))
        out = rt.stream((40,))
        with pytest.raises(KernelLaunchError, match="tiled layout"):
            module.saxpy(1.0, x, y_small, out)

    def test_queue_flush_tiles_transparently(self):
        rt = tiny_gles2_runtime()
        module = rt.compile(SAXPY)
        x = rt.stream_from(np.full((41,), 2.0, dtype=np.float32))
        mid = rt.stream((41,))
        out = rt.stream((41,))
        with rt.queue() as q:
            module.saxpy(1.0, x, x, mid)
            module.saxpy(0.5, mid, x, out)
        assert q.flushed_launches == 2
        np.testing.assert_allclose(out.read(), 0.5 * 4.0 + 2.0)
        assert all(r.tiles == 3 for r in rt.statistics.launches)


class TestTiledVectorStreams:
    """A ``float2`` stream tiled on a 16-element CAL device: every part
    carries the trailing component axis through write, launch and read."""

    def test_float2_tiles_match_cpu_bitwise(self):
        shape = (40, 37)
        rng = np.random.default_rng(7)
        a, b = ((rng.integers(0, 50, shape + (2,)) / 4.0).astype(np.float32)
                for _ in range(2))

        def run(rt):
            module = rt.compile(VMIX)
            streams = [rt.stream_from(a, element_width=2),
                       rt.stream_from(b, element_width=2),
                       rt.stream(shape, element_width=2)]
            module.vmix(*streams)
            return streams[2].read(), streams

        with BrookRuntime(backend="cpu") as cpu:
            reference, _ = run(cpu)
        rt = tiny_cal_runtime(16)
        result, streams = run(rt)
        assert isinstance(streams[2].storage, TiledStorage)
        assert len(streams[2].storage.parts) == 9     # 3 x 3 tiles
        assert result.shape == shape + (2,)
        assert result.tobytes() == reference.tobytes()

        nbytes = 40 * 37 * 2 * 4
        assert [(t.direction, t.bytes, t.elements, t.calls)
                for t in rt.statistics.transfers] == [
            ("upload", nbytes, 1480, 9), ("upload", nbytes, 1480, 9),
            ("download", nbytes, 1480, 9)]
        (record,) = rt.statistics.launches
        assert (record.kernel, record.elements, record.passes,
                record.tiles) == ("vmix", 1480, 9, 9)
        assert rt.device_memory_in_use() == 3 * nbytes
        for stream in streams:
            stream.release()
        assert rt.device_memory_in_use() == 0
        rt.close()


# --------------------------------------------------------------------------- #
# Tiled reductions
# --------------------------------------------------------------------------- #
class TestTiledReduction:
    @pytest.mark.parametrize("shape", [(41,), (33, 21), (20, 37)])
    def test_tiled_reduce_matches_numpy(self, shape):
        rng = np.random.default_rng(11)
        data = rng.uniform(0, 1, shape).astype(np.float32)
        rt = tiny_gles2_runtime()
        module = rt.compile(TOTAL)
        value = module.total(rt.stream_from(data))
        assert value == pytest.approx(float(data.sum()), rel=1e-4)
        record = rt.statistics.launches[-1]
        assert record.reduction
        assert record.tiles > 1

    def test_reduce_into_tiled_input(self):
        rt = tiny_gles2_runtime()
        module = rt.compile(TOTAL)
        data = np.arange(32 * 32, dtype=np.float32).reshape(32, 32) / 1024.0
        acc = rt.stream((2, 2))
        module.total(rt.stream_from(data), acc)
        blocks = data.reshape(2, 16, 2, 16).sum(axis=(1, 3))
        np.testing.assert_allclose(acc.read(), blocks, rtol=1e-3)

    def test_reduce_into_tiled_output_rejected(self):
        rt = tiny_gles2_runtime()
        module = rt.compile(TOTAL)
        big_in = rt.stream((64, 64))
        tiled_out = rt.stream((32, 32))  # exceeds the 16-texel limit itself
        with pytest.raises(KernelLaunchError, match="texture limit"):
            module.total(big_in, tiled_out)

    @pytest.mark.parametrize("shape", [(7,), (13, 5), (3, 17), (7, 11)])
    def test_odd_extent_rgba8_reduction(self, shape, gles2_runtime, rng):
        """Odd / non-power-of-two extents through the RGBA8-quantized
        multipass reduction path (previously untested behaviour)."""
        data = rng.uniform(0, 2, shape).astype(np.float32)
        module = gles2_runtime.compile(TOTAL)
        value = module.total(gles2_runtime.stream_from(data))
        assert value == pytest.approx(float(data.sum()), rel=1e-4)


# --------------------------------------------------------------------------- #
# Fusion composes with tiling
# --------------------------------------------------------------------------- #
class TestTiledFusion:
    PIPELINE = SAXPY + "\n" + \
        "kernel void offset(float x<>, float b, out float r<>) { r = x + b; }"

    def test_fused_pipeline_tiles(self):
        rt = tiny_gles2_runtime()
        module = rt.compile(self.PIPELINE)
        shape = (41,)  # prime: tiles instead of folding
        x = rt.stream_from(np.full(shape, 3.0, dtype=np.float32))
        mid = rt.stream(shape)
        out = rt.stream(shape)
        pipeline = rt.fuse([
            module.saxpy.bind(2.0, x, x, mid),
            module.offset.bind(mid, 1.0, out),
        ])
        assert pipeline.pass_count == 1
        pipeline.launch()
        np.testing.assert_allclose(out.read(), 2.0 * 3.0 + 3.0 + 1.0)
        record = rt.statistics.launches[-1]
        assert record.fused == 2
        assert record.tiles == 3
        assert record.passes == 3

    def test_fused_pipeline_tiles_per_launch(self):
        rt = tiny_gles2_runtime()
        module = rt.compile(self.PIPELINE)
        shape = (41,)
        x = rt.stream_from(np.full(shape, 1.0, dtype=np.float32))
        mid = rt.stream(shape)
        out = rt.stream(shape)
        pipeline = rt.fuse([module.saxpy.bind(1.0, x, x, mid),
                            module.offset.bind(mid, 5.0, out)])
        # The fused plan resolves its tile plan once; every launch tiles.
        for _ in range(2):
            pipeline.launch()
            np.testing.assert_allclose(out.read(), 2.0 + 5.0)
            assert rt.statistics.launches[-1].fused == 2
            assert rt.statistics.launches[-1].tiles == 3


# --------------------------------------------------------------------------- #
# Timing model integration
# --------------------------------------------------------------------------- #
class TestTilingOverheadPricing:
    PARAMS = GPUCostParameters(
        name="t", effective_gflops=1.0, transfer_gib_per_s=1.0,
        pass_overhead_us=100.0, texture_fetch_ns=1.0, fill_rate_mpixels=100.0,
        tile_switch_overhead_us=50.0,
    )

    def test_tiling_overhead_term(self):
        model = GPUModel(self.PARAMS)
        assert model.tiling_overhead(0) == 0.0
        assert model.tiling_overhead(4) == pytest.approx(4 * 50.0e-6)
        with pytest.raises(Exception):
            model.tiling_overhead(-1)

    def test_workload_picks_up_tile_switches(self):
        rt = tiny_gles2_runtime()
        module = rt.compile(SAXPY)
        x = rt.stream_from(np.ones((41,), dtype=np.float32))
        out = rt.stream((41,))
        module.saxpy(1.0, x, x, out)
        workload = GPUWorkload.from_statistics(rt.statistics)
        assert workload.tile_switches == 2
        model = GPUModel(self.PARAMS)
        untiled = GPUWorkload(**{**vars(workload), "tile_switches": 0})
        assert model.kernel_time(workload) == pytest.approx(
            model.kernel_time(untiled) + model.tiling_overhead(2))


# --------------------------------------------------------------------------- #
# Satellite: in-place launches
# --------------------------------------------------------------------------- #
class TestInPlaceLaunches:
    @pytest.mark.parametrize("backend", ["cpu", "gles2"])
    def test_in_place_map_kernel(self, backend):
        rng = np.random.default_rng(13)
        data = rng.uniform(-4, 4, (6, 9)).astype(np.float32)
        rt = BrookRuntime(backend=backend)
        module = rt.compile(SCALE)
        stream = rt.stream_from(data)
        module.scale(2.0, stream, stream)
        np.testing.assert_array_equal(
            stream.read().view(np.uint32),
            (np.float32(2.0) * data).view(np.uint32))

    def test_in_place_on_tiled_domain(self):
        data = np.arange(41, dtype=np.float32) + 1.0
        rt = tiny_gles2_runtime()
        module = rt.compile(SCALE)
        stream = rt.stream_from(data)
        module.scale(3.0, stream, stream)
        np.testing.assert_array_equal(stream.read(), 3.0 * data)


# --------------------------------------------------------------------------- #
# Satellite: int scalar truncation guard
# --------------------------------------------------------------------------- #
class TestIntScalarCoercion:
    def test_fractional_value_for_int_parameter_raises(self, cpu_runtime):
        module = cpu_runtime.compile(SHIFT)
        x = cpu_runtime.stream_from(np.zeros(4, dtype=np.float32))
        out = cpu_runtime.stream((4,))
        with pytest.raises(KernelLaunchError, match="'n'.*fractional"):
            module.shift(x, 2.7, out)

    def test_whole_float_accepted_for_int_parameter(self, cpu_runtime):
        module = cpu_runtime.compile(SHIFT)
        x = cpu_runtime.stream_from(np.zeros(4, dtype=np.float32))
        out = cpu_runtime.stream((4,))
        module.shift(x, 3.0, out)
        np.testing.assert_allclose(out.read(), 3.0)
        module.shift(x, np.int64(2), out)
        np.testing.assert_allclose(out.read(), 2.0)

    def test_fractional_float_parameter_still_fine(self, cpu_runtime):
        module = cpu_runtime.compile(SCALE)
        x = cpu_runtime.stream_from(np.ones(4, dtype=np.float32))
        out = cpu_runtime.stream((4,))
        module.scale(2.5, x, out)
        np.testing.assert_allclose(out.read(), 2.5)


# --------------------------------------------------------------------------- #
# Acceptance-scale shapes (the issue's scenarios, real device limits)
# --------------------------------------------------------------------------- #
class TestAcceptanceScale:
    def test_4096_vector_on_videocore(self, gles2_runtime):
        shape = (4096,)
        rng = np.random.default_rng(17)
        x = rng.uniform(-10, 10, shape).astype(np.float32)
        y = rng.uniform(-10, 10, shape).astype(np.float32)
        module = gles2_runtime.compile(SAXPY + "\n" + TOTAL)
        out = gles2_runtime.stream(shape)
        module.saxpy(2.0, gles2_runtime.stream_from(x),
                     gles2_runtime.stream_from(y), out)
        expected = cpu_reference(SAXPY, "saxpy", [x, y], [2.0], shape)
        np.testing.assert_array_equal(
            out.read().view(np.uint32), expected.view(np.uint32))
        value = module.total(gles2_runtime.stream_from(np.abs(x)))
        assert value == pytest.approx(float(np.abs(x).sum()), rel=1e-4)

    def test_3000_square_on_videocore(self, gles2_runtime):
        shape = (3000, 3000)
        rng = np.random.default_rng(19)
        x = rng.uniform(0, 10, shape).astype(np.float32)
        module = gles2_runtime.compile(SCALE + "\n" + TOTAL)
        stream = gles2_runtime.stream_from(x)
        out = gles2_runtime.stream(shape)
        module.scale(1.5, stream, out)
        expected = cpu_reference(SCALE, "scale", [x], [1.5], shape)
        np.testing.assert_array_equal(
            out.read().view(np.uint32), expected.view(np.uint32))
        assert gles2_runtime.statistics.launches[-1].tiles == 4
        value = module.total(stream)
        assert value == pytest.approx(float(x.sum()), rel=1e-3)


# --------------------------------------------------------------------------- #
# Gather snapshot semantics (regression lock)
# --------------------------------------------------------------------------- #
SHIFT_LEFT = (
    "kernel void shiftl(float src[][], float w, float h, out float dst<>) {"
    " float2 p = indexof(dst);"
    " dst = src[p.y][max(p.x - 1.0, 0.0)] + 1.0; }")
SHIFT_UP = (
    "kernel void shiftu(float src[][], float w, float h, out float dst<>) {"
    " float2 p = indexof(dst);"
    " dst = src[max(p.y - 1.0, 0.0)][p.x] * 2.0; }")
DOUBLE = "kernel void double_px(float x<>, out float y<>) { y = x * 2.0; }"


class TestGatherSnapshotSemantics:
    """``launch_tiled`` takes ONE gather snapshot per logical launch.

    For an in-place launch (the gather source is also the output
    stream) every tile pass must observe the pre-launch data, exactly
    as the untiled backends do - a later tile must never read an
    earlier tile's freshly written texels.  And a gather source written
    by an *earlier* launch of the same command-queue flush must be
    re-snapshot, not served from a stale memoised view.  These tests
    lock the audited behaviour against regressions (the shift
    directions are chosen so tile N+1 reads cells tile N already
    wrote - a stale or rebuilt snapshot changes the answer).
    """

    @pytest.mark.parametrize("source,kernel", [(SHIFT_LEFT, "shiftl"),
                                               (SHIFT_UP, "shiftu")])
    def test_in_place_tiled_gather_reads_pre_launch_snapshot(
            self, source, kernel):
        data = (np.arange(20 * 20, dtype=np.float32).reshape(20, 20) % 97)
        results = {}
        for label, limit in (("untiled", 64), ("tiled", 16)):
            with tiny_gles2_runtime(limit) as rt:
                module = rt.compile(source)
                stream = rt.stream_from(data, name="s")
                module.kernel(kernel)(stream, 20.0, 20.0, stream)
                results[label] = stream.read()
        np.testing.assert_array_equal(
            results["untiled"].view(np.uint32),
            results["tiled"].view(np.uint32))

    def test_gather_written_earlier_in_same_flush_is_fresh(self):
        data = (np.arange(20 * 20, dtype=np.float32).reshape(20, 20) % 53)
        results = {}
        for label, limit in (("untiled", 64), ("tiled", 16)):
            with tiny_gles2_runtime(limit) as rt:
                module = rt.compile(SHIFT_UP + DOUBLE)
                stream = rt.stream_from(data, name="s")
                out = rt.stream((20, 20), name="o")
                with rt.queue():
                    module.double_px(stream, stream)   # writes s in place
                    module.shiftu(stream, 20.0, 20.0, out)  # gathers from s
                results[label] = out.read()
        np.testing.assert_array_equal(
            results["untiled"].view(np.uint32),
            results["tiled"].view(np.uint32))

    def test_in_place_tiled_gather_matches_cpu_reference(self):
        data = (np.arange(24 * 24, dtype=np.float32).reshape(24, 24) % 31)
        with BrookRuntime(backend="cpu") as cpu:
            module = cpu.compile(SHIFT_UP)
            stream = cpu.stream_from(data)
            module.shiftu(stream, 24.0, 24.0, stream)
            expected = stream.read()
        with tiny_gles2_runtime(16) as rt:
            module = rt.compile(SHIFT_UP)
            stream = rt.stream_from(data)
            module.shiftu(stream, 24.0, 24.0, stream)
            tiled = stream.read()
        # Integer-valued inputs small enough to survive the RGBA8 round
        # trip exactly, so the comparison is bitwise.
        np.testing.assert_array_equal(expected.view(np.uint32),
                                      tiled.view(np.uint32))
