"""Tests for the Brook runtime: streams, kernel handles, reductions, backends."""

import numpy as np
import pytest

from repro.backends import CALBackend, CPUBackend, GLES2Backend, create_backend
from repro.errors import (
    BackendError,
    CertificationError,
    KernelLaunchError,
    StreamError,
)
from repro.runtime import BrookRuntime
from repro.runtime.reduction import multipass_reduce
from repro.core.compiler import compile_source


SAXPY = "kernel void saxpy(float a, float x<>, float y<>, out float r<>) { r = a * x + y; }"


class TestBackendFactory:
    def test_create_by_name(self):
        assert isinstance(create_backend("cpu"), CPUBackend)
        assert isinstance(create_backend("gles2"), GLES2Backend)
        assert isinstance(create_backend("cal"), CALBackend)

    def test_aliases(self):
        assert isinstance(create_backend("host"), CPUBackend)
        assert isinstance(create_backend("opengl-es2"), GLES2Backend)
        assert isinstance(create_backend("brook+"), CALBackend)

    def test_unknown_backend_rejected(self):
        with pytest.raises(ValueError):
            create_backend("vulkan")

    def test_gles2_device_selection(self):
        backend = create_backend("gles2", "mali-400")
        assert backend.device.name == "mali-400"
        assert backend.target_limits().max_texture_size == 4096

    def test_target_limits_differ_per_backend(self):
        assert create_backend("cpu").target_limits().max_kernel_outputs > 1
        assert create_backend("gles2").target_limits().max_kernel_outputs == 1
        assert create_backend("cal").target_limits().supports_float_textures


class TestStreams:
    def test_stream_shape_and_read_back(self, any_runtime):
        stream = any_runtime.stream((4, 6), name="s")
        assert stream.dims == (4, 6)
        assert stream.element_count == 24
        np.testing.assert_array_equal(stream.read(), np.zeros((4, 6)))

    def test_stream_from_data(self, any_runtime):
        data = np.random.default_rng(0).uniform(-5, 5, (8, 8)).astype(np.float32)
        stream = any_runtime.stream_from(data)
        np.testing.assert_array_equal(stream.read(), data)

    def test_write_validates_shape(self, any_runtime):
        stream = any_runtime.stream((4, 4))
        with pytest.raises((StreamError, KernelLaunchError)):
            stream.write(np.zeros((2, 2), dtype=np.float32))

    def test_streams_are_statically_sized(self, any_runtime):
        stream = any_runtime.stream((4, 4))
        # There is deliberately no resize API on a stream handle.
        assert not hasattr(stream, "resize")

    def test_fill(self, any_runtime):
        stream = any_runtime.stream((3, 3))
        stream.fill(7.5)
        np.testing.assert_array_equal(stream.read(), np.full((3, 3), 7.5))

    def test_1d_and_3d_streams(self, any_runtime):
        one_d = any_runtime.stream_from(np.arange(10, dtype=np.float32))
        three_d = any_runtime.stream_from(
            np.arange(24, dtype=np.float32).reshape(2, 3, 4))
        np.testing.assert_array_equal(one_d.read(), np.arange(10))
        assert three_d.read().shape == (2, 3, 4)

    def test_gles2_rejects_vector_streams(self, gles2_runtime):
        with pytest.raises(BackendError):
            gles2_runtime.stream((4, 4), element_width=4)

    def test_cal_supports_vector_streams(self, cal_runtime):
        data = np.random.default_rng(0).uniform(size=(4, 4, 4)).astype(np.float32)
        stream = cal_runtime.stream_from(data, element_width=4)
        np.testing.assert_array_equal(stream.read(), data)

    def test_iterator_stream(self, cpu_runtime):
        iterator = cpu_runtime.iterator(8, 0.0, 8.0)
        np.testing.assert_allclose(iterator.read(), np.arange(8, dtype=np.float32))

    def test_transfer_statistics_recorded(self, gles2_runtime):
        stream = gles2_runtime.stream((8, 8))
        stream.write(np.ones((8, 8), dtype=np.float32))
        stream.read()
        stats = gles2_runtime.statistics
        assert stats.bytes_uploaded == 8 * 8 * 4
        assert stats.bytes_downloaded == 8 * 8 * 4

    def test_memory_usage_report(self, gles2_runtime):
        stream = gles2_runtime.stream((100, 100), name="padded")
        report = gles2_runtime.memory_usage_report()
        assert report.per_stream_bytes["padded"] == 128 * 128 * 4
        # Releasing the stream removes it from the report (live streams only).
        stream.release()
        assert "padded" not in gles2_runtime.memory_usage_report().per_stream_bytes

    def test_device_memory_in_use(self, gles2_runtime):
        stream = gles2_runtime.stream((64, 64))
        assert gles2_runtime.device_memory_in_use() >= 64 * 64 * 4
        stream.release()
        assert gles2_runtime.device_memory_in_use() == 0

    def test_gles2_quantization_visible_via_peek(self, gles2_runtime):
        values = np.array([[1.0, 1e-39], [2.5, -3.0]], dtype=np.float32)
        stream = gles2_runtime.stream_from(values)
        peeked = stream.peek()
        assert peeked[0, 1] == 0.0          # denormal flushed by RGBA8 storage
        assert peeked[0, 0] == 1.0


class TestKernelLaunches:
    def test_saxpy_on_every_backend(self, any_runtime):
        module = any_runtime.compile(SAXPY)
        x = np.random.default_rng(0).uniform(-1, 1, (8, 8)).astype(np.float32)
        y = np.random.default_rng(1).uniform(-1, 1, (8, 8)).astype(np.float32)
        sx, sy = any_runtime.stream_from(x), any_runtime.stream_from(y)
        out = any_runtime.stream((8, 8))
        module.saxpy(3.0, sx, sy, out)
        np.testing.assert_allclose(out.read(), 3.0 * x + y, rtol=1e-6)

    def test_kernel_accessible_by_attribute_and_name(self, cpu_runtime):
        module = cpu_runtime.compile(SAXPY)
        assert module.saxpy is module.kernel("saxpy")
        assert module.kernel_names == ["saxpy"]
        with pytest.raises(KeyError):
            module.kernel("other")
        with pytest.raises(AttributeError):
            _ = module.other

    def test_keyword_arguments(self, cpu_runtime):
        module = cpu_runtime.compile(SAXPY)
        x = cpu_runtime.stream_from(np.ones((4, 4), dtype=np.float32))
        y = cpu_runtime.stream_from(np.ones((4, 4), dtype=np.float32))
        out = cpu_runtime.stream((4, 4))
        module.saxpy(2.0, x, y=y, r=out)
        np.testing.assert_allclose(out.read(), 3.0)

    def test_missing_argument_rejected(self, cpu_runtime):
        module = cpu_runtime.compile(SAXPY)
        x = cpu_runtime.stream_from(np.ones((4, 4), dtype=np.float32))
        with pytest.raises(KernelLaunchError):
            module.saxpy(2.0, x)

    def test_too_many_arguments_rejected(self, cpu_runtime):
        module = cpu_runtime.compile(SAXPY)
        x = cpu_runtime.stream_from(np.ones((4, 4), dtype=np.float32))
        out = cpu_runtime.stream((4, 4))
        with pytest.raises(KernelLaunchError):
            module.saxpy(2.0, x, x, out, out)

    def test_stream_expected_but_number_given(self, cpu_runtime):
        module = cpu_runtime.compile(SAXPY)
        x = cpu_runtime.stream_from(np.ones((4, 4), dtype=np.float32))
        out = cpu_runtime.stream((4, 4))
        with pytest.raises(KernelLaunchError):
            module.saxpy(2.0, 5.0, x, out)

    def test_number_expected_but_stream_given(self, cpu_runtime):
        module = cpu_runtime.compile(SAXPY)
        x = cpu_runtime.stream_from(np.ones((4, 4), dtype=np.float32))
        out = cpu_runtime.stream((4, 4))
        with pytest.raises(KernelLaunchError):
            module.saxpy(x, x, x, out)

    def test_mismatched_output_shapes_rejected(self, cpu_runtime):
        source = (
            "kernel void two(float a<>, out float x<>, out float y<>) {"
            " x = a; y = a; }"
        )
        module = cpu_runtime.compile(source)
        a = cpu_runtime.stream_from(np.ones((4, 4), dtype=np.float32))
        x = cpu_runtime.stream((4, 4))
        y = cpu_runtime.stream((2, 2))
        with pytest.raises(KernelLaunchError):
            module.two(a, x, y)

    def test_non_compliant_source_rejected_by_default(self, gles2_runtime):
        with pytest.raises(CertificationError):
            gles2_runtime.compile(
                "kernel void f(float *p, out float o<>) { o = 1.0; }"
            )

    def test_non_strict_compilation_produces_report(self, cpu_runtime):
        module = cpu_runtime.compile(
            "kernel void f(float a<>, out float o<>) { o = a; goto x; }",
            strict=False,
        )
        assert not module.certification.is_compliant

    def test_split_kernel_runs_both_passes_on_gles2(self, gles2_runtime):
        source = (
            "kernel void two(float a<>, out float plus<>, out float minus<>) {"
            " plus = a + 1.0; minus = a - 1.0; }"
        )
        module = gles2_runtime.compile(source)
        a_host = np.arange(16, dtype=np.float32).reshape(4, 4)
        a = gles2_runtime.stream_from(a_host)
        plus, minus = gles2_runtime.stream((4, 4)), gles2_runtime.stream((4, 4))
        module.two(a, plus, minus)
        np.testing.assert_allclose(plus.read(), a_host + 1.0)
        np.testing.assert_allclose(minus.read(), a_host - 1.0)
        assert gles2_runtime.statistics.total_passes == 2

    def test_gather_and_indexof_kernel(self, any_runtime):
        source = (
            "kernel void gather(float a<>, float lut[], out float o<>) {"
            " float2 p = indexof(a); o = a + lut[p.x]; }"
        )
        module = any_runtime.compile(source)
        a_host = np.zeros((4, 8), dtype=np.float32)
        lut_host = np.arange(8, dtype=np.float32) * 10
        a = any_runtime.stream_from(a_host)
        lut = any_runtime.stream_from(lut_host)
        out = any_runtime.stream((4, 8))
        module.gather(a, lut, out)
        expected = np.tile(lut_host, (4, 1))
        np.testing.assert_allclose(out.read(), expected)

    def test_launch_statistics_accumulate(self, cpu_runtime):
        module = cpu_runtime.compile(SAXPY)
        x = cpu_runtime.stream_from(np.ones((8, 8), dtype=np.float32))
        y = cpu_runtime.stream_from(np.ones((8, 8), dtype=np.float32))
        out = cpu_runtime.stream((8, 8))
        module.saxpy(1.0, x, y, out)
        module.saxpy(2.0, x, y, out)
        stats = cpu_runtime.statistics
        assert stats.total_passes == 2
        assert stats.total_elements == 128
        assert stats.total_flops > 0
        cpu_runtime.reset_statistics()
        assert cpu_runtime.statistics.total_passes == 0

    @pytest.mark.parametrize("backend,devices", [
        ("cal", 1), ("gles2", 1), ("cal", 2), ("gles2", 2),
    ], ids=["cal", "gles2", "cal-2dev", "gles2-2dev"])
    def test_reset_statistics_reaches_the_device_counters(self, backend,
                                                          devices):
        """Run statistics and the device contexts' own counters describe
        the same work, so a reset clears both."""
        counter = {"cal": "total_dispatches",
                   "gles2": "total_draw_calls"}[backend]

        with BrookRuntime(backend=backend, devices=devices) as rt:
            contexts = [device.context for device in
                        getattr(rt.backend, "devices", [rt.backend])]

            def dispatches():
                return sum(getattr(context, counter) for context in contexts)

            module = rt.compile(SAXPY)
            x = rt.stream_from(np.ones((8, 8), dtype=np.float32))
            out = rt.stream((8, 8))
            for _ in range(3):
                module.saxpy(1.0, x, x, out)
            out.read()
            assert dispatches() == 3 * devices
            rt.reset_statistics()
            assert rt.statistics.total_passes == 0
            assert dispatches() == 0
            for context in contexts:
                assert context.transfers.bytes_uploaded == 0
                assert context.transfers.bytes_downloaded == 0
            module.saxpy(1.0, x, x, out)
            assert dispatches() == rt.statistics.total_passes == devices

    def test_per_kernel_aggregation(self, cpu_runtime):
        module = cpu_runtime.compile(SAXPY)
        x = cpu_runtime.stream_from(np.ones((4, 4), dtype=np.float32))
        y = cpu_runtime.stream_from(np.ones((4, 4), dtype=np.float32))
        out = cpu_runtime.stream((4, 4))
        module.saxpy(1.0, x, y, out)
        module.saxpy(1.0, x, y, out)
        aggregated = cpu_runtime.statistics.per_kernel()
        assert aggregated["saxpy"].passes == 2


class TestReductions:
    SUM = "reduce void total(float v<>, reduce float acc) { acc += v; }"
    MAXIMUM = "reduce void peak(float v<>, reduce float acc) { acc = max(acc, v); }"

    def test_sum_reduction_matches_numpy(self, any_runtime):
        module = any_runtime.compile(self.SUM)
        data = np.random.default_rng(3).uniform(0, 1, (16, 16)).astype(np.float32)
        stream = any_runtime.stream_from(data)
        result = module.total(stream)
        assert result == pytest.approx(float(data.sum()), rel=1e-4)

    def test_max_reduction(self, any_runtime):
        module = any_runtime.compile(self.MAXIMUM)
        data = np.random.default_rng(4).uniform(-10, 10, (8, 8)).astype(np.float32)
        stream = any_runtime.stream_from(data)
        assert module.peak(stream) == pytest.approx(float(data.max()), rel=1e-6)

    def test_reduction_of_single_element(self, cpu_runtime):
        module = cpu_runtime.compile(self.SUM)
        stream = cpu_runtime.stream_from(np.array([42.0], dtype=np.float32))
        assert module.total(stream) == pytest.approx(42.0)

    def test_reduction_writes_optional_output_stream(self, cpu_runtime):
        module = cpu_runtime.compile(self.SUM)
        data = np.ones((4, 4), dtype=np.float32)
        stream = cpu_runtime.stream_from(data)
        accumulator = cpu_runtime.stream((1,))
        module.total(stream, accumulator)
        assert accumulator.read()[0] == pytest.approx(16.0)

    def test_reduction_records_multipass_statistics(self, gles2_runtime):
        module = gles2_runtime.compile(self.SUM)
        stream = gles2_runtime.stream_from(np.ones((16, 16), dtype=np.float32))
        module.total(stream)
        record = gles2_runtime.statistics.launches[-1]
        assert record.reduction
        assert record.passes == 4    # 16x16 -> 8x8 -> 4x4 -> 2x2 -> 1x1

    def test_reduction_on_non_square_stream(self, cpu_runtime):
        module = cpu_runtime.compile(self.SUM)
        data = np.arange(24, dtype=np.float32).reshape(3, 8)
        stream = cpu_runtime.stream_from(data)
        assert module.total(stream) == pytest.approx(float(data.sum()))

    def test_multipass_reduce_engine_directly(self):
        kernel = compile_source(self.SUM).kernel("total")
        data = np.arange(35, dtype=np.float32).reshape(5, 7)
        result = multipass_reduce(kernel, {}, data)
        assert result.value == pytest.approx(float(data.sum()))
        assert result.passes == 3
        assert result.elements_processed > 0

    def test_multipass_reduce_pass_bound(self, monkeypatch):
        from repro.runtime import reduction
        monkeypatch.setattr(reduction, "MAX_PASSES", 2)
        kernel = compile_source(self.SUM).kernel("total")
        data = np.ones((5, 7), dtype=np.float32)   # needs 3 passes
        with pytest.raises(KernelLaunchError, match="did not converge"):
            multipass_reduce(kernel, {}, data)


class TestPartialReductions:
    SUM = "reduce void total(float v<>, reduce float acc) { acc += v; }"
    MAXIMUM = "reduce void peak(float v<>, reduce float acc) { acc = max(acc, v); }"

    def test_row_sums(self, any_runtime):
        module = any_runtime.compile(self.SUM)
        data = np.arange(64, dtype=np.float32).reshape(8, 8)
        stream = any_runtime.stream_from(data)
        rows = any_runtime.stream((8, 1))
        result = module.total(stream, rows)
        np.testing.assert_allclose(result.reshape(-1), data.sum(axis=1), rtol=1e-5)
        np.testing.assert_allclose(rows.read().reshape(-1), data.sum(axis=1),
                                   rtol=1e-5)

    def test_column_sums(self, any_runtime):
        module = any_runtime.compile(self.SUM)
        data = np.arange(32, dtype=np.float32).reshape(4, 8)
        stream = any_runtime.stream_from(data)
        cols = any_runtime.stream((1, 8))
        result = module.total(stream, cols)
        np.testing.assert_allclose(result.reshape(-1), data.sum(axis=0), rtol=1e-5)

    def test_block_maximum(self, any_runtime):
        module = any_runtime.compile(self.MAXIMUM)
        data = np.random.default_rng(5).uniform(-50, 50, (8, 8)).astype(np.float32)
        stream = any_runtime.stream_from(data)
        blocks = any_runtime.stream((2, 2))
        result = module.peak(stream, blocks)
        expected = data.reshape(2, 4, 2, 4).max(axis=(1, 3))
        np.testing.assert_allclose(result, expected, rtol=1e-6)

    def test_partial_reduction_records_statistics(self, gles2_runtime):
        module = gles2_runtime.compile(self.SUM)
        stream = gles2_runtime.stream_from(np.ones((16, 16), dtype=np.float32))
        target = gles2_runtime.stream((4, 4))
        module.total(stream, target)
        record = gles2_runtime.statistics.launches[-1]
        assert record.reduction
        assert record.passes >= 2
        np.testing.assert_allclose(target.read(), 16.0)

    def test_non_dividing_output_shape_rejected(self, cpu_runtime):
        module = cpu_runtime.compile(self.SUM)
        stream = cpu_runtime.stream_from(np.ones((8, 8), dtype=np.float32))
        target = cpu_runtime.stream((3, 3))
        with pytest.raises(KernelLaunchError):
            module.total(stream, target)

    def test_partial_reduce_engine_directly(self):
        from repro.runtime.reduction import partial_reduce
        kernel = compile_source(self.SUM).kernel("total")
        data = np.arange(24, dtype=np.float32).reshape(4, 6)
        result = partial_reduce(kernel, {}, data, (2, 3))
        expected = data.reshape(2, 2, 3, 2).sum(axis=(1, 3))
        np.testing.assert_allclose(result.values, expected)
        assert result.passes >= 1
        assert result.elements_processed == 24
