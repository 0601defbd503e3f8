"""Edge-case tests for backends and target-dependent certification."""

import numpy as np
import pytest

from repro.apps import get_application, list_applications
from repro.core import compile_source
from repro.errors import BackendError, CertificationError, KernelLaunchError
from repro.gles2.device import get_device_profile
from repro.runtime import BrookRuntime
from repro.runtime.shape import StreamShape


class TestTargetDependentCertification:
    """The same source can be certifiable for one device and not another -
    certification is always relative to a target's limits."""

    def test_constrained_device_rejects_wide_kernels(self):
        constrained = get_device_profile("constrained-es2").limits.to_target_limits()
        params = ", ".join(f"float s{i}<>" for i in range(4)) + ", out float o<>"
        body = "o = " + " + ".join(f"s{i}" for i in range(4)) + ";"
        source = f"kernel void wide({params}) {{ {body} }}"
        # Fine on the default VideoCore IV profile (8 texture units)...
        assert compile_source(source).is_certified
        # ...but over the 2 texture units of the constrained device.
        with pytest.raises(CertificationError):
            compile_source(source, target=constrained)

    def test_constrained_device_rejects_long_kernels(self):
        constrained = get_device_profile("constrained-es2").limits.to_target_limits()
        body = "o = a;" + " o = o * 1.001 + 0.01;" * 200
        source = f"kernel void long_kernel(float a<>, out float o<>) {{ {body} }}"
        # Fits the VideoCore IV instruction budget (2048 slots)...
        assert compile_source(source).is_certified
        # ...but not the 256 slots of the constrained device.
        program = compile_source(source, target=constrained, strict=False)
        assert not program.is_certified
        assert program.certification.violations_for_rule("BA-009")

    def test_suite_certifiable_for_both_embedded_devices(self):
        for device in ("videocore-iv", "mali-400"):
            target = get_device_profile(device).limits.to_target_limits()
            for name in list_applications():
                app = get_application(name)
                program = compile_source(app.brook_source, target=target,
                                         range_specs=app.range_specs,
                                         strict=False)
                assert program.is_certified, f"{name} on {device}"


class TestGLES2BackendEdges:
    def test_launch_rejects_multiple_outputs(self, gles2_runtime):
        backend = gles2_runtime.backend
        module = gles2_runtime.compile(
            "kernel void one(float a<>, out float o<>) { o = a; }"
        )
        kernel = module.program.kernel("one")
        a = gles2_runtime.stream((4, 4))
        o1 = gles2_runtime.stream((4, 4))
        o2 = gles2_runtime.stream((4, 4))
        with pytest.raises(BackendError):
            backend.launch(kernel, {}, StreamShape.of((4, 4)),
                           {"a": a}, {}, {}, {"o": o1, "extra": o2})

    def test_stream_larger_than_texture_limit_is_tiled(self, gles2_runtime):
        """A stream exceeding GL_MAX_TEXTURE_SIZE used to raise at
        allocation; the tiled execution engine now backs it with one
        texture per device-sized tile."""
        from repro.runtime.tiling import TiledStorage
        stream = gles2_runtime.stream((4096, 4096))
        assert isinstance(stream.storage, TiledStorage)
        assert len(stream.storage.parts) == 4
        for tile_storage in stream.storage.parts:
            assert tile_storage.texture.width <= 2048
            assert tile_storage.texture.height <= 2048

    def test_mali_device_allows_larger_streams(self):
        runtime = BrookRuntime(backend="gles2", device="mali-400")
        stream = runtime.stream((4096, 2048))
        assert stream.element_count == 4096 * 2048

    def test_out_of_bounds_gather_does_not_crash_gles2(self, gles2_runtime):
        """The availability argument of section 4: a stray access through
        the texture unit clamps instead of faulting."""
        module = gles2_runtime.compile(
            "kernel void stray(float a<>, float lut[], out float o<>) {"
            " o = lut[indexof(a).x + 1000.0]; }"
        )
        a = gles2_runtime.stream_from(np.zeros((4, 4), dtype=np.float32))
        lut = gles2_runtime.stream_from(np.arange(16, dtype=np.float32))
        out = gles2_runtime.stream((4, 4))
        module.stray(a, lut, out)          # must not raise
        np.testing.assert_allclose(out.read(), 15.0)

    def test_same_stray_access_faults_on_cpu_backend(self, cpu_runtime):
        from repro.errors import StreamError
        module = cpu_runtime.compile(
            "kernel void stray(float a<>, float lut[], out float o<>) {"
            " o = lut[indexof(a).x + 1000.0]; }"
        )
        a = cpu_runtime.stream_from(np.zeros((4, 4), dtype=np.float32))
        lut = cpu_runtime.stream_from(np.arange(16, dtype=np.float32))
        out = cpu_runtime.stream((4, 4))
        with pytest.raises(StreamError):
            module.stray(a, lut, out)

    def test_input_stream_smaller_than_domain_resamples_on_gles2(self, gles2_runtime):
        """Brook stretches mismatched stream shapes through normalized
        sampling; the GL ES 2 backend inherits that behaviour."""
        module = gles2_runtime.compile(
            "kernel void copy(float a<>, out float o<>) { o = a; }"
        )
        a = gles2_runtime.stream_from(
            np.arange(4, dtype=np.float32).reshape(2, 2))
        out = gles2_runtime.stream((4, 4))
        module.copy(a, out)
        result = out.read()
        assert result.shape == (4, 4)
        assert set(np.unique(result)) <= {0.0, 1.0, 2.0, 3.0}

    def test_cpu_backend_rejects_mismatched_domains(self, cpu_runtime):
        from repro.errors import KernelLaunchError
        module = cpu_runtime.compile(
            "kernel void copy(float a<>, out float o<>) { o = a; }"
        )
        a = cpu_runtime.stream_from(np.zeros((2, 2), dtype=np.float32))
        out = cpu_runtime.stream((4, 4))
        with pytest.raises(KernelLaunchError):
            module.copy(a, out)


    @pytest.mark.parametrize("shape", [(4, 4), (3000, 3)])
    def test_rejected_vector_stream_leaves_no_texture(self, shape):
        # (3000, 3) exceeds the 2048-texel limit, so it would be tiled.
        rt = BrookRuntime(backend="gles2", device="videocore-iv")
        with pytest.raises(BackendError, match="element width 2"):
            rt.stream(shape, element_width=2)
        assert rt.device_memory_in_use() == 0
        rt.close()
        assert rt.device_memory_in_use() == 0


@pytest.mark.parametrize("backend", ["gles2", "cal"])
def test_target_limits_built_once(backend):
    with BrookRuntime(backend=backend) as rt:
        limits = rt.backend.target_limits()
        rt.stream((4, 4))
        assert rt.backend.target_limits() is limits


class TestMismatchedInputStreams:
    """cpu and CAL reject an input stream whose element count differs
    from the output domain with a typed error, before anything runs."""

    @pytest.mark.parametrize("backend", ["cpu", "cal"])
    @pytest.mark.parametrize("shape", [(8, 8), (2, 2)])
    def test_typed_error_before_evaluation(self, backend, shape,
                                           monkeypatch):
        with BrookRuntime(backend=backend) as rt:
            module = rt.compile(
                "kernel void copy(float a<>, out float o<>) { o = a; }")
            a = rt.stream_from(np.ones(shape, dtype=np.float32))
            out = rt.stream((4, 4))

            def no_evaluation(*args, **kwargs):
                raise AssertionError("the kernel was evaluated")

            monkeypatch.setattr(rt.backend, "_evaluate", no_evaluation)
            count = shape[0] * shape[1]
            with pytest.raises(KernelLaunchError,
                               match=f"input stream 'a' has {count} elements "
                                     "but the output domain has 16"):
                module.copy(a, out)
            assert rt.statistics.launches == []


class TestCALBackendEdges:
    def test_vector_kernel_end_to_end(self, cal_runtime):
        """The desktop backend keeps float4 kernels vectorized (as Brook+
        does), which the embedded backend cannot."""
        module = cal_runtime.compile(
            "kernel void scale4(float4 v<>, float k, out float4 o<>) {"
            " o = v * k; }"
        )
        data = np.random.default_rng(0).uniform(-1, 1, (4, 4, 4)).astype(np.float32)
        v = cal_runtime.stream_from(data, element_width=4)
        out = cal_runtime.stream((4, 4), element_width=4)
        module.scale4(v, 2.0, out)
        np.testing.assert_allclose(out.read(), data * 2.0, rtol=1e-6)

    def test_multi_output_kernel_single_pass_on_cal(self, cal_runtime):
        module = cal_runtime.compile(
            "kernel void pair(float a<>, out float x<>, out float y<>) {"
            " x = a + 1.0; y = a - 1.0; }"
        )
        a = cal_runtime.stream_from(np.zeros((4, 4), dtype=np.float32))
        x, y = cal_runtime.stream((4, 4)), cal_runtime.stream((4, 4))
        module.pair(a, x, y)
        # CAL supports multiple render targets: a single pass suffices.
        assert cal_runtime.statistics.total_passes == 1
        np.testing.assert_allclose(x.read(), 1.0)
        np.testing.assert_allclose(y.read(), -1.0)

    def test_dispatches_recorded_on_cal_context(self, cal_runtime):
        module = cal_runtime.compile(
            "kernel void copy(float a<>, out float o<>) { o = a; }"
        )
        a = cal_runtime.stream_from(np.zeros((8, 8), dtype=np.float32))
        out = cal_runtime.stream((8, 8))
        module.copy(a, out)
        assert cal_runtime.backend.context.total_dispatches == 1
