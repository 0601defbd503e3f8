"""Unit tests for the simulated AMD CAL substrate (reference platform)."""

import tracemalloc

import numpy as np
import pytest

from repro.cal import CAL_DEVICE_PROFILES, CALContext, CALResource, get_cal_device
from repro.cal import context as cal_context
from repro.errors import CALError


class TestDeviceProfiles:
    def test_reference_gpu_present(self):
        device = get_cal_device("radeon-hd3400")
        assert device.max_resource_size == 4096
        assert device.max_outputs >= 2

    def test_unknown_device_raises(self):
        with pytest.raises(KeyError):
            get_cal_device("radeon-rx7900")

    def test_target_limits_support_float_textures(self):
        limits = get_cal_device("radeon-hd3400").to_target_limits()
        assert limits.supports_float_textures
        assert not limits.requires_power_of_two
        assert limits.max_texture_size == 4096


class TestResource:
    def test_creation_scalar(self):
        resource = CALResource(64, 32)
        assert resource.shape == (32, 64)
        assert resource.size_bytes == 64 * 32 * 4

    def test_creation_vector_components(self):
        resource = CALResource(16, 16, components=4)
        assert resource.size_bytes == 16 * 16 * 16

    def test_npot_sizes_allowed(self):
        resource = CALResource(100, 30)
        assert resource.width == 100

    def test_oversized_rejected(self):
        with pytest.raises(CALError):
            CALResource(8192, 8192, max_size=4096)

    def test_invalid_components_rejected(self):
        with pytest.raises(CALError):
            CALResource(8, 8, components=5)

    def test_write_read_roundtrip_is_exact_float32(self):
        resource = CALResource(8, 4)
        data = np.random.default_rng(1).standard_normal((4, 8)).astype(np.float32)
        resource.write(data)
        np.testing.assert_array_equal(resource.read(), data)

    def test_write_wrong_shape_rejected(self):
        resource = CALResource(8, 4)
        with pytest.raises(CALError):
            resource.write(np.zeros((8, 4), dtype=np.float32))

    def test_fetch_clamps_out_of_bounds(self):
        resource = CALResource(4, 4)
        data = np.arange(16, dtype=np.float32).reshape(4, 4)
        resource.write(data)
        values = resource.fetch(np.array([-3, 10]), np.array([0, 10]))
        assert values[0] == data[0, 0]
        assert values[1] == data[3, 3]
        assert resource.fetch_count == 2


class TestContext:
    def test_alloc_and_memory_accounting(self):
        context = CALContext()
        resource = context.alloc_resource(64, 64)
        assert context.device_memory_in_use() == 64 * 64 * 4
        context.free_resource(resource)
        assert context.device_memory_in_use() == 0

    def test_transfer_statistics(self):
        context = CALContext()
        resource = context.alloc_resource(16, 16)
        context.upload(resource, np.zeros((16, 16), dtype=np.float32))
        context.download(resource)
        assert context.transfers.bytes_uploaded == 16 * 16 * 4
        assert context.transfers.bytes_downloaded == 16 * 16 * 4

    def test_dispatch_recording(self):
        context = CALContext()
        stats = context.record_dispatch("sgemm", 4096, flops=1000,
                                        fetches=200)
        assert stats.kernel == "sgemm"
        context.record_dispatch("sgemm", 16, flops=10, fetches=2)
        assert context.total_dispatches == 2
        assert context.dispatches.domain_elements == 4096 + 16
        assert context.dispatches.flops == 1000 + 10
        assert context.dispatches.fetches == 200 + 2

    def test_dispatches_retain_no_memory(self):
        # A long-lived context must keep no per-dispatch record: 1000
        # dispatches leave the memory allocated by the context module flat.
        context = CALContext()
        for _ in range(10):
            context.record_dispatch("k", 16, flops=1, fetches=1)
        only_context = [tracemalloc.Filter(True, cal_context.__file__)]

        def retained():
            snapshot = tracemalloc.take_snapshot().filter_traces(only_context)
            return sum(stat.size for stat in snapshot.statistics("filename"))

        tracemalloc.start()
        try:
            before = retained()
            for _ in range(1000):
                context.record_dispatch("k", 16, flops=1, fetches=1)
            after = retained()
        finally:
            tracemalloc.stop()
        assert after - before < 1000
        assert context.total_dispatches == 1010

    def test_empty_dispatch_rejected(self):
        context = CALContext()
        with pytest.raises(CALError):
            context.record_dispatch("bad", 0, 0, 0)

    def test_reset_statistics(self):
        context = CALContext()
        context.record_dispatch("k", 16, 1, 1)
        context.reset_statistics()
        assert context.total_dispatches == 0
        assert context.dispatches.flops == 0
