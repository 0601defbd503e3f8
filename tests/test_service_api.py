"""Tests for the service-grade runtime API.

Covers the backend registry, the runtime compile cache, prepared launch
plans, deferred command queues and the session lifecycle (``with
BrookRuntime(...)``, ``Stream.release``, ``BrookRuntime.close``).
"""

import gc

import numpy as np
import pytest

from repro.backends import (
    CPUBackend,
    available_backends,
    backend_entry,
    create_backend,
    register_backend,
    unregister_backend,
)
from repro.core.compiler import BrookAutoCompiler, CompilerOptions
from repro.errors import KernelLaunchError, RuntimeBrookError, StreamError
from repro.runtime import BrookRuntime, CommandQueue, LaunchPlan, QueuedLaunch

SAXPY = "kernel void saxpy(float a, float x<>, float y<>, out float r<>) { r = a * x + y; }"
SUM = "reduce void total(float v<>, reduce float acc) { acc += v; }"


# --------------------------------------------------------------------------- #
# Backend registry
# --------------------------------------------------------------------------- #
class FakeBackend(CPUBackend):
    """A custom backend registered by the tests."""

    name = "fake"

    def __init__(self, device=None):
        super().__init__()
        self.device = device


@pytest.fixture
def fake_backend_registered():
    register_backend("fake", FakeBackend, aliases=("test-double",),
                     description="test backend")
    try:
        yield
    finally:
        unregister_backend("fake")


class TestBackendRegistry:
    def test_builtins_are_registered(self):
        assert {"cpu", "gles2", "cal"} <= set(available_backends())

    def test_register_and_create(self, fake_backend_registered):
        backend = create_backend("fake")
        assert isinstance(backend, FakeBackend)
        assert "fake" in available_backends()

    def test_alias_resolution(self, fake_backend_registered):
        assert isinstance(create_backend("test-double"), FakeBackend)

    def test_device_forwarded_to_factory(self, fake_backend_registered):
        assert create_backend("fake", "some-device").device == "some-device"

    def test_runtime_constructs_registered_backend(self, fake_backend_registered):
        rt = BrookRuntime(backend="fake")
        assert isinstance(rt.backend, FakeBackend)
        module = rt.compile(SAXPY)
        x = rt.stream_from(np.ones((4, 4), dtype=np.float32))
        y = rt.stream_from(np.ones((4, 4), dtype=np.float32))
        out = rt.stream((4, 4))
        module.saxpy(2.0, x, y, out)
        np.testing.assert_allclose(out.read(), 3.0)

    def test_unknown_name_rejected_with_available_list(self):
        with pytest.raises(ValueError, match="registered backends"):
            create_backend("vulkan")

    def test_duplicate_registration_rejected(self, fake_backend_registered):
        with pytest.raises(ValueError, match="already registered"):
            register_backend("fake", FakeBackend)
        with pytest.raises(ValueError, match="already registered"):
            register_backend("other", FakeBackend, aliases=("fake",))

    def test_replace_allows_overriding(self):
        register_backend("tmp", FakeBackend)
        try:
            register_backend("tmp", FakeBackend, replace=True)
        finally:
            unregister_backend("tmp")
        assert "tmp" not in available_backends()

    def test_replace_cannot_steal_another_backends_alias(self, fake_backend_registered):
        # replace=True only overrides the same backend's registration; a
        # name or alias owned by a different backend still collides.
        with pytest.raises(ValueError, match="already registered"):
            register_backend("other", FakeBackend, aliases=("fake",),
                             replace=True)
        assert "other" not in available_backends()

    def test_replace_can_drop_own_alias(self):
        register_backend("tmp2", FakeBackend, aliases=("tmp2-alias",))
        try:
            register_backend("tmp2", FakeBackend, replace=True)
            with pytest.raises(ValueError, match="unknown backend"):
                create_backend("tmp2-alias")
        finally:
            unregister_backend("tmp2")

    def test_unregister_unknown_rejected(self):
        with pytest.raises(ValueError):
            unregister_backend("never-registered")

    def test_entry_metadata(self):
        entry = backend_entry("gles2")
        assert entry.name == "gles2"
        assert "es2" in entry.aliases
        assert "videocore-iv" in entry.devices
        assert backend_entry("es2") is entry

    def test_non_callable_factory_rejected(self):
        with pytest.raises(TypeError):
            register_backend("bogus", object())


# --------------------------------------------------------------------------- #
# Compile cache
# --------------------------------------------------------------------------- #
class TestCompileCache:
    def test_second_compile_returns_cached_program(self, monkeypatch):
        calls = []
        real_compile = BrookAutoCompiler.compile

        def counting_compile(self, source, filename="<string>"):
            calls.append(source)
            return real_compile(self, source, filename)

        monkeypatch.setattr(BrookAutoCompiler, "compile", counting_compile)
        rt = BrookRuntime(backend="cpu")
        first = rt.compile(SAXPY)
        second = rt.compile(SAXPY)
        assert len(calls) == 1
        assert second.program is first.program
        assert rt.compile_cache_info()["hits"] == 1
        assert rt.compile_cache_info()["misses"] == 1

    def test_cached_modules_produce_identical_results(self, cpu_runtime):
        module_a = cpu_runtime.compile(SAXPY)
        module_b = cpu_runtime.compile(SAXPY)
        x = cpu_runtime.stream_from(np.ones((4, 4), dtype=np.float32))
        y = cpu_runtime.stream_from(np.ones((4, 4), dtype=np.float32))
        out = cpu_runtime.stream((4, 4))
        module_b.saxpy(2.0, x, y, out)
        np.testing.assert_allclose(out.read(), 3.0)

    def test_different_source_misses(self, cpu_runtime):
        cpu_runtime.compile(SAXPY)
        cpu_runtime.compile(SUM)
        assert cpu_runtime.compile_cache_info()["misses"] == 2

    def test_differing_options_miss(self, cpu_runtime):
        cpu_runtime.compile(SAXPY)
        cpu_runtime.compile(SAXPY, strict=False)
        cpu_runtime.compile(SAXPY,
                            range_specs={"saxpy": {"params": {"a": (0, 8)}}})
        info = cpu_runtime.compile_cache_info()
        assert info["misses"] == 3
        assert info["hits"] == 0

    def test_different_backends_do_not_share_entries(self):
        cpu_rt = BrookRuntime(backend="cpu")
        gles2_rt = BrookRuntime(backend="gles2")
        cpu_program = cpu_rt.compile(SAXPY).program
        gles2_program = gles2_rt.compile(SAXPY).program
        assert cpu_program is not gles2_program

    def test_lru_eviction(self):
        rt = BrookRuntime(backend="cpu", compile_cache_size=1)
        rt.compile(SAXPY)
        rt.compile(SUM)      # evicts SAXPY
        rt.compile(SAXPY)    # miss again
        assert rt.compile_cache_info()["misses"] == 3
        assert rt.compile_cache_info()["entries"] == 1

    def test_cache_disabled(self):
        rt = BrookRuntime(backend="cpu", compile_cache_size=0)
        rt.compile(SAXPY)
        rt.compile(SAXPY)
        assert rt.compile_cache_info()["misses"] == 2
        assert rt.compile_cache_info()["entries"] == 0

    def test_clear_compile_cache(self, cpu_runtime):
        cpu_runtime.compile(SAXPY)
        cpu_runtime.clear_compile_cache()
        cpu_runtime.compile(SAXPY)
        assert cpu_runtime.compile_cache_info()["misses"] == 2

    def test_fingerprint_stability(self):
        assert CompilerOptions().fingerprint() == CompilerOptions().fingerprint()
        assert CompilerOptions().fingerprint() != \
            CompilerOptions(strict=False).fingerprint()


# --------------------------------------------------------------------------- #
# Prepared launches
# --------------------------------------------------------------------------- #
class TestLaunchPlans:
    def test_plan_matches_direct_call(self, any_runtime):
        module = any_runtime.compile(SAXPY)
        data = np.random.default_rng(0).uniform(-1, 1, (8, 8)).astype(np.float32)
        x = any_runtime.stream_from(data)
        y = any_runtime.stream_from(np.ones((8, 8), dtype=np.float32))
        direct = any_runtime.stream((8, 8))
        planned = any_runtime.stream((8, 8))
        module.saxpy(3.0, x, y, direct)
        plan = module.saxpy.bind(3.0, x, y, planned)
        assert isinstance(plan, LaunchPlan)
        plan.launch()
        np.testing.assert_array_equal(planned.read(), direct.read())

    def test_relaunch_skips_revalidation(self, cpu_runtime, monkeypatch):
        module = cpu_runtime.compile(SAXPY)
        x = cpu_runtime.stream_from(np.ones((4, 4), dtype=np.float32))
        y = cpu_runtime.stream_from(np.ones((4, 4), dtype=np.float32))
        out = cpu_runtime.stream((4, 4))
        handle = module.saxpy
        binds = []
        real_bind = type(handle)._bind_arguments

        def counting_bind(self, args, kwargs):
            binds.append(args)
            return real_bind(self, args, kwargs)

        monkeypatch.setattr(type(handle), "_bind_arguments", counting_bind)
        plan = handle.bind(2.0, x, y, out)
        plan.launch()
        plan.launch()
        plan.launch()
        assert len(binds) == 1
        np.testing.assert_allclose(out.read(), 3.0)

    def test_plan_records_statistics(self, cpu_runtime):
        module = cpu_runtime.compile(SAXPY)
        x = cpu_runtime.stream_from(np.ones((4, 4), dtype=np.float32))
        y = cpu_runtime.stream_from(np.ones((4, 4), dtype=np.float32))
        out = cpu_runtime.stream((4, 4))
        plan = module.saxpy.bind(1.0, x, y, out)
        plan.launch()
        plan.launch()
        assert cpu_runtime.statistics.total_passes == 2

    def test_reduction_plan_returns_value(self, any_runtime):
        module = any_runtime.compile(SUM)
        data = np.arange(16, dtype=np.float32).reshape(4, 4)
        stream = any_runtime.stream_from(data)
        plan = module.total.bind(stream)
        assert plan.launch() == pytest.approx(float(data.sum()), rel=1e-4)

    def test_bind_still_validates(self, cpu_runtime):
        module = cpu_runtime.compile(SAXPY)
        x = cpu_runtime.stream_from(np.ones((4, 4), dtype=np.float32))
        with pytest.raises(KernelLaunchError):
            module.saxpy.bind(2.0, x)

    def test_multi_element_scalar_raises_launch_error(self, cpu_runtime):
        module = cpu_runtime.compile(SAXPY)
        x = cpu_runtime.stream_from(np.ones((4, 4), dtype=np.float32))
        y = cpu_runtime.stream_from(np.ones((4, 4), dtype=np.float32))
        out = cpu_runtime.stream((4, 4))
        with pytest.raises(KernelLaunchError, match="scalar"):
            module.saxpy(np.array([1.0, 2.0]), x, y, out)

    def test_size_one_array_accepted_as_scalar(self, cpu_runtime):
        module = cpu_runtime.compile(SAXPY)
        x = cpu_runtime.stream_from(np.ones((4, 4), dtype=np.float32))
        y = cpu_runtime.stream_from(np.ones((4, 4), dtype=np.float32))
        out = cpu_runtime.stream((4, 4))
        module.saxpy(np.array([2.0]), x, y, out)
        np.testing.assert_allclose(out.read(), 3.0)

    def test_plan_rejects_closed_runtime(self):
        rt = BrookRuntime(backend="cpu")
        module = rt.compile(SAXPY)
        x = rt.stream_from(np.ones((4, 4), dtype=np.float32))
        y = rt.stream_from(np.ones((4, 4), dtype=np.float32))
        out = rt.stream((4, 4))
        plan = module.saxpy.bind(2.0, x, y, out)
        rt.close()
        with pytest.raises(RuntimeBrookError):
            plan.launch()

    def test_launch_rejects_released_stream(self, cpu_runtime):
        module = cpu_runtime.compile(SAXPY)
        x = cpu_runtime.stream_from(np.ones((4, 4), dtype=np.float32))
        y = cpu_runtime.stream_from(np.ones((4, 4), dtype=np.float32))
        out = cpu_runtime.stream((4, 4))
        plan = module.saxpy.bind(2.0, x, y, out)
        out.release()
        with pytest.raises(StreamError):
            plan.launch()
        with pytest.raises(StreamError):
            module.saxpy(2.0, x, y, out)

    def test_non_numeric_scalar_raises_launch_error(self, cpu_runtime):
        module = cpu_runtime.compile(SAXPY)
        x = cpu_runtime.stream_from(np.ones((4, 4), dtype=np.float32))
        y = cpu_runtime.stream_from(np.ones((4, 4), dtype=np.float32))
        out = cpu_runtime.stream((4, 4))
        with pytest.raises(KernelLaunchError):
            module.saxpy("not-a-number", x, y, out)


# --------------------------------------------------------------------------- #
# Command queues
# --------------------------------------------------------------------------- #
class TestCommandQueue:
    def test_queue_defers_and_flushes(self, cpu_runtime):
        module = cpu_runtime.compile(SAXPY)
        x = cpu_runtime.stream_from(np.ones((4, 4), dtype=np.float32))
        y = cpu_runtime.stream_from(np.ones((4, 4), dtype=np.float32))
        out = cpu_runtime.stream((4, 4))
        with cpu_runtime.queue() as q:
            queued = module.saxpy(2.0, x, y, out)
            assert isinstance(queued, QueuedLaunch)
            assert not queued.done
            assert len(q) == 1
            # Nothing executed yet: no launch statistics recorded.
            assert cpu_runtime.statistics.total_passes == 0
        assert queued.done
        assert cpu_runtime.statistics.total_passes == 1
        np.testing.assert_allclose(out.read(), 3.0)

    def test_queue_preserves_submission_order(self, cpu_runtime):
        module = cpu_runtime.compile(
            "kernel void copy(float a<>, out float o<>) { o = a; }"
        )
        a = cpu_runtime.stream_from(np.full((4, 4), 5.0, dtype=np.float32))
        b = cpu_runtime.stream((4, 4))
        c = cpu_runtime.stream((4, 4))
        with cpu_runtime.queue():
            module.copy(a, b)
            module.copy(b, c)   # depends on the first launch
        np.testing.assert_allclose(c.read(), 5.0)

    def test_queued_reduction_result_after_flush(self, cpu_runtime):
        module = cpu_runtime.compile(SUM)
        stream = cpu_runtime.stream_from(np.ones((4, 4), dtype=np.float32))
        with cpu_runtime.queue():
            queued = module.total(stream)
        assert queued.done
        assert queued.result == pytest.approx(16.0)

    def test_manual_flush(self, cpu_runtime):
        module = cpu_runtime.compile(SAXPY)
        x = cpu_runtime.stream_from(np.ones((4, 4), dtype=np.float32))
        y = cpu_runtime.stream_from(np.ones((4, 4), dtype=np.float32))
        out = cpu_runtime.stream((4, 4))
        queue = cpu_runtime.queue()
        queue.submit(module.saxpy.bind(2.0, x, y, out))
        results = queue.flush()
        assert results == [None]
        assert queue.flushed_launches == 1
        np.testing.assert_allclose(out.read(), 3.0)

    def test_exception_discards_pending_launches(self, cpu_runtime):
        module = cpu_runtime.compile(SAXPY)
        x = cpu_runtime.stream_from(np.ones((4, 4), dtype=np.float32))
        y = cpu_runtime.stream_from(np.ones((4, 4), dtype=np.float32))
        out = cpu_runtime.stream((4, 4))
        with pytest.raises(RuntimeError):
            with cpu_runtime.queue():
                module.saxpy(2.0, x, y, out)
                raise RuntimeError("boom")
        assert cpu_runtime.statistics.total_passes == 0
        np.testing.assert_allclose(out.read(), 0.0)

    def test_foreign_plan_rejected(self, cpu_runtime):
        other = BrookRuntime(backend="cpu")
        module = other.compile(SAXPY)
        x = other.stream_from(np.ones((4, 4), dtype=np.float32))
        y = other.stream_from(np.ones((4, 4), dtype=np.float32))
        out = other.stream((4, 4))
        plan = module.saxpy.bind(1.0, x, y, out)
        with pytest.raises(KernelLaunchError):
            cpu_runtime.queue().submit(plan)

    def test_partial_flush_failure_keeps_executed_statistics(self, cpu_runtime):
        module = cpu_runtime.compile(SAXPY + SUM)
        x = cpu_runtime.stream_from(np.ones((4, 4), dtype=np.float32))
        y = cpu_runtime.stream_from(np.ones((4, 4), dtype=np.float32))
        out = cpu_runtime.stream((4, 4))
        bad_target = cpu_runtime.stream((3, 3))   # does not divide (4, 4)
        queue = cpu_runtime.queue()
        first = queue.submit(module.saxpy.bind(2.0, x, y, out))
        queue.submit(module.total.bind(out, bad_target))
        with pytest.raises(KernelLaunchError):
            queue.flush()
        # The saxpy pass ran on the device before the failure: it must
        # stay recorded so the performance model sees the real work.
        assert first.done
        assert cpu_runtime.statistics.total_passes == 1
        np.testing.assert_allclose(out.read(), 3.0)

    def test_statistics_recorded_in_bulk(self, cpu_runtime):
        module = cpu_runtime.compile(SAXPY)
        x = cpu_runtime.stream_from(np.ones((4, 4), dtype=np.float32))
        y = cpu_runtime.stream_from(np.ones((4, 4), dtype=np.float32))
        out = cpu_runtime.stream((4, 4))
        with cpu_runtime.queue():
            for _ in range(5):
                module.saxpy(1.0, x, y, out)
        assert cpu_runtime.statistics.total_passes == 5


# --------------------------------------------------------------------------- #
# Session lifecycle
# --------------------------------------------------------------------------- #
class TestSessionLifecycle:
    def test_context_manager_releases_device_memory(self):
        with BrookRuntime(backend="gles2") as rt:
            rt_streams = [rt.stream((32, 32)) for _ in range(3)]
            assert rt.device_memory_in_use() > 0
        assert rt.closed
        assert rt.device_memory_in_use() == 0
        assert all(stream.released for stream in rt_streams)

    def test_release_is_idempotent(self, gles2_runtime):
        stream = gles2_runtime.stream((8, 8))
        stream.release()
        stream.release()
        assert gles2_runtime.device_memory_in_use() == 0

    def test_released_stream_rejects_access(self, cpu_runtime):
        stream = cpu_runtime.stream((4, 4))
        stream.release()
        with pytest.raises(StreamError):
            stream.read()
        with pytest.raises(StreamError):
            stream.write(np.zeros((4, 4), dtype=np.float32))
        with pytest.raises(StreamError):
            stream.peek()

    def test_garbage_collected_stream_frees_device_memory(self):
        rt = BrookRuntime(backend="gles2")
        stream = rt.stream((64, 64))
        assert rt.device_memory_in_use() > 0
        del stream
        gc.collect()
        assert rt.device_memory_in_use() == 0
        assert rt.live_streams() == []

    def test_memory_report_agrees_with_device_after_release(self, gles2_runtime):
        keep = gles2_runtime.stream((16, 16), name="keep")
        drop = gles2_runtime.stream((16, 16), name="drop")
        drop.release()
        report = gles2_runtime.memory_usage_report()
        assert "keep" in report.per_stream_bytes
        assert "drop" not in report.per_stream_bytes
        assert gles2_runtime.device_memory_in_use() == keep.size_bytes

    def test_closed_runtime_rejects_new_work(self):
        rt = BrookRuntime(backend="cpu")
        rt.close()
        with pytest.raises(RuntimeBrookError):
            rt.stream((4, 4))
        with pytest.raises(RuntimeBrookError):
            rt.compile(SAXPY)
        with pytest.raises(RuntimeBrookError):
            rt.queue()

    def test_close_is_idempotent_and_keeps_statistics(self):
        rt = BrookRuntime(backend="cpu")
        module = rt.compile(SAXPY)
        x = rt.stream_from(np.ones((4, 4), dtype=np.float32))
        y = rt.stream_from(np.ones((4, 4), dtype=np.float32))
        out = rt.stream((4, 4))
        module.saxpy(1.0, x, y, out)
        rt.close()
        rt.close()
        assert rt.statistics.total_passes == 1


# --------------------------------------------------------------------------- #
# Partial reduction preconditions
# --------------------------------------------------------------------------- #
class TestReduceIntoValidation:
    def test_rank_mismatch_rejected(self, cpu_runtime):
        module = cpu_runtime.compile(SUM)
        stream = cpu_runtime.stream_from(np.ones((4, 6), dtype=np.float32))
        # (2,) flattens to a (1, 2) layout which would divide (4, 6); the
        # logical extents still must match the input's rank.
        target = cpu_runtime.stream((2,))
        with pytest.raises(KernelLaunchError, match="evenly divide"):
            module.total(stream, target)

    def test_non_dividing_extents_rejected(self, cpu_runtime):
        module = cpu_runtime.compile(SUM)
        stream = cpu_runtime.stream_from(np.ones((8, 8), dtype=np.float32))
        target = cpu_runtime.stream((3, 4))
        with pytest.raises(KernelLaunchError, match="evenly divide"):
            module.total(stream, target)

    def test_valid_partial_reduction_still_works(self, cpu_runtime):
        module = cpu_runtime.compile(SUM)
        data = np.arange(64, dtype=np.float32).reshape(8, 8)
        stream = cpu_runtime.stream_from(data)
        target = cpu_runtime.stream((4, 4))
        result = module.total(stream, target)
        expected = data.reshape(4, 2, 4, 2).sum(axis=(1, 3))
        np.testing.assert_allclose(result, expected)


# --------------------------------------------------------------------------- #
# Application runs on the new session machinery
# --------------------------------------------------------------------------- #
class TestApplicationSessions:
    def test_run_with_reused_runtime_hits_compile_cache(self):
        from repro.apps.base import get_application

        app = get_application("black_scholes")
        with app.create_runtime("cpu") as rt:
            first = app.run(size=8, runtime=rt)
            second = app.run(size=8, runtime=rt)
            assert first.valid and second.valid
            assert rt.compile_cache_info()["hits"] >= 1
            assert not rt.closed
        assert rt.closed

    def test_run_owned_runtime_releases_memory(self):
        from repro.apps.base import get_application

        app = get_application("black_scholes")
        result = app.run(backend="cpu", size=8)
        assert result.valid
        assert result.statistics.total_passes > 0
