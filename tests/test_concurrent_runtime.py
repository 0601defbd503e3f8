"""Concurrency tests: shared runtimes, the async executor and the races
fixed alongside it (thread-local queues, compile-cache locking, exact
statistics under contention, release/finalizer storage accounting).

The multi-thread stress tests always compare against a serial reference
execution of the same work: concurrency must never change what a
pipeline computes (bit-identical outputs) nor lose statistics records
(exact totals).
"""

import threading
import time

import numpy as np
import pytest

from repro.backends.gles2_backend import GLES2Backend
from repro.errors import KernelLaunchError, RuntimeBrookError, StreamError
from repro.gles2.device import GPUDeviceProfile
from repro.gles2.limits import GLES2Limits
from repro.runtime import AsyncExecutor, BrookRuntime, LaunchFuture
from repro.runtime.profiling import KernelLaunchRecord, RunStatistics

SRC = """
kernel void scale(float x<>, float k, out float y<>) { y = x * k; }
kernel void add(float a<>, float b<>, out float c<>) { c = a + b; }
kernel void offset(float x<>, float d, out float y<>) { y = x + d; }
reduce void total(float v<>, reduce float acc) { acc += v; }
"""


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


def run_threads(count, target):
    """Run ``target(index)`` on ``count`` threads; re-raise any failure."""
    errors = []

    def wrapped(index):
        try:
            target(index)
        except BaseException as exc:  # noqa: BLE001 - surfaced below
            errors.append(exc)

    threads = [threading.Thread(target=wrapped, args=(i,))
               for i in range(count)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    if errors:
        raise errors[0]


# --------------------------------------------------------------------------- #
# Satellite: thread-local command queues
# --------------------------------------------------------------------------- #
class TestThreadLocalQueues:
    def test_queue_does_not_capture_other_threads(self, cpu_runtime):
        """A queue opened in one thread must not defer another thread's
        launches (the other thread sees its results immediately)."""
        module = cpu_runtime.compile(SRC)
        x = cpu_runtime.stream_from(np.arange(8.0))
        y = cpu_runtime.stream((8,))
        queue_open = threading.Event()
        release_queue = threading.Event()
        observed = {}

        def queue_holder():
            with cpu_runtime.queue() as q:
                queue_open.set()
                release_queue.wait(5.0)
                observed["deferred"] = len(q)

        def direct_launcher():
            queue_open.wait(5.0)
            result = module.scale(x, 3.0, y)
            # Not enqueued: the launch ran immediately in this thread.
            observed["immediate_result"] = result
            observed["value"] = y.read()
            release_queue.set()

        run_threads(2, lambda i: (queue_holder if i == 0 else direct_launcher)())
        assert observed["deferred"] == 0
        assert observed["immediate_result"] is None
        np.testing.assert_array_equal(observed["value"], np.arange(8.0) * 3.0)

    def test_nested_queues_stay_per_thread(self, cpu_runtime):
        module = cpu_runtime.compile(SRC)
        x = cpu_runtime.stream_from(np.arange(4.0))

        def worker(index):
            out = cpu_runtime.stream((4,))
            with cpu_runtime.queue() as q:
                queued = module.scale(x, float(index + 1), out)
                assert len(q) == 1
                assert not queued.done
            np.testing.assert_array_equal(out.read(),
                                          np.arange(4.0) * (index + 1))

        run_threads(4, worker)


# --------------------------------------------------------------------------- #
# Satellite: compile-cache locking
# --------------------------------------------------------------------------- #
class TestCompileCacheConcurrency:
    def test_concurrent_compiles_with_eviction(self):
        """Hammer a tiny LRU from many threads: no lost updates, no
        corruption, counters add up."""
        with BrookRuntime(backend="cpu", compile_cache_size=4) as rt:
            sources = [
                f"kernel void k{i}(float x<>, out float y<>) "
                f"{{ y = x * {float(i + 1)}; }}"
                for i in range(10)
            ]
            per_thread = 30

            def worker(index):
                rng = np.random.default_rng(index)
                for _ in range(per_thread):
                    source = sources[int(rng.integers(len(sources)))]
                    module = rt.compile(source)
                    assert len(module.kernel_names) == 1

            run_threads(8, worker)
            info = rt.compile_cache_info()
            assert info["hits"] + info["misses"] == 8 * per_thread
            assert info["entries"] <= 4

    def test_cached_program_shared_across_threads(self, cpu_runtime):
        modules = {}

        def worker(index):
            modules[index] = cpu_runtime.compile(SRC)

        # Warm the cache serially, then fetch concurrently.
        warm = cpu_runtime.compile(SRC)
        run_threads(4, worker)
        for module in modules.values():
            assert module.program is warm.program


class TestFusionConcurrency:
    def test_every_pipeline_launches_completed_kernels(self):
        """Threads fusing the same chain on one runtime share the fusion
        memo: each gets a pipeline whose kernels are complete, and its
        output equals a serial run's."""
        import sys

        from repro.service.bench import build_adas_request, make_frames
        from repro.service.service import prepare_request

        frame = make_frames(16, 1, seed=6)[0]
        request = build_adas_request(16, frame)
        outputs, errors = [], []
        with BrookRuntime(backend="cpu") as rt:
            _, streams, plans = prepare_request(rt, request)
            streams["image"].write(frame)
            for plan in plans:
                plan.launch()
            reference = streams["out"].read()

            def worker():
                try:
                    for _ in range(3):
                        _, streams, plans = prepare_request(rt, request)
                        streams["image"].write(frame)
                        pipeline = rt.fuse(plans)
                        assert not any(plan.kernel.bare
                                       for plan, _ in pipeline.segments)
                        pipeline.launch()
                        outputs.append(streams["out"].read())
                except BaseException as exc:  # noqa: BLE001 - surfaced below
                    errors.append(exc)

            interval = sys.getswitchinterval()
            sys.setswitchinterval(1e-5)
            try:
                threads = [threading.Thread(target=worker) for _ in range(4)]
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join(timeout=60)
            finally:
                sys.setswitchinterval(interval)
            assert not any(thread.is_alive() for thread in threads)
        if errors:
            raise errors[0]
        assert len(outputs) == 12
        for output in outputs:
            assert np.array_equal(output.view(np.uint32),
                                  reference.view(np.uint32))


# --------------------------------------------------------------------------- #
# Satellite: thread-safe statistics
# --------------------------------------------------------------------------- #
class TestStatisticsConcurrency:
    def test_exact_totals_under_contention(self):
        stats = RunStatistics()
        threads, per_thread = 8, 200

        def worker(index):
            for i in range(per_thread):
                record = KernelLaunchRecord(kernel=f"k{index}", elements=1,
                                            flops=3, texture_fetches=2)
                if i % 3 == 0:
                    stats.record_launches([record, record])
                else:
                    stats.record_launch(record)

        run_threads(threads, worker)
        expected = sum(2 if i % 3 == 0 else 1
                       for i in range(per_thread)) * threads
        assert len(stats.launches) == expected
        assert stats.total_flops == expected * 3

    def test_summary_consistent_under_reset(self):
        """Every summary snapshot must be internally consistent: flops
        are always exactly 3x the pass count, however the recording and
        clearing interleave."""
        stats = RunStatistics()
        stop = threading.Event()

        def recorder():
            while not stop.is_set():
                stats.record_launch(KernelLaunchRecord(
                    kernel="k", elements=1, flops=3, texture_fetches=0))

        def resetter():
            while not stop.is_set():
                stats.clear()

        threads = [threading.Thread(target=recorder) for _ in range(2)]
        threads += [threading.Thread(target=resetter)]
        for thread in threads:
            thread.start()
        try:
            for _ in range(300):
                summary = stats.summary()
                assert summary["flops"] == summary["passes"] * 3
        finally:
            stop.set()
            for thread in threads:
                thread.join()


# --------------------------------------------------------------------------- #
# Satellite: release vs. finalizer storage accounting
# --------------------------------------------------------------------------- #
class TestReleaseRaces:
    @pytest.mark.parametrize("backend", ["cpu", "gles2", "cal"])
    def test_concurrent_release_frees_exactly_once(self, backend):
        with BrookRuntime(backend=backend) as rt:
            streams = [rt.stream((16, 16)) for _ in range(24)]
            assert rt.device_memory_in_use() > 0
            barrier = threading.Barrier(6)

            def worker(index):
                barrier.wait(5.0)
                # Every thread releases every stream: 6-way races on each.
                for stream in streams:
                    stream.release()
                assert rt.device_memory_in_use() >= 0

            run_threads(6, worker)
            assert rt.device_memory_in_use() == 0
            assert all(stream.released for stream in streams)

    def test_concurrent_create_and_release(self):
        with BrookRuntime(backend="gles2") as rt:
            def worker(index):
                for _ in range(20):
                    stream = rt.stream((8, 8))
                    stream.fill(float(index))
                    stream.release()
                    assert rt.device_memory_in_use() >= 0

            run_threads(6, worker)
            assert rt.device_memory_in_use() == 0


# --------------------------------------------------------------------------- #
# The async executor
# --------------------------------------------------------------------------- #
class TestAsyncExecutor:
    def test_independent_launches_complete(self, cpu_runtime):
        module = cpu_runtime.compile(SRC)
        x = cpu_runtime.stream_from(np.arange(32.0))
        outs = [cpu_runtime.stream((32,)) for _ in range(8)]
        with cpu_runtime.executor(workers=4) as ex:
            futures = [ex.submit(module.scale.bind(x, float(i + 1), out))
                       for i, out in enumerate(outs)]
            for future in futures:
                assert future.result(timeout=10.0) is None
        for i, out in enumerate(outs):
            np.testing.assert_array_equal(out.read(), np.arange(32.0) * (i + 1))

    def test_conflicting_launches_serialize_in_submission_order(
            self, cpu_runtime):
        """A RAW/WAW chain through one stream must execute in submission
        order; the final value proves the order was respected."""
        module = cpu_runtime.compile(SRC)
        x = cpu_runtime.stream_from(np.full((16,), 1.0))
        y = cpu_runtime.stream((16,))
        with cpu_runtime.executor(workers=4) as ex:
            ex.submit(module.scale.bind(x, 2.0, y))      # y = 2
            ex.submit(module.offset.bind(y, 1.0, y))     # y = 3 (in place)
            ex.submit(module.scale.bind(y, 10.0, y))     # y = 30
            future = ex.submit(module.total.bind(y))
            assert future.result(timeout=10.0) == pytest.approx(16 * 30.0)

    def test_reader_blocks_later_writer(self, cpu_runtime):
        """WAR hazard: a writer submitted after readers must not clobber
        the stream before the readers consumed it."""
        module = cpu_runtime.compile(SRC)
        x = cpu_runtime.stream_from(np.arange(64.0))
        reads = [cpu_runtime.stream((64,)) for _ in range(4)]
        with cpu_runtime.executor(workers=4) as ex:
            for out in reads:
                ex.submit(module.scale.bind(x, 1.0, out))
            ex.submit(module.scale.bind(reads[0], 0.0, x))  # overwrites x
            ex.wait_all(timeout=10.0)
        for out in reads:
            np.testing.assert_array_equal(out.read(), np.arange(64.0))
        np.testing.assert_array_equal(x.read(), np.zeros(64))

    def test_matches_serial_execution_bitwise(self, cpu_runtime):
        """A randomly generated dependency-heavy workload produces the
        same bits and the same statistics totals as serial execution."""
        module = cpu_runtime.compile(SRC)
        rng = np.random.default_rng(7)
        data = rng.uniform(-4.0, 4.0, (64,)).astype(np.float32)

        def build(rt, mod):
            streams = [rt.stream_from(data) for _ in range(3)]
            streams += [rt.stream((64,)) for _ in range(5)]
            plans = []
            state = np.random.default_rng(21)
            for _ in range(40):
                op = state.integers(3)
                if op == 0:
                    a, out = state.integers(len(streams), size=2)
                    plans.append(mod.scale.bind(
                        streams[a], float(state.integers(1, 4)), streams[out]))
                elif op == 1:
                    a, b, out = state.integers(len(streams), size=3)
                    plans.append(mod.add.bind(streams[a], streams[b],
                                              streams[out]))
                else:
                    a, out = state.integers(len(streams), size=2)
                    plans.append(mod.offset.bind(
                        streams[a], float(state.integers(-2, 3)), streams[out]))
            return streams, plans

        streams, plans = build(cpu_runtime, module)
        with cpu_runtime.executor(workers=4) as ex:
            for plan in plans:
                ex.submit(plan)
            assert ex.wait_all(timeout=30.0)
        concurrent_outputs = [stream.read() for stream in streams]
        concurrent_summary = cpu_runtime.statistics.summary()

        with BrookRuntime(backend="cpu") as serial_rt:
            serial_module = serial_rt.compile(SRC)
            serial_streams, serial_plans = build(serial_rt, serial_module)
            for plan in serial_plans:
                plan.launch()
            serial_outputs = [stream.read() for stream in serial_streams]
            serial_summary = serial_rt.statistics.summary()

        for mine, reference in zip(concurrent_outputs, serial_outputs):
            assert np.array_equal(
                np.asarray(mine, dtype=np.float32).view(np.uint32),
                np.asarray(reference, dtype=np.float32).view(np.uint32))
        for key in ("passes", "flops", "elements", "texture_fetches"):
            assert concurrent_summary[key] == serial_summary[key]

    def test_fused_pipeline_submission(self, cpu_runtime):
        module = cpu_runtime.compile(SRC)
        x = cpu_runtime.stream_from(np.arange(16.0))
        tmp = cpu_runtime.stream((16,))
        out = cpu_runtime.stream((16,))
        pipeline = cpu_runtime.fuse([
            module.scale.bind(x, 2.0, tmp),
            module.offset.bind(tmp, 1.0, out),
        ])
        with cpu_runtime.executor(workers=2) as ex:
            ex.submit(pipeline).result(timeout=10.0)
        np.testing.assert_array_equal(out.read(), np.arange(16.0) * 2.0 + 1.0)

    def test_error_propagates_through_future(self, cpu_runtime):
        module = cpu_runtime.compile(SRC)
        x = cpu_runtime.stream_from(np.arange(8.0))
        y = cpu_runtime.stream((8,))
        plan = module.scale.bind(x, 2.0, y)
        y.release()
        with cpu_runtime.executor(workers=2) as ex:
            future = ex.submit(plan)
            assert isinstance(future.exception(timeout=10.0), StreamError)
            with pytest.raises(StreamError):
                future.result()

    def test_submit_rejects_foreign_plan(self, cpu_runtime):
        with BrookRuntime(backend="cpu") as other:
            module = other.compile(SRC)
            x = other.stream_from(np.arange(4.0))
            y = other.stream((4,))
            plan = module.scale.bind(x, 2.0, y)
            with cpu_runtime.executor(workers=1) as ex:
                with pytest.raises(KernelLaunchError):
                    ex.submit(plan)

    def test_submit_after_shutdown_raises(self, cpu_runtime):
        module = cpu_runtime.compile(SRC)
        x = cpu_runtime.stream_from(np.arange(4.0))
        y = cpu_runtime.stream((4,))
        ex = cpu_runtime.executor(workers=1)
        ex.shutdown()
        with pytest.raises(RuntimeBrookError):
            ex.submit(module.scale.bind(x, 2.0, y))

    def test_shutdown_without_wait_fails_pending_futures(self, cpu_runtime):
        module = cpu_runtime.compile(SRC)
        x = cpu_runtime.stream_from(np.arange(4.0))
        y = cpu_runtime.stream((4,))
        ex = cpu_runtime.executor(workers=1)
        # Build a long chain so some launches are still pending when the
        # executor is torn down mid-flight.
        futures = [ex.submit(module.offset.bind(y, 1.0, y))
                   for _ in range(50)]
        futures.append(ex.submit(module.scale.bind(x, 2.0, y)))
        ex.shutdown(wait=False)
        for future in futures:
            future.wait(10.0)
        assert all(future.done() for future in futures)

    def test_wait_all_timeout(self, cpu_runtime):
        ex = cpu_runtime.executor(workers=1)
        assert ex.wait_all(timeout=0.1)
        ex.shutdown()


# --------------------------------------------------------------------------- #
# Whole-runtime stress: mixed compiles/launches/reads, incl. tiled streams
# --------------------------------------------------------------------------- #
class TestSharedRuntimeStress:
    def test_mixed_workload_matches_serial(self):
        """Several threads share one runtime: each compiles (hitting the
        compile cache), launches over its own streams and reads back.
        Results must be bit-identical to running the same work serially,
        and the statistics totals exact."""
        threads, iterations = 6, 8

        def workload(rt, index, iterations):
            module = rt.compile(SRC)
            base = np.arange(64.0, dtype=np.float32) + index
            x = rt.stream_from(base)
            tmp = rt.stream((64,))
            out = rt.stream((64,))
            results = []
            for i in range(iterations):
                module.scale(x, float(i + 1), tmp)
                module.offset(tmp, float(index), out)
                results.append(out.read())
            results.append(np.float32(module.total(x)))
            return results

        with BrookRuntime(backend="cpu") as rt:
            collected = {}

            def worker(index):
                collected[index] = workload(rt, index, iterations)

            run_threads(threads, worker)
            concurrent_summary = rt.statistics.summary()

        serial = {}
        with BrookRuntime(backend="cpu") as rt:
            for index in range(threads):
                serial[index] = workload(rt, index, iterations)
            serial_summary = rt.statistics.summary()

        for index in range(threads):
            for mine, reference in zip(collected[index], serial[index]):
                assert np.array_equal(
                    np.asarray(mine, dtype=np.float32).view(np.uint32),
                    np.asarray(reference, dtype=np.float32).view(np.uint32))
        for key in ("passes", "flops", "elements", "bytes_uploaded",
                    "bytes_downloaded"):
            assert concurrent_summary[key] == serial_summary[key]

    def test_tiled_streams_from_threads(self):
        """Launches over tiled streams (domain > device texture limit,
        PR 3) stay correct when issued from several threads sharing one
        gles2 runtime."""
        threads = 4
        shape = (40, 40)        # 3x3 tile grid at the toy 16x16 limit

        def workload(rt, index):
            module = rt.compile(SRC)
            data = ((np.arange(1600.0, dtype=np.float32) % 97) + index) \
                .reshape(shape)
            x = rt.stream_from(data)
            out = rt.stream(shape)
            module.scale(x, 2.0, out)
            value = out.read()
            total = np.float32(module.total(out))
            x.release()
            out.release()
            return value, total

        with tiny_gles2_runtime() as rt:
            collected = {}

            def worker(index):
                collected[index] = workload(rt, index)

            run_threads(threads, worker)
            assert rt.statistics.extra_tiles > 0

        with tiny_gles2_runtime() as rt:
            for index in range(threads):
                value, total = workload(rt, index)
                assert np.array_equal(
                    np.asarray(value, dtype=np.float32).view(np.uint32),
                    np.asarray(collected[index][0],
                               dtype=np.float32).view(np.uint32))
                assert total == collected[index][1]

    def test_executor_with_tiled_streams(self):
        """Hazard-tracked async execution over tiled storage: a chain
        through one tiled stream serializes and matches serial bits."""
        shape = (40, 40)
        data = (np.arange(1600.0, dtype=np.float32) % 41).reshape(shape)
        with tiny_gles2_runtime() as rt:
            module = rt.compile(SRC)
            x = rt.stream_from(data)
            mid = rt.stream(shape)
            out = rt.stream(shape)
            with rt.executor(workers=3) as ex:
                ex.submit(module.scale.bind(x, 3.0, mid))
                ex.submit(module.offset.bind(mid, 5.0, out))
                future = ex.submit(module.total.bind(out))
                concurrent_total = future.result(timeout=30.0)
            concurrent_out = out.read()
            assert rt.statistics.extra_tiles > 0

        with tiny_gles2_runtime() as rt:
            module = rt.compile(SRC)
            x = rt.stream_from(data)
            mid = rt.stream(shape)
            out = rt.stream(shape)
            module.scale(x, 3.0, mid)
            module.offset(mid, 5.0, out)
            serial_total = module.total(out)
            serial_out = out.read()

        assert np.array_equal(
            np.asarray(concurrent_out, dtype=np.float32).view(np.uint32),
            np.asarray(serial_out, dtype=np.float32).view(np.uint32))
        assert concurrent_total == serial_total


# --------------------------------------------------------------------------- #
# Satellite: executor shutdown with futures in flight
# --------------------------------------------------------------------------- #
class TestExecutorShutdownWhileBusy:
    """close()/shutdown() must drain or fail in-flight futures - never hang."""

    def _busy_plans(self, rt, count=24, size=20000):
        module = rt.compile(SRC)
        x = rt.stream_from(np.arange(float(size)))
        outs = [rt.stream((size,)) for _ in range(count)]
        return [module.scale.bind(x, float(i), out)
                for i, out in enumerate(outs)], outs

    def test_close_drains_in_flight_futures(self, cpu_runtime):
        plans, _ = self._busy_plans(cpu_runtime)
        executor = cpu_runtime.executor(workers=3)
        futures = executor.submit_all(plans)
        executor.close()          # called while launches are executing
        assert all(future.done() for future in futures)
        assert all(future.exception() is None for future in futures)
        with pytest.raises(RuntimeBrookError):
            executor.submit(plans[0])

    def test_shutdown_nowait_fails_unstarted_futures_fast(self, cpu_runtime):
        plans, _ = self._busy_plans(cpu_runtime, count=32)
        executor = cpu_runtime.executor(workers=2)
        futures = executor.submit_all(plans)
        executor.shutdown(wait=False)
        # Every future resolves: either it ran, or it carries a clear
        # RuntimeBrookError - nothing is left hanging forever.
        for future in futures:
            assert future.wait(timeout=30.0)
            exc = future.exception()
            assert exc is None or isinstance(exc, RuntimeBrookError)

    def test_concurrent_shutdown_calls_do_not_hang_or_strand(
            self, cpu_runtime):
        # Regression: a second shutdown() used to enqueue the worker
        # stop sentinels while the first one was still draining, which
        # could strand queued launches behind a sentinel and hang the
        # draining caller forever.
        plans, _ = self._busy_plans(cpu_runtime, count=24)
        executor = cpu_runtime.executor(workers=2)
        futures = executor.submit_all(plans)
        run_threads(4, lambda index: executor.shutdown(wait=True))
        assert all(future.done() for future in futures)
        assert all(future.exception() is None for future in futures)


# --------------------------------------------------------------------------- #
# Satellite: hazard tables key on leaf storages, not wrapper identity
# --------------------------------------------------------------------------- #
class _SlowPlan:
    """Plan-like wrapper that delays a real plan (forces submission-order
    races to be deterministic instead of timing-dependent)."""

    def __init__(self, plan, delay):
        self._plan = plan
        self._delay = delay
        self.bound_streams = plan.bound_streams

    def launch(self):
        time.sleep(self._delay)
        return self._plan.launch()


class TestHazardStorageKeying:
    """Regression: the executor's hazard tables keyed plain streams by
    *wrapper* identity, so two Stream handles over the same device
    storage (or a plain stream aliasing one band of a ShardedStorage)
    never collided and conflicting launches could legally overlap."""

    def test_two_wrappers_over_one_storage_collide(self, cpu_runtime):
        from repro.core.analysis.dataflow import storage_units
        s1 = cpu_runtime.stream((8,))
        s2 = cpu_runtime.stream((8,))
        s2.storage = s1.storage       # second handle to the same storage
        assert set(storage_units(s1)) == set(storage_units(s2))

    def test_plain_stream_aliasing_a_shard_band_collides(self):
        from repro.core.analysis.dataflow import storage_units
        with BrookRuntime(backend="cpu", devices=2) as rt:
            sharded = rt.stream((8, 4))
            band = rt.stream((4, 4))
            band.storage = sharded.storage.parts[0]
            keys = set(storage_units(band))
            assert keys and keys <= set(storage_units(sharded))

    def test_tiled_storage_keys_descend_to_tiles(self):
        from repro.core.analysis.dataflow import storage_units
        with tiny_gles2_runtime(8) as rt:
            big = rt.stream((16, 16))       # tiles at the 8-px limit
            tiles = big.storage.parts
            assert len(tiles) > 1
            assert set(storage_units(big)) == {id(tile) for tile in tiles}
            one = rt.stream((4, 4))
            one.storage = tiles[0]
            keys = set(storage_units(one))
            assert keys and keys <= set(storage_units(big))

    def test_conflicting_launches_through_aliased_wrappers_serialize(
            self, cpu_runtime):
        """y1 and y2 are two handles to one storage: scale(x)->y1 then
        offset(y2)->y2 must run in submission order even though the
        wrappers differ.  The first launch is slowed so the buggy
        keying (no dependency between the two) deterministically runs
        the second launch first and computes 2.0 instead of 3.0."""
        module = cpu_runtime.compile(SRC)
        x = cpu_runtime.stream_from(np.full((32,), 1.0))
        y1 = cpu_runtime.stream((32,))
        y2 = cpu_runtime.stream((32,))
        y2.storage = y1.storage
        with cpu_runtime.executor(workers=2) as ex:
            ex.submit(_SlowPlan(module.scale.bind(x, 2.0, y1), 0.25))
            ex.submit(module.offset.bind(y2, 1.0, y2))
            assert ex.wait_all(timeout=10.0)
        np.testing.assert_array_equal(y1.read(), np.full((32,), 3.0))
