"""Tests for the multi-runtime serving layer (``repro.service``)."""

import threading

import numpy as np
import pytest

from repro.errors import KernelLaunchError, RuntimeBrookError
from repro.service import (
    BrookService,
    KernelCall,
    ServiceRequest,
    ServiceResponse,
    call,
)
from repro.service.bench import build_adas_request, run_service_bench

SRC = """
kernel void scale(float x<>, float k, out float y<>) { y = x * k; }
kernel void offset(float x<>, float d, out float y<>) { y = x + d; }
reduce void total(float v<>, reduce float acc) { acc += v; }
"""


def make_request(data, k=2.0, d=1.0, name=""):
    return ServiceRequest(
        source=SRC,
        calls=(call("scale", "x", k, "tmp"), call("offset", "tmp", d, "out")),
        inputs={"x": data},
        outputs={"out": data.shape},
        scratch={"tmp": data.shape},
        name=name,
    )


# --------------------------------------------------------------------------- #
# Request model
# --------------------------------------------------------------------------- #
class TestServiceRequest:
    def test_call_normalizes_scalars(self):
        one_call = call("scale", "x", 2, "y")
        assert one_call.args == ("x", 2.0, "y")

    def test_call_rejects_bad_argument(self):
        with pytest.raises(RuntimeBrookError):
            call("scale", "x", object(), "y")

    def test_unknown_stream_name_rejected(self):
        with pytest.raises(RuntimeBrookError, match="neither an input"):
            ServiceRequest(source=SRC,
                           calls=(call("scale", "x", 1.0, "mystery"),),
                           inputs={"x": np.zeros(4)},
                           outputs={"out": (4,)})

    def test_overlapping_names_rejected(self):
        with pytest.raises(RuntimeBrookError, match="more than one"):
            ServiceRequest(source=SRC,
                           calls=(call("scale", "x", 1.0, "x"),),
                           inputs={"x": np.zeros(4)},
                           outputs={"x": (4,)})

    def test_empty_calls_rejected(self):
        with pytest.raises(RuntimeBrookError):
            ServiceRequest(source=SRC, calls=(), inputs={},
                           outputs={"out": (4,)})

    def test_signature_ignores_data_but_not_shape(self):
        a = make_request(np.zeros((8,), dtype=np.float32))
        b = make_request(np.ones((8,), dtype=np.float32))
        c = make_request(np.zeros((16,), dtype=np.float32))
        d = make_request(np.zeros((8,), dtype=np.float32), k=3.0)
        assert a.signature() == b.signature()
        assert a.signature() != c.signature()
        assert a.signature() != d.signature()


# --------------------------------------------------------------------------- #
# BrookService basics
# --------------------------------------------------------------------------- #
class TestBrookService:
    def test_process_roundtrip(self):
        data = np.arange(16.0, dtype=np.float32)
        with BrookService(backend="cpu", pool_size=2) as service:
            response = service.process(make_request(data, name="r0"))
        assert isinstance(response, ServiceResponse)
        assert response.name == "r0"
        np.testing.assert_allclose(response.outputs["out"], data * 2.0 + 1.0)
        assert response.latency_s >= 0.0

    def test_reduction_value_returned(self):
        data = np.arange(8.0, dtype=np.float32)
        request = ServiceRequest(
            source=SRC,
            calls=(call("scale", "x", 2.0, "y"), call("total", "y")),
            inputs={"x": data},
            outputs={"y": data.shape},
        )
        with BrookService(backend="cpu", pool_size=1) as service:
            response = service.process(request)
        assert response.value == pytest.approx(data.sum() * 2.0)

    @pytest.mark.parametrize("config", [dict(fuse=True), dict(fuse=False),
                                        dict(plan="auto")],
                             ids=["fuse", "nofuse", "auto"])
    def test_modes_bit_identical(self, config):
        rng = np.random.default_rng(3)
        frames = [rng.uniform(-5, 5, (12, 12)).astype(np.float32)
                  for _ in range(6)]
        reference = None
        for knobs in (dict(fuse=False), config):
            with BrookService(backend="cpu", pool_size=2,
                              **knobs) as service:
                responses = service.map(
                    [make_request(frame, name=f"f{i}")
                     for i, frame in enumerate(frames)])
            outputs = [r.outputs["out"] for r in responses]
            if reference is None:
                reference = outputs
            else:
                for mine, ref in zip(outputs, reference):
                    assert np.array_equal(mine.view(np.uint32),
                                          ref.view(np.uint32))

    def test_plan_cache_reused_across_requests(self):
        data = np.arange(16.0, dtype=np.float32)
        with BrookService(backend="cpu", pool_size=1) as service:
            first = service.process(make_request(data))
            second = service.process(make_request(data + 5))
            report = service.service_report()
        assert not first.cached
        assert second.cached
        cache = report["workers"][0]["plan_cache"]
        assert cache["hits"] == 1 and cache["misses"] == 1
        np.testing.assert_allclose(second.outputs["out"], (data + 5) * 2 + 1)

    def test_plan_cache_counters_attributable_per_signature(self):
        # Aggregate hit/miss counters cannot tell which pipeline the
        # cache worked for; the per-signature breakdown must.
        data_a = np.arange(16.0, dtype=np.float32)
        data_b = np.arange(32.0, dtype=np.float32)
        with BrookService(backend="cpu", pool_size=1) as service:
            service.process(make_request(data_a, name="a0"))
            service.process(make_request(data_a + 1, name="a1"))
            service.process(make_request(data_b, name="b0"))
            report = service.service_report()
        cache = report["workers"][0]["plan_cache"]
        assert cache["hits"] == 1 and cache["misses"] == 2
        per_signature = cache["per_signature"]
        assert len(per_signature) == 2
        # Labels lead with the kernel chain and stay distinct even
        # though both signatures run the same kernels.
        for label in per_signature:
            assert label.startswith("scale+offset@")
        counters = sorted((c["hits"], c["misses"])
                          for c in per_signature.values())
        assert counters == [(0, 1), (1, 1)]

    def test_per_signature_counters_survive_eviction(self):
        # A one-entry cache and two alternating signatures: every switch
        # evicts, and the re-inserted entry must count under the same
        # label as the one it replaced.
        data_a = np.arange(16.0, dtype=np.float32)
        data_b = np.arange(32.0, dtype=np.float32)
        order = [data_a, data_b, data_a, data_b, data_b]
        with BrookService(backend="cpu", pool_size=1,
                          plan_cache_size=1) as service:
            for index, data in enumerate(order):
                service.process(make_request(data, name=f"r{index}"))
            cache = service.service_report()["workers"][0]["plan_cache"]
        assert cache["entries"] == 1
        assert cache["hits"] == 1 and cache["misses"] == 4
        per_signature = cache["per_signature"]
        assert len(per_signature) == 2
        assert sorted((c["hits"], c["misses"])
                      for c in per_signature.values()) == [(0, 2), (1, 2)]

    def test_per_signature_counters_under_auto_plan(self):
        # plan="auto" extends the cache key with the chosen config; the
        # counters stay keyed by the request signature alone.
        data_a = np.arange(16.0, dtype=np.float32)
        data_b = np.arange(32.0, dtype=np.float32)
        with BrookService(backend="cpu", pool_size=1,
                          plan="auto") as service:
            for index, data in enumerate([data_a, data_a + 1, data_b]):
                service.process(make_request(data, name=f"r{index}"))
            cache = service.service_report()["workers"][0]["plan_cache"]
        assert cache["hits"] == 1 and cache["misses"] == 2
        per_signature = cache["per_signature"]
        assert len(per_signature) == 2
        for label in per_signature:
            assert label.startswith("scale+offset@")
        assert sorted((c["hits"], c["misses"])
                      for c in per_signature.values()) == [(0, 1), (1, 1)]

    def test_least_loaded_dispatch_spreads_requests(self):
        data = np.arange(8.0, dtype=np.float32)
        with BrookService(backend="cpu", pool_size=3) as service:
            responses = service.map([make_request(data + i, name=f"r{i}")
                                     for i in range(12)])
            report = service.service_report()
        assert {r.worker for r in responses} == {0, 1, 2}
        assert sum(row["requests"] for row in report["workers"]) == 12

    def test_compile_error_propagates(self):
        request = ServiceRequest(
            source="kernel void broken(float x<>, out float y<>) { y = ; }",
            calls=(call("broken", "x", "out"),),
            inputs={"x": np.zeros(4, dtype=np.float32)},
            outputs={"out": (4,)},
        )
        with BrookService(backend="cpu", pool_size=1) as service:
            future = service.submit(request)
            assert future.exception(timeout=10.0) is not None
            with pytest.raises(Exception):
                future.result()
            report = service.service_report()
        assert report["requests_failed"] == 1

    def test_failure_does_not_poison_worker(self):
        bad = ServiceRequest(
            source=SRC,
            calls=(call("scale", "x", 1.0, "out"),),
            inputs={"x": np.zeros((4,), dtype=np.float32)},
            outputs={"out": (8,)},       # mismatched domain
        )
        data = np.arange(4.0, dtype=np.float32)
        with BrookService(backend="cpu", pool_size=1) as service:
            with pytest.raises(Exception):
                service.process(bad)
            good = service.process(make_request(data))
        np.testing.assert_allclose(good.outputs["out"], data * 2 + 1)

    def test_launch_failure_fails_only_its_own_request(self, monkeypatch):
        """A request raising at launch fails only its own future, even
        when distinct-signature requests were drained with it."""
        from repro.runtime.launch import LaunchPlan

        source = SRC + """
kernel void hold(float x<>, out float y<>) { y = x; }
kernel void fail(float x<>, out float y<>) { y = x; }
"""
        gate = threading.Event()
        original = LaunchPlan.launch

        def launch(plan):
            if plan.kernel_name == "hold":
                gate.wait(timeout=10.0)
            if plan.kernel_name == "fail":
                raise KernelLaunchError("injected device fault")
            return original(plan)

        monkeypatch.setattr(LaunchPlan, "launch", launch)

        def single(kernel, size, name):
            return ServiceRequest(
                source=source, calls=(call(kernel, "x", "out"),),
                inputs={"x": np.arange(float(size), dtype=np.float32)},
                outputs={"out": (size,)}, name=name)

        requests = [
            make_request(np.arange(8.0, dtype=np.float32), name="r0"),
            single("fail", 12, "bad"),
            make_request(np.arange(16.0, dtype=np.float32), name="r2"),
            make_request(np.arange(20.0, dtype=np.float32), name="r3"),
        ]
        with BrookService(backend="cpu", pool_size=1, fuse=False,
                          max_batch=8) as service:
            # The held request keeps the worker busy until everything is
            # queued, so the next drain takes all four at once.
            held = service.submit(single("hold", 4, "held"))
            futures = [service.submit(request) for request in requests]
            gate.set()
            assert held.result(timeout=10.0).name == "held"
            errors = [future.exception(timeout=10.0) for future in futures]
            report = service.service_report()
        assert isinstance(errors[1], KernelLaunchError)
        for index in (0, 2, 3):
            assert errors[index] is None
            np.testing.assert_array_equal(
                futures[index].result().outputs["out"],
                requests[index].inputs["x"] * 2.0 + 1.0)
        assert report["requests_failed"] == 1
        assert report["requests_completed"] == 4

    def test_tiny_plan_cache_eviction_within_one_batch(self):
        """Distinct signatures drained into one batch must all succeed
        even when resolving a later request evicts an earlier one's
        cache entry (each request runs before the next one is
        resolved)."""
        requests = [
            make_request(np.arange(float(4 + 4 * i), dtype=np.float32),
                         name=f"r{i}")
            for i in range(4)
        ]
        with BrookService(backend="cpu", pool_size=1, fuse=False,
                          plan_cache_size=1, max_batch=8) as service:
            # Submit everything before the single worker wakes up so the
            # batch drain sees all four signatures at once.
            futures = [service.submit(request) for request in requests]
            responses = [future.result(timeout=10.0) for future in futures]
        for request, response in zip(requests, responses):
            np.testing.assert_allclose(
                response.outputs["out"],
                request.inputs["x"] * 2.0 + 1.0)

    def test_submit_after_close_raises(self):
        service = BrookService(backend="cpu", pool_size=1)
        service.close()
        service.close()     # idempotent
        with pytest.raises(RuntimeBrookError):
            service.submit(make_request(np.zeros(4, dtype=np.float32)))

    def test_close_drains_pending_requests(self):
        data = np.arange(8.0, dtype=np.float32)
        service = BrookService(backend="cpu", pool_size=2)
        futures = [service.submit(make_request(data + i)) for i in range(16)]
        service.close()
        for future in futures:
            assert future.result(timeout=10.0) is not None

    def test_submit_racing_close_never_drops_requests(self):
        """Every submit that returns a future (instead of raising) must
        eventually complete it, even when close() runs concurrently."""
        data = np.arange(8.0, dtype=np.float32)
        for _ in range(10):
            service = BrookService(backend="cpu", pool_size=2)
            futures = []
            errors = []

            def submitter():
                try:
                    for i in range(20):
                        futures.append(service.submit(make_request(data + i)))
                except RuntimeBrookError:
                    pass        # closed mid-loop: expected
                except BaseException as exc:  # noqa: BLE001
                    errors.append(exc)

            thread = threading.Thread(target=submitter)
            thread.start()
            service.close()
            thread.join()
            assert not errors
            for future in futures:
                assert future.result(timeout=10.0) is not None

    def test_concurrent_clients(self):
        """Many client threads share one service; every response is
        bit-identical to the single-runtime serial result."""
        rng = np.random.default_rng(11)
        frames = [rng.uniform(-3, 3, (10, 10)).astype(np.float32)
                  for _ in range(24)]
        expected = [frame * 2.0 + 1.0 for frame in frames]
        results = {}
        with BrookService(backend="cpu", pool_size=3) as service:
            def client(index):
                response = service.process(
                    make_request(frames[index], name=f"c{index}"))
                results[index] = response.outputs["out"]

            threads = [threading.Thread(target=client, args=(i,))
                       for i in range(len(frames))]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
            report = service.service_report()
        for index, frame_expected in enumerate(expected):
            assert np.array_equal(
                results[index].view(np.uint32),
                np.asarray(frame_expected, dtype=np.float32).view(np.uint32))
        assert report["requests_completed"] == len(frames)
        assert report["requests_per_s"] > 0

    def test_invalid_configuration(self):
        with pytest.raises(RuntimeBrookError):
            BrookService(pool_size=0)
        with pytest.raises(RuntimeBrookError):
            BrookService(fuse="bogus")
        for removed in ("queue", "pipeline", "off", None):
            with pytest.raises(RuntimeBrookError, match="fuse"):
                BrookService(fuse=removed)
        with pytest.raises(RuntimeBrookError):
            BrookService(pool_size=1).submit(object())  # type: ignore[arg-type]

    def test_service_report_shape(self):
        data = np.arange(4.0, dtype=np.float32)
        with BrookService(backend="cpu", pool_size=2) as service:
            service.process(make_request(data))
            report = service.service_report()
        assert report["pool_size"] == 2
        assert report["fuse"] is True
        assert report["requests_completed"] == 1
        assert set(report["latency_ms"]) == {"mean", "p50", "p95", "max"}
        assert report["device_totals"]["passes"] >= 1
        assert len(report["workers"]) == 2
        service.reset_service_stats()


# --------------------------------------------------------------------------- #
# Serving on the GPU backends (including tiled streams)
# --------------------------------------------------------------------------- #
class TestServiceBackends:
    def test_gles2_service_matches_serial(self):
        rng = np.random.default_rng(5)
        frame = rng.uniform(0, 1, (16, 16)).astype(np.float32)
        request = make_request(frame)
        from repro.runtime import BrookRuntime
        with BrookRuntime(backend="gles2") as rt:
            module = rt.compile(SRC)
            x = rt.stream_from(frame)
            tmp = rt.stream(frame.shape)
            out = rt.stream(frame.shape)
            module.scale(x, 2.0, tmp)
            module.offset(tmp, 1.0, out)
            serial = out.read()
        with BrookService(backend="gles2", pool_size=2) as service:
            response = service.process(request)
        assert np.array_equal(response.outputs["out"].view(np.uint32),
                              np.asarray(serial, dtype=np.float32)
                              .view(np.uint32))

    def test_tiled_request_on_gles2_device_limit(self):
        """A request whose streams exceed the device texture limit runs
        through the tiled engine inside the service and still matches
        the CPU pipeline bit-for-bit after quantization-aware compare."""
        size = 4096         # folds/tiles on videocore-iv (2048 limit)
        data = (np.arange(size, dtype=np.float32) % 31) / 31.0
        request = ServiceRequest(
            source=SRC,
            calls=(call("scale", "x", 0.5, "out"),),
            inputs={"x": data},
            outputs={"out": (size,)},
        )
        from repro.runtime import BrookRuntime
        with BrookRuntime(backend="gles2", device="videocore-iv") as rt:
            module = rt.compile(SRC)
            x = rt.stream_from(data)
            out = rt.stream((size,))
            module.scale(x, 0.5, out)
            serial = out.read()
            assert rt.statistics.transfer_calls >= 2
        with BrookService(backend="gles2", device="videocore-iv",
                          pool_size=2) as service:
            response = service.process(request)
        assert np.array_equal(response.outputs["out"].view(np.uint32),
                              np.asarray(serial, dtype=np.float32)
                              .view(np.uint32))


# --------------------------------------------------------------------------- #
# The serve-bench harness (small smoke; the full run lives in benchmarks/)
# --------------------------------------------------------------------------- #
class TestServeBenchHarness:
    def test_adas_request_shape(self):
        frame = np.zeros((16, 16), dtype=np.float32)
        request = build_adas_request(16, frame)
        assert [c.kernel for c in request.calls][0] == "filter3x3"
        assert set(request.outputs) == {"out"}
        assert len(request.scratch) == 7

    def test_bench_smoke_bitwise(self):
        payload = run_service_bench(size=16, requests=6,
                                    pool_sizes=(1, 2, 4), frames=3)
        assert payload["bitwise_identical"]
        for pool_size in ("1", "2", "4"):
            assert payload["pools"][pool_size]["requests_per_s"] > 0


# --------------------------------------------------------------------------- #
# Satellite: lifecycle with requests in flight + degenerate configuration
# --------------------------------------------------------------------------- #
class TestServiceLifecycleAndValidation:
    def test_close_while_busy_drains_every_future(self):
        data = np.arange(20000.0, dtype=np.float32)
        with BrookService(backend="cpu", pool_size=2) as service:
            futures = [service.submit(make_request(data, k=float(i),
                                                   name=f"r{i}"))
                       for i in range(24)]
            service.close()   # workers still chewing through the queue
            for future in futures:
                response = future.result(timeout=30.0)
                assert isinstance(response, ServiceResponse)
        # Worker runtimes were closed with the pool - no leaks.
        for worker in service.workers:
            assert worker.runtime.closed

    def test_degenerate_configuration_raises_uniformly(self):
        for kwargs in (dict(pool_size=0), dict(pool_size=-3),
                       dict(max_batch=0), dict(max_batch=-1),
                       dict(plan_cache_size=0), dict(devices=0),
                       dict(devices=-2)):
            with pytest.raises(RuntimeBrookError):
                BrookService(backend="cpu", **kwargs)

    def test_serve_bench_rejects_degenerate_arguments(self):
        with pytest.raises(RuntimeBrookError):
            run_service_bench(backend="cpu", size=8, requests=1,
                              pool_sizes=(0,))
        with pytest.raises(RuntimeBrookError):
            run_service_bench(backend="cpu", size=8, requests=1,
                              pool_sizes=(1,), devices=0)

    def test_sharded_workers_serve_bit_identical_responses(self):
        rng = np.random.default_rng(11)
        data = rng.uniform(0, 9, (12, 12)).astype(np.float32)
        with BrookService(backend="cpu", pool_size=1) as service:
            reference = service.process(make_request(data)).outputs["out"]
        with BrookService(backend="cpu", pool_size=2, devices=3) as service:
            assert service.devices == 3
            response = service.process(make_request(data))
            report = service.service_report()
        assert np.array_equal(reference.view(np.uint32),
                              response.outputs["out"].view(np.uint32))
        assert report["devices"] == 3
        assert report["device_totals"]["extra_shards"] > 0
