"""Tests for deadline-aware serving: EDF queues, WCET admission control
and the modelled-timeline accounting in :class:`BrookService`."""

import queue as stdlib_queue
from dataclasses import dataclass
from typing import Optional

import numpy as np
import pytest

from repro.errors import BrookError, RuntimeBrookError, WCETError
from repro.service import (
    BrookService,
    DeadlineRejected,
    DeadlineStats,
    EDFQueue,
    ServiceRequest,
    ServiceResponse,
    call,
)

SRC = """
kernel void scale(float x<>, float k, out float y<>) { y = x * k; }
kernel void offset(float x<>, float d, out float y<>) { y = x + d; }
"""

UNCERTIFIABLE = """
kernel void spin(float x<>, out float y<>) {
    float i = 0.0;
    while (i < x) { i += 1.0; }
    y = i;
}
"""


def make_request(data, k=2.0, d=1.0, name="", **extra):
    return ServiceRequest(
        source=SRC,
        calls=(call("scale", "x", k, "tmp"), call("offset", "tmp", d, "out")),
        inputs={"x": data},
        outputs={"out": data.shape},
        scratch={"tmp": data.shape},
        name=name,
        **extra,
    )


def frame(size=8, seed=0):
    return np.random.default_rng(seed).uniform(
        0, 1, (size, size)).astype(np.float32)


# --------------------------------------------------------------------------- #
# Request validation
# --------------------------------------------------------------------------- #
class TestDeadlineFields:
    def test_non_positive_deadline_rejected(self):
        for bad in (0, -1.5):
            with pytest.raises(RuntimeBrookError, match="deadline"):
                make_request(frame(), deadline=bad)

    def test_non_integer_priority_rejected(self):
        with pytest.raises(RuntimeBrookError, match="priority"):
            make_request(frame(), priority=1.5)

    def test_negative_release_rejected(self):
        with pytest.raises(RuntimeBrookError, match="release"):
            make_request(frame(), release=-0.1)

    def test_valid_fields_normalized(self):
        request = make_request(frame(), deadline=np.float64(0.5),
                               priority=np.int64(2), release=0)
        assert request.deadline == 0.5
        assert request.priority == 2
        assert request.release == 0.0

    def test_signature_ignores_deadline_fields(self):
        a = make_request(frame())
        b = make_request(frame(), deadline=0.25, priority=3, release=0.1)
        assert a.signature() == b.signature()


# --------------------------------------------------------------------------- #
# EDF queue
# --------------------------------------------------------------------------- #
@dataclass
class _FakeRequest:
    deadline: Optional[float] = None
    priority: int = 0


@dataclass
class _FakeItem:
    request: _FakeRequest
    tag: str = ""


class TestEDFQueue:
    def test_orders_by_deadline(self):
        q = EDFQueue()
        for tag, deadline in (("late", 3.0), ("early", 1.0), ("mid", 2.0)):
            q.put(_FakeItem(_FakeRequest(deadline=deadline), tag))
        assert [q.get_nowait().tag for _ in range(3)] == \
            ["early", "mid", "late"]

    def test_priority_breaks_deadline_ties(self):
        q = EDFQueue()
        q.put(_FakeItem(_FakeRequest(deadline=1.0, priority=5), "low"))
        q.put(_FakeItem(_FakeRequest(deadline=1.0, priority=1), "high"))
        assert q.get_nowait().tag == "high"

    def test_best_effort_sorts_after_every_deadline(self):
        q = EDFQueue()
        q.put(_FakeItem(_FakeRequest(deadline=None), "besteffort"))
        q.put(_FakeItem(_FakeRequest(deadline=99.0), "deadline"))
        assert q.get_nowait().tag == "deadline"
        assert q.get_nowait().tag == "besteffort"

    def test_fifo_among_equal_keys(self):
        q = EDFQueue()
        for tag in ("first", "second", "third"):
            q.put(_FakeItem(_FakeRequest(deadline=1.0), tag))
        assert [q.get_nowait().tag for _ in range(3)] == \
            ["first", "second", "third"]

    def test_sentinel_released_only_after_work_drains(self):
        q = EDFQueue()
        stop = object()  # no .request attribute, like the service's _STOP
        q.put(stop)
        q.put(_FakeItem(_FakeRequest(deadline=1.0), "work"))
        assert q.qsize() == 2
        assert q.get_nowait().tag == "work"
        assert q.get_nowait() is stop

    def test_empty_queue_raises(self):
        q = EDFQueue()
        assert q.empty()
        with pytest.raises(stdlib_queue.Empty):
            q.get_nowait()

    def test_blocking_get_with_timeout(self):
        q = EDFQueue()
        q.put(_FakeItem(_FakeRequest(deadline=1.0), "work"))
        assert q.get(block=True, timeout=0.1).tag == "work"


# --------------------------------------------------------------------------- #
# DeadlineStats
# --------------------------------------------------------------------------- #
class TestDeadlineStats:
    def test_completion_accounting(self):
        stats = DeadlineStats()
        stats.record_completion(True, wcet_s=1.0, modelled_s=0.25)
        stats.record_completion(False, wcet_s=1.0, modelled_s=0.5)
        stats.record_completion(None, wcet_s=None, modelled_s=None)
        assert stats.hits == 1 and stats.misses == 1
        assert stats.best_effort == 1
        assert stats.hit_rate == 0.5
        summary = stats.summary()
        assert summary["wcet_margin"]["count"] == 2
        assert summary["wcet_margin"]["min"] == 0.5
        assert summary["wcet_margin"]["max"] == 0.75

    def test_hit_rate_none_without_deadline_completions(self):
        assert DeadlineStats().hit_rate is None

    def test_reset(self):
        stats = DeadlineStats()
        stats.admitted = 3
        stats.record_completion(True, 1.0, 0.5)
        stats.reset()
        assert stats.admitted == 0 and stats.hits == 0
        assert not stats.margins


# --------------------------------------------------------------------------- #
# Service construction validation
# --------------------------------------------------------------------------- #
class TestServiceValidation:
    def test_unknown_scheduler_rejected(self):
        with pytest.raises(RuntimeBrookError, match="scheduler"):
            BrookService(scheduler="lifo")

    def test_unknown_platform_rejected(self):
        with pytest.raises(RuntimeBrookError, match="platform"):
            BrookService(platform="quantum")

    def test_report_names_scheduler_and_admission(self):
        with BrookService(backend="cpu", pool_size=1) as service:
            report = service.service_report()
        assert report["scheduler"] == "fifo"
        assert report["admission"] is False
        assert "deadline" not in report


# --------------------------------------------------------------------------- #
# Deadline tracking, admission and the modelled timeline
# --------------------------------------------------------------------------- #
class TestDeadlineServing:
    def test_tracked_response_carries_wcet_and_modelled_time(self):
        with BrookService(backend="cpu", pool_size=1,
                          platform="target") as service:
            response = service.process(make_request(frame()))
        assert isinstance(response, ServiceResponse)
        assert response.modelled_s is not None and response.modelled_s > 0
        assert response.wcet_s is not None
        assert response.modelled_s <= response.wcet_s
        assert response.virtual_finish_s is not None
        assert response.deadline_met is None  # no deadline on the request

    def test_generous_deadline_is_met(self):
        with BrookService(backend="cpu", pool_size=1, scheduler="edf",
                          admission=True) as service:
            response = service.process(make_request(frame(), deadline=60.0))
        assert response.deadline_met is True
        assert response.virtual_finish_s <= 60.0

    def test_impossible_deadline_rejected_with_typed_response(self):
        with BrookService(backend="cpu", pool_size=1, scheduler="edf",
                          admission=True) as service:
            # Far below any request's WCET bound on the modelled timeline.
            rejected = service.process(make_request(frame(), deadline=1e-12))
            report = service.service_report()
        assert isinstance(rejected, DeadlineRejected)
        assert rejected.deadline_s == 1e-12
        assert rejected.projected_s > rejected.deadline_s
        assert rejected.wcet_s > 0
        assert report["deadline"]["rejected"] == 1

    def test_rejection_is_not_an_exception(self):
        with BrookService(backend="cpu", pool_size=1, scheduler="edf",
                          admission=True) as service:
            future = service.submit(make_request(frame(), deadline=1e-12))
            result = future.result(timeout=10)
        assert isinstance(result, DeadlineRejected)

    def test_admission_fills_up_to_the_deadline(self):
        data = frame()
        with BrookService(backend="cpu", pool_size=1, scheduler="edf",
                          admission=True) as service:
            probe = service.process(make_request(data, deadline=60.0))
            # The backlog clock sits at the probe's WCET projection
            # (committed time never decays to the faster actual), so this
            # leaves room for exactly two more WCETs.
            deadline = 3.5 * probe.wcet_s
            futures = [service.submit(make_request(data, deadline=deadline))
                       for _ in range(4)]
            results = [f.result(timeout=30) for f in futures]
        admitted = [r for r in results if isinstance(r, ServiceResponse)]
        rejected = [r for r in results if isinstance(r, DeadlineRejected)]
        assert len(admitted) == 2
        assert len(rejected) == 2
        assert all(r.deadline_met for r in admitted)

    def test_uncertifiable_request_raises_typed_error_at_submit(self):
        data = frame()
        request = ServiceRequest(
            source=UNCERTIFIABLE,
            calls=(call("spin", "x", "out"),),
            inputs={"x": data},
            outputs={"out": data.shape},
        )
        with BrookService(backend="cpu", pool_size=1, scheduler="edf",
                          admission=True) as service:
            with pytest.raises(BrookError):
                service.submit(request)

    def test_completed_responses_bitwise_identical_across_schedulers(self):
        data = frame()
        request = make_request(data, deadline=60.0)
        with BrookService(backend="cpu", pool_size=1) as fifo:
            baseline = fifo.process(make_request(data))
        with BrookService(backend="cpu", pool_size=1, scheduler="edf",
                          admission=True) as edf:
            tracked = edf.process(request)
        np.testing.assert_array_equal(baseline.outputs["out"],
                                      tracked.outputs["out"])
        assert baseline.outputs["out"].tobytes() == \
            tracked.outputs["out"].tobytes()

    def test_report_deadline_section(self):
        with BrookService(backend="cpu", pool_size=1, scheduler="edf",
                          admission=True) as service:
            service.process(make_request(frame(), deadline=60.0))
            service.process(make_request(frame()))
            report = service.service_report()
        deadline = report["deadline"]
        assert report["scheduler"] == "edf"
        assert report["admission"] is True
        assert deadline["platform"] == "target"
        assert deadline["admitted"] == 2
        assert deadline["deadline_hits"] == 1
        assert deadline["best_effort"] == 1
        assert deadline["hit_rate"] == 1.0
        assert deadline["wcet_margin"]["count"] == 2
        assert 0.0 <= deadline["wcet_margin"]["min"] <= 1.0
        assert deadline["virtual_s"] > 0

    def test_reset_clears_deadline_stats_and_clocks(self):
        with BrookService(backend="cpu", pool_size=1, scheduler="edf",
                          admission=True) as service:
            service.process(make_request(frame(), deadline=60.0))
            service.reset_service_stats()
            report = service.service_report()
            assert report["deadline"]["admitted"] == 0
            assert report["deadline"]["virtual_s"] == 0.0
            # The service still serves correctly after a reset.
            response = service.process(make_request(frame(), deadline=60.0))
        assert response.deadline_met is True

    def test_deterministic_accounting_across_runs(self):
        def run_once():
            with BrookService(backend="cpu", pool_size=2, scheduler="edf",
                              admission=True) as service:
                futures = [
                    service.submit(make_request(frame(seed=i), deadline=60.0,
                                                name=f"r{i}"))
                    for i in range(6)
                ]
                return [f.result(timeout=30).virtual_finish_s
                        for f in futures]

        assert run_once() == run_once()


# --------------------------------------------------------------------------- #
# One request signature per submit
# --------------------------------------------------------------------------- #
@pytest.fixture
def signature_calls(monkeypatch):
    """Names of the requests whose ``signature()`` was built."""
    calls = []
    real = ServiceRequest.signature

    def counting(self):
        calls.append(self.name)
        return real(self)

    monkeypatch.setattr(ServiceRequest, "signature", counting)
    return calls


@pytest.mark.parametrize("config,served,plan_cache,autoplan", [
    ({}, 6, (5, 1), None),
    ({"scheduler": "edf", "admission": True}, 4, (3, 1), None),
    ({"scheduler": "edf", "admission": True, "plan": "auto"}, 4, (3, 1),
     (5, 1)),
])
def test_signature_is_built_once_per_submit(signature_calls, config, served,
                                            plan_cache, autoplan):
    """The WCET cache, the planner's decisions and the worker's prepared
    plans all key on the one signature built at submit, with the same
    hits and misses as keying each on its own."""
    data = frame()
    requests = [make_request(data, deadline=60.0, name=f"ok{i}")
                for i in range(3)]
    requests += [make_request(data, deadline=1e-12, name=f"late{i}")
                 for i in range(2)]
    requests.append(make_request(data, deadline=60.0, name="ok3"))
    with BrookService(backend="cpu", pool_size=1, **config) as service:
        results = [service.submit(request).result(timeout=30)
                   for request in requests]
        report = service.service_report()
    assert signature_calls == [request.name for request in requests]
    assert sum(isinstance(result, ServiceResponse)
               for result in results) == served
    assert sum(isinstance(result, DeadlineRejected)
               for result in results) == len(requests) - served
    cache = report["workers"][0]["plan_cache"]
    assert (cache["hits"], cache["misses"]) == plan_cache
    if autoplan is not None:
        decisions = report["autoplan"]["decision_cache"]
        assert (decisions["hits"], decisions["misses"]) == autoplan
