"""Plan-aware WCET: every candidate is bounded by its own launch list.

Admission, deadline filtering and execution agree on one configuration,
so the bound that admits a request must dominate what that exact
configuration records.  These tests build every selectable planner
candidate of the ADAS pipeline, serve one request on it and compare the
bounded :class:`~repro.timing.gpu_model.GPUWorkload` counters with the
recorded ones field by field (not only the priced time), on every
backend, tiled and sharded; they also pin the exact transfer count of
reduction requests, the fallback for merged kernels without a bound,
and the service wiring (admission uses the chosen candidate's bound,
and the submit-side decision records nothing).
"""

import dataclasses

import numpy as np
import pytest

from repro.core.analysis.planner import (build_launchables,
                                         plan_service_request)
from repro.core.analysis.wcet import (analyze_kernel_wcet, plan_wcet,
                                      request_wcet)
from repro.errors import WCETError
from repro.runtime import BrookRuntime
from repro.service import (BrookService, DeadlineRejected, ServiceRequest,
                           call)
from repro.service.bench import build_adas_request, make_frames
from repro.service.service import prepare_request

#: Bounded counter -> the ``workload_since`` key it bounds.
COUNTERS = {
    "passes": "passes",
    "elements": "elements",
    "flops": "flops",
    "texture_fetches": "texture_fetches",
    "bytes_to_device": "bytes_uploaded",
    "bytes_from_device": "bytes_downloaded",
    "transfer_calls": "transfer_calls",
    "tile_switches": "extra_tiles",
    "shard_dispatches": "extra_shards",
    "halo_bytes": "halo_bytes",
}

#: (id, runtime kwargs, frame size)
RUNTIMES = [
    ("cpu", dict(backend="cpu"), 32),
    ("gles2", dict(backend="gles2", device="videocore-iv"), 32),
    ("cal", dict(backend="cal", device="radeon-hd3400"), 32),
    ("tiled-gles2", dict(backend="gles2", device="constrained-es2"), 40),
    ("cpu-2dev", dict(backend="cpu", devices=2), 32),
    ("gles2-2dev", dict(backend="gles2", device="videocore-iv", devices=2),
     32),
]


def assert_dominates(bound, recorded, context):
    for field, key in COUNTERS.items():
        assert getattr(bound.workload, field) >= recorded[key], (
            f"{context}: bounded {field} {getattr(bound.workload, field)} "
            f"< recorded {key} {recorded[key]}")


def serve(rt, request, streams, launchables):
    """Write the inputs, launch, read the outputs: the recorded workload."""
    marker = rt.statistics.marker()
    for name, array in request.inputs.items():
        streams[name].write(array)
    for launchable in launchables:
        launchable.launch()
    outputs = {name: streams[name].read() for name in request.outputs}
    return rt.statistics.workload_since(marker), outputs


def merged_bounds(launchables):
    """Merged-kernel bounds of the fused segments, keyed by call group."""
    from repro.runtime.launch import FusedPipeline

    fused = {}
    start = 0
    for launchable in launchables:
        if not isinstance(launchable, FusedPipeline):
            start += 1
            continue
        for plan, indices in launchable.segments:
            if len(indices) > 1:
                fused[tuple(start + i for i in indices)] = \
                    analyze_kernel_wcet(plan.kernel.definition, plan.helpers)
        start += launchable.source_count
    return fused


@pytest.mark.parametrize("kwargs,size", [(kw, size)
                                         for _, kw, size in RUNTIMES],
                         ids=[label for label, _, _ in RUNTIMES])
def test_every_candidate_bound_dominates_its_recorded_work(kwargs, size):
    frame = make_frames(size, 1, seed=3)[0]
    request = build_adas_request(size, frame, name="sound")
    with BrookRuntime(**kwargs) as rt:
        module, streams, plans = prepare_request(rt, request)
        limits = rt.backend.target_limits()
        decision = plan_service_request(
            request, module.program, rt, plans,
            executable_devices=rt.device_count, limits=limits)
        selectable = [c for c in decision.candidates if c.selectable]
        assert any(c.config.fused_groups for c in selectable)
        assert any(not c.config.fused_groups for c in selectable)
        for candidate in selectable:
            launchables = build_launchables(rt, plans, candidate.config)
            recorded, _ = serve(rt, request, streams, launchables)
            bound = request_wcet(
                request, module.program, devices=rt.device_count,
                limits=limits, fused=merged_bounds(launchables))
            # The candidate's bound is the bound of what it launches.
            assert bound.seconds == candidate.wcet_s
            assert_dominates(bound, recorded, candidate.config.describe())


def test_fused_candidate_is_bounded_as_one_pass():
    frame = make_frames(32, 1, seed=3)[0]
    request = build_adas_request(32, frame)
    with BrookRuntime(backend="gles2") as rt:
        module, _streams, plans = prepare_request(rt, request)
        decision = plan_service_request(
            request, module.program, rt, plans, executable_devices=1,
            limits=rt.backend.target_limits())
    by_key = {c.config.key(): c for c in decision.candidates}
    fused = by_key[(1, "rows", ((0, 1, 2, 3, 4, 5, 6, 7),))]
    unfused = by_key[(1, "rows", ())]
    assert fused is decision.chosen
    assert fused.wcet_s < unfused.wcet_s
    # One upload and one read back, no slack: the un-fused bound is the
    # plain request bound.
    plain = request_wcet(request, module.program,
                         limits=rt.backend.target_limits())
    assert plain.workload.transfer_calls == 2
    assert unfused.wcet_s == plain.seconds


# --------------------------------------------------------------------------- #
# Reductions: exact transfer counting
# --------------------------------------------------------------------------- #
REDUCE_SOURCE = """
kernel void square(float x<>, out float y<>) { y = x * x; }
reduce void rsum(float v<>, reduce float acc) { acc += v; }
reduce void rmax(float v<>, reduce float acc) { acc = max(acc, v); }
"""


def reduce_request(size=16):
    data = np.random.default_rng(5).uniform(
        0.0, 1.0, (size, size)).astype(np.float32)
    return ServiceRequest(
        source=REDUCE_SOURCE,
        calls=(call("square", "x", "sq"),
               call("rsum", "sq", 0.0),
               call("rmax", "x", "blocks"),
               call("rsum", "x", "total")),
        inputs={"x": data},
        outputs={"blocks": (4, 4), "total": (1,)},
        scratch={"sq": (size, size)},
    )


@pytest.mark.parametrize("kwargs", [
    dict(backend="cpu"), dict(backend="gles2"), dict(backend="cal"),
    dict(backend="cpu", devices=2),
], ids=["cpu", "gles2", "cal", "cpu-2dev"])
def test_reduction_request_transfers_are_exact(kwargs):
    """A reduction moves no data; a reduction into a stream moves its
    accumulator once: the multi-element one is read back, the one-element
    one written.  Every other counter stays bounded."""
    request = reduce_request()
    with BrookRuntime(**kwargs) as rt:
        module, streams, plans = prepare_request(rt, request)
        recorded, outputs = serve(rt, request, streams, plans)
        bound = request_wcet(request, module.program,
                             devices=rt.device_count,
                             limits=rt.backend.target_limits())
    assert_dominates(bound, recorded, "reduce request")
    # x up, blocks (reduce_into) down, total up (the reduced value), then
    # blocks and total read back as request outputs.
    assert recorded["bytes_uploaded"] == 16 * 16 * 4 + 4
    assert recorded["bytes_downloaded"] == 2 * 4 * 4 * 4 + 4
    assert bound.workload.bytes_to_device == recorded["bytes_uploaded"]
    assert bound.workload.bytes_from_device == recorded["bytes_downloaded"]
    if rt.device_count == 1:
        assert bound.workload.transfer_calls == recorded["transfer_calls"]
    data = request.inputs["x"]
    assert outputs["blocks"].shape == (4, 4)
    assert outputs["total"][0] == pytest.approx(float(data.sum()), rel=1e-4)


# --------------------------------------------------------------------------- #
# Merged kernels without a bound of their own
# --------------------------------------------------------------------------- #
LOOP_SOURCE = """
kernel void accumulate(float x<>, float n, out float y<>) {
    float acc = 0.0;
    for (int i = 0; i < n; i = i + 1) {
        acc = acc + x;
    }
    y = acc;
}
kernel void scale(float y<>, float k, out float z<>) { z = y * k; }
"""
LOOP_RANGE = {"accumulate": {"params": {"n": (1, 8)}}}


def test_unbounded_merged_kernel_falls_back_to_member_bounds():
    """The loop is bounded only by the declared bound of ``n``, which the
    merged kernel does not carry: the fused group is bounded by its
    members' un-fused pieces, and that bound still dominates the fused
    pass it admits."""
    data = np.linspace(0.0, 1.0, 64, dtype=np.float32).reshape(8, 8)
    request = ServiceRequest(
        source=LOOP_SOURCE,
        calls=(call("accumulate", "x", 4.0, "y"), call("scale", "y", 0.5,
                                                       "z")),
        inputs={"x": data}, outputs={"z": (8, 8)}, scratch={"y": (8, 8)})
    with BrookRuntime(backend="gles2") as rt:
        module = rt.compile(LOOP_SOURCE, range_specs=LOOP_RANGE)
        streams = {name: rt.stream(data.shape, name=name)
                   for name in ("x", "y", "z")}
        plans = [module.accumulate.bind(streams["x"], 4.0, streams["y"]),
                 module.scale.bind(streams["y"], 0.5, streams["z"])]
        pipeline = rt.fuse(plans)
        assert pipeline.pass_count == 1
        merged = pipeline.segments[0][0]
        with pytest.raises(WCETError):
            analyze_kernel_wcet(merged.kernel.definition, merged.helpers)
        decision = plan_service_request(
            request, module.program, rt, plans, executable_devices=1,
            limits=rt.backend.target_limits())
        by_key = {c.config.key(): c for c in decision.candidates}
        fused = by_key[(1, "rows", ((0, 1),))]
        unfused = by_key[(1, "rows", ())]
        assert fused.wcet_s == unfused.wcet_s
        recorded, outputs = serve(rt, request, streams, [pipeline])
        bound = request_wcet(request, module.program,
                             limits=rt.backend.target_limits())
    assert_dominates(bound, recorded, "fallback")
    np.testing.assert_allclose(outputs["z"], data * 2.0, rtol=0.02,
                               atol=0.01)


def test_plan_wcet_bounds_an_unbounded_merged_kernel_by_its_members():
    """``plan_wcet`` of the same fused pipeline takes the members' un-fused
    bounds instead of raising, and the bound dominates the fused pass."""
    data = np.linspace(0.0, 1.0, 64, dtype=np.float32).reshape(8, 8)
    with BrookRuntime(backend="gles2") as rt:
        module = rt.compile(LOOP_SOURCE, range_specs=LOOP_RANGE)
        limits = rt.backend.target_limits()
        x = rt.stream_from(data)
        y, z = rt.stream(data.shape), rt.stream(data.shape)
        plans = [module.accumulate.bind(x, 4.0, y),
                 module.scale.bind(y, 0.5, z)]
        members = [plan_wcet(plan, limits=limits) for plan in plans]
        pipeline = rt.fuse(plans)
        assert pipeline.pass_count == 1
        assert pipeline.plans == plans
        bound = plan_wcet(pipeline, limits=limits)
        marker = rt.statistics.marker()
        pipeline.launch()
        recorded = rt.statistics.workload_since(marker)
    assert bound.name == "accumulate+scale"
    for field in COUNTERS:
        assert getattr(bound.workload, field) == sum(
            getattr(member.workload, field) for member in members), field
    assert_dominates(bound, recorded, "plan_wcet fallback")


# --------------------------------------------------------------------------- #
# Service wiring
# --------------------------------------------------------------------------- #
def test_admission_uses_the_chosen_candidate_bound():
    frame = make_frames(32, 1, seed=9)[0]
    budget = 5e-3
    request = dataclasses.replace(build_adas_request(32, frame, name="r"),
                                  release=0.0, deadline=budget)
    with BrookService(backend="gles2", pool_size=1, scheduler="edf",
                      admission=True, plan="auto") as service:
        response = service.submit(request).result()
        decision = service._decision_for(request, service._key_for(request))
    chosen = decision.choose(budget)
    assert chosen.config.fused_groups           # the fused pass fits
    assert response.wcet_s == chosen.wcet_s
    assert response.modelled_s <= response.wcet_s
    assert response.deadline_met


@pytest.mark.parametrize("backend", ["cpu", "gles2"])
def test_submit_side_decision_records_nothing(backend):
    """A request no candidate can meet is planned at submit and rejected
    there: the decision ran on the first worker's runtime, and no
    worker's statistics gained a record."""
    frame = make_frames(16, 1, seed=2)[0]
    doomed = dataclasses.replace(build_adas_request(16, frame, name="d"),
                                 release=0.0, deadline=1e-6)
    with BrookService(backend=backend, pool_size=2, scheduler="edf",
                      admission=True, plan="auto") as service:
        response = service.submit(doomed).result()
        report = service.service_report()
        markers = [w.runtime.statistics.marker() for w in service.workers]
    assert isinstance(response, DeadlineRejected)
    assert report["autoplan"]["decision_cache"]["entries"] == 1
    assert markers == [(0, 0), (0, 0)]
    assert report["device_totals"]["passes"] == 0
    assert report["device_totals"]["bytes_uploaded"] == 0


# --------------------------------------------------------------------------- #
# Modelled time of the candidate the planner picks
# --------------------------------------------------------------------------- #
@pytest.mark.parametrize("kwargs,size", [(kw, size)
                                         for _, kw, size in RUNTIMES],
                         ids=[label for label, _, _ in RUNTIMES])
def test_chosen_candidate_models_what_serving_records(kwargs, size):
    """The chosen candidate's ``modelled_s`` is the modelled time of what
    serving it records, also for a fused candidate on two devices, and
    no candidate is modelled above its own bound."""
    frame = make_frames(size, 1, seed=4)[0]
    request = build_adas_request(size, frame, name="modelled")
    with BrookRuntime(**kwargs) as rt:
        module, _streams, plans = prepare_request(rt, request)
        decision = plan_service_request(
            request, module.program, rt, plans,
            executable_devices=rt.device_count,
            limits=rt.backend.target_limits())
    for candidate in decision.candidates:
        assert candidate.modelled_s <= candidate.wcet_s, \
            candidate.config.describe()
    service_kwargs = dict(kwargs)
    devices = service_kwargs.pop("devices", 1)
    with BrookService(pool_size=1, scheduler="edf", plan="auto",
                      devices=devices, **service_kwargs) as service:
        response = service.process(request)
    assert decision.chosen.config.fused_groups
    # The planner prices the un-fused kernels' bounded work minus the
    # fusion savings; the merged kernel's recorded work differs from
    # that by well under 0.1%.
    assert response.modelled_s == pytest.approx(decision.chosen.modelled_s,
                                                rel=1e-3)
