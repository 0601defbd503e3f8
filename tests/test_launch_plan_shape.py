"""The one public plan shape, as every analysis reads it.

A prepared launch is a :class:`~repro.runtime.launch.LaunchPlan`: a map
plan holds ``passes`` (one per piece of a compiler-split kernel, one for
a fused pair), a reduction holds ``reduce_input``/``accumulator``.  The
executor's hazard sets, the sanitizer's access sets, the dataflow node
and the WCET bound are all derived from that one shape; this table
checks each view per plan kind.
"""

import dataclasses
import math

import numpy as np
import pytest

from repro import BrookRuntime
from repro.backends.gles2_backend import GLES2Backend
from repro.core.analysis.dataflow import build_dataflow_graph, storage_units
from repro.core.analysis.planner import _plan_infos, _transfer_streams
from repro.core.analysis.wcet import plan_wcet
from repro.gles2 import GLES2Limits
from repro.gles2.device import GPUDeviceProfile
from repro.runtime.executor import _collect_hazards
from repro.runtime.launch import FusedPlan, LaunchPlan
from repro.runtime.sanitizer import BrookSanitizer
from repro.timing.platforms import get_platform

SOURCE = """
kernel void scale(float x<>, float lut[], float a, out float y<>) {
    float2 p = indexof(x);
    y = a * x + lut[p.x];
}

kernel void offset(float y<>, float b, out float z<>) {
    z = y + b;
}

kernel void two(float a<>, float b<>, out float s<>, out float d<>) {
    s = a + b;
    d = a - b;
}

reduce void total(float v<>, reduce float acc) {
    acc += v;
}
"""

SHAPE = (4, 4)


def _line_of(name):
    for number, text in enumerate(SOURCE.splitlines(), start=1):
        if f" {name}(" in text:
            return number
    raise AssertionError(name)


def _tiny_gles2_runtime():
    profile = GPUDeviceProfile(
        name="tiny-16", limits=GLES2Limits(name="tiny-16",
                                           max_texture_size=16),
        effective_gflops=1.0, transfer_gib_per_s=1.0,
        pass_overhead_us=100.0, texture_fetch_ns=2.0,
        fill_rate_mpixels=100.0)
    return BrookRuntime(backend=GLES2Backend(profile))


def _streams(rt, shape, *names):
    data = np.arange(int(np.prod(shape)), dtype=np.float32).reshape(shape)
    return [rt.stream_from(data / 16.0, name=name) for name in names]


def single_map(rt):
    x, lut = _streams(rt, SHAPE, "x", "lut")
    y = rt.stream(SHAPE, name="y")
    plan = rt.compile(SOURCE).scale.bind(x, lut, 2.0, y)
    return plan, dict(kind="map", passes=1, reads={"x"}, gathers={"lut"},
                      writes={"y"}, line=_line_of("scale"))


def split_map(rt):
    a, b = _streams(rt, SHAPE, "a", "b")
    s, d = rt.stream(SHAPE, name="s"), rt.stream(SHAPE, name="d")
    plan = rt.compile(SOURCE).two.bind(a, b, s, d)
    return plan, dict(kind="map", passes=2, reads={"a", "b"}, gathers=set(),
                      writes={"s", "d"}, line=_line_of("two"))


def _fused(rt, shape):
    x, lut = _streams(rt, shape, "x", "lut")
    y, z = rt.stream(shape, name="y"), rt.stream(shape, name="z")
    module = rt.compile(SOURCE)
    pipeline = rt.fuse([module.scale.bind(x, lut, 2.0, y),
                        module.offset.bind(y, 0.5, z)])
    [(plan, _)] = pipeline.segments
    return plan, dict(kind="fused", passes=1, reads={"x"}, gathers={"lut"},
                      writes={"z"}, line=_line_of("scale"))


def fused_pair(rt):
    return _fused(rt, SHAPE)


def fused_pair_tiled(rt):
    return _fused(rt, (41,))


def scalar_reduction(rt):
    [v] = _streams(rt, SHAPE, "v")
    plan = rt.compile(SOURCE).total.bind(v)
    return plan, dict(kind="reduction", passes=0, reads={"v"},
                      gathers=set(), writes=set(), line=_line_of("total"))


def reduce_into(rt):
    [v] = _streams(rt, SHAPE, "v")
    acc = rt.stream((2, 2), name="acc")
    plan = rt.compile(SOURCE).total.bind(v, acc)
    return plan, dict(kind="reduction", passes=0, reads={"v"},
                      gathers=set(), writes={"acc"}, line=_line_of("total"))


KINDS = [
    ("single-map", "cpu", single_map),
    ("split-map", "gles2", split_map),
    ("fused-pair", "cpu", fused_pair),
    ("fused-pair-tiled", "tiny-gles2", fused_pair_tiled),
    ("scalar-reduction", "cpu", scalar_reduction),
    ("reduce-into", "cpu", reduce_into),
]


def _names(streams):
    return {stream.name for stream in streams}


def _ids(streams):
    return {unit for stream in streams for unit in storage_units(stream)}


@pytest.fixture(params=KINDS, ids=[kind for kind, _, _ in KINDS])
def case(request):
    _, backend, build = request.param
    rt = _tiny_gles2_runtime() if backend == "tiny-gles2" \
        else BrookRuntime(backend=backend)
    try:
        plan, expected = build(rt)
        yield plan, expected
    finally:
        rt.close()


def test_plan_shape(case):
    plan, expected = case
    assert isinstance(plan, LaunchPlan)
    assert len(plan.passes) == expected["passes"]
    assert plan.is_reduction == (expected["kind"] == "reduction")
    assert isinstance(plan, FusedPlan) == (expected["kind"] == "fused")
    assert bool(plan.fused_kernel_names) == (expected["kind"] == "fused")
    if plan.is_reduction:
        assert plan.reduce_input.name == "v"
        assert plan.domain is None and plan.tile_plan is None
    else:
        assert plan.kernel is plan.passes[0].kernel
        assert plan.reduce_input is None and plan.accumulator is None
    touched = expected["reads"] | expected["gathers"] | expected["writes"]
    assert _names(plan.bound_streams) == touched


def test_executor_hazards(case):
    plan, expected = case
    bound = {stream.name: stream for stream in plan.bound_streams}
    reads, writes = set(), set()
    _collect_hazards(plan, reads, writes)
    written = [bound[name] for name in expected["writes"]]
    read = [bound[name] for name in expected["reads"] | expected["gathers"]]
    if plan.is_reduction:
        # A partial-reduction accumulator is read back after the write.
        read += written
    assert reads == _ids(read)
    assert writes == _ids(written)


def test_sanitizer_accesses(case):
    plan, expected = case
    sanitizer = BrookSanitizer(plan.runtime)
    reads, writes = sanitizer._plan_accesses(plan)
    assert _names(reads.values()) == expected["reads"] | expected["gathers"]
    assert _names(writes.values()) == expected["writes"]
    if plan.is_reduction:
        assert set(reads) == {"<reduce-input>"}
        assert set(writes) == ({"<accumulator>"} if expected["writes"]
                               else set())
    assert sanitizer._plan_location(plan).line == expected["line"]


def test_dataflow_node(case):
    plan, expected = case
    [node] = build_dataflow_graph([plan]).nodes
    assert node.kind == expected["kind"]
    assert node.kernel == plan.kernel_name
    reads = expected["reads"]
    if plan.is_reduction and expected["writes"]:
        reads = reads | expected["writes"]
    assert _names(node.reads.values()) == reads
    assert _names(node.gathers.values()) == expected["gathers"]
    assert _names(node.writes.values()) == expected["writes"]
    assert node.fused_context == (expected["kind"] == "fused")
    assert node.location.line == expected["line"]


def test_plan_wcet_is_finite(case):
    plan, expected = case
    bound = plan_wcet(plan)
    assert math.isfinite(bound.seconds) and bound.seconds > 0.0
    if expected["kind"] == "fused":
        assert bound.name == plan.kernel.name
    elif not plan.is_reduction:
        assert bound.name == "+".join(p.kernel.name for p in plan.passes)


def test_tiled_fused_pair_carries_its_tile_plan():
    rt = _tiny_gles2_runtime()
    try:
        plan, _ = fused_pair_tiled(rt)
        assert plan.tile_plan is not None
        plan.launch()
        record = rt.statistics.launches[-1]
        assert record.fused == 2 and record.tiles == len(plan.tile_plan.pieces)
    finally:
        rt.close()


def test_planner_prices_every_output_of_a_split_kernel():
    """Each pass of a split kernel writes one output; the planner must
    download all of them, not only the first pass's."""
    with BrookRuntime(backend="gles2") as rt:
        plan, _ = split_map(rt)
        a, b, s, d = plan.bound_streams
        uploads, downloads = _transfer_streams(_plan_infos([plan]))
        assert [stream.name for stream in uploads] == ["a", "b"]
        assert [stream.name for stream in downloads] == ["s", "d"]

        decision = rt.autoplan([plan])
        limits = rt.backend.target_limits()
        kernels = plan_wcet(plan, limits=limits).workload
        element_bytes = 4 * SHAPE[0] * SHAPE[1]
        workload = dataclasses.replace(
            kernels, bytes_to_device=2.0 * element_bytes,
            bytes_from_device=2.0 * element_bytes, transfer_calls=4)
        expected = get_platform("target").gpu.time_seconds(workload)
        assert decision.baseline.modelled_s == pytest.approx(expected,
                                                             rel=1e-12)
