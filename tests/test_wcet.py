"""Tests for the static WCET analysis (``repro.core.analysis.wcet``).

The contract under test: every bound is *sound* on the runtime's own
modelled timeline (the GPU-model time of the work the runtime actually
records never exceeds the priced bound), and kernels outside the
certified subset get a typed :class:`~repro.errors.WCETError` - never a
number.
"""

import numpy as np
import pytest

from repro.core.analysis.wcet import (
    KernelWCET,
    WCETBound,
    analyze_kernel_wcet,
    kernel_wcet,
    plan_wcet,
    platform_limits,
    program_wcet,
    request_wcet,
)
from repro.core.compiler import compile_source
from repro.core.parser import parse
from repro.errors import WCETError
from repro.runtime import BrookRuntime
from repro.service import ServiceRequest, call
from repro.timing.platforms import get_platform


def kernel_from(body, params="float a<>, out float o<>"):
    unit = parse(f"kernel void f({params}) {{ {body} }}")
    return unit.kernels[0]


def modelled_seconds(runtime, marker, platform="target", devices=1):
    """Price the work recorded since ``marker`` - the service's modelled
    actual, replicated for plan-level soundness checks."""
    from repro.timing.gpu_model import GPUWorkload

    aggregate = runtime.statistics.workload_since(marker)
    workload = GPUWorkload(
        passes=aggregate["passes"],
        elements=aggregate["elements"],
        flops=aggregate["flops"],
        texture_fetches=aggregate["texture_fetches"],
        bytes_to_device=aggregate["bytes_uploaded"],
        bytes_from_device=aggregate["bytes_downloaded"],
        transfer_calls=aggregate["transfer_calls"],
        tile_switches=aggregate["extra_tiles"],
        shard_dispatches=aggregate["extra_shards"],
        halo_bytes=aggregate["halo_bytes"],
    )
    model = get_platform(platform).gpu
    if devices > 1:
        return model.sharded_time_seconds(workload, devices)
    return model.time_seconds(workload)


# --------------------------------------------------------------------------- #
# Kernel-level bounds
# --------------------------------------------------------------------------- #
class TestKernelBounds:
    def test_simple_kernel_has_positive_bound(self):
        wcet = analyze_kernel_wcet(kernel_from("o = a * 2.0 + 1.0;"))
        assert isinstance(wcet, KernelWCET)
        assert wcet.flops_per_element > 0
        assert wcet.gather_fetches_per_element == 0
        assert wcet.stream_inputs == 1
        assert wcet.max_loop_iterations == 1

    def test_fetches_per_element_includes_stream_samplers(self):
        wcet = analyze_kernel_wcet(kernel_from("o = a;"))
        assert wcet.fetches_per_element == wcet.stream_inputs

    def test_loop_multiplies_body_cost(self):
        flat = analyze_kernel_wcet(kernel_from("o = 0.0; o += a;"))
        looped = analyze_kernel_wcet(kernel_from(
            "o = 0.0; for (int i = 0; i < 8; i = i + 1) { o += a; }"
        ))
        assert looped.max_loop_iterations == 8
        assert looped.flops_per_element >= 8 * (flat.flops_per_element - 1)

    def test_gather_counts_as_fetch(self):
        gather = analyze_kernel_wcet(kernel_from(
            "o = a[0][0];", params="float a[][], out float o<>"))
        assert gather.gather_fetches_per_element >= 1

    def test_expensive_builtins_cost_more(self):
        cheap = analyze_kernel_wcet(kernel_from("o = a + 1.0;"))
        pricey = analyze_kernel_wcet(kernel_from("o = sqrt(a) + sin(a);"))
        assert pricey.flops_per_element > cheap.flops_per_element

    def test_branches_are_summed_not_maxed(self):
        # The masked interpreter executes both sides of an if, so the
        # bound must cover then + else + condition.
        both = analyze_kernel_wcet(kernel_from(
            "if (a > 0.0) { o = a * 2.0; } else { o = a * 3.0; }"
        ))
        single = analyze_kernel_wcet(kernel_from("o = a * 2.0;"))
        assert both.flops_per_element > single.flops_per_element

    def test_helper_body_inlined_at_full_cost(self):
        unit = parse(
            "float quad(float x) { return x * x * x * x; }\n"
            "kernel void f(float a<>, out float o<>) { o = quad(a); }"
        )
        helpers = {fn.name: fn for fn in unit.helpers}
        with_helper = analyze_kernel_wcet(unit.kernels[0], helpers)
        without = analyze_kernel_wcet(kernel_from("o = a;"))
        assert with_helper.flops_per_element > without.flops_per_element

    def test_recursion_rejected(self):
        unit = parse(
            "float loop_fn(float x) { return loop_fn(x); }\n"
            "kernel void f(float a<>, out float o<>) { o = loop_fn(a); }"
        )
        helpers = {fn.name: fn for fn in unit.helpers}
        with pytest.raises(WCETError, match="recursi"):
            analyze_kernel_wcet(unit.kernels[0], helpers)

    def test_unknown_call_rejected(self):
        with pytest.raises(WCETError):
            analyze_kernel_wcet(kernel_from("o = mystery(a);"))

    def test_while_loop_rejected(self):
        with pytest.raises(WCETError):
            analyze_kernel_wcet(kernel_from(
                "float i = 0.0; while (i < a) { i += 1.0; } o = i;"))

    def test_unbounded_for_rejected_without_declared_bound(self):
        kernel = kernel_from(
            "o = 0.0; for (int i = 0; i < n; i = i + 1) { o += a; }",
            params="float a<>, float n, out float o<>",
        )
        with pytest.raises(WCETError):
            analyze_kernel_wcet(kernel)
        bounded = analyze_kernel_wcet(
            kernel, range_spec={"params": {"n": (1, 16)}})
        assert bounded.max_loop_iterations == 16


# --------------------------------------------------------------------------- #
# Program-level entry points (certification-gated)
# --------------------------------------------------------------------------- #
class TestProgramBounds:
    COMPLIANT = """
    kernel void scale(float x<>, float k, out float y<>) { y = x * k; }
    reduce void total(float v<>, reduce float acc) { acc += v; }
    """
    NON_COMPLIANT = """
    kernel void spin(float x<>, out float y<>) {
        float i = 0.0;
        while (i < x) { i += 1.0; }
        y = i;
    }
    """

    def test_program_wcet_covers_every_kernel(self):
        program = compile_source(self.COMPLIANT)
        bounds = program_wcet(program)
        assert set(bounds) == set(program.kernels)
        assert all(isinstance(b, KernelWCET) for b in bounds.values())
        assert any(b.is_reduction for b in bounds.values())

    def test_non_compliant_kernel_gets_no_bound(self):
        program = compile_source(self.NON_COMPLIANT, strict=False)
        name = next(iter(program.kernels))
        with pytest.raises(WCETError) as excinfo:
            kernel_wcet(program, name)
        # The typed error carries the certification rule ids.
        assert excinfo.value.reasons
        assert any("BA-" in reason for reason in excinfo.value.reasons)

    def test_platform_limits_are_conservative(self):
        limits = platform_limits(get_platform("target"))
        assert limits.max_texture_size > 0
        assert limits.max_texture_size <= \
            get_platform("target").max_stream_dimension


# --------------------------------------------------------------------------- #
# Plan-level soundness: bound >= modelled actual on every execution mode
# --------------------------------------------------------------------------- #
PIPELINE_SRC = """
kernel void scale(float x<>, float k, out float y<>) { y = x * k; }
kernel void offset(float x<>, float d, out float y<>) { y = x + d; }
reduce void total(float v<>, reduce float acc) { acc += v; }
"""


class TestPlanSoundness:
    def _frame(self, size=16):
        return np.random.default_rng(0).uniform(
            0, 1, (size, size)).astype(np.float32)

    def test_map_plan_bound_is_sound(self):
        rt = BrookRuntime(backend="cpu")
        module = rt.compile(PIPELINE_SRC)
        x = rt.stream_from(self._frame())
        y = rt.stream((16, 16))
        plan = module.scale.bind(x, 2.0, y)
        bound = plan_wcet(plan, limits=rt.backend.target_limits())
        marker = rt.statistics.marker()
        plan.launch()
        actual = modelled_seconds(rt, marker)
        assert actual > 0
        assert bound.seconds >= actual

    def test_reduction_plan_bound_is_sound(self):
        rt = BrookRuntime(backend="cpu")
        module = rt.compile(PIPELINE_SRC)
        stream = rt.stream_from(self._frame())
        plan = module.total.bind(stream)
        bound = plan_wcet(plan, limits=rt.backend.target_limits())
        marker = rt.statistics.marker()
        plan.launch()
        assert bound.seconds >= modelled_seconds(rt, marker)

    def test_fused_pipeline_bound_is_sound(self):
        rt = BrookRuntime(backend="cpu")
        module = rt.compile(PIPELINE_SRC)
        x = rt.stream_from(self._frame())
        y, z = rt.stream((16, 16)), rt.stream((16, 16))
        pipeline = rt.fuse([
            module.scale.bind(x, 2.0, y),
            module.offset.bind(y, 0.25, z),
        ])
        bound = plan_wcet(pipeline, limits=rt.backend.target_limits())
        marker = rt.statistics.marker()
        pipeline.launch()
        assert bound.seconds >= modelled_seconds(rt, marker)

    def test_sharded_plan_bound_is_sound(self):
        rt = BrookRuntime(backend="cpu", devices=2)
        module = rt.compile(PIPELINE_SRC)
        x = rt.stream_from(self._frame())
        y = rt.stream((16, 16))
        plan = module.scale.bind(x, 2.0, y)
        bound = plan_wcet(plan, devices=2, limits=rt.backend.target_limits())
        marker = rt.statistics.marker()
        plan.launch()
        assert bound.seconds >= modelled_seconds(rt, marker, devices=2)

    def test_tiled_plan_bound_is_sound(self):
        # 40x40 on the constrained ES2 profile forces the tiled engine.
        rt = BrookRuntime(backend="gles2", device="constrained-es2")
        module = rt.compile(PIPELINE_SRC)
        x = rt.stream_from(self._frame(40))
        y = rt.stream((40, 40))
        plan = module.scale.bind(x, 2.0, y)
        bound = plan_wcet(plan, limits=rt.backend.target_limits())
        marker = rt.statistics.marker()
        plan.launch()
        assert bound.seconds >= modelled_seconds(rt, marker)

    def test_scaled_bound(self):
        rt = BrookRuntime(backend="cpu")
        module = rt.compile(PIPELINE_SRC)
        plan = module.scale.bind(rt.stream((8, 8)), 2.0, rt.stream((8, 8)))
        bound = plan_wcet(plan)
        doubled = bound.scaled(2.0)
        assert isinstance(doubled, WCETBound)
        assert doubled.seconds == pytest.approx(2.0 * bound.seconds)


# --------------------------------------------------------------------------- #
# Request-level bounds
# --------------------------------------------------------------------------- #
class TestRequestBounds:
    def _request(self, size=16):
        data = np.random.default_rng(1).uniform(
            0, 1, (size, size)).astype(np.float32)
        return ServiceRequest(
            source=PIPELINE_SRC,
            calls=(call("scale", "x", 2.0, "tmp"),
                   call("offset", "tmp", 0.25, "out")),
            inputs={"x": data},
            outputs={"out": data.shape},
            scratch={"tmp": data.shape},
        )

    def test_request_bound_includes_transfers(self):
        request = self._request()
        program = compile_source(request.source)
        bound = request_wcet(request, program)
        assert bound.seconds > 0
        assert bound.workload.bytes_to_device >= 16 * 16 * 4
        assert bound.workload.bytes_from_device >= 16 * 16 * 4
        assert bound.workload.transfer_calls >= 2

    def test_request_bound_grows_with_devices(self):
        request = self._request()
        program = compile_source(request.source)
        one = request_wcet(request, program, devices=1)
        two = request_wcet(request, program, devices=2)
        # More devices add shard dispatch + halo overhead to the bound.
        assert two.workload.shard_dispatches > one.workload.shard_dispatches

    def test_unknown_kernel_rejected(self):
        request = self._request()
        program = compile_source(
            "kernel void other(float x<>, out float y<>) { y = x; }")
        with pytest.raises(WCETError, match="unknown kernel"):
            request_wcet(request, program)
