"""Tests for the interval/range analysis (``repro.core.analysis.ranges``)
and its WCET bound tightening.

Two contracts are under test:

* the abstract interpreter is *sound* on the awkward corners (negative
  steps, ``--`` decrements, clamp idioms, branch refinement, non-affine
  updates, overflow) — it may answer "unknown" but never "proved" for an
  access that can actually fault; and
* the walker's loop record is the one trip deduction: a range spec
  bounds a data-dependent loop (the binary-search app's probe limit is a
  local variable) and a tighter spec tightens the WCET bound.
"""

import pytest


from repro.apps.base import get_application, list_applications
from repro.core.analysis.ranges import Interval, analyze_kernel_ranges
from repro.core.analysis.wcet import analyze_kernel_wcet
from repro.core.compiler import compile_source
from repro.core.parser import parse
from repro.errors import RangeSpecError


def kernel_from(body, params="float a<>, out float o<>"):
    unit = parse(f"kernel void f({params}) {{ {body} }}")
    return unit.kernels[0]


def trips(analysis):
    return [loop.max_trip_count for loop in analysis.loop_bounds.loops]


def gather_kernel(body, params="float lut[], float n, out float o<>"):
    return kernel_from(body, params=params)


LUT16 = {"gathers": {"lut": (16,)}, "params": {"n": (1, 16)}}


class TestLoopDirections:
    def test_negative_step_loop_bounds_gather(self):
        kernel = gather_kernel(
            "o = 0.0; for (int i = 15; i >= 0; i = i - 1) { o = o + lut[i]; }")
        analysis = analyze_kernel_ranges(kernel, LUT16)
        assert [s.verdict for s in analysis.gather_sites] == ["proved"]
        assert trips(analysis) == [16]

    def test_decrement_operator_loop(self):
        kernel = gather_kernel(
            "o = 0.0; for (int i = 15; i >= 0; i--) { o = o + lut[i]; }")
        analysis = analyze_kernel_ranges(kernel, LUT16)
        assert [s.verdict for s in analysis.gather_sites] == ["proved"]
        assert trips(analysis) == [16]

    def test_negative_step_overshoot_is_not_proved(self):
        # i reaches -1 on the last test but -2 after the final decrement;
        # the gather at i - 1 can hit -2 ... 14, so it must not be proved.
        kernel = gather_kernel(
            "o = 0.0; for (int i = 15; i >= 0; i = i - 1) { o = o + lut[i - 1.0]; }")
        analysis = analyze_kernel_ranges(kernel, LUT16)
        assert analysis.gather_sites[0].verdict != "proved"


class TestClampIdioms:
    def test_min_max_clamp_proves_neighbourhood(self):
        # The image-filter border idiom: min(idx + 1, n - 1) / max(idx - 1, 0).
        kernel = gather_kernel(
            "float i = indexof(o).x;"
            "float x0 = max(i - 1.0, 0.0);"
            "float x2 = min(i + 1.0, n - 1.0);"
            "o = lut[x0] + lut[x2];",
            params="float lut[], float n, out float o<>")
        spec = {"domain": ("n",), "gathers": {"lut": ("n",)},
                "params": {"n": (1, 16)}}
        analysis = analyze_kernel_ranges(kernel, spec)
        assert [s.verdict for s in analysis.gather_sites] == ["proved", "proved"]

    def test_clamp_builtin_proves(self):
        kernel = gather_kernel(
            "o = lut[clamp(a * 100.0, 0.0, n - 1.0)];",
            params="float a<>, float lut[], float n, out float o<>")
        analysis = analyze_kernel_ranges(kernel, LUT16)
        assert [s.verdict for s in analysis.gather_sites] == ["proved"]

    def test_unclamped_index_stays_unknown(self):
        kernel = gather_kernel(
            "o = lut[a * 100.0];",
            params="float a<>, float lut[], float n, out float o<>")
        analysis = analyze_kernel_ranges(kernel, LUT16)
        assert analysis.gather_sites[0].verdict == "unknown"


class TestBranchRefinement:
    def test_if_condition_narrows_index(self):
        kernel = gather_kernel(
            "float i = a; o = 0.0;"
            "if (i >= 0.0) { if (i < n) { o = lut[i]; } }",
            params="float a<>, float lut[], float n, out float o<>")
        analysis = analyze_kernel_ranges(kernel, LUT16)
        assert [s.verdict for s in analysis.gather_sites] == ["proved"]

    def test_else_branch_is_not_narrowed(self):
        kernel = gather_kernel(
            "float i = a; o = 0.0;"
            "if (i < 0.0) { o = 1.0; } else { o = lut[i]; }",
            params="float a<>, float lut[], float n, out float o<>")
        analysis = analyze_kernel_ranges(kernel, LUT16)
        # else-branch knows i >= 0 but nothing about the upper bound.
        assert analysis.gather_sites[0].verdict == "unknown"


class TestWideningAndOverflow:
    def test_non_affine_update_widens_but_terminates(self):
        # i doubles every iteration: no affine step, so the variable is
        # widened to top inside the loop; the gather must not be proved.
        kernel = gather_kernel(
            "o = 0.0; float j = 1.0;"
            "for (int i = 0; i < 8; i = i + 1) { j = j * 2.0; o = o + lut[j]; }")
        analysis = analyze_kernel_ranges(kernel, LUT16)
        assert analysis.gather_sites[0].verdict != "proved"
        # The loop itself is still bounded by its affine counter.
        assert trips(analysis) == [8]

    def test_interval_arithmetic_saturates(self):
        big = Interval.range(1.0, 1e308)
        squared = big.mul(big)
        assert squared.hi == float("inf")
        summed = squared.add(squared)
        assert summed.hi == float("inf")
        assert summed.lo == 2.0

    def test_widened_loop_variable_read_after_loop(self):
        kernel = kernel_from(
            "float j = 0.0;"
            "for (int i = 0; i < 4; i = i + 1) { j = j * j + 1.0; }"
            "o = j;")
        analysis = analyze_kernel_ranges(kernel, None)
        assert trips(analysis) == [4]


class TestLoopRecord:
    def test_one_bound_per_loop_node(self):
        kernel = gather_kernel(
            "o = 0.0; for (int i = 0; i < n; i = i + 1) { o = o + lut[i]; }")
        analysis = analyze_kernel_ranges(kernel, LUT16)
        assert [loop.loop for loop in analysis.loop_bounds.loops] == \
            [kernel.body.statements[1]]
        assert trips(analysis) == [16]

    @pytest.mark.parametrize("spec, key", [
        ({"params": {"bogus": object()}}, "params"),
        ({"params": {"n": (1, 2, 3)}}, "params"),
        ({"gathers": {"lut": ("rows", "cols", 2)}}, "gathers"),
        ({"domain": "8 x 8"}, "domain"),
        ({"param": {"n": (1, 16)}}, "param"),
    ])
    def test_malformed_spec_is_a_typed_error(self, spec, key):
        source = "kernel void f(float a<>, out float o<>) { o = a; }"
        with pytest.raises(RangeSpecError) as error:
            compile_source(source, range_specs={"f": spec})
        message = str(error.value)
        assert "'f'" in message and repr(key) in message
        assert repr(spec[key]) in message


class TestWCETTightening:
    def test_range_spec_tightens_the_bound(self):
        kernel = kernel_from(
            "o = 0.0; for (int i = 0; i < n; i = i + 1) { o = o + a; }",
            params="float a<>, float n, out float o<>")
        loose = analyze_kernel_wcet(
            kernel, range_spec={"params": {"n": (1, 2048)}})
        tight = analyze_kernel_wcet(
            kernel, range_spec={"params": {"n": (1, 100)}})
        assert loose.max_loop_iterations == 2048
        assert tight.max_loop_iterations == 100
        assert tight.flops_per_element < loose.flops_per_element

    def test_local_variable_limit_needs_ranges(self):
        # The binary-search shape: the loop limit is a *local* variable;
        # the interval analysis sees through the min(..., 24) clamp.
        body = ("float limit = min(ceil(log2(max(n, 2.0))) + 1.0, 24.0);"
                "o = 0.0;"
                "for (int i = 0; i < limit; i = i + 1) { o = o + a; }")
        kernel = kernel_from(body, params="float a<>, float n, out float o<>")
        bound = analyze_kernel_wcet(kernel)
        assert bound.max_loop_iterations == 24
        tight = analyze_kernel_wcet(
            kernel, range_spec={"params": {"n": (1.0, 2048.0 * 2048.0)}})
        assert tight.max_loop_iterations == 23

    def test_binary_search_app_strictly_tighter(self):
        # The app's probe loop is capped at 24 by its clamp alone; the
        # published range spec (table <= 2048 x 2048) tightens it to 23.
        app = get_application("binary_search")
        unit = parse(app.brook_source)
        kernel = unit.kernels[0]
        loose = analyze_kernel_wcet(kernel)
        bound = analyze_kernel_wcet(
            kernel, range_spec=app.range_specs[kernel.name])
        assert bound.max_loop_iterations == 23
        assert bound.max_loop_iterations < loose.max_loop_iterations
